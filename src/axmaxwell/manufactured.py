"""Polynomial manufactured solutions for convergence and consistency runs.

Each case is a smooth field satisfying the essential conditions of its
space on the stated domain for every mode k.  Its components are sums of
polynomial products p(r) q(z) with p(0) = 0, so the 1/r factors of its
mode-k rows D_k u = (curl_k u, div_k u) stay polynomial, quadrature is
exact and observed rates are clean.
"""

import numpy as np
from numpy.polynomial import Polynomial

from . import mesh as meshmod, modal_ops, solver
from .femcore import MeshQuadrature

_X = Polynomial([0.0, 1.0])  # the identity, for writing p(r) and q(z)


class ManufacturedField:
    """A field given by terms, three lists (u_r, u_theta, u_z) of (p, q)
    Polynomial pairs: u_c(r, z) = sum of p(r) q(z) over the pairs of c,
    every p(0) = 0.  u(points) -> (P, 3) and ops(points, k) -> (P, 4), the
    rows (curl_r, curl_theta, curl_z, div) of D_k u, both complex."""

    def __init__(self, name, terms):
        self.name = name
        self.terms = terms

    def _parts(self, points):
        """(4, 3, P) array: u, d_r u, d_z u and u / r of each component."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r, z = pts[:, 0], pts[:, 1]
        out = np.zeros((4, 3, len(pts)))
        for c, terms in enumerate(self.terms):
            for p, q in terms:
                pr, qz = p(r), q(z)
                # p(0) = 0: p / r keeps the coefficients of r^1 and up
                out[:, c] += (pr * qz, p.deriv()(r) * qz, pr * q.deriv()(z),
                              Polynomial(p.coef[1:])(r) * qz)
        return out

    def u(self, points):
        return self._parts(points)[0].T.astype(complex, order="C")

    def ops(self, points, k):
        _, d_r, d_z, over_r = self._parts(points)
        ik = 1j * k
        return np.column_stack([
            ik * over_r[2] - d_z[1],
            d_z[0] - d_r[2],
            d_r[1] + over_r[1] - ik * over_r[0],
            d_r[0] + over_r[0] + ik * over_r[1] + d_z[2],
        ])


def rectangle_electric():
    """Tangential-trace-free field on the unit-square meridian rectangle.

    Built from the potential chi = r^2 (1-r) z (1-z) (meridian part is its
    gradient, so the tangential wall trace vanishes) plus azimuthal and
    axial bubbles; every component vanishes at the axis, which satisfies
    the axis rules of all modes simultaneously.
    """
    R, Z = _X ** 2 * (1 - _X), _X * (1 - _X)
    terms = ([(R.deriv(), Z)],                          # u_r
             [(_X * (1 - _X), Z)],                      # u_theta
             [(R, Z.deriv()), (R * (1 - _X), 1 + _X)])  # u_z
    return ManufacturedField("rectangle_electric", terms)


def _stream(name, R, Z):
    """The field (R Z', R' Z, -R' Z) of the stream function R(r) Z(z): its
    meridian part has zero normal trace wherever R Z vanishes."""
    dR = R.deriv()
    return ManufacturedField(name, ([(R, Z.deriv())], [(dR, Z)], [(-dR, Z)]))


def rectangle_magnetic():
    """Normal-trace-free field on the unit-square meridian rectangle,
    driven by the stream function psi = r^2 (1-r) z (1-z)."""
    return _stream("rectangle_magnetic", _X ** 2 * (1 - _X), _X * (1 - _X))


def lshape_magnetic():
    """Normal-trace-free smooth field on the L-shaped meridian domain.

    The stream function r^2 (1-r) (r-r_c) z (1-z) (z-z_c), with the corner
    (r_c, z_c) = (0.5, 0.5), vanishes on every boundary line of the domain,
    so both meridian components carry zero normal trace on the wall; all
    components vanish at the axis (valid for |k| >= 2, in particular the
    stabilized modes).
    """
    r_c = z_c = 0.5
    return _stream("lshape_magnetic", _X ** 2 * (1 - _X) * (_X - r_c),
                   _X * (1 - _X) * (_X - z_c))


def convergence_study(space, ks, hs, tol):
    """Manufactured convergence of the orthogonal mode solve on the unit
    square: for each mode k the (l2, energy) errors against the rectangle
    field of space (electric for X, magnetic otherwise) on the rectangle
    meshes of sizes hs, and the rates fitted to them in log-log.  Each mesh
    and quadrature is built once and serves every mode.

    Returns {k: (errors, l2 rate, energy rate)}, one (l2, energy) pair of
    errors per h.
    """
    mf = rectangle_electric() if space == "X" else rectangle_magnetic()
    errs = {k: [] for k in ks}
    for h in hs:
        msh = meshmod.gen_rectangle(0.0, 1.0, 0.0, 1.0, h)
        quad = MeshQuadrature(msh)
        u = mf.u(quad.xy)
        for k in ks:
            exact = mf.ops(quad.xy, k)
            system = modal_ops.assemble_a_k(msh, k, space, quad=quad)
            rec = solver.solve_mode_orthogonal(system, exact, tol=tol)
            errs[k].append(solver.error_norms(rec.field, u, quad, exact_ops=exact))
    logs = np.log(hs)
    out = {}
    for k, e in errs.items():
        rate_l2 = np.polyfit(logs, np.log([l2 for l2, _ in e]), 1)[0]
        rate_en = np.polyfit(logs, np.log([en for _, en in e]), 1)[0]
        out[k] = (e, rate_l2, rate_en)
    return out
