"""Polynomial manufactured solutions for convergence and consistency runs.

Each case provides a smooth field satisfying the essential conditions of
its space on the stated domain for every mode k, together with its
closed-form mode-k operator rows D_k u = (curl_k u, div_k u).  All
components vanish fast enough at the axis that the 1/r factors stay
polynomial, so quadrature is exact and observed rates are clean.
"""

import numpy as np

from . import mesh as meshmod, modal_ops, solver
from .femcore import MeshQuadrature


class ManufacturedField:
    """Bundle of callables: u(points) -> (P, 3) and ops(points, k) -> (P, 4),
    the rows (curl_r, curl_theta, curl_z, div) of D_k u."""

    def __init__(self, name, u, ops):
        self.name = name
        self._u = u
        self._ops = ops

    def u(self, points):
        return self._u(np.atleast_2d(np.asarray(points, dtype=float)))

    def ops(self, points, k):
        return self._ops(np.atleast_2d(np.asarray(points, dtype=float)), k)


def rectangle_electric():
    """Tangential-trace-free field on the unit-square meridian rectangle.

    Built from the potential chi = r^2 (1-r) z (1-z) (meridian part is its
    gradient, so the tangential wall trace vanishes) plus azimuthal and
    axial bubbles; every component vanishes at the axis, which satisfies
    the axis rules of all modes simultaneously.
    """

    def parts(p):
        r, z = p[:, 0], p[:, 1]
        R = r * r * (1 - r)
        dR = 2 * r - 3 * r * r
        ddR = 2 - 6 * r
        Z = z * (1 - z)
        dZ = 1 - 2 * z
        E = r * r * (1 - r) ** 2
        dE = 2 * r * (1 - r) ** 2 - 2 * r * r * (1 - r)
        T = r * (1 - r)
        dT = 1 - 2 * r
        return r, z, R, dR, ddR, Z, dZ, E, dE, T, dT

    def u(p):
        r, z, R, dR, ddR, Z, dZ, E, dE, T, dT = parts(p)
        out = np.zeros((len(p), 3), dtype=complex)
        out[:, 0] = dR * Z
        out[:, 1] = T * Z
        out[:, 2] = R * dZ + E * (1 + z)
        return out

    def ops(p, k):
        r, z, R, dR, ddR, Z, dZ, E, dE, T, dT = parts(p)
        out = np.zeros((len(p), 4), dtype=complex)
        # u_z / r = (r - r^2) dZ + r (1-r)^2 (1+z)
        out[:, 0] = 1j * k * ((r - r * r) * dZ + r * (1 - r) ** 2 * (1 + z)) - T * dZ
        out[:, 1] = dR * dZ - (dR * dZ + dE * (1 + z))
        out[:, 2] = dT * Z + (1 - r) * Z - 1j * k * (2 - 3 * r) * Z
        # u_r / r = (2 - 3r) Z, u_theta / r = (1 - r) Z
        out[:, 3] = ddR * Z + (2 - 3 * r) * Z + 1j * k * (1 - r) * Z + R * (-2.0) + E
        return out

    return ManufacturedField("rectangle_electric", u, ops)


def rectangle_magnetic():
    """Normal-trace-free field on the unit-square meridian rectangle,
    driven by the stream function psi = r^2 (1-r) z (1-z)."""

    def parts(p):
        r, z = p[:, 0], p[:, 1]
        P = r * r * (1 - r)
        dP = 2 * r - 3 * r * r
        ddP = 2 - 6 * r
        Z = z * (1 - z)
        dZ = 1 - 2 * z
        return r, z, P, dP, ddP, Z, dZ

    def u(p):
        r, z, P, dP, ddP, Z, dZ = parts(p)
        out = np.zeros((len(p), 3), dtype=complex)
        out[:, 0] = P * dZ
        out[:, 1] = dP * Z
        out[:, 2] = -dP * Z
        return out

    def ops(p, k):
        r, z, P, dP, ddP, Z, dZ = parts(p)
        out = np.zeros((len(p), 4), dtype=complex)
        out[:, 0] = -1j * k * (2 - 3 * r) * Z - dP * dZ
        out[:, 1] = P * (-2.0) + ddP * Z
        out[:, 2] = ddP * Z + (2 - 3 * r) * Z - 1j * k * (r - r * r) * dZ
        # P / r = r - r^2, dP / r = 2 - 3r
        out[:, 3] = (r - r * r) * dZ + 1j * k * (2 - 3 * r) * Z
        return out

    return ManufacturedField("rectangle_magnetic", u, ops)


def lshape_magnetic():
    """Normal-trace-free smooth field on the L-shaped meridian domain.

    The stream function r^2 (1-r) (r-r_c) z (1-z) (z-z_c), with the corner
    (r_c, z_c) = (0.5, 0.5), vanishes on every boundary line of the domain,
    so both meridian components carry zero normal trace on the wall; all
    components vanish at the axis (valid for |k| >= 2, in particular the
    stabilized modes).
    """
    r_c = z_c = 0.5

    def parts(p):
        r, z = p[:, 0], p[:, 1]
        R = -(r ** 4) + (1 + r_c) * r ** 3 - r_c * r * r
        dR = -4 * r ** 3 + 3 * (1 + r_c) * r * r - 2 * r_c * r
        ddR = -12 * r * r + 6 * (1 + r_c) * r - 2 * r_c
        R_over_r = -(r ** 3) + (1 + r_c) * r * r - r_c * r
        dR_over_r = -4 * r * r + 3 * (1 + r_c) * r - 2 * r_c
        Z = -(z ** 3) + (1 + z_c) * z * z - z_c * z
        dZ = -3 * z * z + 2 * (1 + z_c) * z - z_c
        ddZ = -6 * z + 2 * (1 + z_c)
        return R, dR, ddR, R_over_r, dR_over_r, Z, dZ, ddZ

    def u(p):
        R, dR, ddR, Rr, dRr, Z, dZ, ddZ = parts(p)
        out = np.zeros((len(p), 3), dtype=complex)
        out[:, 0] = R * dZ
        out[:, 1] = dR * Z
        out[:, 2] = -dR * Z
        return out

    def ops(p, k):
        R, dR, ddR, Rr, dRr, Z, dZ, ddZ = parts(p)
        out = np.zeros((len(p), 4), dtype=complex)
        out[:, 0] = -1j * k * dRr * Z - dR * dZ
        out[:, 1] = R * ddZ + ddR * Z
        out[:, 2] = ddR * Z + dRr * Z - 1j * k * Rr * dZ
        out[:, 3] = Rr * dZ + 1j * k * dRr * Z
        return out

    return ManufacturedField("lshape_magnetic", u, ops)


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
