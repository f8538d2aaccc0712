"""Analytic principal parts of the geometric singularities and computation
of the per-mode singular complement bases.

Near a reentrant corner of opening pi/alpha the electric and magnetic
singular fields behave like rho^(alpha-1); their principal parts carry the
r/a cutoff that enforces the axis conditions:

  S_e = -(r/a) alpha rho^(alpha-1) (sin T, 0, cos T)        T = (alpha-1) phi - phi0
  S   = -(r/a) alpha rho^(alpha-1) (cos T, 0, -sin T)

with mode-k curls and divergences available in closed form.  Conical
vertices enter only the dimension bookkeeping of singular_dimensions.

A singular complement basis is the sum of a principal part and a regular
nodal correction solving the lifted homogeneous problem

  a_k(x_reg, v) = -a_k(S, v)  for all regular test fields v,

with the essential trace of x_reg prescribed to cancel the principal trace
on the wall.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import femcore
from .femcore import ModeField
from .linalg import CGInfo, solve_hpd

EDGE_ELECTRIC = "edge_electric"
EDGE_MAGNETIC = "edge_magnetic"

_CORNER_GUARD = 1e-12


@dataclass(frozen=True)
class PrincipalPart:
    """Analytic principal part of one reentrant edge, electric or magnetic."""

    kind: str
    corner: object

    def __post_init__(self):
        if self.kind not in (EDGE_ELECTRIC, EDGE_MAGNETIC):
            raise ValueError(f"unknown principal part kind {self.kind!r}")
        if not 0.5 < self.corner.alpha < 1.0:
            raise ValueError("edge principal parts require a reentrant corner")

    def _frame(self, pts):
        """rho^(alpha-1) and (s, c) = (sin T, cos T), T = (alpha-1) phi - phi0,
        at (P, 2) points of the corner's polar coordinates (rho, phi); the
        magnetic part is the electric one turned a quarter, (s, c) -> (c, -s)."""
        c = self.corner
        rho, phi = c.local_coords(pts)
        if np.any(rho == 0.0):
            raise ValueError("principal part evaluated at the corner")
        theta = (c.alpha - 1.0) * phi - c.phi0
        s, co = np.sin(theta), np.cos(theta)
        if self.kind == EDGE_MAGNETIC:
            s, co = co, -s
        return rho ** (c.alpha - 1.0), s, co

    def values(self, points):
        """Component triples (u_r, u_theta, u_z) at (r, z) points, (P, 3)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g, s, c = self._frame(pts)
        amp = -(pts[:, 0] / self.corner.a) * self.corner.alpha * g
        return np.column_stack([amp * s, np.zeros_like(amp), amp * c])

    def ops(self, points, k):
        """Closed-form D_k rows (curl_k, div_k) of the principal part,
        (P, 4) complex."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g, s, c = self._frame(pts)
        amp = (self.corner.alpha / self.corner.a) * g
        ik = 1j * k
        return np.column_stack([-ik * amp * c, amp * c, ik * amp * s, -2.0 * amp * s])


def _guarded_values(pp, mesh, points):
    """Edge principal part at (P, 2) points, zero within a guard radius of
    the corner, where it diverges."""
    rho, _ = pp.corner.local_coords(points)
    safe = rho > _CORNER_GUARD * mesh.diameter()
    vals = np.zeros((len(points), 3))
    vals[safe] = pp.values(points[safe])
    return vals


@dataclass(frozen=True)
class SingularBasis:
    """One singular complement function: analytic principal part plus the
    computed regular nodal correction, with the CG solve of the correction.
    It holds only what defines the basis: a_k(s, s) is paired where the
    basis is used and kept on the mode's ModeRecord."""

    k: int
    space: str
    principal: PrincipalPart
    regular: ModeField
    cg: CGInfo = None

    def total_nodal(self):
        """Nodal values of principal + regular; the corner vertex carries
        only the regular value (the principal part diverges there)."""
        msh = self.regular.mesh
        return self.regular.values + _guarded_values(self.principal, msh, msh.vertices)

    def op_chunks(self, ws, k):
        """(curl_k, div_k) of the total basis per chunk of the workspace ws,
        as ws.op_chunks: regular part discrete, principal part analytic."""
        for points, rows in ws.op_chunks(self.regular.values, k):
            rows += self.principal.ops(ws.xy[points], k)
            yield points, rows

    def pairings(self, ws, k, read=None):
        """Unreduced a_k(basis, v) of each triangle's local test dofs v, (nt, 9), chunk by chunk;
        read(points, rows), if given, reads each chunk of rows first (see solver._pair)."""
        return ws.adjoint_chunks((rows for _, rows in self.op_chunks(ws, k)), k, read)

    def op_arrays(self, ws, k):
        """op_chunks at all quadrature points of ws, (Q, 4): op_chunks filled in."""
        out = np.empty((len(ws.wr), 4), dtype=complex)
        for points, rows in self.op_chunks(ws, k):
            out[points] = rows
        return out

    def point_arrays(self, ws):
        """Total basis values at the quadrature points of ws, (Q, 3)."""
        return ws.point_values(self.regular.values) + self.principal.values(ws.xy)


def lift_basis(constraints, quad):
    """S + lift, the start of a basis solve, formed before its system exists
    and not evaluated here: the principal part S at quad.corner (ValueError
    without one) with its boundary lift on the constraint set as regular
    part.  The solve's right-hand side is -constraints.functional of its
    pairings, and a_k(S + lift, S + lift) bounds a_k(s, s) of the solved
    basis s (CG from x = 0 only lowers the energy)."""
    if quad.corner is None:  # the basis integrands go like rho^(alpha-1) at the corner
        raise ValueError("a singular basis needs a quadrature subdivided at its corner")
    mesh, k, space = constraints.mesh, constraints.k, constraints.space
    pp = PrincipalPart(EDGE_ELECTRIC if space == femcore.SPACE_X else EDGE_MAGNETIC, quad.corner)
    lift = femcore.lift_boundary(constraints, lambda pts: -_guarded_values(pp, mesh, pts))
    return SingularBasis(k, space, pp, lift)


def compute_basis(system, tol=1e-10, lifted=None):
    """Compute the singular complement basis on an assembled mode system,
    which gives the mesh, mode, space and, through its quadrature, the
    corner (see lift_basis); it serves the mode solve too, so it is only
    read here.  The solver computes the bases of |k| <= 2 only, since the
    singular subspaces coincide for all |k| >= 2; a direct |k| > 2 basis
    cross-checks that.  lifted is (S + lift, right-hand side) from lift_basis
    and pairings, given by the solver for a mode it solves and formed here,
    bit for bit alike, otherwise.  The mode solve pairs the data with it
    through its free dofs (solver._paired) and keeps a_k(s, s) on its record."""
    if lifted is None:
        start = lift_basis(system.constraints, system.quad)
        lifted = start, -system.constraints.functional(start.pairings(system.ws, system.k))
    start, rhs = lifted
    x, info = solve_hpd(system.matrix, rhs, tol=tol, hierarchy=system.hierarchy)
    return replace(start, regular=system.constraints.expand(x) + start.regular, cg=info)


def singular_dimensions(corners, cones, k, space, beta):
    """Dimension of the singular subspace for one mode and field kind.

    Every reentrant edge contributes one basis function for all modes and
    both kinds; conical vertices contribute only to the electric mode 0,
    and only when their aperture exceeds pi/beta (beta from the special module).
    """
    n_edges = sum(1 for c in corners if c.reentrant)
    if space == femcore.SPACE_X and k == 0:
        n_edges += sum(1 for cone in cones if cone.aperture > math.pi / beta)
    return n_edges
