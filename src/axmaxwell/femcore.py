"""P1 nodal elements on the meridian triangulation.

Fields for mode k are complex with three components (u_r, u_theta, u_z) per
vertex.  Integration uses a degree-5 rule with strictly interior points so
that the weight r and the 1/r factors of the mode-k operators are always
evaluable; elements close to a reentrant corner are integrated on a 4-way
midpoint subdivision to control the rho^(alpha-1) integrands.

Essential constraints encode the trace conditions of the per-mode electric
(X) and magnetic (Y) spaces together with the axis regularity of Fourier
coefficients:

  wall, space X:   u_theta = 0 and meridian tangential component = 0
  wall, space Y:   meridian normal component = 0
  axis, k = 0:     u_r = 0, u_theta = 0
  axis, |k| = 1:   u_z = 0 and the tie u_theta = i*sign(k)*u_r
  axis, |k| >= 2:  u_r = u_theta = u_z = 0

Wall edges must be axis-aligned: wall_components checks it, and the command
line runs it on a mesh file before any output exists.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import scatter
from .mesh import WALL, MeshError, unique

SPACE_X = "X"  # electric: tangential trace clamped on the wall
SPACE_Y = "Y"  # magnetic: normal trace clamped on the wall

_GEOM_TOL = 1e-12
_LOCATE_PAIRS = 1 << 14  # point-triangle pairs _locate tests at once


# -- quadrature ---------------------------------------------------------------


# degree-5, 7-point rule: barycentric points (7, 3), all strictly interior,
# the centroid and two orbits (1 - 2c, c, c), and weights summing to 1
_S15 = math.sqrt(15.0)
RULE_POINTS = np.array([(1 / 3, 1 / 3, 1 / 3)] + [np.roll((1 - 2 * c, c, c), i)
                       for c in ((6.0 - _S15) / 21.0, (6.0 + _S15) / 21.0) for i in range(3)])
RULE_WEIGHTS = np.repeat([9.0 / 40.0, (155.0 - _S15) / 1200.0, (155.0 + _S15) / 1200.0], [1, 3, 3])
# the rule on the 4-way midpoint subdivision of the triangle, the rows of
# each sub-triangle's corners being their barycentric coordinates; the
# weights scale by the area ratio 0.25, a power of two, so exactly
_SUB_CORNERS = 0.5 * np.array([[[2, 0, 0], [1, 1, 0], [1, 0, 1]], [[1, 1, 0], [0, 2, 0], [0, 1, 1]],
                               [[1, 0, 1], [0, 1, 1], [0, 0, 2]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]])
SUB_POINTS = np.concatenate([RULE_POINTS @ sub for sub in _SUB_CORNERS])
SUB_WEIGHTS = np.tile(0.25 * RULE_WEIGHTS, len(_SUB_CORNERS))
MAX_TRIANGLE_POINTS = len(SUB_WEIGHTS)  # on a subdivided triangle
# the barycentric points of a triangle of a quadrature run, by its point count
RULE_OF = {len(points): points for points in (RULE_POINTS, SUB_POINTS)}


class MeshQuadrature:
    """Flattened quadrature data over all elements of a mesh: the 7-point
    rule on each plain triangle, the 28-point subdivided rule on each
    triangle within h of the corner.

    Attributes (Q = total number of points):
      runs          [(plain triangles, 7), (corner triangles, 28)]: each
                    run's triangles in increasing order with their point
                    count; a run may be empty
      tri    (Q,)   owning triangle index
      xy     (Q,2)  physical (r, z) coordinates
      w      (Q,)   weight including the element area (but not the r factor)
      r      (Q,)   radial coordinate, strictly positive
      corner        the corner whose triangles are subdivided, or None
      operators     k-independent operator data (modal_ops.workspace),
                    built on first use

    The points follow the runs: those of a run's triangle i are the n
    consecutive ones from the run's start plus i * n, at the barycentric
    coordinates RULE_OF[n], which no per-point array repeats.
    """

    def __init__(self, mesh, corner=None):
        areas = mesh.triangle_areas()
        refined = np.zeros(mesh.num_triangles, dtype=bool)
        if corner is not None:
            pos = np.asarray(corner.position)
            d = np.linalg.norm(mesh.vertices[mesh.triangles] - pos, axis=2).min(axis=1)
            refined = d <= mesh.h + _GEOM_TOL
        rules = [(np.flatnonzero(~refined), RULE_POINTS, RULE_WEIGHTS),
                 (np.flatnonzero(refined), SUB_POINTS, SUB_WEIGHTS)]
        self.mesh, self.corner = mesh, corner
        self.runs = [(tris, len(weights)) for tris, _, weights in rules]
        self.tri = np.concatenate([np.repeat(tris, len(weights)) for tris, _, weights in rules])
        self.w = np.concatenate([np.outer(areas[tris], weights).ravel() for tris, _, weights in rules])
        bary = np.concatenate([np.tile(points, (len(tris), 1)) for tris, points, _ in rules])
        self.xy = np.einsum("qi,qij->qj", bary, mesh.vertices[mesh.triangles[self.tri]])
        self.r = self.xy[:, 0]
        if np.any(self.r <= 0.0):
            raise MeshError("quadrature point on or beyond the axis")
        self.operators = None


def gradients(mesh):
    """Constant P1 shape gradients per triangle, shape (nt, 3, 2)."""
    p = mesh.vertices[mesh.triangles]
    g = np.empty((mesh.num_triangles, 3, 2))
    det = 2.0 * mesh.triangle_areas()
    for loc in range(3):
        a = p[:, (loc + 1) % 3]
        b = p[:, (loc + 2) % 3]
        g[:, loc, 0] = (a[:, 1] - b[:, 1]) / det
        g[:, loc, 1] = (b[:, 0] - a[:, 0]) / det
    return g


# -- fields --------------------------------------------------------------------


class ModeField:
    """Complex nodal field (u_r, u_theta, u_z) attached to a Fourier mode."""

    def __init__(self, mesh, k, values=None):
        self.mesh = mesh
        self.k = int(k)
        if values is None:
            values = np.zeros((mesh.num_vertices, 3), dtype=complex)
        self.values = np.asarray(values, dtype=complex).reshape(mesh.num_vertices, 3)

    def __add__(self, other):
        if self.mesh is not other.mesh:
            raise ValueError("fields live on different meshes")
        return ModeField(self.mesh, self.k, self.values + other.values)


def _candidates(verts, num_points):
    """Uniform grid over the triangles' bounding boxes, padded so that every
    point _locate finds inside a triangle lies in its box: returns (origin,
    size, shape, start, cand), the triangles whose box meets cell c being
    cand[start[c]:start[c + 1]], in increasing order.  Points that fit one
    block of pairs with every triangle get one cell, which holds them all."""
    nt = len(verts)
    if num_points * nt <= _LOCATE_PAIRS:
        return np.zeros(2), 1.0, np.ones(2, dtype=np.int64), np.array([0, nt]), np.arange(nt)
    lo, hi = verts.min(axis=1), verts.max(axis=1)
    # coordinates >= -_GEOM_TOL keep a point within 2 _GEOM_TOL times the
    # extent of the box; the rest of the pad covers their round-off
    pad = (hi - lo).max(axis=1, keepdims=True) * (4.0 * _GEOM_TOL + 1e-8)
    lo, hi = lo - pad, hi + pad
    origin, span = lo.min(axis=0), hi.max(axis=0) - lo.min(axis=0)
    size = math.sqrt(span[0] * span[1] / nt) or 1.0  # about one triangle per cell
    shape = (span // size).astype(np.int64) + 1
    first = _cell(lo, origin, size, shape)
    last = _cell(hi, origin, size, shape)
    wide = last[:, 0] - first[:, 0] + 1
    count = wide * (last[:, 1] - first[:, 1] + 1)
    tri, local = _expand(count)
    cell = (first[tri, 1] + local // wide[tri]) * shape[0] + first[tri, 0] + local % wide[tri]
    order = np.argsort(cell, kind="stable")  # stable: triangles stay in order
    start = np.searchsorted(cell[order], np.arange(shape.prod() + 1))
    return origin, size, shape, start, tri[order]


def _expand(counts):
    """(owner, offset) of every slot when item i owns counts[i] slots."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _cell(xy, origin, size, shape):
    """Grid cell (i, j) of points (n, 2), clipped to the grid; a point that is
    not finite goes to cell (0, 0), where no triangle contains it."""
    ij = np.floor((xy - origin) / size)
    ij[~np.isfinite(ij)] = 0.0
    return np.clip(ij, 0, shape - 1).astype(np.int64)


def _locate(mesh, points):
    """First triangle containing each point and the barycentric coordinates:
    a point (2,) gives (index, (3,)), points (..., 2) give arrays (...) and
    (..., 3).  Each point is tested only against the triangles whose padded
    bounding box meets its grid cell (see _candidates), which include every
    triangle containing it; the pairs are tested in blocks of about
    _LOCATE_PAIRS."""
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    verts = mesh.vertices[mesh.triangles]
    v0 = verts[:, 0]
    d1 = verts[:, 1] - v0
    d2 = verts[:, 2] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    origin, size, shape, start, cand = _candidates(verts, len(flat))
    ij = _cell(flat, origin, size, shape)
    cell = ij[:, 1] * shape[0] + ij[:, 0]
    count = start[cell + 1] - start[cell]
    ends = np.cumsum(count)
    tri = np.empty(len(flat), dtype=np.int64)
    lam = np.empty((len(flat), 3))
    lo = 0
    while lo < len(flat):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + _LOCATE_PAIRS)))
        # pairs grouped by point, each point's candidates in increasing order
        point, offset = _expand(count[lo:hi])
        point += lo
        t = cand[start[cell[point]] + offset]
        dp = flat[point] - v0[t]
        l1 = (dp[:, 0] * d2[t, 1] - dp[:, 1] * d2[t, 0]) / det[t]
        l2 = (d1[t, 0] * dp[:, 1] - d1[t, 1] * dp[:, 0]) / det[t]
        l0 = 1.0 - l1 - l2
        inside = np.flatnonzero((l0 >= -_GEOM_TOL) & (l1 >= -_GEOM_TOL) & (l2 >= -_GEOM_TOL))
        first = inside[np.unique(point[inside], return_index=True)[1]]
        if len(first) < hi - lo:
            missing = np.ones(hi - lo, dtype=bool)
            missing[point[first] - lo] = False
            p = flat[lo + np.argmax(missing)]
            raise ValueError(f"point {tuple(p)} lies outside the mesh")
        tri[lo:hi] = t[first]
        lam[lo:hi] = np.stack([l0[first], l1[first], l2[first]], axis=1)
        lo = hi
    if pts.ndim == 1:
        return int(tri[0]), lam[0]
    return tri.reshape(pts.shape[:-1]), lam.reshape(pts.shape[:-1] + (3,))


def interpolate(field, points):
    """Barycentric P1 interpolation of a ModeField at meridian points:
    a point (2,) gives (3,), points (..., 2) give (..., 3)."""
    t, lam = _locate(field.mesh, points)
    return np.einsum("...i,...ic->...c", lam, field.values[field.mesh.triangles[t]])


def interpolate_scalar(mesh, nodal, points):
    """P1 interpolation of nodal scalars at a point (2,) or points (..., 2)."""
    t, lam = _locate(mesh, points)
    return np.einsum("...i,...i->...", lam, np.asarray(nodal)[mesh.triangles[t]])


# -- constraints ---------------------------------------------------------------


@dataclass
class ConstraintSet:
    """Essential constraints for one (mode, space) pair, as the map from the
    free dofs onto every nodal dof (dof = 3 * vertex + component):

      index  (n_dofs,)  free index of each dof, -1 for a zero-constrained dof
      coeff  (n_dofs,)  value[dof] = coeff[dof] * x[index[dof]]: 1 for a free
                        dof, i*sign(k) for the u_theta slave of an axis tie,
                        0 for a zero-constrained dof
      free   (n_free,)  the dof of each free index
      slots  (9 nt,)    int32 free index of each element-local dof (local
                        dof 3 * local vertex + component), n_free for none

    A tie slave carries its vertex's u_r free index, so one gather expands
    free coefficients x into the nodal field, and functional, its adjoint
    gathered per element, forms loads.
    """

    mesh: object
    k: int
    space: str
    index: np.ndarray
    coeff: np.ndarray
    free: np.ndarray
    slots: np.ndarray

    @property
    def n_dofs(self):
        return len(self.index)

    @property
    def n_free(self):
        return len(self.free)

    def expand(self, xfree):
        """Nodal values of the field represented by free-dof coefficients."""
        vals = np.zeros(self.n_dofs, dtype=complex)
        ok = self.index >= 0
        vals[ok] = self.coeff[ok] * np.asarray(xfree)[self.index[ok]]
        return ModeField(self.mesh, self.k, vals.reshape(-1, 3))

    def functional(self, per_dof_local):
        """Free-dof functional of per-triangle local test functionals (nt, 9):
        the adjoint of expand, its coefficients gathered per call."""
        vals = per_dof_local * np.conj(self.coeff.reshape(-1, 3)[self.mesh.triangles]).reshape(-1, 9)
        return scatter(self.slots, vals.ravel(), self.n_free)

    def free_values(self, fld):
        """Free-dof coefficients read off a nodal field."""
        return np.asarray(fld.values, dtype=complex).ravel()[self.free]

    def apply(self, fld):
        """Project a nodal field onto the constrained space (idempotent)."""
        return self.expand(self.free_values(fld))


def wall_components(mesh):
    """The wall edges (E, 2) and, per edge, the component of its meridian
    tangent and that of its normal: u_r (0) and u_z (2) for a horizontal
    edge, u_z and u_r for a vertical one.  The first wall edge that is
    neither is named in a MeshError.
    """
    edges = mesh.boundary_edges[mesh.boundary_tags == WALL]
    d = np.abs(mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]])
    horizontal = d[:, 1] <= _GEOM_TOL * np.maximum(1.0, d[:, 0])
    vertical = d[:, 0] <= _GEOM_TOL * np.maximum(1.0, d[:, 1])
    if not np.all(horizontal | vertical):
        i, j = edges[np.argmin(horizontal | vertical)]
        raise MeshError(f"wall edge {i} -> {j} is not axis-aligned")
    tangential = np.where(horizontal, 0, 2)
    return edges, tangential, 2 - tangential


def build_constraints(mesh, k, space):
    """Essential constraints of the discrete X_(k) or Y_(k) space."""
    if space not in (SPACE_X, SPACE_Y):
        raise ValueError(f"space must be '{SPACE_X}' or '{SPACE_Y}'")
    nv = mesh.num_vertices
    # (vertex, component) views of the dofs 3 * vertex + component
    zero = np.zeros((nv, 3), dtype=bool)
    master = np.arange(3 * nv, dtype=np.int64).reshape(nv, 3)  # a tie slave's: its vertex's u_r
    coeff = np.ones((nv, 3), dtype=complex)

    edges, tangential, normal = wall_components(mesh)
    zero[edges, (tangential if space == SPACE_X else normal)[:, None]] = True
    if space == SPACE_X:
        zero[edges, 1] = True

    axis = mesh.axis_vertices()
    if k == 0:
        zero[axis, :2] = True
    elif abs(k) == 1:
        zero[axis, 2] = True
        # a wall condition that pins one side of the tie pins both
        pinned = zero[axis, :2].any(axis=1)
        zero[axis[pinned], :2] = True
        tied = axis[~pinned]
        master[tied, 1] = 3 * tied
        coeff[tied, 1] = 1j * np.sign(k)
    else:
        zero[axis] = True

    zero, master, coeff = zero.ravel(), master.ravel(), coeff.ravel()
    free = np.flatnonzero(~zero & (master == np.arange(zero.size)))
    index = -np.ones(zero.size, dtype=np.int64)
    index[free] = np.arange(free.size)
    index = np.where(zero, -1, index[master])
    coeff[zero] = 0.0
    slots = np.where(index >= 0, index, free.size).astype(np.int32).reshape(-1, 3)[mesh.triangles].ravel()
    return ConstraintSet(mesh, int(k), space, index, coeff, free, slots)


def lift_boundary(constraints, g):
    """Nodal lifting of an inhomogeneous essential trace on the mesh, mode
    and space of a constraint set.

    g is called once, on the (B, 2) array of boundary vertices, and returns
    their (B, 3) complex component triples; the returned field carries g's
    constrained components at zero-constrained boundary dofs and is zero
    elsewhere (tie slaves stay with their master).
    """
    mesh = constraints.mesh
    out = np.zeros((mesh.num_vertices, 3), dtype=complex)
    boundary = unique(mesh.boundary_edges)
    vals = np.asarray(g(mesh.vertices[boundary]), dtype=complex).reshape(len(boundary), 3)
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        raise ValueError(f"boundary trace not finite at vertex {int(boundary[bad][0])}")
    zero = constraints.index.reshape(-1, 3)[boundary] < 0
    out[boundary] = np.where(zero, vals, 0.0)
    return ModeField(mesh, constraints.k, out)
