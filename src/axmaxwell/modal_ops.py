"""Mode-k differential operators on P1 fields and assembly of the weighted
div-curl form a_k together with its load functionals.

For mode k the cylindrical operators act on a field w = (w_r, w_theta, w_z)
defined on the meridian plane as

  div_k  w = (1/r) d(r w_r)/dr + ik w_theta / r + dw_z/dz
  curl_k w = (ik w_z / r - dw_theta/dz,
              dw_r/dz - dw_z/dr,
              (1/r) (d(r w_theta)/dr - ik w_r))

and a_k(u, v) = (curl_k u, curl_k v) + (div_k u, div_k v) in the r-weighted
L2 pairing, conjugating the second argument.  The rows (curl_k, div_k) are
written once, as three constant tensors:

  D_k u = GRAD : grad u + (OVER_R + i k IK_R) (u / r),

with grad u the (r, z) derivatives of the three components.  The operator
values at quadrature points, their adjoint (the load pairings) and the
element matrices all apply these tensors.

Mode k enters only through the i k / r terms, so the element matrices of
a_k are E(k) = E00 + k^2 E11 + i k A with real blocks formed per range of
triangles (OperatorWorkspace), reduced range by range on the free dofs of
a class on a CSR pattern expanded from the vertex pairs.  The |k| >= 2
class depends neither on k nor on its sign, so the |k| > 2 matrices of the
bordered path follow from a mode +-2 matrix, on its pattern, by the shift
identity (shifted_system)

  a_k(u, v) = a_2(u, v) + (k^2 - 4) (u/r, v/r) + i (k - 2) C(u, v),

valid on fields whose boundary terms vanish (all constrained fields of the
|k| >= 2 spaces).  It and the integration-by-parts split of a_k into its
k = 0 part, 1/r^2 mass terms and first-order coupling terms are also
evaluated by independent forms as verification oracles.

A large system on a mesh that nests also carries a multigrid hierarchy:
a_k of its mode and constraint class rediscretised on each coarser mesh,
with the transfers between the constrained spaces (see ModeSystem and
multigrid); linalg.solve_hpd uses it as the preconditioner.
"""

import collections
import copy
import dataclasses

import numpy as np

from . import femcore
from .femcore import MeshQuadrature, ModeField, gradients
from .linalg import HermitianSparse, Level, Multigrid, Transfer
from .mesh import coarsen, unique

# operator component rows used throughout: (curl_r, curl_theta, curl_z, div)
_NOPS = 4
# a system with fewer free dofs is solved by Jacobi-CG alone: below this a
# multigrid hierarchy costs more to set up than it saves (the L-shape at
# h = 0.05 has about 950 free dofs, at h = 0.025 about 3,700)
MULTIGRID_MIN_DOFS = 2000
# coarsening stops at the first mesh with at most this many vertices; its
# systems (a few hundred free dofs) are solved densely
_COARSEST_VERTICES = 200
ShiftBase = collections.namedtuple("ShiftBase", "k matrix mass")  # what a shift reads of a +-2 level


# -- the mode-k operators -------------------------------------------------------

# D_k u = GRAD : grad u + (OVER_R + i k IK_R) (u / r) (module docstring):
# indices are the row (curl_r, curl_theta, curl_z, div), the component
# (u_r, u_theta, u_z) and, in GRAD, the derivative (d/dr, d/dz)
GRAD = np.zeros((_NOPS, 3, 2))
GRAD[0, 1, 1] = -1.0  # curl_r:     -du_theta/dz
GRAD[1, 0, 1] = 1.0  # curl_theta:  du_r/dz
GRAD[1, 2, 0] = -1.0  # curl_theta: -du_z/dr
GRAD[2, 1, 0] = 1.0  # curl_z:      du_theta/dr
GRAD[3, 0, 0] = GRAD[3, 2, 1] = 1.0  # div: du_r/dr + du_z/dz
OVER_R = np.zeros((_NOPS, 3))
OVER_R[2, 1] = OVER_R[3, 0] = 1.0  # curl_z: u_theta / r, div: u_r / r
IK_R = np.zeros((_NOPS, 3))
IK_R[0, 2] = IK_R[3, 1] = 1.0  # curl_r: ik u_z / r, div: ik u_theta / r
IK_R[2, 0] = -1.0  # curl_z: -ik u_r / r
# GRAD as a ((derivative, component), row) matrix, for grad u flattened alike
_GRAD_DC = GRAD.transpose(2, 1, 0).reshape(6, _NOPS)


def _over_r_rows(k):
    """OVER_R + i k IK_R, the (4, 3) rows acting on u / r."""
    return OVER_R + (1j * k) * IK_R


# -- quadrature-level operator data ---------------------------------------------

# triangles per chunk of the per-triangle sums, to bound their temporaries
_CHUNK_TRIANGLES = 1024
# triangles per range of the element blocks, the largest temporaries of an assembly
_BLOCK_TRIANGLES = 128


class OperatorWorkspace:
    """k-independent operator data of one quadrature.

    At the points of a triangle with shape gradients G the mode-k operator
    rows of a P1 field u are

      D_k u = GRAD : grad u + (OVER_R + i k IK_R) (u / r),

    where grad u = u_local^T G is constant on the triangle and
    u / r = (lambda / r) @ u_local is the only term that varies inside it.
    On the local dofs j = 3 * local_vertex + component this is
    D_k = D0 + i k R1 with D0 = GRAD . G + OVER_R lambda / r and
    R1 = IK_R lambda / r, both real, so with the weight W = w r the
    per-triangle 9x9 element matrices of a_k are

      E(k) = E00 + k^2 E11 + i k A,
      E00 = D0^T W D0,   E11 = R1^T W R1 = m (x) I_3,   A = D0^T W R1 - R1^T W D0,

    with m_ij = sum_q w r (lambda_i / r)(lambda_j / r) the (u/r, v/r) mass.

    D0 and R1 exist only per chunk (triangle ids, slice of points, n) of
    m triangles of n points each, a slice of one of the quadrature's runs
    (quad.runs) of at most _CHUNK_TRIANGLES triangles: its per-point data
    are slices reshaped to (m, n, ...), and the real factors G, lambda / r
    and w r act on float views of complex arrays.  E00, E11 and A are
    formed per chunk of a range of at most _BLOCK_TRIANGLES triangles and
    never kept.  Attributes: G (nt, 3, 2), lor (Q, 3) lambda / r, formed run
    by run from the rule points (femcore.RULE_OF), wr (Q,), the chunks and
    ranges, all real, the distinct vertex pairs of the element entries,
    pairs, as (row vertices, column vertices) and pair_of (nt * 9,), the
    pair of each entry, plus the quadrature's xy and runs and the mesh
    triangles.  Built once per quadrature (see workspace), then only read;
    the methods take the mode k: element_range forms E(k) of a range,
    op_chunks applies D_k to nodal fields and adjoint_chunks pairs point
    samples with the local test dofs, chunk by chunk (op_values,
    op_adjoint: all points at once).
    """

    def __init__(self, quad):
        mesh = quad.mesh
        # the arrays, not the quadrature: it holds this workspace
        self.xy, self.triangles = quad.xy, mesh.triangles
        self.G = gradients(mesh)
        self.wr = quad.w * quad.r
        self.runs, nt = quad.runs, mesh.num_triangles
        self.num_triangles, self.chunks = nt, self.chunks_of(slice(0, nt), _CHUNK_TRIANGLES)
        self.lor = np.empty((len(quad.r), 3))
        for _, points, n in self.chunks:
            self.lor[points] = (femcore.RULE_OF[n] / quad.r[points].reshape(-1, n, 1)).reshape(-1, 3)
        self.ranges = [slice(t, min(t + _BLOCK_TRIANGLES, nt)) for t in range(0, nt, _BLOCK_TRIANGLES)]
        pairs = (mesh.triangles[:, :, None] * mesh.num_vertices + mesh.triangles[:, None, :]).ravel()
        pairs, pair_of = np.unique(pairs, return_inverse=True)
        self.pairs, self.pair_of = np.divmod(pairs, mesh.num_vertices), pair_of.astype(np.int32)

    def over_r2(self, points, m, n):
        """The mass m of m triangles of n points each at the points, (m, 3, 3)."""
        lor = self.lor[points].reshape(m, n, 3)
        return lor.transpose(0, 2, 1) @ (lor * self.wr[points].reshape(m, n, 1))

    def _blocks(self, tris, points, n):
        """E00, E11 and A of one chunk, (m, 9, 9) each."""
        m = len(tris)
        # (m, n, row, local vertex, component); GRAD's part of D0 is per triangle
        lor = self.lor[points].reshape(m, n, 3)
        grad = np.zeros((m, 1, _NOPS, 3, 3))
        for a, c, d in zip(*np.nonzero(GRAD)):
            grad[:, 0, a, :, c] += GRAD[a, c, d] * self.G[tris, :, d]
        d0 = np.repeat(grad, n, axis=1)
        r1 = np.zeros_like(d0)
        for tensor, out in ((OVER_R, d0), (IK_R, r1)):
            for a, c in zip(*np.nonzero(tensor)):
                out[:, :, a, :, c] += tensor[a, c] * lor
        w = np.repeat(self.wr[points], _NOPS).reshape(m, n * _NOPS, 1)  # the rows of all points stacked
        d0, r1 = d0.reshape(m, n * _NOPS, 9), r1.reshape(m, n * _NOPS, 9)
        wd0 = d0 * w
        e00, cross = d0.transpose(0, 2, 1) @ wd0, wd0.transpose(0, 2, 1) @ r1
        e11 = self.over_r2(points, m, n)[:, :, None, :, None] * np.eye(3)[:, None, :]
        return e00, e11.reshape(m, 9, 9), cross - cross.transpose(0, 2, 1)

    def chunks_of(self, triangles, size):
        """The chunks of the triangles in a slice, at most size each, run by run."""
        out, start = [], 0
        for tris, n in self.runs:
            i, j = np.searchsorted(tris, (triangles.start, triangles.stop))
            for s in range(i, j, size):
                part = tris[s:min(s + size, j)]
                out.append((part, slice(start + s * n, start + (s + len(part)) * n), n))
            start += len(tris) * n
        return out

    def element_range(self, triangles, k):
        """E(k), the 9x9 Hermitian element matrices of a_k, of the triangles
        of a range (a slice) as a new (m, 9, 9) array in triangle order."""
        out = np.empty((triangles.stop - triangles.start, 9, 9), dtype=complex)
        for tris, points, n in self.chunks_of(triangles, _BLOCK_TRIANGLES):
            e00, e11, a = self._blocks(tris, points, n)
            part = (1j * k) * a
            part += e00 + (k * k) * e11
            out[tris - triangles.start] = part
        return out

    def op_chunks(self, values, k):
        """D_k u = (curl_k, div_k) of a nodal field u at the quadrature
        points, chunk by chunk: a (points, (P, 4) rows) pair per chunk."""
        u = np.asarray(values, dtype=complex).reshape(-1, 3)
        rows = _over_r_rows(k).T
        for tris, points, n in self.chunks:
            local = u[self.triangles[tris]].view(float)  # (m, local vertex, (component, re/im))
            grad = _GRAD_DC.T @ (self.G[tris].transpose(0, 2, 1) @ local).reshape(-1, 6, 2)
            u_r = (self.lor[points].reshape(-1, n, 3) @ local).reshape(-1, 6).view(complex)
            out = (u_r @ rows).reshape(-1, n, _NOPS)
            out += grad.view(complex).reshape(-1, 1, _NOPS)
            del local, u_r  # only the rows live while the caller reads them
            yield points, out.reshape(-1, _NOPS)

    def op_values(self, values, k):
        """D_k u at all quadrature points, (Q, 4): op_chunks filled in."""
        out = np.empty((len(self.wr), _NOPS), dtype=complex)
        for points, rows in self.op_chunks(values, k):
            out[points] = rows
        return out

    def adjoint_chunks(self, chunks, k, read=None):
        """Adjoint of op_chunks: the pairings sum_q w r vec . conj(D_k phi_j)
        of samples vec, (P, 4) rows per chunk in chunk order, with the local
        test dofs j of each triangle, (nt, 9), read(points, vec) first if given.  The gradient
        part pairs the per-triangle sum of w r vec, so no per-point array of pairings is built."""
        rows = np.conj(_over_r_rows(k))
        local = np.empty((self.num_triangles, 3, 6))
        for (tris, points, n), vec in zip(self.chunks, chunks, strict=True):
            if read is not None:
                read(points, vec)
            m = len(tris)
            wv = np.ascontiguousarray(vec, dtype=complex).view(float) * self.wr[points, None]
            wv = wv.reshape(m, n, 2 * _NOPS)
            grad = (_GRAD_DC @ wv.sum(axis=1).reshape(m, _NOPS, 2)).reshape(m, 2, 6)
            pairs = (wv.reshape(-1, 2 * _NOPS).view(complex) @ rows).view(float).reshape(m, n, 6)
            lor = self.lor[points].reshape(m, n, 3)
            local[tris] = self.G[tris] @ grad + lor.transpose(0, 2, 1) @ pairs
            del vec, wv, pairs  # before the next chunk's rows are formed
        return local.view(complex).reshape(-1, 9)

    def samples(self, vec):
        """vec[points] per chunk, of point samples vec (Q, m) or an object read
        alike (solver.ModeData); a chunk that is not finite raises ValueError."""
        for _, points, _ in self.chunks:
            rows = vec[points]
            if not np.all(np.isfinite(rows)):
                raise ValueError("right-hand side is not finite at a quadrature point")
            yield rows

    def op_adjoint(self, vec, k):
        """adjoint_chunks of the samples of vec (Q, 4) at all quadrature points."""
        return self.adjoint_chunks(self.samples(vec), k)

    def norm_sq(self, rows, points=slice(None)):
        """sum_q w r |rows_q|^2 of rows (P, m) at the points (all by default)."""
        return np.sum(self.wr[points, None] * np.abs(rows) ** 2)

    def point_values(self, values):
        """Field values at the quadrature points, (Q, 3), from the rule points."""
        u = np.asarray(values, dtype=complex).reshape(-1, 3)
        out = np.empty((len(self.wr), 3), dtype=complex)
        for tris, points, n in self.chunks:
            local = u[self.triangles[tris]].view(float)  # (m, local vertex, (component, re/im))
            out[points] = (femcore.RULE_OF[n] @ local).view(complex).reshape(-1, 3)
        return out


def workspace(quad):
    """The operator workspace of quad, built on first use and kept on it;
    afterwards it is only read."""
    if quad.operators is None:
        quad.operators = OperatorWorkspace(quad)
    return quad.operators


class _Pattern:
    """CSR pattern of the reduced matrix of a constraint set and the slot of
    every element entry in it, which only the assembly of a system reads.
    Both come from the workspace's vertex pairs: each expands to its 3x3
    dof pairs through the class's free index."""

    def __init__(self, constraints, ws):
        self.constraints = c = constraints
        n = c.n_free
        rows, cols = (c.index[3 * v[:, None] + np.arange(3)] for v in ws.pairs)
        keep = (rows[:, :, None] >= 0) & (cols[:, None, :] >= 0)  # (pair, row, column component)
        entries = (rows[:, :, None] * n + cols[:, None, :])[keep]
        del rows, cols
        keys = unique(entries)
        if len(keys) >= np.iinfo(np.int32).max:
            raise ValueError(f"{len(keys)} nonzeros exceed the int32 scatter slots")
        # int32 slots halve the largest arrays a system keeps
        slots = np.full(keep.shape, len(keys), dtype=np.int32)
        slots[keep] = np.searchsorted(keys, entries)
        del entries
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self.indices = np.remainder(keys, n, out=keys)
        # the entry (t, 3 i + a, 3 j + b) reads the slot (pair_of[t, i, j], a, b)
        self.slots = np.empty(81 * ws.num_triangles, dtype=np.int32)
        for i, pair in enumerate(ws.pair_of.reshape(-1, 3, 3).transpose(1, 0, 2)):
            self.slots.reshape(-1, 3, 3, 3, 3)[:, i] = slots[pair].transpose(0, 2, 1, 3)

    def matrix(self, ws, k):
        """Reduced matrix of a_k from E(k) of the workspace ws, each range
        scaled by the constraint coefficients and added in triangle order."""
        coeff = self.constraints.coeff.reshape(-1, 3)
        data = np.zeros(len(self.indices) + 1, dtype=complex)  # the last slot takes no free dof's entries
        for tris in ws.ranges:
            ci = coeff[ws.triangles[tris]].reshape(-1, 9)
            elem = ws.element_range(tris, k) * np.conj(ci)[:, :, None]
            elem *= ci[:, None, :]
            np.add.at(data, self.slots[81 * tris.start:81 * tris.stop], elem.ravel())
            del elem  # before the next range's blocks
        return HermitianSparse(self.indptr, self.indices, data[:-1], self.constraints.n_free)

    def mass(self, ws):
        """The real (u/r, v/r) form on the pattern of a class whose free dofs
        all have coefficient 1 (|k| >= 2): of each triangle's m (x) I_3 the
        entries (3 i + a, 3 j + a), the others being 0, added in triangle order."""
        m = np.empty((ws.num_triangles, 3, 3, 1))
        for tris, points, n in ws.chunks:
            m[tris, :, :, 0] = ws.over_r2(points, len(tris), n)
        data = np.zeros(len(self.indices) + 1)
        np.add.at(data, np.diagonal(self.slots.reshape(-1, 3, 3, 3, 3), axis1=2, axis2=4), m)  # (t, i, j, a)
        return data[:-1]


class ModeSystem:
    """Assembled constrained system for one (mode, space) pair.

    The constraint set gives the mesh, mode and space; the matrix is E(k)
    of the workspace ws of the quadrature quad reduced on its free dofs.
    Every mode +-2 system is a shift base, its mass the (u/r, v/r) form on
    its pattern, from which a |k| > 2 system is shifted (shifted).

    hierarchy is the multigrid preconditioner of the matrix (None: Jacobi)
    and coarse, on a mode +-2 system, the ShiftBase of each coarse level;
    assemble_systems sets both before it returns the system.  Nothing
    writes to a system afterwards, so one system serves the singular basis
    and the mode solve.
    """

    def __init__(self, constraints, quad):
        self.constraints = c = constraints
        if quad.mesh is not c.mesh:
            raise ValueError("quadrature and constraints are on different meshes")
        self.mesh, self.k, self.space = c.mesh, c.k, c.space
        self.quad, self.ws = quad, workspace(quad)
        pattern = _Pattern(c, self.ws)  # its int32 slots die with this call
        self.matrix = pattern.matrix(self.ws, self.k)
        self.mass = pattern.mass(self.ws) if abs(self.k) == 2 else None
        self.hierarchy, self.coarse = None, []

    def shifted(self, k):
        """The mode-k system, |k| > 2, on the quadrature of this mode +-2
        system and its constraint arrays (the class of |k| >= 2 depends
        neither on k nor on its sign): shifted_system of it and of each
        coarse system."""
        out = copy.copy(self)
        out.matrix, out.k = shifted_system(self, k), int(k)
        out.constraints = dataclasses.replace(self.constraints, k=out.k)
        out.hierarchy, out.coarse, out.mass = None, [], None
        if self.coarse:
            out.hierarchy = Multigrid([Level(shifted_system(base, k), level.transfer)
                                       for base, level in zip(self.coarse, self.hierarchy.levels)])
        return out

    def functional(self, vec):
        """(f, curl_k v) + (g, div_k v) over the free test dofs v, from the
        (Q, 4) samples vec = (f_r, f_theta, f_z, g) at the quadrature points
        (see OperatorWorkspace.op_adjoint and samples)."""
        return self.constraints.functional(self.ws.op_adjoint(vec, self.k))


def assemble_a_k(mesh, k, space, quad, constraints=None):
    """Assemble the constrained a_k system on the quadrature quad (and its
    constraint set, built here unless given) on free dofs (see ModeSystem)."""
    return ModeSystem(constraints or femcore.build_constraints(mesh, k, space), quad)


def assemble_systems(classes, quad):
    """The a_k systems of the constraint sets classes on one quadrature,
    keyed by k like classes, each with its multigrid hierarchy when it has
    at least MULTIGRID_MIN_DOFS free dofs and the mesh nests (see
    coarse_levels).  A mode +-2 system is a shift base on every level: it
    forms a mass on the fine mesh and on each coarse level and keeps its
    coarse levels, which the |k| > 2 systems shifted from it read.

    The hierarchies are built after all fine systems, and the coarse
    quadratures are dropped after them: the coarse workspaces then never
    coexist with the temporaries of a fine assembly.
    """
    systems = {k: assemble_a_k(quad.mesh, k, c.space, quad, c) for k, c in classes.items()}
    levels = None
    for system in systems.values():
        if system.matrix.n >= MULTIGRID_MIN_DOFS:
            if levels is None:
                levels = coarse_levels(quad)
            system.hierarchy, system.coarse = multigrid(system, levels)
    return systems


# -- multigrid hierarchy ----------------------------------------------------------


def coarse_levels(quad):
    """The nested coarser meshes of quad's mesh, finest first, as (mesh,
    parents, quad) triples: parents maps the vertices of the next finer mesh
    onto the coarse one (see mesh.coarsen), and every mode system on the
    level shares its quadrature, which subdivides at quad's corner like the
    fine one.

    Coarsening stops at the first mesh with at most _COARSEST_VERTICES
    vertices.  When the mesh does not nest that far (a mesh file that is
    no uniform refinement, an h whose grid does not halve onto the corner)
    the list is empty and every system keeps Jacobi.
    """
    nested = []
    msh = quad.mesh
    while msh.num_vertices > _COARSEST_VERTICES:
        step = coarsen(msh)
        if step is None:
            return []
        msh, parents = step
        nested.append((msh, parents))
    return [(msh, parents, MeshQuadrature(msh, quad.corner)) for msh, parents in nested]


def transfer(fine, coarse, parents):
    """Prolongation from the free dofs of the coarse constraint set to those
    of the fine one: expand the coarse field, interpolate it as P1 (each
    fine vertex averages its two parents) and read the fine free dofs.  The
    interpolant of a constrained coarse field is constrained on the fine
    mesh, so this is the exact embedding of the coarse space."""
    vertex, comp = np.divmod(fine.free, 3)
    pv = parents[vertex]
    cdofs = 3 * pv + comp[:, None]
    index = coarse.index[cdofs]
    weight = np.where(pv[:, :1] == pv[:, 1:], [1.0, 0.0], 0.5) * coarse.coeff[cdofs]
    index[index < 0] = 0  # a zero-constrained dof has weight 0: any free dof will do
    return Transfer(index, weight, coarse.n_free)


def multigrid(system, levels):
    """Multigrid hierarchy of an assembled system: a_k of its mode and space
    rediscretised on each coarse level, with the transfers between them.

    Returns (Multigrid, the ShiftBase of each level, its matrix the
    hierarchy's, if the mode is +-2, else []); empty levels give (None, []).
    """
    if not levels:
        return None, []
    hierarchy, kept = [], []
    finer = system.constraints
    for msh, parents, quad in levels:
        coarse = assemble_a_k(msh, system.k, system.space, quad=quad)
        hierarchy.append(Level(coarse.matrix, transfer(finer, coarse.constraints, parents)))
        kept.append(ShiftBase(coarse.k, coarse.matrix, coarse.mass))
        finer = coarse.constraints
    return Multigrid(hierarchy), kept if abs(system.k) == 2 else []


# -- direct and decomposed form values ------------------------------------------


def a_k_direct(u, v, k, quad):
    """a_k(u, v) by quadrature of the mode-k operator formulas."""
    ws = workspace(quad)
    uo, vo = (ws.op_values(f.values, k) for f in (u, v))
    return complex(np.sum(ws.wr[:, None] * uo * vo.conj()))


def form_over_r2(u, v, quad):
    """(u / r, v / r) in the r-weighted pairing, all three components."""
    uv, vv = (workspace(quad).point_values(f.values) for f in (u, v))
    return complex(np.sum(quad.w * np.einsum("qc,qc->q", uv, vv.conj()) / quad.r))


def form_C(u, v, quad):
    """First-order coupling form 2 * integral of (u_theta conj(v_r) -
    u_r conj(v_theta)) / r over the plain measure dr dz.

    The 1/r is harmless on constrained fields: the axis conditions make the
    numerator vanish (at least) linearly in r.  The measure is pinned by the
    requirement that the decomposition of a_k and the mode-shift identity
    hold exactly; see a_k_via_decomposition.
    """
    uv, vv = (workspace(quad).point_values(f.values) for f in (u, v))
    integrand = 2.0 * (uv[:, 1] * vv[:, 0].conj() - uv[:, 0] * vv[:, 1].conj())
    return complex(np.sum(quad.w * integrand / quad.r))


def _sampled(u, quad):
    """Values (Q, 3) (point_values) and gradients (Q, 3, 2) of the P1 field u
    at the quadrature points, the latter from the triangle gradients."""
    ws = workspace(quad)
    vals = np.asarray(u.values, dtype=complex)[quad.mesh.triangles[quad.tri]]  # (Q, 3, 3)
    return ws.point_values(u.values), np.einsum("qic,qij->qcj", vals, ws.G[quad.tri])


def _components(u, keep):
    """Mode-0 copy of the field u with the components not in the (r, theta,
    z) mask keep set to zero."""
    return ModeField(u.mesh, 0, np.where(keep, u.values, 0.0))


def form_flux(u, v, quad):
    """Divergence form of the first-order boundary coupling.

    Integrates div_2D(u_theta * conj(v_m) - conj(v_theta) * u_m) over the
    plain measure; by the divergence theorem this equals the boundary flux
    of that field, including the axis portion that is active for the
    |k| = 1 regularity ties.  Appears in the decomposition of a_k with the
    factor ik.
    """
    up, dup = _sampled(u, quad)
    vp, dvp = (a.conj() for a in _sampled(v, quad))
    integrand = (
        dup[:, 1, 0] * vp[:, 0]
        + up[:, 1] * dvp[:, 0, 0]
        + dup[:, 1, 1] * vp[:, 2]
        + up[:, 1] * dvp[:, 2, 1]
        - dup[:, 0, 0] * vp[:, 1]
        - up[:, 0] * dvp[:, 1, 0]
        - dup[:, 2, 1] * vp[:, 1]
        - up[:, 2] * dvp[:, 1, 1]
    )
    return complex(np.sum(quad.w * integrand))


def form_scalar_curl(u, v, quad):
    """(curl u_theta, curl v_theta) with the scalar-field meridian curl
    curl w = (-dw/dz, (1/r) d(r w)/dr) in the r-weighted pairing."""
    up, dup = _sampled(u, quad)
    vp, dvp = (a.conj() for a in _sampled(v, quad))
    upt, vpt, dut, dvt = up[:, 1], vp[:, 1], dup[:, 1], dvp[:, 1]
    comp_r = (-dut[:, 1]) * (-dvt[:, 1])
    comp_z = (dut[:, 0] + upt / quad.r) * (dvt[:, 0] + vpt / quad.r)
    return complex(np.sum(quad.w * quad.r * (comp_r + comp_z)))


def a_k_via_decomposition(u, v, k, quad):
    """a_k(u, v) assembled term by term from the split forms.

    Every form is evaluated at the same quadrature points as the direct
    path, so the identity holds to rounding for arbitrary P1 fields; the
    first-order boundary coupling is integrated as the interior divergence
    form (see form_flux), which also captures the axis flux carried by the
    |k| = 1 regularity ties.
    """
    meridian, theta = [True, False, True], [False, True, False]
    um, vm = _components(u, meridian), _components(v, meridian)
    total = a_k_direct(um, vm, 0, quad)
    total += (k * k) * form_over_r2(um, vm, quad)
    total += form_scalar_curl(u, v, quad)
    tu, tv = _components(u, theta), _components(v, theta)
    total += (k * k) * form_over_r2(tu, tv, quad)
    total += 1j * k * form_C(u, v, quad)
    total += 1j * k * form_flux(u, v, quad)
    return total


def a_k_by_shift(u, v, k, quad):
    """a_k(u, v) from the mode-2 value via the shift identity.

    Valid once the boundary coupling of both modes coincides, i.e. on
    fields constrained for the stabilized |k| >= 2 spaces.
    """
    base = a_k_direct(u, v, 2, quad)
    shift = (k * k - 4) * form_over_r2(u, v, quad)
    shift += 1j * (k - 2) * form_C(u, v, quad)
    return base + shift


def shifted_system(system2, k):
    """Mode-k matrix, |k| > 2, on the class and pattern of an assembled mode
    k_2 = +-2 system by the shift identity: real(a_2) + (k^2 - 4) mass, and
    imag(a_2), k_2 times the reduced A, times k / k_2.  Equal to
    assemble_a_k(k).matrix within round-off, not bit for bit."""
    if abs(system2.k) != 2:
        raise ValueError("shifted assembly expects a mode +-2 base system")
    if abs(k) <= 2:
        raise ValueError("shifted assembly serves |k| > 2")
    a2 = system2.matrix
    data = np.empty(a2.nnz, dtype=complex)
    data.real = a2.data.real + (k * k - 4) * system2.mass
    data.imag = a2.data.imag * (k / system2.k)
    return HermitianSparse(a2.indptr, a2.indices, data, a2.n)
