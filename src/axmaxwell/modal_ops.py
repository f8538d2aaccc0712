"""Mode-k differential operators on P1 fields and assembly of the weighted
div-curl form a_k together with its load functionals.

For mode k the cylindrical operators act on a field w = (w_r, w_theta, w_z)
defined on the meridian plane as

  grad_k w = (dw/dr, ik w / r, dw/dz)                       (scalar w)
  div_k  w = (1/r) d(r w_r)/dr + ik w_theta / r + dw_z/dz
  curl_k w = (ik w_z / r - dw_theta/dz,
              dw_r/dz - dw_z/dr,
              (1/r) (d(r w_theta)/dr - ik w_r))

and a_k(u, v) = (curl_k u, curl_k v) + (div_k u, div_k v) in the r-weighted
L2 pairing, conjugating the second argument.

Mode k enters only through the i k / r terms, so the element matrices of
a_k are E(k) = E00 + k^2 E11 + i k A with real arrays built once per
quadrature (OperatorWorkspace).  Every mode matrix is E(k) reduced on the
free dofs of its constraint class; the |k| >= 2 class depends neither on k
nor on its sign, so the |k| > 2 matrices of the bordered path reuse the
pattern of the assembled mode-2 system (shifted_system).  The shift identity

  a_k(u, v) = a_2(u, v) + (k^2 - 4) (u/r, v/r) + i (k - 2) C(u, v),

valid on fields whose boundary terms vanish (all constrained fields of the
|k| >= 2 spaces), and the integration-by-parts split of a_k into its k = 0
part, 1/r^2 mass terms and first-order coupling terms are evaluated by
independent forms as verification oracles.

A large system on a mesh that nests also carries a multigrid hierarchy:
a_k of its mode and constraint class rediscretised on each coarser mesh,
with the transfers between the constrained spaces (see ModeSystem and
multigrid); linalg.solve_hpd uses it as the preconditioner.
"""

import dataclasses

import numpy as np

from . import femcore
from .femcore import FREE, MeshQuadrature, ModeField, gradients, _locate
from .linalg import HermitianSparse, Level, Multigrid, Transfer, scatter
from .mesh import coarsen

# operator component rows used throughout: (curl_r, curl_theta, curl_z, div)
_NOPS = 4
# a system with fewer free dofs is solved by Jacobi-CG alone: below this a
# multigrid hierarchy costs more to set up than it saves (the L-shape at
# h = 0.05 has about 950 free dofs, at h = 0.025 about 3,700)
MULTIGRID_MIN_DOFS = 2000
# coarsening stops at the first mesh with at most this many vertices; its
# systems (a few hundred free dofs) are solved densely
_COARSEST_VERTICES = 200


# -- pointwise evaluation -------------------------------------------------------


def _local_data(mesh, field_values, point):
    t, lam = _locate(mesh, point)
    tri = mesh.triangles[t]
    vals = np.asarray(field_values, dtype=complex)[tri]
    grads = gradients(mesh)[t]
    return lam, vals, grads


def eval_grad_k(mesh, w, k, point):
    """grad_k of a scalar P1 field at an interior point with r > 0."""
    r = point[0]
    if r <= 0.0:
        raise ValueError("mode-k operators are singular at r = 0")
    lam, vals, grads = _local_data(mesh, np.asarray(w, dtype=complex).reshape(-1, 1), point)
    wval = lam @ vals[:, 0]
    dw = vals[:, 0] @ grads
    return np.array([dw[0], 1j * k * wval / r, dw[1]])


def eval_div_k(field, point, k=None):
    """div_k of a ModeField at an interior point with r > 0."""
    k = field.k if k is None else k
    r = point[0]
    if r <= 0.0:
        raise ValueError("mode-k operators are singular at r = 0")
    lam, vals, grads = _local_data(field.mesh, field.values, point)
    u = lam @ vals
    du = np.einsum("ic,ij->cj", vals, grads)
    return du[0, 0] + u[0] / r + 1j * k * u[1] / r + du[2, 1]


def eval_curl_k(field, point, k=None):
    """curl_k of a ModeField at an interior point with r > 0."""
    k = field.k if k is None else k
    r = point[0]
    if r <= 0.0:
        raise ValueError("mode-k operators are singular at r = 0")
    lam, vals, grads = _local_data(field.mesh, field.values, point)
    u = lam @ vals
    du = np.einsum("ic,ij->cj", vals, grads)
    return np.array(
        [
            1j * k * u[2] / r - du[1, 1],
            du[0, 1] - du[2, 0],
            du[1, 0] + u[1] / r - 1j * k * u[0] / r,
        ]
    )


# -- quadrature-level operator data ---------------------------------------------

# mode-k operator rows of one local dof: the i k / r term of component c
# (u_r, u_theta, u_z) lands in row _K_ROWS[c] with sign _K_SIGNS[c]
_K_ROWS = [2, 3, 0]
_K_SIGNS = np.array([-1.0, 1.0, 1.0])
# triangles per chunk of the per-triangle sums, to bound their temporaries
_CHUNK_TRIANGLES = 1024


class OperatorWorkspace:
    """k-independent operator data of one quadrature.

    The operator rows (curl_r, curl_theta, curl_z, div) of the local P1
    dofs j = 3 * local_vertex + component are D_k = D0 + i k R1 at every
    quadrature point, with D0 and R1 real and R1 holding only the lambda / r
    values of the local vertices.  With the weight W = w r the per-triangle
    9x9 element matrices of a_k are therefore

      E(k) = E00 + k^2 E11 + i k A,
      E00 = D0^T W D0,   E11 = R1^T W R1,   A = D0^T W R1 - R1^T W D0.

    Attributes: D0 (Q, 4, 9), lor (Q, 3) lambda / r, wr (Q,) and the
    (nt, 9, 9) arrays E00, E11 and A, all real, plus the quadrature's tri,
    bary and xy and the mesh triangles.  Built once per quadrature (see
    workspace) and only read afterwards; the methods take the mode k and
    evaluate the mode-k operators of nodal fields on the same points.
    """

    def __init__(self, quad):
        mesh = quad.mesh
        # the arrays, not the quadrature: it holds this workspace
        self.tri, self.bary, self.xy = quad.tri, quad.bary, quad.xy
        self.triangles = mesh.triangles
        G = gradients(mesh)[quad.tri]  # (Q, 3, 2)
        Q = len(quad.tri)
        self.lor = quad.bary / quad.r[:, None]
        self.wr = quad.w * quad.r
        D0 = np.zeros((Q, _NOPS, 9))
        for loc in range(3):
            gr = G[:, loc, 0]
            gz = G[:, loc, 1]
            lor = self.lor[:, loc]
            D0[:, 1, 3 * loc + 0] = gz
            D0[:, 3, 3 * loc + 0] = gr + lor
            D0[:, 0, 3 * loc + 1] = -gz
            D0[:, 2, 3 * loc + 1] = gr + lor
            D0[:, 1, 3 * loc + 2] = -gr
            D0[:, 3, 3 * loc + 2] = gz
        self.D0 = D0
        # points of one triangle are contiguous in the quadrature: chunks of
        # triangles with equal point counts, as (triangle ids, point indices)
        tri = quad.tri
        starts = np.flatnonzero(np.r_[True, tri[1:] != tri[:-1]])
        counts = np.diff(np.r_[starts, Q])
        self.num_triangles = mesh.num_triangles
        self.chunks = []
        for n in np.unique(counts):
            first = starts[counts == n]
            for s in range(0, len(first), _CHUNK_TRIANGLES):
                part = first[s:s + _CHUNK_TRIANGLES]
                self.chunks.append((tri[part], part[:, None] + np.arange(n)))
        nt = self.num_triangles
        self.E00 = np.empty((nt, 9, 9))
        cross = np.empty((nt, 9, 3, 3))  # D0^T W R1, columns (vertex, component)
        mass = np.empty((nt, 3, 3))  # sum of w r (lambda_a / r) (lambda_b / r)
        for tris, idx in self.chunks:
            d0 = D0[idx]  # (m, n, 4, 9)
            w = self.wr[idx]
            lor = self.lor[idx]
            wd0 = d0 * w[:, :, None, None]
            m = len(tris)
            self.E00[tris] = d0.reshape(m, -1, 9).transpose(0, 2, 1) @ wd0.reshape(m, -1, 9)
            cross[tris] = np.einsum("mnci,mnl->milc", wd0[:, :, _K_ROWS] * _K_SIGNS[:, None], lor)
            mass[tris] = np.einsum("mna,mnb->mab", lor * w[:, :, None], lor)
        # R1 maps each component to its own row, so E11 is the mass per component
        self.E11 = (mass[:, :, None, :, None] * np.eye(3)[:, None, :]).reshape(nt, 9, 9)
        cross = cross.reshape(nt, 9, 9)
        self.A = cross - cross.transpose(0, 2, 1)

    def element_matrices(self, k):
        """Per-triangle 9x9 Hermitian element matrices of a_k, E(k), as a new
        array (summed in place: one complex temporary fewer)."""
        out = (1j * k) * self.A
        out += self.E00 + (k * k) * self.E11
        return out

    def local_values(self, values):
        """Nodal values of the local vertices per quadrature point, (Q, 3, 3)."""
        return np.asarray(values, dtype=complex).reshape(-1, 3)[self.triangles[self.tri]]

    def op_values(self, values, k):
        """(curl_k, div_k) of a nodal field at the quadrature points, (Q, 4)."""
        u = self.local_values(values)
        out = np.einsum("qaj,qj->qa", self.D0, u.reshape(-1, 9))
        if k:
            over_r = np.einsum("ql,qlc->qc", self.lor, u)
            out[:, _K_ROWS] += (1j * k) * _K_SIGNS * over_r
        return out

    def point_values(self, values):
        """Field values at the quadrature points, (Q, 3)."""
        return np.einsum("qi,qic->qc", self.bary, self.local_values(values))


def workspace(quad):
    """The operator workspace of quad, built on first use and kept on it.

    Build it before sharing the quadrature between threads; afterwards it is
    only read.
    """
    if quad.operators is None:
        quad.operators = OperatorWorkspace(quad)
    return quad.operators


def _global_dofs(mesh):
    return (3 * mesh.triangles[:, :, None] + np.arange(3)).reshape(-1, 9)


class _Reduction:
    """Reduction of local element data onto the free dofs of one
    constraint set: per-element coefficients, the CSR pattern of the
    reduced matrix and the scatter slots into it, computed once."""

    def __init__(self, mesh, constraints):
        fidx, coeff = constraints.targets()
        gdofs = _global_dofs(mesh)
        fidx = fidx[gdofs]  # (nt, 9)
        self.coeff = coeff[gdofs]
        n = self.n = constraints.n_free
        rows = np.broadcast_to(fidx[:, :, None], (len(gdofs), 9, 9))
        cols = np.broadcast_to(fidx[:, None, :], (len(gdofs), 9, 9))
        keep = (rows >= 0) & (cols >= 0)
        keys, inverse = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
        if len(keys) >= np.iinfo(np.int32).max:
            raise ValueError(f"{len(keys)} nonzeros exceed the int32 scatter slots")
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        self.indices = keys % n
        # int32 slots halve the largest arrays a system keeps
        slots = np.full(keep.shape, len(keys), dtype=np.int32)
        slots[keep] = inverse
        self.slots = slots.ravel()
        self.fslots = np.where(fidx >= 0, fidx, n).astype(np.int32).ravel()

    def matrix(self, elem):
        """Reduced matrix from per-triangle 9x9 element matrices, which are
        scaled by the constraint coefficients in place."""
        ci = self.coeff
        elem *= np.conj(ci)[:, :, None]
        elem *= ci[:, None, :]
        data = scatter(self.slots, elem.ravel(), len(self.indices))
        return HermitianSparse(self.indptr, self.indices, data, self.n)

    def functional(self, per_dof_local):
        """Free-dof functional from per-triangle local test functionals."""
        vals = per_dof_local * np.conj(self.coeff)
        return scatter(self.fslots, vals.ravel(), self.n)


class ModeSystem:
    """Assembled constrained system for one (mode, space) pair.

    The matrix is E(k) of the workspace ws of the quadrature quad reduced
    on the free dofs of the constraint set.  Given base, an assembled mode
    +-2 system of the same space, a |k| > 2 system takes its quadrature and
    reuses its constraint class (targets and pattern; the class of |k| >= 2
    depends neither on k nor on its sign) and its matrix is
    shifted_system(base, k); otherwise quad is required.

    hierarchy is the multigrid preconditioner of the matrix (None: Jacobi)
    and coarse the coarse systems kept for the |k| > 2 systems on this
    base; assemble_systems sets both before it returns the system.  A
    |k| > 2 system shifts each coarse system of its base, so it has a
    hierarchy of its own.  Nothing writes to a system afterwards, so one
    system serves the singular basis and the mode solve, from any thread.
    """

    def __init__(self, mesh, k, space, quad=None, constraints=None, base=None):
        self.mesh = mesh
        self.k = int(k)
        self.space = space
        self.hierarchy = None
        self.coarse = []
        if base is None:
            if quad is None:
                raise ValueError("a mode system needs its quadrature")
            self.quad = quad
            self.ws = workspace(quad)
            self.constraints = (
                constraints
                if constraints is not None
                else femcore.build_constraints(mesh, k, space)
            )
            self.reduction = _Reduction(mesh, self.constraints)
            self.matrix = self.reduction.matrix(self.ws.element_matrices(self.k))
        else:
            if base.space != space:
                raise ValueError("base system is of another space")
            self.quad = base.quad
            self.ws = base.ws
            self.constraints = dataclasses.replace(base.constraints, k=self.k)
            self.reduction = base.reduction
            self.matrix = shifted_system(base, k)
            if base.coarse:
                shifted = [ModeSystem(c.mesh, k, space, base=c) for c in base.coarse]
                self.hierarchy = Multigrid([
                    Level(c.matrix, level.transfer)
                    for c, level in zip(shifted, base.hierarchy.levels)
                ])

    def sample(self, f=None, g=None):
        """Data samples (f_r, f_theta, f_z, g) at the quadrature points.

        f and g are arrays of values at the quadrature points, of shapes
        (Q, 3) and (Q,); None means zero.
        """
        vec = np.zeros((len(self.quad.tri), _NOPS), dtype=complex)
        if f is not None:
            vec[:, :3] = f
        if g is not None:
            vec[:, 3] = g
        if not np.all(np.isfinite(vec)):
            raise ValueError("right-hand side is not finite at a quadrature point")
        return vec

    def functional(self, vec):
        """(f, curl_k v) + (g, div_k v) over free test dofs, from samples.

        The pairings sum_a wr vec_a conj(D_k[a, j]) of each local test dof j
        are formed and summed per chunk of triangles, so no per-point array
        of them is built."""
        ws, k = self.ws, self.k
        local = np.empty((ws.num_triangles, 9), dtype=complex)
        for tris, idx in ws.chunks:
            wv = vec[idx] * ws.wr[idx][:, :, None]  # (m, n, 4)
            pairs = np.einsum("mna,mnaj->mnj", wv, ws.D0[idx])
            if k:
                signed = _K_SIGNS * wv[:, :, _K_ROWS]
                lor = ws.lor[idx]
                for loc in range(3):
                    over_r = lor[:, :, loc, None] * signed
                    over_r *= 1j * k
                    pairs[:, :, 3 * loc:3 * loc + 3] -= over_r
            local[tris] = pairs.sum(axis=1)
        return self.reduction.functional(local)

    def load_from(self, f=None, g=None):
        """Load vector (f, curl_k v) + (g, div_k v) over the free dofs."""
        return self.functional(self.sample(f, g))

    def apply_to_field(self, values):
        """a_k(u, phi_i) for the nodal field u against all free test dofs."""
        elem = self.ws.element_matrices(self.k)
        tri = self.mesh.triangles
        u_local = np.asarray(values, dtype=complex).reshape(-1, 3)[tri].reshape(-1, 9)
        per_dof = np.einsum("tij,tj->ti", elem, u_local)
        return self.reduction.functional(per_dof)


def assemble_a_k(mesh, k, space, quad):
    """Assemble the constrained a_k system on the quadrature quad; the
    matrix acts on free dofs."""
    return ModeSystem(mesh, k, space, quad=quad)


def assemble_systems(mesh, space, modes, quad, corner=None, shift=False):
    """The a_k systems of modes on one quadrature, keyed by k, each with its
    multigrid hierarchy when it has at least MULTIGRID_MIN_DOFS free dofs
    and the mesh nests (see coarse_levels).  With shift, the mode +-2
    systems keep their coarse systems, so that the |k| > 2 systems on them
    shift every level.

    The hierarchies are built after all fine systems, and the coarse
    quadratures are dropped after them unless kept: the coarse workspaces
    then never coexist with the temporaries of a fine assembly.  Everything
    is built here, before any thread shares the systems.
    """
    systems = {k: assemble_a_k(mesh, k, space, quad=quad) for k in modes}
    levels = None
    for k, system in systems.items():
        if system.matrix.n >= MULTIGRID_MIN_DOFS:
            if levels is None:
                levels = coarse_levels(mesh, corner)
            system.hierarchy, system.coarse = multigrid(system, levels, shift and abs(k) == 2)
    return systems


# -- multigrid hierarchy ----------------------------------------------------------


def coarse_levels(mesh, corner=None):
    """The nested coarser meshes of mesh, finest first, as (mesh, parents,
    quad) triples: parents maps the vertices of the next finer mesh onto
    the coarse one (see mesh.coarsen), and every mode system on the level
    shares the quadrature quad, which subdivides at corner like the fine
    one and comes with its operator workspace.

    Coarsening stops at the first mesh with at most _COARSEST_VERTICES
    vertices.  When the mesh does not nest that far (a mesh file that is
    no uniform refinement, an h whose grid does not halve onto the corner)
    the list is empty and every system keeps Jacobi.
    """
    nested = []
    msh = mesh
    while msh.num_vertices > _COARSEST_VERTICES:
        step = coarsen(msh)
        if step is None:
            return []
        msh, parents = step
        nested.append((msh, parents))
    levels = []
    for msh, parents in nested:
        quad = MeshQuadrature(msh, corner)
        workspace(quad)
        levels.append((msh, parents, quad))
    return levels


def transfer(fine, coarse, parents):
    """Prolongation from the free dofs of the coarse constraint set to those
    of the fine one: expand the coarse field, interpolate it as P1 (each
    fine vertex averages its two parents) and read the fine free dofs.  The
    interpolant of a constrained coarse field is constrained on the fine
    mesh, so this is the exact embedding of the coarse space."""
    fidx, coeff = coarse.targets()
    dofs = np.flatnonzero(fine.kind == FREE)
    vertex, comp = np.divmod(dofs, 3)
    pv = parents[vertex]
    cdofs = 3 * pv + comp[:, None]
    index = fidx[cdofs]
    weight = np.where(pv[:, :1] == pv[:, 1:], [1.0, 0.0], 0.5) * coeff[cdofs]
    weight[index < 0] = 0.0
    index[index < 0] = 0
    return Transfer(index, weight, coarse.n_free)


def multigrid(system, levels, keep_coarse=False):
    """Multigrid hierarchy of an assembled system: a_k of its mode and space
    rediscretised on each coarse level, with the transfers between them.

    Returns (Multigrid, coarse systems): the coarse systems are returned
    only with keep_coarse, otherwise just their matrices stay, in the
    hierarchy.  Empty levels give (None, []).
    """
    if not levels:
        return None, []
    hierarchy, kept = [], []
    finer = system.constraints
    for msh, parents, quad in levels:
        coarse = assemble_a_k(msh, system.k, system.space, quad=quad)
        hierarchy.append(Level(coarse.matrix, transfer(finer, coarse.constraints, parents)))
        if keep_coarse:
            kept.append(coarse)
        finer = coarse.constraints
    return Multigrid(hierarchy), kept


# -- direct and decomposed form values ------------------------------------------


def a_k_direct(u, v, k, quad):
    """a_k(u, v) by quadrature of the mode-k operator formulas."""
    ws = workspace(quad)
    uo = ws.op_values(u.values, k)
    vo = ws.op_values(v.values, k)
    return complex(np.sum(ws.wr[:, None] * uo * vo.conj()))


def form_over_r2(u, v, quad):
    """(u / r, v / r) in the r-weighted pairing, all three components."""
    ws = workspace(quad)
    uv = ws.point_values(u.values)
    vv = ws.point_values(v.values)
    dots = np.einsum("qc,qc->q", uv, vv.conj())
    return complex(np.sum(quad.w * dots / quad.r))


def form_C(u, v, quad):
    """First-order coupling form 2 * integral of (u_theta conj(v_r) -
    u_r conj(v_theta)) / r over the plain measure dr dz.

    The 1/r is harmless on constrained fields: the axis conditions make the
    numerator vanish (at least) linearly in r.  The measure is pinned by the
    requirement that the decomposition of a_k and the mode-shift identity
    hold exactly; see a_k_via_decomposition.
    """
    ws = workspace(quad)
    uv = ws.point_values(u.values)
    vv = ws.point_values(v.values)
    integrand = 2.0 * (uv[:, 1] * vv[:, 0].conj() - uv[:, 0] * vv[:, 1].conj())
    return complex(np.sum(quad.w * integrand / quad.r))


def form_flux(u, v, quad):
    """Divergence form of the first-order boundary coupling.

    Integrates div_2D(u_theta * conj(v_m) - conj(v_theta) * u_m) over the
    plain measure; by the divergence theorem this equals the boundary flux
    of that field, including the axis portion that is active for the
    |k| = 1 regularity ties.  Appears in the decomposition of a_k with the
    factor ik.
    """
    G = gradients(quad.mesh)[quad.tri]
    tri = quad.mesh.triangles[quad.tri]
    uvals = np.asarray(u.values, dtype=complex)[tri]  # (Q, 3, 3)
    vvals = np.asarray(v.values, dtype=complex)[tri]
    up = np.einsum("qi,qic->qc", quad.bary, uvals)
    vp = np.einsum("qi,qic->qc", quad.bary, vvals).conj()
    dup = np.einsum("qic,qij->qcj", uvals, G)
    dvp = np.einsum("qic,qij->qcj", vvals, G).conj()
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


def _meridian_only(u):
    vals = u.values.copy()
    vals[:, 1] = 0.0
    return ModeField(u.mesh, 0, vals)


def form_scalar_curl(u, v, quad):
    """(curl u_theta, curl v_theta) with the scalar-field meridian curl
    curl w = (-dw/dz, (1/r) d(r w)/dr) in the r-weighted pairing."""
    G = gradients(quad.mesh)[quad.tri]
    tri = quad.mesh.triangles[quad.tri]
    ut = np.asarray(u.values, dtype=complex)[tri][:, :, 1]
    vt = np.asarray(v.values, dtype=complex)[tri][:, :, 1]
    upt = np.einsum("qi,qi->q", quad.bary, ut)
    vpt = np.einsum("qi,qi->q", quad.bary, vt).conj()
    dut = np.einsum("qi,qij->qj", ut, G)
    dvt = np.einsum("qi,qij->qj", vt, G).conj()
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
    mesh = quad.mesh
    um = _meridian_only(u)
    vm = _meridian_only(v)
    total = a_k_direct(um, vm, 0, quad)
    total += (k * k) * form_over_r2(um, vm, quad)
    total += form_scalar_curl(u, v, quad)
    theta_u = ModeField(mesh, 0, np.column_stack([
        np.zeros(mesh.num_vertices, complex), u.values[:, 1], np.zeros(mesh.num_vertices, complex)
    ]))
    theta_v = ModeField(mesh, 0, np.column_stack([
        np.zeros(mesh.num_vertices, complex), v.values[:, 1], np.zeros(mesh.num_vertices, complex)
    ]))
    total += (k * k) * form_over_r2(theta_u, theta_v, quad)
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
    """Mode-k matrix, |k| > 2, on the constraint class of an assembled mode
    +-2 system: E(k) of the quadrature's workspace reduced on the pattern
    of system2.matrix.  Equal, bit for bit, to assemble_a_k(k).matrix.
    """
    if abs(system2.k) != 2:
        raise ValueError("shifted assembly expects a mode +-2 base system")
    if abs(k) <= 2:
        raise ValueError("shifted assembly serves |k| > 2")
    return system2.reduction.matrix(system2.ws.element_matrices(int(k)))
