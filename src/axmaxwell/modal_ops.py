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

assemble_a_k assembles any mode directly from these formulas.  The |k| > 2
matrices of the bordered path instead come from the assembled mode-2 system
through the shift identity

  a_k(u, v) = a_2(u, v) + (k^2 - 4) (u/r, v/r) + i (k - 2) C(u, v),

valid on fields whose boundary terms vanish (all constrained fields of the
|k| >= 2 spaces).  The mode-independent (u/r, v/r) and C matrices are built
once per mode-2 system, on its sparsity pattern, so each shifted matrix is
a sum of three data arrays.  The integration-by-parts split of a_k into its
k = 0 part, 1/r^2 mass terms and first-order coupling terms is provided as
an independent verification oracle of both paths.
"""

import numpy as np

from . import femcore
from .femcore import MeshQuadrature, ModeField, gradients, _locate
from .linalg import HermitianSparse
from .mesh import WALL

# operator component rows used throughout: (curl_r, curl_theta, curl_z, div)
_NOPS = 4


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


class ElementOps:
    """Operator rows of all local P1 dofs at the quadrature points.

    D has shape (Q, 4, 9): rows are (curl_r, curl_theta, curl_z, div), the
    local dof j = 3 * local_vertex + component.  Shared by matrix assembly,
    load assembly and field evaluation so that every pairing uses identical
    quadrature data.
    """

    def __init__(self, mesh, k, quad=None):
        self.mesh = mesh
        self.k = int(k)
        self.quad = quad if quad is not None else MeshQuadrature(mesh)
        q = self.quad
        G = gradients(mesh)[q.tri]  # (Q, 3, 2)
        lam = q.bary
        r = q.r
        ik = 1j * k
        Q = len(r)
        D = np.zeros((Q, _NOPS, 9), dtype=complex)
        for loc in range(3):
            lv = lam[:, loc]
            gr = G[:, loc, 0]
            gz = G[:, loc, 1]
            lor = lv / r
            D[:, 1, 3 * loc + 0] = gz
            D[:, 2, 3 * loc + 0] = -ik * lor
            D[:, 3, 3 * loc + 0] = gr + lor
            D[:, 0, 3 * loc + 1] = -gz
            D[:, 2, 3 * loc + 1] = gr + lor
            D[:, 3, 3 * loc + 1] = ik * lor
            D[:, 0, 3 * loc + 2] = ik * lor
            D[:, 1, 3 * loc + 2] = -gr
            D[:, 3, 3 * loc + 2] = gz
        self.D = D
        self.wr = q.w * q.r
        self._elem = None

    def element_matrices(self):
        """Per-triangle 9x9 Hermitian element matrices of a_k."""
        if self._elem is None:
            contrib = np.einsum("qai,qaj->qij", self.D.conj() * self.wr[:, None, None], self.D)
            elem = np.zeros((self.mesh.num_triangles, 9, 9), dtype=complex)
            np.add.at(elem, self.quad.tri, contrib)
            self._elem = elem
        return self._elem

    def local_values(self, values):
        """Nodal values gathered per quadrature point, shape (Q, 9)."""
        tri = self.mesh.triangles[self.quad.tri]
        v = np.asarray(values, dtype=complex).reshape(-1, 3)[tri]  # (Q, 3, 3)
        return v.reshape(len(self.quad.tri), 9)

    def op_values(self, values):
        """(curl_k, div_k) of a nodal field at the quadrature points, (Q, 4)."""
        return np.einsum("qaj,qj->qa", self.D, self.local_values(values))

    def point_values(self, values):
        """Field values at the quadrature points, (Q, 3)."""
        tri = self.mesh.triangles[self.quad.tri]
        v = np.asarray(values, dtype=complex).reshape(-1, 3)[tri]
        return np.einsum("qi,qic->qc", self.quad.bary, v)


def _global_dofs(mesh):
    return (3 * mesh.triangles[:, :, None] + np.arange(3)).reshape(-1, 9)


class ModeSystem:
    """Assembled constrained system for one (mode, space) pair.

    With assemble=False the reduced matrix is left to the caller (used by
    the mode-shift path, where it comes from the mode-2 assembly).  One
    assembled system serves both the singular basis and the solve of its
    mode; after construction only shift_matrices() writes to it.
    """

    def __init__(self, mesh, k, space, quad=None, constraints=None, assemble=True):
        self.mesh = mesh
        self.k = int(k)
        self.space = space
        self.constraints = (
            constraints
            if constraints is not None
            else femcore.build_constraints(mesh, k, space)
        )
        self.ops = ElementOps(mesh, k, quad)
        self.quad = self.ops.quad
        fidx, coeff = self.constraints.targets()
        gdofs = _global_dofs(mesh)
        self._fidx = fidx[gdofs]  # (nt, 9)
        self._coeff = coeff[gdofs]
        self.matrix = self._reduce_matrix(self.ops.element_matrices()) if assemble else None
        self._shift = None

    def _reduce_matrix(self, elem):
        """Reduced matrix on the free dofs from per-triangle 9x9 element
        matrices; every matrix of one system shares the same pattern."""
        ci = self._coeff
        vals = elem * np.conj(ci)[:, :, None] * ci[:, None, :]
        rows = np.broadcast_to(self._fidx[:, :, None], vals.shape)
        cols = np.broadcast_to(self._fidx[:, None, :], vals.shape)
        keep = (rows >= 0) & (cols >= 0)
        return HermitianSparse.from_coo(
            rows[keep], cols[keep], vals[keep], self.constraints.n_free
        )

    def reduce_functional(self, per_dof_local):
        """Scatter per-element local test functionals onto free dofs."""
        out = np.zeros(self.constraints.n_free, dtype=complex)
        vals = per_dof_local * np.conj(self._coeff)
        keep = self._fidx >= 0
        np.add.at(out, self._fidx[keep], vals[keep])
        return out

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
        """(f, curl_k v) + (g, div_k v) over free test dofs, from samples."""
        contrib = np.einsum("qa,qaj->qj", vec * self.ops.wr[:, None], self.ops.D.conj())
        local = np.zeros((self.mesh.num_triangles, 9), dtype=complex)
        np.add.at(local, self.quad.tri, contrib)
        return self.reduce_functional(local)

    def load_from(self, f=None, g=None):
        """Load vector (f, curl_k v) + (g, div_k v) over the free dofs."""
        return self.functional(self.sample(f, g))

    def shift_matrices(self):
        """The (u/r, v/r) and C matrices on this system's pattern, built on
        first use.  Not thread safe: call it once before sharing the system
        between threads that shift it."""
        if self._shift is None:
            self._shift = (assemble_over_r2_matrix(self), assemble_C_matrix(self))
        return self._shift

    def apply_to_field(self, values):
        """a_k(u, phi_i) for the nodal field u against all free test dofs."""
        elem = self.ops.element_matrices()
        tri = self.mesh.triangles
        u_local = np.asarray(values, dtype=complex).reshape(-1, 3)[tri].reshape(-1, 9)
        per_dof = np.einsum("tij,tj->ti", elem, u_local)
        return self.reduce_functional(per_dof)

    def form_value(self, u_values, v_values):
        """a_k(u, v) for nodal fields via the element matrices."""
        elem = self.ops.element_matrices()
        tri = self.mesh.triangles
        ul = np.asarray(u_values, dtype=complex).reshape(-1, 3)[tri].reshape(-1, 9)
        vl = np.asarray(v_values, dtype=complex).reshape(-1, 3)[tri].reshape(-1, 9)
        return complex(np.einsum("ti,tij,tj->", vl.conj(), elem, ul))


def assemble_a_k(mesh, k, space, quad=None, constraints=None):
    """Assemble the constrained a_k system; the matrix acts on free dofs."""
    return ModeSystem(mesh, k, space, quad=quad, constraints=constraints)


# -- direct and decomposed form values ------------------------------------------


def a_k_direct(mesh, u, v, k, quad=None):
    """a_k(u, v) by quadrature of the mode-k operator formulas."""
    ops = ElementOps(mesh, k, quad)
    uo = ops.op_values(u.values)
    vo = ops.op_values(v.values)
    return complex(np.sum(ops.wr[:, None] * uo * vo.conj()))


def form_over_r2(mesh, u, v, quad=None):
    """(u / r, v / r) in the r-weighted pairing, all three components."""
    quad = quad if quad is not None else MeshQuadrature(mesh)
    ops = ElementOps(mesh, 0, quad)
    uv = ops.point_values(u.values)
    vv = ops.point_values(v.values)
    dots = np.einsum("qc,qc->q", uv, vv.conj())
    return complex(np.sum(quad.w * dots / quad.r))


def form_C(mesh, u, v, quad=None):
    """First-order coupling form 2 * integral of (u_theta conj(v_r) -
    u_r conj(v_theta)) / r over the plain measure dr dz.

    The 1/r is harmless on constrained fields: the axis conditions make the
    numerator vanish (at least) linearly in r.  The measure is pinned by the
    requirement that the decomposition of a_k and the mode-shift identity
    hold exactly; see a_k_via_decomposition.
    """
    quad = quad if quad is not None else MeshQuadrature(mesh)
    ops = ElementOps(mesh, 0, quad)
    uv = ops.point_values(u.values)
    vv = ops.point_values(v.values)
    integrand = 2.0 * (uv[:, 1] * vv[:, 0].conj() - uv[:, 0] * vv[:, 1].conj())
    return complex(np.sum(quad.w * integrand / quad.r))


def form_flux(mesh, u, v, quad=None):
    """Divergence form of the first-order boundary coupling.

    Integrates div_2D(u_theta * conj(v_m) - conj(v_theta) * u_m) over the
    plain measure; by the divergence theorem this equals the boundary flux
    of that field, including the axis portion that is active for the
    |k| = 1 regularity ties.  Appears in the decomposition of a_k with the
    factor ik.
    """
    quad = quad if quad is not None else MeshQuadrature(mesh)
    G = gradients(mesh)[quad.tri]
    tri = mesh.triangles[quad.tri]
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


def _wall_edges_oriented(mesh):
    """Wall edges with outward normals, via the incident triangle."""
    edge_tri = {}
    for t, tri in enumerate(mesh.triangles):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            edge_tri.setdefault(key, []).append(t)
    out = []
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        if tag != WALL:
            continue
        key = (min(i, j), max(i, j))
        t = edge_tri[key][0]
        opp = [v for v in mesh.triangles[t] if v not in (i, j)][0]
        p1, p2 = mesh.vertices[i], mesh.vertices[j]
        d = p2 - p1
        n = np.array([d[1], -d[0]])
        n /= np.linalg.norm(n)
        mid = 0.5 * (p1 + p2)
        if np.dot(n, mid - mesh.vertices[opp]) < 0.0:
            n = -n
        out.append((int(i), int(j), n))
    return out


_GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def form_B(mesh, u, v):
    """Wall boundary form integral of (u_m . n) conj(v_theta) -
    u_theta (conj(v_m) . n), with the weight r and 2-point Gauss per edge.

    Vanishes whenever either field carries the electric or the magnetic
    wall condition; retained as a verification form.
    """
    total = 0.0 + 0.0j
    for i, j, n in _wall_edges_oriented(mesh):
        p1, p2 = mesh.vertices[i], mesh.vertices[j]
        length = np.linalg.norm(p2 - p1)
        ui, uj = u.values[i], u.values[j]
        vi, vj = v.values[i], v.values[j]
        for s in _GAUSS2:
            uu = (1 - s) * ui + s * uj
            vv = ((1 - s) * vi + s * vj).conj()
            r = (1 - s) * p1[0] + s * p2[0]
            u_n = uu[0] * n[0] + uu[2] * n[1]
            v_n = vv[0] * n[0] + vv[2] * n[1]
            total += 0.5 * length * r * (u_n * vv[1] - uu[1] * v_n)
    return complex(total)


def _meridian_only(u):
    vals = u.values.copy()
    vals[:, 1] = 0.0
    return ModeField(u.mesh, 0, vals)


def form_scalar_curl(mesh, u, v, quad=None):
    """(curl u_theta, curl v_theta) with the scalar-field meridian curl
    curl w = (-dw/dz, (1/r) d(r w)/dr) in the r-weighted pairing."""
    quad = quad if quad is not None else MeshQuadrature(mesh)
    G = gradients(mesh)[quad.tri]
    tri = mesh.triangles[quad.tri]
    ut = np.asarray(u.values, dtype=complex)[tri][:, :, 1]
    vt = np.asarray(v.values, dtype=complex)[tri][:, :, 1]
    upt = np.einsum("qi,qi->q", quad.bary, ut)
    vpt = np.einsum("qi,qi->q", quad.bary, vt).conj()
    dut = np.einsum("qi,qij->qj", ut, G)
    dvt = np.einsum("qi,qij->qj", vt, G).conj()
    comp_r = (-dut[:, 1]) * (-dvt[:, 1])
    comp_z = (dut[:, 0] + upt / quad.r) * (dvt[:, 0] + vpt / quad.r)
    return complex(np.sum(quad.w * quad.r * (comp_r + comp_z)))


def form_laplace_k(mesh, wu, wv, k, quad=None):
    """Weak mode-k Laplacian pairing (grad_k wu, grad_k wv) of scalars."""
    quad = quad if quad is not None else MeshQuadrature(mesh)
    G = gradients(mesh)[quad.tri]
    tri = mesh.triangles[quad.tri]
    uu = np.asarray(wu, dtype=complex)[tri]
    vv = np.asarray(wv, dtype=complex)[tri]
    up = np.einsum("qi,qi->q", quad.bary, uu)
    vp = np.einsum("qi,qi->q", quad.bary, vv).conj()
    du = np.einsum("qi,qij->qj", uu, G)
    dv = np.einsum("qi,qij->qj", vv, G).conj()
    grad_pair = du[:, 0] * dv[:, 0] + du[:, 1] * dv[:, 1]
    theta_pair = (k * k) * up * vp / (quad.r * quad.r)
    return complex(np.sum(quad.w * quad.r * (grad_pair + theta_pair)))


def a_k_via_decomposition(mesh, u, v, k, quad=None):
    """a_k(u, v) assembled term by term from the split forms.

    Every form is evaluated at the same quadrature points as the direct
    path, so the identity holds to rounding for arbitrary P1 fields; the
    first-order boundary coupling is integrated as the interior divergence
    form (see form_flux), which also captures the axis flux carried by the
    |k| = 1 regularity ties.
    """
    quad = quad if quad is not None else MeshQuadrature(mesh)
    um = _meridian_only(u)
    vm = _meridian_only(v)
    total = a_k_direct(mesh, um, vm, 0, quad)
    total += (k * k) * form_over_r2(mesh, um, vm, quad)
    total += form_scalar_curl(mesh, u, v, quad)
    theta_u = ModeField(mesh, 0, np.column_stack([
        np.zeros(mesh.num_vertices, complex), u.values[:, 1], np.zeros(mesh.num_vertices, complex)
    ]))
    theta_v = ModeField(mesh, 0, np.column_stack([
        np.zeros(mesh.num_vertices, complex), v.values[:, 1], np.zeros(mesh.num_vertices, complex)
    ]))
    total += (k * k) * form_over_r2(mesh, theta_u, theta_v, quad)
    total += 1j * k * form_C(mesh, u, v, quad)
    total += 1j * k * form_flux(mesh, u, v, quad)
    return total


def a_k_by_shift(mesh, u, v, k, quad=None, base_k=2):
    """a_k(u, v) from the mode-(base_k) value via the shift identity.

    Valid once the boundary coupling of both modes coincides, i.e. on
    fields constrained for the stabilized |k| >= 2 spaces.
    """
    base = a_k_direct(mesh, u, v, base_k, quad)
    quad = quad if quad is not None else MeshQuadrature(mesh)
    shift = (k * k - base_k * base_k) * form_over_r2(mesh, u, v, quad)
    shift += 1j * (k - base_k) * form_C(mesh, u, v, quad)
    return base + shift


# -- Remark-style auxiliary matrices for the bordered path ----------------------


def _element_matrices(system, pair_vals, plain_weight):
    """Per-triangle 9x9 matrices from per-point local pairings.

    pair_vals has shape (Q, 9, 9) giving the integrand contribution of
    (trial local dof j, test local dof i) at each quadrature point.
    """
    q = system.quad
    w = q.w if plain_weight else q.w * q.r
    elem = np.zeros((system.mesh.num_triangles, 9, 9), dtype=complex)
    np.add.at(elem, q.tri, pair_vals * w[:, None, None])
    return elem


def assemble_over_r2_matrix(system):
    """Reduced matrix of (u/r, v/r); mode independent."""
    q = system.quad
    lam = q.bary  # (Q, 3)
    Q = len(q.tri)
    vals = np.zeros((Q, 9, 9), dtype=complex)
    outer = np.einsum("qi,qj->qij", lam, lam) / (q.r * q.r)[:, None, None]
    for c in range(3):
        vals[:, c::3, c::3] = outer
    return system._reduce_matrix(_element_matrices(system, vals, plain_weight=False))


def assemble_C_matrix(system):
    """Reduced matrix of the coupling form C; i * C is Hermitian."""
    q = system.quad
    lam = q.bary
    Q = len(q.tri)
    vals = np.zeros((Q, 9, 9), dtype=complex)
    outer = 2.0 * np.einsum("qi,qj->qij", lam, lam) / q.r[:, None, None]
    # C(phi_j, phi_i): trial theta against test r, minus trial r against test theta
    vals[:, 0::3, 1::3] = outer  # test comp r (rows), trial comp theta (cols)
    vals[:, 1::3, 0::3] = -outer
    return system._reduce_matrix(_element_matrices(system, vals, plain_weight=True))


def shifted_system(system2, k):
    """Mode-k matrix from the assembled mode-2 system via the shift identity.

    The (u/r, v/r) and C matrices come from system2.shift_matrices() and
    share the pattern of its matrix, so the shift adds data arrays only.
    """
    if abs(system2.k) != 2:
        raise ValueError("shifted assembly expects a mode +-2 base system")
    base_k = system2.k
    sign = 1 if base_k > 0 else -1
    if sign * k < 2:
        raise ValueError("shifted assembly serves |k| > 2 with matching sign")
    M, C = system2.shift_matrices()
    K2 = system2.matrix
    data = K2.data + (k * k - 4.0) * M.data + (1j * (k - base_k)) * C.data
    return HermitianSparse(K2.indptr, K2.indices, data, K2.n)
