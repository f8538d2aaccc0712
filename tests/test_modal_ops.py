import math
import tracemalloc

import numpy as np
import pytest

from axmaxwell import femcore, linalg, mesh, modal_ops, verification
from axmaxwell.femcore import SPACE_X, SPACE_Y, MeshQuadrature, ModeField
from test_femcore import _quadrature_reference


def _random_constrained(msh, k, space, rng):
    cs = femcore.build_constraints(msh, k, space)
    raw = ModeField(
        msh, k, rng.normal(size=(msh.num_vertices, 3)) + 1j * rng.normal(size=(msh.num_vertices, 3))
    )
    return cs.apply(raw)


@pytest.fixture(scope="module")
def rect_quad(rect):
    return MeshQuadrature(rect)


def _nodal(msh, column, values):
    vals = np.zeros((msh.num_vertices, 3), dtype=complex)
    vals[:, column] = values
    return vals


def test_eval_div_of_radial_field(rect, rect_quad):
    opv = modal_ops.workspace(rect_quad).op_values(_nodal(rect, 0, rect.vertices[:, 0]), 3)
    assert opv[:, 3] == pytest.approx(np.full(len(opv), 2.0))


def test_eval_curl_of_axial_swirl(rect, rect_quad):
    opv = modal_ops.workspace(rect_quad).op_values(_nodal(rect, 2, rect.vertices[:, 0]), 2)
    assert opv[:, :3] == pytest.approx(np.broadcast_to([2j, -1.0, 0.0], (len(opv), 3)))


def test_eval_grad_of_height(rect, rect_quad):
    """D_k of (0, 0, w) holds grad_k w = (dw/dr, ik w / r, dw/dz) as
    (-curl_theta, curl_r, div): for w = z and k = 4, (4i z / r, 0, 0, 1)."""
    opv = modal_ops.workspace(rect_quad).op_values(_nodal(rect, 2, rect.vertices[:, 1]), 4)
    r, z = rect_quad.xy.T
    want = np.zeros((len(opv), 4), dtype=complex)
    want[:, 0], want[:, 3] = 4j * z / r, 1.0
    assert np.abs(opv - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("k", [0, 1, -2, 5])
def test_op_values_match_pointwise_operators(lshape, lshape_quad, rng, k):
    """The chunked kernel agrees with the pointwise rows of criterion 2,
    central differences of the interpolated field, at every quadrature
    point of plain and corner-subdivided triangles."""
    msh, _ = lshape
    counts = np.bincount(lshape_quad.tri, minlength=msh.num_triangles)
    assert counts.min() < counts.max()
    fld = ModeField(
        msh, k, rng.normal(size=(msh.num_vertices, 3)) + 1j * rng.normal(size=(msh.num_vertices, 3))
    )
    opv = modal_ops.workspace(lshape_quad).op_values(fld.values, k)
    fd = verification.fd_ops(lambda p: femcore.interpolate(fld, p).T, lshape_quad.xy, k, 1e-6).T
    scale = np.maximum(1.0, np.abs(femcore.interpolate(fld, lshape_quad.xy)).max(axis=1))
    assert (np.abs(opv - fd).max(axis=1) / scale).max() <= 1e-6


def test_criterion_2_fails_on_negated_mode(monkeypatch):
    """Criterion 2 checks the kernel the solves run: op_values fed -k
    instead of k fails it."""
    op_values = modal_ops.OperatorWorkspace.op_values
    monkeypatch.setattr(modal_ops.OperatorWorkspace, "op_values",
                        lambda self, values, k: op_values(self, values, -k))
    assert not verification.criterion_2_operator_oracle().passed


def test_matrix_is_hermitian(lshape, lshape_quad):
    msh, _ = lshape
    system = modal_ops.assemble_a_k(msh, 1, SPACE_X, quad=lshape_quad)
    dense = system.matrix.to_dense()
    assert np.abs(dense - dense.conj().T).max() <= 1e-12


def test_mode_zero_matrix_is_real(lshape, lshape_quad):
    msh, _ = lshape
    system = modal_ops.assemble_a_k(msh, 0, SPACE_Y, quad=lshape_quad)
    assert np.abs(system.matrix.to_dense().imag).max() <= 1e-14


def test_quadratic_form_closed_value():
    # (0,0,r) on an off-axis rectangle: a_k = (k^2 + 1) * iint r dr dz
    m = mesh.gen_rectangle(0.3, 1.0, 0.0, 1.0, 0.1)
    vals = np.zeros((m.num_vertices, 3), dtype=complex)
    vals[:, 2] = m.vertices[:, 0]
    fld = ModeField(m, 2, vals)
    quad = MeshQuadrature(m)
    got = modal_ops.a_k_direct(fld, fld, 2, quad)
    want = 5.0 * 0.5 * (1.0 - 0.09)
    assert got == pytest.approx(want, rel=1e-13)


def test_zero_load(lshape, lshape_quad):
    msh, _ = lshape
    system = modal_ops.assemble_a_k(msh, 1, SPACE_Y, quad=lshape_quad)
    load = system.functional(np.zeros((len(lshape_quad.xy), 4), dtype=complex))
    assert np.all(load == 0.0)


def test_galerkin_identity(lshape, lshape_quad, rng):
    msh, _ = lshape
    for k, space in ((0, SPACE_Y), (1, SPACE_X), (-1, SPACE_Y), (2, SPACE_Y), (5, SPACE_X)):
        system = modal_ops.assemble_a_k(msh, k, space, quad=lshape_quad)
        w = _random_constrained(msh, k, space, rng)
        opv = system.ws.op_values(w.values, k)
        load = system.functional(opv)
        ref = system.matrix.matvec(system.constraints.free_values(w))
        assert np.linalg.norm(load - ref) <= 1e-10 * np.linalg.norm(ref)


def test_pure_divergence_load_closed_form():
    # single off-axis triangle, g = 1, k = 0:
    # load(v, r-comp) = d_r(lam_v) * int r + int lam_v; load(v, z) = d_z(lam_v) * int r
    verts = [(0.6, 0.1), (1.4, 0.2), (0.9, 1.0)]
    m = mesh.TriangleMesh(np.array(verts), np.array([[0, 1, 2]]), 1.0)
    quad = MeshQuadrature(m)
    # the unreduced pairing of op_adjoint: on one triangle the local dofs
    # are the global ones
    vec = np.zeros((len(quad.tri), 4), dtype=complex)
    vec[:, 3] = 1.0
    load = modal_ops.workspace(quad).op_adjoint(vec, 0)[0]
    area = m.triangle_areas()[0]
    rbar = np.mean([v[0] for v in verts])
    int_r = area * rbar
    grads = femcore.gradients(m)[0]
    for loc in range(3):
        int_lam = area / 3.0
        assert load[3 * loc + 0] == pytest.approx(grads[loc, 0] * int_r + int_lam, rel=1e-13)
        assert load[3 * loc + 1] == pytest.approx(0.0, abs=1e-15)
        assert load[3 * loc + 2] == pytest.approx(grads[loc, 1] * int_r, rel=1e-13)


def test_form_C_skew(lshape, lshape_quad, rng):
    msh, _ = lshape
    u = _random_constrained(msh, 1, SPACE_Y, rng)
    assert abs(modal_ops.form_C(u, u, lshape_quad).real) <= 1e-12


def test_form_over_r2_example():
    m = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.05)
    vals = np.zeros((m.num_vertices, 3), dtype=complex)
    vals[:, 0] = m.vertices[:, 0]
    fld = ModeField(m, 0, vals)
    got = modal_ops.form_over_r2(fld, fld, MeshQuadrature(m))
    assert got == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("k", range(-2, 4))
def test_decomposition_matches_direct(lshape, lshape_quad, rng, k):
    msh, _ = lshape
    for space in (SPACE_X, SPACE_Y):
        for _ in range(10):
            u = _random_constrained(msh, k, space, rng)
            v = _random_constrained(msh, k, space, rng)
            direct = modal_ops.a_k_direct(u, v, k, lshape_quad)
            dec = modal_ops.a_k_via_decomposition(u, v, k, lshape_quad)
            assert abs(direct - dec) <= 1e-10 * abs(direct)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_mode_shift_identity(lshape, lshape_quad, rng, k):
    msh, _ = lshape
    for space in (SPACE_X, SPACE_Y):
        u = _random_constrained(msh, k, space, rng)
        v = _random_constrained(msh, k, space, rng)
        direct = modal_ops.a_k_direct(u, v, k, lshape_quad)
        shifted = modal_ops.a_k_by_shift(u, v, k, lshape_quad)
        assert abs(direct - shifted) <= 1e-10 * abs(direct)


def test_quadratic_form_positive(lshape, lshape_quad, rng):
    msh, _ = lshape
    for k in (-1, 0, 2):
        u = _random_constrained(msh, k, SPACE_X, rng)
        val = modal_ops.a_k_direct(u, u, k, lshape_quad)
        assert abs(val.imag) <= 1e-12 * abs(val)
        assert val.real > 0.0


def test_shifted_matrix_equals_fresh_assembly(lshape, lshape_quad):
    """A shifted matrix is the fresh assembly within round-off, on its
    pattern, and holds the bits of the shift of the reference blocks."""
    msh, _ = lshape
    blocks = _reference_blocks(lshape_quad)
    for space, base_k, ks in ((SPACE_Y, 2, (3, 5, 24)), (SPACE_X, 2, (3,)), (SPACE_X, -2, (-3,))):
        sys2 = modal_ops.assemble_a_k(msh, base_k, space, quad=lshape_quad)
        for k in ks:
            system = sys2.shifted(k)
            assert system.k == system.constraints.k == k and sys2.k == base_k
            assert system.constraints.slots is sys2.constraints.slots and system.mass is None
            assert system.quad is sys2.quad
            shifted = system.matrix
            assert np.array_equal(shifted.indptr, sys2.matrix.indptr)
            assert np.array_equal(shifted.indices, sys2.matrix.indices)
            fresh = modal_ops.assemble_a_k(msh, k, space, quad=lshape_quad)
            diff = np.abs(shifted.to_dense() - fresh.matrix.to_dense()).max()
            scale = np.abs(fresh.matrix.to_dense()).max()
            assert diff <= 1e-12 * scale
            assert np.array_equal(shifted.indptr, fresh.matrix.indptr)
            assert np.array_equal(shifted.indices, fresh.matrix.indices)
            assert _same_bits(shifted.data, _reference_shift(blocks, sys2.constraints, k))


@pytest.mark.parametrize("k2", [2, -2])
def test_mass_and_shift_equal_their_forms(lshape, lshape_quad, rng, k2):
    """On random constrained fields of both spaces, the mass of a mode +-2
    system is form_over_r2, and a shifted matrix gives a_k_by_shift."""
    msh, _ = lshape
    for space in (SPACE_X, SPACE_Y):
        sys2 = modal_ops.assemble_a_k(msh, k2, space, quad=lshape_quad)
        m = sys2.matrix
        mass = linalg.HermitianSparse(m.indptr, m.indices, sys2.mass, m.n)
        for k in (3 * k2 // 2, 5 * k2 // 2):
            shifted = modal_ops.shifted_system(sys2, k)
            u, v = (_random_constrained(msh, k2, space, rng) for _ in range(2))
            x, y = (sys2.constraints.free_values(f) for f in (u, v))
            want = modal_ops.form_over_r2(u, v, lshape_quad)
            assert abs(np.vdot(y, mass.matvec(x)) - want) <= 1e-12 * abs(want)
            want = modal_ops.a_k_by_shift(u, v, k, lshape_quad)
            assert abs(np.vdot(y, shifted.matvec(x)) - want) <= 1e-12 * abs(want)


def test_shifted_systems_share_the_constraint_arrays(lshape, lshape_quad):
    """A shifted system's constraint set differs from the mode +-2 one only
    in k: its slots, index and coeff are the same arrays, not copies, so
    the 22 shifts of a many-mode run add none."""
    msh, _ = lshape
    sys2 = modal_ops.assemble_a_k(msh, -2, SPACE_Y, quad=lshape_quad)
    for k in (-3, -7):
        c = sys2.shifted(k).constraints
        assert c.k == k and c is not sys2.constraints
        for name in ("slots", "index", "coeff", "free"):
            assert getattr(c, name) is getattr(sys2.constraints, name), name


def test_shifted_serves_high_modes_of_a_mode_two_system(lshape, lshape_quad):
    msh, _ = lshape
    sys1 = modal_ops.assemble_a_k(msh, 1, SPACE_Y, quad=lshape_quad)
    sys2 = modal_ops.assemble_a_k(msh, -2, SPACE_Y, quad=lshape_quad)
    for base in (sys1, sys2.shifted(-3)):
        with pytest.raises(ValueError, match="expects a mode"):
            base.shifted(4)
    for k in (-2, 0, 1, 2):
        with pytest.raises(ValueError, match=r"serves \|k\| > 2"):
            sys2.shifted(k)


def test_mode_system_reads_its_class_from_the_constraint_set(lshape, lshape_quad, rect):
    msh, _ = lshape
    constraints = femcore.build_constraints(msh, -1, SPACE_X)
    system = modal_ops.ModeSystem(constraints, lshape_quad)
    assert system.mesh is msh and (system.k, system.space) == (-1, SPACE_X)
    assert system.constraints is constraints and system.mass is None and not hasattr(system, "pattern")
    with pytest.raises(ValueError, match="different meshes"):
        modal_ops.ModeSystem(constraints, MeshQuadrature(rect))


def test_load_builds_no_per_point_pairings():
    """The load pairs the samples with the test dofs per chunk of triangles:
    its peak allocation stays below that of one (Q, 9) complex array of
    per-point pairings (h = 0.0125, 67,536 quadrature points)."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.0125)
    system = modal_ops.assemble_a_k(msh, 1, SPACE_Y, quad=MeshQuadrature(msh, corner))
    vec = np.ones((len(system.quad.tri), 4), dtype=complex)
    tracemalloc.start()
    try:
        system.functional(vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(vec) * 9 * np.dtype(complex).itemsize


def test_op_values_builds_no_per_point_operator_rows():
    """op_values forms D_k u per chunk of triangles: its peak allocation
    stays below three times its (Q, 4) complex result (h = 0.0125)."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.0125)
    ws = modal_ops.workspace(MeshQuadrature(msh, corner))
    u = np.ones((msh.num_vertices, 3), dtype=complex)
    tracemalloc.start()
    try:
        out = ws.op_values(u, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * out.nbytes


def test_workspace_keeps_at_most_three_columns_per_point(lshape_quad):
    ws = modal_ops.workspace(lshape_quad)
    Q = len(lshape_quad.tri)
    for name, value in vars(ws).items():
        if isinstance(value, np.ndarray) and len(value) == Q:
            assert value.size <= 3 * Q, name


def test_quadrature_and_workspace_hold_no_barycentric_array(lshape_quad):
    """The barycentric coordinates of the points are the rule points of
    their run (femcore.RULE_OF), so neither the quadrature nor its
    workspace keeps a (Q, 3) array of them: the one (Q, 3) array of the
    two is the workspace's lambda / r."""
    ws = modal_ops.workspace(lshape_quad)
    Q = len(lshape_quad.tri)
    held = [(owner, name) for owner, obj in (("quad", lshape_quad), ("ws", ws))
            for name, value in vars(obj).items()
            if isinstance(value, np.ndarray) and value.shape == (Q, 3)]
    assert held == [("ws", "lor")]


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
def test_load_scatter_keeps_four_bytes_per_local_dof(lshape, space):
    """For its loads a constraint set keeps the int32 free-dof slot of each
    local dof and no more, beside its nodal map (index, coeff, free): the
    constraint coefficients are gathered where they are used."""
    msh, _ = lshape
    for k in (0, 1, -1, 2):
        constraints = femcore.build_constraints(msh, k, space)
        held = sum(v.nbytes for name, v in vars(constraints).items()
                   if isinstance(v, np.ndarray) and name not in ("index", "coeff", "free"))
        assert held <= 4 * 9 * msh.num_triangles, k


# -- the workspace kernels against their gather-based reference ---------------


@pytest.fixture(scope="module", params=["lshape", "rectangle"])
def kernel_quad(request):
    """The L-shape at h = 0.05 (7- and 28-point triangles, several chunks)
    and the off-axis rectangle with rmin 0.2 (7-point triangles only)."""
    if request.param == "lshape":
        return MeshQuadrature(*mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.05))
    return MeshQuadrature(mesh.gen_rectangle(0.2, 1.0, 0.0, 1.0, 0.1))


def _gather_chunks(quad):
    """(triangle ids, (m, n) point indices) of the triangles with n points
    each, at most 1024 triangles at a time."""
    tri = quad.tri
    starts = np.flatnonzero(np.r_[True, tri[1:] != tri[:-1]])
    counts = np.diff(np.r_[starts, len(tri)])
    chunks = []
    for n in np.unique(counts):
        first = starts[counts == n]
        for s in range(0, len(first), 1024):
            part = first[s:s + 1024]
            chunks.append((tri[part], part[:, None] + np.arange(n)))
    return chunks


def _reference_bary(quad):
    """The barycentric coordinates (Q, 3) of the points of quad, from the
    per-triangle construction of the quadrature."""
    return _quadrature_reference(quad.mesh, quad.corner)[1]


def _reference_kernels(quad, values, vec, k):
    """op_values, op_adjoint and point_values as gathers of the points of
    each chunk, with complex products and einsum contractions of GRAD."""
    bary = _reference_bary(quad)
    G, lor, wr = femcore.gradients(quad.mesh), bary / quad.r[:, None], quad.w * quad.r
    triangles, GRAD = quad.mesh.triangles, modal_ops.GRAD
    u = np.asarray(values, dtype=complex).reshape(-1, 3)
    rows = modal_ops.OVER_R + (1j * k) * modal_ops.IK_R
    opv = np.empty((len(quad.tri), 4), dtype=complex)
    adj = np.empty((quad.mesh.num_triangles, 3, 3), dtype=complex)
    pv = np.empty((len(quad.tri), 3), dtype=complex)
    for tris, idx in _gather_chunks(quad):
        local = u[triangles[tris]]
        grad = np.einsum("acd,mcd->ma", GRAD, local.transpose(0, 2, 1) @ G[tris])
        opv[idx] = grad[:, None] + (lor[idx] @ local) @ rows.T
        wv = vec[idx] * wr[idx][:, :, None]
        grad = np.einsum("ma,acd->mdc", wv.sum(axis=1), GRAD)
        adj[tris] = G[tris] @ grad + lor[idx].transpose(0, 2, 1) @ (wv @ np.conj(rows))
        pv[idx] = bary[idx] @ local
    return opv, adj.reshape(-1, 9), pv


def _reference_blocks(quad):
    """E00, E11 and A from D0 and R1 formed by broadcasts of the tensors."""
    lor = _reference_bary(quad) / quad.r[:, None]
    G, wr = femcore.gradients(quad.mesh), quad.w * quad.r
    nt = quad.mesh.num_triangles
    E00, E11, A = np.empty((nt, 9, 9)), np.empty((nt, 9, 9)), np.empty((nt, 9, 9))
    for tris, idx in _gather_chunks(quad):
        m, n = idx.shape
        lr = lor[idx][:, :, None, :, None]
        grad = np.einsum("acd,mld->malc", modal_ops.GRAD, G[tris])[:, None]
        d0 = (grad + lr * modal_ops.OVER_R[:, None, :]).reshape(m, n * 4, 9)
        r1 = (lr * modal_ops.IK_R[:, None, :]).reshape(m, n * 4, 9)
        w = np.repeat(wr[idx], 4, axis=1)[:, :, None]
        wd0 = d0 * w
        E00[tris] = d0.transpose(0, 2, 1) @ wd0
        E11[tris] = r1.transpose(0, 2, 1) @ (r1 * w)
        cross = wd0.transpose(0, 2, 1) @ r1
        A[tris] = cross - cross.transpose(0, 2, 1)
    return E00, E11, A


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_kernels_equal_their_gather_reference_bit_for_bit(kernel_quad):
    """Every workspace kernel gives the bits of its reference, signs of
    zero included, for random complex fields and samples."""
    ws = modal_ops.workspace(kernel_quad)
    rng = np.random.default_rng(36)
    nv, Q = kernel_quad.mesh.num_vertices, len(kernel_quad.tri)
    for k in (0, 1, -1, 2, -2, 3, 7):
        values = rng.normal(size=(nv, 3)) + 1j * rng.normal(size=(nv, 3))
        vec = rng.normal(size=(Q, 4)) + 1j * rng.normal(size=(Q, 4))
        opv, adj, pv = _reference_kernels(kernel_quad, values, vec, k)
        assert _same_bits(ws.op_values(values, k), opv), k
        assert _same_bits(ws.op_adjoint(vec, k), adj), k
        assert _same_bits(ws.point_values(values), pv), k


def _reference_scatter(constraints, elem):
    """The data of the element matrices elem (nt, 9, 9), scaled by the
    constraint coefficients and scattered in element order (linalg.scatter)
    on the reference pattern."""
    gdofs = (3 * constraints.mesh.triangles[:, :, None] + np.arange(3)).reshape(-1, 9)
    coeff = constraints.coeff[gdofs]
    elem = elem * np.conj(coeff)[:, :, None]
    elem *= coeff[:, None, :]
    _, indices, slots = _reference_pattern(constraints)
    return linalg.scatter(slots, elem.ravel(), len(indices))


def _reference_element_matrices(blocks, k):
    E00, E11, A = blocks
    elem = (1j * k) * A
    elem += E00 + (k * k) * E11
    return elem


def _reference_shift(blocks, constraints2, k):
    """The data of a mode-k matrix shifted from the mode k2 = +-2 class: the
    element-order scatter of E(k2), its real part plus (k^2 - 4) times the
    element-order scatter of E11, its imaginary part times k / k2."""
    k2 = constraints2.k
    a2 = _reference_scatter(constraints2, _reference_element_matrices(blocks, k2))
    out = np.empty_like(a2)
    out.real = a2.real + (k * k - 4) * _reference_scatter(constraints2, blocks[1]).real
    out.imag = a2.imag * (k / k2)
    return out


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
def test_assembled_matrices_equal_the_element_order_scatter_bit_for_bit(kernel_quad, space):
    """Every assembled matrix holds the bits of E(k) from the reference
    blocks, scaled by the constraint coefficients and scattered in element
    order (linalg.scatter) on the reference pattern, and every shifted
    matrix the bits of the reference shift of the mode +-2 class."""
    msh = kernel_quad.mesh
    blocks = _reference_blocks(kernel_quad)
    for k in (0, 1, -1, 2, -2, 3, 7):
        constraints = femcore.build_constraints(msh, k, space)
        indptr, indices, _ = _reference_pattern(constraints)
        want = _reference_scatter(constraints, _reference_element_matrices(blocks, k))
        matrices = [(modal_ops.ModeSystem(constraints, kernel_quad).matrix, want)]
        if abs(k) > 2:
            system2 = modal_ops.assemble_a_k(msh, 2 * np.sign(k), space, kernel_quad)
            shift = _reference_shift(blocks, system2.constraints, k)
            matrices.append((modal_ops.shifted_system(system2, k), shift))
        for got, data in matrices:
            assert _same_bits(got.indptr, indptr) and _same_bits(got.indices, indices), k
            assert _same_bits(got.data, data), k


def test_chunks_are_consecutive_runs_of_points(kernel_quad):
    """The slices of the chunks cover the points 0..Q once and in order,
    and each holds n consecutive points of every one of its triangles.
    The ranges cover the triangles 0..nt once and in order, at most
    _BLOCK_TRIANGLES each, and the chunks of a range, one per run that
    meets it, hold its triangles."""
    ws = modal_ops.workspace(kernel_quad)
    stop = 0
    for tris, points, n in ws.chunks:
        assert points.start == stop and points.step in (None, 1)
        assert np.array_equal(kernel_quad.tri[points].reshape(-1, n), np.repeat(tris[:, None], n, 1))
        stop = points.stop
    assert stop == len(kernel_quad.tri)
    stop = 0
    for triangles in ws.ranges:
        assert triangles.start == stop and 0 < triangles.stop - stop <= modal_ops._BLOCK_TRIANGLES
        chunks = ws.chunks_of(triangles, modal_ops._BLOCK_TRIANGLES)
        assert len({n for _, _, n in chunks}) == len(chunks) > 0
        tris = np.sort(np.concatenate([tris for tris, _, _ in chunks]))
        assert np.array_equal(tris, np.arange(triangles.start, triangles.stop))
        for tris, points, n in chunks:
            assert np.array_equal(kernel_quad.tri[points].reshape(-1, n), np.repeat(tris[:, None], n, 1))
        stop = triangles.stop
    assert stop == kernel_quad.mesh.num_triangles


# -- the CSR pattern from vertex pairs, and what an assembly holds -------------


def _reference_pattern(constraints):
    """indptr, indices and slots from the sorted (row, column) keys of all
    nt x 81 element entries."""
    n = constraints.n_free
    fidx = constraints.slots.reshape(-1, 9).astype(np.int64)  # n: no free dof
    rows = np.broadcast_to(fidx[:, :, None], (len(fidx), 9, 9))
    cols = np.broadcast_to(fidx[:, None, :], (len(fidx), 9, 9))
    keep = (rows < n) & (cols < n)
    keys, inverse = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    slots = np.full(keep.shape, len(keys), dtype=np.int32)
    slots[keep] = inverse
    return np.searchsorted(keys, np.arange(n + 1) * n), keys % n, slots.ravel()


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
@pytest.mark.parametrize("k", [0, 1, -1, 2])
def test_pattern_from_vertex_pairs_equals_the_entry_keys(lshape, lshape_quad, space, k):
    """On the L-shape, whose axis vertices tie u_r and u_theta for |k| = 1,
    the pattern built from the vertex pairs is that of the element entries."""
    msh, _ = lshape
    constraints = femcore.build_constraints(msh, k, space)
    pattern = modal_ops._Pattern(constraints, modal_ops.workspace(lshape_quad))
    if abs(k) == 1:
        assert np.any(np.bincount(constraints.index[constraints.index >= 0]) > 1)
    for got, want in zip((pattern.indptr, pattern.indices, pattern.slots), _reference_pattern(constraints)):
        assert _same_bits(got, want)


def test_pattern_peaks_below_twice_what_it_keeps():
    """The pattern finds its keys by one sort and writes the int32 slots
    straight into their (t, 3 i + a, 3 j + b) layout: building it peaks
    below twice its indptr, indices and slots (the L-shape at h = 0.0125;
    np.unique and a gathered, transposed copy of the slots peaked at 3.6
    times)."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.0125)
    ws = modal_ops.workspace(MeshQuadrature(msh, corner))
    constraints = femcore.build_constraints(msh, 1, SPACE_X)
    tracemalloc.start()
    try:
        pattern = modal_ops._Pattern(constraints, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = pattern.indptr.nbytes + pattern.indices.nbytes + pattern.slots.nbytes
    assert peak < 2 * kept, peak / kept


def test_assembly_keeps_no_element_arrays():
    """A workspace keeps no (nt, 9, 9) array, nothing is added to it after
    it is built, and no whole E(k) exists: with its pattern built, forming
    a matrix peaks below half a complex (nt, 9, 9) array (the matrix data
    and one range of E(k)), and an assembly, workspace included, below
    three (h = 0.0125)."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.0125)
    quad = MeshQuadrature(msh, corner)
    size = msh.num_triangles * 81 * np.dtype(complex).itemsize
    names = set(vars(modal_ops.OperatorWorkspace(MeshQuadrature(msh))))
    tracemalloc.start()
    try:
        system = modal_ops.assemble_a_k(msh, 1, SPACE_Y, quad=quad)
        assembly = tracemalloc.get_traced_memory()[1]
        pattern = modal_ops._Pattern(system.constraints, system.ws)
        tracemalloc.stop()
        tracemalloc.start()
        pattern.matrix(system.ws, 1)
        matrix = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert assembly < 3 * size
    assert matrix < 0.5 * size
    held = [v for value in vars(system.ws).values()
            for v in (value if isinstance(value, (tuple, list)) else [value])]
    assert set(vars(system.ws)) == names
    assert not any(isinstance(v, np.ndarray) and v.shape == (msh.num_triangles, 9, 9) for v in held)
