import math

import numpy as np
import pytest

from axmaxwell import femcore, mesh, modal_ops, singular, solver, special
from axmaxwell.femcore import SPACE_X, SPACE_Y, MeshQuadrature, ModeField
from axmaxwell.mesh import ConicalDescriptor, CornerDescriptor
from axmaxwell.singular import (
    EDGE_ELECTRIC,
    EDGE_MAGNETIC,
    PrincipalPart,
    compute_basis,
    singular_dimensions,
)


def _reference_corner(phi0=0.0, position=(1.0, 0.0)):
    return CornerDescriptor(
        corner_vertex=-1,
        position=position,
        interior_angle=1.5 * math.pi,
        alpha=2.0 / 3.0,
        phi0=phi0,
        a=position[0],
    )


def test_electric_principal_reference_point():
    pp = PrincipalPart(EDGE_ELECTRIC, corner=_reference_corner())
    # rho = 1, phi = 0 along the phi0 ray; r/a = 2 at that point
    got = pp.values([(2.0, 0.0)])[0]
    assert got == pytest.approx([0.0, 0.0, -2.0 * 2.0 / 3.0], abs=1e-14)


def test_magnetic_principal_reference_point():
    pp = PrincipalPart(EDGE_MAGNETIC, corner=_reference_corner())
    got = pp.values([(2.0, 0.0)])[0]
    assert got == pytest.approx([-2.0 * 2.0 / 3.0, 0.0, 0.0], abs=1e-14)


def test_closed_form_divergences_at_reference_angles():
    corner = _reference_corner(position=(1.0, 0.5))
    ppe = PrincipalPart(EDGE_ELECTRIC, corner=corner)
    ppm = PrincipalPart(EDGE_MAGNETIC, corner=corner)
    pt = np.array([[2.0, 0.5]])  # rho = 1, phi = 0
    assert ppe.ops(pt, 1)[0, 3] == pytest.approx(0.0, abs=1e-14)
    assert ppm.ops(pt, 1)[0, 3] == pytest.approx(-4.0 / 3.0, abs=1e-13)


@pytest.mark.parametrize("kind", [EDGE_ELECTRIC, EDGE_MAGNETIC])
def test_principal_ops_against_finite_differences(kind, rng):
    corner = _reference_corner(phi0=-0.5 * math.pi, position=(1.0, 0.5))
    pp = PrincipalPart(kind, corner=corner)
    h = 1e-6
    checked = 0
    for _ in range(200):
        if checked >= 100:
            break
        rho = rng.uniform(0.05, 0.45)
        phi = rng.uniform(0.05, 1.45 * math.pi)
        psi = corner.phi0 + phi
        pt = np.array([1.0 + rho * math.cos(psi), 0.5 + rho * math.sin(psi)])
        if pt[0] < 0.05:
            continue
        checked += 1
        k = int(rng.integers(-2, 3))
        ops = pp.ops(pt.reshape(1, 2), k)[0]
        curl_an, div_an = ops[:3], ops[3]

        def val(p):
            return pp.values(np.asarray(p).reshape(1, 2))[0]

        d_r = (val(pt + [h, 0]) - val(pt - [h, 0])) / (2 * h)
        d_z = (val(pt + [0, h]) - val(pt - [0, h])) / (2 * h)
        v = val(pt)
        r, ik = pt[0], 1j * k
        div_fd = d_r[0] + v[0] / r + ik * v[1] / r + d_z[2]
        curl_fd = np.array(
            [ik * v[2] / r - d_z[1], d_z[0] - d_r[2], d_r[1] + v[1] / r - ik * v[0] / r]
        )
        scale = max(np.abs(curl_an).max(), abs(div_an))
        assert np.abs(curl_fd - curl_an).max() <= 1e-5 * scale
        assert abs(div_fd - div_an) <= 1e-5 * scale
    assert checked == 100


def test_principal_blowup_rate_along_ray():
    corner = _reference_corner()
    pp = PrincipalPart(EDGE_MAGNETIC, corner=corner)
    diam = 2.0
    expected = 2.0 ** (1.0 - corner.alpha)
    psi = corner.phi0 + 0.7
    for rho in (1e-3 * diam, 1e-4 * diam):
        p1 = corner.position + rho * np.array([math.cos(psi), math.sin(psi)])
        p2 = corner.position + 0.5 * rho * np.array([math.cos(psi), math.sin(psi)])
        v1 = np.linalg.norm(pp.values([p1])[0])
        v2 = np.linalg.norm(pp.values([p2])[0])
        assert v2 / v1 == pytest.approx(expected, rel=0.01)


def test_principal_traces_vanish_on_incident_walls(lshape):
    """Tangential trace of the electric part and normal trace of the
    magnetic part are zero along the two wall edges meeting at the corner;
    this pins the phi0 convention to the geometry."""
    _, corner = lshape
    ppe = PrincipalPart(EDGE_ELECTRIC, corner=corner)
    ppm = PrincipalPart(EDGE_MAGNETIC, corner=corner)
    r_c, z_c = corner.position
    for s in np.linspace(0.05, 0.45, 5):
        horizontal = (r_c + s, z_c)  # wall along +r: tangent e_r, normal -e_z
        vertical = (r_c, z_c - s)  # wall along -z: tangent e_z, normal +e_r
        ve = ppe.values([horizontal])[0]
        assert abs(ve[0]) <= 1e-13 and abs(ve[1]) <= 1e-13
        ve = ppe.values([vertical])[0]
        assert abs(ve[2]) <= 1e-13 and abs(ve[1]) <= 1e-13
        vm = ppm.values([horizontal])[0]
        assert abs(vm[2]) <= 1e-13
        vm = ppm.values([vertical])[0]
        assert abs(vm[0]) <= 1e-13


@pytest.mark.parametrize("kind", ["conical", "edge", None])
def test_principal_part_accepts_only_edge_kinds(kind):
    with pytest.raises(ValueError, match="unknown principal part kind"):
        PrincipalPart(kind, corner=_reference_corner())


def test_eval_at_corner_raises():
    corner = _reference_corner()
    pp = PrincipalPart(EDGE_ELECTRIC, corner=corner)
    with pytest.raises(ValueError):
        pp.values([corner.position])


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
@pytest.mark.parametrize("k", [0, 1, -2])
def test_basis_homogeneous_formulation(lshape, lshape_quad, space, k, rng):
    msh, _ = lshape
    system = modal_ops.assemble_a_k(msh, k, space, quad=lshape_quad)
    basis = compute_basis(system)
    bop = basis.op_arrays(system.ws, k)
    resid = system.functional(bop)
    bnorm = math.sqrt(float(np.sum(system.ws.wr[:, None] * np.abs(bop) ** 2)))
    for _ in range(20):
        raw = ModeField(
            msh, k,
            rng.normal(size=(msh.num_vertices, 3)) + 1j * rng.normal(size=(msh.num_vertices, 3)),
        )
        v = system.constraints.apply(raw)
        vnorm = math.sqrt(abs(modal_ops.a_k_direct(v, v, k, lshape_quad)))
        val = abs(np.vdot(system.constraints.free_values(v), resid))
        assert val <= 1e-6 * bnorm * vnorm


def test_mode_zero_basis_is_real(lshape, lshape_quad):
    msh, _ = lshape
    for space in (SPACE_X, SPACE_Y):
        system = modal_ops.assemble_a_k(msh, 0, space, quad=lshape_quad)
        basis = compute_basis(system)
        scale = np.abs(basis.regular.values).max()
        assert np.abs(basis.regular.values.imag).max() <= 1e-10 * scale


def test_basis_trace_cancels_principal(lshape, lshape_quad):
    msh, corner = lshape
    system = modal_ops.assemble_a_k(msh, 0, SPACE_Y, quad=lshape_quad)
    basis = compute_basis(system)
    cs = femcore.build_constraints(msh, 0, SPACE_Y)
    guard = 1e-6
    for v in np.unique(msh.boundary_edges[msh.boundary_tags == mesh.WALL]):
        v = int(v)
        pt = msh.vertices[v]
        rho, _ = corner.local_coords(pt.reshape(1, 2))
        if rho[0] <= guard:
            continue
        pv = basis.principal.values(pt.reshape(1, 2))[0]
        for c in range(3):
            if cs.index[3 * v + c] == -1:  # zero-constrained
                total = basis.regular.values[v, c] + pv[c]
                assert abs(total) <= 1e-12


def test_total_basis_leaves_h1(lshape):
    """Discrete H1 seminorm of the interpolated total basis grows without
    bound under refinement, while a smooth field's stabilizes."""

    def h1_seminorm(msh, values):
        grads = femcore.gradients(msh)
        tri = msh.triangles
        areas = msh.triangle_areas()
        rbar = msh.vertices[tri, 0].mean(axis=1)
        total = 0.0
        for c in range(3):
            g = np.einsum("ti,tij->tj", values[tri, c], grads)
            total += np.sum(np.abs(g) ** 2 * (areas * rbar)[:, None])
        return math.sqrt(total)

    seminorms = []
    smooth = []
    for h in (0.4, 0.2, 0.1, 0.05):
        msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, h)
        quad = MeshQuadrature(msh, corner)
        basis = compute_basis(modal_ops.assemble_a_k(msh, 0, SPACE_Y, quad=quad))
        seminorms.append(h1_seminorm(msh, basis.total_nodal()))
        vals = np.zeros((msh.num_vertices, 3), dtype=complex)
        vals[:, 0] = msh.vertices[:, 0] * msh.vertices[:, 1]
        smooth.append(h1_seminorm(msh, vals))
    for a, b in zip(seminorms[:-1], seminorms[1:]):
        assert b >= 1.2 * a
    assert smooth[-1] <= 1.05 * smooth[-2]


def test_dimension_bookkeeping(lshape):
    _, corner = lshape
    beta = special.find_beta()
    for space in (SPACE_X, SPACE_Y):
        for k in (-2, 0, 1):
            assert singular_dimensions([corner], [], k, space, beta) == 1
    cone = ConicalDescriptor(z=0.0, aperture=2.5)
    assert singular_dimensions([corner], [cone], 0, SPACE_X, beta) == 2
    assert singular_dimensions([corner], [cone], 0, SPACE_Y, beta) == 1
    assert singular_dimensions([corner], [cone], 1, SPACE_X, beta) == 1
    below = ConicalDescriptor(z=0.0, aperture=2.0)
    assert singular_dimensions([corner], [below], 0, SPACE_X, beta) == 1


def test_basis_record(lshape, lshape_quad):
    """The basis carries the CG solve of its regular correction; its energy
    is paired where it is used (see test_solver and test_cli_io)."""
    msh, _ = lshape
    system = modal_ops.assemble_a_k(msh, 2, SPACE_X, quad=lshape_quad)
    basis = compute_basis(system, tol=1e-10)
    assert 0 < basis.cg.iterations
    assert 0.0 < basis.cg.residual <= 1e-10


def test_basis_needs_a_quadrature_subdivided_at_the_corner(lshape):
    """The basis integrands behave like rho^(alpha-1) at the corner: on a
    quadrature without the corner subdivision C^k would move by about 1e-3
    (h = 0.05), so a basis is refused there."""
    msh, _ = lshape
    plain = MeshQuadrature(msh)
    assert plain.corner is None
    system = modal_ops.assemble_a_k(msh, 1, SPACE_Y, quad=plain)
    with pytest.raises(ValueError, match="corner"):
        compute_basis(system)
    with pytest.raises(ValueError, match="corner"):
        singular.lift_basis(system.constraints, plain)


# u = chi(rho) S: the principal part S of the space, cut off by a C^2
# quintic smoothstep chi of the distance rho to the corner, 1 up to
# _CUT_IN and 0 from _CUT_OUT on, so u vanishes near the axis and the outer
# walls and u - S is H^1 near the corner
_CUT_IN, _CUT_OUT = 0.15, 0.4


def _cutoff(rho):
    """chi(rho) and d chi / d rho."""
    t = np.clip((rho - _CUT_IN) / (_CUT_OUT - _CUT_IN), 0.0, 1.0)
    chi = 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)
    return chi, -30.0 * (t * (1.0 - t)) ** 2 / (_CUT_OUT - _CUT_IN)


def _cut_ops(pp, pts, k):
    """D_k (chi S) at (P, 2) points: chi D_k S plus the derivatives of chi,
    which enter curl_theta and div only, since S_theta = 0."""
    d = pts - np.asarray(pp.corner.position)
    rho = np.hypot(d[:, 0], d[:, 1])
    chi, dchi = _cutoff(rho)
    d_r, d_z = dchi * d[:, 0] / rho, dchi * d[:, 1] / rho
    s = pp.values(pts)
    ops = chi[:, None] * pp.ops(pts, k)
    ops[:, 1] += d_z * s[:, 0] - d_r * s[:, 2]
    ops[:, 3] += d_r * s[:, 0] + d_z * s[:, 2]
    return ops


def _cut_data(pp, N):
    """(f, g) = (curl, div) of the real 3D field U = sum_{k=0..N} chi S
    cos(k theta): the mode-k rows D_k (chi S) of each term, revolved as
    Re(D_k (chi S) e^(ik theta))."""

    def rows(r, th, z):
        pts = np.column_stack([np.ravel(r), np.ravel(z)])
        return sum(np.real(_cut_ops(pp, pts, k)[None] * np.exp(1j * k * th)[:, :, None])
                   for k in range(N + 1))  # (M, P, 4)

    return (lambda r, th, z: tuple(np.moveaxis(rows(r, th, z)[:, :, :3], 2, 0)),
            lambda r, th, z: rows(r, th, z)[:, :, 3])


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
def test_exact_singular_solution_gives_its_coefficients(space):
    """The solution of the data of U = sum_k chi S cos(k theta) is chi S per
    mode, whose singular part is S itself: C^k = 1 times the mode weight,
    sqrt(2 pi) for k = 0 and sqrt(pi / 2) for k >= 1 (1/sqrt(2 pi)
    convention).  N = 3 covers the orthogonal modes, the bordered mode 3 on
    the mode-2 basis and divergence data g.  The error of C^k is that of an
    energy pairing, O(h^2): it falls by at least 2^1.8 per halving.

    With the singular part captured, the relative energy error of the total
    field (regular part plus C^k times the basis) is that of P1 elements on
    an H^2 field, O(h): on the halving from h = 0.05, past the
    pre-asymptotic first one, it falls by at least 2^0.9.  Without the basis,
    nodal elements do not converge to chi S: the energy error of mode 1 falls
    by less than a quarter per halving, so a broken basis cannot pass."""
    N = 3
    kind = EDGE_ELECTRIC if space == SPACE_X else EDGE_MAGNETIC
    want = np.array([math.sqrt(2.0 * math.pi)] + [math.sqrt(0.5 * math.pi)] * N)
    errors, energy, plain = [], [], []
    for h in (0.1, 0.05, 0.025):
        msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, h)
        pp = PrincipalPart(kind, corner)
        f, g = _cut_data(pp, N)
        sol = solver.solve_axisymmetric(msh, space, f, g, N=N, corner=corner, tol=1e-12)
        got = np.array([sol.records[k].coeff for k in range(N + 1)])
        errors.append(np.abs(got / want - 1.0))
        if h == 0.1:
            continue
        quad = MeshQuadrature(msh, corner)
        ws = modal_ops.workspace(quad)

        def relative_error(ops, exact):
            return math.sqrt(ws.norm_sq(ops - exact) / ws.norm_sq(exact))

        level = []
        for k, rec in sol.records.items():
            total = ws.op_values(rec.field.values, k) + rec.coeff * rec.basis.op_arrays(ws, k)
            level.append(relative_error(total, want[k] * _cut_ops(pp, quad.xy, k)))
        energy.append(level)
        exact = _cut_ops(pp, quad.xy, 1)
        rec = solver.solve_mode_orthogonal(modal_ops.assemble_a_k(msh, 1, space, quad=quad),
                                           exact, None, tol=1e-12)
        plain.append(relative_error(ws.op_values(rec.field.values, 1), exact))
    for coarse, fine in zip(errors[:-1], errors[1:]):
        assert np.all(np.log2(coarse / fine) >= 1.8), (coarse, fine)
    assert np.all(np.log2(np.divide(*energy)) >= 0.9), energy
    assert plain[1] > 0.75 * plain[0], plain
