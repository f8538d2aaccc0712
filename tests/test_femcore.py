import itertools
import math

import numpy as np
import pytest

from axmaxwell import femcore, mesh, modal_ops
from axmaxwell.femcore import (
    SPACE_X,
    SPACE_Y,
    MeshQuadrature,
    ModeField,
    build_constraints,
    interpolate,
    interpolate_scalar,
    lift_boundary,
)
from axmaxwell.mesh import MeshError


def _multinomials(total, parts):
    for combo in itertools.product(range(total + 1), repeat=parts - 1):
        if sum(combo) <= total:
            yield (*combo, total - sum(combo))


def exact_triangle_integral(verts, p, q):
    """Independent oracle: integral of r^p z^q over a triangle via the
    barycentric moment formula int lam^a lam^b lam^c = 2|T| a!b!c!/(a+b+c+2)!."""
    (r1, z1), (r2, z2), (r3, z3) = verts
    area = 0.5 * abs((r2 - r1) * (z3 - z1) - (z2 - z1) * (r3 - r1))
    total = 0.0
    for m in _multinomials(p, 3):
        cm = math.factorial(p) // (math.factorial(m[0]) * math.factorial(m[1]) * math.factorial(m[2]))
        rm = r1 ** m[0] * r2 ** m[1] * r3 ** m[2]
        for n in _multinomials(q, 3):
            cn = math.factorial(q) // (math.factorial(n[0]) * math.factorial(n[1]) * math.factorial(n[2]))
            zn = z1 ** n[0] * z2 ** n[1] * z3 ** n[2]
            a, b, c = (m[i] + n[i] for i in range(3))
            mom = (
                2.0
                * area
                * math.factorial(a)
                * math.factorial(b)
                * math.factorial(c)
                / math.factorial(a + b + c + 2)
            )
            total += cm * cn * rm * zn * mom
    return total


def _one_triangle_mesh(verts):
    return mesh.TriangleMesh(np.array(verts), np.array([[0, 1, 2]]), 1.0)


def test_rule_is_degree_five_and_interior():
    """The 7-point rule and its subdivision integrate every barycentric
    monomial of degree <= 5 over the reference triangle of area 1 exactly,
    2 a! b! c! / (a + b + c + 2)!, at strictly interior points."""
    for points, weights in ((femcore.RULE_POINTS, femcore.RULE_WEIGHTS),
                            (femcore.SUB_POINTS, femcore.SUB_WEIGHTS)):
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(points > 0.0) and np.allclose(points.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        for degree in range(6):
            for a, b, c in _multinomials(degree, 3):
                moments = math.factorial(a) * math.factorial(b) * math.factorial(c)
                want = 2.0 * moments / math.factorial(degree + 2)
                got = weights @ (points[:, 0] ** a * points[:, 1] ** b * points[:, 2] ** c)
                assert got == pytest.approx(want, rel=1e-14, abs=1e-16)
    assert femcore.MAX_TRIANGLE_POINTS == len(femcore.SUB_WEIGHTS) == 4 * len(femcore.RULE_WEIGHTS) == 28


def test_quadrature_exact_for_weighted_monomials():
    verts = [(0.7, 0.1), (1.9, 0.4), (1.1, 1.3)]
    m = _one_triangle_mesh(verts)
    quad = MeshQuadrature(m)
    for p in range(5):
        for q in range(5 - p):
            # r * (monomial of degree <= 4): total degree <= 5, rule-exact
            vals = quad.xy[:, 0] ** p * quad.xy[:, 1] ** q
            got = np.sum(vals * quad.w * quad.r)
            want = exact_triangle_integral(verts, p + 1, q)
            assert got == pytest.approx(want, rel=1e-13)


def test_quadrature_weight_r_on_axis_triangle():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    m = _one_triangle_mesh(verts)
    quad = MeshQuadrature(m)
    got = np.sum(np.ones(len(quad.tri)) * quad.w * quad.r)
    want = 0.5 * (0.0 + 1.0 + 0.0) / 3.0  # area times centroid radius
    assert got == pytest.approx(want, rel=1e-13)


def test_corner_subdivision_refines_near_corner():
    lm, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.2)
    plain = MeshQuadrature(lm)
    refined = MeshQuadrature(lm, corner)
    assert len(refined.tri) > len(plain.tri)
    assert np.bincount(refined.tri).max() == femcore.MAX_TRIANGLE_POINTS == 28
    # total weight (area) is preserved by the subdivision
    assert refined.w.sum() == pytest.approx(plain.w.sum(), rel=1e-13)


def _quadrature_reference(msh, corner):
    """The construction MeshQuadrature used to build its points with, the
    7-point rule rebuilt per call and a loop over each corner triangle and
    each of its four sub-triangles, and the chunk plans OperatorWorkspace
    used to recover from tri: returns tri, bary, w, xy and chunks(size,
    lo_tri, hi_tri), those of the triangles lo_tri <= t < hi_tri."""
    s15 = math.sqrt(15.0)
    a, b = (6.0 - s15) / 21.0, (6.0 + s15) / 21.0
    pts, wts = [(1 / 3, 1 / 3, 1 / 3)], [9.0 / 40.0]
    for c, wc in ((a, (155.0 - s15) / 1200.0), (b, (155.0 + s15) / 1200.0)):
        pts += [(1 - 2 * c, c, c), (c, 1 - 2 * c, c), (c, c, 1 - 2 * c)]
        wts += [wc, wc, wc]
    points, weights = np.array(pts), np.array(wts)
    subs = [np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]]),
            np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]]),
            np.array([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]),
            np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])]
    areas = msh.triangle_areas()
    refined = np.zeros(msh.num_triangles, dtype=bool)
    if corner is not None:
        d = np.linalg.norm(msh.vertices[msh.triangles] - np.asarray(corner.position), axis=2).min(axis=1)
        refined = d <= msh.h + 1e-12
    plain = np.where(~refined)[0]
    tri_idx, bary, w = [], [], []
    if plain.size:
        tri_idx.append(np.repeat(plain, len(weights)))
        bary.append(np.tile(points, (plain.size, 1)))
        w.append(np.outer(areas[plain], weights).ravel())
    for t in np.where(refined)[0]:
        for sub in subs:
            tri_idx.append(np.full(len(weights), t))
            bary.append(points @ sub)
            w.append(0.25 * areas[t] * weights)
    tri, bary, w = np.concatenate(tri_idx), np.concatenate(bary, axis=0), np.concatenate(w)
    xy = np.einsum("qi,qij->qj", bary, msh.vertices[msh.triangles[tri]])
    starts = np.flatnonzero(np.r_[True, tri[1:] != tri[:-1]])
    counts = np.diff(np.r_[starts, len(tri)])
    runs = np.flatnonzero(np.r_[True, counts[1:] != counts[:-1], True])

    def chunks(size, lo_tri=0, hi_tri=msh.num_triangles):
        out = []
        for lo, hi in zip(runs[:-1], runs[1:]):
            n = counts[lo]
            inside = starts[lo:hi][(tri[starts[lo:hi]] >= lo_tri) & (tri[starts[lo:hi]] < hi_tri)]
            for s in range(0, len(inside), size):
                first = inside[s:s + size]
                out.append((tri[first], slice(first[0], first[0] + len(first) * n), n))
        return out
    return tri, bary, w, xy, chunks


def _lshapes_and_rectangle():
    for h in (0.2, 0.1, 0.05, 0.025, 0.0125):
        for r_c, z_c in ((0.3, 0.6), (0.7, 0.2)):
            yield pytest.param(lambda h=h, r_c=r_c, z_c=z_c: mesh.gen_lshape(r_c, z_c, 1.0, 0.0, 1.0, h),
                               id=f"lshape-{r_c}-{z_c}-{h}")
    yield pytest.param(lambda: (mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.1), None), id="rectangle")


@pytest.mark.parametrize("make", _lshapes_and_rectangle())
def test_quadrature_layout_equals_its_reference_bit_for_bit(make):
    """tri, w and xy, the chunks of the workspace and those of each of its
    ranges equal those of the per-triangle construction bit for bit, with
    and without the corner: the subdivided weights scale by 0.25, a power
    of two, so 0.25 * area * w and area * (0.25 * w) are the same float.
    The barycentric coordinates of each chunk's points are the rule points
    of its run, femcore.RULE_OF[n], and the workspace's lambda / r is the
    construction's bary / r, bit for bit."""
    msh, corner = make()
    for at in {None, corner}:
        quad = MeshQuadrature(msh, at)
        tri, bary, w, xy, chunks = _quadrature_reference(msh, at)
        for got, want in ((quad.tri, tri), (quad.w, w), (quad.xy, xy)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert [n for _, n in quad.runs] == [7, 28]
        ws = modal_ops.OperatorWorkspace(quad)
        for _, points, n in ws.chunks:
            rule = np.tile(femcore.RULE_OF[n], ((points.stop - points.start) // n, 1))
            assert bary[points].tobytes() == rule.tobytes()
        lor = bary / quad.r[:, None]
        assert ws.lor.dtype == lor.dtype and ws.lor.tobytes() == lor.tobytes()
        size, nt = modal_ops._BLOCK_TRIANGLES, msh.num_triangles
        assert ws.ranges == [slice(t, min(t + size, nt)) for t in range(0, nt, size)]
        for plan, want in [(ws.chunks, chunks(modal_ops._CHUNK_TRIANGLES))] + [
                (ws.chunks_of(r, size), chunks(size, r.start, r.stop)) for r in ws.ranges]:
            assert len(plan) == len(want)
            for (tris, points, n), (tris_want, points_want, n_want) in zip(plan, want):
                assert tris.dtype == tris_want.dtype and tris.tobytes() == tris_want.tobytes()
                assert (points, n) == (points_want, n_want)


def test_interpolate_partition_of_unity(rect):
    fld = ModeField(rect, 0, np.tile([1.0, 0, 0], (rect.num_vertices, 1)))
    pts = [(0.31, 0.77), (0.05, 0.5), (0.99, 0.01)]
    for pt in pts:
        assert interpolate(fld, pt) == pytest.approx([1.0, 0, 0])
    # one call on a (3, 2) array matches the per-point calls bit for bit
    many = interpolate(fld, np.array(pts))
    assert many.shape == (3, 3)
    assert np.array_equal(many, [interpolate(fld, pt) for pt in pts])


def test_interpolate_reproduces_linear(rect):
    vals = np.zeros((rect.num_vertices, 3), dtype=complex)
    vals[:, 0] = rect.vertices[:, 0]
    fld = ModeField(rect, 0, vals)
    assert interpolate(fld, (0.43, 0.69))[0] == pytest.approx(0.43, abs=1e-14)
    assert interpolate_scalar(rect, vals[:, 0], (0.43, 0.69)) == pytest.approx(0.43, abs=1e-14)


def test_interpolate_at_vertex(rect, rng):
    vals = rng.normal(size=(rect.num_vertices, 3))
    fld = ModeField(rect, 0, vals)
    v = 7
    assert interpolate(fld, rect.vertices[v]) == pytest.approx(vals[v])


def test_interpolate_outside_raises(rect):
    fld = ModeField(rect, 0)
    with pytest.raises(ValueError):
        interpolate(fld, (2.5, 0.5))


def _locate_all_pairs(msh, pts, tol=1e-12):
    """Every point against every triangle: the lowest-index triangle whose
    barycentric coordinates all reach -tol, and those coordinates."""
    verts = msh.vertices[msh.triangles]
    v0 = verts[:, 0]
    d1 = verts[:, 1] - v0
    d2 = verts[:, 2] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    dp = pts[:, None, :] - v0
    l1 = (dp[..., 0] * d2[:, 1] - dp[..., 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * dp[..., 1] - d1[:, 1] * dp[..., 0]) / det
    l0 = 1.0 - l1 - l2
    inside = (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
    assert inside.any(axis=1).all()
    t = inside.argmax(axis=1)
    rows = np.arange(len(pts))
    return t, np.stack([l0[rows, t], l1[rows, t], l2[rows, t]], axis=1)


@pytest.mark.parametrize("h", [0.2, 0.05])
def test_locate_matches_the_all_pairs_scan(h, rng):
    """_locate tests each point against the triangles of its grid cell only,
    and still returns the lowest-index containing triangle and the same
    barycentric bits as the all-pairs scan, on shared vertices and edges of
    the L-shape too; a point outside the mesh raises."""
    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, h)
    tris = msh.vertices[msh.triangles]
    edges = np.concatenate([0.5 * (tris[:, i] + tris[:, (i + 1) % 3]) for i in range(3)])
    thirds = (2.0 * tris[:, 0] + tris[:, 1]) / 3.0
    # just off the edges, within the tolerance of the triangles on both sides
    nudged = np.concatenate([edges + d for d in ([1e-14, 0.0], [0.0, -1e-14])])
    cloud = rng.uniform(0.0, 1.0, (4000, 2))
    cloud = cloud[(cloud[:, 0] <= 0.5) | (cloud[:, 1] >= 0.5)]  # the L without the notch
    pts = np.concatenate([msh.vertices, edges, nudged, thirds, cloud, MeshQuadrature(msh).xy])
    t, lam = femcore._locate(msh, pts)
    t_ref, lam_ref = _locate_all_pairs(msh, pts)
    assert np.array_equal(t, t_ref)
    assert lam.tobytes() == lam_ref.tobytes()
    # one point, and a (..., 2) stack, locate as in the flat call
    one = femcore._locate(msh, pts[5])
    assert one[0] == t[5] and one[1].tobytes() == lam[5].tobytes()
    t2, lam2 = femcore._locate(msh, pts[:10].reshape(5, 2, 2))
    assert np.array_equal(t2.ravel(), t[:10])
    assert lam2.reshape(-1, 3).tobytes() == lam[:10].tobytes()
    for bad in ((0.75, 0.25), (1.5, 0.2), (np.nan, 0.5)):
        with pytest.raises(ValueError) as err:
            femcore._locate(msh, np.vstack([pts[:100], bad, (0.8, 0.1), pts[100:]]))
        assert str(err.value) == f"point {tuple(np.array(bad))} lies outside the mesh"


def _is_zero(cs, dof):
    return cs.index[dof] == -1 and cs.coeff[dof] == 0.0


def _is_free(cs, dof):
    return cs.index[dof] >= 0 and cs.free[cs.index[dof]] == dof


def _tie_slaves(cs):
    """Dofs that map onto a free index other than their own."""
    return np.setdiff1d(np.flatnonzero(cs.index >= 0), cs.free)


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
@pytest.mark.parametrize("k", [0, 1, -1, 2, 5])
def test_constraint_encoding(lshape, rng, space, k):
    """The free-dof map of every space and mode class on the L-shape, whose
    axis ends are wall corners."""
    msh, _ = lshape
    cs = build_constraints(msh, k, space)
    assert cs.n_dofs == 3 * msh.num_vertices
    assert np.array_equal(cs.index[cs.free], np.arange(cs.n_free))
    assert np.all(cs.coeff[cs.free] == 1.0)
    zero = cs.index < 0
    assert zero.any()
    assert np.all(cs.index[zero] == -1)
    assert np.all(cs.coeff[zero] == 0.0)
    assert np.all(cs.coeff[~zero] != 0.0)
    slaves = _tie_slaves(cs)
    if abs(k) == 1:
        assert len(slaves) > 0
        assert np.all(slaves % 3 == 1)  # u_theta of an axis vertex
        assert np.all(msh.vertices[slaves // 3, 0] == 0.0)
        assert np.array_equal(cs.free[cs.index[slaves]], slaves - 1)  # its u_r
        assert np.all(cs.coeff[slaves] == 1j * np.sign(k))
    else:
        assert len(slaves) == 0
    shape = (msh.num_vertices, 3)
    fld = ModeField(msh, k, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    once = cs.apply(fld)
    assert np.array_equal(cs.apply(once).values, once.values)
    x = cs.free_values(fld)
    assert np.array_equal(cs.free_values(cs.expand(x)), x)


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
def test_axis_constraints_high_mode(lshape, space):
    msh, _ = lshape
    cs = build_constraints(msh, 2, space)
    for v in msh.axis_vertices():
        for c in range(3):
            assert _is_zero(cs, 3 * int(v) + c)


def test_axis_tie_matches_cartesian_unit_field(lshape):
    msh, _ = lshape
    cs = build_constraints(msh, 1, SPACE_X)
    # mode-1 coefficients of the constant field e_x: u_r = 1/2, u_theta = i/2
    vals = np.zeros((msh.num_vertices, 3), dtype=complex)
    vals[:, 0] = 0.5
    vals[:, 1] = 0.5j
    fld = ModeField(msh, 1, vals)
    interior_axis = (_tie_slaves(cs) // 3).tolist()
    assert interior_axis, "expected tied axis vertices for |k| = 1"
    projected = cs.apply(fld)
    for v in interior_axis:
        assert projected.values[v, 1] == pytest.approx(vals[v, 1])


def test_wall_constraints_magnetic_vertical_edge():
    m = mesh.gen_rectangle(0, 1, 0, 1, 0.25)
    cs = build_constraints(m, 0, SPACE_Y)
    on_right = [
        int(v)
        for v in np.unique(m.boundary_edges[m.boundary_tags == mesh.WALL])
        if m.vertices[int(v), 0] == 1.0 and 0.0 < m.vertices[int(v), 1] < 1.0
    ]
    assert on_right
    for v in on_right:
        assert _is_zero(cs, 3 * v + 0)  # normal component u_r
        assert _is_free(cs, 3 * v + 1)
        assert _is_free(cs, 3 * v + 2)


def test_apply_is_idempotent(lshape, rng):
    msh, _ = lshape
    for k, space in ((0, SPACE_X), (1, SPACE_Y), (-1, SPACE_X), (2, SPACE_Y)):
        cs = build_constraints(msh, k, space)
        fld = ModeField(
            msh, k, rng.normal(size=(msh.num_vertices, 3)) + 1j * rng.normal(size=(msh.num_vertices, 3))
        )
        once = cs.apply(fld)
        twice = cs.apply(once)
        assert np.array_equal(once.values, twice.values)
        assert np.abs(once.values - cs.apply(once).values).max() <= 1e-12


@pytest.mark.parametrize("space", [SPACE_X, SPACE_Y])
def test_functional_is_the_adjoint_of_expand(lshape, rng, space):
    """functional, gathered per element, is the adjoint of expand gathered
    at the local dofs: <L, u_local> = <functional(L), x> for u = expand(x),
    with the tie coefficients i sign(k) of |k| = 1 conjugated and the
    zero-constrained local dofs dropped."""
    msh, _ = lshape
    local = (3 * msh.triangles[:, :, None] + np.arange(3)).reshape(-1, 9)
    for k in (0, 1, -1, 2, -2, 3):
        cs = build_constraints(msh, k, space)
        x = rng.normal(size=cs.n_free) + 1j * rng.normal(size=cs.n_free)
        L = rng.normal(size=local.shape) + 1j * rng.normal(size=local.shape)
        u_local = cs.expand(x).values.ravel()[local]
        lhs, rhs = np.vdot(u_local, L), np.vdot(x, cs.functional(L))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs), k
        assert cs.slots.dtype == np.int32 and cs.slots.shape == (9 * msh.num_triangles,)


def test_tie_masters_are_free(lshape):
    msh, _ = lshape
    for k in (1, -1):
        cs = build_constraints(msh, k, SPACE_Y)
        tied = _tie_slaves(cs)
        assert len(tied) > 0
        masters = cs.free[cs.index[tied]]
        assert all(_is_free(cs, m) for m in masters)


def test_lift_zero_trace_gives_zero(lshape):
    msh, _ = lshape
    cs = build_constraints(msh, 0, SPACE_Y)
    lift = lift_boundary(cs, lambda p: np.zeros((len(p), 3)))
    assert np.all(lift.values == 0.0)


def test_lift_principal_trace(lshape):
    from axmaxwell import singular

    msh, corner = lshape
    pp = singular.PrincipalPart(singular.EDGE_ELECTRIC, corner=corner)
    guard = 1e-12 * msh.diameter()

    def trace(pts):
        rho, _ = corner.local_coords(pts)
        out = np.zeros((len(pts), 3))
        out[rho > guard] = -pp.values(pts[rho > guard])
        return out

    cs = build_constraints(msh, 0, SPACE_X)
    lift = lift_boundary(cs, trace)
    wall = set(int(v) for v in msh.boundary_edges[msh.boundary_tags == mesh.WALL].ravel())
    nz = np.where(np.abs(lift.values).sum(axis=1) > 0)[0]
    assert len(nz) > 0
    assert set(nz.tolist()) <= wall
    # lifted values sit exactly at the zero-constrained components
    for v in nz:
        expected = trace(msh.vertices[v][None, :])[0]
        for c in range(3):
            if _is_zero(cs, 3 * v + c):
                assert lift.values[v, c] == pytest.approx(expected[c], abs=1e-14)
            else:
                assert lift.values[v, c] == 0.0


def test_lift_rejects_nonfinite(lshape):
    msh, _ = lshape
    cs = build_constraints(msh, 0, SPACE_X)
    with pytest.raises(ValueError):
        lift_boundary(cs, lambda p: np.tile([np.inf, 0, 0], (len(p), 1)))


def test_wall_must_be_axis_aligned():
    verts = np.array([[0.5, 0.0], [1.5, 0.3], [0.6, 1.1]])
    m = _one_triangle_mesh(verts)
    with pytest.raises(MeshError):
        build_constraints(m, 0, SPACE_X)
