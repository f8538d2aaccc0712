import math
import re

import numpy as np
import pytest

from axmaxwell import mesh
from axmaxwell.mesh import AXIS, WALL, MeshError


def test_rectangle_coarse_combinatorics():
    m = mesh.gen_rectangle(0, 1, 0, 1, 0.5)
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    assert (m.boundary_tags == AXIS).sum() == 2


def test_rectangle_fine_combinatorics():
    m = mesh.gen_rectangle(0, 1, 0, 1, 0.25)
    assert m.num_vertices == 25
    assert m.num_triangles == 32


def test_rectangle_off_axis_has_no_axis_edges():
    m = mesh.gen_rectangle(0.5, 1, 0, 1, 0.5)
    assert (m.boundary_tags == AXIS).sum() == 0
    assert mesh.classify_boundary(m) == []


def test_area_sums():
    m = mesh.gen_rectangle(0, 2, -1, 1, 0.21)
    assert abs(m.triangle_areas().sum() - 4.0) <= 1e-12 * 4.0
    lm, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.13)
    assert abs(lm.triangle_areas().sum() - 0.75) <= 1e-12


def test_axis_vertices_exactly_on_axis():
    m = mesh.gen_rectangle(0, 1, 0, 1, 0.17)
    assert np.all(m.vertices[m.axis_vertices(), 0] == 0.0)


def test_lshape_corner_descriptor():
    lm, c = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.1)
    assert c.alpha == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert c.a == 0.5
    assert c.interior_angle == pytest.approx(1.5 * math.pi, abs=1e-12)
    # independent angle check from the generated incident wall edge vectors
    nbr_dirs = []
    for (i, j), tag in zip(lm.boundary_edges, lm.boundary_tags):
        if c.corner_vertex in (i, j):
            assert tag == WALL
            other = int(i) + int(j) - c.corner_vertex
            d = lm.vertices[other] - lm.vertices[c.corner_vertex]
            nbr_dirs.append(math.atan2(d[1], d[0]))
    assert len(nbr_dirs) == 2
    spread = (max(nbr_dirs) - min(nbr_dirs)) % (2 * math.pi)
    wedge = min(spread, 2 * math.pi - spread)
    assert min(wedge, 2 * math.pi - wedge) == pytest.approx(0.5 * math.pi, abs=1e-12)
    # phi0 points along the horizontal wall going right
    assert c.phi0 == pytest.approx(0.0, abs=1e-12)


def test_lshape_exactly_one_corner():
    lm, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.1)
    corners = mesh.classify_boundary(lm)
    assert len(corners) == 1


def test_classify_is_idempotent():
    lm, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.2)
    first = mesh.classify_boundary(lm)
    second = mesh.classify_boundary(lm)
    assert first == second


def test_rectangle_with_axis_has_no_corners():
    m = mesh.gen_rectangle(0, 1, 0, 1, 0.25)
    assert mesh.classify_boundary(m) == []
    assert (m.boundary_tags == AXIS).sum() >= 1


def test_save_load_round_trip(tmp_path):
    lm, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.17)
    path = tmp_path / "m.txt"
    mesh.save_mesh(lm, path)
    back = mesh.load_mesh(path)
    assert back == lm
    assert np.array_equal(back.vertices, lm.vertices)


def test_load_rejects_negative_r(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "axmesh 1\nvertices 3\n-0.1 0\n1 0\n1 1\ntriangles 1\n0 1 2\n"
        "boundary 3\n0 1 wall\n1 2 wall\n2 0 wall\n"
    )
    with pytest.raises(MeshError):
        mesh.load_mesh(path)


def test_load_rejects_duplicate_triangle(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text(
        "axmesh 1\nvertices 4\n0.5 0\n1 0\n1 1\n0.5 1\ntriangles 3\n"
        "0 1 2\n0 2 3\n0 2 3\nboundary 4\n0 1 wall\n1 2 wall\n2 3 wall\n3 0 wall\n"
    )
    with pytest.raises(MeshError):
        mesh.load_mesh(path)


@pytest.mark.parametrize("nv", [0, 3])
def test_load_rejects_vertex_index_past_the_end(tmp_path, nv):
    path = tmp_path / "index.txt"
    rows = "0 0\n1 0\n1 1\n"[: 4 * nv]
    path.write_text(f"axmesh 1\nvertices {nv}\n{rows}triangles 1\n0 1 3\nboundary 0\n")
    with pytest.raises(MeshError, match="out of bounds"):
        mesh.load_mesh(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("axmesh 2\n")
    with pytest.raises(MeshError):
        mesh.load_mesh(path)
    path.write_text("axmesh 1\nvertices 2\n0 0\n")
    with pytest.raises(MeshError):
        mesh.load_mesh(path)


def test_generator_errors():
    with pytest.raises(MeshError):
        mesh.gen_rectangle(0, 1, 0, 1, -0.5)
    with pytest.raises(MeshError):
        mesh.gen_rectangle(1, 0, 0, 1, 0.5)
    with pytest.raises(MeshError):
        mesh.gen_lshape(0.0, 0.5, 1.0, 0.0, 1.0, 0.1)  # corner on the axis
    with pytest.raises(MeshError):
        mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.9)  # h cannot resolve corner


def test_conical_descriptor_validation():
    mesh.ConicalDescriptor(z=0.3, aperture=2.5)
    with pytest.raises(MeshError):
        mesh.ConicalDescriptor(z=0.0, aperture=3.5)


def _structured_reference(rlines, zlines, keep):
    """The per-cell loop the generators used to build their triangles with."""
    nz = len(zlines)
    tris = []
    for i in range(len(rlines) - 1):
        for j in range(nz - 1):
            if keep(0.5 * (rlines[i] + rlines[i + 1]), 0.5 * (zlines[j] + zlines[j + 1])):
                v00, v10, v01, v11 = i * nz + j, (i + 1) * nz + j, i * nz + j + 1, (i + 1) * nz + j + 1
                tris += [(v00, v10, v11), (v00, v11, v01)]
    tris = np.array(tris)
    used = np.unique(tris)
    return np.searchsorted(used, tris), used


@pytest.mark.parametrize("h", [0.1, 0.05, 0.03])
def test_generators_match_the_cell_loop(h):
    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, h)
    rl, zl = np.unique(msh.vertices[:, 0]), np.unique(msh.vertices[:, 1])
    tris, used = _structured_reference(rl, zl, lambda r, z: not (r > 0.5 and z < 0.5))
    assert np.array_equal(msh.triangles, tris)
    rr, zz = np.meshgrid(rl, zl, indexing="ij")
    assert np.array_equal(msh.vertices, np.column_stack([rr.ravel(), zz.ravel()])[used])


def _grid_lines_reference(lo, hi, h, anchors=()):
    """The list the generators used to build one axis's grid lines with."""
    stops = sorted({lo, hi, *anchors})
    lines = [lo]
    for a, b in zip(stops[:-1], stops[1:]):
        n = max(1, round((b - a) / h))
        lines.extend(a + (b - a) * (i + 1) / n for i in range(n))
    return np.array(lines)


def test_grid_lines_match_the_list_construction_bitwise():
    rng = np.random.default_rng(3)
    cases = [(0, 1, 0.25, ()), (0.0, 1.0, 0.0125, (0.5,)), (-1.0, 1.0, 0.21, ()),
             (0.0, 1.0, 0.13, (0.5,)), (0.0, 2.0, 0.3, (1e-15, 1.999))]
    for _ in range(2000):
        lo = float(rng.uniform(-5.0, 5.0)) if rng.random() < 0.7 else 0.0
        hi = lo + float(rng.uniform(1e-3, 10.0))
        anchors = tuple(float(a) for a in rng.uniform(lo, hi, rng.integers(0, 3)))
        cases.append((lo, hi, (hi - lo) / float(rng.uniform(0.5, 300.0)), anchors))
    for lo, hi, h, anchors in cases:
        rpieces, _ = mesh.grid_segments(h, (lo, hi, *anchors), (0.0, 1.0))
        got, want = mesh._grid_lines(rpieces), _grid_lines_reference(lo, hi, h, anchors)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (lo, hi, h, anchors)


@pytest.fixture
def no_grid_arrays(monkeypatch):
    """Fail when a generator reaches a grid array: a size check that does not
    fire must fail the test, not exhaust memory."""
    def reached(*args, **kwargs):
        raise AssertionError("a grid array was built")

    monkeypatch.setattr(mesh, "_grid_lines", reached)
    monkeypatch.setattr(mesh, "_structured_arrays", reached)


@pytest.mark.parametrize("make, message", [
    (lambda: mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 1e-9), "MAX_ENTRIES"),
    (lambda: mesh.gen_rectangle(0.0, 1e300, 0.0, 1.0, 0.1), "MAX_ENTRIES"),
    (lambda: mesh.gen_rectangle(0.0, 1e308, 0.0, 1.0, 1e-10), "not finite"),
    (lambda: mesh.gen_rectangle(0.0, 1.0, -1e308, 1e308, 1.0), "not finite"),
    (lambda: mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, float("nan")), "positive"),
    (lambda: mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.0), "positive"),
    (lambda: mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 1e-5), "MAX_ENTRIES"),
    (lambda: mesh.gen_lshape(0.5, 0.5, 1e300, 0.0, 1.0, 0.1), "MAX_ENTRIES"),
], ids=["rect-h", "rect-rmax", "rect-overflow", "rect-span-overflow", "rect-nan", "rect-zero",
        "lshape-h", "lshape-rmax"])
def test_oversized_grid_fails_before_any_array(no_grid_arrays, make, message):
    with pytest.raises(MeshError, match=message):
        make()


def test_grid_at_the_size_limit_is_counted_exactly(no_grid_arrays, monkeypatch):
    """The vertex count nr * nz is compared with MAX_ENTRIES: a 5 x 5 grid
    passes a limit of 25 and fails one of 24."""
    monkeypatch.setattr(mesh, "MAX_ENTRIES", 25)
    rpieces, zpieces = mesh.grid_segments(0.25, (0.0, 1.0), (0.0, 1.0))
    assert rpieces == zpieces == [(0.0, 1.0, 4)]
    monkeypatch.setattr(mesh, "MAX_ENTRIES", 24)
    with pytest.raises(MeshError, match="MAX_ENTRIES = 24"):
        mesh.grid_segments(0.25, (0.0, 1.0), (0.0, 1.0))


# -- the boundary TriangleMesh derives ---------------------------------------------


def _boundary_reference(verts, tris):
    """The construction the generators used to hand TriangleMesh its boundary:
    the once-used rows of a row-wise unique over the sorted edges, tagged
    axis when both ends lie on r = 0."""
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    uniq, counts = np.unique(np.sort(edges, axis=1), axis=0, return_counts=True)
    bnd = uniq[counts == 1]
    on_axis = (verts[bnd[:, 0], 0] == 0.0) & (verts[bnd[:, 1], 0] == 0.0)
    return bnd, np.where(on_axis, AXIS, WALL)


def _assert_directed_loop(msh):
    """Every boundary row is an edge of a triangle, directed as in it, and the
    shoelace area of the rows is positive: the loop runs counterclockwise."""
    tris = msh.triangles
    directed = set(map(tuple, np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                              tris[:, [2, 0]]]).tolist()))
    assert set(map(tuple, msh.boundary_edges.tolist())) <= directed
    p, q = msh.vertices[msh.boundary_edges[:, 0]], msh.vertices[msh.boundary_edges[:, 1]]
    assert (p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]).sum() > 0.0


def _assert_reference_boundary(msh):
    edges, tags = _boundary_reference(msh.vertices, msh.triangles)
    got = np.sort(msh.boundary_edges, axis=1)
    assert got.dtype == edges.dtype and np.array_equal(got, edges)
    assert msh.boundary_tags.dtype == tags.dtype and np.array_equal(msh.boundary_tags, tags)
    _assert_directed_loop(msh)


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05, 0.03, 0.025, 0.0125])
@pytest.mark.parametrize("make", [
    lambda h: mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, h),
    lambda h: mesh.gen_rectangle(0.2, 1.0, -0.5, 1.0, h),
    lambda h: mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, h)[0],
    lambda h: mesh.gen_lshape(0.3, 0.6, 1.0, 0.0, 1.0, h)[0],
], ids=["rect-axis", "rect-off-axis", "lshape", "lshape-off-centre"])
def test_derived_boundary_matches_the_once_used_edges(make, h):
    """Every generated mesh and every level coarsen makes of it."""
    msh = make(h)
    while msh is not None:
        _assert_reference_boundary(msh)
        msh = (mesh.coarsen(msh) or (None,))[0]


@pytest.mark.parametrize("verts, tris, message", [
    # 2 and 3 lie on the same side of edge 0-1: the second triangle folds onto the first
    (np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.8, 0.5]]), [[0, 1, 2], [0, 1, 3]],
     "edge 0 -> 1 is traversed twice"),
    # edge 0-1 is a side of three triangles
    (np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.7, -1.0], [0.6, 0.5]]),
     [[0, 1, 2], [1, 0, 3], [0, 1, 4]], "edge 0 -> 1 is traversed twice"),
    # the same triangle twice, its vertices rotated
    (np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]]), [[0, 1, 2], [0, 2, 3], [2, 3, 0]],
     "edge 0 -> 2 is traversed twice"),
], ids=["fold", "three-triangles", "rotated-duplicate"])
def test_repeated_directed_edge_is_rejected(verts, tris, message):
    with pytest.raises(MeshError, match="^non-conforming triangulation: " + re.escape(message)):
        mesh.TriangleMesh(verts, np.array(tris), 1.0)


def test_pinched_boundary_is_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0], [2.0, 2.0]])
    with pytest.raises(MeshError, match="^boundary is not a single closed loop$"):
        mesh.TriangleMesh(verts, np.array([[0, 1, 2], [2, 3, 4]]), 1.0)


@pytest.mark.parametrize("keep", [
    # two cells at opposite corners of a 3 x 3 grid, sharing no vertex
    [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
    # the 3 x 3 grid without its centre cell
    [[1, 1, 1], [1, 0, 1], [1, 1, 1]],
], ids=["two-pieces", "hole"])
def test_boundary_of_several_loops_is_rejected(keep):
    lines = np.linspace(0.0, 1.0, 4)
    verts, tris = mesh._structured_arrays(lines, lines, np.array(keep, dtype=bool))
    with pytest.raises(MeshError, match="^boundary is 2 loops, not one: "
                       "the mesh has a hole or several pieces$"):
        mesh.TriangleMesh(verts, tris, 1.0)


def test_unused_vertex_is_rejected():
    msh = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.1)
    verts = np.vstack([msh.vertices, [5.0, 5.0]])
    with pytest.raises(MeshError, match="^vertex 121 is used by no triangle$"):
        mesh.TriangleMesh(verts, msh.triangles, msh.h)


def _write_with_boundary(msh, path, rows):
    """Save msh, its boundary block replaced by rows of (i, j, tag)."""
    mesh.save_mesh(msh, path)
    text = path.read_text()
    head = text[: text.index("boundary ")]
    path.write_text(head + f"boundary {len(rows)}\n" + "".join(f"{i} {j} {t}\n" for i, j, t in rows))


def _file_rows(msh):
    """The boundary rows save_mesh writes: (low, high, tag)."""
    return [(int(i), int(j), "axis" if t == AXIS else "wall")
            for (i, j), t in zip(np.sort(msh.boundary_edges, axis=1), msh.boundary_tags)]


def test_boundary_block_is_a_set(tmp_path):
    """Rows in any order, each edge either way round, load to the same mesh."""
    msh = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    path = tmp_path / "m.axmesh"
    _write_with_boundary(msh, path, [(j, i, t) for i, j, t in reversed(_file_rows(msh))])
    back = mesh.load_mesh(path)
    assert back == msh
    assert np.array_equal(back.boundary_edges, msh.boundary_edges)
    assert np.array_equal(back.boundary_tags, msh.boundary_tags)


@pytest.mark.parametrize("tagged, lies_on", [("wall", "axis"), ("axis", "wall")])
def test_load_rejects_mistagged_boundary_edge(tmp_path, tagged, lies_on):
    """An r = 0 edge tagged wall (the axis is geometry, not input) and an
    off-axis edge tagged axis."""
    msh = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    rows = _file_rows(msh)
    k = next(n for n, row in enumerate(rows) if row[2] == lies_on)
    i, j, _ = rows[k]
    path = tmp_path / "m.axmesh"
    _write_with_boundary(msh, path, rows[:k] + [(i, j, tagged)] + rows[k + 1:])
    with pytest.raises(MeshError, match=re.escape(
            f"{path}: boundary edge {i} {j} is tagged {tagged}, but lies on the {lies_on}: "
            "axis edges are those with both ends on r = 0")):
        mesh.load_mesh(path)


def test_load_rejects_boundary_block_without_an_edge(tmp_path):
    msh = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    rows = _file_rows(msh)
    path = tmp_path / "m.axmesh"
    _write_with_boundary(msh, path, rows[:2] + rows[3:])
    i, j, _ = rows[2]
    with pytest.raises(MeshError, match=re.escape(
            f"{path}: boundary block lacks boundary edge {i} {j}")):
        mesh.load_mesh(path)


@pytest.mark.parametrize("extra", ["interior", "repeat"])
def test_load_rejects_boundary_block_with_an_extra_edge(tmp_path, extra):
    msh = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    rows = _file_rows(msh)
    # the diagonal of the first cell is a side of two triangles
    row = (int(msh.triangles[0, 0]), int(msh.triangles[0, 2]), "wall")
    if extra == "repeat":
        row = rows[1]
    path = tmp_path / "m.axmesh"
    _write_with_boundary(msh, path, rows + [row])
    with pytest.raises(MeshError, match=re.escape(
            f"{path}: boundary row {row[0]} {row[1]} repeats or is not an edge of one triangle")):
        mesh.load_mesh(path)


_ONE_TRIANGLE = "vertices 3\n0.5 0\n1 0\n1 1\ntriangles 1\n0 1 2\nboundary 3\n0 1 wall\n1 2 wall\n0 2 wall\n"


@pytest.mark.parametrize("name, count", [("vertices", 3), ("triangles", 1), ("boundary", 3)])
def test_load_rejects_a_negative_block_count(tmp_path, name, count):
    """A negative count is a bad count, not a block read as empty."""
    path = tmp_path / "neg.axmesh"
    path.write_text("axmesh 1\n" + _ONE_TRIANGLE.replace(f"{name} {count}", f"{name} -{count}"))
    with pytest.raises(MeshError, match=f"^{re.escape(str(path))}: bad {name} count$"):
        mesh.load_mesh(path)
    path.write_text("axmesh 1\n" + _ONE_TRIANGLE)
    mesh.load_mesh(path)


def test_load_names_the_file_in_a_triangle_mesh_error(tmp_path):
    """A mesh file whose one triangle is clockwise fails in TriangleMesh,
    and the message names the file."""
    path = tmp_path / "cw.axmesh"
    path.write_text("axmesh 1\nvertices 3\n0.5 0\n1 1\n1 0\ntriangles 1\n0 1 2\n"
                    "boundary 3\n0 1 wall\n1 2 wall\n2 0 wall\n")
    with pytest.raises(MeshError, match=re.escape(
            f"{path}: triangle 0 is degenerate or not counterclockwise")):
        mesh.load_mesh(path)


# -- the corners classify_boundary reads off the boundary loop ----------------------


def _corner_reference(msh):
    """The construction classify_boundary used to detect corners with: the
    interior angle of a boundary vertex as the sum of its triangles' angles,
    and phi0 as the incident edge whose counterclockwise sweep by that angle
    reaches the other one."""
    verts = msh.vertices
    angle_sum = np.zeros(msh.num_vertices)
    for loc in range(3):
        a = msh.triangles[:, loc]
        b = msh.triangles[:, (loc + 1) % 3]
        c = msh.triangles[:, (loc + 2) % 3]
        u = verts[b] - verts[a]
        v = verts[c] - verts[a]
        cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        dot = (u * v).sum(axis=1)
        np.add.at(angle_sum, a, np.arctan2(np.abs(cross), dot))
    corners = []
    incident = {}
    for (i, j), tag in zip(msh.boundary_edges, msh.boundary_tags):
        for v in (int(i), int(j)):
            incident.setdefault(v, []).append((int(i) + int(j) - v, tag))
    for v in sorted(incident):
        theta = angle_sum[v]
        if theta <= math.pi + mesh.ANGLE_TOL:
            continue
        if abs(theta - math.pi) <= 10 * mesh.ANGLE_TOL and theta > math.pi:
            raise MeshError(f"ambiguous interior angle at vertex {v}")
        nbrs = incident[v]
        if any(tag == AXIS for _, tag in nbrs):
            raise MeshError("reentrant corner on the axis is not supported")
        psi = [math.atan2(*(verts[w] - verts[v])[::-1]) for w, _ in nbrs]
        if math.isclose((psi[1] - psi[0]) % (2 * math.pi), theta, abs_tol=1e-9):
            phi0 = psi[0]
        elif math.isclose((psi[0] - psi[1]) % (2 * math.pi), theta, abs_tol=1e-9):
            phi0 = psi[1]
        else:
            raise MeshError(f"incident wall edges at vertex {v} do not bound the corner")
        r_c = float(verts[v, 0])
        corners.append(mesh.CornerDescriptor(
            corner_vertex=v, position=(r_c, float(verts[v, 1])), interior_angle=float(theta),
            alpha=math.pi / float(theta), phi0=float(phi0), a=r_c))
    return corners


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05, 0.025, 0.0125, 0.01, 0.0045])
def test_corners_match_the_angle_sums(h):
    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, h)
    got, want = mesh.classify_boundary(msh), _corner_reference(msh)
    assert len(got) == 1 and got == want and repr(got) == repr(want)


@pytest.mark.parametrize("r_c, z_c, h", [(0.3, 0.6, 0.0125), (0.7, 0.2, 0.025), (0.7, 0.2, 0.0125)])
def test_corner_angle_where_the_sum_was_one_ulp_high(r_c, z_c, h):
    """The loop reads 3 pi / 2 as the float 2 pi - pi / 2; the angle sum of
    these corners came out one ulp above it."""
    msh, corner = mesh.gen_lshape(r_c, z_c, 1.0, 0.0, 1.0, h)
    assert corner.position == (r_c, z_c)
    assert (corner.interior_angle, corner.alpha) == (4.71238898038469, 0.6666666666666666)
    [old] = _corner_reference(msh)
    assert (old.interior_angle, old.alpha) == (4.712388980384691, 0.6666666666666665)
    assert (old.corner_vertex, old.position, old.phi0, old.a) == (
        corner.corner_vertex, corner.position, corner.phi0, corner.a)


def test_ambiguous_interior_angle_is_rejected():
    """A bottom wall vertex raised by 2e-6 over a half-width of 0.5 turns
    the loop by 2 atan(4e-6), about 8e-6 rad past pi: above ANGLE_TOL and
    within 10 ANGLE_TOL of pi."""
    verts = np.array([[0.5, 0.0], [1.0, 2e-6], [1.5, 0.0], [1.5, 1.0], [0.5, 1.0]])
    msh = mesh.TriangleMesh(verts, np.array([[0, 1, 4], [1, 3, 4], [1, 2, 3]]), 0.5)
    with pytest.raises(MeshError, match="^ambiguous interior angle at vertex 1$"):
        mesh.classify_boundary(msh)
    with pytest.raises(MeshError, match="^ambiguous interior angle at vertex 1$"):
        _corner_reference(msh)


def test_slit_tip_is_rejected():
    """The square [0.5, 1.5] x [0, 1] cut along z = 0.5 from r = 1.5 to the
    tip (1, 0.5), the cut's end doubled as vertices 3 and 9: the loop runs
    back along itself at vertex 8, where the angle sum found no edge pair
    bounding 2 pi."""
    verts = np.array([[0.5, 0.0], [1.0, 0.0], [1.5, 0.0], [1.5, 0.5], [1.5, 1.0], [1.0, 1.0],
                      [0.5, 1.0], [0.5, 0.5], [1.0, 0.5], [1.5, 0.5]])
    tris = np.array([[0, 1, 8], [0, 8, 7], [1, 2, 3], [1, 3, 8], [8, 9, 4], [8, 4, 5],
                     [7, 8, 5], [7, 5, 6]])
    msh = mesh.TriangleMesh(verts, tris, 0.5)
    with pytest.raises(MeshError, match=re.escape(
            "the boundary turns back on itself at vertex 8: "
            "a slit tip (interior angle 2 pi) is not supported")):
        mesh.classify_boundary(msh)
    with pytest.raises(MeshError, match="^incident wall edges at vertex 8 do not bound the corner$"):
        _corner_reference(msh)
