"""Triangulations of the meridian half-plane.

Vertices live in the (r, z) plane with r >= 0.  The boundary is split into
the axis part (edges lying exactly on r = 0) and the wall part (everything
else); wall vertices whose interior angle exceeds pi are reported as
reentrant corners together with the data needed to build the local singular
frame (opening exponent alpha, frame offset phi0, cutoff scale a).
"""

import math
from dataclasses import dataclass

import numpy as np

AXIS = 0
WALL = 1

_TAG_NAMES = {AXIS: "axis", WALL: "wall"}

# generated coordinates below this magnitude snap to exactly r = 0
_AXIS_SNAP = 1e-14
# reentrancy threshold guard: generated polygons have exact right angles
ANGLE_TOL = 1e-6
# the most entries of any array that a run's options size: the vertices of a
# generated grid here, and the analysis, projection and synthesis arrays of
# the command line (cli_io); far above the largest array of the benchmark
# workloads, 64 x 2,400 x 6 synthesized wedge indices (the largest analysis
# arrays: 3 x 67,536 per mode and 9 x 8,192 samples per data call)
MAX_ENTRIES = 20_000_000


class MeshError(ValueError):
    """Invalid mesh data (geometry, conformity or file format)."""


def unique(a):
    """np.unique(a), the sorted distinct entries, without numpy 2.4's numpy.ma import."""
    a = np.sort(a, axis=None)
    return a[np.r_[True, a[1:] != a[:-1]][:a.size]]


@dataclass(frozen=True)
class CornerDescriptor:
    """A reentrant corner of the meridian domain.

    alpha = pi / interior_angle lies in (1/2, 1) for a reentrant corner.
    phi0 is the global (r,z)-plane angle of the wall edge from which the
    local polar angle phi is measured; sweeping counterclockwise by the
    interior angle from that edge crosses the interior of the domain and
    lands on the other incident wall edge.  a is the length scale of the
    r/a cutoff carried by the principal parts.
    """

    corner_vertex: int
    position: tuple
    interior_angle: float
    alpha: float
    phi0: float
    a: float

    @property
    def reentrant(self):
        return self.interior_angle > math.pi + ANGLE_TOL

    def local_coords(self, points):
        """Map (r, z) points to local polar (rho, phi) around the corner.

        phi is measured counterclockwise from the phi0 ray and wrapped to
        [0, 2*pi); interior points land in [0, interior_angle].
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dr = pts[:, 0] - self.position[0]
        dz = pts[:, 1] - self.position[1]
        rho = np.hypot(dr, dz)
        phi = np.mod(np.arctan2(dz, dr) - self.phi0, 2.0 * math.pi)
        return rho, phi


@dataclass(frozen=True)
class ConicalDescriptor:
    """A conical vertex on the axis at (r, z) = (0, z), aperture in (0, pi)."""

    z: float
    aperture: float

    def __post_init__(self):
        if not 0.0 < self.aperture < math.pi:
            raise MeshError(f"conical aperture must lie in (0, pi), got {self.aperture}")


class TriangleMesh:
    """Conforming triangulation of the meridian domain.

    The boundary comes from the triangles: boundary_edges holds the edges of
    exactly one triangle, each directed as in its triangle, so that the domain
    lies on its left and the rows make one counterclockwise loop; the rows are
    in the lexicographic order of their (low, high) pairs.  boundary_tags is
    AXIS for an edge with both ends on r = 0 and WALL for any other.  Arrays
    are frozen after construction; meshes may be shared freely.
    """

    def __init__(self, vertices, triangles, h):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.h = float(h)
        self.boundary_edges, self.boundary_tags = self._checked_boundary()
        for arr in (self.vertices, self.triangles, self.boundary_edges, self.boundary_tags):
            arr.setflags(write=False)

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def triangle_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def axis_vertices(self):
        """Vertices lying on axis-tagged edges."""
        return unique(self.boundary_edges[self.boundary_tags == AXIS])

    def diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    def __eq__(self, other):
        if not isinstance(other, TriangleMesh):
            return NotImplemented
        return (
            np.array_equal(self.vertices, other.vertices)
            and np.array_equal(self.triangles, other.triangles)
        )

    def __repr__(self):
        return (
            f"TriangleMesh(nv={self.num_vertices}, nt={self.num_triangles}, "
            f"nb={len(self.boundary_edges)}, h={self.h})"
        )

    # -- validation --------------------------------------------------------

    def _checked_boundary(self):
        """Check the arrays; return the boundary edges and their tags."""
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("vertex with a non-finite coordinate")
        if np.any(self.vertices[:, 0] < 0.0):
            raise MeshError("vertex with negative r coordinate")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (m, 3) array")
        nv = self.num_vertices
        if self.num_triangles == 0:
            raise MeshError("mesh has no triangles")
        if self.triangles.min() < 0 or self.triangles.max() >= nv:
            raise MeshError("triangle vertex index out of range")
        used = np.zeros(nv, dtype=bool)
        used[self.triangles] = True
        if not used.all():
            raise MeshError(f"vertex {int(np.argmin(used))} is used by no triangle")
        areas = self.triangle_areas()
        if np.any(areas <= 0.0):
            bad = int(np.argmax(areas <= 0.0))
            raise MeshError(f"triangle {bad} is degenerate or not counterclockwise")
        # one table of the directed edges (a, b), keyed a * nv + b: no
        # direction repeats in a conforming counterclockwise mesh, while a
        # duplicated triangle, a fold and an edge of three triangles each
        # repeat one; then an edge whose undirected key low * nv + high
        # occurs once has no reverse: it is a boundary edge
        tail = self.triangles.ravel()
        head = self.triangles[:, [1, 2, 0]].ravel()
        keys = np.sort(tail * nv + head)
        repeat = np.flatnonzero(keys[1:] == keys[:-1])
        if len(repeat):
            a, b = divmod(int(keys[repeat[0]]), nv)
            raise MeshError(f"non-conforming triangulation: edge {a} -> {b} is traversed twice "
                            "(a duplicated triangle, a fold or an edge of three triangles)")
        und = np.sort(np.minimum(tail, head) * nv + np.maximum(tail, head))
        bnd = und[np.r_[und[1:] != und[:-1], True] & np.r_[True, und[1:] != und[:-1]]]
        low, high = np.divmod(bnd, nv)
        forward = keys[np.minimum(np.searchsorted(keys, bnd), len(keys) - 1)] == bnd
        edges = np.column_stack(np.where(forward, (low, high), (high, low)))  # as in their triangle
        tail, head = edges.T
        # closed loop: every boundary vertex has exactly two incident edges
        counts_v = np.bincount(edges.ravel(), minlength=nv)
        if np.any((counts_v != 0) & (counts_v != 2)):
            raise MeshError("boundary is not a single closed loop")
        # so each boundary vertex has one outgoing boundary edge: following
        # them walks the loops, and one loop is one piece without holes
        succ, loops = dict(zip(tail.tolist(), head.tolist())), 0
        while succ:
            loops, v = loops + 1, next(iter(succ))
            while v in succ:
                v = succ.pop(v)
        if loops > 1:
            raise MeshError(f"boundary is {loops} loops, not one: the mesh has a hole or several pieces")
        on_axis = (self.vertices[edges, 0] == 0.0).all(axis=1)
        return edges, np.where(on_axis, AXIS, WALL)


# -- generators -------------------------------------------------------------


def _snap_axis(coords):
    out = np.asarray(coords, dtype=float).copy()
    out[np.abs(out) < _AXIS_SNAP] = 0.0
    return out


def grid_segments(h, rspan, zspan):
    """Count the grid of a generated mesh before any of its arrays exists.

    Each span (lo, hi, *anchors) is split at its anchors, which become grid
    lines, and each piece [a, b] into n = max(1, round((b - a) / h)) cells
    of size about h.  Returns the (a, b, n) pieces of r and of z.  A mesh
    size that is not positive, a (b - a) / h that is not finite or a grid
    of more than MAX_ENTRIES vertices is a MeshError.
    """
    if not h > 0.0:
        raise MeshError(f"mesh size h must be positive, got {h!r}")
    axes = []
    for lo, hi, *anchors in (rspan, zspan):
        stops = sorted({lo, hi, *anchors})
        pieces = []
        for a, b in zip(stops[:-1], stops[1:]):
            cells = (b - a) / h
            if not math.isfinite(cells):
                raise MeshError(f"h = {h!r} is too small for [{a!r}, {b!r}]: "
                                f"(b - a) / h is not finite")
            pieces.append((a, b, max(1, round(cells))))
        axes.append(pieces)
    nr, nz = (1 + sum(n for _, _, n in pieces) for pieces in axes)
    if nr * nz > MAX_ENTRIES:
        raise MeshError(f"h = {h!r} asks for more than MAX_ENTRIES = {MAX_ENTRIES} grid vertices")
    return axes


def _grid_lines(pieces):
    """The grid lines of one axis of grid_segments: its first end, then
    a + (b - a) * i / n for i = 1..n of each piece (a, b, n), evaluated in
    this order."""
    return np.concatenate([[pieces[0][0]]] + [
        a + (b - a) * np.arange(1, n + 1) / n for a, b, n in pieces
    ])


def _structured_arrays(rlines, zlines, keep=None):
    """Vertices and triangles of the grid rlines x zlines, two triangles
    per kept cell split along its (+r, +z) diagonal; keep is a boolean
    (nr - 1, nz - 1) mask of cells, None keeps all.  Unused vertices are
    dropped."""
    nr, nz = len(rlines), len(zlines)
    rr, zz = np.meshgrid(rlines, zlines, indexing="ij")
    verts = np.column_stack([_snap_axis(rr.ravel()), zz.ravel()])
    vid = np.arange(nr * nz).reshape(nr, nz)
    v00, v10 = vid[:-1, :-1], vid[1:, :-1]
    v01, v11 = vid[:-1, 1:], vid[1:, 1:]
    cells = np.stack([np.stack([v00, v10, v11], axis=-1),
                      np.stack([v00, v11, v01], axis=-1)], axis=2)
    tris = (cells if keep is None else cells[keep]).reshape(-1, 3)
    if not len(tris):
        raise MeshError("h too large: no cells generated")
    used = unique(tris)
    remap = -np.ones(nr * nz, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return verts[used], remap[tris]


def gen_rectangle(rmin, rmax, zmin, zmax, h):
    """Structured triangulation of the rectangle [rmin, rmax] x [zmin, zmax].

    Edges on r = rmin are tagged as axis exactly when rmin = 0.
    """
    if not (0.0 <= rmin < rmax) or not zmin < zmax:
        raise MeshError("need 0 <= rmin < rmax and zmin < zmax")
    rlines, zlines = map(_grid_lines, grid_segments(h, (rmin, rmax), (zmin, zmax)))
    return TriangleMesh(*_structured_arrays(rlines, zlines), h)


def gen_lshape(r_c, z_c, rmax=1.0, zmin=0.0, zmax=1.0, h=0.1):
    """L-shaped meridian domain with one reentrant corner at (r_c, z_c).

    The domain is [0, rmax] x [zmin, zmax] with the block r > r_c, z < z_c
    removed; rotating it around r = 0 gives a top-hat shape whose reentrant
    circular edge passes through the corner.  Returns the mesh together with
    the corner descriptor (interior angle 3*pi/2, alpha = 2/3, a = r_c).
    """
    if not (0.0 < r_c < rmax and zmin < z_c < zmax):
        raise MeshError("corner must lie strictly inside the bounding box, off the axis")
    if h > min(r_c, rmax - r_c, z_c - zmin, zmax - z_c):
        raise MeshError("h too large to resolve the corner")
    rlines, zlines = map(_grid_lines, grid_segments(h, (0.0, rmax, r_c), (zmin, zmax, z_c)))
    rmid = 0.5 * (rlines[:-1] + rlines[1:])
    zmid = 0.5 * (zlines[:-1] + zlines[1:])
    keep = ~((rmid[:, None] > r_c) & (zmid[None, :] < z_c))
    mesh = TriangleMesh(*_structured_arrays(rlines, zlines, keep), h)
    corners = classify_boundary(mesh)
    if len(corners) != 1:
        raise MeshError(f"expected exactly one reentrant corner, found {len(corners)}")
    return mesh, corners[0]


def coarsen(mesh):
    """The mesh of which mesh is the uniform (midpoint) refinement, or None.

    Only structured meshes nest: mesh must be, array for array, the
    triangulation _structured_arrays makes of its own grid lines, with every
    2 x 2 block of grid cells wholly inside or wholly outside the domain.
    Returns (coarse, parents) with coarse on every second grid line and
    parents (nv, 2) holding, per vertex of mesh, the two coarse vertices
    whose midpoint it is (the same vertex twice for a coarse vertex), so
    that P1 interpolation onto mesh averages the two parents.
    """
    rl = unique(mesh.vertices[:, 0])
    zl = unique(mesh.vertices[:, 1])
    if len(rl) < 3 or len(zl) < 3 or len(rl) % 2 == 0 or len(zl) % 2 == 0:
        return None
    ri = np.searchsorted(rl, mesh.vertices[:, 0])
    zi = np.searchsorted(zl, mesh.vertices[:, 1])
    filled = np.zeros((len(rl) - 1, len(zl) - 1), dtype=bool)
    filled[ri[mesh.triangles].min(axis=1), zi[mesh.triangles].min(axis=1)] = True
    blocks = filled.reshape(len(rl) // 2, 2, len(zl) // 2, 2)
    keep = blocks.all(axis=(1, 3))
    if np.any(blocks.any(axis=(1, 3)) & ~keep):
        return None
    verts, tris = _structured_arrays(rl, zl, np.repeat(np.repeat(keep, 2, axis=0), 2, axis=1))
    if not (np.array_equal(verts, mesh.vertices) and np.array_equal(tris, mesh.triangles)):
        return None
    coarse = TriangleMesh(*_structured_arrays(rl[::2], zl[::2], keep), 2.0 * mesh.h)
    grid = -np.ones((len(rl) // 2 + 1, len(zl) // 2 + 1), dtype=np.int64)
    grid[np.searchsorted(rl[::2], coarse.vertices[:, 0]),
         np.searchsorted(zl[::2], coarse.vertices[:, 1])] = np.arange(coarse.num_vertices)
    parents = np.stack([grid[ri // 2, zi // 2], grid[(ri + 1) // 2, (zi + 1) // 2]], axis=1)
    return coarse, parents


# -- classification ----------------------------------------------------------


def classify_boundary(mesh):
    """Detect reentrant corners of a mesh; returns a list of descriptors.

    Each boundary vertex has one leaving and one entering boundary edge, and
    the domain lies on their left: sweeping counterclockwise from the leaving
    edge (the phi0 ray) crosses the domain and reaches the entering edge
    after the interior angle.  Wall vertices with interior angle > pi +
    ANGLE_TOL become corners, in increasing vertex order.  An axis vertex
    never does: the domain lies in r >= 0, so its interior angle is at most
    pi.  A slit tip, where the loop runs back along itself, is a MeshError.
    The mesh is not changed, so the operation is idempotent.
    """
    tail, head = mesh.boundary_edges.T
    d = mesh.vertices[head] - mesh.vertices[tail]
    # per vertex, the angle of its leaving edge and that of its entering edge
    # reversed; both are 0 off the boundary, where theta is then 0
    phi0, back = np.zeros((2, mesh.num_vertices))
    phi0[tail] = np.arctan2(d[:, 1], d[:, 0])
    back[head] = np.arctan2(-d[:, 1], -d[:, 0])
    theta = np.mod(back - phi0, 2.0 * math.pi)
    slit = tail[theta[tail] <= 0.0]
    if len(slit):
        raise MeshError(f"the boundary turns back on itself at vertex {slit.min()}: "
                        "a slit tip (interior angle 2 pi) is not supported")
    reentrant = np.flatnonzero(theta > math.pi + ANGLE_TOL)
    ambiguous = reentrant[theta[reentrant] - math.pi <= 10 * ANGLE_TOL]
    if len(ambiguous):
        raise MeshError(f"ambiguous interior angle at vertex {ambiguous[0]}")
    corners = []
    for v in reentrant.tolist():
        angle = float(theta[v])
        r_c, z_c = map(float, mesh.vertices[v])
        corners.append(CornerDescriptor(corner_vertex=v, position=(r_c, z_c), interior_angle=angle,
                                        alpha=math.pi / angle, phi0=float(phi0[v]), a=r_c))
    return corners


# -- file format --------------------------------------------------------------
#
# axmesh 1
# vertices N          followed by N lines  "r z"
# triangles M         followed by M lines  "i j k"
# boundary B          followed by B lines  "i j tag"     tag in {axis, wall}


def save_mesh(mesh, path):
    with open(path, "w") as fp:
        fp.write("axmesh 1\n")
        fp.write(f"vertices {mesh.num_vertices}\n")
        for r, z in mesh.vertices:
            fp.write("%.17g %.17g\n" % (r, z))
        fp.write(f"triangles {mesh.num_triangles}\n")
        for i, j, k in mesh.triangles:
            fp.write(f"{i} {j} {k}\n")
        fp.write(f"boundary {len(mesh.boundary_edges)}\n")
        for (i, j), tag in zip(np.sort(mesh.boundary_edges, axis=1), mesh.boundary_tags):
            fp.write(f"{i} {j} {_TAG_NAMES[int(tag)]}\n")


def load_mesh(path):
    """Read an axmesh file; malformed content raises MeshError, a file that
    cannot be read OSError."""
    try:
        with open(path) as fp:
            lines = [ln.strip() for ln in fp if ln.strip()]
    except UnicodeDecodeError as exc:
        raise MeshError(f"{path}: not a text file: {exc}") from exc
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise MeshError(f"{path}: truncated mesh file")
        ln = lines[pos]
        pos += 1
        return ln

    header = take().split()
    if header != ["axmesh", "1"]:
        raise MeshError(f"{path}: bad header, expected 'axmesh 1'")

    def block(name, width, conv):
        head = take().split()
        if len(head) != 2 or head[0] != name:
            raise MeshError(f"{path}: expected '{name} N' block header")
        try:
            n = int(head[1])
        except ValueError:
            n = -1
        if n < 0:
            raise MeshError(f"{path}: bad {name} count")
        rows = []
        for _ in range(n):
            parts = take().split()
            if len(parts) != width:
                raise MeshError(f"{path}: malformed {name} line")
            rows.append([conv(p) for p in parts])
        return rows

    try:
        verts = np.array(block("vertices", 2, float), dtype=float).reshape(-1, 2)
        tris = np.array(block("triangles", 3, int), dtype=np.int64).reshape(-1, 3)
        listed = [(int(i), int(j), tag) for i, j, tag in block("boundary", 3, str)]
        p = verts[tris]  # a vertex index past the end raises IndexError
    except MeshError:
        raise
    except (ValueError, OverflowError, IndexError) as exc:
        raise MeshError(f"{path}: {exc}") from exc
    for *_, tag in listed:
        if tag not in _TAG_NAMES.values():
            raise MeshError(f"{path}: unknown boundary tag {tag!r}")
    if pos != len(lines):
        raise MeshError(f"{path}: trailing data after boundary block")
    lengths = [np.hypot(*(p[:, a] - p[:, b]).T) for a, b in ((0, 1), (1, 2), (2, 0))]
    h = float(np.median(np.concatenate(lengths))) if len(tris) else 1.0
    try:
        msh = TriangleMesh(verts, tris, h)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    # the boundary block must list, in any order, the boundary of the triangles
    derived = {(int(i), int(j)): _TAG_NAMES[int(tag)]
               for (i, j), tag in zip(np.sort(msh.boundary_edges, axis=1), msh.boundary_tags)}
    for i, j, tag in listed:
        want = derived.pop((min(i, j), max(i, j)), None)
        if want is None:
            raise MeshError(f"{path}: boundary row {i} {j} repeats or is not an edge of one triangle")
        if tag != want:
            raise MeshError(f"{path}: boundary edge {i} {j} is tagged {tag}, but lies on the {want}: "
                            "axis edges are those with both ends on r = 0")
    if derived:
        i, j = next(iter(derived))
        raise MeshError(f"{path}: boundary block lacks boundary edge {i} {j}")
    return msh
