"""Property tests: malformed input fails with its documented error class, the
CLI maps every error class onto its exit code, and the Fourier analysis
recovers the modes of real trigonometric polynomials."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from axmaxwell import cli_io, mesh, solver
from axmaxwell.cli_io import UsageError, load_config, main
from axmaxwell.linalg import SolverError, solve_hpd
from axmaxwell.mesh import MeshError
from test_linalg import LoggedJacobi, _random_hpd
from test_mesh import _assert_directed_loop, _corner_reference

FUZZ = settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# -- axmesh files ------------------------------------------------------------------

_NUMBER = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "0.5", "1", "-0", "1e999", "nan", "99999999999999999999", "x", ""]),
)
_ROW = st.lists(_NUMBER, min_size=0, max_size=4).map(" ".join)
_BOUNDARY_ROW = st.tuples(_NUMBER, _NUMBER, st.sampled_from(["axis", "wall", "rim", ""])).map(
    " ".join
)


@st.composite
def axmesh_text(draw):
    """Text that follows the axmesh layout closely enough to reach every
    parsing stage, with counts, rows and headers fuzzed."""
    lines = [draw(st.sampled_from(["axmesh 1", "axmesh 2", "axmesh", ""]))]
    for name, row in (("vertices", _ROW), ("triangles", _ROW), ("boundary", _BOUNDARY_ROW)):
        rows = draw(st.lists(row, max_size=6))
        count = draw(st.one_of(st.just(str(len(rows))), _NUMBER))
        lines.append(f"{draw(st.sampled_from([name, name[:-1]]))} {count}")
        lines += rows
    lines += draw(st.lists(st.text(max_size=8), max_size=2))
    return "\n".join(lines)


def _valid_mesh_text():
    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.25)
    lines = ["axmesh 1", f"vertices {msh.num_vertices}"]
    lines += ["%.17g %.17g" % tuple(v) for v in msh.vertices]
    lines.append(f"triangles {msh.num_triangles}")
    lines += ["%d %d %d" % tuple(t) for t in msh.triangles]
    lines.append(f"boundary {len(msh.boundary_edges)}")
    lines += [f"{i} {j} {'axis' if t == mesh.AXIS else 'wall'}"
              for (i, j), t in zip(msh.boundary_edges, msh.boundary_tags)]
    return "\n".join(lines) + "\n"


_VALID_MESH = _valid_mesh_text()


@st.composite
def mutated_mesh_text(draw):
    """A valid mesh file with one line replaced, dropped or duplicated."""
    lines = _VALID_MESH.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
    if action == "replace":
        lines[i] = draw(st.one_of(_ROW, _BOUNDARY_ROW, st.text(max_size=12)))
    elif action == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines)


def _load_or_mesh_error(tmp_path, data):
    path = tmp_path / "fuzz.axmesh"
    path.write_bytes(data)
    try:
        msh = mesh.load_mesh(path)
    except MeshError:
        return
    assert msh.num_triangles > 0


@FUZZ
@given(text=st.one_of(axmesh_text(), mutated_mesh_text()))
def test_fuzzed_mesh_file_raises_only_mesh_error(tmp_path, text):
    _load_or_mesh_error(tmp_path, text.encode("utf-8", "surrogatepass"))


@FUZZ
@given(data=st.binary(max_size=64))
def test_binary_mesh_file_raises_only_mesh_error(tmp_path, data):
    _load_or_mesh_error(tmp_path, data)


# -- derived boundaries ------------------------------------------------------------


@st.composite
def kept_cells(draw):
    """A boolean mask of kept cells on a grid of up to 6 x 6 cells, one kept at least."""
    nr, nz = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.booleans(), min_size=nr * nz, max_size=nr * nz).filter(any))
    return np.array(cells).reshape(nr, nz)


def _once_used_boundary(verts, tris):
    """The boundary the generators used to hand TriangleMesh, with the checks it
    then passed, and one piece without holes: the once-used rows of a row-wise
    unique over the sorted edges, tagged axis when both ends lie on r = 0;
    None for a rejected mesh."""
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    uniq, counts = np.unique(np.sort(edges, axis=1), axis=0, return_counts=True)
    bnd = uniq[counts == 1]
    per_vertex = np.bincount(bnd.ravel(), minlength=len(verts))
    if np.any(counts > 2) or np.any((per_vertex != 0) & (per_vertex != 2)):
        return None
    # one loop: a search along the undirected boundary edges reaches every
    # boundary vertex
    nbrs = {}
    for a, b in bnd.tolist():
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    reached, todo = set(), [int(bnd[0, 0])]
    while todo:
        v = todo.pop()
        if v not in reached:
            reached.add(v)
            todo.extend(nbrs[v])
    if len(reached) != len(nbrs):
        return None
    on_axis = (verts[bnd[:, 0], 0] == 0.0) & (verts[bnd[:, 1], 0] == 0.0)
    return bnd, np.where(on_axis, mesh.AXIS, mesh.WALL)


@FUZZ
@given(keep=kept_cells(), rmin=st.sampled_from([0.0, 0.2]))
def test_derived_boundary_agrees_with_the_once_used_edges(keep, rmin):
    nr, nz = keep.shape
    verts, tris = mesh._structured_arrays(np.linspace(rmin, 1.0, nr + 1),
                                          np.linspace(-1.0, 1.0, nz + 1), keep)
    want = _once_used_boundary(verts, tris)
    try:
        msh = mesh.TriangleMesh(verts, tris, 0.1)
    except MeshError:
        assert want is None
        return
    assert want is not None
    for got, ref in zip((np.sort(msh.boundary_edges, axis=1), msh.boundary_tags), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    _assert_directed_loop(msh)


def _corners_or_error(classify, msh):
    try:
        return classify(msh)
    except MeshError as exc:
        return str(exc)


@FUZZ
@given(keep=kept_cells(), rmin=st.sampled_from([0.0, 0.2]))
def test_corners_agree_with_the_angle_sums(keep, rmin):
    """The same corner vertices, phi0 and errors as the angle-sum
    construction, the interior angle and alpha within one ulp of it."""
    nr, nz = keep.shape
    verts, tris = mesh._structured_arrays(np.linspace(rmin, 1.0, nr + 1),
                                          np.linspace(-1.0, 1.0, nz + 1), keep)
    try:
        msh = mesh.TriangleMesh(verts, tris, 0.1)
    except MeshError:
        return
    got = _corners_or_error(mesh.classify_boundary, msh)
    want = _corners_or_error(_corner_reference, msh)
    if isinstance(want, str):
        assert got == want
        return
    assert [(c.corner_vertex, c.position, c.phi0, c.a) for c in got] == [
        (c.corner_vertex, c.position, c.phi0, c.a) for c in want]
    for c, ref in zip(got, want):
        assert abs(c.interior_angle - ref.interior_angle) <= math.ulp(ref.interior_angle)
        assert abs(c.alpha - ref.alpha) <= math.ulp(ref.alpha)


# -- configuration ---------------------------------------------------------------

_COMMANDS = {"meshgen": [], "singular": ["--k", "1"], "solve": [], "synthesize": [],
             "convergence": []}
_CONFIG_KEYS = sorted({key.replace("_", "-") for command in cli_io.make_parser().commands.values()
                       for key in cli_io._config_keys(command)}) + [
    "space", "azimuths", "threads", "theta-samples", "__class__", "unknown", ""
]
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), _NUMBER).map(" = ".join),
    st.tuples(st.sampled_from(_CONFIG_KEYS), st.text(max_size=8)).map(" = ".join),
    st.text(max_size=16),
)


def _config_or_usage_error(tmp_path, data, command):
    """A config file either gives the command checked settings, each of its
    keys one the command reads, or is a usage error."""
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    try:
        keys = load_config(path)
        args = cli_io.parse_args([command, *_COMMANDS[command], "--config", str(path)])
    except UsageError:
        return
    assert set(keys) <= set(cli_io._config_keys(cli_io.make_parser().commands[command]))
    assert 0.0 < getattr(args, "tol", 0.5) < 1.0 and getattr(args, "modes", 0) >= 0


@FUZZ
@given(lines=st.lists(_CONFIG_LINE, max_size=6), command=st.sampled_from(sorted(_COMMANDS)))
def test_fuzzed_config_raises_only_usage_error(tmp_path, lines, command):
    _config_or_usage_error(tmp_path, "\n".join(lines).encode("utf-8", "surrogatepass"), command)


@FUZZ
@given(data=st.binary(max_size=64), command=st.sampled_from(sorted(_COMMANDS)))
def test_binary_config_raises_only_usage_error(tmp_path, data, command):
    _config_or_usage_error(tmp_path, data, command)


# -- file: tables -------------------------------------------------------------------

_TABLE_MESH = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
_TABLE_LINE = st.one_of(
    st.lists(_NUMBER, min_size=0, max_size=7).map(",".join),
    st.sampled_from(["r,z,f_r,f_theta,f_z", " r, z, f_r, f_theta, f_z ", "r,z,f_r"]),
    st.text(max_size=16),
)


def _table_or_usage_error(tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    try:
        f = cli_io.resolve_rhs(f"file:{path}", _TABLE_MESH)
    except UsageError:
        return
    assert callable(f)


@FUZZ
@given(lines=st.lists(_TABLE_LINE, max_size=6))
def test_fuzzed_table_raises_only_usage_error(tmp_path, lines):
    _table_or_usage_error(tmp_path, "\n".join(lines).encode("utf-8", "surrogatepass"))


@FUZZ
@given(data=st.binary(max_size=64))
def test_binary_table_raises_only_usage_error(tmp_path, data):
    _table_or_usage_error(tmp_path, data)


# -- exit codes --------------------------------------------------------------------

_EXIT = {
    UsageError: (1, "error: usage:"),
    MeshError: (1, "error: invalid-input:"),
    ValueError: (1, "error: invalid-input:"),
    UnicodeError: (1, "error: invalid-input:"),
    SolverError: (2, "error: numerical:"),
    ArithmeticError: (2, "error: numerical:"),
    ZeroDivisionError: (2, "error: numerical:"),
    FloatingPointError: (2, "error: numerical:"),
    OverflowError: (2, "error: numerical:"),
    OSError: (3, "error: io:"),
    FileNotFoundError: (3, "error: io:"),
    PermissionError: (3, "error: io:"),
    IsADirectoryError: (3, "error: io:"),
}


@FUZZ
@given(error=st.sampled_from(sorted(_EXIT, key=lambda c: c.__name__)), message=st.text(max_size=20))
def test_exit_code_matches_error_class(monkeypatch, capsys, error, message):
    """1 for usage and invalid input, 2 for numerical failures, 3 for I/O,
    with one stderr line naming the class."""

    def fail(*args):
        raise error(message)

    monkeypatch.setattr(cli_io, "cmd_meshgen", fail)
    capsys.readouterr()
    code, prefix = _EXIT[error]
    assert main(["meshgen", "--h", "0.5"]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == message.count("\n") + 1


@pytest.mark.parametrize("content, code", [
    (b"h = x\n", 1),
    (b"modes = 1.5\n", 1),
    (b"space = X\n", 1),
    (b"\xff\xfe = 1\n", 1),
    (b"mesh-file = does-not-exist.axmesh\n", 3),
])
def test_config_errors_reach_their_exit_code(tmp_path, capsys, content, code):
    """Run on solve, which reads h, modes and mesh_file: each of those cases
    fails on its value, not on its key."""
    path = tmp_path / "run.cfg"
    path.write_bytes(content)
    rc = main(["solve", "--config", str(path), "--outdir", str(tmp_path)])
    assert rc == code
    assert capsys.readouterr().err.startswith("error: io:" if code == 3 else "error: usage:")


# -- Fourier analysis --------------------------------------------------------------


@st.composite
def real_trig_polynomial(draw):
    """(N, M, coefficients): modes 0..N of two real components, shape
    (N+1, 2) complex with mode 0 real, and a sample count M >= 4N + 1."""
    N = draw(st.integers(0, 8))
    M = draw(st.integers(4 * N + 1, 4 * N + 12))
    part = st.integers(-2**20, 2**20).map(lambda i: i / 2**20)
    flat = draw(st.lists(part, min_size=4 * (N + 1), max_size=4 * (N + 1)))
    parts = np.array(flat).reshape(2, N + 1, 2)
    coeffs = parts[0] + 1j * parts[1]
    coeffs[0] = coeffs[0].real
    return N, M, coeffs


@FUZZ
@given(case=real_trig_polynomial())
def test_analysis_recovers_real_trig_polynomial(case):
    N, M, coeffs = case
    theta = np.arange(M) * (2.0 * math.pi / M)
    # real field: mode -k is the conjugate of mode k
    waves = np.exp(1j * np.outer(theta, np.arange(1, N + 1)))
    samples = (coeffs[0].real + 2.0 * (waves @ coeffs[1:]).real) / math.sqrt(2.0 * math.pi)
    modes = solver.analyze_samples(samples, N)
    scale = np.abs(coeffs).max()
    for k in range(N + 1):
        assert np.abs(modes[k] - coeffs[k]).max() <= 1e-12 * scale


# -- CG down to underflow ------------------------------------------------------------


@FUZZ
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), exponent=st.floats(-300.0, -1.0))
def test_cg_below_round_off_fails_on_a_finite_residual(n, seed, exponent):
    """Down to tol = 1e-300, CG on an HPD matrix converges with its true
    residual at most tol, or raises SolverError with a finite residual, and
    warns of nothing.  A residual or rho that has underflowed to 0 ends the
    solve: no step and no restart follows it, and a round-off message gives
    the last nonzero recursive residual."""
    tol = 10.0 ** exponent
    rng = np.random.default_rng(seed)
    A, dense = _random_hpd(n, rng)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    jacobi = LoggedJacobi()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            x, info = solve_hpd(A, b, tol=tol, hierarchy=jacobi)
            iterations = info.iterations
        except SolverError as err:
            assert math.isfinite(err.residual) and err.residual > tol
            round_off = re.search(r"stopped at round-off \((\S+)\)", str(err))
            assert round_off is None or 0.0 < float(round_off.group(1)) < math.inf
            iterations = err.iterations
        else:
            assert info.residual <= tol
            assert np.linalg.norm(b - dense @ x) <= (info.residual + 1e-14) * np.linalg.norm(b)
    assert len(jacobi.residuals) - iterations in (1, 2)  # passes
    inv_diag = 1.0 / A.diagonal().real
    underflowed = [np.linalg.norm(r) == 0.0 or np.vdot(r, inv_diag * r).real == 0.0
                   for r in jacobi.residuals]
    assert not any(underflowed[:-1])


@FUZZ
@given(exponent=st.floats(150.0, 300.0))
def test_cg_scales_a_right_hand_side_whose_norm_overflows(exponent):
    """s b for s in [1e150, 1e300], on the 10x10 _random_hpd matrix (seed
    0): the squares of ||s b|| and of its residuals would overflow, so CG
    solves 2^-e s b, its largest real or imaginary part in [0.5, 1), and
    returns that solution times 2^e, bit for bit and without a warning.
    Each scale converges to s times the solution of b."""
    s = 10.0 ** exponent
    rng = np.random.default_rng(0)
    A, _ = _random_hpd(10, rng)
    b = rng.normal(size=10) + 1j * rng.normal(size=10)
    x1, _ = solve_hpd(A, b, tol=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, info = solve_hpd(A, s * b, tol=1e-10)
    e = np.frexp(np.abs((s * b).view(float)).max())[1]
    ref_x, ref_info = solve_hpd(A, np.ldexp((s * b).view(float), -e).view(complex), tol=1e-10)
    assert info == ref_info and 0.0 < info.residual <= 1e-10
    assert x.tobytes() == np.ldexp(ref_x.view(float), e).tobytes()
    assert np.abs(x / s - x1).max() <= 1e-8 * np.abs(x1).max()
