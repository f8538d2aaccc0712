import hashlib
import itertools
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from axmaxwell import cli_io, linalg, manufactured, mesh, modal_ops, singular, solver
from axmaxwell.cli_io import main, write_csv, write_vtk
from axmaxwell.femcore import SPACE_Y, MeshQuadrature
from test_solver import _chunked_norm_sq


def read_csv(path):
    """Header and rows of a CSV output, blank lines skipped."""
    with open(path) as fp:
        lines = [ln.rstrip("\n") for ln in fp if ln.strip()]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_meshgen_writes_loadable_mesh(tmp_path, capsys):
    rc = main([
        "meshgen", "--domain", "lshape", "--h", "0.1",
        "--outdir", str(tmp_path), "--out", "m.txt",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha 0.666666666667" in out
    m = mesh.load_mesh(tmp_path / "m.txt")
    assert m.num_vertices == 96


@pytest.mark.parametrize("argv, digest", [
    (["--h", "0.05"], "93ed9bc9a60237e2bbda558a4c72c1d848349255ea795cb7e2de24f6af5801b3"),
    (["--domain", "rectangle", "--h", "0.1"],
     "0a4ff63c4c15fba8af3e2526bd2e5ddc51fab0dc08b6489db0304c6361c81ac5"),
], ids=["lshape", "rectangle"])
def test_meshgen_file_bytes_are_pinned(tmp_path, argv, digest):
    """The SHA-256 of the mesh files meshgen writes, boundary block included."""
    assert main(["meshgen", *argv, "--outdir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "mesh.txt").read_bytes()).hexdigest() == digest


def test_singular_subcommand(tmp_path):
    rc = main([
        "singular", "--domain", "lshape", "--h", "0.2", "--k", "1",
        "--field", "magnetic", "--outdir", str(tmp_path), "--out", "b",
    ])
    assert rc == 0
    text = (tmp_path / "b.vtk").read_text()
    assert "POINTS 21 double" in text
    assert "basis_total_r_re" in text
    assert "CELL_DATA" in text
    header, rows = read_csv(tmp_path / "b_diag.csv")
    assert header[0] == "k"
    assert len(rows) == 1


def test_solve_outputs_and_determinism(tmp_path):
    args = [
        "solve", "--domain", "lshape", "--h", "0.2", "--field", "magnetic",
        "--rhs", "bandlimited", "--modes", "3",
    ]
    rc = main(args + ["--outdir", str(tmp_path / "a")])
    assert rc == 0
    rc = main(args + ["--outdir", str(tmp_path / "b")])
    assert rc == 0
    sa = (tmp_path / "a" / "summary.csv").read_bytes()
    sb = (tmp_path / "b" / "summary.csv").read_bytes()
    assert sa == sb
    assert (tmp_path / "a" / "mode_p3.vtk").exists()
    assert (tmp_path / "a" / "mode_m3.vtk").exists()


def _vtk_arrays(path):
    """Geometry lines and {name: values} of the scalar arrays of a legacy VTK file."""
    lines = path.read_text().splitlines()
    start = lines.index(next(ln for ln in lines if ln.startswith("POINT_DATA")))
    arrays, name = {}, None
    for ln in lines[start + 1:]:
        if ln.startswith("SCALARS"):
            name = ln.split()[1]
            arrays[name] = []
        elif ln != "LOOKUP_TABLE default":
            arrays[name].append(float(ln))
    return lines[2:start], {n: np.array(v) for n, v in arrays.items()}


def test_negative_mode_files_are_exact_conjugates(tmp_path):
    """mode_m<k>.vtk holds the conjugate of mode_p<k>.vtk bit for bit, the
    sign of zero included; summary.csv lists C_-k = conj(C_k) with mode k's
    iterations, residual and basis energy."""
    N = 3
    rc = main([
        "solve", "--h", "0.1", "--field", "magnetic", "--modes", str(N),
        "--outdir", str(tmp_path),
    ])
    assert rc == 0
    for k in range(1, N + 1):
        geo_p, arr_p = _vtk_arrays(tmp_path / f"mode_p{k}.vtk")
        geo_m, arr_m = _vtk_arrays(tmp_path / f"mode_m{k}.vtk")
        assert geo_m == geo_p and list(arr_m) == list(arr_p)
        assert any(name.endswith("_im") for name in arr_p)
        for name, vals in arr_p.items():
            want = -vals if name.endswith("_im") else vals
            assert arr_m[name].tobytes() == want.tobytes(), (k, name)
    header, rows = read_csv(tmp_path / "summary.csv")
    by_k = {int(row[0]): row for row in rows}
    assert sorted(by_k) == list(range(-N, N + 1))
    for k in range(1, N + 1):
        assert complex(by_k[-k][1]) == complex(by_k[k][1]).conjugate()
        assert by_k[-k][2:] == by_k[k][2:]


def _bits(c):
    return struct.pack("<dd", c.real, c.imag)


@pytest.mark.parametrize("domain, modes", [("rectangle", 2), ("lshape", 4)])
def test_summary_lists_conjugate_coefficient_bits(tmp_path, domain, modes):
    """C_-k is conj(C_k) bit for bit, the sign of a zero imaginary part
    included: on the rectangle, where no basis exists and every C_k is 0j,
    and on the L-shape, whose mode 4 is round-off of the bandlimited data
    and is not solved (C_4 = 0j)."""
    rc = main([
        "solve", "--domain", domain, "--h", "0.1", "--modes", str(modes),
        "--rhs", "bandlimited", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "summary.csv")
    by_k = {int(row[0]): dict(zip(header, row)) for row in rows}
    for k in range(1, modes + 1):
        c = complex(by_k[k]["C_k"])
        assert _bits(complex(by_k[-k]["C_k"])) == _bits(c.conjugate()), k
    if domain == "rectangle":
        assert all(by_k[k]["C_k"] == "0+0j" for k in range(modes + 1))
    else:
        assert int(by_k[4]["iterations"]) == 0 and by_k[4]["C_k"] == "0+0j"
        assert by_k[-4]["C_k"] == "0-0j"


def test_round_off_modes_keep_every_residual_within_tol(tmp_path):
    """With modes 4..6 round-off of the bandlimited data, every summary.csv
    residual is at most tol."""
    tol = 1e-10
    args = [
        "solve", "--domain", "lshape", "--h", "0.1", "--modes", "6",
        "--rhs", "bandlimited", "--tol", repr(tol),
    ]
    assert main(args + ["--outdir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "summary.csv")
    by_k = {int(row[0]): dict(zip(header, row)) for row in rows}
    assert all(float(row["residual"]) <= tol for row in by_k.values())
    assert [int(by_k[k]["iterations"]) == 0 for k in range(7)] == [False] * 4 + [True] * 3


def test_bordered_modes_report_cg_diagnostics(tmp_path):
    tol = 1e-10
    rc = main([
        "solve", "--domain", "lshape", "--h", "0.2", "--field", "magnetic",
        "--rhs", "bandlimited", "--modes", "3", "--tol", repr(tol),
        "--outdir", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "summary.csv")
    by_k = {int(row[0]): dict(zip(header, row)) for row in rows}
    for k in (3, -3):
        assert int(by_k[k]["iterations"]) > 0
        assert 0.0 < float(by_k[k]["residual"]) <= tol


def test_bordered_modes_report_the_basis_energy(tmp_path, lshape, lshape_quad):
    """The basis_energy of a solved |k| > 2 row is alpha = a_k(s, s) of the
    reused mode-2 basis s, the last diagonal entry of the bordered matrix;
    with --modes 4, mode 4 is round-off and skipped whole, and its rows
    read 0."""
    msh, _ = lshape
    system2 = modal_ops.assemble_a_k(msh, 2, SPACE_Y, quad=lshape_quad)
    basis2 = singular.compute_basis(system2)
    system3 = system2.shifted(3)
    alpha = _chunked_norm_sq(system3.ws, basis2.op_arrays(system3.ws, 3))
    for modes in (3, 4):
        out = tmp_path / str(modes)
        assert main(["solve", "--h", "0.1", "--modes", str(modes), "--outdir", str(out)]) == 0
        header, rows = read_csv(out / "summary.csv")
        by_k = {int(row[0]): dict(zip(header, row)) for row in rows}
        assert header[-1] == "basis_energy"
        for k in (3, -3):
            assert int(by_k[k]["iterations"]) > 0
            assert float(by_k[k]["basis_energy"]) == alpha
    for k in (4, -4):
        assert int(by_k[k]["iterations"]) == 0 and float(by_k[k]["basis_energy"]) == 0.0


def test_singular_and_solve_report_one_basis_energy(tmp_path, lshape, lshape_quad):
    """singular's diag energy and curl_norm_sq are the weighted sums of the
    basis operators at its mode, summed chunk by chunk, and the energy is
    the basis_energy that solve reports for modes +-1 on the same mesh and
    field."""
    rc = main([
        "singular", "--h", "0.1", "--k", "1", "--outdir", str(tmp_path), "--out", "b",
    ])
    assert rc == 0
    rc = main(["solve", "--h", "0.1", "--modes", "2", "--outdir", str(tmp_path / "s")])
    assert rc == 0
    header, rows = read_csv(tmp_path / "b_diag.csv")
    diag = dict(zip(header, rows[0]))
    msh, _ = lshape
    system = modal_ops.assemble_a_k(msh, 1, SPACE_Y, quad=lshape_quad)
    basis = singular.compute_basis(system)
    bop = basis.op_arrays(system.ws, 1)
    assert float(diag["energy"]) == _chunked_norm_sq(system.ws, bop)
    assert float(diag["curl_norm_sq"]) == _chunked_norm_sq(system.ws, bop[:, :3])
    assert 0.0 < float(diag["curl_norm_sq"]) < float(diag["energy"])
    header, rows = read_csv(tmp_path / "s" / "summary.csv")
    by_k = {int(row[0]): dict(zip(header, row)) for row in rows}
    for k in (1, -1):
        assert float(by_k[k]["basis_energy"]) == float(diag["energy"])


@pytest.mark.parametrize("levels", ["1", "0", "-1"])
def test_convergence_needs_two_levels(tmp_path, capsys, levels):
    rc = main([
        "convergence", "--field", "magnetic", "--levels", levels, "--k", "0",
        "--outdir", str(tmp_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and "levels" in err
    assert "\n" not in err.strip()
    assert not (tmp_path / "convergence.csv").exists()


def test_synthesize_writes_wedges(tmp_path):
    rc = main([
        "synthesize", "--domain", "rectangle", "--h", "0.25", "--field", "magnetic",
        "--rhs", "cos_theta_ez", "--modes", "1", "--theta-samples", "8",
        "--outdir", str(tmp_path),
    ])
    assert rc == 0
    text = (tmp_path / "field3d.vtk").read_text()
    assert "CELL_TYPES" in text and "13" in text


def test_convergence_csv(tmp_path):
    rc = main([
        "convergence", "--field", "magnetic", "--levels", "2", "--k", "0",
        "--outdir", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "convergence.csv")
    assert header == ["k", "h", "l2_error", "energy_error", "l2_rate", "energy_rate"]
    assert float(rows[0][4]) >= 1.8


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain = lshape\nh = 0.2\nfield = magnetic\nmodes = 1\n")
    rc = main([
        "solve", "--config", str(cfg), "--modes", "2",
        "--rhs", "uniform_ez", "--outdir", str(tmp_path / "out"),
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "out" / "summary.csv")
    assert len(rows) == 5  # modes overridden to 2 -> k in [-2, 2]


def test_unknown_flag_fails_with_usage_code(capsys):
    assert main(["solve", "--no-such-flag"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("option, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "1"),
    ("--modes", "-1"), ("--h", "nan"), ("--threads", "0"), ("--threads", "-2"),
    ("--threads", "2"),
])
def test_bad_number_is_usage_error(tmp_path, capsys, option, value):
    rc = main([
        "solve", "--domain", "lshape", "--h", "0.2", "--modes", "2",
        option, value, "--outdir", str(tmp_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and option[2:] in err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["--threads", "2"], "threads"),
    (["--threads", "0"], "threads"),
    (["--threads", "-2"], "threads"),
    (["--threads", "1.5"], "threads"),
    (["--config", "run.cfg"], "unknown config key 'threads'"),
], ids=["2", "0", "-2", "1.5", "config"])
def test_bad_thread_count_is_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    """--threads accepts only 1, kept for existing command lines, and the
    config file has no threads key: anything else fails before any work."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("threads = 1\n")
    outdir = tmp_path / "out"
    rc = main([
        "solve", "--domain", "lshape", "--h", "0.2", "--modes", "2", "--outdir", str(outdir),
    ] + argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and message in err and "\n" not in err.strip()
    assert not outdir.exists()


@pytest.mark.parametrize("config, command, named", [
    ("field = foo\n", ["solve", "--h", "0.2"], "field"),
    ("domain = foo\n", ["solve", "--h", "0.2"], "domain"),
    ("", ["solve", "--h", "0.2", "--rhs", "nope"], "rhs"),
    ("", ["singular", "--h", "0.2", "--k", "5"], "--k"),
    ("", ["synthesize", "--h", "0.2", "--theta-samples", "2"], "theta-samples"),
    ("levels = 1\n", ["convergence"], "levels"),
    ("", ["solve", "--h", "0.2", "--modes", "1", "--theta-samples", "2"], "theta-samples"),
    ("", ["solve", "--h", "0.2", "--field", "foo"], "field"),
    ("", ["solve", "--h", "0.2", "--threads", "0"], "threads"),
    ("", ["solve", "--h", "0.2", "--threads", "2"], "threads"),
], ids=["config-field", "config-domain", "rhs", "singular-k", "azimuths", "config-levels",
        "theta-samples", "field", "threads", "threads-2"])
def test_bad_option_fails_before_outdir_exists(tmp_path, capsys, config, command, named):
    """Every option value, from a flag or from the config file, is checked
    before --outdir is created: a bad one exits 1 with one usage line that
    names it and leaves no directory behind.  Each command gets only flags
    it reads, so the bad value is the only fault."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    outdir = tmp_path / "out"
    rc = main(command + ["--config", str(cfg), "--outdir", str(outdir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and "\n" not in err.strip() and named in err
    assert not outdir.exists()


@pytest.mark.parametrize("config, command, named", [
    ("", ["convergence", "--h", "0.2"], "--h"),
    ("", ["convergence", "--mesh-file", "{mesh}"], "--mesh-file"),
    ("", ["meshgen", "--field", "electric"], "--field"),
    ("", ["solve", "--h", "0.25", "--mode", "1"], "--mode"),
    ("modes = 2\n", ["meshgen"], "'modes' for meshgen"),
    ("k = 3\n", ["solve"], "'k' for solve"),
    ("theta_samples = 13\n", ["synthesize", "--modes", "3"], "'theta_samples' for synthesize"),
    ("k = 1\n", ["singular", "--k", "1"], "'k' for singular"),
    ("", ["meshgen", "--domain", "rectangle", "--corner-r", "0.3"], "--corner-r"),
    ("", ["meshgen", "--mesh-file", "{mesh}", "--h", "0.2"], "--h"),
    ("", ["meshgen", "--mesh-file", "{mesh}", "--domain", "rectangle"], "--domain"),
], ids=["convergence-h", "convergence-mesh-file", "meshgen-field", "abbreviation",
        "meshgen-modes", "solve-k", "synthesize-theta-samples", "singular-k",
        "rectangle-corner", "mesh-file-h", "mesh-file-domain"])
def test_setting_the_command_does_not_read_is_usage_error(tmp_path, capsys, config, command,
                                                          named):
    """A flag the command does not declare (an abbreviation included), a
    config key it does not read and a mesh setting its mesh source does not
    read exit 1 with one usage line naming it, before --outdir exists."""
    mesh.save_mesh(mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.5), tmp_path / "m.txt")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    outdir = tmp_path / "out"
    argv = [a.format(mesh=tmp_path / "m.txt") for a in command]
    rc = main(argv + ["--config", str(cfg), "--outdir", str(outdir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and "\n" not in err.strip() and named in err
    assert not outdir.exists()


def test_lshape_takes_rmin_at_its_default(tmp_path):
    """--rmin is not read by the L-shape, which starts on the axis; its
    declared default 0 is accepted."""
    assert main(["meshgen", "--domain", "lshape", "--rmin", "0", "--h", "0.5",
                 "--outdir", str(tmp_path)]) == 0


def test_missing_config_file_is_io_error(tmp_path, capsys):
    """A config file that cannot be opened exits 3, like a mesh file or a
    table, before --outdir exists."""
    outdir = tmp_path / "out"
    rc = main(["solve", "--config", str(tmp_path / "none.cfg"), "--outdir", str(outdir)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: io:") and "none.cfg" in err and "\n" not in err.strip()
    assert not outdir.exists()


@pytest.mark.parametrize("command", [
    ["solve", "--h", "0"],
    ["singular", "--domain", "rectangle", "--h", "0.25", "--k", "0"],
    ["solve", "--h", "0.5", "--rhs", "file:{table}"],
    ["solve", "--mesh-file", "{slanted}"],
    ["singular", "--mesh-file", "{slanted}", "--k", "0"],
], ids=["mesh-size", "no-corner", "short-table", "slanted-wall", "slanted-wall-singular"])
def test_bad_input_fails_before_outdir_exists(tmp_path, capsys, command):
    """The mesh, the corner a singular basis needs and a --rhs table are
    read before --outdir is created: a bad one exits 1 with one error line
    and leaves no directory behind.  A mesh file's wall edges must be
    axis-aligned: this L-shape, its reentrant corner at (0.5, 0.5), has a
    slanted wall edge from (1, 0.5) to (1.2, 1)."""
    table = tmp_path / "rhs.csv"
    table.write_text("r,z,f_r,f_theta,f_z\n0,0,0,0,1\n")
    slanted = tmp_path / "slanted.axmesh"
    verts = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [1.0, 0.5], [1.2, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 5], [2, 3, 4], [2, 4, 5]])
    mesh.save_mesh(mesh.TriangleMesh(verts, tris, 0.5), slanted)
    outdir = tmp_path / "out"
    argv = [a.format(table=table, slanted=slanted) for a in command]
    rc = main(argv + ["--outdir", str(outdir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "\n" not in err.strip()
    if "{slanted}" in command:
        assert err == f"error: invalid-input: {slanted}: wall edge 3 -> 4 is not axis-aligned\n"
    assert not outdir.exists()


_MESH_STEPS = ((mesh, "_grid_lines"), (mesh, "_structured_arrays"))
_RUN_STEPS = ((solver, "solve_axisymmetric"), (manufactured, "convergence_study"))


@pytest.mark.parametrize("command, cls, blocked", [
    (["solve", "--domain", "rectangle", "--h", "1e-9", "--modes", "0"], "invalid-input",
     _MESH_STEPS + _RUN_STEPS),
    (["solve", "--domain", "rectangle", "--h", "0.1", "--rmax", "1e300"], "invalid-input",
     _MESH_STEPS + _RUN_STEPS),
    (["solve", "--domain", "rectangle", "--h", "1e-10", "--rmax", "1e308"], "invalid-input",
     _MESH_STEPS + _RUN_STEPS),
    (["solve", "--h", "0.1", "--modes", "100000000"], "usage", _RUN_STEPS),
    (["solve", "--h", "0.1", "--modes", "2", "--theta-samples", "100000000"], "usage",
     _RUN_STEPS),
    (["synthesize", "--h", "0.1", "--modes", "1", "--theta-samples", "100000000"], "usage",
     _RUN_STEPS),
    (["convergence", "--levels", "40"], "usage", _MESH_STEPS + _RUN_STEPS),
    (["convergence", "--levels", "1" + "0" * 400], "usage", _MESH_STEPS + _RUN_STEPS),
], ids=["rect-h", "rect-rmax", "rect-overflow", "modes", "analysis-samples", "azimuths",
        "levels", "levels-huge"])
def test_oversized_run_fails_before_outdir_exists(tmp_path, capsys, monkeypatch, command, cls,
                                                  blocked):
    """A mesh, analysis, synthesis or convergence ladder larger than
    mesh.MAX_ENTRIES allows exits 1 with one error line, leaves no
    directory behind and allocates next to nothing.  Each step that would
    allocate by the options fails when reached, so a size check that does
    not fire fails the test instead of exhausting memory."""
    def reached(*args, **kwargs):
        raise AssertionError("an allocating step was reached")

    for module, name in blocked:
        monkeypatch.setattr(module, name, reached)
    outdir = tmp_path / "out"
    tracemalloc.start()
    try:
        rc = main(command + ["--outdir", str(outdir)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cls}:") and "\n" not in err.strip()
    assert not outdir.exists()
    assert peak < 10e6


def test_largest_run_under_the_limit_passes_the_size_check(monkeypatch):
    """The analysis sizes are compared with MAX_ENTRIES as they are: the
    per-mode arrays (N + 1) x 3Q with Q the quadrature's point count,
    (N + 1) x M, and T x max(3 nv, 6 nt) for a synthesis."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.1)
    limit = 4 * 3 * len(MeshQuadrature(msh, corner).w)  # N = 3

    def synthesize(azimuths):  # M = 13
        return cli_io.parse_args(["synthesize", "--modes", "3", "--theta-samples", str(azimuths)])

    solve = cli_io.parse_args(["solve", "--modes", "3"])  # M = 13
    monkeypatch.setattr(mesh, "MAX_ENTRIES", limit)
    cli_io._check_sizes(solve, msh, corner)
    cli_io._check_sizes(synthesize(limit // (6 * msh.num_triangles)), msh, corner)
    with pytest.raises(cli_io.UsageError, match="synthesis"):
        cli_io._check_sizes(synthesize(limit // (6 * msh.num_triangles) + 1), msh, corner)
    monkeypatch.setattr(mesh, "MAX_ENTRIES", limit - 1)
    with pytest.raises(cli_io.UsageError,
                       match=r"per-mode analysis arrays \(N \+ 1\) x 3Q = 16632 entries"):
        cli_io._check_sizes(solve, msh, corner)


def test_fine_many_mode_run_passes_the_size_check():
    """solve --h 0.0125 --modes 24 keeps 25 x 3 x 67,536 = 5,065,200 entries
    of per-mode arrays, far below MAX_ENTRIES; a bound of 28 points per
    triangle counted 26,073,600."""
    args = cli_io.parse_args(["solve", "--h", "0.0125", "--modes", "24"])
    msh, corner = cli_io.build_mesh(args)
    assert len(MeshQuadrature(msh, corner).w) == 67_536
    cli_io._check_sizes(args, msh, corner)


def test_many_theta_samples_pass_the_size_check():
    """The analysis calls the data on blocks of points, so no M x Q array
    exists: solve --h 0.0125 --modes 24 --theta-samples 400 passes the check
    on its 5,065,200 per-mode entries, where M x Q is 27,014,400."""
    args = cli_io.parse_args(["solve", "--h", "0.0125", "--modes", "24", "--theta-samples", "400"])
    cli_io._check_sizes(args, *cli_io.build_mesh(args))


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 215. GiB for an array"),
     "Unable to allocate 215. GiB for an array"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_is_one_line(tmp_path, capsys, monkeypatch, exc, message):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(solver, "solve_axisymmetric", exhausted)
    rc = main(["solve", "--h", "0.2", "--modes", "1", "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: memory: {message}\n"


def test_unknown_rhs_fails(tmp_path):
    rc = main([
        "solve", "--domain", "rectangle", "--h", "0.5", "--rhs", "nope",
        "--outdir", str(tmp_path),
    ])
    assert rc == 1


def test_missing_corner_is_usage_error(tmp_path):
    rc = main([
        "singular", "--domain", "rectangle", "--h", "0.25", "--k", "0",
        "--field", "electric", "--outdir", str(tmp_path),
    ])
    assert rc == 1


def test_rmin_on_lshape_is_usage_error(tmp_path, capsys):
    """The L-shape starts on the axis: an rmin other than 0 is a usage
    error raised before the output directory exists."""
    outdir = tmp_path / "out"
    rc = main(["solve", "--domain", "lshape", "--rmin", "0.3", "--h", "0.2",
               "--outdir", str(outdir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and "rmin" in err
    assert not outdir.exists()


@pytest.mark.parametrize("k", ["3", "-5"])
def test_singular_high_mode_is_usage_error(tmp_path, capsys, k):
    """The bases of |k| > 2 are those of mode +-2: asking for one is a
    usage error naming --k."""
    rc = main([
        "singular", "--domain", "lshape", "--h", "0.2", "--k", k,
        "--outdir", str(tmp_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and "--k" in err
    assert "\n" not in err.strip()


def test_io_failure_exit_code(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    rc = main([
        "meshgen", "--domain", "rectangle", "--h", "0.5",
        "--outdir", str(tmp_path / "file" / "deep"),
    ])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: io:")


@pytest.mark.parametrize("command", [
    ["meshgen", "--domain", "rectangle", "--h", "0.5"],
    ["singular", "--h", "0.2", "--k", "1"],
])
def test_new_nested_outdir_is_created(tmp_path, command):
    outdir = tmp_path / "new" / "deep"
    assert main(command + ["--outdir", str(outdir)]) == 0
    assert any(outdir.iterdir())


def test_unusable_outdir_fails_before_the_solve(tmp_path, capsys, monkeypatch):
    """An outdir that cannot be created is an I/O failure (exit 3) before
    any work, not after the whole solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_axisymmetric was called")

    monkeypatch.setattr(solver, "solve_axisymmetric", no_solve)
    (tmp_path / "file").write_text("")
    for command in ("solve", "synthesize"):
        rc = main([command, "--h", "0.2", "--modes", "1",
                   "--outdir", str(tmp_path / "file" / "sub")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: io:")


def test_help_documents_flags(capsys):
    for cmd in ("meshgen", "singular", "solve", "synthesize", "convergence"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--outdir" in out or cmd == "verify"


_README = Path(__file__).resolve().parents[1] / "README.md"
_TABLE_HEADER = "| flag | meshgen | singular | solve | synthesize | convergence | meaning |"


def _readme_flags():
    """{command: {flag: default cell}} of the README flag table; an empty
    cell is a flag the command does not declare."""
    lines = _README.read_text().splitlines()
    start = lines.index(_TABLE_HEADER)
    commands = [c.strip() for c in _TABLE_HEADER.strip("|").split("|")][1:-1]
    table = {command: {} for command in commands}
    for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start + 2:]):
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        for command, cell in zip(commands, cells[1:-1]):
            if cell:
                table[command][cells[0]] = cell
    return table


def test_readme_lists_the_flags_of_every_command(capsys):
    """The README flag table holds, per command, exactly the flags of its
    --help and each flag's declared default ("unset" for none)."""
    table = _readme_flags()
    parsers = cli_io.make_parser().commands
    assert sorted(table) == sorted(set(parsers) - {"verify"})
    for command, flags in table.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = re.findall(r"^ +(?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
        assert sorted(flags) == sorted(set(listed) - {"--help"}), command
        for action in parsers[command]._actions:
            if action.dest != "help":
                want = ("required" if action.required else
                        "unset" if action.default is None else str(action.default))
                assert flags[action.option_strings[0]] == want, (command, action.dest)


def test_csv_round_trip(tmp_path):
    rows = [[1, 0.1 + 0.2j, 1.0 / 3.0], [2, -0.5j, 2.0 / 7.0]]
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "c", "x"], rows)
    header, back = read_csv(path)
    assert header == ["k", "c", "x"]
    for row, orig in zip(back, rows):
        assert complex(row[1]) == orig[1]
        assert float(row[2]) == orig[2]  # %.17g round-trips doubles exactly


def test_vtk_geometry_only(tmp_path, rect):
    path = tmp_path / "geo.vtk"
    write_vtk(rect, {}, path)
    lines = path.read_text().splitlines()
    nv, nt = rect.num_vertices, rect.num_triangles
    assert lines[4] == f"POINTS {nv} double"
    assert lines[5 + nv] == f"CELLS {nt} {4 * nt}"
    assert lines[6 + nv + nt] == f"CELL_TYPES {nt}"
    assert lines[7 + nv + nt:] == ["5"] * nt
    points = np.array([[float(v) for v in ln.split()] for ln in lines[5:5 + nv]])
    assert np.array_equal(points, np.column_stack([rect.vertices, np.zeros(nv)]))
    cells = np.array([[int(v) for v in ln.split()] for ln in lines[6 + nv:6 + nv + nt]])
    assert np.array_equal(cells, np.column_stack([np.full(nt, 3), rect.triangles]))


def _vtk_per_row(points, cells, cell_type, point_fields, cell_fields, title):
    """The legacy VTK text of points (n, 3) and cells (m, c) of one cell type,
    formatted one value or row at a time: %.17g for floats, %d for ints; a
    data section is written only when it has fields."""
    n, m = len(points), len(cells)
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {n} double"]
    lines += ["%.17g %.17g %.17g" % (x, y, z) for x, y, z in points]
    lines.append(f"CELLS {m} {m * (1 + cells.shape[1])}")
    lines += [" ".join("%d" % i for i in (len(cell), *cell)) for cell in cells]
    lines.append(f"CELL_TYPES {m}")
    lines += [str(cell_type)] * m
    for section, count, field_map in (("POINT_DATA", n, point_fields),
                                      ("CELL_DATA", m, cell_fields)):
        if not field_map:
            continue
        lines.append(f"{section} {count}")
        for name, values in field_map.items():
            columns = [("", values)] if values.ndim == 1 else [
                (f"_{c}", values[:, i]) for i, c in enumerate(("r", "theta", "z"))]
            for suffix, col in columns:
                parts = [("re", col.real)] + ([("im", col.imag)] if col.imag.any() else [])
                for part, vals in parts:
                    lines += [f"SCALARS {name}{suffix}_{part} double 1", "LOOKUP_TABLE default"]
                    lines += ["%.17g" % v for v in vals]
    return "\n".join(lines) + "\n"


def test_vtk_matches_per_row_formatting(tmp_path, rng):
    """write_vtk's blocked rows give the same bytes as formatting each row
    on its own, on a mesh with more rows than one block."""
    msh = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.0125)
    nv, nt = msh.num_vertices, msh.num_triangles
    assert (nv, nt) == (6561, 12800) and nv > cli_io._WRITE_ROWS
    point = rng.normal(size=(nv, 3)) + 1j * rng.normal(size=(nv, 3))
    point[:, 1] = point[:, 1].real  # the theta component has no imaginary part
    cell = rng.normal(size=nt) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=nt))
    path = tmp_path / "big.vtk"
    write_vtk(msh, {"field": point}, path, cell_fields={"principal": cell}, title="t")
    expected = _vtk_per_row(np.column_stack([msh.vertices, np.zeros(nv)]), msh.triangles, 5,
                            {"field": point}, {"principal": cell}, "t")
    assert path.read_text() == expected
    assert "field_theta_im" not in expected and "principal_im" in expected


def test_vtk_wedges_match_per_row_formatting(tmp_path, rng):
    """write_vtk_wedges gives the same bytes as formatting each row on its
    own: more points and wedges than one block, a -0.0 coordinate (written
    -0), negative values and int64 wedge indices."""
    n, m = 5000, 4500
    assert min(n, m) > cli_io._WRITE_ROWS
    points = rng.normal(size=(n, 3))
    points[0, 0] = points[1, 2] = -0.0
    wedges = rng.integers(0, n, size=(m, 6), dtype=np.int64)
    fields = {"field": rng.normal(size=(n, 3)),
              "phase": rng.normal(size=n) + 1j * rng.normal(size=n)}
    path = tmp_path / "wedges.vtk"
    cli_io.write_vtk_wedges(points, wedges, fields, path)
    expected = _vtk_per_row(points, wedges, 13, fields, {}, "axmaxwell 3d export")
    assert path.read_text() == expected
    assert "\n-0 " in expected and "phase_im" in expected


def test_vtk_wedges_hold_no_whole_grid_array(tmp_path, rng):
    """On a revolved grid of synthesize's size (64 azimuths of the 1,281
    L-shape vertices) write_vtk_wedges makes text block by block: its traced
    peak stays below twice the points' own bytes."""
    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.025)
    T, nv = 64, msh.num_vertices
    assert nv == 1281
    theta = np.arange(T) * (2.0 * np.pi / T)
    r, z = msh.vertices.T
    points = np.stack([np.outer(np.cos(theta), r), np.outer(np.sin(theta), r),
                       np.broadcast_to(z, (T, nv))], axis=2).reshape(-1, 3)
    ring = (np.arange(T) * nv)[:, None, None]
    wedges = np.concatenate([ring + msh.triangles, (ring + nv) % (T * nv) + msh.triangles],
                            axis=2).reshape(-1, 6)
    fields = {"field": rng.normal(size=(T * nv, 3))}
    tracemalloc.start()
    try:
        cli_io.write_vtk_wedges(points, wedges, fields, tmp_path / "field3d.vtk")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * points.nbytes


def _signed_zero_fields(n, rng):
    """Columns of +0.0, of -0.0 and of +-0.0 with one nonzero value, and a
    complex field whose imaginary part is -0.0 everywhere."""
    mixed = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    mixed[n // 2] = 1.5
    neg_im = np.empty((n, 3), dtype=complex)
    neg_im.real, neg_im.imag = rng.normal(size=(n, 3)), -0.0
    return {"plus": np.zeros(n), "minus": np.full(n, -0.0), "mixed": mixed, "neg_im": neg_im}


def _assert_signed_zeros(text, n):
    assert "SCALARS plus_re double 1\nLOOKUP_TABLE default\n" + "0\n" * n in text
    assert "SCALARS minus_re double 1\nLOOKUP_TABLE default\n" + "-0\n" * n in text
    assert "\n1.5\n" in text and "_im " not in text


@pytest.mark.parametrize("handed_in", [False, True])
def test_vtk_signed_zero_columns_match_per_row_formatting(tmp_path, rect, rng, handed_in):
    """write_vtk with point and cell fields, as cmd_singular writes them: a
    +0.0 column is written 0, a -0.0 column -0, a mixed column as
    formatted, and an imaginary part of -0.0 everywhere gets no _im array.
    The bytes equal the per-row reference whether the geometry text is
    handed in, as cmd_solve does, or formatted by the writer."""
    nv, nt = rect.num_vertices, rect.num_triangles
    point = _signed_zero_fields(nv, rng)
    cell = {f"c_{name}": v for name, v in _signed_zero_fields(nt, rng).items()}
    geometry = "".join(cli_io._grid(rect.vertices, rect.triangles)) if handed_in else None
    path = tmp_path / "zeros.vtk"
    write_vtk(rect, point, path, cell_fields=cell, title="t", geometry=geometry)
    text = path.read_text()
    assert text == _vtk_per_row(np.column_stack([rect.vertices, np.zeros(nv)]), rect.triangles,
                                5, point, cell, "t")
    _assert_signed_zeros(text, nv)
    assert "SCALARS c_minus_re double 1\nLOOKUP_TABLE default\n" + "-0\n" * nt in text


def test_vtk_wedges_signed_zero_columns_match_per_row_formatting(tmp_path, rng):
    """write_vtk_wedges writes the signed-zero columns as write_vtk does."""
    n = 50
    points, wedges = rng.normal(size=(n, 3)), rng.integers(0, n, size=(40, 6))
    fields = _signed_zero_fields(n, rng)
    path = tmp_path / "zeros.vtk"
    cli_io.write_vtk_wedges(points, wedges, fields, path)
    text = path.read_text()
    assert text == _vtk_per_row(points, wedges, 13, fields, {}, "axmaxwell 3d export")
    _assert_signed_zeros(text, n)


def test_solve_and_synthesize_files_match_per_row_formatting(tmp_path):
    """End to end: every mode file of a solve whose modes 0 and 2 are
    skipped (all-zero files) and whose k < 0 files are conjugates equals
    the per-row text of its record, and field3d.vtk of a synthesize equals
    the per-row text of its points, wedges and field."""
    msh, corner = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.2)
    nv, N, T = msh.num_vertices, 3, 4
    common = ["--h", "0.2", "--rhs", "cos_theta_ez", "--modes", str(N)]
    assert main(["solve", *common, "--outdir", str(tmp_path / "s")]) == 0
    assert main(["synthesize", *common, "--theta-samples", str(T),
                 "--outdir", str(tmp_path / "t")]) == 0
    f = cli_io.RHS_BUILTINS["cos_theta_ez"]
    sol = solver.solve_axisymmetric(msh, SPACE_Y, f, N=N, corner=corner, tol=1e-10)
    assert sol.records[0].cg.iterations == 0 and not sol.records[0].total_nodal().any()
    points = np.column_stack([msh.vertices, np.zeros(nv)])
    for k in range(-N, N + 1):
        total = sol.records[abs(k)].total_nodal()
        total = np.conj(total) if k < 0 else total
        path = tmp_path / "s" / f"mode_{'m' if k < 0 else 'p'}{abs(k)}.vtk"
        expected = _vtk_per_row(points, msh.triangles, 5, {"field": total}, {},
                                f"mode {k} magnetic")
        assert path.read_text() == expected, k
    _, xyz, cyl = solver.sample_3d(sol, T)
    wedges = np.array([[t * nv + i for i in tri] + [(t + 1) % T * nv + i for i in tri]
                       for t in range(T) for tri in msh.triangles])
    expected = _vtk_per_row(xyz.reshape(-1, 3), wedges, 13, {"field": cyl.reshape(-1, 3)}, {},
                            "axmaxwell 3d export")
    assert (tmp_path / "t" / "field3d.vtk").read_text() == expected


def test_vtk_point_count_matches(tmp_path, rect, rng):
    path = tmp_path / "f.vtk"
    vals = rng.normal(size=(rect.num_vertices, 3)) + 1j * rng.normal(size=(rect.num_vertices, 3))
    write_vtk(rect, {"field": vals}, path)
    text = path.read_text().splitlines()
    npts = int([ln for ln in text if ln.startswith("POINTS")][0].split()[1])
    assert npts == rect.num_vertices
    names = [ln.split()[1] for ln in text if ln.startswith("SCALARS")]
    assert "field_r_re" in names and "field_r_im" in names


def test_duplicate_field_names_rejected(tmp_path, rect):
    with pytest.raises(ValueError):
        write_vtk(rect, {"a": np.zeros(rect.num_vertices)}, tmp_path / "x.vtk",
                  cell_fields={"a": np.zeros(rect.num_triangles)})


def _write_meridian(fields_of, path):
    msh = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    assert msh.num_vertices == 9
    write_vtk(msh, fields_of(msh.num_vertices), path)


def _write_wedges(fields_of, path):
    cli_io.write_vtk_wedges(np.zeros((4, 3)), np.array([[0, 1, 2, 1, 2, 3]]), fields_of(4), path)


@pytest.mark.parametrize("write", [_write_meridian, _write_wedges])
@pytest.mark.parametrize("fields_of, message", [
    (lambda n: {"a": np.zeros(n - 1)}, "shape"),
    (lambda n: {"a": np.zeros(n + 1)}, "shape"),
    (lambda n: {"a": np.zeros((n, 2))}, "shape"),
    (lambda n: {"a": np.zeros((n, 4))}, "shape"),
    (lambda n: {"a": np.zeros((n, 3, 1))}, "shape"),
    (lambda n: {"a": np.zeros((n, 3)), "a_r": np.zeros(n)}, "'a_r_re'"),
    (lambda n: {"a_theta": np.zeros(n), "a": np.ones((n, 3), dtype=complex)}, "'a_theta_re'"),
], ids=["short", "long", "two-columns", "four-columns", "three-axes", "split-name",
        "split-name-first"])
def test_bad_vtk_fields_fail_before_the_file_opens(tmp_path, write, fields_of, message):
    """Both writers check every field's shape against its section's count and
    the scalar array names across the file before they open it, so a bad
    field leaves no file behind."""
    path = tmp_path / "x.vtk"
    with pytest.raises(ValueError, match=message):
        write(fields_of, path)
    assert not path.exists()


def test_bad_vtk_cell_field_fails_before_the_file_opens(tmp_path, rect):
    path = tmp_path / "x.vtk"
    with pytest.raises(ValueError, match=f"expected \\({rect.num_triangles},\\)"):
        write_vtk(rect, {}, path, cell_fields={"c": np.zeros(rect.num_vertices)})
    assert not path.exists()


def test_tabulated_rhs_round_trip(tmp_path):
    m = mesh.gen_rectangle(0.0, 1.0, 0.0, 1.0, 0.5)
    rows = [
        [r, z, r * z, 0.0, 1.0 - r] for r, z in m.vertices
    ]
    path = tmp_path / "rhs.csv"
    write_csv(path, ["r", "z", "f_r", "f_theta", "f_z"], rows)
    f = cli_io.resolve_rhs(f"file:{path}", m)
    got = f(0.5, 0.0, 0.5)
    assert got[0] == pytest.approx(0.25, abs=1e-12)
    assert got[2] == pytest.approx(0.5, abs=1e-12)


def _lshape_table(path, vertices, order=None):
    r, z = vertices[:, 0], vertices[:, 1]
    rows = [list(row) for row in zip(r, z, r * z, 0.0 * r, 1.0 - r * r)]
    write_csv(path, ["r", "z", "f_r", "f_theta", "f_z"],
              rows if order is None else [rows[i] for i in order])


@pytest.mark.parametrize("rows", ["partial", "duplicate"])
def test_tabulated_rhs_needs_one_row_per_vertex(tmp_path, capsys, rows):
    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.1)
    order = range(10) if rows == "partial" else [*range(msh.num_vertices), 3]
    _lshape_table(tmp_path / "rhs.csv", msh.vertices, order)
    rc = main([
        "solve", "--h", "0.1", "--modes", "1", "--rhs", f"file:{tmp_path / 'rhs.csv'}",
        "--outdir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: usage:")
    assert not (tmp_path / "out" / "summary.csv").exists()


def _solve_with_table(tmp_path, content):
    (tmp_path / "rhs.csv").write_bytes(content)
    return main([
        "solve", "--h", "0.1", "--modes", "1", "--rhs", f"file:{tmp_path / 'rhs.csv'}",
        "--outdir", str(tmp_path / "out"),
    ])


def test_tabulated_rhs_empty_file_is_usage_error(tmp_path, capsys):
    assert _solve_with_table(tmp_path, b"") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and "rhs.csv" in err and "columns" in err
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_tabulated_rhs_short_rows_name_their_line(tmp_path, capsys):
    """Five 4-cell rows are not read as four 5-cell rows."""
    rows = "".join(f"{0.1 * i},0.0,1.0,2.0\n" for i in range(5))
    assert _solve_with_table(tmp_path, ("r,z,f_r,f_theta,f_z\n" + rows).encode()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and "rhs.csv:2:" in err and "5 cells" in err
    assert not (tmp_path / "out" / "summary.csv").exists()


@pytest.mark.parametrize("content", [
    b"r,z,f_r,f_theta,f_z\n0,0,1,2,x\n",
    b"r,z,f_r,f_theta,f_z\n0,0,1,2,nan\n",
    b"r,z,f_r,f_theta,f_z\n0,0,\xff,2,3\n",
])
def test_tabulated_rhs_bad_cells_are_usage_errors(tmp_path, capsys, content):
    assert _solve_with_table(tmp_path, content) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and "rhs.csv" in err


def test_tabulated_rhs_matching_is_blocked(tmp_path):
    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.025)
    assert msh.num_vertices == 1281
    _lshape_table(tmp_path / "rhs.csv", msh.vertices)
    tracemalloc.start()
    try:
        cli_io.resolve_rhs(f"file:{tmp_path / 'rhs.csv'}", msh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_tabulated_rhs_row_order_is_irrelevant(tmp_path, rng):
    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.1)
    _lshape_table(tmp_path / "a.csv", msh.vertices)
    _lshape_table(tmp_path / "b.csv", msh.vertices, rng.permutation(msh.num_vertices))
    pts = msh.vertices[msh.triangles].mean(axis=1)
    got_a = cli_io.resolve_rhs(f"file:{tmp_path / 'a.csv'}", msh)(pts[:, 0], 0.0, pts[:, 1])
    got_b = cli_io.resolve_rhs(f"file:{tmp_path / 'b.csv'}", msh)(pts[:, 0], 0.0, pts[:, 1])
    assert all(np.array_equal(a, b) for a, b in zip(got_a, got_b))


@pytest.mark.parametrize("azimuths", [None, 8])
def test_synthesize_azimuths_leave_analysis_alone(tmp_path, azimuths):
    """--theta-samples sets the output azimuths only: the analysis of
    --modes 4 keeps its 4N + 1 samples, more than either azimuth count."""
    extra = [] if azimuths is None else ["--theta-samples", str(azimuths)]
    rc = main([
        "synthesize", "--h", "0.2", "--modes", "4", *extra, "--outdir", str(tmp_path),
    ])
    assert rc == 0
    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.2)
    T = 16 if azimuths is None else azimuths
    text = (tmp_path / "field3d.vtk").read_text()
    assert f"POINTS {msh.num_vertices * T} double" in text


@pytest.mark.parametrize("azimuths", ["0", "-3", "1", "2"])
def test_synthesize_without_azimuths_is_usage_error(tmp_path, capsys, azimuths):
    """Fewer than 3 azimuths revolve each triangle into wedges of zero
    volume: one azimuth joins a ring to itself, two put every point in the
    plane y = 0."""
    rc = main([
        "synthesize", "--h", "0.2", "--modes", "1", "--theta-samples", azimuths,
        "--outdir", str(tmp_path),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: usage:")
    assert not (tmp_path / "field3d.vtk").exists()


def test_unreachable_tolerance_is_numerical_failure(tmp_path, capsys):
    """A tolerance below round-off fails on the true residual (exit 2)
    instead of reporting CG's recursive residual as converged."""
    rc = main(["solve", "--h", "0.05", "--modes", "1", "--tol", "1e-17",
               "--outdir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: numerical:")
    assert not (tmp_path / "summary.csv").exists()


def test_tolerance_below_round_off_is_not_a_breakdown(tmp_path, capsys):
    """At tol = 1e-200 the recursive residual falls to where p^H A p
    underflows: the pass ends there, and the solve fails on its true
    residual (exit 2), not as a matrix that is not positive definite."""
    rc = main(["solve", "--h", "0.2", "--modes", "2", "--tol", "1e-200",
               "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: CG stopped at round-off")
    assert "the true residual is" in err and "positive definite" not in err
    assert not (tmp_path / "summary.csv").exists()


def test_a_pass_stopped_at_round_off_is_final(tmp_path, capsys, monkeypatch):
    """At tol = 1e-200 the first basis CG stops at round-off, and that pass
    is final: its matvecs are its iterations, the one that stopped it and
    the true residual's, with no restart after them, and the message gives
    that pass's recursive residual, which is not 0."""
    matvec, solve_hpd = linalg.HermitianSparse.matvec, linalg.solve_hpd
    counted, failed = [], []
    monkeypatch.setattr(linalg.HermitianSparse, "matvec", lambda A, x: counted.append(1) or matvec(A, x))

    def counting_solve_hpd(A, b, **kw):
        start = len(counted)
        try:
            return solve_hpd(A, b, **kw)
        except linalg.SolverError as err:
            failed.append((err, len(counted) - start))
            raise

    monkeypatch.setattr(singular, "solve_hpd", counting_solve_hpd)
    rc = main(["solve", "--h", "0.2", "--modes", "2", "--tol", "1e-200",
               "--outdir", str(tmp_path)])
    assert rc == 2
    [(err, matvecs)] = failed
    assert matvecs == err.iterations + 2
    recursive = float(re.search(r"stopped at round-off \((\S+)\)", str(err)).group(1))
    assert 0.0 < recursive < np.finfo(float).eps
    assert str(err) in capsys.readouterr().err and "restart" not in str(err)


def test_verify_command_passes(capsys):
    assert cli_io.cmd_verify() == 0
    out = capsys.readouterr().out
    assert "11/11 criteria passed" in out
