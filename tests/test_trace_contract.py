"""The benchmark in perfbench/ wraps functions of the package by name and
reads the files the package writes; installing its tracer fails when a
refactor unbinds one of the functions, and reading fails when a writer
changes the format."""

import pathlib

import numpy as np
import pytest

from axmaxwell import cli_io, mesh

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    tracer = layers.Tracer("t")
    try:
        tracer.install()
        assert layers.count_wrappers() > 0
    finally:
        tracer.uninstall()
    assert layers.count_wrappers() == 0


def test_reference_condition_number(monkeypatch):
    """perfbench/make_reference.py assembles mode matrices by signature
    (assemble_a_k, shifted_system, to_dense) for the kappa bound of its
    output check."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import make_reference

    kappa = make_reference.condition_number(0.1, "magnetic", 3)
    assert np.isfinite(kappa) and kappa > 1.0


def _traced_file_rhs(monkeypatch, tmp_path, options):
    """The traced summary of a solve at h = 0.1 (1,386 quadrature points)
    with modes 2 and a tabulated right-hand side."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.1)
    r, z = msh.vertices[:, 0], msh.vertices[:, 1]
    table = tmp_path / "rhs.csv"
    cli_io.write_csv(
        table, ["r", "z", "f_r", "f_theta", "f_z"],
        [list(row) for row in zip(r, z, r * z, 0.0 * r, 1.0 - r * r)],
    )
    tracer = layers.Tracer("t")
    try:
        tracer.install()
        rc = cli_io.main([
            "solve", "--h", "0.1", "--modes", "2", "--rhs", f"file:{table}",
            "--outdir", str(tmp_path / "out"),
        ] + options)
    finally:
        tracer.uninstall()
    assert rc == 0
    return tracer.summary()


def test_traced_file_rhs_calls_data_once(monkeypatch, tmp_path):
    """A tabulated right-hand side is analyzed with one data call and one
    interpolation in a run whose M x Q fits one block."""
    summary = _traced_file_rhs(monkeypatch, tmp_path, [])  # 9 x 1,386 samples
    assert summary["solver.rhs_evals"] == 1
    assert summary["femcore.interpolate_calls"] == 1


def test_traced_file_rhs_calls_data_per_block(monkeypatch, tmp_path):
    """Points that span several blocks make one data call and one
    interpolation per block: 2^17 // 257 = 510, so blocks of 256 points,
    and 6 blocks of the 1,386 points."""
    summary = _traced_file_rhs(monkeypatch, tmp_path, ["--theta-samples", "257"])
    assert summary["solver.rhs_evals"] == summary["femcore.interpolate_calls"] == 6


def test_traced_high_mode_solve_shares_the_mode_two_class(monkeypatch, tmp_path):
    """Three assemblies (k = 0, 1, 2) serve every mode: each |k| > 2 mode is
    one shifted matrix on the mode-2 class, and every CG solve meets its
    tolerance on the true residual.  The bandlimited data fill modes 0..3,
    so mode 4 is round-off: it builds its system but makes no CG call."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    tol = 1e-10
    tracer = layers.Tracer("t")
    try:
        tracer.install()
        rc = cli_io.main([
            "solve", "--domain", "lshape", "--h", "0.1", "--modes", "4",
            "--tol", repr(tol), "--outdir", str(tmp_path),
        ])
    finally:
        tracer.uninstall()
    assert rc == 0
    summary = tracer.summary()
    assert summary["modal_ops.assemble_calls"] == 3
    assert summary["modal_ops.shift_calls"] == 2
    assert summary["solver.modes_orthogonal"] == 3
    assert summary["solver.modes_bordered"] == 2
    # one CG solve per basis and solved mode: 3 bases, 3 orthogonal, 1
    # bordered (mode 3; mode 4 meets the stopping rule at x = 0)
    assert summary["linalg.cg_calls"] == 7
    assert summary["linalg.bordered_calls"] == 1
    assert summary["linalg.true_resid_max"] <= tol


def test_traced_multigrid_solve(monkeypatch, tmp_path):
    """At h = 0.025 every mode, basis and bordered solve runs multigrid-
    preconditioned CG, one call each: at most 20 iterations per call, true
    residual within tol, and the traced mesh is the fine one, not a coarse
    level."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    tol = 1e-10
    tracer = layers.Tracer("t")
    per_call = []
    add = tracer.add

    def record(name, value):
        if name == "linalg.cg_iterations":
            per_call.append(value)
        add(name, value)

    monkeypatch.setattr(tracer, "add", record)
    try:
        tracer.install()
        rc = cli_io.main([
            "solve", "--domain", "lshape", "--h", "0.025", "--modes", "3",
            "--tol", repr(tol), "--outdir", str(tmp_path),
        ])
    finally:
        tracer.uninstall()
    assert rc == 0
    summary = tracer.summary()
    assert len(per_call) == summary["linalg.cg_calls"] == 3 + 3 + 1
    assert max(per_call) <= 20
    assert summary["linalg.true_resid_max"] <= tol
    assert summary["mesh.vertices"] == 1281


def test_every_workload_command_line_parses(monkeypatch, tmp_path):
    """Every benchmark command line passes the parser, its value checks and
    the size checks on its mesh; nothing is solved.  A command-line change
    that would make a workload a usage error fails here, not in the
    benchmark."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name in workloads.WORKLOADS:
        argv = workloads.argv_for(name, str(tmp_path / name), str(tmp_path / workloads.TABLE))
        args = cli_io.parse_args(argv)
        cli_io._check_sizes(args, *cli_io.build_mesh(args))
        assert args.modes == workloads.modes(name)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, files, copies", [
    (["solve", "--rhs", "bandlimited", "--modes", "3"],
     [f"mode_{s}{k}.vtk" for k in range(4) for s in "mp" if (s, k) != ("m", 0)], 1),
    (["synthesize", "--rhs", "bandlimited", "--modes", "3", "--theta-samples", "5"],
     ["field3d.vtk"], 5),
])
def test_benchmark_reads_every_vtk_output(monkeypatch, tmp_path, argv, files, copies):
    """perfbench/outputs.read_vtk, the reader of the benchmark's output check,
    reads every VTK file solve and synthesize write, with the mesh's counts
    and finite values; a writer change that the benchmark could not read
    fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import outputs

    msh, _ = mesh.gen_lshape(0.5, 0.5, 1.0, 0.0, 1.0, 0.2)
    out = tmp_path / "out"
    assert cli_io.main(argv + ["--h", "0.2", "--outdir", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.vtk")) == sorted(files)
    for name in files:
        vtk = outputs.read_vtk(out / name)
        assert vtk["points"] == copies * msh.num_vertices
        assert vtk["cells"] == copies * msh.num_triangles
        assert len(vtk["coords"]) == 3 * vtk["points"]
        assert vtk["arrays"] and np.isfinite(vtk["coords"]).all()
        for values in vtk["arrays"].values():
            assert len(values) == vtk["points"] and np.isfinite(values).all()
