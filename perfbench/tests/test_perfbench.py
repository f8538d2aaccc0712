"""Self-tests of the benchmark: tracing sees every layer, leaves nothing
behind, and a wrong or non-deterministic run is counted as failed.

    python3 -m pytest perfbench/tests -q

from the root of the checkout.  The layer test runs every workload once
traced (about a minute on two cores).
"""

import json
import os
import sys

import pytest

import layers
import outputs
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.fixture(scope="module")
def traced_layers():
    """Per-layer metrics of one traced run of every workload."""
    out = {}
    for name in workloads.WORKLOADS:
        bench = run.Bench(name, 7, ROOT)
        bench.prepare()
        try:
            res = bench.invoke(traced=True)
        finally:
            run.shutil.rmtree(bench.work, ignore_errors=True)
        assert res["ok"], res["problems"]
        out[name] = res["layers"]
    return out


def test_every_wrapper_sees_its_layer(traced_layers):
    assert traced_layers["coarse_highmode"]["modal_ops.shift_calls"] == 22
    assert traced_layers["fine_lowmode"]["modal_ops.shift_calls"] == 0
    assert traced_layers["file_rhs"]["modal_ops.shift_calls"] == 0
    for name, metrics in traced_layers.items():
        assert (metrics["femcore.interpolate_calls"] > 0) == (name == "file_rhs")
        assert (metrics["solver.synthesize_s"] > 0) == (name == "synth_export")
        assert metrics["linalg.true_resid_max"] <= workloads.TOL
    for metric, _, _ in layers.METRICS:
        assert any(m[metric] > 0 for m in traced_layers.values()), metric


def test_wrappers_are_removed():
    from axmaxwell import cli_io, femcore, linalg

    modules = {n: dict(vars(m)) for n, m in sys.modules.items()
               if n.startswith("axmaxwell") and m is not None}
    classes = {c: dict(vars(c)) for c in (femcore.MeshQuadrature, linalg.HermitianSparse)}
    tracer = layers.Tracer("test")
    tracer.install()
    try:
        assert layers.count_wrappers() > 0
        assert hasattr(cli_io.resolve_rhs, layers.WRAPPED_ATTR)
    finally:
        tracer.uninstall()
    assert layers.count_wrappers() == 0
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in before.items()), name
    for cls, before in classes.items():
        assert all(vars(cls)[k] is v for k, v in before.items()), cls


def test_self_time_excludes_children():
    tracer = layers.Tracer("test")

    def child():
        return sum(range(1000))

    def parent():
        tracer.span("child", child)
        tracer.span("child", child)

    tracer.span("parent", parent)
    (_, p0, p1, _), (_, a0, a1, _), (_, b0, b1, _) = tracer.spans
    selfs = tracer.self_times()
    assert selfs["parent"] == pytest.approx(((p1 - p0) - (a1 - a0) - (b1 - b0)) * 1e-9)
    assert selfs["child"] == pytest.approx(((a1 - a0) + (b1 - b0)) * 1e-9)
    assert tracer.calls() == {"parent": 1, "child": 2}


def test_tampered_summary_counts_as_failed(monkeypatch, capsys):
    real_check = outputs.check_run

    def flip_then_check(workload, outdir, reference, weights=None):
        # flip the sign of C_3 and C_-3 together, so that only the reference
        # comparison (not conjugate symmetry) can catch it
        path = os.path.join(outdir, "summary.csv")
        with open(path) as fp:
            lines = fp.readlines()
        for i, line in enumerate(lines):
            k, c, rest = line.split(",", 2)
            if k in ("3", "-3"):
                lines[i] = f"{k},{-complex(c)!r},{rest}".replace("(", "").replace(")", "")
        with open(path, "w") as fp:
            fp.writelines(lines)
        return real_check(workload, outdir, reference, weights)

    monkeypatch.setattr(outputs, "check_run", flip_then_check)
    code = run.main(["--workload", "coarse_highmode", "--seed", "1", "--seconds", "0",
                     "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0
    assert result["attempted"] == run.MIN_TIMED
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert any("differs from the reference" in line for line in out)
    assert not any("conj" in line for line in out)


def test_count_mismatch_between_traced_runs_is_a_failure(monkeypatch):
    bench = run.Bench("coarse_highmode", 1, ROOT)
    base = {m: 1 for m, _, _ in layers.METRICS}
    iterations = iter([100, 100, 100, 100, 101])

    def fake_invoke(traced):
        res = {"ok": True, "problems": [], "exit_code": 0, "wall_s": 1.0}
        if traced:
            res["layers"] = dict(base, **{"linalg.cg_iterations": next(iterations)})
        return res

    monkeypatch.setattr(bench, "invoke", fake_invoke)
    traced, untraced = bench.traced_set(seconds=0)
    assert len(traced) == 2 and len(untraced) == 1
    assert all(r["ok"] for r in traced)
    monkeypatch.setattr(run, "MIN_TRACED", 3)
    traced, _ = bench.traced_set(seconds=0)
    assert [r["ok"] for r in traced] == [True, True, False]
    assert "linalg.cg_iterations" in traced[2]["problems"][0]


def test_table_depends_only_on_seed(tmp_path):
    verts = [[0.1 * i, 0.05 * i] for i in range(1, 8)]
    paths = [tmp_path / f"t{i}.csv" for i in range(3)]
    for path, seed in zip(paths, (3, 3, 4)):
        workloads.make_table(str(path), verts, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "file_rhs", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
