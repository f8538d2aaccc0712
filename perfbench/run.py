"""Benchmark runner for axmaxwell `solve` / `synthesize`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from src/).
Each run of the workload is a fresh process (perfbench/child.py) calling
`axmaxwell.cli_io.main(argv)` with one thread and single-threaded BLAS, and
each run's outputs are checked against reference.json (see outputs.py).

--trace 0 measures the end-to-end metrics: runs repeat until S seconds have
passed (at least MIN_TIMED runs) and every metric is the median over them.
Between runs, short processes only import the package, for more set-up
samples.  Each process also records how long the interpreter took to start
and import numpy alone, which shares no code with axmaxwell.  setup_s is
the median over processes of set-up time * CAL_REF_S / that calibration
time: set-up time at a reference machine speed, since on a shared machine
the CPU speed can drift by half within minutes and raw set-up time moves
with it.  The raw median is printed on the readable line.

--trace 1 alternates traced and untraced runs (at least two traced, one
untraced) and reports the per-layer metrics of layers.py plus
trace.overhead_s, the traced minus the untraced median wall time.  Two
traced runs must give identical counts, and every CG solve must meet tol in
its true residual; a run that does not is a failed run.

Human-readable lines go to stdout first (with fail_frac, the failed share
of attempted runs); the last line is the JSON result.  The exit code is 0
whenever a result is printed, also when runs failed (then "correct" is
false), and nonzero without a result when the program cannot be run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402

MIN_TIMED = 2
MIN_TRACED = 2
SETUP_SPAWNS = 3
SETUP_SPAWNS_PER_RUN = 1
CAL_REF_S = 0.1  # interpreter + numpy start time of the reference machine
BUDGET_S = 170.0
WORK_ROOT = ".perfbench"
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Bench:
    def __init__(self, workload, seed, root):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.work = os.path.join(root, WORK_ROOT, f"run-{os.getpid()}")
        self.traces = os.path.join(root, WORK_ROOT, "traces")
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            AXMAXWELL_THREADS="1",
        )
        with open(os.path.join(HERE, "reference.json")) as fp:
            self.reference = json.load(fp)
        self.count = 0
        self.table = None
        self.weights = None

    def prepare(self):
        os.makedirs(self.work, exist_ok=True)
        if "file:" + workloads.TABLE in workloads.WORKLOADS[self.workload]:
            self.table = os.path.join(self.work, workloads.TABLE)
            vertices = self.reference["workloads"][self.workload]["vertices"]
            self.weights = workloads.make_table(self.table, vertices, self.seed)

    def spawn(self, opts, argv=()):
        """Run child.py once; returns its result dict (raises on failure)."""
        self.count += 1
        result_path = os.path.join(self.work, f"result{self.count}.json")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("time budget of the benchmark run is used up")
        stamp = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), repr(stamp), result_path,
             *opts, "--", *argv],
            env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        with open(result_path) as fp:
            return json.load(fp)

    def invoke(self, traced):
        """One run of the workload plus its output check."""
        outdir = os.path.join(self.work, f"out{self.count + 1}")
        argv = workloads.argv_for(self.workload, outdir, self.table)
        opts = []
        if traced:
            run_id = f"{self.workload}-seed{self.seed}-{self.count + 1}"
            spans = os.path.join(self.work, f"spans{self.count + 1}.json")
            opts = ["--trace", run_id, spans]
        try:
            res = self.spawn(opts, argv)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            return {"ok": False, "problems": [str(exc)]}
        problems = []
        if res["exit_code"] != 0:
            problems.append(f"axmaxwell exited with code {res['exit_code']}")
        if (not traced and res["wrappers"]) or res.get("wrappers_after", 0):
            problems.append("tracer wrappers present in a run that must be untraced")
        if res["exit_code"] == 0:
            problems += outputs.check_run(self.workload, outdir, self.reference, self.weights)
        if traced:
            resid = res["layers"]["linalg.true_resid_max"]
            if not resid <= workloads.TOL:
                problems.append(f"a CG solve returned true residual {resid:.3e} > tol")
            os.makedirs(self.traces, exist_ok=True)
            keep = os.path.join(self.traces, f"{self.workload}-seed{self.seed}.json")
            shutil.copyfile(spans, keep)
        shutil.rmtree(outdir, ignore_errors=True)
        res["ok"] = not problems
        res["problems"] = problems
        return res

    def import_samples(self, n):
        return [self.spawn(["--import-only"]) for _ in range(n)]

    def timed_set(self, seconds):
        self.import_samples(1)  # warm-up: byte-compiles the package once
        spawns = self.import_samples(SETUP_SPAWNS)
        runs = []
        start = time.monotonic()
        while len(runs) < MIN_TIMED or time.monotonic() - start < seconds:
            runs.append(self.invoke(traced=False))
            if "exit_code" not in runs[-1]:
                break
            spawns += self.import_samples(SETUP_SPAWNS_PER_RUN)
        good = [r for r in runs if r.get("exit_code") == 0]
        spawns += good
        samples = {
            "wall_s": [r["wall_s"] for r in good],
            "setup_s": [r["setup_s"] * CAL_REF_S / r["calibration_s"] for r in spawns],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
            "raw_setup_s": [r["setup_s"] for r in spawns],
            "calibration_s": [r["calibration_s"] for r in spawns],
        }
        return runs, samples

    def traced_set(self, seconds):
        traced, untraced = [], []
        start = time.monotonic()
        while (len(traced) < MIN_TRACED or not untraced
               or time.monotonic() - start < seconds):
            run_traced = len(traced) <= len(untraced)
            res = self.invoke(traced=run_traced)
            (traced if run_traced else untraced).append(res)
            if "exit_code" not in res:
                break
        first = next((r for r in traced if "layers" in r), None)
        for r in traced:
            if "layers" in r and r is not first:
                diff = [n for n, _, _ in layers.METRICS
                        if not n.endswith("_s") and r["layers"][n] != first["layers"][n]]
                if diff:
                    r["ok"] = False
                    r["problems"].append(f"counts differ between traced runs: {diff}")
        return traced, untraced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def layer_metrics(traced, untraced):
    good_t = [r for r in traced if r.get("exit_code") == 0 and "layers" in r]
    good_u = [r for r in untraced if r.get("exit_code") == 0]
    if not good_t or not good_u:
        return None
    out = {}
    for name, unit, source in layers.METRICS:
        values = [r["layers"][name] for r in good_t]
        if source.startswith("self:"):
            value = statistics.median(values)
        elif name == "linalg.true_resid_max":
            value = max(values)
        else:
            value = values[0]
        out[name] = {"value": value, "unit": unit}
    walls_t, walls_u = ([r["wall_s"] for r in good] for good in (good_t, good_u))
    overhead = statistics.median(walls_t) - statistics.median(walls_u)
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "axmaxwell", "cli_io.py")):
        print("error: src/axmaxwell not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, root)
    try:
        bench.prepare()
        if args.trace:
            traced, untraced = bench.traced_set(args.seconds)
            runs = traced + untraced
            metrics = layer_metrics(traced, untraced)
        else:
            runs, samples = bench.timed_set(args.seconds)
            metrics = None
            if samples["wall_s"]:
                metrics = {n: {"value": statistics.median(samples[n]), "unit": u}
                           for n, u in END_TO_END}
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    failed = sum(not r["ok"] for r in runs)
    for i, r in enumerate(runs):
        for problem in r["problems"]:
            print(f"run {i + 1}: FAIL {problem}")
    if metrics is None:
        print("error: no run of the workload completed", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"fail_frac {failed / len(runs):.3g} ({failed} of {len(runs)} runs failed)")
    if not args.trace:
        for name, unit in END_TO_END:
            lo, hi = quartiles(samples[name])
            print(f"  {name:12s} median {metrics[name]['value']:.6g} {unit}  "
                  f"quartiles {lo:.6g} .. {hi:.6g}  n={len(samples[name])}")
        for name in ("raw_setup_s", "calibration_s"):
            print(f"  ({name} median {statistics.median(samples[name]):.6g} s)")
    else:
        for name, m in metrics.items():
            print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
