"""One measured axmaxwell process.

    python3 perfbench/child.py SPAWN_STAMP RESULT_JSON [--import-only]
                               [--trace RUN_ID SPANS_JSON] -- ARGV...

SPAWN_STAMP is the parent's `time.monotonic()` taken just before it started
this process; CLOCK_MONOTONIC is shared by all processes, so the difference
to the stamp taken after importing the package is the set-up time a command
line user pays: interpreter start, numpy and axmaxwell.  The command itself
runs as `axmaxwell.cli_io.main(ARGV)` and is timed from the call until it
returns, by which point every output file is closed.

The time until numpy alone is imported (interpreter start plus numpy) is
recorded too, as calibration: it shares no code with axmaxwell and shows
how fast the machine is at that moment.  With --import-only the process
runs no command.
"""

import sys
import time

import numpy  # noqa: F401

NUMPY_READY = time.monotonic()

from axmaxwell import cli_io  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import layers  # noqa: E402


def main():
    spawn, result_path, rest = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sep = rest.index("--")
    opts, argv = rest[:sep], rest[sep + 1:]
    result = {"setup_s": READY - spawn, "calibration_s": NUMPY_READY - spawn}
    if opts[:1] != ["--import-only"]:
        tracer = None
        if opts[:1] == ["--trace"]:
            tracer = layers.Tracer(opts[1])
            tracer.install()
        result["wrappers"] = layers.count_wrappers()
        start = time.perf_counter()
        if tracer is None:
            code = cli_io.main(argv)
        else:
            code = tracer.span("cli_io.main", cli_io.main, argv)
        result["wall_s"] = time.perf_counter() - start
        result["exit_code"] = code
        if tracer is not None:
            tracer.uninstall()
            result["wrappers_after"] = layers.count_wrappers()
            result["layers"] = tracer.summary()
            with open(opts[2], "w") as fp:
                json.dump(tracer.span_records(), fp)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fp:
        json.dump(result, fp)


if __name__ == "__main__":
    main()
