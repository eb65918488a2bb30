"""One fresh benchmark child: import the CLI, run its calls, report.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds {"calls": [argv, ...], "trace": bool, "spans": path or null}.
The parent records CLOCK_MONOTONIC just before spawning this process;
``t_ready`` below is read on the same clock right after
``import stellar_match.cli`` finishes, so their difference is the set-up
time of a command.  Each ``cli.main(argv)`` call is timed on its own.

With ``trace`` set, the layer wrappers of ``layertrace`` are installed
first and the per-layer metrics are written with the result.
"""

import json
import sys
import time

import stellar_match.cli as cli

t_ready = time.monotonic()

import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402  (already imported by the CLI)
import scipy  # noqa: E402


def run_call(argv):
    exc_text = None
    t0, cpu0 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects malformed argv this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught error is a measured failure
        rc = None
        exc_text = "%s: %s" % (type(exc).__name__, exc)
        traceback.print_exc()
    return {
        "argv": list(argv),
        "rc": rc,
        "exception": exc_text,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - cpu0,
    }


def main():
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace"):
        import layertrace  # beside this script, so first on sys.path

        tracer = layertrace.Tracer()
        tracer.install()
    calls = [run_call(argv) for argv in spec["calls"]]
    result = {
        "t_ready": t_ready,
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(sum(c["cpu_s"] for c in calls))
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
