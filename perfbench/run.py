#!/usr/bin/env python3
"""End-to-end benchmark of the stellar-match batch commands.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see WORKLOADS): match-rel53, match-lambda, surface.

--trace 0 measures end to end.  Fresh child processes run one after
another for about S seconds; each imports stellar_match.cli and calls
cli.main(argv) for every command of the workload, with tracing off.
The match workloads' children cycle through SWEEP_SEEDS sweep seeds
derived from N.  Reported: setup_s (spawn until the import finishes),
wall_s (the command calls) and peak_rss_mb, each the median over the
children; and failed_frac over every command, sweep sample and correctness check.

--trace 1 gives per-layer numbers: one untraced child and two traced
children (wrappers from layertrace.py) run the same commands.  The exact
counters must agree between the two traced runs, and the traced outputs
must hash the same as the untraced ones.

Every command's artifacts go through the correctness gate.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join("perfbench", "out")  # relative to ROOT; git-ignored

# Every run starts a child only while it fits in --seconds, but makes at
# least this many.  The hard limit keeps a run under three minutes.
MIN_CHILDREN = 2
HARD_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
# Counters that depend only on the inputs; two traced runs must agree.
EXACT_COUNTERS = (
    "tov.rhs.calls",
    "tov.fwd.steps",
    "tov.inward.solves",
    "matching.scan.shots",
    "lane_emden.theta_at.calls",
    "surface_fit.fit.iterations",
)
REL53_COUNT = 40
# Children of one --trace 0 run cycle through this many sweep seeds,
# seed + j * SEED_STRIDE, so a run's median averages the seed-to-seed cost
# of the sweep (how many samples end in the case00 ladder); the stride
# keeps the seeds of runs with nearby --seed values apart.
SWEEP_SEEDS = 3
SEED_STRIDE = 1000003
LAMBDA_COUNT = 3
SURFACE_GAMMAS = (("n=1", "2"), ("n=1.5", "1.6666666666666667"), ("n=2", "1.5"))


def _sets(pairs):
    argv = []
    for key, value in pairs:
        argv += ["--set", "%s=%s" % (key, value)]
    return argv


def rel53_calls(seed, out):
    return [("match", ["match", "--out", out, "--seed", str(seed)] + _sets([
        ("eos.gamma", "1.6666666666666667"), ("eos.c", "1"),
        ("sweep.p_lo", "1e-6"), ("sweep.p_hi", "1e-2"), ("sweep.per_decade", "4"),
        ("sweep.kind", "random"), ("sweep.min_distance", "1e-2"),
        ("sweep.count", str(REL53_COUNT)),
    ]))]


def lambda_calls(seed, out):
    return [("match", ["match", "--out", out, "--seed", str(seed)] + _sets([
        ("eos.gamma", "2"), ("eos.c", "1"), ("eos.lambda", "[0.2,-0.1]"),
        ("sweep.p_lo", "2e-3"), ("sweep.p_hi", "3e-3"), ("sweep.per_decade", "2"),
        ("sweep.kind", "on-curve"), ("sweep.count", str(LAMBDA_COUNT)),
    ]))]


def surface_calls(seed, out):
    # No random input: the seed is accepted and changes nothing.
    return [
        (label, ["surface", "--out", "%s-%d" % (out, k)] + _sets([("eos.gamma", gamma)]))
        for k, (label, gamma) in enumerate(SURFACE_GAMMAS)
    ]


# Known defect: at n = 3 the rotational bulge of the default b ladder
# leaves the radial responses' Taylor extension and the command dies with
# an uncaught ValueError.  Run once per surface invocation, untimed.
KNOWN_DEFECT_GAMMA = "1.3333333333333333"

WORKLOADS = {
    "match-rel53": {"calls": rel53_calls, "count": REL53_COUNT,
                    "seed": 20260823, "held_out_seed": 20260824},
    "match-lambda": {"calls": lambda_calls, "count": LAMBDA_COUNT,
                     "seed": 3, "held_out_seed": 11},
    "surface": {"calls": surface_calls, "seed": 0, "held_out_seed": None},
}


# -- children --------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.pop("STELLAR_MATCH_THREADS", None)
    env["PYTHONPATH"] = "src"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(work, calls, deadline, trace=False, spans=None):
    """Run one fresh child over ``calls`` in fresh output directories."""
    for _label, argv in calls:
        shutil.rmtree(os.path.join(ROOT, argv[argv.index("--out") + 1]), ignore_errors=True)
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w") as fh:
        json.dump({"calls": [argv for _l, argv in calls], "trace": trace, "spans": spans}, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    timeout = max(1.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    with open(os.path.join(work, "stderr.txt"), "w") as err:
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, spec_path, result_path],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
                timeout=timeout,
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not os.path.exists(result_path):
        return {"ok": False, "exit": code, "calls": []}
    with open(result_path) as fh:
        res = json.load(fh)
    res["ok"] = True
    res["setup_s"] = res["t_ready"] - t_spawn
    res["wall_s"] = sum(c["wall_s"] for c in res["calls"])
    return res


# -- correctness gate ------------------------------------------------------


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_match(out, count, on_curve):
    """Checks and sample outcomes of one `match` command; returns
    (checks, samples_attempted, samples_failed, hashes)."""
    summary = _load_json(os.path.join(ROOT, out, "sweep_summary.json"))
    with open(os.path.join(ROOT, out, "sweep.jsonl")) as fh:
        lines = fh.read().splitlines()
    header, records = json.loads(lines[0]), [json.loads(x) for x in lines[1:]]
    exits = [r["exit"] for r in records]
    bad = [e for e in exits if e.startswith("error:") or e in ("inadmissible", "forward_shot_failed")]
    checks = {
        "at least one curve": len(summary["curves"]) >= 1,
        "record count == sweep.count": len(records) == count == summary["count"],
        "no error:* or inadmissible exits": not any(
            e.startswith("error:") or e == "inadmissible" for e in exits),
    }
    if on_curve:
        checks["every sample case11"] = all(r["case"] == "case11" for r in records)
    else:
        checks["far_case11_count == 0"] = summary["far_case11_count"] == 0
        checks["n_far == count"] = summary["n_far"] == summary["count"]
    hashes = {"sweep_summary.json": summary["content_sha256"],
              "sweep.jsonl": header["content_sha256"]}
    return checks, len(records), len(bad), hashes


def check_surface(out, label):
    report = _load_json(os.path.join(ROOT, out, "surface_report.json"))
    scaling = report["scaling"]
    checks = {
        "slope within 2 +- 0.1": scaling is not None and abs(scaling["slope"] - 2.0) <= 0.1,
        "a2 < 0": report["a2"] < 0.0,
        "c2 > 0": report["c2"] > 0.0,
        "stratification relative rms > 1e-11": all(
            lev["fit"]["relative_rms"] > 1e-11 for lev in report["stratification"]),
    }
    if label == "n=1":
        checks["|a2 + pi^2/18| < 1e-8"] = abs(report["a2"] + math.pi**2 / 18.0) < 1e-8
    return checks, 0, 0, {"surface_report.json": report["content_sha256"]}


class Gate:
    """Counts operations and failures, and keeps the artifact hashes of
    the first child to run each list of commands, to compare later children
    with the same commands against."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.hashes = {}

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def child(self, res, calls):
        if not res["ok"]:
            for label, _argv in calls:
                self.op(False, "%s: child exited %s without a result" % (label, res["exit"]))
            return
        hashes = {}
        for (label, argv), call in zip(calls, res["calls"]):
            ran = call["rc"] == 0 and call["exception"] is None
            self.op(ran, "%s: exit %s %s" % (label, call["rc"], call["exception"] or ""))
            if not ran:
                continue
            out = argv[argv.index("--out") + 1]
            try:
                if label == "match":
                    spec = WORKLOADS[self.workload]
                    found = check_match(out, spec["count"], self.workload == "match-lambda")
                else:
                    found = check_surface(out, label)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self.op(False, "%s: unreadable artifacts (%s)" % (label, exc))
                continue
            checks, n_samples, n_bad, call_hashes = found
            for name, ok in checks.items():
                self.op(ok, "%s: %s" % (label, name))
            self.attempted += n_samples
            self.failed += n_bad
            if n_bad:
                self.failures.append("%s: %d failed sweep samples" % (label, n_bad))
            hashes.update({"%s %s" % (label, k): v for k, v in call_hashes.items()})
        key = json.dumps([argv for _label, argv in calls])
        if key not in self.hashes:
            self.hashes[key] = hashes
        else:
            self.op(hashes == self.hashes[key], "same-seed artifacts differ in content_sha256")


def known_defect(work, deadline):
    """Untimed run of the known-defect case; True when it failed."""
    argv = ["surface", "--out", os.path.join(OUT, "known-defect"),
            "--set", "eos.gamma=%s" % KNOWN_DEFECT_GAMMA]
    res = run_child(work, [("n=3", argv)], deadline)
    if not res["ok"]:
        return True
    call = res["calls"][0]
    return call["rc"] != 0 or call["exception"] is not None


# -- reporting -------------------------------------------------------------


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, as
    (percent, value), or None with fewer than eleven samples."""
    xs = sorted(values)
    j = len(xs) - 11
    if j < 0:
        return None
    return 100.0 * (j + 1) / len(xs), xs[j]


def describe_timing(name, unit, values):
    tail = tail_percentile(values)
    tail_text = ("p%.0f %.4f %s" % (tail[0], tail[1], unit)) if tail else \
        "no tail percentile (needs >= 11 runs)"
    return "%-12s median %.4f %s, %s, runs %d" % (
        name, statistics.median(values), unit, tail_text, len(values))


def machine_facts(res):
    return "machine: nproc %s, %s, Python %s, numpy %s, scipy %s" % (
        os.cpu_count(), platform.machine(), platform.python_version(),
        res.get("numpy", "?"), res.get("scipy", "?"))


# -- modes -----------------------------------------------------------------


def measure(args, work, deadline):
    spec = WORKLOADS[args.workload]
    gate = Gate(args.workload)
    start = time.monotonic()
    results, took = [], []
    while True:
        seed = args.seed + len(results) % SWEEP_SEEDS * SEED_STRIDE
        calls = spec["calls"](seed, os.path.join(OUT, args.workload, "call"))
        t0 = time.monotonic()
        res = run_child(work, calls, deadline)
        res["seed"] = seed
        gate.child(res, calls)
        results.append(res)
        took.append(time.monotonic() - t0)
        now = time.monotonic()
        if len(results) >= MIN_CHILDREN and now + statistics.median(took) > start + args.seconds:
            break
        if now + statistics.median(took) > deadline - 30.0:
            break
    good = [r for r in results if r["ok"]]
    return gate, good


def mode_end_to_end(args, work, deadline):
    gate, good = measure(args, work, deadline)
    if not good:
        return gate, {}
    print(machine_facts(good[0]))
    for k, r in enumerate(good):
        print("child %d: setup %.4f s, wall %.4f s, sweep seed %d"
              % (k, r["setup_s"], r["wall_s"], r["seed"]))
    setup = [r["setup_s"] for r in good]
    wall = [r["wall_s"] for r in good]
    rss = [r["peak_rss_mb"] for r in good]
    print(describe_timing("setup_s", "s", setup))
    print(describe_timing("wall_s", "s", wall))
    print(describe_timing("peak_rss_mb", "MiB", rss))
    return gate, {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(wall), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
    }


def mode_trace(args, work, deadline):
    spec = WORKLOADS[args.workload]
    calls = spec["calls"](args.seed, os.path.join(OUT, args.workload, "call"))
    gate = Gate(args.workload)
    untraced = run_child(work, calls, deadline)
    gate.child(untraced, calls)
    traced = []
    for k in range(2):
        spans = os.path.join(ROOT, OUT, "%s-spans-%d.jsonl" % (args.workload, k))
        res = run_child(work, calls, deadline, trace=True, spans=spans)
        gate.child(res, calls)
        traced.append(res)
    if not (untraced["ok"] and all(r["ok"] for r in traced)):
        return gate, {}
    layers = [r["layers"] for r in traced]
    for name in EXACT_COUNTERS:
        a, b = (lay["metrics"][name] for lay in layers)
        gate.op(a == b, "exact counter %s differs between traced runs: %s vs %s" % (name, a, b))
    first = traced[0]
    values = dict(layers[0]["metrics"])
    accounted = sum(layers[0]["layer_self_s"].values())
    values.update({
        "trace.wall_s": first["wall_s"],
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.overhead_s": first["wall_s"] - untraced["wall_s"],
        "trace.unaccounted_s": first["wall_s"] - accounted,
    })
    print(machine_facts(first))
    print("self time by layer (traced run 1):")
    for layer, secs in sorted(layers[0]["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print("  %-12s %9.4f s  %5.1f%%" % (layer, secs, 100.0 * secs / first["wall_s"]))
    print("  %-12s %9.4f s  (traced wall_s %.4f s minus the layer self times)"
          % ("unaccounted", values["trace.unaccounted_s"], first["wall_s"]))
    print("tracing overhead: traced wall_s %.4f s - untraced %.4f s = %.4f s"
          % (first["wall_s"], untraced["wall_s"], values["trace.overhead_s"]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        print("  %-36s %14.6g %s" % (name, value, units[name]))
    return gate, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "stellar_match", "cli.py")):
        print("perfbench: no stellar_match sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]["seed"]
    work = os.path.join(ROOT, OUT, "work-%s" % args.workload)
    os.makedirs(work, exist_ok=True)
    # Warm the byte-code and file caches once, untimed: users do not pay
    # for compiling the package on every command.
    subprocess.run([sys.executable, "-c", "import stellar_match.cli"], cwd=ROOT,
                   env=child_env(), check=False, timeout=60)
    print("workload %s, seed %d, held-out seed %s, %s s, trace %d" % (
        args.workload, args.seed, WORKLOADS[args.workload]["held_out_seed"],
        args.seconds, args.trace))
    mode = mode_trace if args.trace else mode_end_to_end
    gate, metrics = mode(args, work, deadline)

    defect_failed = args.workload == "surface" and known_defect(work, deadline)
    workload_frac = gate.failed / max(gate.attempted, 1)
    print("failed_frac  %.6f ratio (%d of %d operations: commands, sweep samples, checks)"
          % (workload_frac, gate.failed, gate.attempted))
    if args.workload == "surface":
        print("known defect surface n=3: %s; failed_frac including it %.6f ratio (%d of %d)" % (
            "fails" if defect_failed else "passes",
            (gate.failed + defect_failed) / (gate.attempted + 1),
            gate.failed + defect_failed, gate.attempted + 1))
    for what in gate.failures:
        print("FAILED: %s" % what)
    correct = gate.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
