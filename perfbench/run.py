"""The repository benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each rep runs in a fresh single-process
interpreter (perfbench/child.py) that imports the package from ./src; reps
run one after another until the next one would end after S seconds (at
least MIN_REPS).  Every result is checked.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Every time is scaled to a reference speed: each rep samples how fast the
machine runs while it runs (perfbench/speed.py), and its times are
multiplied by that speed.

--trace 0 reports the end-to-end metrics, medians over the reps.  --trace 1
alternates untraced and traced reps on the same inputs and reports the
per-layer metrics, medians over the traced reps, plus trace.overhead_s (the
traced minus the untraced median wall time).  The spans of the last traced
rep are written to .perfbench/trace-NAME.json.gz.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402

WORKLOADS = ["minimality-r7", "exceptional-tables", "identity-sweep-r8", "cli-queries"]
MIN_REPS = 3
LIMIT_S = 170          # every run ends well inside 180 s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def scale_times(rep, speed):
    """Scale every time of a rep by `speed`; keep the measured wall time."""
    rep["raw_wall"] = rep["wall"]
    for key in ("wall", "setup"):
        rep[key] *= speed
    if rep["latencies"] is not None:
        rep["latencies"] = [x * speed for x in rep["latencies"]]
    for key, value in rep.get("layers", {}).items():
        if key.endswith("self_s"):
            rep["layers"][key] = value * speed


def percentile(values, p):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]


def tail(values):
    """(percentile, value): the highest percentile of TAIL_LADDER with at least
    ten samples beyond it; the median when there are too few samples."""
    n = len(values)
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, percentile(values, p)
    return 50.0, statistics.median(values)


def run_rep(workload, seed, index, traced, deadline):
    cmd = [sys.executable, "-E", "-s", os.path.join(HERE, "child.py"), ROOT,
           workload, str(seed), str(index), "1" if traced else "0"]
    if traced:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        cmd.append(os.path.join(out_dir, "trace-%s.json.gz" % workload))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "ORBITDUALITY_TABLES"}
    spawned = clock()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: rep %d of %s ran past the time limit" % (index, workload))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("perfbench: rep %d of %s exited with code %d"
                 % (index, workload, proc.returncode))
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["setup"] = rep["ready"] - spawned
    rep["traced"] = traced
    scale_times(rep, rep["speed"])
    return rep


def run_reps(workload, seed, seconds, trace):
    """Reps until the next would end after `seconds` (at least MIN_REPS, or
    one pair with tracing).  With tracing, each untraced rep is followed by a
    traced rep on the same inputs."""
    start = clock()
    deadline = start + LIMIT_S
    plan = [False, True] if trace else [False]
    reps = []
    while True:
        began = clock()
        index = len(reps) // len(plan)
        reps += [run_rep(workload, seed, index, traced, deadline) for traced in plan]
        finish = 2 * clock() - began
        if finish > deadline or (
                finish > start + seconds and (trace or len(reps) >= MIN_REPS)):
            return reps


def end_to_end(workload, reps):
    """Medians over the reps.  The latency figures are taken per rep (one
    query on cli-queries, one whole sweep on the sweeps) and the median of
    the per-rep figures is reported."""
    walls = [r["wall"] for r in reps]
    if workload == "cli-queries":
        latencies = [[x * 1e3 for x in r["latencies"]] for r in reps]
        unit = "queries"
    else:
        latencies = [[w * 1e3] for w in walls]
        unit = "sweep"
    tails = [tail(xs) for xs in latencies]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(r["attempted"] / r["wall"] for r in reps), "1/s"),
        "setup_s": (statistics.median(r["setup"] for r in reps), "s"),
        "peak_rss_mib": (statistics.median(r["rss_kib"] for r in reps) / 1024.0, "MiB"),
        "query_p50_ms": (statistics.median(statistics.median(xs) for xs in latencies), "ms"),
        "query_tail_ms": (statistics.median(value for _, value in tails), "ms"),
    }
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    per_rep = "of %d %s per rep, median over %d reps" % (len(latencies[0]), unit, len(reps))
    notes = {"wall_s": "quartiles %s over %d reps; measured %.4g s at speed %.3g" % (
                 " / ".join("%.4g" % q for q in quartiles), len(walls),
                 statistics.median(r["raw_wall"] for r in reps),
                 statistics.median(r["speed"] for r in reps)),
             "query_p50_ms": "p50 " + per_rep,
             "query_tail_ms": "p%s %s" % ("/".join(sorted({"%g" % p for p, _ in tails})), per_rep)}
    return metrics, notes


def per_layer(reps):
    layer_map = layers.load()
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    metrics = {}
    for name, unit, _ in layers.metric_specs(layer_map):
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall"] for r in traced)
                     - statistics.median(r["wall"] for r in untraced))
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = (value, unit)
    return metrics, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "orbitduality", "__init__.py")):
        sys.exit("perfbench: no package source at %s" % os.path.join(ROOT, "src"))

    reps = run_reps(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        metrics, notes = per_layer(reps)
    else:
        metrics, notes = end_to_end(args.workload, reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = all(r["wrong"] == 0 for r in reps)
    print("workload %s seed %d trace %d: %d reps (%d traced)"
          % (args.workload, args.seed, args.trace, len(reps),
             sum(r["traced"] for r in reps)))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-44s %14.6g %-6s%s" % (name, value, unit, "  (%s)" % note if note else ""))
    print("%-44s %14.6g %-6s  (%d of %d items; %s)"
          % ("fail_frac", failed / attempted, "ratio", failed, attempted,
             "answers correct" if correct else "WRONG ANSWERS"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    main()
