"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from orbitduality import verify  # noqa: E402


def _tracer(counts=None):
    return layers.make_tracer(layers.load(), {} if counts is None else counts)


def _bindings():
    return {(name, attr): obj for name, mod in sys.modules.items()
            if name.startswith("orbitduality") and mod is not None
            for attr, obj in vars(mod).items()}


def test_zero_checks_or_failed_report_raise_fail_frac():
    ok = {"checked": 5, "passed": True, "failures": []}
    assert workloads.score_reports([ok], [5]) == (5, 0)
    assert workloads.score_reports([dict(ok, checked=0)], [5]) == (5, 5)
    assert workloads.score_reports([dict(ok, checked=4)], [5]) == (5, 5)
    failed = dict(ok, passed=False, failures=[("a",), ("b",)])
    assert workloads.score_reports([ok, failed], [5, 5]) == (10, 2)
    assert workloads.score_reports([dict(ok, passed=False)], [5]) == (5, 1)


def test_query_check_counts_crashes_and_wrong_answers():
    expected = {"dual.text": "C:[2,2]"}
    good = (0, json.dumps({"dual": {"text": "C:[2,2]"}}), "", None)
    assert workloads.check_query(expected, good) == "ok"
    assert workloads.check_query({"dual.text": "C:[4]"}, good) == "wrong"
    assert workloads.check_query(expected, (None, "", "", "KeyError")) == "wrong"
    assert workloads.check_query(None, (1, "", "error: bad\n", None)) == "ok"
    assert workloads.check_query(None, (None, "", "", "KeyError")) == "failed"
    assert workloads.check_query(None, (1, "", "error: a\nerror: b\n", None)) == "failed"


def test_queries_follow_the_seed():
    first = workloads.make_queries(7, 0)
    assert first == workloads.make_queries(7, 0)
    assert first != workloads.make_queries(8, 0)
    assert len(first) == workloads.QUERIES_PER_REP
    malformed = [argv for argv, expected in first if expected is None]
    assert len(malformed) == len(workloads.MALFORMED) * workloads.MALFORMED_REPEAT


def test_layer_map_names_real_functions():
    layer_map = layers.load()
    wrapped = set(_tracer().targets().values())
    assert set(layers.primitives(layer_map) + layers.suites(layer_map)) <= wrapped
    for name in layer_map["unwrapped"]:
        module, _, fn = name.partition(".")
        assert callable(getattr(sys.modules["orbitduality." + module], fn))
        assert name not in wrapped


def test_tracer_restores_every_rebound_name():
    before = _bindings()
    tracer = _tracer()
    assert tracer.install() > 0
    try:
        during = _bindings()
        # `from .partitions import dominates` copies are rebound too
        assert during["orbitduality.verify", "dominates"] is not before["orbitduality.verify", "dominates"]
        assert during["orbitduality.oracle", "collapse"] is not before["orbitduality.oracle", "collapse"]
        assert during["orbitduality.partitions", "size"] is before["orbitduality.partitions", "size"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_self_times_sum_to_traced_wall():
    def body():
        return [verify.verify_minimality(max_rank=4, jobs=1), verify.verify_duality(max_rank=4)]

    t0 = time.perf_counter()
    body()
    untraced = time.perf_counter() - t0
    counts = {}
    tracer = _tracer(counts)
    tracer.install()
    try:
        t0 = time.perf_counter()
        reports, root = tracer.root(body)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert all(r["passed"] for r in reports)
    summary = tracer.summary()
    layer_self = sum(summary["self_s"].get(name, 0.0) for name in layers.load()["layers"] + ["bench"])
    assert abs(sum(tracer.self_times()) - root) < 1e-9 * max(1, len(tracer.start))
    assert abs(layer_self - root) < 1e-6
    assert root <= traced < root + 0.01
    assert traced < 5 * untraced + 0.05        # tracing overhead stays bounded
    assert summary["calls"]["verify"] == 2
    assert counts["tests"] > 0 and counts["shell_points"] > 0


def test_benchmark_json_matches_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == run.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        layers.metric_specs(layers.load())
    reps = [{"wall": 1.0 + i / 10, "attempted": 10, "setup": 0.1, "rss_kib": 2048,
             "latencies": [0.001] * 20, "speed": 0.5} for i in range(3)]
    for rep in reps:
        run.scale_times(rep, rep["speed"])
    metrics, _ = run.end_to_end("cli-queries", reps)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}


def test_scale_times_scales_every_time_and_nothing_else():
    rep = {"wall": 2.0, "setup": 0.2, "rss_kib": 2048, "attempted": 10,
           "latencies": [0.01, 0.02], "layers": {"oracle.calls": 7, "oracle.self_s": 1.0}}
    run.scale_times(rep, 0.5)
    assert rep["wall"] == 1.0 and rep["raw_wall"] == 2.0 and rep["setup"] == 0.1
    assert rep["latencies"] == [0.005, 0.01]
    assert rep["layers"] == {"oracle.calls": 7, "oracle.self_s": 0.5}
    assert rep["rss_kib"] == 2048 and rep["attempted"] == 10


def test_sampler_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.01) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 10
    assert 0 < sampler.spent < 0.3
    assert 0.05 < sampler.speed() < 20
    assert speed.Sampler().speed() == 1.0


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(1000))) == (99.0, 989)
    assert run.tail(list(range(200))) == (95.0, 189)
    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_refuses_to_run_without_the_package_source():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "minimality-r7",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
