"""The layer map (layers.json): what the tracer wraps and which per-layer
metrics a traced run reports."""

import functools
import json
import os

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def load():
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)


def primitives(layer_map):
    return [name for group in layer_map["map"] for name in group.get("primitives", ())]


def suites(layer_map):
    return [name for group in layer_map["map"] for name in group.get("suites", ())]


def counters(layer_map):
    return [name for group in layer_map["map"] for name in group.get("counters", ())]


def make_tracer(layer_map, counts):
    """A Tracer over the mapped layers that also fills `counts`."""
    return Tracer(layer_map["package"], layer_map["layers"],
                  primitives(layer_map) + suites(layer_map),
                  layer_map["unwrapped"], counting_hooks(counts))


def metric_specs(layer_map):
    """[(name, unit, better)] of every per-layer metric, in report order."""
    specs = []
    for layer in layer_map["layers"]:
        specs += [(layer + ".calls", "count", "lower"), (layer + ".self_s", "s", "lower")]
    for name in primitives(layer_map):
        specs += [(name + ".calls", "count", "lower"), (name + ".self_s", "s", "lower")]
    specs += [(name, "ratio", "higher") if name.endswith("_ratio") else (name, "count", "lower")
              for name in counters(layer_map)]
    specs += [(name + ".self_s", "s", "lower") for name in suites(layer_map)]
    specs += [("bench.self_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return specs


def counting_hooks(counts):
    """Hooks for Tracer: count shell points (the sum of Certificate.shell_size)
    and the membership tests made by the closures membership_tester returns,
    with how many found a member."""
    for key in ("shell_points", "tests", "members"):
        counts.setdefault(key, 0)

    def count_shell(verify_min):
        @functools.wraps(verify_min)
        def counted(*args, **kwargs):
            cert = verify_min(*args, **kwargs)
            counts["shell_points"] += cert.shell_size
            return cert
        return counted

    def count_tests(membership_tester):
        @functools.wraps(membership_tester)
        def counted(*args, **kwargs):
            test = membership_tester(*args, **kwargs)

            def counted_test(halves):
                member = test(halves)
                counts["tests"] += 1
                counts["members"] += bool(member)
                return member
            return counted_test
        return counted

    return {"oracle.verify_min": count_shell, "oracle.membership_tester": count_tests}


def metrics(layer_map, summary, counts):
    """Per-layer metric values of one traced rep (trace.overhead_s excluded:
    it needs an untraced rep too)."""
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for name in layer_map["layers"] + primitives(layer_map):
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = self_s.get(name, 0.0)
    tests = counts["tests"]
    out["oracle.shell_points"] = counts["shell_points"]
    out["oracle.membership_tests"] = tests
    out["oracle.member_ratio"] = counts["members"] / tests if tests else 0.0
    for name in suites(layer_map):
        out[name + ".self_s"] = self_s.get(name, 0.0)
    out["bench.self_s"] = self_s.get("bench", 0.0)
    return out
