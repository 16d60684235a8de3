"""The package API that the benchmark in `perfbench/` relies on.

The benchmark's own self-tests (`python3 -m pytest -q perfbench`) exercise
it end to end; these tests only read its files, so that a renamed function
or a dropped keyword argument fails here too.
"""

import ast
import contextlib
import glob
import importlib
import io
import inspect
import json
import os

from orbitduality import oracle, verify
from orbitduality.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
PACKAGE = os.path.join(ROOT, "src", "orbitduality")


def _resolve(name):
    """'oracle.verify_min' -> the object it names in the package."""
    module, _, attr = name.rpartition(".")
    return getattr(importlib.import_module("orbitduality." + module), attr)


def _layer_map_names():
    with open(os.path.join(PERFBENCH, "layers.json")) as fh:
        layer_map = json.load(fh)
    names = list(layer_map["unwrapped"])
    for group in layer_map["map"]:
        names += group.get("primitives", []) + group.get("suites", [])
    return names


def _workloads_tree():
    with open(os.path.join(PERFBENCH, "workloads.py")) as fh:
        return ast.parse(fh.read())


def _literal(name):
    """The literal bound to `name` in perfbench/workloads.py, read without
    running it."""
    for node in _workloads_tree().body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no %s" % name)


def test_layer_map_names_resolve_to_callables():
    names = _layer_map_names()
    assert names
    assert [name for name in names if not callable(_resolve(name))] == []


def test_workload_imports_resolve():
    imported = [(node.module, alias.name) for node in _workloads_tree().body
                if isinstance(node, ast.ImportFrom) and node.module.startswith("orbitduality")
                for alias in node.names]
    assert imported
    for module, attr in imported:
        # `from package import submodule` needs no attribute before the import
        if not hasattr(importlib.import_module(module), attr):
            importlib.import_module(module + "." + attr)


def test_sweep_arguments_bind_to_their_suites():
    plans = [entry for plan in _literal("SWEEPS").values() for entry in plan]
    assert plans
    for suite, kwargs, _ in plans:
        inspect.signature(getattr(verify, suite)).bind(**kwargs)


def test_malformed_queries_exit_with_one_error_line():
    # the cli-queries workload counts any other outcome as a failed query
    queries = _literal("MALFORMED")
    assert queries
    for argv in queries:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--json", *argv])
        lines = err.getvalue().splitlines()
        assert (code, out.getvalue(), len(lines)) == (1, "", 1), argv
        assert lines[0].startswith("error:"), argv


def test_minimality_runs_under_a_counting_tester(monkeypatch):
    # the benchmark's counting hook replaces the closure membership_tester
    # returns with a plain one-argument function, so the shell may only call it
    real, calls = oracle.membership_tester, []

    def counted(*args, **kwargs):
        test = real(*args, **kwargs)

        def counted_test(halves):
            calls.append(halves)
            return test(halves)
        return counted_test

    monkeypatch.setattr(oracle, "membership_tester", counted)
    rep = verify.verify_minimality(max_rank=4)
    assert rep["passed"] and calls


def _references(top):
    """The names a top-level statement refers to: every name, attribute and
    imported name in it, less the name it defines.  Docstrings are strings,
    so they refer to nothing."""
    own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name != own:
            yield name


def test_every_public_function_is_used_by_the_package():
    """A public function or class that no package code refers to is
    test-only or dead code, unless the benchmark uses it: the layer map
    names it, or perfbench/workloads.py imports it."""
    pinned = {tuple(name.split(".")) for name in _layer_map_names()}
    pinned |= {(node.module.rpartition(".")[2], alias.name)
               for node in _workloads_tree().body
               if isinstance(node, ast.ImportFrom) and node.module.startswith("orbitduality")
               for alias in node.names}
    defined, referenced = [], set()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.basename(path)[:-len(".py")]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                defined.append((module, top.name))
            referenced.update(_references(top))
    assert len(defined) > 100 and pinned
    unused = [".".join(d) for d in defined if d[1] not in referenced and d not in pinned]
    assert unused == []
