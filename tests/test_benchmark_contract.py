"""The package API that the benchmark in `perfbench/` relies on.

The benchmark's own self-tests (`python3 -m pytest -q perfbench`) exercise
it end to end; these tests only read its files, so that a renamed function
or a dropped keyword argument fails here too.
"""

import ast
import importlib
import inspect
import json
import os

from orbitduality import verify

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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


def _sweeps():
    """The SWEEPS literal of perfbench/workloads.py, read without running it."""
    for node in _workloads_tree().body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SWEEPS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no SWEEPS")


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
    plans = [entry for plan in _sweeps().values() for entry in plan]
    assert plans
    for suite, kwargs, _ in plans:
        inspect.signature(getattr(verify, suite)).bind(**kwargs)
