"""Span tracer that times the package's layers from outside.

`Tracer.install` rebinds public functions of the package modules to timing
wrappers.  Every module-level binding of a wrapped function is rebound,
including the copies that `from .x import y` leaves in other modules, and
`Tracer.uninstall` puts every original back.

A span records (name, start, end, parent).  Spans are kept in memory in flat
arrays and written out once, after the traced body has finished.  A wrapped
function opens a span

* on every call when it is a primitive (named in the layer map), and
* otherwise only when it is entered from another layer, so that the layer's
  figures are measured at cross-module boundaries.

Generator functions are not wrapped: their bodies run inside the consumer's
frames, after the call has returned, so a call span cannot bracket them.
Their time counts to the layer that consumes them.
"""

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

ROOT = "bench"


class Tracer:
    def __init__(self, package, layers, primitives, unwrapped=(), hooks=None):
        self.package = package
        self.layers = tuple(layers)
        self.primitives = frozenset(primitives)
        self.unwrapped = frozenset(unwrapped)
        self.hooks = dict(hooks or {})
        self.names = [ROOT]
        self.name_layer = [ROOT]
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.boundary = array("b")
        self._stack = [-1]
        self._layer = [ROOT]
        self._rebound = []

    # -- rebinding ---------------------------------------------------------

    def _package_modules(self):
        prefix = self.package + "."
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))]

    def targets(self):
        """{original function: qualified name} for every function to wrap."""
        out = {}
        for mod in self._package_modules():
            layer = mod.__name__.rpartition(".")[2]
            if layer not in self.layers:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                qual = "%s.%s" % (layer, obj.__name__)
                if qual not in self.unwrapped:
                    out[obj] = qual
        return out

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for fn, qual in self.targets().items():
            hooked = self.hooks[qual](fn) if qual in self.hooks else fn
            wrappers[fn] = self._wrap(hooked, qual)
        for mod in self._package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._rebound.append((mod, attr, obj))
        return len(self._rebound)

    def uninstall(self):
        while self._rebound:
            mod, attr, obj = self._rebound.pop()
            setattr(mod, attr, obj)

    # -- recording ---------------------------------------------------------

    def _name_id(self, qual, layer):
        self.names.append(qual)
        self.name_layer.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, qual):
        layer = qual.partition(".")[0]
        nid = self._name_id(qual, layer)
        always = qual in self.primitives
        stack, layers = self._stack, self._layer
        names, parents, starts, ends, boundary = (
            self.span_name, self.parent, self.start, self.end, self.boundary)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = layers[-1]
            if outer == layer and not always:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            boundary.append(outer != layer)
            ends.append(0.0)
            stack.append(idx)
            layers.append(layer)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                layers.pop()

        return traced

    def root(self, body, *args):
        """Run body(*args) inside the root span; return (result, seconds)."""
        idx = len(self.span_name)
        self.span_name.append(0)
        self.parent.append(-1)
        self.boundary.append(1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            result = body(*args)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        return result, self.end[idx] - self.start[idx]

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self):
        """{"calls": {name: n}, "self_s": {name: s}} keyed by qualified name
        and by layer.  A layer's calls are its boundary spans; its self time
        is the self time of all its spans."""
        calls, self_s = {}, {}
        for i, own in enumerate(self.self_times()):
            nid = self.span_name[i]
            qual, layer = self.names[nid], self.name_layer[nid]
            calls[qual] = calls.get(qual, 0) + 1
            self_s[qual] = self_s.get(qual, 0.0) + own
            if qual != layer:
                self_s[layer] = self_s.get(layer, 0.0) + own
                if self.boundary[i]:
                    calls[layer] = calls.get(layer, 0) + 1
        return {"calls": calls, "self_s": self_s}

    def write(self, path, run_id):
        """Write every span as columns; `request` is the index of the
        top-level span (one per call the benchmark body makes) it belongs to."""
        request = array("i")
        for i, p in enumerate(self.parent):
            request.append(i if p <= 0 else request[p])
        doc = {"run": run_id, "names": self.names, "layers": self.name_layer,
               "name": self.span_name.tolist(), "parent": self.parent.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(),
               "boundary": self.boundary.tolist(), "request": request.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
