"""Outside-in tracer for the traced benchmark run.

The tracer is installed in a child process after ``anisofield.cli`` is
imported.  It wraps every public function defined in each traced module
(the layers), and rebinds each wrapper in every ``anisofield`` module
namespace that holds the original, so calls through ``from .x import f``
are traced too.  A public function added later is traced without editing
the benchmark.  A traced function that returns a dataclass holding plain
functions (``models.density_parts`` and its ``DensityParts``) gets those
functions traced as spans named ``<Class>.<field>``.

Spans are kept in memory as ``[layer, name, start, end, parent, error,
info]`` and written out as JSON when the child ends; :func:`per_layer`
turns them into the per-layer metrics.  Self time is a span's duration
minus the part of it that its child spans cover.
"""

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "anisofield"
LAYERS = ("cli", "fileio", "models", "quadrature", "variogram", "kriging",
          "simulate")

UNITS = {
    "quadrature.calls": "count", "quadrature.self_s": "s",
    "models.density_s": "s", "models.density_points": "points",
    "variogram.calls": "count", "variogram.distinct_lags": "count",
    "variogram.distinct_ratio": "1", "variogram.refused": "count",
    "variogram.self_s": "s",
    "kriging.calls": "count", "kriging.self_s": "s", "kriging.jittered": "count",
    "simulate.calls": "count", "simulate.self_s": "s", "simulate.cells": "count",
    "fileio.calls": "count", "fileio.self_s": "s", "fileio.bytes": "bytes",
    "cli.self_s": "s",
    **{f"{layer}.sloc": "lines" for layer in LAYERS},
    "trace.overhead_frac": "1",
}


def _canonical_lag(h):
    """Lag with its first nonzero component made positive (v is even)."""
    lag = [float(x) for x in h]
    first = next((x for x in lag if x != 0.0), 0.0)
    return [-x for x in lag] if first < 0 else lag


_RAISED = object()


def _probe(layer, name):
    """Counter extractor for one traced function, or None.

    Each gets (args, kwargs, result); result is _RAISED when the call raised.
    """
    if name == "variogram_numeric":
        return lambda a, k, r: {"lag": _canonical_lag(k["h"] if "h" in k else a[1])}
    if name == "krige":
        return lambda a, k, r: None if r is _RAISED else {"jitter": float(r.jitter)}
    if name == "multi_copy_field":
        return lambda a, k, r: None if r is _RAISED else {
            "cells": int(r.metadata["n_cells"])}
    if name in ("DensityParts.outer_map", "DensityParts.point"):
        return lambda a, k, r: None if r is _RAISED else {
            "points": int(getattr(r, "size", 1))}
    if layer == "fileio" and name.startswith("write_"):
        return lambda a, k, r: None if r is _RAISED else {
            "bytes": os.path.getsize(k.get("path", a[0]))}
    return None


class Tracer:
    """Span recorder; :meth:`install` patches the loaded package."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, layer, attr)
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])

    def _wrap(self, func, layer, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = _probe(layer, name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [layer, name, clock(), None, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            result = _RAISED
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if probe is not None:
                    span[6] = probe(args, kwargs, result)
            return self._trace_fields(result, layer)

        return traced

    def _trace_fields(self, result, layer):
        if not dataclasses.is_dataclass(result) or isinstance(result, type):
            return result
        funcs = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
                 if inspect.isfunction(getattr(result, f.name))}
        if not funcs:
            return result
        cls = type(result).__name__
        return dataclasses.replace(result, **{
            key: self._wrap(func, layer, f"{cls}.{key}") for key, func in funcs.items()})

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def per_layer(spans):
    """Per-layer metrics of one traced child (without sloc and overhead).

    ``<layer>.calls`` counts entries into the layer from another layer;
    ``variogram.calls`` counts every ``variogram_numeric`` call, as the
    distinct-lag ratio is taken over those.
    """
    children = defaultdict(list)
    for span in spans:
        if span[4] >= 0:
            children[span[4]].append((span[2], span[3]))
    self_s = dict.fromkeys(LAYERS, 0.0)
    entries = dict.fromkeys(LAYERS, 0)
    totals = defaultdict(int)
    lags = set()
    m = {}
    for i, (layer, name, start, end, parent, error, info) in enumerate(spans):
        self_s[layer] += (end - start) - _covered(children[i])
        entry = parent < 0 or spans[parent][0] != layer
        entries[layer] += entry
        info = info or {}
        if name.startswith("DensityParts."):
            totals["models.density_s"] += end - start
            totals["models.density_points"] += info.get("points", 0)
        elif name == "variogram_numeric":
            totals["variogram.calls"] += 1
            totals["variogram.refused"] += error == "QuadratureError"
            lags.add(tuple(info["lag"]))
        elif name == "krige":
            totals["kriging.jittered"] += info.get("jitter", 0.0) > 0
        elif name == "multi_copy_field":
            totals["simulate.cells"] += info.get("cells", 0)
        if layer == "fileio" and entry:
            totals["fileio.bytes"] += info.get("bytes", 0)
    for layer in ("quadrature", "kriging", "simulate", "fileio"):
        m[f"{layer}.calls"] = entries[layer]
    for layer in LAYERS:
        if layer != "models":
            m[f"{layer}.self_s"] = self_s[layer]
    for key in ("models.density_s", "models.density_points", "variogram.calls",
                "variogram.refused", "kriging.jittered", "simulate.cells",
                "fileio.bytes"):
        m[key] = totals[key]
    m["variogram.distinct_lags"] = len(lags)
    calls = m["variogram.calls"]
    m["variogram.distinct_ratio"] = len(lags) / calls if calls else 0.0
    return m


def sloc(src_dir):
    """Non-blank source lines of each layer's module."""
    out = {}
    for layer in LAYERS:
        with open(os.path.join(src_dir, f"{layer}.py")) as fh:
            out[f"{layer}.sloc"] = sum(1 for line in fh if line.strip())
    return out
