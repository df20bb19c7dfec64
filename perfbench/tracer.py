"""Spans around the public functions of each guespec module.

``Tracer.install`` replaces every public module-level function of the
layer modules with a wrapper that records a span (id, parent, layer,
name, start, end, command id, error flag).  Names a module imported from
another layer (``montecarlo.tridiagonal_eigenvalues``,
``quadrature.normalized_hermite``) get the same wrapper as the original,
and the span belongs to the layer that defines the function.  Private
names are never touched, so refactors inside a module cannot break the
tracer; a counted name that has gone is listed in ``absent`` and its
counters stay at zero.

Spans stay in memory until the caller writes them out.  ``layer_metrics``
folds one pass's spans into per-layer calls, self time and escaped
errors; self time is a span's duration minus its direct children's, so
summed over a layer it is the time spent in that layer's own code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
from collections import defaultdict

#: Grids smaller than this are not watched by tracemalloc: tracing every
#: small temporary would double the time of the many tiny hermite calls
#: made by quadrature integrands, and their frames are far below the peak.
ALLOC_MIN_POINTS = 1000

LAYERS = ("cli", "montecarlo", "tridiagonal", "hermite", "laplace", "gegenbauer",
          "operators", "quadrature", "verify")
PACKAGE = "guespec"


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(getattr(x, "size", 1))
    try:
        return len(x)
    except TypeError:
        return 1


def _grid_size(points, args, kwargs) -> int:
    """Number of evaluation points of a hermite call, 0 if unknown."""
    if points is None:
        return 0
    try:
        value = next(iter(points(args, kwargs).values()))
    except (IndexError, KeyError):
        return 0
    return value if isinstance(value, int) else _size(value)


def _count_spectra(c, bound, result, seconds):
    c["montecarlo.spectra"] += bound["count"]
    c["montecarlo.sample_s"] += seconds


def _count_io(c, bound, result, seconds):
    c["montecarlo.io_bytes"] += os.path.getsize(bound["path"])
    c["montecarlo.io_s"] += seconds


def _count_order(c, bound, result, seconds):
    c["tridiagonal.order_sum"] += len(bound["diag"])


def _count_cells(c, bound, result, seconds):
    c["hermite.frame_cells"] += (bound["k_max"] + 1) * _size(bound["x"])


def _count_degree(c, bound, result, seconds):
    c["gegenbauer.degree_sum"] += len(bound["coefficients"]) - 1


def _count_pass(c, bound, result, seconds):
    c["operators.passes"] += 1


def _count_panels(c, bound, result, seconds):
    c["quadrature.panels"] += result.panels


def _count_nodes(c, bound, result, seconds):
    c["quadrature.rule_nodes"] += len(result.nodes)


#: (layer, function, parameters the counter reads, counter).
HOOKS = (
    ("montecarlo", "sample_spectra", ("count",), _count_spectra),
    ("montecarlo", "write_csv", ("path",), _count_io),
    ("montecarlo", "write_binary", ("path",), _count_io),
    ("tridiagonal", "tridiagonal_eigenvalues", ("diag",), _count_order),
    ("hermite", "weighted_frame", ("k_max", "x"), _count_cells),
    ("hermite", "normalized_hermite", ("k_max", "x"), _count_cells),
    ("gegenbauer", "taylor_to_basis", ("coefficients",), _count_degree),
    ("gegenbauer", "basis_to_taylor", ("coefficients",), _count_degree),
    ("operators", "correction", (), _count_pass),
    ("quadrature", "integrate_line", (), _count_panels),
    ("quadrature", "gaussian_rule", (), _count_nodes),
    ("quadrature", "semicircle_rule", (), _count_nodes),
)


def _binder(fn, names):
    """Return bound(args, kwargs) -> {name: value} for the named parameters,
    or None when the signature no longer has them."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if any(name not in params for name in names):
        return None
    slots = [(name, params.index(name)) for name in names]

    def bound(args, kwargs):
        return {name: args[i] if i < len(args) else kwargs[name] for name, i in slots}
    return bound


class Tracer:
    """Wraps the layer modules' public functions while installed."""

    def __init__(self, modules=None):
        if modules is None:
            modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        self.modules = modules
        self.spans = []
        self.counters = defaultdict(float)
        self.alloc_peak = 0
        self.command = None
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._hermite_depth = 0
        self._saved = []

    def _layer_of(self, fn):
        module = getattr(fn, "__module__", "") or ""
        for layer, mod in self.modules.items():
            if module == mod.__name__:
                return layer
        return None

    def install(self) -> None:
        hooks = {(layer, name): (params, count) for layer, name, params, count in HOOKS}
        self.absent = []
        found = set()
        wrappers = {}
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = self._layer_of(value)
                if layer is None:
                    continue
                if id(value) not in wrappers:
                    hook = hooks.get((layer, name))
                    if hook is not None:
                        found.add((layer, name))
                        bound = _binder(value, hook[0])
                        if bound is None:
                            self.absent.append(f"{layer}.{name}(parameters changed)")
                            hook = None
                        else:
                            hook = (bound, hook[1])
                    points = None
                    if layer == "hermite":
                        points = _binder(value, ("x",)) or _binder(value, ("points",))
                    wrappers[id(value)] = self._wrap(layer, name, value, hook, points)
                self._saved.append((mod, name, value))
                setattr(mod, name, wrappers[id(value)])
        self.absent += [f"{layer}.{name}" for layer, name in hooks if (layer, name) not in found]

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved = []

    def _wrap(self, layer, name, fn, hook, points):
        tracer = self
        label = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            measure_alloc = (tracer._hermite_depth == 0
                             and _grid_size(points, args, kwargs) >= ALLOC_MIN_POINTS)
            if layer == "hermite":
                tracer._hermite_depth += 1
            if measure_alloc:
                tracemalloc.start()
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                error = True
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if layer == "hermite":
                    tracer._hermite_depth -= 1
                if measure_alloc:
                    tracer.alloc_peak = max(tracer.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer.spans.append((sid, parent, layer, label, start, end, tracer.command, error))
            if hook is not None:
                bound, count = hook
                try:
                    count(tracer.counters, bound(args, kwargs), result, end - start)
                except (AttributeError, TypeError, KeyError, OSError) as exc:
                    note = f"{label}(counter failed: {type(exc).__name__})"
                    if note not in tracer.absent:
                        tracer.absent.append(note)
            return result
        return traced

    def mark(self):
        """Call before each command.  Clears the call state a command cut
        at its deadline may have left, and returns the point ``rollback``
        returns to."""
        self._stack, self._hermite_depth = [], 0
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        return len(self.spans), dict(self.counters), self.alloc_peak

    def rollback(self, mark) -> None:
        n_spans, counters, peak = mark
        del self.spans[n_spans:]
        self.counters = defaultdict(float, counters)
        self.alloc_peak = peak

    def take(self):
        """Hand over the spans, counters and allocation peak recorded so far
        and start afresh."""
        spans, counters, peak = self.spans, self.counters, self.alloc_peak
        self.spans, self.counters, self.alloc_peak = [], defaultdict(float), 0
        return spans, counters, peak


def layer_times(spans):
    """Per layer: (calls, self seconds, escaped errors) from one set of spans.

    A span's self time is its duration minus the durations of its direct
    children.  An error escapes a layer when the failing span's parent is
    in another layer or there is no parent.
    """
    layer_of = {}
    child_time = defaultdict(float)
    for sid, parent, layer, _, start, end, _, _ in spans:
        layer_of[sid] = layer
        if parent is not None:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    for sid, parent, layer, _, start, end, _, error in spans:
        calls[layer] += 1
        self_s[layer] += (end - start) - child_time[sid]
        if error and (parent is None or layer_of.get(parent) != layer):
            errors[layer] += 1
    return calls, self_s, errors


#: Per-layer metric names and units, in report order.
UNITS = {}
for _layer in LAYERS:
    UNITS.update({f"{_layer}.calls": "count", f"{_layer}.self_s": "s",
                  f"{_layer}.errors": "count"})
UNITS.update({
    "montecarlo.spectra": "count", "montecarlo.us_per_spectrum": "us",
    "montecarlo.io_bytes": "B", "montecarlo.io_s": "s",
    "tridiagonal.order_sum": "count", "tridiagonal.us_per_call": "us",
    "hermite.frame_cells": "count", "hermite.ns_per_cell": "ns",
    "hermite.peak_alloc_mib": "MiB", "cli.out_bytes": "B", "gegenbauer.degree_sum": "count",
    "operators.passes": "count", "quadrature.panels": "count", "quadrature.rule_nodes": "count",
    "trace.overhead_frac": "ratio",
})


def layer_metrics(spans, counters, alloc_peak, out_bytes) -> dict:
    """The per-layer metrics of one traced pass."""
    calls, self_s, errors = layer_times(spans)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.errors"] = errors[layer]
    spectra = counters["montecarlo.spectra"]
    m["montecarlo.spectra"] = int(spectra)
    m["montecarlo.us_per_spectrum"] = 1e6 * counters["montecarlo.sample_s"] / spectra if spectra else 0.0
    m["montecarlo.io_bytes"] = int(counters["montecarlo.io_bytes"])
    m["montecarlo.io_s"] = counters["montecarlo.io_s"]
    m["tridiagonal.order_sum"] = int(counters["tridiagonal.order_sum"])
    m["tridiagonal.us_per_call"] = (1e6 * self_s["tridiagonal"] / calls["tridiagonal"]
                                    if calls["tridiagonal"] else 0.0)
    cells = counters["hermite.frame_cells"]
    m["hermite.frame_cells"] = int(cells)
    m["hermite.ns_per_cell"] = 1e9 * self_s["hermite"] / cells if cells else 0.0
    m["hermite.peak_alloc_mib"] = alloc_peak / 2 ** 20
    m["cli.out_bytes"] = out_bytes
    m["gegenbauer.degree_sum"] = int(counters["gegenbauer.degree_sum"])
    m["operators.passes"] = int(counters["operators.passes"])
    m["quadrature.panels"] = int(counters["quadrature.panels"])
    m["quadrature.rule_nodes"] = int(counters["quadrature.rule_nodes"])
    return m


def write_spans(path, passes) -> None:
    """CSV of every span: pass, id, parent, layer, name, start, end, command, error."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("pass,id,parent,layer,name,start,end,command,error\n")
        for index, spans in passes:
            for sid, parent, layer, name, start, end, command, error in spans:
                fh.write(f"{index},{sid},{'' if parent is None else parent},{layer},{name},"
                         f"{start!r},{end!r},{command},{int(error)}\n")
