"""Per-layer counts and times from wrappers around riskroute's public callables.

Tracing leaves the package's source alone.  `Tracer.install` replaces every
public function of the layer modules, and `__call__` / `knots_between` of
every latency-function class, with a timing wrapper, in each riskroute
module that holds a reference to it; `Tracer.uninstall` restores the
originals.  Private helpers are not wrapped, so their time is the self time
of the public call that runs them.

Spans (name, start, end, parent) are kept in memory for instance operations
and for the outermost solver, analysis, serialization, instances and
synthetic call of each nest, and written out by `write_spans` once the run
ends.  Function evaluations and network calls are far too many for a span
each (about 1.3M evaluations in one level-5 mean-stdev solve), so each adds
its count and time to the span that encloses it.

A layer's self time is the duration of its calls minus the time they spent
in other wrapped calls; its busy time is the duration of its outermost
calls (a layer calling itself is counted once).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("functions", "network", "solver", "analysis", "instances",
          "synthetic", "serialization")
# Layers whose calls are folded into the enclosing span instead of opening one.
_AGGREGATED = ("functions", "network")
_FUNCTION_METHODS = ("__call__", "knots_between")


class _Frame:
    __slots__ = ("layer", "child", "span")

    def __init__(self, layer, span):
        self.layer = layer
        self.child = 0.0
        self.span = span


class Tracer:
    """Collects per-callable counts and per-layer times while installed."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self.calls = defaultdict(lambda: [0, 0.0])    # "layer.name" -> [count, s]
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.counts = defaultdict(float)              # values seen in results
        self.residual_max = 0.0
        self.min_slack = math.inf
        self.spans: list[dict] = []
        root = self._open_span("run", "run", None)
        self._stack = [_Frame("bench", root)]

    # -- spans ----------------------------------------------------------
    def _open_span(self, layer, name, parent):
        span = {"id": len(self.spans), "parent": parent, "layer": layer,
                "name": name, "start": time.perf_counter(), "end": None,
                "agg": defaultdict(lambda: [0, 0.0])}
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def instance(self, name: str):
        """One instance operation as a span."""
        span = self._open_span("instance", name, self._stack[-1].span["id"])
        self._stack.append(_Frame("bench", span))
        try:
            yield
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span["end"] is None:
                    span["end"] = time.perf_counter()
                fh.write(json.dumps({**span, "agg": dict(span["agg"])}) + "\n")

    # -- wrappers -------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        import riskroute.functions as functions

        for obj in vars(functions).values():
            if inspect.isclass(obj) and issubclass(obj, functions.LatencyFn) \
                    and obj is not functions.LatencyFn:
                for meth in _FUNCTION_METHODS:
                    if meth in vars(obj):
                        self._patch(obj, meth, self._leaf(vars(obj)[meth],
                                                          f"functions.{meth}"))
        for layer in LAYERS[1:]:
            module = importlib.import_module(f"riskroute.{layer}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapper = self._call(fn, layer, name)
                for holder in [m for n, m in sys.modules.items()
                               if n == "riskroute" or n.startswith("riskroute.")]:
                    for ref, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, ref, wrapper)

    def uninstall(self) -> None:
        for holder, ref, original in reversed(self._originals):
            setattr(holder, ref, original)
        self._originals.clear()

    def _patch(self, holder, ref, wrapper) -> None:
        self._originals.append((holder, ref, vars(holder)[ref]))
        setattr(holder, ref, wrapper)

    def _leaf(self, fn, key):
        """Wrapper for a latency-function method: count and time only."""
        clock = time.perf_counter
        tracer = self

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            stat = tracer.calls[key]
            stat[0] += 1
            stat[1] += dt
            tracer.self_s["functions"] += dt
            frame = tracer._stack[-1]
            frame.child += dt
            agg = frame.span["agg"][key]
            agg[0] += 1
            agg[1] += dt
            return out

        return wrapper

    def _call(self, fn, layer, name):
        key = f"{layer}.{name}"
        observe = _OBSERVERS.get(layer, _ignore)
        clock = time.perf_counter
        tracer = self
        spans = layer not in _AGGREGATED

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            outermost = parent.layer != layer
            span = parent.span
            if spans and outermost:
                span = tracer._open_span(layer, name, span["id"])
            frame = _Frame(layer, span)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if span is not parent.span:
                    span["end"] = t0 + dt
                else:
                    agg = span["agg"][key]
                    agg[0] += 1
                    agg[1] += dt
                stat = tracer.calls[key]
                stat[0] += 1
                stat[1] += dt
                tracer.self_s[layer] += dt - frame.child
                parent.child += dt
                if outermost:
                    tracer.busy_s[layer] += dt
            observe(tracer, name, args, out)
            return out

        return wrapper

    # -- metrics --------------------------------------------------------
    def count(self, key: str) -> int:
        return self.calls[key][0]

    def time(self, key: str) -> float:
        return self.calls[key][1]


def _ignore(tracer, name, args, out) -> None:
    pass


def _observe_solver(tracer, name, args, out) -> None:
    if not name.startswith("solve_"):
        return
    kind = "rnwe" if name == "solve_rnwe" else "rawe"
    tracer.counts[f"solver.{kind}.iterations"] += out.iterations
    if not out.converged:
        tracer.counts["solver.nonconverged"] += 1
    tracer.residual_max = max(tracer.residual_max, out.vi_residual)


def _observe_network(tracer, name, args, out) -> None:
    if name == "enumerate_paths":
        tracer.counts["network.paths_enumerated"] += len(out)


def _observe_analysis(tracer, name, args, out) -> None:
    if name == "check_bound" and "inapplicable" not in out.note:
        tracer.min_slack = min(tracer.min_slack, out.slack)


def _observe_serialization(tracer, name, args, out) -> None:
    if name.startswith("dumps_"):
        tracer.counts["serialization.bytes"] += len(out)
    elif name.startswith("loads_"):
        tracer.counts["serialization.bytes"] += len(args[0])


_OBSERVERS = {"solver": _observe_solver, "network": _observe_network,
              "analysis": _observe_analysis,
              "serialization": _observe_serialization}
