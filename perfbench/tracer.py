"""Outside-in per-layer spans for the traced benchmark run.

The tracer wraps public library functions from the benchmark's side: for
each layer below it takes the function object from its home module and
rebinds every attribute of every loaded ``curvflow`` module that *is*
that object.  Names imported with ``from .x import f`` are thereby
covered too.  Nothing inside the library changes.

Each call becomes a span (layer, item id, parent span, start, end) kept
in memory and written out when the run ends.  A layer's self time is its
span's duration minus the time covered by its child spans.  Everything
runs on one thread, so no layer ever waits on a queue or a lock: the
spans measure busy time only.  Work counters are read from arguments and
return values at the same boundaries.  The tracer's own bookkeeping in
those readers is excluded from every span.

A layer whose function no longer exists, or is never called, reports
zero calls.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# the resolvent layer is split by p; these are the p the workloads use
RESOLVENT = "plaplace.resolvent"
RESOLVENT_PS = (1.0, 1.5, 2.0, 3.0)
# criterion 8's bound on the gap between ric_r's sampled and exact bounds
RIC_GAP = 1e-6


def p_key(p: float) -> str:
    return f"p{float(p):g}".replace(".", "_")


@dataclass
class Layer:
    """One wrapped function: metric prefix, home module, attribute name,
    and an optional reader that updates counters after each call."""

    name: str
    module: str
    attr: str
    counters: tuple[str, ...] = ()
    read: Callable | None = None
    raises: tuple[str, str] | None = None  # (exception class, counter)


@dataclass
class Stats:
    calls: int = 0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _read_lp(st: Stats, args, kwargs, res) -> None:
    st.add("pivots", res.n_pivots)
    st.add("zero_pivot_calls", res.n_pivots == 0)


def _read_wasserstein(st: Stats, args, kwargs, res) -> None:
    st.add("cells", args[0].support.size * args[1].support.size)


def _read_certificate(st: Stats, args, kwargs, res) -> None:
    st.peak("max_gap", float(res[1]))


def _read_flow(st: Stats, args, kwargs, res) -> None:
    st.add("iterations", res.final.iteration)
    st.add("deletions", len(res.final.deletion_log))


def _read_resolvent(st: Stats, args, kwargs, sol) -> None:
    st.add("inner_iters", sol.iterations)
    st.add("warm_calls", _arg(args, kwargs, 4, "x0") is not None)
    if sol.subgradient_selection is not None:
        g, f = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "f")
        eps = _arg(args, kwargs, 3, "eps")
        st.peak("membership_dev_max", membership_deviation(g, f, eps, sol))


def membership_deviation(g, f, eps: float, sol) -> float:
    """Worst |h - (1/m) sum_y w s_xy| for h = (g - f) / eps: the h-space
    deviation that ``Delta1Membership.verify`` compares with its tol."""
    h = (sol.g - f) / eps
    achieved = (g.weights * sol.subgradient_selection).sum(axis=1) / g.measure
    return float(abs(achieved - h).max())


def _read_iterate(st: Stats, args, kwargs, res) -> None:
    st.add("steps", res.iterations)


def _read_stages(st: Stats, args, kwargs, res) -> None:
    st.add("stages", len(res.stages))


def _read_ric(st: Stats, args, kwargs, res) -> None:
    st.add("loose_bounds", res.upper - res.lower >= RIC_GAP)


LAYERS = (
    Layer("simplex.solve_from_basis", "simplex", "solve_from_basis",
          ("pivots", "zero_pivot_calls"), _read_lp),
    Layer("simplex.solve_standard_lp", "simplex", "solve_standard_lp",
          ("pivots",), _read_lp),
    Layer("transport.wasserstein", "transport", "wasserstein",
          ("cells",), _read_wasserstein),
    Layer("transport.dual_certificate", "transport", "dual_certificate",
          ("max_gap",), _read_certificate),
    Layer("transport.constrained_transport_max", "transport",
          "constrained_transport_max", ("infeasible",),
          raises=("InfeasibleError", "infeasible")),
    Layer("curvature.vertex_measure", "curvature", "vertex_measure"),
    Layer("curvature.curvature_report", "curvature", "curvature_report"),
    Layer("curvature.kappa_lly", "curvature", "kappa_lly", ("agree_failures",),
          raises=("CurvatureError", "agree_failures")),
    Layer("curvature.modified_kappa_phi", "curvature", "modified_kappa_phi"),
    Layer("graphs.shortest_path_metric", "graphs", "shortest_path_metric"),
    Layer("graphs.connected_components", "graphs", "connected_components"),
    Layer("ricci_flow.run_flow", "ricci_flow", "run_flow",
          ("iterations", "deletions"), _read_flow),
    Layer("ricci_flow.flow_step", "ricci_flow", "flow_step"),
    Layer("ricci_flow.edge_deletion_step", "ricci_flow", "edge_deletion_step"),
    Layer("ricci_flow.normalize_metric", "ricci_flow", "normalize_metric"),
    Layer("cli.main", "cli", "main"),
    Layer(RESOLVENT, "plaplace", "resolvent",
          ("inner_iters", "warm_calls"), _read_resolvent),
    Layer("chains.iterate_normalized", "chains", "iterate_normalized",
          ("steps",), _read_iterate),
    Layer("separation.lipschitz_extend", "separation", "lipschitz_extend"),
    Layer("separation.separation_flow_linear", "separation",
          "separation_flow_linear"),
    Layer("separation.separation_flow_p", "separation", "separation_flow_p",
          ("stages",), _read_stages),
    Layer("separation.ric_r", "separation", "ric_r", ("loose_bounds",), _read_ric),
)


def _sublayers(layer: Layer) -> list[str]:
    if layer.name != RESOLVENT:
        return [layer.name]
    return [f"{RESOLVENT}.{p_key(p)}" for p in RESOLVENT_PS]


def _span_name(layer: Layer, args, kwargs) -> str:
    if layer.name != RESOLVENT:
        return layer.name
    p = _arg(args, kwargs, 2, "p")
    return f"{RESOLVENT}.{p_key(p) if isinstance(p, (int, float)) else 'other'}"


# counter -> (metric suffix, unit, reduction); any other counter is a
# per-item sum with unit 1/item
_REDUCTIONS = {
    "zero_pivot_calls": ("zero_pivot_ratio", "ratio", "per_call"),
    "cells": ("cells_mean", "cells", "per_call"),
    "max_gap": ("max_gap", "abs", "peak"),
    "membership_dev_max": ("membership_dev_max", "abs", "peak"),
}


def _reduction(counter: str) -> tuple[str, str, str]:
    return _REDUCTIONS.get(counter, (counter, "1/item", "per_item"))


def metric_units(layers=LAYERS) -> dict[str, str]:
    """Every per-layer metric name with its unit (counts are per item)."""
    units: dict[str, str] = {}
    for layer in layers:
        for name in _sublayers(layer):
            units[f"{name}.calls"] = "1/item"
            units[f"{name}.self_s"] = "s/item"
            for c in layer.counters:
                suffix, unit, _ = _reduction(c)
                units[f"{name}.{suffix}"] = unit
    # counters of one layer only: p = 1 alone has a sign selection
    units[f"{RESOLVENT}.p1.membership_dev_max"] = "abs"
    units["transport.dual_certificate.lp_fallbacks"] = "1/item"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Span recorder; ``install`` rebinds, ``uninstall`` restores.

    The traced run installs the wrappers around each item only, so
    untimed work (input generation, outcome checks) is never traced.
    """

    def __init__(self, layers=LAYERS) -> None:
        self.layers = layers
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.stats: dict[str, Stats] = {}
        for layer in layers:
            for name in _sublayers(layer):
                self._layer_id(name)
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.item = -1
        self._stack: list[list] = []  # [span index, start, child time]
        self._excluded = 0.0
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[Callable, Callable]] = {}

    def _layer_id(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stats()
        return self.index[name]

    def _clock(self) -> float:
        return time.perf_counter() - self._excluded

    def install(self) -> None:
        """Rebind every ``curvflow`` module attribute that is a layer's
        function to its wrapper (idempotent per call to ``uninstall``)."""
        if not self._wrappers:
            for layer in self.layers:
                home = sys.modules.get(f"curvflow.{layer.module}")
                original = getattr(home, layer.attr, None)
                if callable(original):
                    self._wrappers[id(original)] = (original, self._wrap(layer, original))
        for key, mod in list(sys.modules.items()):
            if key != "curvflow" and not key.startswith("curvflow."):
                continue
            for attr, value in list(vars(mod).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            name = _span_name(layer, args, kwargs)
            lid = self._layer_id(name)
            st = self.stats[name]
            parent = self._stack[-1][0] if self._stack else -1
            span = len(self.spans)
            self.spans.append((lid, self.item, parent, 0.0, 0.0))
            frame = [span, self._clock(), 0.0]
            self._stack.append(frame)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self._close(frame, st)
                if layer.raises and type(exc).__name__ == layer.raises[0]:
                    st.add(layer.raises[1], 1)
                raise
            self._close(frame, st)
            if layer.read is not None:
                t0 = time.perf_counter()
                try:
                    layer.read(st, args, kwargs, result)
                except Exception:
                    # a counter whose source the library no longer
                    # exposes stays 0; the run goes on
                    pass
                self._excluded += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _close(self, frame: list, st: Stats) -> None:
        end = self._clock()
        span, start, child = frame
        self._stack.pop()
        duration = end - start
        st.calls += 1
        st.self_s += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        lid, item, parent, _, _ = self.spans[span]
        self.spans[span] = (lid, item, parent, start, end)

    def lp_fallbacks(self) -> int:
        """Certificates that fell back to solving the dual LP: a
        ``dual_certificate`` span with a ``solve_standard_lp`` child."""
        cert = self.index["transport.dual_certificate"]
        lp = self.index["simplex.solve_standard_lp"]
        parents = {parent for lid, _, parent, _, _ in self.spans if lid == lp}
        return sum(1 for s in parents if s >= 0 and self.spans[s][0] == cert)

    def summary(self, items: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics; counts and self time are per traced item."""
        units = metric_units(self.layers)
        out = dict.fromkeys(units, 0.0)
        per = 1.0 / max(items, 1)
        for name in self.names:
            st = self.stats[name]
            out[f"{name}.calls"] = st.calls * per
            out[f"{name}.self_s"] = st.self_s * per
            for key, value in st.counters.items():
                suffix, _, how = _reduction(key)
                if how == "per_call":
                    value = value / st.calls if st.calls else 0.0
                elif how == "per_item":
                    value = value * per
                out[f"{name}.{suffix}"] = value
        out["transport.dual_certificate.lp_fallbacks"] = self.lp_fallbacks() * per
        out["trace.overhead_ratio"] = overhead
        return {k: v for k, v in out.items() if k in units}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"layers": self.names,
                       "columns": ["layer", "item", "parent", "start_s", "end_s"],
                       "spans": self.spans}, fh)
