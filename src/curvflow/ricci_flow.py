"""Discrete Ollivier Ricci curvature flow with threshold edge deletion.

One flow step rescales every edge length by (1 - alpha kappa(e)), where
kappa(e) = 1 - W(mu_u, mu_v) / len(e) uses the one-step walk measures,
the path metric induced by the current lengths inside W, and the edge
value itself in the denominator — so a step is exactly the convex
combination len <- (1 - alpha) len + alpha W.  After each step, edges
whose length exceeds the deletion threshold C times an adjacent edge are
removed one at a time, longest first.

In log coordinates the step is a monotone, constant-additive chain, so
on each component of the final topology the normalized metric converges
and its curvature becomes constant; the per-edge log increments furnish
the lambda+/lambda- diagnostics whose monotonicity the proofs rely on.

``run_flow`` is the one driver: it steps one edge-length vector per edge
set, divided by its maximum on each component after every step (the flow
is scale-invariant per component); a ``WeightedGraph`` is built only
after a deletion and for the final state.  W(e) is one transport LP per
edge and step.  Each edge set gets one ``transport._Batch``, built from
its edges' walk measures, and one ``price`` call per step prices every
edge: it re-prices every edge's kept optimal tree at once and re-solves
only those that stopped being optimal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .chains import _period2
from .curvature import CurvatureReport, _walks
from .errors import ValidationError
from .graphs import WeightedGraph, _component_groups, _path_metric, _readonly
from .transport import _Batch, wasserstein  # wasserstein: perfbench's tracer test pins it

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowTraceRow",
    "FlowResult",
    "max_adjacent_ratio",
    "run_flow",
]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max-iterations"
STATUS_OSCILLATION = "oscillation"


@dataclass(frozen=True)
class FlowConfig:
    """Flow parameters.

    ``deletion_threshold`` must strictly exceed the largest initial
    length ratio over adjacent edge pairs; leave it None to default to
    twice that ratio.  Step size alpha must lie in (0, 1), which keeps
    every surviving length positive (kappa <= 1 always).
    """

    alpha: float = 0.5
    deletion_threshold: float | None = None
    tolerance: float = 1e-9
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        dt = self.deletion_threshold
        for name, value, kind in (("alpha", self.alpha, numbers.Real),
                                  ("tolerance", self.tolerance, numbers.Real),
                                  ("deletion threshold", 1.0 if dt is None else dt, numbers.Real),
                                  ("max_iterations", self.max_iterations, numbers.Integral)):
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValidationError(f"{name} must be {kind.__name__.lower()}, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValidationError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        if dt is not None and not (math.isfinite(dt) and dt > 0):
            raise ValidationError(f"deletion threshold must be finite and positive, got {dt}")


@dataclass(frozen=True)
class FlowTraceRow:
    """Step ``n``'s scalars and deleted edges, which rows compare by;
    ``kappa`` and ``normalized`` (the metric left after the deletions, by
    edge, component by component) are built from vectors when first read."""

    n: int
    lambda_plus: float  # the extremes of log(1 - alpha kappa) over the step's edges
    lambda_minus: float
    delta_sup: float  # sup over edges of |log change| of the normalized metric
    curvature_min: float
    curvature_max: float
    deleted_edges: tuple[tuple[int, int], ...]
    _kappa: tuple = field(repr=False, compare=False)  # the step's (edges, groups, kappa)
    _unit: tuple = field(repr=False, compare=False)  # the same of the normalized metric left

    @cached_property
    def kappa(self) -> CurvatureReport:
        edges, groups, kappa = self._kappa
        return CurvatureReport._from_groups(dict(zip(edges, kappa.tolist())), groups)

    @cached_property
    def normalized(self) -> dict[tuple[int, int], float]:
        _, groups, unit = self._unit
        return {e: v for _, edges, index in groups for e, v in zip(edges, unit[index].tolist())}

    def _max_spread(self) -> float:  # ``kappa.max_spread``, from the vector
        _, groups, kappa = self._kappa
        return max((float(np.ptp(kappa[index])) for _, _, index in groups), default=0.0)


@dataclass(frozen=True)
class _Topology:
    """What ``run_flow``'s steps share while the edge set stays: a graph with
    its weights and measure, the edge list (edge-length vectors follow it) with
    its endpoints, the per-component groups of edge positions, the read-only
    edge mask, an (n, n) inf array, and the ``transport._Batch`` that prices
    the edges (None until ``_step`` builds it)."""

    graph: WeightedGraph
    edges: tuple[tuple[int, int], ...]
    iu: np.ndarray
    iv: np.ndarray
    groups: list[tuple]
    adj: np.ndarray
    far: np.ndarray
    batch: _Batch | None = None

    @classmethod
    def of(cls, g: WeightedGraph) -> "_Topology":
        edges = tuple(g.edges())
        iu, iv = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        adj, far = _readonly(g.weights > 0, bool), np.full(g.weights.shape, np.inf)
        return cls(g, edges, iu, iv, _component_groups(g, edges), adj, far)

    def matrix(self, lengths: np.ndarray, base: np.ndarray | None = None) -> np.ndarray:
        """A copy of ``base`` (by default (n, n) zeros) holding ``lengths`` on the edges."""
        out = np.zeros(self.graph.weights.shape) if base is None else base.copy()
        out[self.iu, self.iv] = out[self.iv, self.iu] = lengths
        return out


@dataclass(frozen=True)
class FlowState:
    """The flow's final state: the graph left, with the last normalized
    lengths, the number of steps, each deletion as (step, edge, (length,
    shortest adjacent length)), and one trace row per step."""

    graph: WeightedGraph
    iteration: int
    deletion_log: tuple[tuple[int, tuple[int, int], tuple[float, float]], ...]
    trace: tuple[FlowTraceRow, ...]


@dataclass(frozen=True)
class FlowResult:
    final: FlowState
    limits: dict[int, dict[tuple[int, int], float]]
    growth_rate: dict[int, float]
    status: str


def _shortest_adjacent(n: int, iu: np.ndarray, iv: np.ndarray, ln: np.ndarray) -> np.ndarray:
    """Each edge's shortest adjacent length, inf if none: per endpoint, its
    shortest incident edge, or its second shortest if that is the edge."""
    incident = np.full((n, n), np.inf)
    incident[iu, iv] = incident[iv, iu] = ln
    first = incident.argmin(axis=1)
    s1 = incident.min(axis=1)
    incident[np.arange(n), first] = np.inf
    s2 = incident.min(axis=1)
    return np.minimum(np.where(first[iu] == iv, s2[iu], s1[iu]),
                      np.where(first[iv] == iu, s2[iv], s1[iv]))


def max_adjacent_ratio(g: WeightedGraph) -> float:
    """max len(e)/len(e') over pairs of edges sharing a vertex (inf past the float range)."""
    iu, iv = np.nonzero(np.triu(g.weights, k=1) > 0)
    ln = g.lengths[iu, iv]
    with np.errstate(over="ignore"):
        return float((ln / _shortest_adjacent(g.n, iu, iv, ln)).max(initial=0.0))


def _normalized(topo: _Topology, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lengths`` divided by their maximum on each component, and the
    ``math.log`` of each (``np.log`` may differ in the last ulp)."""
    unit = np.empty_like(lengths)
    for _, _, index in topo.groups:
        unit[index] = lengths[index] / lengths[index].max()
    return unit, np.fromiter(map(math.log, unit.tolist()), float, unit.size)


def _step(topo: _Topology, lengths: np.ndarray, alpha: float, n: int,
          logs: np.ndarray) -> tuple[_Topology, np.ndarray, np.ndarray, np.ndarray, FlowTraceRow]:
    """One flow step on the edge vector ``lengths``: the topology with its
    batch, the new lengths, the same normalized per component, their logs,
    and trace row ``n`` before deletion (``delta_sup`` against ``logs``,
    the last row's normalized metric), all vectors in edge order."""
    if topo.batch is None:  # a new topology
        walk = _walks(topo.graph)
        topo = replace(topo, batch=_Batch([(walk(u, None), walk(v, None)) for u, v in topo.edges],
                                          topo.graph.n))
    cost = topo.batch.price(_path_metric(topo.adj, topo.matrix(lengths, topo.far)))
    new = (1.0 - alpha) * lengths + alpha * cost
    kappa = 1.0 - cost / lengths
    unit, new_logs = _normalized(topo, new)
    lo, hi = (float(kappa.min()), float(kappa.max())) if kappa.size else (0.0, 0.0)
    # log1p is monotone: lambda+ and lambda- come from the extreme curvatures
    lam = (math.log1p(-alpha * lo), math.log1p(-alpha * hi)) if kappa.size else (0.0, 0.0)
    row = FlowTraceRow(n, *lam, float(np.abs(new_logs - logs).max(initial=0.0)), lo, hi, (),
                       (topo.edges, topo.groups, kappa), (topo.edges, topo.groups, unit))
    return topo, new, unit, new_logs, row


def _delete(topo: _Topology, lengths: np.ndarray, C: float) -> tuple[list, _Topology, np.ndarray]:
    """Threshold deletion on the edge vector ``lengths``: the deleted edges,
    each with (length, shortest adjacent length), the topology left (a new
    graph carries ``lengths``), and ``lengths`` on it."""
    alive, deleted, ln = np.arange(lengths.size), [], lengths
    # no edge can violate while max <= C x min, as C x min <= C x any adjacent length
    while ln.size and ln.max() > C * ln.min():
        shortest = _shortest_adjacent(topo.graph.n, topo.iu[alive], topo.iv[alive], ln)
        violating = np.flatnonzero(ln > C * shortest)
        if not violating.size:
            break
        # the longest violating edge, ties to the first (lexicographic) one
        k = violating[np.argmax(ln[violating])]
        deleted.append((topo.edges[alive[k]], (float(ln[k]), float(shortest[k]))))
        alive = np.delete(alive, k)
        ln = lengths[alive]
    if not deleted:
        return deleted, topo, lengths
    w, ln = topo.graph.weights.copy(), topo.matrix(lengths)
    for (u, v), _ in deleted:
        w[u, v] = w[v, u] = ln[u, v] = ln[v, u] = 0.0
    topo = _Topology.of(WeightedGraph(topo.graph.n, w, topo.graph.measure, ln))
    return deleted, topo, lengths[alive]


def run_flow(g: WeightedGraph, cfg: FlowConfig | None = None) -> FlowResult:
    """Alternate flow and deletion steps until the normalized metric and
    the curvature spread settle on every component.  After every step each
    component's lengths are divided by their maximum: unscaled, negatively
    curved components would grow until they swamp double precision.

    Convergence is declared on the normalized log metric (the raw metric
    may shrink geometrically forever); ``growth_rate`` reports the
    per-iteration additive constant of the log metric per component,
    i.e. log(1 - alpha kappa_limit).
    """
    cfg = cfg or FlowConfig()
    if any(d > 1.0 + 1e-12 for d in g.degrees()):
        raise ValidationError("the flow needs deg(x) <= 1 at every vertex")
    topo = _Topology.of(g)
    lengths = g.lengths[topo.iu, topo.iv]
    ratio = max_adjacent_ratio(g)
    if not math.isfinite(2.0 * ratio if cfg.deletion_threshold is None else ratio):
        raise ValidationError(f"the initial max adjacent length ratio {ratio:g} leaves no "
                              "deletion threshold in the float range")
    if cfg.deletion_threshold is None:
        cfg = replace(cfg, deletion_threshold=max(2.0 * ratio, 1.0))
    elif cfg.deletion_threshold <= ratio:
        raise ValidationError(f"deletion threshold {cfg.deletion_threshold:g} must exceed "
                              f"the initial max adjacent length ratio {ratio:g}")

    logs = _normalized(topo, lengths)[1]
    log, trace, status = [], [], STATUS_MAX_ITER
    # the last step's log metric, None after a deletion: increments stay on one topology
    lognorm, cycle = None, _period2(cfg.tolerance)
    for n in range(cfg.max_iterations):
        topo, new, lengths, logs, row = _step(topo, lengths, cfg.alpha, n, logs)
        deleted, topo, new = _delete(topo, new, cfg.deletion_threshold)
        trace.append(row)
        if deleted:
            log += [(n + 1, e, lens) for e, lens in deleted]
            lengths, logs = _normalized(topo, new)
            trace[-1] = replace(row, deleted_edges=tuple(e for e, _ in deleted),
                                _unit=(topo.edges, topo.groups, lengths))
            lognorm, cycle = None, _period2(cfg.tolerance)
        elif row.delta_sup < cfg.tolerance and row._max_spread() < cfg.tolerance:
            status = STATUS_CONVERGED
            break
        else:
            prev, lognorm = lognorm, logs
            if prev is not None and cycle(lognorm - prev):
                status = STATUS_OSCILLATION
                break

    kappa = trace[-1].kappa.values  # covers every edge left; lengths is the final metric
    return FlowResult(
        final=FlowState(topo.graph.with_lengths(topo.matrix(lengths)), len(trace),
                        tuple(log), tuple(trace)),
        limits={root: dict(zip(edges, lengths[i].tolist())) for root, edges, i in topo.groups},
        growth_rate={root: float(np.mean([math.log1p(-cfg.alpha * kappa[e]) for e in edges]))
                     for root, edges, _ in topo.groups},
        status=status)
