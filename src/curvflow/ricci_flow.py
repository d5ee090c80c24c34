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
edge and step.  One ``transport._price_edges`` call per step prices every
edge: while the edge set stays, it re-prices every edge's kept optimal
tree at once and re-solves only those that stopped being optimal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .chains import _period2
from .curvature import CurvatureReport, _walks
from .errors import ValidationError
from .graphs import WeightedGraph, _component_groups, _path_metric
from .transport import _price_edges, wasserstein  # wasserstein: perfbench's tracer test pins it

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
    n: int
    kappa: CurvatureReport
    normalized: dict[tuple[int, int], float]
    lambda_plus: float
    lambda_minus: float
    delta_sup: float | None  # None when the edge set just changed
    deleted_edges: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class _Topology:
    """What ``run_flow``'s steps share while the edge set stays: a graph
    with its weights and measure, the edge list (edge-length vectors
    follow it) with its endpoints, the per-component groups of edge
    positions, and each edge's two walk measures with the batch of
    ``transport._price_edges`` (None until ``_step`` builds them)."""

    graph: WeightedGraph
    edges: tuple[tuple[int, int], ...]
    iu: np.ndarray
    iv: np.ndarray
    groups: list[tuple]
    pairs: list | None = None
    batch: object = None

    @classmethod
    def of(cls, g: WeightedGraph) -> "_Topology":
        edges = tuple(g.edges())
        iu, iv = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        return cls(g, edges, iu, iv, _component_groups(g, edges))

    def matrix(self, lengths: np.ndarray) -> np.ndarray:
        """The (n, n) array holding ``lengths`` on the edges, 0 elsewhere."""
        out = np.zeros(self.graph.weights.shape)
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


def _normalized(topo: _Topology, lengths: np.ndarray) -> tuple[np.ndarray, dict]:
    """``lengths`` divided by their maximum on each component: as a vector,
    and as a dict by edge (component by component)."""
    unit = np.empty_like(lengths)
    for _, _, index in topo.groups:
        unit[index] = lengths[index] / lengths[index].max()
    return unit, {e: v for _, edges, index in topo.groups
                  for e, v in zip(edges, unit[index].tolist())}


def _step(topo: _Topology, lengths: np.ndarray, alpha: float, n: int,
          prev: dict) -> tuple[_Topology, np.ndarray, np.ndarray, FlowTraceRow]:
    """One flow step on the edge vector ``lengths``: the topology with its
    batch, the new lengths, the same normalized per component, and trace
    row ``n`` (``delta_sup`` against the normalized metric ``prev``)."""
    d = _path_metric(topo.graph.weights > 0, topo.matrix(lengths))
    if topo.batch is None:  # a new topology
        walk = _walks(topo.graph)
        topo = replace(topo, pairs=[(walk(u, None), walk(v, None)) for u, v in topo.edges])
    cost, batch = _price_edges(topo.pairs, topo.batch, d)
    if batch is not topo.batch:
        topo = replace(topo, batch=batch)
    new = (1.0 - alpha) * lengths + alpha * cost
    kappa = (1.0 - cost / lengths).tolist()
    report = CurvatureReport._from_groups(dict(zip(topo.edges, kappa)), topo.groups)
    log_inc = [math.log1p(-alpha * k) for k in kappa]
    unit, norm = _normalized(topo, new)
    delta = (max((abs(math.log(norm[e]) - math.log(prev[e])) for e in norm), default=0.0)
             if set(prev) == set(norm) else None)
    row = FlowTraceRow(n, report, norm, max(log_inc, default=0.0), min(log_inc, default=0.0),
                       delta)
    return topo, new, unit, row


def _delete(topo: _Topology, lengths: np.ndarray, C: float,
            row: FlowTraceRow | None) -> tuple[list, _Topology, np.ndarray, FlowTraceRow | None]:
    """Threshold deletion on the edge vector ``lengths``: the deleted edges,
    each with (length, shortest adjacent length), the topology left (a new
    graph carries ``lengths``), ``lengths`` on it, and ``row`` updated."""
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
        return deleted, topo, lengths, row
    w, ln = topo.graph.weights.copy(), topo.matrix(lengths)
    for (u, v), _ in deleted:
        w[u, v] = w[v, u] = ln[u, v] = ln[v, u] = 0.0
    topo = _Topology.of(WeightedGraph(topo.graph.n, w, topo.graph.measure, ln))
    if row is not None:
        row = replace(row, deleted_edges=row.deleted_edges + tuple(e for e, _ in deleted),
                      normalized=_normalized(topo, lengths[alive])[1])
    return deleted, topo, lengths[alive], row


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

    norm = _normalized(topo, lengths)[1]
    log, trace, status = [], [], STATUS_MAX_ITER
    # increments of the normalized log metric since the last deletion, in
    # the edge order of row.normalized (fixed while the topology is)
    lognorm, cycle = None, _period2(cfg.tolerance)
    for n in range(cfg.max_iterations):
        topo, new, lengths, row = _step(topo, lengths, cfg.alpha, n, norm)
        deleted, topo, new, row = _delete(topo, new, cfg.deletion_threshold, row)
        trace.append(row)
        norm = row.normalized
        if deleted:
            log += [(n + 1, e, lens) for e, lens in deleted]
            lengths = _normalized(topo, new)[0]
            lognorm, cycle = None, _period2(cfg.tolerance)
        elif row.delta_sup < cfg.tolerance and row.kappa.max_spread < cfg.tolerance:
            # (prev always has this row's edge set, so delta_sup is a number)
            status = STATUS_CONVERGED
            break
        else:
            prev, lognorm = lognorm, np.array([math.log(v) for v in norm.values()])
            if prev is not None and cycle(lognorm - prev):
                status = STATUS_OSCILLATION
                break

    kappa = trace[-1].kappa.values  # covers every edge left; norm is the final metric
    return FlowResult(
        final=FlowState(topo.graph.with_lengths(topo.matrix(lengths)), len(trace),
                        tuple(log), tuple(trace)),
        limits={root: {e: norm[e] for e in edges} for root, edges, _ in topo.groups},
        growth_rate={root: float(np.mean([math.log1p(-cfg.alpha * kappa[e]) for e in edges]))
                     for root, edges, _ in topo.groups},
        status=status)
