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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .chains import _increments_cycle
from .curvature import CurvatureReport, vertex_measure
from .errors import ValidationError
from .graphs import WeightedGraph, _component_groups, shortest_path_metric
from .transport import ProbMeasure, wasserstein

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowTraceRow",
    "FlowResult",
    "initial_state",
    "flow_step",
    "edge_deletion_step",
    "normalize_metric",
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
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValidationError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        dt = self.deletion_threshold
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
    """What the flow steps share while weights and measure stay: the edge
    list, its per-component groups (``graphs._component_groups``), the walk
    measures (None until a flow step builds them) and each edge's last
    optimal transport basis, which stays primal feasible for them."""

    weights: np.ndarray
    measure: np.ndarray
    edges: tuple[tuple[int, int], ...]
    groups: list[tuple]
    measures: dict[int, ProbMeasure] | None = None
    bases: dict[tuple[int, int], tuple[tuple[int, int], ...]] = field(default_factory=dict)

    @classmethod
    def of(cls, g: WeightedGraph) -> "_Topology":
        edges = tuple(g.edges())
        return cls(g.weights, g.measure, edges, _component_groups(g, edges))

    def serves(self, g: WeightedGraph) -> bool:
        return ((self.weights is g.weights or np.array_equal(self.weights, g.weights))
                and (self.measure is g.measure or np.array_equal(self.measure, g.measure)))


@dataclass(frozen=True)
class FlowState:
    """Immutable snapshot of the flow: topology, metric, and history.

    ``topology`` caches what depends on the edge set alone for the next
    steps; it is ignored for a graph it does not serve, and a deletion
    replaces it with the new edge set's, without measures or bases.
    """

    graph: WeightedGraph
    iteration: int = 0
    deletion_log: tuple[tuple[int, tuple[int, int], tuple[float, float]], ...] = ()
    trace: tuple[FlowTraceRow, ...] = ()
    topology: _Topology | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FlowResult:
    final: FlowState
    limits: dict[int, dict[tuple[int, int], float]]
    growth_rate: dict[int, float]
    status: str


def initial_state(g: WeightedGraph) -> FlowState:
    if any(d > 1.0 + 1e-12 for d in g.degrees()):
        raise ValidationError("the flow needs deg(x) <= 1 at every vertex")
    return FlowState(graph=g)


def max_adjacent_ratio(g: WeightedGraph) -> float:
    """max len(e)/len(e') over pairs of edges sharing a vertex."""
    worst = 0.0
    for y in range(g.n):
        nbrs = g.neighbors(y)
        if nbrs.size < 2:
            continue
        lens = g.lengths[y, nbrs]
        worst = max(worst, float(lens.max() / lens.min()))
    return worst


def _topology(state: FlowState) -> _Topology:
    """The state's cached topology if it serves the state's graph, else a new one."""
    topo = state.topology
    return topo if topo is not None and topo.serves(state.graph) else _Topology.of(state.graph)


def normalize_metric(state: FlowState) -> dict[tuple[int, int], float]:
    """Edge lengths divided by the max edge length of their component."""
    out: dict[tuple[int, int], float] = {}
    for _, edges, iu, iv in _topology(state).groups:
        lengths = state.graph.lengths[iu, iv]
        out.update(zip(edges, (lengths / lengths.max()).tolist()))
    return out


def flow_step(state: FlowState, cfg: FlowConfig) -> FlowState:
    """One metric deformation: len(e) <- (1 - alpha) len(e) + alpha W(e)."""
    g = state.graph
    d = shortest_path_metric(g)
    topo = _topology(state)
    if topo.measures is None:
        topo = replace(topo, measures={
            x: vertex_measure(g, x) for x in range(g.n) if g.neighbors(x).size})
    measures = topo.measures
    bases = {}
    new_lengths = g.lengths.copy()
    kappas: dict[tuple[int, int], float] = {}
    for u, v in topo.edges:
        cost, plan = wasserstein(measures[u], measures[v], d, topo.bases.get((u, v)))
        bases[(u, v)] = plan.basic_cells
        ln = g.lengths[u, v]
        kappas[(u, v)] = 1.0 - cost / ln
        new_lengths[u, v] = new_lengths[v, u] = (1.0 - cfg.alpha) * ln + cfg.alpha * cost

    new_graph = g.with_lengths(new_lengths)
    report = CurvatureReport._from_groups(kappas, topo.groups)
    log_inc = [math.log1p(-cfg.alpha * k) for k in kappas.values()]
    topo = replace(topo, bases=bases)
    prev_norm = (state.trace[-1].normalized if state.trace
                 else normalize_metric(replace(state, topology=topo)))
    new_state = FlowState(graph=new_graph, iteration=state.iteration + 1,
                          deletion_log=state.deletion_log, trace=state.trace,
                          topology=topo)
    norm = normalize_metric(new_state)
    if set(prev_norm) == set(norm):
        delta = max((abs(math.log(norm[e]) - math.log(prev_norm[e]))
                     for e in norm), default=0.0)
    else:
        delta = None
    row = FlowTraceRow(
        n=state.iteration, kappa=report, normalized=norm,
        lambda_plus=max(log_inc, default=0.0),
        lambda_minus=min(log_inc, default=0.0),
        delta_sup=delta)
    return replace(new_state, trace=state.trace + (row,))


def edge_deletion_step(state: FlowState, cfg: FlowConfig) -> FlowState:
    """Delete threshold-violating edges one at a time, longest first.

    An edge (x, y) violates when some edge (y, z) adjacent to it has
    len(x, y) > C len(y, z).  After each single deletion the remaining
    edges are re-checked; ties on length break lexicographically.
    Requires a resolved threshold in the config.
    """
    if cfg.deletion_threshold is None:
        raise ValidationError("edge deletion needs a resolved deletion threshold")
    C = cfg.deletion_threshold
    g = state.graph
    log = list(state.deletion_log)
    deleted: list[tuple[int, int]] = []
    while True:
        iu, iv = np.nonzero(np.triu(g.weights, k=1) > 0)  # edges, lexicographic
        # an edge's shortest adjacent edge at an endpoint is the endpoint's
        # shortest incident edge, or its second shortest if that is the edge
        incident = np.where(g.weights > 0, g.lengths, np.inf)
        first = incident.argmin(axis=1)
        s1 = incident.min(axis=1)
        incident[np.arange(g.n), first] = np.inf
        s2 = incident.min(axis=1)
        shortest = np.minimum(np.where(first[iu] == iv, s2[iu], s1[iu]),
                              np.where(first[iv] == iu, s2[iv], s1[iv]))
        ln = g.lengths[iu, iv]
        violating = np.flatnonzero(ln > C * shortest)
        if not violating.size:
            break
        # the longest violating edge, ties to the first (lexicographic) one
        k = violating[np.argmax(ln[violating])]
        longest = (int(iu[k]), int(iv[k]))
        log.append((state.iteration, longest, (float(ln[k]), float(shortest[k]))))
        deleted.append(longest)
        g = g.drop_edge(*longest)

    if not deleted:
        return state
    new_state = FlowState(graph=g, iteration=state.iteration, deletion_log=tuple(log),
                          trace=state.trace, topology=_Topology.of(g))
    if state.trace:
        last = replace(state.trace[-1],
                       deleted_edges=state.trace[-1].deleted_edges + tuple(deleted),
                       normalized=normalize_metric(new_state))
        new_state = replace(new_state, trace=state.trace[:-1] + (last,))
    return new_state


def run_flow(g: WeightedGraph, cfg: FlowConfig | None = None) -> FlowResult:
    """Alternate flow and deletion steps until the normalized metric and
    the curvature spread settle on every component.

    Convergence is declared on the normalized log metric (the raw metric
    may shrink geometrically forever); ``growth_rate`` reports the
    per-iteration additive constant of the log metric per component,
    i.e. log(1 - alpha kappa_limit).
    """
    cfg = cfg or FlowConfig()
    state = initial_state(g)
    ratio = max_adjacent_ratio(g)
    if cfg.deletion_threshold is None:
        cfg = replace(cfg, deletion_threshold=max(2.0 * ratio, 1.0))
    elif cfg.deletion_threshold <= ratio:
        raise ValidationError(
            f"deletion threshold {cfg.deletion_threshold:g} must exceed the "
            f"initial max adjacent length ratio {ratio:g}")

    status = STATUS_MAX_ITER
    # normalized log metrics since the last deletion, in normalize_metric's
    # edge order (fixed while the topology is)
    recent_lognorm: deque[np.ndarray] = deque(maxlen=8)
    for _ in range(cfg.max_iterations):
        state = flow_step(state, cfg)
        state = edge_deletion_step(state, cfg)
        state = _rescale_components(state)
        row = state.trace[-1]
        if row.deleted_edges:
            recent_lognorm.clear()
            continue
        if (row.delta_sup is not None and row.delta_sup < cfg.tolerance
                and row.kappa.max_spread < cfg.tolerance):
            status = STATUS_CONVERGED
            break
        recent_lognorm.append(np.array([math.log(v) for v in row.normalized.values()]))
        if _increments_cycle(recent_lognorm, cfg.tolerance):
            status = STATUS_OSCILLATION
            break

    limits: dict[int, dict[tuple[int, int], float]] = {}
    growth: dict[int, float] = {}
    norm = normalize_metric(state)
    last_kappa = state.trace[-1].kappa.values if state.trace else {}
    for root, edges, *_ in _topology(state).groups:
        limits[root] = {e: norm[e] for e in edges}
        incs = [math.log1p(-cfg.alpha * last_kappa[e]) for e in edges if e in last_kappa]
        growth[root] = float(np.mean(incs)) if incs else 0.0
    return FlowResult(final=state, limits=limits, growth_rate=growth, status=status)


def _rescale_components(state: FlowState) -> FlowState:
    """Divide each component's lengths by their maximum.

    The flow is scale-invariant per component (curvature, the normalized
    metric, deletions, and the log diagnostics are all unchanged), so
    run_flow keeps the state at unit scale; otherwise negatively curved
    components grow without bound and eventually swamp double precision.
    """
    norm = normalize_metric(state)
    lengths = state.graph.lengths.copy()
    for (u, v), val in norm.items():
        lengths[u, v] = lengths[v, u] = val
    return replace(state, graph=state.graph.with_lengths(lengths))

