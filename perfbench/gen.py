"""Seeded instance generators for the benchmark workloads.

The random-graph generators are copies of the ones in
``tests/conftest.py``.  They are copied rather than imported so that a
later change to the test suite cannot silently change the benchmark's
inputs; change them only together with a benchmark re-baseline.
"""

from __future__ import annotations

import json

import numpy as np

from curvflow import PartitionXKY, WeightedGraph


def _random_tree_plus(rng: np.random.Generator, n: int, extra_lo: int,
                      extra_hi: int):
    """Random spanning tree plus up to U[extra_lo, extra_hi) extra edges."""
    edges = []
    present = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        present.add((u, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))))
    for _ in range(int(rng.integers(extra_lo, extra_hi))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) not in present:
            present.add((u, v))
            edges.append((u, v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))))
    w = np.zeros((n, n))
    for u, v, wt, _ in edges:
        w[u, v] = w[v, u] = wt
    return edges, w


def random_flow_graph(rng: np.random.Generator, n: int) -> WeightedGraph:
    """Connected graph with random weights/lengths and deg(x) <= 1."""
    edges, w = _random_tree_plus(rng, n, 0, n)
    measure = w.sum(axis=1) / rng.uniform(0.3, 1.0, n)  # forces deg <= 1
    return WeightedGraph.from_edges(n, edges, measure=measure)


def random_graph_const_measure(rng: np.random.Generator, n: int) -> WeightedGraph:
    """Connected graph with a constant vertex measure (resolvent inputs)."""
    edges, _ = _random_tree_plus(rng, n, 0, n)
    m0 = float(rng.uniform(1.0, 4.0))
    return WeightedGraph.from_edges(n, edges, measure=[m0] * n)


def random_curvature_graph(rng: np.random.Generator, n: int,
                           extra_draws: int) -> WeightedGraph:
    """Connected graph with ``extra_draws`` extra edge draws (the tests
    draw n to 2n at random) and m = 1.25 x degree.

    The measure makes deg(x) = 0.8 everywhere, so every one-step measure
    keeps mass at its centre and supports span the whole closed ball.
    """
    edges, w = _random_tree_plus(rng, n, extra_draws, extra_draws + 1)
    return WeightedGraph.from_edges(n, edges, measure=1.25 * w.sum(axis=1))


def cycle_graph(n: int, weight: float = 1.0, length: float = 1.0,
                measure: float | None = None) -> WeightedGraph:
    edges = [(min(i, (i + 1) % n), max(i, (i + 1) % n), weight, length)
             for i in range(n)]
    m = 2.0 * weight if measure is None else measure
    return WeightedGraph.from_edges(n, edges, measure=[m] * n)


def complete_graph(n: int, weight: float = 1.0, length: float = 1.0,
                   measure: float | None = None) -> WeightedGraph:
    edges = [(u, v, weight, length) for u in range(n) for v in range(u + 1, n)]
    m = (n - 1) * weight if measure is None else measure
    return WeightedGraph.from_edges(n, edges, measure=[m] * n)


def cycle_partition(g: WeightedGraph) -> PartitionXKY:
    """Split a cycle by two (nearly) opposite cut vertices."""
    n = g.n
    k1, k2 = 0, n // 2
    return PartitionXKY.build(g, range(1, k2), [k1, k2], range(k2 + 1, n))


def random_lazy_kernel(rng: np.random.Generator, g: WeightedGraph,
                       min_diag: float = 0.2) -> np.ndarray:
    """Row-stochastic kernel supported on the graph with positive diagonal."""
    K = np.zeros((g.n, g.n))
    for x in range(g.n):
        nbrs = g.neighbors(x)
        raw = rng.uniform(0.2, 1.0, nbrs.size + 1)
        raw = raw / raw.sum()
        raw[0] = max(raw[0], min_diag)
        raw = raw / raw.sum()
        K[x, x] = raw[0]
        K[x, nbrs] = raw[1:]
    return K


def write_graph(g: WeightedGraph, path: str) -> None:
    """Write ``g`` in the CLI's JSON graph format."""
    doc = {
        "vertices": g.n,
        "edges": [{"u": u, "v": v, "w": float(g.weights[u, v]),
                   "len": float(g.lengths[u, v])} for u, v in g.edges()],
        "measure": [float(m) for m in g.measure],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
