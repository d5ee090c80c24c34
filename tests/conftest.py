"""Shared random-instance generators for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from curvflow import PartitionXKY, WeightedGraph


def random_flow_graph(rng: np.random.Generator, n: int) -> WeightedGraph:
    """Connected graph with random weights/lengths and deg(x) <= 1."""
    edges = []
    present = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        present.add((u, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))))
    for _ in range(int(rng.integers(0, n))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) not in present:
            present.add((u, v))
            edges.append((u, v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))))
    w = np.zeros((n, n))
    for u, v, wt, _ in edges:
        w[u, v] = w[v, u] = wt
    measure = w.sum(axis=1) / rng.uniform(0.3, 1.0, n)  # forces deg <= 1
    return WeightedGraph.from_edges(n, edges, measure=measure)


def random_graph_const_measure(rng: np.random.Generator, n: int,
                               extra: int | None = None) -> WeightedGraph:
    """Connected graph with a constant vertex measure (resolvent tests)."""
    edges = []
    present = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        present.add((u, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))))
    extra = int(rng.integers(0, n)) if extra is None else extra
    for _ in range(extra):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) not in present:
            present.add((u, v))
            edges.append((u, v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))))
    m0 = float(rng.uniform(1.0, 4.0))
    return WeightedGraph.from_edges(n, edges, measure=[m0] * n)


def cycle_graph(n: int, weight: float = 1.0, length: float = 1.0,
                measure: float | None = None) -> WeightedGraph:
    edges = [(min(i, (i + 1) % n), max(i, (i + 1) % n), weight, length)
             for i in range(n)]
    m = 2.0 * weight if measure is None else measure
    return WeightedGraph.from_edges(n, edges, measure=[m] * n)


def path_graph(lengths: list[float], weight: float = 1.0,
               measure: float = 2.0) -> WeightedGraph:
    n = len(lengths) + 1
    edges = [(i, i + 1, weight, ln) for i, ln in enumerate(lengths)]
    return WeightedGraph.from_edges(n, edges, measure=[measure] * n)


def complete_graph(n: int, weight: float = 1.0, length: float = 1.0,
                   measure: float | None = None) -> WeightedGraph:
    edges = [(u, v, weight, length) for u in range(n) for v in range(u + 1, n)]
    m = (n - 1) * weight if measure is None else measure
    return WeightedGraph.from_edges(n, edges, measure=[m] * n)


def cycle_partition(g: WeightedGraph) -> PartitionXKY:
    """Split a cycle by two (nearly) opposite cut vertices."""
    n = g.n
    k1, k2 = 0, n // 2
    arc1 = [v for v in range(1, k2)]
    arc2 = [v for v in range(k2 + 1, n)]
    return PartitionXKY.build(g, arc1, [k1, k2], arc2)


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


def random_curvature_graph(rng: np.random.Generator, n: int,
                           extra_draws: int) -> WeightedGraph:
    """Connected graph with ``extra_draws`` extra edge draws and
    m = 1.25 x degree (deg(x) = 0.8): the benchmark's curvature inputs."""
    edges = []
    present = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        present.add((u, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))))
    for _ in range(int(rng.integers(extra_draws, extra_draws + 1))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) not in present:
            present.add((u, v))
            edges.append((u, v, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))))
    w = np.zeros((n, n))
    for u, v, wt, _ in edges:
        w[u, v] = w[v, u] = wt
    return WeightedGraph.from_edges(n, edges, measure=1.25 * w.sum(axis=1))
