"""Finite weighted graphs, path metrics, Laplacian, and Lipschitz constants.

A graph is a vertex set {0, ..., n-1} with symmetric nonnegative edge
weights ``w``, a strictly positive vertex measure ``m``, and a strictly
positive length assigned to every edge.  The lengths induce a path metric
(infimum of summed edge lengths over chains of adjacent vertices); pairs
in different components are at infinite distance.

All values are immutable after construction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import DisconnectedError, ValidationError

__all__ = [
    "WeightedGraph",
    "DistanceMatrix",
    "shortest_path_metric",
    "combinatorial_metric",
    "laplacian_apply",
    "laplacian_matrix",
    "lipschitz_constant",
    "connected_components",
]

_SYM_TOL = 1e-12


def _readonly(a: np.ndarray, dtype: type = float) -> np.ndarray:
    """A read-only copy: a view would follow later writes to its base,
    and freezing the caller's own array would make it read-only for
    the caller."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _edge_lengths(w: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Read-only lengths for the weights ``w``: finite, positive and
    symmetric on the edge set, 0 off it."""
    n = w.shape[0]
    ln = np.asarray(lengths, dtype=float)
    if ln.shape != (n, n):
        raise ValidationError(f"lengths must be ({n}, {n}), got {ln.shape}")
    adj = w > 0
    if np.any(~np.isfinite(ln[adj])) or np.any(ln[adj] <= 0):
        raise ValidationError("every edge needs a finite positive length")
    ln = np.where(adj, ln, 0.0)
    if np.max(np.abs(ln - ln.T)) > _SYM_TOL:
        raise ValidationError("edge lengths must be symmetric")
    ln.setflags(write=False)  # np.where made a fresh array
    return ln


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Finite weighted graph (V, w, m) with per-edge lengths.

    Parameters
    ----------
    n : int
        Number of vertices; vertex ids are 0..n-1.
    weights : (n, n) array
        Symmetric nonnegative edge weights, zero diagonal.  ``w[u, v] > 0``
        means u ~ v.
    measure : (n,) array
        Strictly positive vertex measure.
    lengths : (n, n) array
        Symmetric positive lengths on edges; entries off the edge set are
        ignored and stored as 0.
    """

    n: int
    weights: np.ndarray
    measure: np.ndarray
    lengths: np.ndarray
    # ``curvature``'s walk measures; ``with_lengths`` copies share them (no length read)
    _walk_measures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.measure, dtype=float)
        if self.n < 1:
            raise ValidationError("graph needs at least one vertex")
        if w.shape != (self.n, self.n):
            raise ValidationError(f"weights must be ({self.n}, {self.n}), got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValidationError("edge weights must be finite and nonnegative")
        if np.max(np.abs(w - w.T)) > _SYM_TOL:
            raise ValidationError("edge weights must be symmetric")
        if np.any(np.diag(w) != 0):
            raise ValidationError("edge weights must vanish on the diagonal")
        if m.shape != (self.n,) or not np.all(np.isfinite(m)) or np.any(m <= 0):
            raise ValidationError("vertex measure must be strictly positive")
        ln = _edge_lengths(w, self.lengths)
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "measure", _readonly(m))
        object.__setattr__(self, "lengths", ln)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Sequence[tuple[int, int, float, float]],
        measure: Sequence[float] | None = None,
    ) -> "WeightedGraph":
        """Build a graph from (u, v, weight, length) tuples.

        Duplicate vertex pairs are rejected.  ``measure`` defaults to 1.0
        on every vertex.
        """
        w = np.zeros((n, n))
        ln = np.zeros((n, n))
        seen: set[tuple[int, int]] = set()
        for idx, (u, v, wt, le) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValidationError(f"edges[{idx}]: invalid endpoints ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"edges[{idx}]: duplicate edge {key}")
            seen.add(key)
            if wt <= 0:
                raise ValidationError(f"edges[{idx}]: weight must be positive, got {wt}")
            if le <= 0:
                raise ValidationError(f"edges[{idx}]: length must be positive, got {le}")
            w[u, v] = w[v, u] = wt
            ln[u, v] = ln[v, u] = le
        meas = np.ones(n) if measure is None else np.asarray(measure, dtype=float)
        if meas.shape != (n,):
            raise ValidationError(f"measure must have length {n}, got {meas.shape}")
        return cls(n=n, weights=w, measure=meas, lengths=ln)

    # -- basic structure ----------------------------------------------------

    def neighbors(self, x: int) -> np.ndarray:
        return np.flatnonzero(self.weights[x] > 0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs (u, v) with u < v, lexicographic."""
        iu, iv = np.nonzero(np.triu(self.weights, k=1) > 0)
        return iter(zip(iu.tolist(), iv.tolist()))

    def edge_count(self) -> int:
        return int(np.count_nonzero(np.triu(self.weights, k=1) > 0))

    def edge_length(self, u: int, v: int) -> float:
        if self.weights[u, v] <= 0:
            raise ValidationError(f"({u}, {v}) is not an edge")
        return float(self.lengths[u, v])

    def degree(self, x: int) -> float:
        """deg(x) = sum_y w(x, y) / m(x)."""
        return float(self.weights[x].sum() / self.measure[x])

    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1) / self.measure

    def with_lengths(self, lengths: np.ndarray) -> "WeightedGraph":
        """Copy with new lengths; it shares the validated weights and measure."""
        g = copy.copy(self)
        object.__setattr__(g, "lengths", _edge_lengths(self.weights, lengths))
        return g

    def drop_edge(self, u: int, v: int) -> "WeightedGraph":
        """Copy of this graph with the edge (u, v) removed."""
        if self.weights[u, v] <= 0:
            raise ValidationError(f"({u}, {v}) is not an edge")
        w = self.weights.copy()
        ln = self.lengths.copy()
        w[u, v] = w[v, u] = 0.0
        ln[u, v] = ln[v, u] = 0.0
        return WeightedGraph(self.n, w, self.measure, ln)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric vertex distances; disconnected pairs are flagged infinite.

    ``values[u, v]`` is ``np.inf`` exactly when u and v lie in different
    components.  Use :meth:`value` for arithmetic-safe access and
    :meth:`is_finite` to test connectivity; the raw array is available as
    ``values`` for vectorized use.
    """

    values: np.ndarray
    edge_mask: np.ndarray | None = field(default=None)
    # set once ``transport``'s audit has found the values to be a metric
    _is_metric: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValidationError("distance matrix must be square")
        object.__setattr__(self, "values", _readonly(v))
        if self.edge_mask is not None:
            object.__setattr__(self, "edge_mask", _readonly(self.edge_mask, bool))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def is_finite(self, u: int, v: int) -> bool:
        return bool(np.isfinite(self.values[u, v]))

    def value(self, u: int, v: int) -> float:
        d = self.values[u, v]
        if not np.isfinite(d):
            raise DisconnectedError(f"vertices {u} and {v} are in different components")
        return float(d)

    def scaled(self, r: float) -> "DistanceMatrix":
        if not (np.isfinite(r) and r > 0):
            raise ValidationError(f"scale factor must be finite and positive, got {r}")
        return DistanceMatrix(self.values * r, self.edge_mask)


def shortest_path_metric(g: WeightedGraph) -> DistanceMatrix:
    """Path metric induced by the edge lengths (Floyd-Warshall).

    Disconnected pairs come out as ``np.inf``.  The result records the edge
    mask so edge-restricted quantities can be computed from it alone.
    """
    return _path_metric(g.weights > 0, g.lengths)


def _path_metric(adj: np.ndarray, lengths: np.ndarray) -> DistanceMatrix:
    """``shortest_path_metric`` of the edge mask ``adj`` with ``lengths``."""
    d = np.where(adj, lengths, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return DistanceMatrix(d, edge_mask=adj)


def combinatorial_metric(g: WeightedGraph) -> DistanceMatrix:
    """Path metric with every edge length set to one (hop distance)."""
    return _path_metric(g.weights > 0, np.ones((g.n, g.n)))


def laplacian_apply(g: WeightedGraph, f: np.ndarray) -> np.ndarray:
    """Graph Laplacian: (1/m(x)) sum_y w(x,y) (f(y) - f(x))."""
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise ValidationError(f"f must have length {g.n}, got {f.shape}")
    return (g.weights @ f - g.weights.sum(axis=1) * f) / g.measure


def laplacian_matrix(g: WeightedGraph) -> np.ndarray:
    """Dense matrix L with laplacian_apply(g, f) == L @ f."""
    return (g.weights - np.diag(g.weights.sum(axis=1))) / g.measure[:, None]


def lipschitz_constant(
    f: np.ndarray, d: DistanceMatrix, mode: str = "all-pairs"
) -> float:
    """max |f(y) - f(x)| / d(x, y) over the selected pair set.

    Mode ``"all-pairs"`` uses every distinct pair and rejects pairs at
    infinite distance; ``"edges-only"`` restricts to adjacent pairs and
    requires ``d`` to carry its inducing edge mask.
    """
    f = np.asarray(f, dtype=float)
    n = d.n
    if f.shape != (n,):
        raise ValidationError(f"f must have length {n}, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValidationError("f must be finite")
    if mode == "edges-only":
        if d.edge_mask is None:
            raise ValidationError("edges-only mode needs a DistanceMatrix with an edge mask")
        mask = np.triu(d.edge_mask, k=1)
    elif mode == "all-pairs":
        mask = np.triu(np.ones((n, n), dtype=bool), k=1)
        if np.any(np.isinf(d.values[mask])):
            raise DisconnectedError(
                "all-pairs Lipschitz constant is undefined across components"
            )
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    if not mask.any():
        return 0.0
    diffs = np.abs(f[None, :] - f[:, None])[mask]
    return float(np.max(diffs / d.values[mask]))


def connected_components(g: WeightedGraph) -> list[list[int]]:
    """Partition of the vertex set by the reflexive-transitive closure of ~.

    Components are sorted internally and ordered by their smallest vertex.
    """
    seen = np.zeros(g.n, dtype=bool)
    comps: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in np.flatnonzero(g.weights[x] > 0):
                if not seen[y]:
                    seen[y] = True
                    stack.append(int(y))
        comps.append(sorted(comp))
    return comps


def _component_groups(g: WeightedGraph, pairs) -> list[tuple]:
    """Vertex pairs grouped by the component of their first vertex: one
    (root, pairs, their positions in ``pairs``) per component holding
    any, in ``connected_components`` order, pairs in given order."""
    comps = connected_components(g)
    label = {x: i for i, comp in enumerate(comps) for x in comp}
    buckets: list[list] = [[] for _ in comps]
    for k, e in enumerate(pairs):
        buckets[label[e[0]]].append((k, e))
    return [(comp[0], tuple(e for _, e in b), np.array([k for k, _ in b], dtype=np.intp))
            for comp, b in zip(comps, buckets) if b]
