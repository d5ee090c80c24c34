"""Independent oracles the tests check the library against.

Everything here is deliberately naive: repeated relaxation instead of
Floyd-Warshall, union-find instead of graph search, exhaustive vertex
enumeration of transport polytopes instead of the simplex, a per-edge
scan of adjacent lengths instead of per-vertex minima, plain power
iteration, and finite differences.  None of it shares code with the
implementation paths it checks.
"""

from __future__ import annotations

import itertools

import numpy as np


def apsp_relaxation(n: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """All-pairs shortest paths by relaxing until nothing changes."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, ln in edges:
        d[u, v] = min(d[u, v], ln)
        d[v, u] = min(d[v, u], ln)
    changed = True
    while changed:
        changed = False
        for u, v, ln in edges:
            for a in range(n):
                for b, c in ((u, v), (v, u)):
                    cand = d[a, b] + ln
                    if cand < d[a, c] - 1e-15:
                        d[a, c] = d[c, a] = cand
                        changed = True
    return d


def union_find_components(n: int, pairs: list[tuple[int, int]]) -> list[list[int]]:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted(groups.values())


def transport_vertices(a: np.ndarray, b: np.ndarray):
    """Extreme points of the transport polytope with marginals a, b.

    Enumerates all cell subsets of size n1 + n2 - 1 whose incidence
    columns (one redundant row dropped) are independent, solves for the
    basic values, and keeps the nonnegative ones.
    """
    n1, n2 = a.size, b.size
    cells = [(i, j) for i in range(n1) for j in range(n2)]
    m = n1 + n2 - 1
    rhs = np.concatenate([a, b[:-1]])
    seen = set()
    for combo in itertools.combinations(cells, m):
        A = np.zeros((m, m))
        for k, (i, j) in enumerate(combo):
            A[i, k] = 1.0
            if j < n2 - 1:
                A[n1 + j, k] = 1.0
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        vals = np.linalg.solve(A, rhs)
        if np.any(vals < -1e-9):
            continue
        plan = np.zeros((n1, n2))
        for (i, j), v in zip(combo, vals):
            plan[i, j] = max(v, 0.0)
        key = tuple(np.round(plan.reshape(-1), 12))
        if key not in seen:
            seen.add(key)
            yield plan


def brute_force_wasserstein(a: np.ndarray, b: np.ndarray,
                            cost: np.ndarray) -> float:
    """Minimum cost over all polytope vertices (exact for small sizes)."""
    return min(float(np.sum(plan * cost)) for plan in transport_vertices(a, b))


def dense_transport_lp(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """(c, A, rhs) of min c @ x, A x = rhs, x >= 0 for the transport LP,
    x the row-major plan, with every marginal row (one is redundant)."""
    n1, n2 = cost.shape
    A = np.vstack([np.kron(np.eye(n1), np.ones(n2)), np.kron(np.ones(n1), np.eye(n2))])
    return cost.ravel(), A, np.concatenate([a, b])


def brute_force_lp_max(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> float:
    """Max of c @ x over {A x = b, x >= 0} by basis enumeration."""
    m, n = A.shape
    best = -np.inf
    for combo in itertools.combinations(range(n), m):
        B = A[:, combo]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        vals = np.linalg.solve(B, b)
        if np.any(vals < -1e-9):
            continue
        best = max(best, float(c[list(combo)] @ np.maximum(vals, 0.0)))
    return best


def deletion_scan(weights: np.ndarray, lengths: np.ndarray, threshold: float):
    """The flow's threshold deletions by a plain scan: every edge collects
    the lengths of all edges sharing an endpoint with it, and the longest
    violating edge (ties to the lexicographically least) goes, one at a
    time.  Returns ([(edge, (length, shortest adjacent length))], weights,
    lengths) with the deleted entries zeroed.
    """
    w, ln = np.array(weights, dtype=float), np.array(lengths, dtype=float)
    n = w.shape[0]
    log = []
    while True:
        violating = []
        shortest_adjacent = {}
        for u, v in itertools.combinations(range(n), 2):
            if w[u, v] <= 0:
                continue
            adjacent = [ln[y, z]
                        for y in (u, v)
                        for z in range(n)
                        if w[y, z] > 0 and (min(y, z), max(y, z)) != (u, v)]
            if adjacent and ln[u, v] > threshold * min(adjacent):
                violating.append((u, v))
                shortest_adjacent[(u, v)] = float(min(adjacent))
        if not violating:
            return log, w, ln
        top_len = max(float(ln[e]) for e in violating)
        u, v = min(e for e in violating if float(ln[e]) == top_len)
        log.append(((u, v), (float(ln[u, v]), shortest_adjacent[(u, v)])))
        w[u, v] = w[v, u] = ln[u, v] = ln[v, u] = 0.0


def power_iteration(A: np.ndarray, iters: int = 20_000,
                    tol: float = 1e-14) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a nonnegative matrix, sup-norm normalized."""
    v = np.ones(A.shape[0])
    lam = 1.0
    for _ in range(iters):
        w = A @ v
        lam_new = float(np.max(np.abs(w)))
        w = w / lam_new
        if np.max(np.abs(w - v)) < tol and abs(lam_new - lam) < tol:
            v = w
            lam = lam_new
            break
        v, lam = w, lam_new
    return lam, v


def finite_difference_gradient(func, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (func(x + e) - func(x - e)) / (2 * h)
    return grad
