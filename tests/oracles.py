"""Independent oracles the tests check the library against.

Everything here is deliberately naive: repeated relaxation instead of
Floyd-Warshall, union-find instead of graph search, exhaustive vertex
enumeration of transport polytopes and a dense two-phase simplex on the
whole constraint matrix instead of the spanning-tree simplex, the
cost-blind northwest-corner start instead of the least-cost one, the
limit-free Lin-Lu-Yau LP over potentials (scipy's HiGHS, skipped without
scipy) instead of the slope of a transport tree, scipy's bounded least
squares on the p = 1 resolvent's dual instead of its own active set,
the primal regularized-kernel homotopy for 1 < p < 2 instead of its
conjugate dual, per-pair LPs over f for Ric_r instead of Kantorovich
potentials, a per-edge scan of adjacent lengths instead of per-vertex
minima, a triple loop over every triangle instead of blocks of k, plain
power iteration, and finite differences.  None of it shares code with the implementation paths
it checks.  Three oracles are the library's previous formulations, kept to
check that a faster one changes no bit, or no optimum: the period-2 test
that rescans its whole window, the Newton resolvents that evaluate
objective, gradient and Hessian separately through ``PhiSpec`` (they reuse
the library's edge list, p = 1 signs and constants, not its Newton loop),
and the transportation simplex that enters by Bland's rule alone and
re-peels its whole tree after every pivot (it reuses the library's start
check and tree peel, not its pivot).  One helper is not an oracle but
drives a library piece for the tests: ``increments_cycle`` feeds a window
to a fresh period-2 detector.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest


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


def northwest_basis(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int]]:
    """Staircase spanning-tree basis of the a x b transport polytope, as
    (row, column) support indices: a second feasible start for the tree
    simplex that ignores the costs."""
    n1, n2 = a.size, b.size
    ra, rb = a.tolist(), b.tolist()
    cells = [(0, 0)]
    i = j = 0
    while i < n1 - 1 or j < n2 - 1:
        t = min(ra[i], rb[j])
        ra[i] -= t
        rb[j] -= t
        if (ra[i] <= rb[j] and i < n1 - 1) or j == n2 - 1:
            i += 1
        else:
            j += 1
        cells.append((i, j))
    return cells


def _bland_losing_cells(parent: list[int], i: int, j: int, n1: int) -> list[tuple[int, int]]:
    """Tree cells whose flow drops when cell (i, j) enters: every other
    cell of the tree path from column node n1 + j to row node i."""
    up = [i]
    while parent[up[-1]] >= 0:
        up.append(parent[up[-1]])
    path = [n1 + j]
    while path[-1] not in up:
        path.append(parent[path[-1]])
    path += up[:up.index(path[-1])][::-1]
    return [(r, c - n1) for c, r in zip(path[0::2], path[1::2])]


def bland_transport_simplex(a: np.ndarray, b: np.ndarray, c: list[list[float]],
                            cells: list[tuple[int, int]], frozen=frozenset()):
    """The library's previous transportation simplex, kept as a reference:
    ((duals, parent, flows), pivots) like ``transport._transport_simplex``,
    but every pivot enters the first eligible cell row-major (Bland) and
    rebuilds and re-peels the whole tree with ``transport._tree``."""
    from curvflow.errors import SolverError
    from curvflow.transport import ENTER_TOL, MASS_TOL, MAX_PIVOTS, _flow_floor, _start_tree, _tree

    n1 = a.size
    tol = ENTER_TOL * max(1.0, max(map(max, c)))
    supply = a.tolist() + (-b).tolist()
    tree = _start_tree(cells, c, supply)
    for pivots in range(MAX_PIVOTS + 1):
        duals, parent, flows = tree
        enter = next(((i, j) for i, row in enumerate(c) for j, cij in enumerate(row)
                      if cij - duals[i] - duals[n1 + j] < -tol and (i, j) not in flows
                      and (i, j) not in frozen),
                     None)
        if enter is None:
            if min(flows.values()) < _flow_floor(supply):
                raise SolverError(f"transport simplex ended at a negative flow "
                                  f"{min(flows.values()):g}")
            return tree, pivots
        i, j = enter
        losing = _bland_losing_cells(parent, i, j, n1)
        theta = min(flows[e] for e in losing)
        leave = min(e for e in losing
                    if flows[e] <= theta + MASS_TOL * abs(theta) + 1e-15)
        tree = _tree([e for e in flows if e != leave] + [(i, j)], c, supply)
    raise SolverError(f"transport simplex exceeded {MAX_PIVOTS} pivots")


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


def ball_transport_lp(x: int, y: int, g, d0, forbid: str):
    """(c, A, rhs) of max c @ z, A z = rhs, z >= 0 for the ball transport
    of edge (x, y) as first posed: one variable per allowed cell of
    B1(x) x B1(y), sphere marginals w/m, and a unit mass cap whose slack
    is the last variable."""
    sphere_x = sorted(int(z) for z in g.neighbors(x))
    sphere_y = sorted(int(z) for z in g.neighbors(y))
    dxy = float(d0.values[x, y])
    cells, coeffs = [], []
    for a in sorted({x, *sphere_x}):
        for b in sorted({y, *sphere_y}):
            hop = float(d0.values[a, b])
            if forbid == "three-cycles" and a == b:
                continue
            if forbid == "five-cycles" and a != x and b != y and hop == 2:
                continue
            cells.append((a, b))
            coeffs.append(1.0 - hop / dxy)
    rows = [(0, a) for a in sphere_x] + [(1, b) for b in sphere_y]
    A = np.zeros((len(rows) + 1, len(cells) + 1))
    for k, (a, b) in enumerate(cells):
        for r, (side, v) in enumerate(rows):
            A[r, k] = (a, b)[side] == v
    A[-1] = 1.0
    rhs = np.array([g.weights[(x, y)[side], v] / g.measure[(x, y)[side]]
                    for side, v in rows] + [1.0])
    return np.array(coeffs + [0.0]), A, rhs


def limit_free_lly(g, d, x: int, y: int) -> float:
    """Lin-Lu-Yau curvature by the limit-free formula (Muench-Wojciechowski,
    Adv. Math. 2019): the least (Delta f(x) - Delta f(y)) / d(x, y) over
    f on B1(x) u B1(y), 1-Lipschitz for d, with f(y) - f(x) = d(x, y).
    One LP, solved by scipy's HiGHS; the test is skipped without scipy."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    ball = sorted({x, y, *g.neighbors(x).tolist(), *g.neighbors(y).tolist()})
    k = len(ball)
    dxy = float(d.values[x, y])
    laplace = g.weights[np.ix_([x, y], ball)] / g.measure[[x, y], None]
    for row, v in enumerate((x, y)):
        laplace[row, ball.index(v)] = -g.weights[v].sum() / g.measure[v]
    c = (laplace[0] - laplace[1]) / dxy
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    A = np.zeros((len(pairs), k))
    for r, (i, j) in enumerate(pairs):
        A[r, i], A[r, j] = 1.0, -1.0
    bounds = [(0.0, 0.0) if v == x else (dxy, dxy) if v == y else (None, None)
              for v in ball]
    res = linprog(c, A_ub=A, b_ub=[d.values[ball[i], ball[j]] for i, j in pairs],
                  bounds=bounds, method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(c @ res.x)


def ric_sup_lp(K: np.ndarray, d: np.ndarray, r: float) -> float:
    """Ric_r of the linear chain f -> K f by its definition: 1 minus the
    largest (Kf)(x) - (Kf)(y) over f with f_i - f_j <= r d_ij for all
    i != j, divided by r d(x, y), one LP per pair (x, y) over f itself (no
    transport duality), by scipy's HiGHS; the test is skipped without
    scipy.  A chain with one coordinate has no pair and Ric_r = 1."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = K.shape[0]
    pairs = list(itertools.permutations(range(n), 2))
    A = np.zeros((len(pairs), n))
    for row, (i, j) in enumerate(pairs):
        A[row, i], A[row, j] = 1.0, -1.0
    b = [r * d[i, j] for i, j in pairs]
    # constants do not move Kf(x) - Kf(y) (rows sum to 1): pin f_0 = 0
    bounds = [(0.0, 0.0)] + [(None, None)] * (n - 1)
    worst = 0.0
    for x, y in itertools.combinations(range(n), 2):
        res = linprog(K[y] - K[x], A_ub=A, b_ub=b, bounds=bounds, method="highs-ds",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        assert res.status == 0, res.message
        worst = max(worst, -res.fun / (r * d[x, y]))
    return 1.0 - worst


def tv_resolvent_dual(g, f: np.ndarray, eps: float) -> np.ndarray:
    """The p = 1 resolvent f + eps B s, where s in [-1, 1]^E minimizes
    ||f + eps B s||^2 and B[:, e] = w(u, v)/m (1_u - 1_v) for each edge
    e = (u, v) (constant measure).  Solved by scipy's BVLS; the test is
    skipped without scipy."""
    lsq_linear = pytest.importorskip("scipy.optimize").lsq_linear
    f = np.asarray(f, dtype=float)
    cols = []
    for u, v in itertools.combinations(range(g.n), 2):
        if g.weights[u, v] > 0:
            col = np.zeros(g.n)
            col[u] = eps * g.weights[u, v] / g.measure[u]
            col[v] = -eps * g.weights[u, v] / g.measure[v]
            cols.append(col)
    if not cols:
        return f.copy()
    B = np.column_stack(cols)
    s = lsq_linear(B, -f, bounds=(-1.0, 1.0), method="bvls", tol=1e-15).x
    return f + B @ s


def regularized_homotopy_resolvent(g, f: np.ndarray, p: float, eps: float):
    """The 1 < p < 2 resolvent by the primal route: damped Newton on
    sum_e c_e Prim(g_v - g_u) + ||g - f||^2 / (2 eps), c_e = w_e / m,
    with the regularized kernel t (t^2 + delta^2)^((p-2)/2) and delta
    driven from 1e-2 down to 1e-15 (constant measure).  The kernel's
    curvature grows like delta^(p-2) on flat edges, where Newton can
    stall; the result is None then."""
    f = np.asarray(f, dtype=float)
    edges = [(u, v, g.weights[u, v] / g.measure[u])
             for u, v in itertools.combinations(range(g.n), 2) if g.weights[u, v] > 0]
    if not edges:
        return f.copy()
    iu, iv, c = (np.array(a) for a in zip(*edges))
    iu, iv = iu.astype(int), iv.astype(int)
    incidence = np.zeros((len(edges), g.n))
    incidence[np.arange(len(edges)), iv] = 1.0
    incidence[np.arange(len(edges)), iu] = -1.0

    def newton(x, dl, tol):
        def obj(y):
            t = incidence @ y
            prim = ((t * t + dl * dl) ** (p / 2) - dl ** p) / p
            return float(c @ prim + np.sum((y - f) ** 2) / (2 * eps))

        def grad(y):
            t = incidence @ y
            return incidence.T @ (c * t * (t * t + dl * dl) ** ((p - 2) / 2)) + (y - f) / eps

        mu, fx, gx = 0.0, obj(x), grad(x)
        for _ in range(200):
            if np.max(np.abs(gx)) <= tol:
                return x
            t = incidence @ x
            curv = (t * t + dl * dl) ** ((p - 4) / 2) * ((p - 1) * t * t + dl * dl)
            H = incidence.T @ (c[:, None] * curv[:, None] * incidence) + np.eye(g.n) / eps
            base = float(np.max(np.diag(H)))
            for _ in range(60):
                cand = x - np.linalg.solve(H + mu * np.eye(g.n), gx)
                fc = obj(cand)
                if fc <= fx or (fc <= fx + 1e-14 * max(1.0, abs(fx))
                                and np.max(np.abs(grad(cand))) < np.max(np.abs(gx))):
                    x, fx, gx, mu = cand, fc, grad(cand), mu / 3
                    break
                mu = max(10 * mu, 1e-12 * base)
                if mu > 1e15 * base:
                    return None
            else:
                return None
        return x if np.max(np.abs(gx)) <= tol else None

    x = f.copy()
    for dl in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-15):
        x = newton(x, dl, 1e-10 if dl == 1e-15 else 1e-8)
        if x is None:
            return None
    return x


def increments_cycle_window(incs, tol: float) -> bool:
    """Period-2 cycle in a window of orbit increments, by rescanning it:
    every second difference below tol (NaN passes) and some first
    difference at least tol; needs at least four increments."""
    if len(incs) < 4:
        return False
    for k in range(len(incs) - 2):
        if np.max(np.abs(incs[k + 2] - incs[k])) >= tol:
            return False
    alternation = max(float(np.max(np.abs(incs[k + 1] - incs[k])))
                      for k in range(len(incs) - 1))
    return alternation >= tol


def increments_cycle(incs, tol: float) -> bool:
    """The library's period-2 detector fed the window incs afresh: its
    answer at the last increment (False on an empty window)."""
    from curvflow.chains import _period2

    push = _period2(tol)
    return [push(inc) for inc in incs][-1] if len(incs) else False


def _lm_newton_separate(x, obj, grad_obj, hess, converged):
    """Levenberg-Marquardt damped Newton with separate objective, gradient,
    Hessian and stop test callables, each recomputing from the point."""
    from curvflow.errors import SolverError
    from curvflow.plaplace import MAX_INNER

    x = x.copy()
    fx = obj(x)
    gx = grad_obj(x)
    gnorm = float(np.abs(gx).max(initial=0.0))
    mu = 0.0
    last = None
    for step in range(MAX_INNER + 1):
        if converged(x, gx, last):
            return x, step
        if step == MAX_INNER:
            break
        H = hess(x)
        diag = H.diagonal().copy()
        base = float(diag.max())
        ftol = 1e-14 * max(1.0, abs(fx))
        accepted = False
        for _ in range(60):
            np.fill_diagonal(H, diag + mu)
            try:
                direction = np.linalg.solve(H, gx)
            except np.linalg.LinAlgError:
                mu = max(2.0 * mu, 1e-12 * base)
                continue
            length = 1.0
            for _ in range(30):
                cand = x - length * direction
                fc = obj(cand)
                if fc <= fx or (fc <= fx + ftol
                                and float(np.abs(grad_obj(cand)).max()) < gnorm):
                    accepted = True
                    break
                length /= 2.0
            if accepted:
                x, fx, gx = cand, fc, grad_obj(cand)
                gnorm = float(np.abs(gx).max())
                last = (direction, mu)
                mu /= 3.0
                break
            mu = max(10.0 * mu, 1e-12 * base)
            if mu > 1e15 * base:
                break
        if not accepted:
            break
    raise SolverError(
        f"resolvent inner solver did not converge within {step} Newton steps")


def conjugate_dual_separate(g, p: float, eps: float):
    """1 < p < 2: solve(f, x0) = (J_eps f, Newton steps, s) on the conjugate
    dual, with objective, gradient, Hessian and the Fenchel certificate
    each evaluating s / c and D^T s through ``PhiSpec`` on their own."""
    from curvflow.plaplace import GAP_TOL, PhiSpec, _edges, _resolvent_tv

    iu, iv, c = _edges(g)
    D = np.eye(g.n)[iv] - np.eye(g.n)[iu]
    q = p / (p - 1.0)
    phi_p, phi_q = PhiSpec.power(p), PhiSpec.power(q)
    gram = eps * (D @ D.T)
    gram_diag, abs_d = gram.diagonal().copy(), np.abs(D)
    signs = _resolvent_tv(g, eps) if p - 1.0 <= 1e-6 else None

    def hess(s):
        H = gram.copy()
        np.fill_diagonal(H, gram_diag + phi_q.derivative(s / c) / c)
        return H

    def solve(f, x0=None):
        df = D @ f

        def obj(s):
            u = s @ D
            return float(c @ phi_q.primitive(s / c) - s @ df + eps * (u @ u) / 2)

        def grad(s):
            return phi_q(s / c) - df + gram @ s

        grad_tol = (1e-12 * max(1.0, float(np.abs(f).max()))
                    + 1e-13 * q * float(np.abs(df).max(initial=0.0)))

        def converged(s, gs, last):
            if float(np.abs(gs).max(initial=0.0)) > grad_tol:
                return False
            sigma, u = s / c, s @ D
            t = D @ (f - eps * u)
            energy = float(c @ phi_p.primitive(t))
            gap = energy + float(c @ (phi_q.primitive(sigma) - sigma * t))
            floor = float(np.abs(s).sum() * np.max(np.abs(f) + eps * (np.abs(s) @ abs_d)))
            return gap <= GAP_TOL * max(1.0, energy + eps * (u @ u) / 2) + 1e-14 * floor

        s0 = c * (signs(f)[2] if signs else phi_p(D @ (f if x0 is None else x0)))
        with np.errstate(over="ignore"):
            s, steps = _lm_newton_separate(s0, obj, grad, hess, converged)
        return f - eps * (s @ D), steps, s

    return solve


def minimize_prox_separate(g, eps: float, phi):
    """p > 2 and custom phi: solve(f, x0) = (J_eps f, Newton steps, None)
    on the primal, with objective, gradient and Hessian each taking
    x[iv] - x[iu] on their own."""
    from curvflow.plaplace import G_TOL, _edges

    iu, iv, c = _edges(g)
    n = g.n

    def hess(x):
        H = np.zeros((n, n))
        dvals = phi.derivative(x[iv] - x[iu]) * c
        H[iu, iv] = H[iv, iu] = -dvals
        np.fill_diagonal(H, np.bincount(iu, dvals, n) + np.bincount(iv, dvals, n) + 1.0 / eps)
        return H

    def solve(f, x0=None):
        def grad_obj(x):
            s = c * phi(x[iv] - x[iu])
            return (x - f) / eps + np.bincount(iv, s, n) - np.bincount(iu, s, n)

        def obj(x):
            r = x - f
            return float(c @ phi.primitive(x[iv] - x[iu])) + float(r @ r) / (2 * eps)

        tol = G_TOL * max(1.0, float(np.max(np.abs(f))))

        def converged(x, gx, last):
            return eps * float(np.abs(gx).max()) <= tol or (
                last is not None
                and (1.0 + last[1] * eps) * float(np.linalg.norm(last[0])) <= tol)

        return *_lm_newton_separate(f if x0 is None else x0, obj, grad_obj, hess,
                                    converged), None

    return solve


class LPResult(NamedTuple):
    x: np.ndarray
    value: float
    status: str  # "optimal" | "infeasible" | "unbounded"


_FEAS_TOL = 1e-9
_ENTER_TOL = 1e-12


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Eliminate column ``col`` against data row ``row`` (rows are 1-based)."""
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row - 1] = col


def _bland_iterate(T: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """Bland-rule pivots to optimality on an initialized tableau: enter
    the smallest eligible column, leave the least ratio (ties within
    roundoff relative to it) with the smallest basic variable."""
    for _ in range(10_000):
        candidates = np.flatnonzero(T[0, :ncols] < -_ENTER_TOL)
        if candidates.size == 0:
            return "optimal"
        j = int(candidates[0])
        col = T[1:, j]
        rows = np.flatnonzero(col > _FEAS_TOL)
        if rows.size == 0:
            return "unbounded"
        ratios = T[1:, -1][rows] / col[rows]
        rmin = ratios.min()
        ties = rows[ratios <= rmin + _FEAS_TOL * abs(rmin) + 1e-15]
        _pivot(T, basis, int(ties[np.argmin(basis[ties])]) + 1, j)
    raise RuntimeError("dense simplex exceeded 10000 pivots")


def dense_simplex(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> LPResult:
    """Two-phase simplex for min c @ x, A @ x = b, x >= 0 on a dense tableau."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: minimize the sum of artificial variables
    basis = np.arange(n, n + m)
    T = np.empty((m + 1, n + m + 1))
    T[1:, :-1] = np.column_stack([A, np.eye(m)])
    T[1:, -1] = b
    T[0, :n] = -A.sum(axis=0)
    T[0, n:n + m] = 0.0
    T[0, -1] = -b.sum()
    status = _bland_iterate(T, basis, n + m)
    if status != "optimal" or -T[0, -1] > _FEAS_TOL * (1.0 + abs(b).sum()):
        return LPResult(np.zeros(n), np.nan, "infeasible")

    # drive leftover artificials out of the basis; drop redundant rows
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] < n:
            continue
        nz = np.flatnonzero(np.abs(T[i + 1, :n]) > _FEAS_TOL)
        if nz.size:
            _pivot(T, basis, i + 1, int(nz[0]))
        else:
            keep[i] = False
    T = np.vstack([T[:1], T[1:][keep]])
    basis, A, b = basis[keep], A[keep], b[keep]

    # phase 2 on the original costs, artificial columns removed
    T2 = np.empty((T.shape[0], n + 1))
    T2[1:, :n] = T[1:, :n]
    T2[1:, -1] = T[1:, -1]
    cb = c[basis]
    T2[0, :n] = c - cb @ T2[1:, :n]
    T2[0, -1] = -cb @ T2[1:, -1]
    status = _bland_iterate(T2, basis, n)
    x = np.zeros(n)
    if status == "optimal":
        # re-solve on the final basis to shed pivoting roundoff
        try:
            xb = np.linalg.solve(A[:, basis], b)
        except np.linalg.LinAlgError:
            xb = T2[1:, -1]
        x[basis] = np.where(np.abs(xb) < _FEAS_TOL, np.maximum(xb, 0.0), xb)
    return LPResult(x, float(c @ x), status)


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


def triangle_inequality_holds(d: np.ndarray, rel_tol: float) -> bool:
    """d[i][j] <= d[i][k] + d[k][j] + rel_tol x max(1, largest finite entry)
    for every triple, one triple at a time in plain floats (a NaN compares
    false, so it fails)."""
    values = d.tolist()
    finite = [x for row in values for x in row if math.isfinite(x)]
    tol = rel_tol * max([1.0] + finite)
    n = len(values)
    return all(values[i][j] <= values[i][k] + values[k][j] + tol
               for i in range(n) for j in range(n) for k in range(n))


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
