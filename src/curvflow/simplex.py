"""Dense two-phase simplex for small linear programs.

Solves ``min c @ x  s.t.  A @ x = b, x >= 0`` on a dense tableau with
Bland's anti-cycling rule (entering: smallest eligible variable index;
leaving: minimum ratio, ties broken by smallest basic variable index).
It serves the LPs of ball-restricted transport, whose forbidden cells
leave no ready feasible basis; ``transport``'s tree simplex for
Wasserstein distances follows the same rules, its ENTER_TOL relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, SolverError, UnboundedError

__all__ = ["LPResult", "solve_standard_lp", "require_optimal"]

FEAS_TOL = 1e-9
# entering threshold: reduced costs beyond this are treated as optimal.
# kept far below the feasibility tolerance so optimal values are stable
# to ~1e-12 x cost scale across basis paths (the flow's diagnostics need it)
ENTER_TOL = 1e-12
MAX_PIVOTS = 10_000


@dataclass
class LPResult:
    x: np.ndarray
    value: float
    basis: np.ndarray
    status: str  # "optimal" | "infeasible" | "unbounded"
    n_pivots: int


def require_optimal(res: LPResult, context: str = "LP") -> LPResult:
    if res.status == "infeasible":
        raise InfeasibleError(f"{context}: constraint system is infeasible")
    if res.status == "unbounded":
        raise UnboundedError(f"{context}: objective is unbounded")
    if res.status != "optimal":
        raise SolverError(f"{context}: solver returned status {res.status!r}")
    return res


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Eliminate column `col` against data row `row` (rows are 1-based)."""
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row - 1] = col


def _bland_iterate(T: np.ndarray, basis: np.ndarray, ncols: int) -> tuple[str, int]:
    """Run Bland-rule pivots to optimality on an initialized tableau."""
    pivots = 0
    while True:
        reduced = T[0, :ncols]
        candidates = np.flatnonzero(reduced < -ENTER_TOL)
        if candidates.size == 0:
            return "optimal", pivots
        j = int(candidates[0])
        col = T[1:, j]
        rows = np.flatnonzero(col > FEAS_TOL)
        if rows.size == 0:
            return "unbounded", pivots
        ratios = T[1:, -1][rows] / col[rows]
        rmin = ratios.min()
        ties = rows[ratios <= rmin + FEAS_TOL * (1.0 + abs(rmin))]
        leave = int(ties[np.argmin(basis[ties])])
        _pivot(T, basis, leave + 1, j)
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise SolverError(f"simplex exceeded {MAX_PIVOTS} pivots")


def solve_standard_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> LPResult:
    """Two-phase simplex for ``min c @ x, A @ x = b, x >= 0``."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: minimize the sum of artificial variables
    A1 = np.column_stack([A, np.eye(m)])
    basis = np.arange(n, n + m)
    T = np.empty((m + 1, n + m + 1))
    T[1:, :-1] = A1
    T[1:, -1] = b
    T[0, :n] = -A.sum(axis=0)
    T[0, n:n + m] = 0.0
    T[0, -1] = -b.sum()
    status, pivots1 = _bland_iterate(T, basis, n + m)
    if status != "optimal" or -T[0, -1] > FEAS_TOL * (1.0 + abs(b).sum()):
        return LPResult(x=np.zeros(n), value=np.nan, basis=basis,
                        status="infeasible", n_pivots=pivots1)

    # drive leftover artificials out of the basis; drop redundant rows
    keep_rows = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] < n:
            continue
        row = T[i + 1, :n]
        nz = np.flatnonzero(np.abs(row) > FEAS_TOL)
        if nz.size:
            _pivot(T, basis, i + 1, int(nz[0]))
        else:
            keep_rows[i] = False
    if not keep_rows.all():
        T = np.vstack([T[:1], T[1:][keep_rows]])
        basis = basis[keep_rows]
        A = A[keep_rows]
        b = b[keep_rows]
        m = A.shape[0]

    # phase 2 on the original costs, artificial columns removed
    T2 = np.empty((m + 1, n + 1))
    T2[1:, :n] = T[1:, :n]
    T2[1:, -1] = T[1:, -1]
    cb = c[basis]
    T2[0, :n] = c - cb @ T2[1:, :n]
    T2[0, -1] = -cb @ T2[1:, -1]
    status, pivots2 = _bland_iterate(T2, basis, n)
    x = np.zeros(n)
    if status == "optimal":
        # re-solve on the final basis to shed pivoting roundoff
        try:
            xb = np.linalg.solve(A[:, basis], b)
        except np.linalg.LinAlgError:
            xb = T2[1:, -1]
        x[basis] = np.where(np.abs(xb) < FEAS_TOL, np.maximum(xb, 0.0), xb)
    return LPResult(x=x, value=float(c @ x), basis=basis.copy(),
                    status=status, n_pivots=pivots1 + pivots2)
