"""Exact optimal transport between finitely supported measures.

Wasserstein distances are solved as transportation LPs with a
self-contained simplex (northwest-corner starting basis, Bland's rule).
Optimality of every plan can be certified through Kantorovich duality:
the c-transform of the simplex basis's own transport duals is a
1-Lipschitz potential whose dual value matches the plan cost, so the
certificate needs no second LP.  An audit mode certifies every
``wasserstein`` call made inside it, which the acceptance suite uses to
cross-check all transport work done by the flows.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificateError,
    DisconnectedError,
    InfeasibleError,
    ValidationError,
)
from .graphs import DistanceMatrix, WeightedGraph
from .simplex import require_optimal, solve_from_basis, solve_standard_lp

__all__ = [
    "ProbMeasure",
    "TransportPlan",
    "wasserstein",
    "dual_certificate",
    "constrained_transport_max",
    "transport_audit",
    "audit_stats",
]

MASS_TOL = 1e-12
MARGINAL_TOL = 1e-9
CERTIFY_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class ProbMeasure:
    """Finitely supported measure: distinct vertex ids with masses.

    Total mass must be 1 within 1e-12 unless ``subprobability`` is set
    (used for the marginals of ball-restricted transport plans).
    """

    support: np.ndarray
    mass: np.ndarray
    subprobability: bool = False

    def __post_init__(self) -> None:
        supp = np.asarray(self.support, dtype=int)
        mass = np.asarray(self.mass, dtype=float)
        if supp.ndim != 1 or supp.shape != mass.shape:
            raise ValidationError("support and mass must be matching 1-d arrays")
        if supp.size == 0:
            raise ValidationError("measure needs nonempty support")
        if np.unique(supp).size != supp.size:
            raise ValidationError("support entries must be distinct")
        if np.any(mass < -MASS_TOL) or not np.all(np.isfinite(mass)):
            raise ValidationError("masses must be nonnegative")
        mass = np.maximum(mass, 0.0)
        if not self.subprobability and abs(mass.sum() - 1.0) > MASS_TOL:
            raise ValidationError(f"masses must sum to 1, got {mass.sum()!r}")
        order = np.argsort(supp)
        supp = supp[order]
        mass = mass[order]
        supp.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "support", supp)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def delta(cls, x: int) -> "ProbMeasure":
        return cls(np.array([x]), np.array([1.0]))

    @classmethod
    def from_dict(cls, masses: dict[int, float], subprobability: bool = False) -> "ProbMeasure":
        items = sorted(masses.items())
        return cls(np.array([k for k, _ in items]),
                   np.array([v for _, v in items]), subprobability)

    def total(self) -> float:
        return float(self.mass.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbMeasure):
            return NotImplemented
        return (np.array_equal(self.support, other.support)
                and np.array_equal(self.mass, other.mass))


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Coupling with prescribed marginals.

    ``entries`` maps (source vertex, target vertex) to mass.  Row and
    column sums must reproduce the marginals within 1e-9.  ``basic_cells``
    records the simplex basis when the plan came from the LP; the dual
    certificate solves its transport duals by complementary slackness.
    """

    entries: dict[tuple[int, int], float]
    source_marginal: ProbMeasure
    target_marginal: ProbMeasure
    basic_cells: tuple[tuple[int, int], ...] | None = field(default=None)

    def __post_init__(self) -> None:
        rows: dict[int, float] = {}
        cols: dict[int, float] = {}
        for (u, v), mass in self.entries.items():
            if mass < -MARGINAL_TOL:
                raise ValidationError(f"plan entry ({u}, {v}) is negative: {mass}")
            rows[u] = rows.get(u, 0.0) + mass
            cols[v] = cols.get(v, 0.0) + mass
        for meas, sums, label in ((self.source_marginal, rows, "source"),
                                  (self.target_marginal, cols, "target")):
            for vertex, mass in zip(meas.support, meas.mass):
                if abs(sums.pop(int(vertex), 0.0) - mass) > MARGINAL_TOL:
                    raise ValidationError(
                        f"plan {label} marginal mismatch at vertex {vertex}")
            leftover = max((abs(s) for s in sums.values()), default=0.0)
            if leftover > MARGINAL_TOL:
                raise ValidationError(f"plan has mass off the {label} support")

    def cost(self, d: DistanceMatrix) -> float:
        return float(sum(mass * d.value(u, v)
                         for (u, v), mass in self.entries.items()))

    def total_mass(self) -> float:
        return float(sum(self.entries.values()))


# ---------------------------------------------------------------------------
# audit mode


class _Audit:
    __slots__ = ("enabled", "count", "max_gap")

    def __init__(self) -> None:
        self.enabled = False
        self.count = 0
        self.max_gap = 0.0


_AUDIT = _Audit()


@contextmanager
def transport_audit():
    """Certify every wasserstein call in this context via duality.

    A call whose plan cannot be certified (gap above 1e-7) raises
    CertificateError immediately.  Counters are reset on entry.
    """
    _AUDIT.enabled = True
    _AUDIT.count = 0
    _AUDIT.max_gap = 0.0
    try:
        yield _AUDIT
    finally:
        _AUDIT.enabled = False


def audit_stats() -> tuple[int, float]:
    """(number of audited calls, largest certified duality gap)."""
    return _AUDIT.count, _AUDIT.max_gap


# ---------------------------------------------------------------------------
# Wasserstein distance


def _northwest_basis(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int]]:
    """Staircase spanning-tree basis of the a x b transport polytope."""
    n1, n2 = a.size, b.size
    ra = a.copy()
    rb = b.copy()
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


def _check_supports_connected(mu1: ProbMeasure, mu2: ProbMeasure,
                              d: DistanceMatrix) -> np.ndarray:
    cost = d.values[np.ix_(mu1.support, mu2.support)]
    if np.any(np.isinf(cost)):
        raise DisconnectedError("measure supports lie in different components")
    return cost


def wasserstein(mu1: ProbMeasure, mu2: ProbMeasure,
                d: DistanceMatrix) -> tuple[float, TransportPlan]:
    """Exact Wasserstein distance and an optimal coupling.

    Supports must lie in one connected component of ``d``.  The returned
    plan attains the cost and carries the optimal simplex basis for
    certification.
    """
    if mu1.subprobability or mu2.subprobability:
        raise ValidationError("wasserstein needs probability measures")
    cost = _check_supports_connected(mu1, mu2, d)
    if mu1 == mu2:
        entries = {(int(x), int(x)): float(m)
                   for x, m in zip(mu1.support, mu1.mass)}
        plan = TransportPlan(entries, mu1, mu2,
                             basic_cells=tuple((int(x), int(x)) for x in mu1.support))
        return 0.0, plan
    value, plan = _transport_lp(mu1, mu2, cost)
    if _AUDIT.enabled:
        _, gap = dual_certificate(mu1, mu2, d, plan)
        _AUDIT.count += 1
        _AUDIT.max_gap = max(_AUDIT.max_gap, gap)
    return value, plan


def _transport_lp(mu1: ProbMeasure, mu2: ProbMeasure,
                  cost: np.ndarray) -> tuple[float, TransportPlan]:
    """The transportation LP on the supports' cost block, solved from the
    northwest-corner basis; the plan records the optimal basis."""
    n1, n2 = mu1.support.size, mu2.support.size
    c = cost.reshape(-1)
    # rows: n1 source sums, then n2-1 target sums (last one is redundant)
    m = n1 + n2 - 1
    A = np.zeros((m, n1 * n2))
    for i in range(n1):
        A[i, i * n2:(i + 1) * n2] = 1.0
    for j in range(n2 - 1):
        A[n1 + j, j::n2] = 1.0
    b = np.concatenate([mu1.mass, mu2.mass[:-1]])
    basis = np.array([i * n2 + j for i, j in _northwest_basis(mu1.mass, mu2.mass)])
    res = require_optimal(
        solve_from_basis(c, A, b, basis), "wasserstein transport LP")

    pi = res.x.reshape(n1, n2)
    entries = {(int(mu1.support[i]), int(mu2.support[j])): float(pi[i, j])
               for i, j in zip(*np.nonzero(pi > 0))}
    basic = tuple((int(mu1.support[k // n2]), int(mu2.support[k % n2]))
                  for k in sorted(res.basis))
    plan = TransportPlan(entries, mu1, mu2, basic_cells=basic)
    return max(res.value, 0.0), plan


# ---------------------------------------------------------------------------
# Kantorovich dual certificate


def _basis_potential(mu1: ProbMeasure, mu2: ProbMeasure, d: DistanceMatrix,
                     cost: np.ndarray,
                     cells: tuple[tuple[int, int], ...] | None) -> np.ndarray | None:
    """c-transform of the transport duals of a basis.

    Solves u_i + v_j = d(x_i, y_j) over the basic cells and returns
    phi(z) = min_j d(z, y_j) - v_j on every vertex, with 0 off the
    supports' component.  phi is 1-Lipschitz for any v, and for an
    optimal basis it attains the LP value.  A simplex basis is a spanning
    tree of the support bipartite graph, so the propagation is always
    consistent; cells that do not span the supports give None.
    """
    n1 = mu1.support.size
    row = {x: i for i, x in enumerate(mu1.support.tolist())}
    col = {y: n1 + j for j, y in enumerate(mu2.support.tolist())}
    adjacency: list[list[int]] = [[] for _ in range(n1 + len(col))]
    for x, y in cells or ():
        if x in row and y in col:
            adjacency[row[x]].append(col[y])
            adjacency[col[y]].append(row[x])
    c = cost.tolist()
    duals: list[float | None] = [None] * len(adjacency)
    duals[0] = 0.0
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adjacency[a]:
            if duals[b] is None:
                duals[b] = c[min(a, b)][max(a, b) - n1] - duals[a]
                stack.append(b)
    if None in duals:
        return None
    phi = np.min(d.values[:, mu2.support] - np.array(duals[n1:]), axis=1)
    return np.where(np.isfinite(phi), phi, 0.0)


def _verify_potential(full: np.ndarray, d: DistanceMatrix, tol: float) -> bool:
    diff = np.abs(full[:, None] - full[None, :])
    finite = np.isfinite(d.values)
    return bool(np.all(diff[finite] <= d.values[finite] + tol))


def dual_certificate(mu1: ProbMeasure, mu2: ProbMeasure, d: DistanceMatrix,
                     plan: TransportPlan, *, certify_tol: float = CERTIFY_TOL,
                     require: bool = True) -> tuple[np.ndarray, float]:
    """1-Lipschitz potential certifying optimality of a transport plan.

    Returns the potential (on all vertices) and the duality gap
    ``|cost(plan) - sum phi d(mu1 - mu2)|``.  A gap below ``certify_tol``
    proves the plan optimal.  The potential is the c-transform of the
    transport duals of the plan's simplex basis, so no LP is solved for a
    plan that ``wasserstein`` returned.  A plan whose basic cells do not
    span the supports (a hand-built plan) is measured against the basis
    of a fresh solve of the same transport LP; identical measures get
    phi = 0, since their distance is 0.  The 1-Lipschitz property is
    verified independently.  With ``require`` set, a gap above tolerance
    raises CertificateError — it signals an LP bug.
    """
    sub = _check_supports_connected(mu1, mu2, d)
    # tolerances are relative to the instance scale: beyond unit-scale
    # distances, only relative optimality is resolvable in floats
    scale = max(1.0, float(np.max(sub)))
    if mu1 == mu2:
        full = np.zeros(d.n)
    else:
        full = _basis_potential(mu1, mu2, d, sub, plan.basic_cells)
        if full is None:
            basis = _transport_lp(mu1, mu2, sub)[1].basic_cells
            full = _basis_potential(mu1, mu2, d, sub, basis)
    if not _verify_potential(full, d, MARGINAL_TOL * scale):
        raise CertificateError("transport duals gave a non-Lipschitz potential")
    dual = float(full[mu1.support] @ mu1.mass - full[mu2.support] @ mu2.mass)
    gap = abs(plan.cost(d) - dual)
    if require and gap > certify_tol * scale:
        raise CertificateError(
            f"no optimality certificate within {certify_tol:g} x scale "
            f"{scale:g}: gap={gap:g}")
    return full, gap


# ---------------------------------------------------------------------------
# constrained maximization on one-step balls


def constrained_transport_max(
    x: int, y: int, g: WeightedGraph, d0: DistanceMatrix, forbid: str,
) -> tuple[float, TransportPlan]:
    """Maximize sum pi(x', y') (1 - d0(x', y') / d0(x, y)) over ball plans.

    Plans live on B1(x) x B1(y) with sphere marginals pinned to the
    jump probabilities w/m; entries selected by ``forbid`` are zero
    ("three-cycles": the diagonal x' = y'; "five-cycles": cells at hop
    distance 2 whose indices avoid both anchors).  Total plan mass is
    capped at 1 with the slack placed implicitly at (x, y), where the
    objective coefficient vanishes.
    """
    if g.weights[x, y] <= 0:
        raise ValidationError(f"({x}, {y}) must be an edge")
    if forbid not in ("three-cycles", "five-cycles"):
        raise ValidationError(f"unknown forbid mode {forbid!r}")
    sphere_x = [int(z) for z in g.neighbors(x)]
    sphere_y = [int(z) for z in g.neighbors(y)]
    ball_x = sorted({x, *sphere_x})
    ball_y = sorted({y, *sphere_y})
    dxy = d0.value(x, y)

    cells: list[tuple[int, int]] = []
    coeffs: list[float] = []
    for a in ball_x:
        for bv in ball_y:
            if forbid == "three-cycles" and a == bv:
                continue
            hop = d0.value(a, bv)
            if forbid == "five-cycles" and a != x and bv != y and hop == 2:
                continue
            cells.append((a, bv))
            coeffs.append(1.0 - hop / dxy)

    ncells = len(cells)
    rows_x = {a: r for r, a in enumerate(sorted(sphere_x))}
    rows_y = {bv: len(rows_x) + r for r, bv in enumerate(sorted(sphere_y))}
    nrows = len(rows_x) + len(rows_y) + 1
    A = np.zeros((nrows, ncells + 1))
    b = np.zeros(nrows)
    for k, (a, bv) in enumerate(cells):
        if a in rows_x:
            A[rows_x[a], k] = 1.0
        if bv in rows_y:
            A[rows_y[bv], k] = 1.0
        A[nrows - 1, k] = 1.0
    for a, r in rows_x.items():
        b[r] = g.weights[x, a] / g.measure[x]
    for bv, r in rows_y.items():
        b[r] = g.weights[y, bv] / g.measure[y]
    A[nrows - 1, ncells] = 1.0  # slack for the unit mass cap
    b[nrows - 1] = 1.0

    c = np.zeros(ncells + 1)
    c[:ncells] = -np.asarray(coeffs)
    res = solve_standard_lp(c, A, b)
    if res.status == "infeasible":
        raise InfeasibleError(
            f"forbidden entries block the sphere marginals at edge ({x}, {y})")
    require_optimal(res, "constrained transport LP")

    entries: dict[tuple[int, int], float] = {}
    row_sums: dict[int, float] = dict.fromkeys(ball_x, 0.0)
    col_sums: dict[int, float] = dict.fromkeys(ball_y, 0.0)
    for k, (a, bv) in enumerate(cells):
        mass = res.x[k]
        if mass > 0:
            entries[(a, bv)] = float(mass)
            row_sums[a] += float(mass)
            col_sums[bv] += float(mass)
    plan = TransportPlan(
        entries,
        ProbMeasure.from_dict(row_sums, subprobability=True),
        ProbMeasure.from_dict(col_sums, subprobability=True),
    )
    value = -res.value
    return (0.0 if abs(value) < 1e-15 else float(value)), plan
