"""Exact optimal transport between finitely supported measures.

Wasserstein distances, identical measures included, are solved by a
network simplex whose basis is a spanning tree of the supports: started
least-cost or warm, priced by Dantzig's rule (Bland's after a degenerate
pivot), and updated in place, each pivot moving flow on its cycle and
re-deriving duals on the subtree it re-hangs.  The same solver, run in
two phases, maximizes the ball transport with forbidden cells.  The
solver returns its final tree, whose duals certify W by Kantorovich
duality: their c-transform, 1-Lipschitz on any metric (checked once per
distance matrix), has a dual value matching W, so no second LP is
solved.  An audit mode certifies every transport solve made inside it,
and every value the Ricci flow prices from a kept basis; each value
counts in every audit context open around it.

The Ricci flow prices one transport LP per edge and step through one
``_Batch`` per edge set.  It keeps every edge's last optimal spanning
tree and re-prices them all in one numpy pass: the tree flows are fixed,
so W is a sum over the tree cells, and only the reduced costs need
checking.  An edge whose tree is no longer optimal is re-solved warm from
it, and only its arrays are rebuilt.  The values are bit-identical to a
warm solve of every edge.  Under ``transport_audit`` each kept edge's
value is certified by ``_certify`` from its slice of the batch's duals.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificateError,
    DisconnectedError,
    InfeasibleError,
    SolverError,
    ValidationError,
)
from .graphs import DistanceMatrix, WeightedGraph

__all__ = [
    "ProbMeasure",
    "TransportPlan",
    "wasserstein",
    "dual_certificate",
    "constrained_transport_max",
    "transport_audit",
]

MASS_TOL = 1e-12
MARGINAL_TOL = 1e-9
CERTIFY_TOL = 1e-7
FEAS_TOL = 1e-9
# entering threshold, relative to the largest cost: reduced costs beyond it
# count as optimal.  Kept far below FEAS_TOL so optimal values are stable to
# ~1e-12 x cost scale across basis paths (the flow's diagnostics need it)
ENTER_TOL = 1e-12
MAX_PIVOTS = 10_000
# floats per temporary of the blocked triangle check (128 KB); 1 MB blocks
# added 1.5 MB to the curvature benchmark's peak RSS and ran slower at n = 100
_TRIANGLE_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class ProbMeasure:
    """Finitely supported measure: distinct vertex ids with masses.

    Total mass must be 1 within 1e-12.
    """

    support: np.ndarray
    mass: np.ndarray

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
        if abs(mass.sum() - 1.0) > MASS_TOL:
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
    def from_dict(cls, masses: dict[int, float]) -> "ProbMeasure":
        items = sorted(masses.items())
        return cls(np.array([k for k, _ in items]),
                   np.array([v for _, v in items]))

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

    ``entries`` maps (source vertex, target vertex) to a finite mass.  Row
    and column sums must reproduce the marginals within 1e-9.  ``basic_cells``
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
            if not (np.isfinite(mass) and mass >= -MARGINAL_TOL):
                raise ValidationError(f"plan entry ({u}, {v}) is not finite and "
                                      f"nonnegative: {mass}")
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


@dataclass
class _Audit:
    count: int = 0  # certified values: transport solves and flow-priced W(e)
    pivots: int = 0  # simplex pivots over those calls
    warm: int = 0  # values from a kept tree: warm solves and flow-priced W(e)
    max_gap: float = 0.0


# the open ledgers, outermost first; a value certified inside counts in all
_LEDGERS: ContextVar[tuple[_Audit, ...]] = ContextVar("transport_audit", default=())


@contextmanager
def transport_audit():
    """Certify by duality (``_certify``) every transport solve in this
    context and every W(e) that a Ricci flow step prices from an edge's
    kept basis.

    A value that cannot be certified (gap not within 1e-7 x scale, or d
    not a metric) raises CertificateError immediately.  The yielded
    ledger counts, from zero, the values certified, warm starts, pivots
    and the largest gap (``max_gap``).  Contexts nest: an outer ledger
    also counts what inner ones certify, and auditing lasts until the
    outermost context ends.  A context covers its own thread or task.
    """
    ledger = _Audit()
    token = _LEDGERS.set(_LEDGERS.get() + (ledger,))
    try:
        yield ledger
    finally:
        _LEDGERS.reset(token)


def _record(count: int, warm: int, pivots: int, gap: float) -> None:
    """Add ``count`` certified values (``warm`` from a kept basis), their
    ``pivots`` and their largest ``gap`` to every open ledger."""
    for ledger in _LEDGERS.get():
        ledger.count += count
        ledger.warm += warm
        ledger.pivots += pivots
        ledger.max_gap = max(ledger.max_gap, gap)


# ---------------------------------------------------------------------------
# Wasserstein distance


def _least_cost_basis(a: np.ndarray, b: np.ndarray,
                      c: np.ndarray | list[list[float]]) -> list[tuple[int, int]]:
    """Least-cost spanning-tree basis of the a x b transport polytope: the
    cheapest cell of an open row and column (row-major ties) takes
    min(a_i, b_j) and closes its row (on a tie too) or its column, never
    both, until the last cell closes the last row.  Each closed line hangs
    on a line closed later, so the n1 + n2 - 1 cells form a tree."""
    ra, rb = a.tolist(), b.tolist()  # None once the line is closed
    open_rows, open_cols = a.size, b.size
    cells, order = [], iter(np.argsort(np.ravel(c), kind="stable").tolist())
    while open_rows:
        i, j = divmod(next(order), b.size)
        if ra[i] is None or rb[j] is None:
            continue
        cells.append((i, j))
        if (ra[i] <= rb[j] and open_rows > 1) or open_cols == 1:
            rb[j] -= ra[i]
            ra[i], open_rows = None, open_rows - 1
        else:
            ra[i] -= rb[j]
            rb[j], open_cols = None, open_cols - 1
    return cells


def _cell(k: int, up: int, n1: int) -> tuple[int, int]:
    """The (row, column) cell joining tree node ``k`` to its parent ``up``:
    rows are nodes 0..n1-1, column j is node n1 + j."""
    return (k, up - n1) if k < n1 else (up, k - n1)


def _tree(cells, cost: list[list[float]], supply: list[float]):
    """(duals, parent, flows) of the tree of ``cells`` (i, j), joining row
    node i to column node n1 + j; None unless the cells reach every node.

    The duals solve u_i + v_j = cost[i][j] from u_0 = 0, parent points
    towards row 0, and the flows, peeled leaf by leaf, meet the supplies
    (a at rows, -b at columns).
    """
    n1 = len(cost)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in supply]
    for i, j in cells:
        adjacency[i].append((n1 + j, cost[i][j]))
        adjacency[n1 + j].append((i, cost[i][j]))
    duals: list = [0.0] + [None] * (len(supply) - 1)
    parent = [-1] * len(supply)
    order = [0]
    for p in order:
        for k, c in adjacency[p]:
            if duals[k] is None:
                duals[k] = c - duals[p]
                parent[k] = p
                order.append(k)
    if len(order) < len(supply):
        return None
    net, flows = list(supply), {}
    for k in reversed(order[1:]):
        p = parent[k]
        flows[_cell(k, p, n1)] = net[k] if k < n1 else -net[k]
        net[p] += net[k]
    return duals, parent, flows


def _flow_floor(supply: list[float]) -> float:
    """Least flow a feasible tree may carry: -MASS_TOL, widened by the
    supplies' own imbalance (up to 2 x MASS_TOL between two valid
    measures), which the peel can leave on a cell of zero flow."""
    return -MASS_TOL - abs(sum(supply))


def _start_tree(cells, c: list[list[float]], supply: list[float]):
    """``_tree`` of a starting basis, which must be a spanning tree of the
    supports with no flow below ``_flow_floor`` (the bound the solver's
    final flows meet), else ValidationError."""
    on = all(0 <= i < len(c) and 0 <= j < len(supply) - len(c) for i, j in cells)
    tree = _tree(cells, c, supply) if on else None
    if tree is None or len(set(cells)) != len(supply) - 1:
        raise ValidationError("starting basis is not a spanning tree of the supports")
    if min(tree[2].values()) < _flow_floor(supply):
        raise ValidationError("starting basis is not primal feasible")
    return tree


def _entering(c: list, duals: list, tol: float, basic, frozen, bland: bool) -> tuple | None:
    """The cell off ``basic`` and ``frozen`` of most negative c_ij - u_i - v_j
    below -tol, first row-major on ties, or with ``bland`` the first below -tol."""
    best, enter, v = -tol, None, duals[len(c):]
    for i, row in enumerate(c):
        ui = duals[i]
        for j, cij in enumerate(row):
            if cij - ui - v[j] < best and (i, j) not in basic and (i, j) not in frozen:
                if bland:
                    return i, j
                best, enter = cij - ui - v[j], (i, j)
    return enter


def _transport_simplex(a: np.ndarray, b: np.ndarray, c: list[list[float]],
                       cells: list[tuple[int, int]],
                       frozen: frozenset | set = frozenset()) -> tuple[tuple, int]:
    """The optimal tree's (duals, parent, flows), as ``_tree`` gives them,
    and the pivot count, from the feasible tree ``cells``.

    Cold starts pass ``_least_cost_basis``, which leaves few pivots.  Cells
    enter by ``_entering`` below -ENTER_TOL x max(1, max c), by Bland's rule
    after a degenerate pivot until flow moves; the losing cell of least
    flow leaves, ties within roundoff relative to it to the smallest, so a
    degenerate run follows Bland's rule and cannot cycle.  An optimal start
    returns ``_start_tree``'s tree; else the tree is updated in place: flows
    move by theta on the cycle, parents reverse from the entering cell to
    the leaving one, duals are re-derived on the re-hung subtree.  A final
    flow below ``_flow_floor`` raises SolverError.
    """
    n1 = a.size
    tol = ENTER_TOL * max(1.0, max(map(max, c)))
    supply = a.tolist() + (-b).tolist()
    tree = duals, parent, flows = _start_tree(cells, c, supply)
    enter, pivots = _entering(c, duals, tol, flows, frozen, False), 0
    if enter is not None:  # keep the tree as parent, depth, children, parent-cell flow
        def hang(stack):  # duals and depths below, by dual = c - dual[parent]
            for k in stack:
                r, col = _cell(k, parent[k], n1)
                duals[k] = c[r][col] - duals[parent[k]]
                depth[k] = depth[parent[k]] + 1
                stack.extend(children[k])

        nodes, depth, basic = range(len(supply)), [0] * len(supply), set(flows)
        pflow = [flows[_cell(k, parent[k], n1)] if k else 0.0 for k in nodes]
        children: list[list[int]] = [[] for _ in nodes]
        for k in nodes[1:]:
            children[parent[k]].append(k)
        hang(list(children[0]))
    while enter is not None:
        if (pivots := pivots + 1) > MAX_PIVOTS:
            raise SolverError(f"transport simplex exceeded {MAX_PIVOTS} pivots")
        i, j = enter
        # climb from both ends of (i, j) to their common ancestor; every
        # other cell of the cycle, from the column end on, loses flow
        sides, ends = ([], []), [i, n1 + j]
        while ends[0] != ends[1]:
            s = int(depth[ends[1]] > depth[ends[0]])
            sides[s].append(ends[s])
            ends[s] = parent[ends[s]]
        cycle = [(k, (k < n1) != s) for s in (0, 1) for k in sides[s]]  # (node, loses)
        theta = min(pflow[k] for k, loses in cycle if loses)
        # an absolute tie window would outsize the masses of an alpha-lazy
        # measure and let a cell above the least ratio leave
        tie = MASS_TOL * abs(theta) + 1e-15
        leave, out = min((_cell(k, parent[k], n1), k)
                         for k, loses in cycle if loses and pflow[k] <= theta + tie)
        for k, loses in cycle:
            pflow[k] += -theta if loses else theta
        # re-hang the side holding the leaving cell from the entering one
        s = int(out in sides[1])
        path, up, f = sides[s][:sides[s].index(out) + 1], (n1 + j, i)[s], theta
        for k in path:
            children[parent[k]].remove(k)
            children[up].append(k)
            parent[k], pflow[k], up, f = up, f, k, pflow[k]
        hang([path[0]])
        basic ^= {leave, enter}
        enter = _entering(c, duals, tol, basic, frozen, theta <= tie)
    if pivots:
        tree = duals, parent, {_cell(k, parent[k], n1): pflow[k] for k in nodes[1:]}
    if min(tree[2].values()) < _flow_floor(supply):
        raise SolverError(f"transport simplex ended at a negative flow "
                          f"{min(tree[2].values()):g}")
    return tree, pivots


def _local_cells(mu1: ProbMeasure, mu2: ProbMeasure, pairs) -> list | None:
    """Vertex-pair cells as (row, column) support indices; None if one
    lies off the supports."""
    row = {x: i for i, x in enumerate(mu1.support.tolist())}
    col = {y: j for j, y in enumerate(mu2.support.tolist())}
    try:
        return [(row[x], col[y]) for x, y in pairs]
    except KeyError:
        return None


def _check_supports_connected(mu1: ProbMeasure, mu2: ProbMeasure,
                              d: DistanceMatrix) -> np.ndarray:
    cost = d.values[mu1.support[:, None], mu2.support]
    if np.isinf(cost).any():
        raise DisconnectedError("measure supports lie in different components")
    return cost


def _solve(mu1: ProbMeasure, mu2: ProbMeasure, d: DistanceMatrix,
           cells: list[tuple[int, int]] | None = None,
           ) -> tuple[float, tuple, np.ndarray | None]:
    """W, the optimal tree's (duals, parent, flows) as ``_tree`` gives them
    (nodes and cells by support index), and under ``transport_audit`` the
    potential that certifies W from that tree's own duals (else None).
    ``cells`` is the starting tree; None starts from the least-cost tree."""
    cost = _check_supports_connected(mu1, mu2, d)
    c = cost.tolist()
    start = _least_cost_basis(mu1.mass, mu2.mass, cost) if cells is None else cells
    tree, pivots = _transport_simplex(mu1.mass, mu2.mass, c, start)
    w = sum(f * c[i][j] for (i, j), f in sorted(tree[2].items()) if f > 0)
    phi = None
    if _LEDGERS.get():
        _require_metric(d)
        phi, gap = _certify(mu1, mu2, d, tree, w, max(1.0, float(np.max(cost))))
        _record(1, cells is not None, pivots, gap)
    return max(w, 0.0), tree, phi


def wasserstein(mu1: ProbMeasure, mu2: ProbMeasure, d: DistanceMatrix,
                ) -> tuple[float, TransportPlan]:
    """Exact Wasserstein distance and an optimal coupling.

    Supports must lie in one connected component of ``d``.  The returned
    plan attains the cost and carries the optimal basis for
    certification.  Identical measures take no pivot: their least-cost
    tree is optimal.
    """
    w, (_, _, flows), _ = _solve(mu1, mu2, d)
    sx, sy = mu1.support.tolist(), mu2.support.tolist()
    basic = sorted(flows)
    plan = TransportPlan({(sx[i], sy[j]): flows[i, j] for i, j in basic if flows[i, j] > 0},
                         mu1, mu2, basic_cells=tuple((sx[i], sy[j]) for i, j in basic))
    return w, plan


# ---------------------------------------------------------------------------
# Kantorovich dual certificate


def _require_metric(d: DistanceMatrix) -> None:
    """CertificateError unless d[i, j] <= d[i, k] + d[k, j] + MARGINAL_TOL x
    max(1, largest finite d) for all i, j, k (a NaN fails).  On a metric
    the c-transform of any duals is 1-Lipschitz, so this covers every
    potential certified on ``d``.  Checked once per DistanceMatrix, over
    blocks of k whose temporaries hold at most ``_TRIANGLE_BLOCK`` floats
    (one k, n^2 floats, beyond n = 128)."""
    if d._is_metric:
        return
    v, n = d.values, d.n
    tol = MARGINAL_TOL * max(1.0, float(v[np.isfinite(v)].max(initial=0.0)))
    step = max(1, _TRIANGLE_BLOCK // max(n * n, 1))
    for k in range(0, n, step):
        via = v[:, k:k + step, None] + v[None, k:k + step, :]
        via += tol  # in place: one float temporary per block
        if not (v[:, None, :] <= via).all():
            raise CertificateError("d is not a metric, so transport duals can give a "
                                   "non-Lipschitz potential")
    object.__setattr__(d, "_is_metric", True)


def _certify(mu1: ProbMeasure, mu2: ProbMeasure, d: DistanceMatrix, tree: tuple,
             value: float, scale: float | None = None) -> tuple[np.ndarray, float]:
    """c-transform phi(z) = min_j d(z, y_j) - v_j of the column duals v of
    ``tree`` (0 off the supports' component), 1-Lipschitz when ``d`` is a
    metric, and the gap |value - phi's dual value|; given a ``scale``, a
    gap not within CERTIFY_TOL x scale (or NaN) raises CertificateError."""
    phi = np.min(d.values[:, mu2.support] - np.array(tree[0][mu1.support.size:]), axis=1)
    phi = np.where(np.isfinite(phi), phi, 0.0)
    gap = abs(value - float(phi[mu1.support] @ mu1.mass - phi[mu2.support] @ mu2.mass))
    # callers pass max(1, largest cost): beyond unit-scale distances, only
    # relative optimality is resolvable in floats
    if scale is not None and not gap <= CERTIFY_TOL * scale:
        raise CertificateError(
            f"no optimality certificate within {CERTIFY_TOL:g} x scale "
            f"{scale:g}: gap={gap:g}")
    return phi, gap


def dual_certificate(mu1: ProbMeasure, mu2: ProbMeasure, d: DistanceMatrix,
                     plan: TransportPlan) -> tuple[np.ndarray, float]:
    """1-Lipschitz potential certifying optimality of a transport plan.

    Returns the potential (on all vertices) and the duality gap
    ``|cost(plan) - sum phi d(mu1 - mu2)|``.  A gap within CERTIFY_TOL x
    max(1, largest support distance) proves the plan optimal.  The
    potential is the c-transform of the transport duals of the plan's
    simplex basis; a plan whose basic cells do not span the supports (a
    hand-built plan) is measured against the optimal tree of a fresh
    solve.  The potential is 1-Lipschitz as ``d`` is a metric, checked
    once per distance matrix (else CertificateError).  A plan between
    other measures raises ValidationError; a gap not within tolerance (or
    NaN) raises CertificateError, naming the gap.
    """
    if not (plan.source_marginal == mu1 and plan.target_marginal == mu2):
        raise ValidationError("the plan's marginals are not mu1 and mu2")
    _require_metric(d)
    cost = _check_supports_connected(mu1, mu2, d)
    cells = _local_cells(mu1, mu2, plan.basic_cells or ())
    tree = cells and _tree(cells, cost.tolist(), mu1.mass.tolist() + (-mu2.mass).tolist())
    if not tree:
        tree, _ = _transport_simplex(mu1.mass, mu2.mass, cost.tolist(),
                                     _least_cost_basis(mu1.mass, mu2.mass, cost))
    return _certify(mu1, mu2, d, tree, plan.cost(d), max(1.0, float(np.max(cost))))


# ---------------------------------------------------------------------------
# the Ricci flow's batched tree pricing


class _Batch:
    """Every edge's optimal transport tree between its two walk measures,
    for one topology, re-priced for all edges in one numpy pass per step.

    The walk measures fix the layout: edge k's n1 x n2 cells, row-major
    from ``cell_start[k]``, with their vertices (``cx``, ``cy``), edge
    (``edge``) and tree nodes (``row``, ``col``: n1 + n2 nodes from
    ``node_start[k]``, rows first).  ``trees[k]`` holds edge k's sorted
    tree cells, its levels (node, parent cell, parent node, depth) and its
    cells of positive flow with the flows ``_start_tree`` peels from them.

    ``price`` solves every edge cold on its first call.  Later calls solve
    the duals one tree level at a time, one subtraction per node as in
    ``_tree``, and re-solve, warm, each edge with a cell of reduced cost
    below -ENTER_TOL x max(1, max cost), where the simplex would pivot (a
    tree cell's own is a few ulps of the cost scale).  Each other edge's W
    adds flow x d over its cells of positive flow in ``_solve``'s order,
    so it matches a warm solve to the bit; under ``transport_audit``
    ``_certify`` certifies it from the edge's slice of the duals.
    """

    def __init__(self, pairs: list[tuple[ProbMeasure, ProbMeasure]]) -> None:
        self.pairs, self.trees, self.levels = pairs, [None] * len(pairs), None
        n1 = np.array([mu.support.size for mu, _ in pairs], dtype=np.intp)
        n2 = np.array([nu.support.size for _, nu in pairs], dtype=np.intp)
        self.cell_start = np.cumsum(np.r_[0, n1 * n2])
        self.node_start = np.cumsum(np.r_[0, n1 + n2])
        self.edge = np.repeat(np.arange(len(pairs)), n1 * n2)
        i, j = np.divmod(np.arange(self.cell_start[-1]) - self.cell_start[self.edge],
                         n2[self.edge])
        self.row = self.node_start[self.edge] + i
        self.col = self.node_start[self.edge] + n1[self.edge] + j
        self.cx = _join([np.repeat(mu.support, nu.support.size) for mu, nu in pairs])
        self.cy = _join([np.tile(nu.support, mu.support.size) for mu, nu in pairs])

    def _keep(self, trees: dict[int, list[tuple[int, int]]]) -> None:
        """Make each ``trees[k]``, the sorted cells of a spanning tree of
        edge k's supports, edge k's tree, and lay out every tree again."""
        for k, cells in trees.items():
            mu, nu = self.pairs[k]
            n1, n2 = mu.support.size, nu.support.size
            zero = [[0.0] * n2] * n1  # the peeled flows ignore costs
            _, parent, flows = _start_tree(cells, zero, mu.mass.tolist() + (-nu.mass).tolist())
            parent = np.array(parent)
            parent[0] = 0
            depth, up = np.zeros(n1 + n2, dtype=np.intp), np.arange(n1 + n2)
            while up.any():
                depth += up > 0
                up = parent[up]
            node = np.arange(1, n1 + n2)
            i, j = np.where(node < n1, node, parent[1:]), np.where(node < n1, parent[1:], node) - n1
            cell = self.cell_start[k] + i * n2 + j
            first = self.node_start[k]
            flow = np.array([flows[c] for c in cells])
            at = self.cell_start[k] + np.array(cells) @ [n2, 1]
            self.trees[k] = (cells, np.array([first + node, cell, first + parent[1:], depth[1:]]),
                             at[flow > 0], flow[flow > 0])
        level = np.concatenate([np.zeros((4, 0), np.intp)] + [t[1] for t in self.trees], axis=1)
        level = level[:, np.argsort(level[3], kind="stable")]
        self.levels = np.split(level[:3], np.flatnonzero(np.diff(level[3])) + 1, axis=1)
        self.moved = _join([t[2] for t in self.trees])
        self.moved_flow = _join([t[3] for t in self.trees], float)
        self.moved_edge = np.repeat(np.arange(len(self.trees)), [t[2].size for t in self.trees])

    def price(self, d: DistanceMatrix) -> np.ndarray:
        """W of every edge under ``d``; an edge whose tree stopped being
        optimal there is re-solved, and its tree replaced."""
        cost = d.values[self.cx, self.cy]
        w, solve = np.zeros(len(self.pairs)), range(len(self.pairs))
        if self.levels is not None:
            scale = np.maximum(np.maximum.reduceat(cost, self.cell_start[:-1]), 1.0)
            dual = np.zeros(self.node_start[-1])
            for node, cell, up in self.levels:
                dual[node] = cost[cell] - dual[up]
            reduced = cost - dual[self.row] - dual[self.col]
            pivot = np.zeros(len(self.pairs), dtype=bool)
            pivot[self.edge[reduced < -(ENTER_TOL * scale[self.edge])]] = True
            # costs are distances, so W >= 0 needs no clamp
            w = np.bincount(self.moved_edge, cost[self.moved] * self.moved_flow,
                            minlength=len(self.pairs))
            solve = np.flatnonzero(pivot).tolist()
            if _LEDGERS.get():
                _require_metric(d)
                start, kept = self.node_start, np.flatnonzero(~pivot).tolist()
                gaps = [_certify(*self.pairs[k], d, (dual[start[k]:start[k + 1]],),
                                 float(w[k]), float(scale[k]))[1] for k in kept]
                _record(len(kept), len(kept), 0, max(gaps, default=0.0))
        trees = {}
        for k in solve:
            cells = self.trees[k] and self.trees[k][0]  # None on the first call: cold
            w[k], (_, _, flows), _ = _solve(*self.pairs[k], d, cells)
            trees[k] = sorted(flows)
        if trees:
            self._keep(trees)
        return w


def _join(parts: list[np.ndarray], dtype=np.intp) -> np.ndarray:
    """The 1-d arrays ``parts`` end to end (empty for no parts)."""
    return np.concatenate([np.zeros(0, dtype), *parts])


# ---------------------------------------------------------------------------
# constrained maximization on one-step balls


def constrained_transport_max(
    x: int, y: int, g: WeightedGraph, d0: DistanceMatrix, forbid: str,
) -> tuple[float, TransportPlan]:
    """Maximize sum pi(x', y') (1 - d0(x', y') / d0(x, y)) over ball plans.

    Plans couple the non-lazy walk measures of x and y on B1(x) x B1(y):
    w/m on each sphere, the remainder at the anchor, so a sphere mass
    above 1 is infeasible.  Entries selected by ``forbid`` are zero
    ("three-cycles": the diagonal x' = y'; "five-cycles": cells at hop
    distance 2 whose indices avoid both anchors).  The plans on the
    spheres carry at most unit mass; the slack of that cap sits inside
    the (x, y) entry, which no rule forbids and whose coefficient
    vanishes.  Phase 1 of the tree simplex minimizes the forbidden mass
    (a positive optimum raises InfeasibleError); phase 2 enters only
    allowed cells of zero phase-1 reduced cost, so forbidden flows stay 0.
    """
    if g.weights[x, y] <= 0:
        raise ValidationError(f"({x}, {y}) must be an edge")
    if forbid not in ("three-cycles", "five-cycles"):
        raise ValidationError(f"unknown forbid mode {forbid!r}")
    blocked = f"forbidden entries block the sphere marginals at edge ({x}, {y})"
    walks = []
    for v in (x, y):
        ball = sorted({v, *g.neighbors(v).tolist()})
        mass = g.weights[v, ball] / g.measure[v]
        if mass.sum() > 1.0 + MASS_TOL:
            raise InfeasibleError(blocked)
        mass[ball.index(v)] = max(1.0 - mass.sum(), 0.0)
        walks.append(ProbMeasure(np.array(ball), mass))
    mu, nu = walks
    hop = _check_supports_connected(mu, nu, d0).tolist()
    sx, sy = mu.support.tolist(), nu.support.tolist()
    barred = {(i, j) for i, u in enumerate(sx) for j, v in enumerate(sy)
              if (u == v if forbid == "three-cycles"
                  else u != x and v != y and hop[i][j] == 2)}

    n1, n2 = len(sx), len(sy)
    c1 = [[float((i, j) in barred) for j in range(n2)] for i in range(n1)]
    (duals, _, flows), _ = _transport_simplex(mu.mass, nu.mass, c1,
                                              _least_cost_basis(mu.mass, nu.mass, c1))
    if sum(f for e, f in flows.items() if e in barred) > FEAS_TOL:
        raise InfeasibleError(blocked)
    # phase-1 duals are sums of 0/1 costs, so zero reduced costs are exact
    frozen = {(i, j) for i in range(n1) for j in range(n2)
              if (i, j) in barred or duals[i] + duals[n1 + j] != 0.0}
    dxy = d0.value(x, y)
    c2 = [[h / dxy - 1.0 for h in row] for row in hop]
    (_, _, flows), _ = _transport_simplex(mu.mass, nu.mass, c2, list(flows), frozen)

    plan = TransportPlan({(sx[i], sy[j]): f for (i, j), f in flows.items() if f > 0},
                         mu, nu)
    value = -sum(f * c2[i][j] for (i, j), f in flows.items())
    return (0.0 if abs(value) < 1e-15 else float(value)), plan
