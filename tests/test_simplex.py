import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bland_transport_simplex,
    brute_force_lp_max,
    dense_simplex,
    dense_transport_lp,
    northwest_basis,
)

import curvflow.transport as transport
from curvflow.errors import SolverError
from curvflow import (
    ProbMeasure,
    WeightedGraph,
    dual_certificate,
    shortest_path_metric,
    wasserstein,
)


def test_basic_minimum():
    # min x0 + 2 x1 s.t. x0 + x1 = 1
    res = dense_simplex(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]),
                        np.array([1.0]))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-12)
    assert res.value == pytest.approx(1.0)


def test_infeasible_detected():
    # x0 = 1 and x0 = 2 simultaneously
    res = dense_simplex(np.array([1.0]), np.array([[1.0], [1.0]]),
                        np.array([1.0, 2.0]))
    assert res.status == "infeasible"


def test_unbounded_detected():
    # min -x0 s.t. x0 - x1 = 0 (both can grow)
    res = dense_simplex(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]),
                        np.array([0.0]))
    assert res.status == "unbounded"


def test_negative_rhs_and_redundant_rows():
    # duplicate constraints with flipped signs
    A = np.array([[1.0, 1.0], [-1.0, -1.0]])
    b = np.array([1.0, -1.0])
    res = dense_simplex(np.array([0.0, 1.0]), A, b)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0)
    np.testing.assert_allclose(A[0] @ res.x, 1.0, atol=1e-9)


def test_degenerate_cycling_prone_instance_terminates():
    # Beale's classic cycling example (standard form with slacks)
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    res = dense_simplex(c, A, b)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-0.05)


def test_random_instances_match_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m, n = 3, 6
        A = rng.uniform(-1.0, 1.0, (m, n))
        x_feas = rng.uniform(0.0, 1.0, n)
        b = A @ x_feas  # feasible by construction
        c = rng.uniform(-1.0, 1.0, n)
        res = dense_simplex(c, A, b)
        if res.status != "optimal":
            assert res.status == "unbounded"
            continue
        oracle = -brute_force_lp_max(-c, A, b)
        assert res.value == pytest.approx(oracle, abs=1e-8)
        np.testing.assert_allclose(A @ res.x, b, atol=1e-8)
        assert np.all(res.x >= -1e-9)


@st.composite
def _transport_instances(draw):
    """A path plus chords with lengths from a short list, so costs tie,
    and two measures with masses in {1, 2, 3} / total, so partial sums
    tie and starting trees carry zero flows; supports may be single
    points or overlap."""
    n = draw(st.integers(2, 6))
    length = st.sampled_from([1.0, 2.0, 3.0, 0.5, 1.25])
    edges = {(v - 1, v): draw(length) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=3)):
        if u + 1 < v:
            edges[(u, v)] = draw(length)
    g = WeightedGraph.from_edges(n, [(u, v, 1.0, ln) for (u, v), ln in edges.items()])

    def measure():
        supp = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                             unique=True))
        mass = np.array(draw(st.lists(st.integers(1, 3), min_size=len(supp),
                                      max_size=len(supp))), dtype=float)
        return ProbMeasure(np.array(supp), mass / mass.sum())

    return shortest_path_metric(g), measure(), measure()


@settings(max_examples=300, deadline=None)
@given(inst=_transport_instances())
def test_tree_simplex_matches_dense_simplex(inst):
    # wasserstein's transportation simplex against the dense two-phase
    # tableau on the same LP (all marginal rows, one redundant)
    d, mu1, mu2 = inst
    value, plan = wasserstein(mu1, mu2, d)
    cost = d.values[np.ix_(mu1.support, mu2.support)]
    dense = dense_simplex(*dense_transport_lp(mu1.mass, mu2.mass, cost))
    assert dense.status == "optimal"
    scale = max(1.0, float(cost.max()))
    assert abs(value - dense.value) <= 1e-12 * scale
    _, gap = dual_certificate(mu1, mu2, d, plan)
    assert gap <= 1e-12 * scale


def _check_both_starts(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> None:
    """The least-cost start is a feasible spanning tree, and the tree
    simplex from it and from the cost-blind northwest corner reaches the
    dense simplex's optimum."""
    c = cost.tolist()
    start = transport._least_cost_basis(a, b, c)
    transport._start_tree(start, c, a.tolist() + (-b).tolist())  # raises if not
    scale = max(1.0, float(cost.max()))
    dense = dense_simplex(*dense_transport_lp(a, b, cost))
    assert dense.status == "optimal"
    values = []
    for cells in (start, northwest_basis(a, b)):
        (_, _, flows), _ = transport._transport_simplex(a, b, c, cells)
        values.append(sum(f * c[i][j] for (i, j), f in flows.items()))
    assert abs(values[0] - values[1]) <= 1e-12 * scale
    assert abs(values[0] - dense.value) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(inst=_transport_instances(), zero_costs=st.booleans())
def test_least_cost_and_northwest_starts_agree(inst, zero_costs):
    d, mu1, mu2 = inst
    cost = d.values[np.ix_(mu1.support, mu2.support)]
    _check_both_starts(mu1.mass, mu2.mass, np.zeros_like(cost) if zero_costs else cost)


@pytest.mark.parametrize("zero_costs", [False, True])
@pytest.mark.parametrize("n1,n2", [(1, 1), (1, 5), (5, 1)])
def test_least_cost_start_on_a_single_row_or_column(n1, n2, zero_costs):
    # one row (or column) leaves no choice of tree: every cell is basic
    rng = np.random.default_rng(24)
    a, b = rng.integers(1, 4, n1).astype(float), rng.integers(1, 4, n2).astype(float)
    cost = np.zeros((n1, n2)) if zero_costs else rng.integers(0, 3, (n1, n2)).astype(float)
    a, b = a / a.sum(), b / b.sum()
    assert sorted(transport._least_cost_basis(a, b, cost.tolist())) == \
        [(i, j) for i in range(n1) for j in range(n2)]
    _check_both_starts(a, b, cost)


@st.composite
def _degenerate_problems(draw):
    """a x b transport problems with integer masses (zeros included) and
    integer costs (ties everywhere), sometimes between identical measures
    with zero diagonal cost; a least-cost or northwest start tree and, as in
    phase 2 of the ball transport, a frozen set of cells off that tree."""
    n1 = draw(st.integers(1, 5))
    identical = draw(st.booleans())
    n2 = n1 if identical else draw(st.integers(1, 5))

    def masses(n):
        m = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
        m[draw(st.integers(0, n - 1))] += 1.0  # a positive total
        return m / m.sum()

    a = masses(n1)
    b = a.copy() if identical else masses(n2)
    cost = np.array(draw(st.lists(st.integers(0, 3), min_size=n1 * n2, max_size=n1 * n2)),
                    dtype=float).reshape(n1, n2)
    if identical:
        np.fill_diagonal(cost, 0.0)
    c = cost.tolist()
    start = (transport._least_cost_basis(a, b, c) if draw(st.booleans())
             else northwest_basis(a, b))
    off_tree = [(i, j) for i in range(n1) for j in range(n2) if (i, j) not in start]
    frozen = frozenset(e for e in off_tree if draw(st.booleans())) \
        if draw(st.booleans()) else frozenset()
    return a, b, cost, start, frozen


@settings(max_examples=400, deadline=None)
@given(problem=_degenerate_problems())
def test_network_simplex_is_optimal_and_matches_the_bland_oracle(problem):
    # Dantzig pricing on the in-place tree reaches the optimum that the
    # rebuild-and-Bland solver and the dense tableau reach, over the LP
    # with the frozen cells' flows fixed at 0
    a, b, cost, start, frozen = problem
    c, n1 = cost.tolist(), a.size
    supply = a.tolist() + (-b).tolist()
    scale = max(1.0, float(cost.max()))
    (duals, _, flows), _ = transport._transport_simplex(a, b, c, start, frozen)
    (_, _, oracle_flows), _ = bland_transport_simplex(a, b, c, start, frozen)
    value = sum(f * c[i][j] for (i, j), f in flows.items())
    assert abs(value - sum(f * c[i][j] for (i, j), f in oracle_flows.items())) <= 1e-12 * scale
    lp_c, lp_a, rhs = dense_transport_lp(a, b, cost)
    allowed = np.array([(i, j) not in frozen for i in range(n1) for j in range(b.size)])
    dense = dense_simplex(lp_c[allowed], lp_a[:, allowed], rhs)
    assert dense.status == "optimal"
    assert abs(value - dense.value) <= 1e-12 * scale
    # a spanning tree whose duals price its own cells at cost, none allowed below -tol
    peel = transport._tree(list(flows), c, supply)
    assert len(flows) == n1 + b.size - 1 and peel is not None
    assert peel[0] == duals  # the in-place duals are the fresh peel's, bit for bit
    for i in range(n1):
        for j in range(b.size):
            reduced = c[i][j] - duals[i] - duals[n1 + j]
            if (i, j) in flows:
                assert abs(reduced) <= 1e-12 * scale
            elif (i, j) not in frozen:
                assert reduced >= -transport.ENTER_TOL * scale
    # flows moved on the cycles stay feasible and next to a fresh peel
    assert min(flows.values()) >= transport._flow_floor(supply)
    assert max(abs(peel[2][e] - f) for e, f in flows.items()) <= 1e-14


# 8 of its 11 pivots from the northwest corner are degenerate
_DEGENERATE = (np.array([2.0, 2.0, 1.0, 2.0]) / 7, np.array([2.0, 1.0, 2.0, 2.0]) / 7,
               [[3.0, 2.0, 1.0, 2.0], [1.0, 2.0, 1.0, 0.0], [2.0, 0.0, 1.0, 0.0],
                [2.0, 0.0, 0.0, 2.0]])


def test_bland_fallback_after_degenerate_pivots(monkeypatch):
    a, b, c = _DEGENERATE
    start = northwest_basis(a, b)
    rules = []
    entering = transport._entering

    def counted(*args):
        rules.append(args[-1])  # True: Bland's rule after a degenerate pivot
        return entering(*args)

    monkeypatch.setattr(transport, "_entering", counted)
    (_, _, flows), pivots = transport._transport_simplex(a, b, c, start)
    assert (pivots, sum(rules)) == (11, 8)
    (_, _, oracle_flows), oracle_pivots = bland_transport_simplex(a, b, c, start)
    assert oracle_pivots == 14
    value = sum(f * c[i][j] for (i, j), f in flows.items())
    assert abs(value - sum(f * c[i][j] for (i, j), f in oracle_flows.items())) <= 1e-12
    assert abs(value - dense_simplex(*dense_transport_lp(a, b, np.array(c))).value) <= 1e-12


def test_network_simplex_errors(monkeypatch):
    a, b, c = _DEGENERATE
    start = northwest_basis(a, b)
    monkeypatch.setattr(transport, "MAX_PIVOTS", 11)
    assert transport._transport_simplex(a, b, c, start)[1] == 11
    monkeypatch.setattr(transport, "MAX_PIVOTS", 10)
    with pytest.raises(SolverError, match="exceeded 10 pivots"):
        transport._transport_simplex(a, b, c, start)
    monkeypatch.undo()
    # flows are moved, never re-peeled, so the final check must catch a
    # start tree whose flow went wrong after its own check
    start_tree = transport._start_tree

    def corrupted(*args):
        duals, parent, flows = start_tree(*args)
        return duals, parent, {e: f - 0.5 * (e == (1, 0)) for e, f in flows.items()}

    monkeypatch.setattr(transport, "_start_tree", corrupted)
    with pytest.raises(SolverError, match="negative flow"):
        transport._transport_simplex(a, b, c, start)


def test_rank_deficient_systems():
    # duplicated constraints: phase 1 must drop the redundant rows
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = 3, 5
        A = rng.uniform(-1, 1, (m, n))
        A = np.vstack([A, A[0], 2.0 * A[1] - A[2]])
        x_feas = rng.uniform(0, 1, n)
        b = A @ x_feas
        c = rng.uniform(-1, 1, n)
        res = dense_simplex(c, A, b)
        if res.status != "optimal":
            assert res.status == "unbounded"
            continue
        oracle = -brute_force_lp_max(-c, A[:m], b[:m])
        assert res.value == pytest.approx(oracle, abs=1e-8)
        np.testing.assert_allclose(A @ res.x, b, atol=1e-8)


def test_zero_rows_and_zero_rhs():
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([0.0, 1.0])
    res = dense_simplex(np.array([1.0, 3.0]), A, b)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0)
