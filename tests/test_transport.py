import numpy as np
import pytest

from conftest import complete_graph, path_graph, random_flow_graph
from oracles import (
    ball_transport_lp,
    brute_force_lp_max,
    brute_force_wasserstein,
    dense_simplex,
    dense_transport_lp,
    triangle_inequality_holds,
)

from curvflow import (
    CertificateError,
    DisconnectedError,
    DistanceMatrix,
    InfeasibleError,
    ProbMeasure,
    TransportPlan,
    ValidationError,
    WeightedGraph,
    combinatorial_metric,
    constrained_transport_max,
    dual_certificate,
    shortest_path_metric,
    wasserstein,
)
from curvflow.transport import _solve, transport_audit


def random_measure(rng, vertices, k):
    supp = rng.choice(vertices, size=min(k, len(vertices)), replace=False)
    mass = rng.uniform(0.1, 1.0, supp.size)
    return ProbMeasure(supp, mass / mass.sum())


def test_measure_validation():
    with pytest.raises(ValidationError):
        ProbMeasure(np.array([0, 0]), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        ProbMeasure(np.array([0, 1]), np.array([0.5, 0.4]))
    with pytest.raises(ValidationError):
        ProbMeasure(np.array([0, 1]), np.array([1.5, -0.5]))


def test_plan_marginal_validation():
    mu = ProbMeasure.delta(0)
    nu = ProbMeasure.delta(1)
    with pytest.raises(ValidationError):
        TransportPlan({(0, 1): 0.5}, mu, nu)
    TransportPlan({(0, 1): 1.0}, mu, nu)


def test_identical_measures_cost_zero_identity_plan():
    g = WeightedGraph.from_edges(3, [(0, 1, 1, 1), (1, 2, 1, 1)])
    d = shortest_path_metric(g)
    mu = ProbMeasure(np.array([0, 2]), np.array([0.25, 0.75]))
    cost, plan = wasserstein(mu, mu, d)
    assert cost == 0.0
    assert plan.entries == {(0, 0): 0.25, (2, 2): 0.75}


def test_point_masses_cost_is_distance():
    g = WeightedGraph.from_edges(3, [(0, 1, 1, 1.5), (1, 2, 1, 2.5)])
    d = shortest_path_metric(g)
    cost, plan = wasserstein(ProbMeasure.delta(0), ProbMeasure.delta(2), d)
    assert cost == pytest.approx(4.0)
    assert plan.entries == {(0, 2): 1.0}


def test_two_point_overlap_example():
    # 0.7/0.3 against 0.4/0.6 at distance 2: move 0.3 across -> 0.6
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 2.0)])
    d = shortest_path_metric(g)
    mu1 = ProbMeasure(np.array([0, 1]), np.array([0.7, 0.3]))
    mu2 = ProbMeasure(np.array([0, 1]), np.array([0.4, 0.6]))
    cost, _ = wasserstein(mu1, mu2, d)
    oracle = brute_force_wasserstein(mu1.mass, mu2.mass, d.values)
    assert cost == pytest.approx(0.6, abs=1e-12)
    assert cost == pytest.approx(oracle, abs=1e-12)


def test_supports_in_different_components_rejected():
    g = WeightedGraph.from_edges(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
    d = shortest_path_metric(g)
    with pytest.raises(DisconnectedError):
        wasserstein(ProbMeasure.delta(0), ProbMeasure.delta(2), d)


def test_random_instances_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = random_flow_graph(rng, 6)
        d = shortest_path_metric(g)
        comp = max(
            (c for c in __import__("curvflow").connected_components(g)), key=len)
        mu1 = random_measure(rng, comp, 3)
        mu2 = random_measure(rng, comp, 3)
        cost, plan = wasserstein(mu1, mu2, d)
        sub = d.values[np.ix_(mu1.support, mu2.support)]
        oracle = brute_force_wasserstein(mu1.mass, mu2.mass, sub)
        assert cost == pytest.approx(oracle, abs=1e-9)
        assert plan.cost(d) == pytest.approx(cost, abs=1e-9)


def test_metric_properties_on_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_flow_graph(rng, 6)
        comps = __import__("curvflow").connected_components(g)
        comp = max(comps, key=len)
        d = shortest_path_metric(g)
        mus = [random_measure(rng, comp, 3) for _ in range(3)]
        w01, _ = wasserstein(mus[0], mus[1], d)
        w10, _ = wasserstein(mus[1], mus[0], d)
        w12, _ = wasserstein(mus[1], mus[2], d)
        w02, _ = wasserstein(mus[0], mus[2], d)
        assert w01 == pytest.approx(w10, abs=1e-8)
        assert w02 <= w01 + w12 + 1e-8


def test_scaling_distance_scales_cost():
    rng = np.random.default_rng(8)
    g = random_flow_graph(rng, 5)
    comp = max(__import__("curvflow").connected_components(g), key=len)
    d = shortest_path_metric(g)
    mu1 = random_measure(rng, comp, 2)
    mu2 = random_measure(rng, comp, 2)
    base, _ = wasserstein(mu1, mu2, d)
    for r in (0.25, 3.0, 1e5):
        scaled, _ = wasserstein(mu1, mu2, d.scaled(r))
        assert scaled == pytest.approx(r * base, rel=1e-12)


def test_plan_marginals_within_tolerance():
    rng = np.random.default_rng(9)
    g = random_flow_graph(rng, 7)
    comp = max(__import__("curvflow").connected_components(g), key=len)
    d = shortest_path_metric(g)
    for _ in range(10):
        mu1 = random_measure(rng, comp, 3)
        mu2 = random_measure(rng, comp, 4)
        _, plan = wasserstein(mu1, mu2, d)  # TransportPlan validates marginals
        assert plan.total_mass() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# dual certificates


def test_certificate_for_point_masses():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 2.0)])
    d = shortest_path_metric(g)
    cost, plan = wasserstein(ProbMeasure.delta(0), ProbMeasure.delta(1), d)
    phi, gap = dual_certificate(ProbMeasure.delta(0), ProbMeasure.delta(1), d, plan)
    assert gap <= 1e-12
    assert phi[0] - phi[1] == pytest.approx(2.0)


def test_certificate_identity():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)])
    d = shortest_path_metric(g)
    mu = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    _, plan = wasserstein(mu, mu, d)
    phi, gap = dual_certificate(mu, mu, d, plan)
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_certificates_on_random_five_point_instances():
    rng = np.random.default_rng(10)
    for _ in range(25):
        g = random_flow_graph(rng, 7)
        comp = max(__import__("curvflow").connected_components(g), key=len)
        if len(comp) < 5:
            continue
        d = shortest_path_metric(g)
        mu1 = random_measure(rng, comp, 5)
        mu2 = random_measure(rng, comp, 5)
        _, plan = wasserstein(mu1, mu2, d)
        phi, gap = dual_certificate(mu1, mu2, d, plan)
        assert gap < 1e-7
        # potential must be 1-Lipschitz on every finite pair
        diff = np.abs(phi[:, None] - phi[None, :])
        finite = np.isfinite(d.values)
        assert np.all(diff[finite] <= d.values[finite] + 1e-9)


def test_certificate_rejects_suboptimal_plan():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)])
    d = shortest_path_metric(g)
    mu1 = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    mu2 = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    # feasible but wasteful: swap the halves instead of keeping them
    bad = TransportPlan({(0, 1): 0.5, (1, 0): 0.5}, mu1, mu2)
    with pytest.raises(CertificateError, match="gap=1$"):
        dual_certificate(mu1, mu2, d, bad)


def test_audit_mode_counts_and_certifies():
    rng = np.random.default_rng(11)
    g = random_flow_graph(rng, 6)
    comp = max(__import__("curvflow").connected_components(g), key=len)
    d = shortest_path_metric(g)
    with transport_audit() as audit:
        for _ in range(5):
            mu1 = random_measure(rng, comp, 3)
            mu2 = random_measure(rng, comp, 3)
            wasserstein(mu1, mu2, d)
    assert audit.count == 5
    assert audit.max_gap < 1e-7


def test_audit_ledgers_nest():
    # an inner context neither resets the outer ledger nor ends the audit
    d = shortest_path_metric(path_graph([1.0, 1.0, 1.0]))
    mu = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    nu = ProbMeasure(np.array([2, 3]), np.array([0.25, 0.75]))
    with transport_audit() as outer:
        wasserstein(mu, nu, d)
        with transport_audit() as inner:
            wasserstein(nu, mu, d)
        wasserstein(mu, mu, d)
    assert (outer.count, inner.count) == (3, 1)
    assert outer.pivots >= inner.pivots and outer.max_gap >= inner.max_gap
    wasserstein(mu, nu, d)  # no context is open: nothing counts
    assert (outer.count, inner.count) == (3, 1)


# ---------------------------------------------------------------------------
# constrained ball transport


def test_two_vertex_three_cycle_value_zero():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)])
    d0 = combinatorial_metric(g)
    value, plan = constrained_transport_max(0, 1, g, d0, "three-cycles")
    assert value == 0.0
    assert plan.entries == {(1, 0): 1.0}


def _constrained_oracle(x, y, g, d0, forbid):
    """Re-derive the LP and maximize by basis enumeration."""
    return brute_force_lp_max(*ball_transport_lp(x, y, g, d0, forbid))


def test_triangle_constrained_max_matches_enumeration():
    g = complete_graph(3, measure=2.0)
    d0 = combinatorial_metric(g)
    for forbid, expected in (("three-cycles", 0.0), ("five-cycles", 0.5)):
        value, _ = constrained_transport_max(0, 1, g, d0, forbid)
        oracle = _constrained_oracle(0, 1, g, d0, forbid)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(expected, abs=1e-9)


def test_random_constrained_max_matches_enumeration():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(20):
        g = random_flow_graph(rng, 5)
        d0 = combinatorial_metric(g)
        edges = list(g.edges())
        u, v = edges[int(rng.integers(len(edges)))]
        for forbid in ("three-cycles", "five-cycles"):
            try:
                value, plan = constrained_transport_max(u, v, g, d0, forbid)
            except Exception:
                continue
            oracle = _constrained_oracle(u, v, g, d0, forbid)
            assert value == pytest.approx(oracle, abs=1e-8)
            checked += 1
    assert checked >= 20


def test_five_cycle_local_support_value_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_flow_graph(rng, 6)
        d0 = combinatorial_metric(g)
        for u, v in g.edges():
            value, plan = constrained_transport_max(u, v, g, d0, "five-cycles")
            if all(d0.value(a, b) <= 1 for a, b in plan.entries):
                assert -1e-9 <= value <= 1.0 + 1e-9


def test_convex_value_never_exceeds_unconstrained():
    from curvflow import InfeasibleError

    rng = np.random.default_rng(14)
    for _ in range(8):
        g = random_flow_graph(rng, 5)
        d0 = combinatorial_metric(g)
        for u, v in g.edges():
            try:
                constrained, _ = constrained_transport_max(u, v, g, d0, "three-cycles")
            except InfeasibleError:
                continue
            # unconstrained = same LP without forbidden cells; emulate by
            # taking the better of both cycle variants' relaxation oracle
            sphere_x = sorted(int(z) for z in g.neighbors(u))
            sphere_y = sorted(int(z) for z in g.neighbors(v))
            ball_x = sorted({u, *sphere_x})
            ball_y = sorted({v, *sphere_y})
            cells = [(a, b) for a in ball_x for b in ball_y]
            rows = {("x", a): i for i, a in enumerate(sphere_x)}
            rows.update({("y", b): len(rows) + i for i, b in enumerate(sphere_y)})
            nr = len(rows) + 1
            A = np.zeros((nr, len(cells) + 1))
            bb = np.zeros(nr)
            coeffs = []
            for k, (a, b2) in enumerate(cells):
                coeffs.append(1.0 - d0.value(a, b2) / d0.value(u, v))
                if ("x", a) in rows:
                    A[rows[("x", a)], k] = 1.0
                if ("y", b2) in rows:
                    A[rows[("y", b2)], k] = 1.0
                A[nr - 1, k] = 1.0
            for a in sphere_x:
                bb[rows[("x", a)]] = g.weights[u, a] / g.measure[u]
            for b2 in sphere_y:
                bb[rows[("y", b2)]] = g.weights[v, b2] / g.measure[v]
            A[nr - 1, -1] = 1.0
            bb[nr - 1] = 1.0
            unconstrained = brute_force_lp_max(
                np.concatenate([coeffs, [0.0]]), A, bb)
            assert constrained <= unconstrained + 1e-9


def test_constrained_max_infeasible_above_unit_sphere_mass():
    # deg(1) = 2: no walk measure exists at 1, so no plan does either;
    # the separation gates and the CLI's error cells need InfeasibleError
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])
    d0 = combinatorial_metric(g)
    for forbid in ("three-cycles", "five-cycles"):
        with pytest.raises(InfeasibleError, match=r"edge \(0, 1\)"):
            constrained_transport_max(0, 1, g, d0, forbid)


def _check_constrained_max(x, y, g, d0, forbid, reference):
    """constrained_transport_max against the optimum of the first-posed LP
    (None when that LP is infeasible); the plan carries unit mass, avoids
    the forbidden cells and attains the value."""
    if reference is None:
        with pytest.raises(InfeasibleError):
            constrained_transport_max(x, y, g, d0, forbid)
        return
    value, plan = constrained_transport_max(x, y, g, d0, forbid)
    assert abs(value - reference) <= 1e-12
    for a, b in plan.entries:
        assert not (forbid == "three-cycles" and a == b)
        assert not (forbid == "five-cycles" and a != x and b != y
                    and d0.value(a, b) == 2)
    assert plan.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert abs(value - (1.0 - plan.cost(d0) / d0.value(x, y))) <= 1e-12


def test_constrained_max_matches_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    checked = infeasible = 0
    for seed in range(700, 760):
        g = random_flow_graph(np.random.default_rng(seed), 4 + seed % 5)
        d0 = combinatorial_metric(g)
        for x, y in g.edges():
            for forbid in ("three-cycles", "five-cycles"):
                c, A, rhs = ball_transport_lp(x, y, g, d0, forbid)
                ref = optimize.linprog(-c, A_eq=A, b_eq=rhs, bounds=(0, None),
                                       method="highs")
                assert ref.status in (0, 2)
                _check_constrained_max(x, y, g, d0, forbid,
                                       -ref.fun if ref.status == 0 else None)
                checked += 1
                infeasible += ref.status == 2
    assert checked > 700 and infeasible > 50


# ---------------------------------------------------------------------------
# property-based invariants


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
       shrink=st.sampled_from([1.0, 0.7, 0.4]),
       forbid=st.sampled_from(["three-cycles", "five-cycles"]),
       pick=st.integers(0, 63))
def test_constrained_max_matches_dense_simplex(seed, n, shrink, forbid, pick):
    # a shrunken measure pushes degrees above 1, where the LP is infeasible
    base = random_flow_graph(np.random.default_rng(seed), n)
    g = WeightedGraph(n, base.weights, base.measure * shrink, base.lengths)
    d0 = combinatorial_metric(g)
    edges = list(g.edges())
    x, y = edges[pick % len(edges)]
    c, A, rhs = ball_transport_lp(x, y, g, d0, forbid)
    dense = dense_simplex(-c, A, rhs)
    assert dense.status in ("optimal", "infeasible")
    _check_constrained_max(x, y, g, d0, forbid,
                           -dense.value if dense.status == "optimal" else None)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), r=st.floats(min_value=0.05, max_value=20.0))
def test_wasserstein_scales_exactly_with_distance(seed, r):
    rng = np.random.default_rng(seed)
    g = WeightedGraph.from_edges(
        4, [(0, 1, 1.0, float(rng.uniform(0.5, 2.0))),
            (1, 2, 1.0, float(rng.uniform(0.5, 2.0))),
            (2, 3, 1.0, float(rng.uniform(0.5, 2.0))),
            (0, 3, 1.0, float(rng.uniform(0.5, 2.0)))])
    d = shortest_path_metric(g)
    m1 = rng.uniform(0.1, 1.0, 3)
    m2 = rng.uniform(0.1, 1.0, 2)
    mu1 = ProbMeasure(np.array([0, 1, 2]), m1 / m1.sum())
    mu2 = ProbMeasure(np.array([1, 3]), m2 / m2.sum())
    base, plan = wasserstein(mu1, mu2, d)
    scaled, _ = wasserstein(mu1, mu2, d.scaled(r))
    assert scaled == pytest.approx(r * base, rel=1e-12, abs=1e-15)
    assert plan.total_mass() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_plan_cost_attains_reported_value(seed):
    rng = np.random.default_rng(seed)
    g = WeightedGraph.from_edges(
        5, [(i, i + 1, 1.0, float(rng.uniform(0.5, 2.0))) for i in range(4)])
    d = shortest_path_metric(g)
    supp = rng.choice(5, 3, replace=False)
    m1 = rng.uniform(0.1, 1.0, 3)
    m2 = rng.uniform(0.1, 1.0, 3)
    mu1 = ProbMeasure(supp, m1 / m1.sum())
    mu2 = ProbMeasure(rng.choice(5, 3, replace=False), m2 / m2.sum())
    cost, plan = wasserstein(mu1, mu2, d)
    assert plan.cost(d) == pytest.approx(cost, abs=1e-9)
    assert cost >= 0.0


def test_certificate_handles_split_basis_pieces():
    # a block-diagonal optimal plan whose hand-built "basis" splits into
    # two pieces, so its cells do not span the supports: the certificate
    # comes from the basis of a fresh solve of the same transport LP
    g = WeightedGraph.from_edges(
        4, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 3.0), (2, 3, 1.0, 1.0)])
    d = shortest_path_metric(g)
    mu1 = ProbMeasure(np.array([0, 2]), np.array([0.5, 0.5]))
    mu2 = ProbMeasure(np.array([1, 3]), np.array([0.5, 0.5]))
    plan = TransportPlan({(0, 1): 0.5, (2, 3): 0.5}, mu1, mu2,
                         basic_cells=((0, 1), (2, 3)))
    phi, gap = dual_certificate(mu1, mu2, d, plan)
    assert gap < 1e-9
    diff = np.abs(phi[:, None] - phi[None, :])
    assert np.all(diff <= d.values + 1e-9)


def test_certificate_rejects_a_plan_of_other_measures():
    # on the unit path 0-1-2-3 the optimal plan delta_1 -> delta_3 costs
    # W(delta_0, delta_2) = 2, so its gap against those measures is 0, yet
    # it is no coupling of them
    d = shortest_path_metric(path_graph([1.0, 1.0, 1.0]))
    _, plan = wasserstein(ProbMeasure.delta(1), ProbMeasure.delta(3), d)
    for mu1, mu2 in ((0, 2), (1, 2), (0, 3)):
        with pytest.raises(ValidationError, match="marginals"):
            dual_certificate(ProbMeasure.delta(mu1), ProbMeasure.delta(mu2), d, plan)
    assert dual_certificate(ProbMeasure.delta(1), ProbMeasure.delta(3), d, plan)[1] == 0.0


def test_certificate_falls_back_without_basis():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 2.0)])
    d = shortest_path_metric(g)
    mu1, mu2 = ProbMeasure.delta(0), ProbMeasure.delta(1)
    plan = TransportPlan({(0, 1): 1.0}, mu1, mu2)  # no basic cells recorded
    phi, gap = dual_certificate(mu1, mu2, d, plan)
    assert gap < 1e-9


def test_certificate_dual_value_matches_enumeration():
    rng = np.random.default_rng(15)
    checked = 0
    for _ in range(25):
        g = random_flow_graph(rng, 8)
        comp = max(__import__("curvflow").connected_components(g), key=len)
        if len(comp) < 4:
            continue
        d = shortest_path_metric(g)
        mu1 = random_measure(rng, comp, 4)
        mu2 = random_measure(rng, comp, 3)
        _, plan = wasserstein(mu1, mu2, d)
        phi, _ = dual_certificate(mu1, mu2, d, plan)
        sub = d.values[np.ix_(mu1.support, mu2.support)]
        oracle = brute_force_wasserstein(mu1.mass, mu2.mass, sub)
        dual = phi[mu1.support] @ mu1.mass - phi[mu2.support] @ mu2.mass
        assert abs(dual - oracle) <= 1e-12 * max(1.0, float(sub.max()))
        finite = np.isfinite(d.values)
        diff = np.abs(phi[:, None] - phi[None, :])
        assert np.all(diff[finite] <= d.values[finite] + 1e-12)
        checked += 1
    assert checked >= 15


def test_certificate_rejects_a_nan_distance():
    # infinite distances pass the Lipschitz check on their own; a NaN
    # distance, even off the supports, proves nothing and fails it
    values = shortest_path_metric(complete_graph(4)).values.copy()
    values[0, 3] = values[3, 0] = np.nan
    d = DistanceMatrix(values)
    mu1, mu2 = ProbMeasure.delta(1), ProbMeasure.delta(2)
    _, plan = wasserstein(mu1, mu2, d)
    with pytest.raises(CertificateError, match="non-Lipschitz"):
        dual_certificate(mu1, mu2, d, plan)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_plan_rejects_a_non_finite_entry(entry):
    # a NaN entry used to pass every marginal test (NaN compares false)
    mu = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    nu = ProbMeasure(np.array([1, 2]), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError, match="not finite"):
        TransportPlan({(0, 1): entry, (1, 2): 0.5}, mu, nu)


def test_certificate_fails_a_nan_gap(monkeypatch):
    d = shortest_path_metric(path_graph([1.0, 1.0]))
    mu = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    nu = ProbMeasure(np.array([1, 2]), np.array([0.5, 0.5]))
    _, plan = wasserstein(mu, nu, d)
    monkeypatch.setattr(TransportPlan, "cost", lambda self, d: float("nan"))
    with pytest.raises(CertificateError, match="gap=nan$"):
        dual_certificate(mu, nu, d, plan)


@pytest.mark.parametrize("block", [None, 1, 500])
def test_metric_check_matches_the_triple_loop_oracle(monkeypatch, block):
    # block=None is the default, one block at these sizes; 1 and 500
    # floats force one k, or a few, per block, so block seams are crossed
    from curvflow import transport

    if block is not None:
        monkeypatch.setattr(transport, "_TRIANGLE_BLOCK", block)
    rng = np.random.default_rng(41)
    checked = rejected = 0
    for _ in range(12):
        n = int(rng.integers(4, 16))
        g = random_flow_graph(rng, n)
        if rng.random() < 0.3:  # drop edges: infinite distances between components
            keep = rng.random((n, n)) < 0.7
            g = WeightedGraph(n, g.weights * (keep & keep.T), g.measure, g.lengths)
        base = shortest_path_metric(g).values
        variants = [base]
        i, j = (int(t) for t in rng.choice(n, 2, replace=False))
        for change in (1e-6, np.nan, np.inf):
            v = base.copy()
            v[i, j] = v[i, j] + change if change == 1e-6 else change
            variants.append(v)
        for v in variants:
            expected = triangle_inequality_holds(v, 1e-9)
            d = DistanceMatrix(v)
            try:
                transport._require_metric(d)
            except CertificateError:
                assert not expected and not d._is_metric
            else:
                assert expected and d._is_metric
            checked += 1
            rejected += not expected
    assert checked == 48 and rejected >= 24


def test_audit_rejects_a_non_metric_off_the_supports():
    # d(3, 4) = 5 > d(3, 2) + d(2, 4) breaks the triangle inequality away
    # from the supports {0, 1} and {1, 2}: the potential of the solve is
    # still 1-Lipschitz against it, so a per-potential test passed, but d
    # is no metric and the audit now refuses to certify on it
    d = shortest_path_metric(path_graph([1.0] * 4))
    bent = d.values.copy()
    bent[3, 4] = bent[4, 3] = 5.0
    bent = DistanceMatrix(bent)
    mu = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    nu = ProbMeasure(np.array([1, 2]), np.array([0.5, 0.5]))
    w, _ = wasserstein(mu, nu, bent)  # unaudited, nothing checks d
    with transport_audit():
        _, plan = wasserstein(mu, nu, d)
        phi, _ = dual_certificate(mu, nu, d, plan)
    assert np.all(np.abs(phi[:, None] - phi[None, :]) <= bent.values)
    assert w == pytest.approx(1.0)
    with transport_audit(), pytest.raises(CertificateError, match="non-Lipschitz"):
        wasserstein(mu, nu, bent)


def test_metric_check_runs_once_per_distance_matrix(monkeypatch):
    from curvflow import curvature_report, transport

    checks = []
    require = transport._require_metric

    def counted(d):
        if not d._is_metric:  # a check, not a hit of the kept result
            checks.append(d)
        return require(d)

    monkeypatch.setattr(transport, "_require_metric", counted)
    g = random_flow_graph(np.random.default_rng(5), 8)
    d = shortest_path_metric(g)
    mus = [ProbMeasure.delta(x) for x in range(g.n)]
    for mu in mus:  # unaudited solves check nothing
        wasserstein(mus[0], mu, d)
    assert checks == []
    with transport_audit() as audit:
        for mu in mus:
            _, plan = wasserstein(mus[0], mu, d)
            dual_certificate(mus[0], mu, d, plan)
        assert len(checks) == 1 and audit.count == g.n
        curvature_report(g)  # one evaluator, one metric of its own
        assert len(checks) == 2 and audit.count == g.n + g.edge_count()
        wasserstein(mus[0], mus[1], d.scaled(2.0))
    assert len(checks) == 3


def test_certificate_of_degenerate_basis():
    # the marginals share the partial sums 0.25 and 0.5, so every basis,
    # the optimal one too, carries basic cells of zero mass
    g = WeightedGraph.from_edges(
        6, [(i, i + 1, 1.0, 1.0 + 0.25 * i) for i in range(5)])
    d = shortest_path_metric(g)
    mu1 = ProbMeasure(np.array([0, 1, 2]), np.array([0.25, 0.25, 0.5]))
    mu2 = ProbMeasure(np.array([3, 4, 5]), np.array([0.25, 0.25, 0.5]))
    _, plan = wasserstein(mu1, mu2, d)
    assert any(cell not in plan.entries for cell in plan.basic_cells)
    _, gap = dual_certificate(mu1, mu2, d, plan)
    assert gap <= 1e-12


def test_audit_certifies_from_the_basis_alone(monkeypatch):
    import curvflow.curvature as curvature
    import curvflow.transport as transport
    from curvflow import FlowConfig, curvature_report, run_flow

    solves, calls = [], []
    primal, solver = transport._transport_simplex, transport._solve

    def counted(*args, **kwargs):
        solves.append(1)
        return primal(*args, **kwargs)

    def counted_calls(*args, **kwargs):
        calls.append(1)
        return solver(*args, **kwargs)

    monkeypatch.setattr(transport, "_transport_simplex", counted)
    for module in (transport, curvature):
        monkeypatch.setattr(module, "_solve", counted_calls)
    g = random_flow_graph(np.random.default_rng(16), 7)
    with transport_audit() as audit:
        report = curvature_report(g, kind="ollivier")
        res = run_flow(g, FlowConfig(max_iterations=5))
    # every edge evaluation is one certified value, whether the flow's
    # batch priced it or wasserstein solved it
    evaluations = len(report.values) + sum(len(row.kappa.values) for row in res.final.trace)
    assert audit.count == evaluations
    assert audit.max_gap < 1e-9
    # one primal solve per transport solve: no certificate solved an LP
    assert len(solves) == len(calls) < audit.count


# ---------------------------------------------------------------------------
# the spanning-tree transportation simplex


def _cost_instance(rng, n1, n2, kind):
    """Two measures on disjoint supports 0..n1-1 and n1..n1+n2-1 of a
    cost table that need not be a metric (the solver never assumes one)."""
    if kind == "integer":
        cost = rng.integers(0, 4, (n1, n2)).astype(float)
    else:
        cost = rng.uniform(0.0, 3.0, (n1, n2))
    if kind == "equal":
        a, b = np.full(n1, 1.0 / n1), np.full(n2, 1.0 / n2)
    else:
        a, b = rng.uniform(0.1, 1.0, n1), rng.uniform(0.1, 1.0, n2)
        a, b = a / a.sum(), b / b.sum()
    full = np.zeros((n1 + n2, n1 + n2))
    full[:n1, n1:] = cost
    mu1 = ProbMeasure(np.arange(n1), a)
    mu2 = ProbMeasure(np.arange(n1, n1 + n2), b)
    return mu1, mu2, DistanceMatrix(full), cost


_SHAPES = [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3), (3, 4), (4, 3)]


@pytest.mark.parametrize("scale", [1.0, 1e5])
@pytest.mark.parametrize("kind", ["uniform", "integer", "equal"])
def test_tree_simplex_matches_enumeration(kind, scale):
    # at 1e5 the tree duals of basic cells are off by rounding errors above
    # 1e-12, which must not let a basic cell re-enter the basis
    rng = np.random.default_rng(21)
    for n1, n2 in _SHAPES * 3:
        mu1, mu2, d, cost = _cost_instance(rng, n1, n2, kind)
        d, cost = d.scaled(scale), cost * scale
        value, plan = wasserstein(mu1, mu2, d)
        oracle = brute_force_wasserstein(mu1.mass, mu2.mass, cost)
        assert abs(value - oracle) <= 1e-12 * max(1.0, cost.max())
        assert len(plan.basic_cells) == n1 + n2 - 1
        assert plan.cost(d) == pytest.approx(value, abs=1e-12 * max(1.0, cost.max()))


@pytest.mark.parametrize("kind", ["uniform", "integer", "equal"])
def test_tree_simplex_matches_linprog(kind):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(22)
    for n1, n2 in [(1, 7), (7, 1), (5, 6), (8, 8), (6, 9)] * 4:
        mu1, mu2, d, cost = _cost_instance(rng, n1, n2, kind)
        value, _ = wasserstein(mu1, mu2, d)
        c, A, rhs = dense_transport_lp(mu1.mass, mu2.mass, cost)
        ref = optimize.linprog(c, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert abs(value - ref.fun) <= 1e-12 * max(1.0, cost.max())


def test_solve_returns_the_tree_of_its_own_cells():
    # the flow and the linear ric_r read duals and parents off _solve's
    # tree: they are, bit for bit, what _tree re-derives from its cells
    from curvflow.transport import _least_cost_basis, _tree

    rng = np.random.default_rng(26)
    pivoting = 0
    for kind in ("uniform", "integer", "equal"):
        for n1, n2 in _SHAPES * 10 + [(6, 6), (7, 5), (5, 8)] * 10:
            mu1, mu2, d, cost = _cost_instance(rng, n1, n2, kind)
            _, (duals, parent, flows), _ = _solve(mu1, mu2, d)
            cells = sorted(flows)
            peel = _tree(cells, cost.tolist(), mu1.mass.tolist() + (-mu2.mass).tolist())
            assert peel[0] == duals and peel[1] == parent
            pivoting += cells != sorted(_least_cost_basis(mu1.mass, mu2.mass, cost))
    assert pivoting >= 100


def test_warm_start_from_a_stale_basis():
    # the tree that was optimal under one metric is feasible under any
    # other: from its cells the solver reaches the cold-start optimum
    rng = np.random.default_rng(23)
    warm_calls = 0
    for _ in range(20):
        g = random_flow_graph(rng, 8)
        comp = max(__import__("curvflow").connected_components(g), key=len)
        if len(comp) < 5:
            continue
        mu1 = random_measure(rng, comp, 4)
        mu2 = random_measure(rng, comp, 5)
        stale = sorted(_solve(mu1, mu2, shortest_path_metric(g))[1][2])
        lengths = np.where(g.weights > 0, rng.uniform(0.1, 5.0, g.weights.shape), 0.0)
        d2 = shortest_path_metric(g.with_lengths(np.maximum(lengths, lengths.T)))
        cold, _ = wasserstein(mu1, mu2, d2)
        with transport_audit() as audit:
            warm, (_, _, flows), _ = _solve(mu1, mu2, d2, stale)
        assert audit.warm == audit.count == 1
        assert abs(warm - cold) <= 1e-12 * max(1.0, float(d2.values[np.isfinite(d2.values)].max()))
        cost = d2.values[np.ix_(mu1.support, mu2.support)]
        assert sum(f * cost[c] for c, f in flows.items()) == pytest.approx(warm, abs=1e-12)
        warm_calls += 1
    assert warm_calls >= 10


def test_starting_basis_must_be_a_feasible_spanning_tree():
    g = complete_graph(4)
    d = shortest_path_metric(g)
    mu1 = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    mu2 = ProbMeasure(np.array([2, 3]), np.array([0.9, 0.1]))
    cells = sorted(_solve(mu1, mu2, d)[1][2])  # (row, column) support indices
    _solve(mu1, mu2, d, cells)
    not_a_tree = "not a spanning tree"
    bad = [
        (cells[:-1], not_a_tree),
        (cells[:-1] + cells[:1], not_a_tree),  # repeated
        (cells[:-1] + [(0, 2)], not_a_tree),  # off the supports: two columns
        (cells[:-1] + [(0, -1)], not_a_tree),
        ([], not_a_tree),
        # a tree that needs -0.4 on cell (1, 1): row 0 sends 0.5 to column 1 alone
        ([(0, 1), (1, 0), (1, 1)], "not primal feasible"),
    ]
    for start, reason in bad:
        with pytest.raises(ValidationError, match=reason):
            _solve(mu1, mu2, d, start)


def test_negative_basic_flow_is_not_dropped():
    # a starting tree that is already optimal (every cost is 1) with a
    # flow of -1e-10 on cell (1, 3): it must raise, not vanish from W and
    # the plan
    d = shortest_path_metric(complete_graph(4))
    mu1 = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    mu2 = ProbMeasure(np.array([2, 3]), np.array([0.5 + 1e-10, 0.5 - 1e-10]))
    with pytest.raises(ValidationError, match="not primal feasible"):
        _solve(mu1, mu2, d, [(0, 1), (1, 0), (1, 1)])


@pytest.mark.parametrize("shift,feasible", [(1e-13, True), (1e-11, False), (1e-10, False)])
def test_starting_tree_meets_the_final_flow_bound(shift, feasible):
    # a warm start is feasible exactly when its flows would pass as final
    # flows (>= -MASS_TOL): a tree 1e-10 infeasible is the caller's error
    # (exit 2), not a solver failure (exit 5); the flow's batch peels its
    # trees through the same ``_start_tree``
    from curvflow.transport import _start_tree

    d = shortest_path_metric(complete_graph(4))
    mu1 = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    mu2 = ProbMeasure(np.array([2, 3]), np.array([0.5 + shift, 0.5 - shift]))
    cells = [(0, 1), (1, 0), (1, 1)]  # cell (1, 1) carries -shift
    c = d.values[np.ix_(mu1.support, mu2.support)].tolist()
    supply = mu1.mass.tolist() + (-mu2.mass).tolist()
    if feasible:
        cost, (_, _, flows), _ = _solve(mu1, mu2, d, cells)
        assert cost == pytest.approx(1.0, abs=1e-12)  # the -shift flow is left out
        assert sorted(flows) == cells
        flows = _start_tree(cells, c, supply)[2]
        assert [flows[k] for k in cells] == pytest.approx([0.5, 0.5 + shift, -shift])
    else:
        with pytest.raises(ValidationError, match="not primal feasible"):
            _solve(mu1, mu2, d, cells)
        with pytest.raises(ValidationError, match="not primal feasible"):
            _start_tree(cells, c, supply)


def test_least_cost_start_with_a_zero_flow_cell():
    # the cheapest cells (0, 0) and (1, 0) tie at cost 1: (0, 0) closes row
    # 0 and uses up column 0, so (1, 0) enters the tree with zero flow and
    # the start, already optimal, is degenerate
    from curvflow.transport import _least_cost_basis, _start_tree

    d = shortest_path_metric(WeightedGraph.from_edges(
        4, [(v, v + 1, 1.0, 1.0) for v in range(3)]))
    mu1 = ProbMeasure(np.array([0, 2]), np.array([0.5, 0.5]))
    mu2 = ProbMeasure(np.array([1, 3]), np.array([0.5, 0.5]))
    c = d.values[np.ix_(mu1.support, mu2.support)].tolist()  # [[1, 3], [1, 1]]
    cells = _least_cost_basis(mu1.mass, mu2.mass, c)
    assert cells == [(0, 0), (1, 0), (1, 1)]
    flows = _start_tree(cells, c, [0.5, 0.5, -0.5, -0.5])[2]
    assert flows == {(0, 0): 0.5, (1, 0): 0.0, (1, 1): 0.5}
    with transport_audit() as audit:
        value, plan = wasserstein(mu1, mu2, d)
    assert (value, audit.pivots) == (1.0, 0)
    assert plan.basic_cells == ((0, 1), (2, 1), (2, 3))
    assert plan.entries == {(0, 1): 0.5, (2, 3): 0.5}


def test_cold_start_absorbs_the_measures_imbalance():
    # both totals lie within MASS_TOL of 1, but 1.8e-12 apart; the tree's
    # peeled flows carry that imbalance, which must not make the cold
    # start or the final flows infeasible
    d = shortest_path_metric(WeightedGraph.from_edges(
        6, [(v, v + 1, 1.0, 1.0) for v in range(5)]))
    mu1 = ProbMeasure(np.array([0, 1, 2]), np.array([0.25, 0.4999999999991, 0.25]))
    mu2 = ProbMeasure(np.array([3, 4, 5]), np.array([0.25, 0.25, 0.5000000000009]))
    value, plan = wasserstein(mu1, mu2, d)
    assert value == pytest.approx(3.25, abs=1e-11)
    assert _solve(mu1, mu2, d, sorted(_solve(mu1, mu2, d)[1][2]))[0] == value
    assert dual_certificate(mu1, mu2, d, plan)[1] <= 1e-11


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.lists(st.sampled_from([1.0, 2.0, 0.5]), min_size=7, max_size=7),
       st.integers(0, 3), st.integers(0, 3), st.sampled_from([-9e-13, 9e-13]))
def test_measures_at_the_edge_of_the_mass_window(m1, m2, lengths, k1, k2, shift):
    # one mass of each measure moves by 9e-13, in opposite directions, so
    # the totals sit at the two ends of ProbMeasure's window
    n1, n2 = len(m1), len(m2)
    g = WeightedGraph.from_edges(n1 + n2, [(v, v + 1, 1.0, lengths[v])
                                           for v in range(n1 + n2 - 1)])
    d = shortest_path_metric(g)
    a, b = np.array(m1, float) / sum(m1), np.array(m2, float) / sum(m2)
    a[k1 % n1] += shift
    b[k2 % n2] -= shift
    mu1 = ProbMeasure(np.arange(n1), a)
    mu2 = ProbMeasure(np.arange(n1, n1 + n2), b)
    value, _ = wasserstein(mu1, mu2, d)
    cost = d.values[np.ix_(mu1.support, mu2.support)]
    scale = max(1.0, float(cost.max()))
    dense = dense_simplex(*dense_transport_lp(a, b, cost))
    assert abs(value - dense.value) <= 1e-11 * scale
    cells = sorted(_solve(mu1, mu2, d)[1][2])
    assert abs(_solve(mu1, mu2, d, cells)[0] - value) <= 1e-12 * scale
