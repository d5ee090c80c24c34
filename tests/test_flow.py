import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import complete_graph, path_graph, random_flow_graph
from oracles import brute_force_wasserstein, deletion_scan

from curvflow import (
    FlowConfig,
    ValidationError,
    WeightedGraph,
    curvature_report,
    run_flow,
    shortest_path_metric,
    vertex_measure,
)
from curvflow.ricci_flow import (
    STATUS_CONVERGED,
    _delete,
    _normalized,
    _step,
    _Topology,
    max_adjacent_ratio,
)


def _edge_vector(g):
    """``run_flow``'s start on ``g``: its topology and edge-length vector."""
    topo = _Topology.of(g)
    return topo, g.lengths[topo.iu, topo.iv]


def _steps(g, alpha, k):
    """``k`` flow steps on ``g`` without deletion or rescaling: per step,
    the topology, the graph with the new lengths, and the trace row."""
    topo, lengths = _edge_vector(g)
    norm = _normalized(topo, lengths)[1]
    for n in range(k):
        topo, lengths, _, row = _step(topo, lengths, alpha, n, norm)
        norm = row.normalized
        yield topo, topo.graph.with_lengths(topo.matrix(lengths)), row


def _deletion(g, threshold):
    """One threshold deletion on ``g``: the deleted edges, each with its
    (length, shortest adjacent length), and the graph left."""
    deleted, topo, _, _ = _delete(*_edge_vector(g), threshold, None)
    return deleted, topo.graph


def test_config_validation():
    with pytest.raises(ValidationError):
        FlowConfig(alpha=0.0)
    with pytest.raises(ValidationError):
        FlowConfig(alpha=1.0)
    with pytest.raises(ValidationError):
        FlowConfig(tolerance=0.0)
    # wrong types fail here, not at run time (range(2.5) raised TypeError,
    # max_iterations=True ran one step)
    for bad in ({"max_iterations": 2.5}, {"max_iterations": True},
                {"max_iterations": "3"}, {"alpha": "0.5"}, {"alpha": True},
                {"tolerance": "x"}, {"deletion_threshold": "2"}):
        with pytest.raises(ValidationError, match="must be"):
            FlowConfig(**bad)
    cfg = FlowConfig(alpha=np.float64(0.25), tolerance=1, max_iterations=np.int64(3))
    assert run_flow(path_graph([1.0, 2.0]), cfg).final.iteration <= 3


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_tolerance_and_threshold(value):
    # a NaN tolerance never converges, an infinite one converges at once,
    # and a non-finite threshold switches surgery off
    with pytest.raises(ValidationError, match="tolerance"):
        FlowConfig(tolerance=value)
    with pytest.raises(ValidationError, match="deletion threshold"):
        FlowConfig(deletion_threshold=value)


def test_degree_precondition():
    heavy = WeightedGraph.from_edges(2, [(0, 1, 2.0, 1.0)], measure=[1.0, 1.0])
    with pytest.raises(ValidationError, match=r"deg\(x\) <= 1"):
        run_flow(heavy)


def test_two_vertex_is_fixed_point():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 3.0)])
    (_, step, _), = _steps(g, FlowConfig().alpha, 1)
    assert step.edge_length(0, 1) == pytest.approx(3.0, abs=1e-15)
    result = run_flow(g, FlowConfig(tolerance=1e-12))
    assert result.status == STATUS_CONVERGED
    assert result.growth_rate[0] == pytest.approx(0.0, abs=1e-12)
    assert result.limits[0][(0, 1)] == 1.0


def test_equilateral_triangle_one_step():
    g = complete_graph(3, measure=2.0)
    cfg = FlowConfig(alpha=0.5, tolerance=1e-12)
    (_, step, _), = _steps(g, cfg.alpha, 1)
    for u, v in g.edges():
        assert step.edge_length(u, v) == pytest.approx(1.0 - 0.25, abs=1e-12)
    result = run_flow(g, cfg)
    assert result.status == STATUS_CONVERGED
    assert result.final.iteration == 1
    assert all(v == pytest.approx(1.0) for v in result.limits[0].values())
    assert result.growth_rate[0] == pytest.approx(math.log(1 - 0.25), abs=1e-12)
    assert result.final.trace[-1].kappa.max_spread < 1e-12


def test_asymmetric_path_single_step_matches_hand_oracle():
    g = path_graph([1.0, 2.0])
    d = shortest_path_metric(g)
    cfg = FlowConfig(alpha=0.5)
    mus = {x: vertex_measure(g, x) for x in range(3)}
    expected = {}
    for u, v in g.edges():
        sub = d.values[np.ix_(mus[u].support, mus[v].support)]
        w_cost = brute_force_wasserstein(mus[u].mass, mus[v].mass, sub)
        ln = g.edge_length(u, v)
        expected[(u, v)] = ln - cfg.alpha * (1.0 - w_cost / ln) * ln
    (_, step, _), = _steps(g, cfg.alpha, 1)
    for e, val in expected.items():
        assert step.edge_length(*e) == pytest.approx(val, abs=1e-12)


def test_deletion_rule_examples():
    # lengths (3, 1): 3 > 2 * 1, delete the long edge
    deleted, left = _deletion(path_graph([3.0, 1.0]), 2.0)
    assert list(left.edges()) == [(1, 2)]
    assert deleted == [((0, 1), (3.0, 1.0))]
    # lengths (3, 2): 3 <= 4, keep both
    deleted, left = _deletion(path_graph([3.0, 2.0]), 2.0)
    assert deleted == [] and left.edge_count() == 2
    # isolated single edge never violates
    g3 = WeightedGraph.from_edges(2, [(0, 1, 1.0, 9.0)])
    assert _deletion(g3, 2.0)[1].edge_count() == 1


def test_star_deletes_longest_then_stops():
    star = WeightedGraph.from_edges(
        4, [(0, 1, 1.0, 5.0), (0, 2, 1.0, 1.0), (0, 3, 1.0, 1.0)],
        measure=[3.0, 3.0, 3.0, 3.0])
    deleted, left = _deletion(star, 2.0)
    assert (0, 1) not in set(left.edges())
    assert left.edge_count() == 2
    assert len(deleted) == 1


def test_normalize_metric_per_component():
    g = WeightedGraph.from_edges(
        5, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 2.0), (3, 4, 1.0, 8.0)],
        measure=[2.0] * 5)
    norm = _normalized(*_edge_vector(g))[1]
    assert norm[(0, 1)] == pytest.approx(0.5)
    assert norm[(1, 2)] == pytest.approx(1.0)
    assert norm[(3, 4)] == pytest.approx(1.0)


def test_threshold_precondition_checked():
    g = path_graph([3.0, 1.0])
    assert max_adjacent_ratio(g) == pytest.approx(3.0)
    with pytest.raises(ValidationError):
        run_flow(g, FlowConfig(deletion_threshold=2.5, max_iterations=2))


def test_lengths_stay_positive_and_normalized_scale_invariant():
    rng = np.random.default_rng(21)
    g = random_flow_graph(rng, 7)
    cfg = FlowConfig(alpha=0.5, tolerance=1e-10, max_iterations=400)
    res1 = run_flow(g, cfg)
    for row in res1.final.trace:
        assert all(v > 0 for v in row.normalized.values())
    g_scaled = g.with_lengths(g.lengths * 11.0)
    res2 = run_flow(g_scaled, cfg)
    assert res1.status == res2.status == STATUS_CONVERGED
    for r1, r2 in zip(res1.final.trace, res2.final.trace):
        assert r1.deleted_edges == r2.deleted_edges
        for e, v in r1.normalized.items():
            assert v == pytest.approx(r2.normalized[e], abs=1e-9)


def test_random_flows_reach_constant_curvature():
    rng = np.random.default_rng(22)
    for _ in range(5):
        g = random_flow_graph(rng, int(rng.integers(4, 9)))
        res = run_flow(g, FlowConfig(alpha=0.5, tolerance=1e-10))
        assert res.status == STATUS_CONVERGED
        assert res.final.trace[-1].kappa.max_spread < 1e-6


def test_lambda_plus_monotone_after_topology_stabilizes():
    rng = np.random.default_rng(23)
    g = random_flow_graph(rng, 8)
    res = run_flow(g, FlowConfig(alpha=0.5, tolerance=1e-10))
    last_del = max((i for i, r in enumerate(res.final.trace) if r.deleted_edges),
                   default=-1)
    rows = res.final.trace[last_del + 1:]
    for a, b in zip(rows, rows[1:]):
        assert b.lambda_plus <= a.lambda_plus + 1e-12
        assert b.lambda_minus >= a.lambda_minus - 1e-12


def test_stationarity_one_more_step_keeps_normalized_metric():
    rng = np.random.default_rng(24)
    g = random_flow_graph(rng, 6)
    cfg = FlowConfig(alpha=0.5, tolerance=1e-11)
    res = run_flow(g, cfg)
    assert res.status == STATUS_CONVERGED
    before = {e: v for lim in res.limits.values() for e, v in lim.items()}
    after = run_flow(res.final.graph, replace(cfg, max_iterations=1)).final.trace[0].normalized
    assert after.keys() == before.keys()
    for e, v in before.items():
        assert after[e] == pytest.approx(v, abs=1e-9)


def test_disconnected_input_converges_per_component():
    g = WeightedGraph.from_edges(
        6, [(0, 1, 1, 1.0), (1, 2, 1, 1.3), (0, 2, 1, 0.9),
            (3, 4, 1, 2.0), (4, 5, 1, 1.0)],
        measure=[2.0] * 6)
    res = run_flow(g, FlowConfig(alpha=0.5, tolerance=1e-10))
    assert res.status == STATUS_CONVERGED
    assert sorted(res.limits) == [0, 3]
    for stats in res.final.trace[-1].kappa.component_stats.values():
        assert stats[2] < 1e-10


def test_surgery_splits_multiscale_graph():
    # two unit triangles joined by a long bridge: the fast-shrinking
    # triangle edges eventually violate the ratio threshold and the
    # graph splits into constant-curvature pieces
    edges = [(0, 1, 1, 1.0), (1, 2, 1, 1.0), (0, 2, 1, 1.0),
             (3, 4, 1, 1.0), (4, 5, 1, 1.0), (3, 5, 1, 1.0),
             (2, 3, 1, 5.0)]
    g = WeightedGraph.from_edges(7, edges, measure=[3.0] * 7)
    res = run_flow(g, FlowConfig(alpha=0.5, tolerance=1e-10,
                                 deletion_threshold=6.0))
    assert res.status == STATUS_CONVERGED
    assert len(res.final.deletion_log) > 0
    assert len(res.limits) > 1
    for stats in res.final.trace[-1].kappa.component_stats.values():
        assert stats[2] < 1e-10
    # the edge set only ever shrinks
    counts = [len(r.normalized) for r in res.final.trace]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_edgeless_graph_converges_trivially():
    g = WeightedGraph.from_edges(3, [])
    res = run_flow(g, FlowConfig(tolerance=1e-12))
    assert res.status == STATUS_CONVERGED
    assert res.limits == {} and res.growth_rate == {}


def test_identical_walk_measures_are_certified_values():
    # K2 with w/m = 1/2: both walk measures put 1/2 on each endpoint, so
    # W = 0 comes from the same simplex (no pivot) and the audit counts it
    from curvflow.transport import transport_audit

    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.5)], measure=[2.0, 2.0])
    assert vertex_measure(g, 0) == vertex_measure(g, 1)
    with transport_audit() as audit:
        res = run_flow(g, FlowConfig(alpha=0.5, tolerance=1e-10))
    used = sum(len(row.kappa.values) for row in res.final.trace)
    assert used >= 1 and audit.count == used
    assert audit.pivots == 0 and audit.max_gap == 0.0
    assert res.final.trace[-1].kappa.values == {(0, 1): 1.0}


def test_multi_step_trajectory_matches_oracle():
    # five full steps recomputed edge by edge with the enumeration oracle
    rng = np.random.default_rng(31)
    g = random_flow_graph(rng, 6)
    alpha, cur = 0.4, g
    for _, step, _ in _steps(g, alpha, 5):
        d = shortest_path_metric(cur)
        mus = {x: vertex_measure(cur, x) for x in range(cur.n)
               if cur.neighbors(x).size}
        expected = {}
        for u, v in cur.edges():
            sub = d.values[np.ix_(mus[u].support, mus[v].support)]
            w_cost = brute_force_wasserstein(mus[u].mass, mus[v].mass, sub)
            expected[(u, v)] = (1 - alpha) * cur.edge_length(u, v) + alpha * w_cost
        for e, val in expected.items():
            assert step.edge_length(*e) == pytest.approx(val, abs=1e-10)
        cur = step


@pytest.mark.parametrize("seed", [45, 91])
def test_warm_started_flow_matches_cold_transport(monkeypatch, seed):
    # the flow re-prices each edge's last optimal tree until a deletion;
    # solving every edge cold from the least-cost start at every step must
    # give the same run
    from curvflow.transport import transport_audit

    rng = np.random.default_rng(seed)
    g = random_flow_graph(rng, int(rng.integers(5, 9)))
    cfg = FlowConfig(alpha=0.5, tolerance=1e-10)
    with transport_audit() as audit:
        warm = run_flow(g, cfg)
        assert audit.warm > 0
    cold = _cold_flow(monkeypatch, g, cfg)
    assert len(warm.final.deletion_log) >= 4
    assert warm.status == cold.status == STATUS_CONVERGED
    assert warm.final.iteration == cold.final.iteration
    for (n_w, e_w, lens_w), (n_c, e_c, lens_c) in zip(warm.final.deletion_log,
                                                      cold.final.deletion_log,
                                                      strict=True):
        assert (n_w, e_w) == (n_c, e_c)
        np.testing.assert_allclose(lens_w, lens_c, rtol=0, atol=1e-12)
    assert warm.limits.keys() == cold.limits.keys()
    for root, lim in warm.limits.items():
        assert lim.keys() == cold.limits[root].keys()
        for e, val in lim.items():
            assert abs(val - cold.limits[root][e]) <= 1e-12
        assert abs(warm.growth_rate[root] - cold.growth_rate[root]) <= 1e-12


def test_flow_and_linear_ric_build_no_transport_plan(monkeypatch):
    # both price transport from _solve's own tree, not from a coupling
    from conftest import random_lazy_kernel
    from curvflow import ProbMeasure, TransportPlan, ric_r, wasserstein
    from curvflow.chains import linear_chain_operator

    built, init = [], TransportPlan.__post_init__
    monkeypatch.setattr(TransportPlan, "__post_init__", lambda plan: built.append(1) or init(plan))
    rng = np.random.default_rng(45)
    g = random_flow_graph(rng, int(rng.integers(5, 9)))
    run_flow(g, FlowConfig(alpha=0.5, tolerance=1e-10))  # cold and warm solves
    d = shortest_path_metric(g)
    assert ric_r(linear_chain_operator(random_lazy_kernel(rng, g)), d, 1.0).exact
    assert built == []
    wasserstein(ProbMeasure.delta(0), ProbMeasure.delta(1), d)
    assert built == [1]


# ---------------------------------------------------------------------------
# the batch that re-prices every edge's tree in one numpy pass


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
@example(seed=2, n=9)  # re-solves four edges at its second step
def test_batch_matches_cold_transport(seed, n):
    from curvflow.curvature import vertex_measure
    from curvflow.transport import ENTER_TOL, _tree, transport_audit, wasserstein

    g = random_flow_graph(np.random.default_rng(seed), n)
    threshold = max(2.0 * max_adjacent_ratio(g), 1.0)
    topo, lengths = _edge_vector(g)
    norm = _normalized(topo, lengths)[1]
    for i in range(5):  # run_flow's loop
        topo, new, lengths, row = _step(topo, lengths, 0.5, i, norm)
        deleted, topo, new, row = _delete(topo, new, threshold, row)
        norm = row.normalized
        if deleted:  # a new topology without a batch: the next step solves cold
            lengths = _normalized(topo, new)[0]
            continue
        batch = topo.batch
        d = shortest_path_metric(topo.graph.with_lengths(topo.matrix(lengths)))
        with transport_audit() as audit:
            w, solve = batch.price(d)
        assert audit.count == audit.warm == len(batch.trees) - len(solve)
        expected = []
        pairs = [(vertex_measure(topo.graph, u, None), vertex_measure(topo.graph, v, None))
                 for u, v in topo.edges]
        for k, ((mu, nu), tree) in enumerate(zip(pairs, batch.trees, strict=True)):
            cost = d.values[np.ix_(mu.support, nu.support)]
            scale = max(1.0, float(cost.max()))
            # the kept tree's reduced costs, from _tree's own duals
            cells = tree[0]
            duals = np.array(_tree(cells, cost.tolist(),
                                   mu.mass.tolist() + (-nu.mass).tolist())[0])
            n1 = mu.support.size
            reduced = cost - duals[:n1, None] - duals[None, n1:]
            off_tree = np.ones(cost.shape, dtype=bool)
            off_tree[tuple(np.array(cells).T)] = False
            if (reduced[off_tree] < -ENTER_TOL * scale).any():
                expected.append(k)
            else:
                assert abs(w[k] - wasserstein(mu, nu, d)[0]) <= 1e-12 * scale
        assert solve == expected


@pytest.mark.parametrize("shortfall,pivots", [(3e-12, False), (5e-12, True)])
def test_batch_pivots_where_the_simplex_does(shortfall, pivots):
    # one edge's tree {(0, 2), (0, 3), (1, 3)}, costs of scale 4: the
    # off-tree cell (1, 2) has reduced cost -shortfall, and the entering
    # threshold is -ENTER_TOL x 4 = -4e-12
    from curvflow.graphs import DistanceMatrix
    from curvflow.transport import ProbMeasure, _Batch, _solve, _start_tree

    d = np.zeros((4, 4))
    for (x, y), c in {(0, 2): 1.0, (0, 3): 4.0, (1, 3): 4.0, (1, 2): 1.0 - shortfall}.items():
        d[x, y] = d[y, x] = c
    d = DistanceMatrix(d)
    mu = ProbMeasure(np.array([0, 1]), np.array([0.5, 0.5]))
    nu = ProbMeasure(np.array([2, 3]), np.array([0.5, 0.5]))
    cells = [(0, 0), (0, 1), (1, 1)]  # as (row, column) support indices
    _, parent, flows = _start_tree(cells, d.values[np.ix_(mu.support, nu.support)].tolist(),
                                   [0.5, 0.5, -0.5, -0.5])
    w, solve = _Batch([(mu, nu)], [(cells, [flows[c] for c in cells], parent)]).price(d)
    assert solve == ([0] if pivots else [])
    cost, (_, _, flows), _ = _solve(mu, nu, d, cells)
    assert (sorted(flows) != cells) == pivots
    if not pivots:
        assert w[0] == cost == 2.5


def test_batch_certificate_rejects_a_wrong_value():
    from curvflow import CertificateError
    from curvflow.graphs import DistanceMatrix
    from curvflow.transport import transport_audit

    (topo, step, _), = _steps(random_flow_graph(np.random.default_rng(3), 6), 0.5, 1)
    batch = topo.batch
    d = shortest_path_metric(step)
    with transport_audit() as audit:
        batch.price(d)
        assert audit.count == len(batch.trees) and audit.max_gap < 1e-12
        # a "metric" with d(0, 1) = 0 leaves the potentials non-Lipschitz
        bent = d.values.copy()
        bent[0, 1] = bent[1, 0] = 0.0
        with pytest.raises(CertificateError, match="non-Lipschitz"):
            batch.price(DistanceMatrix(bent))
        moved = batch.moved_flow
        batch.moved_flow = moved * (1.0 + 1e-6)  # W off by about 1e-6
        with pytest.raises(CertificateError, match="no optimality certificate"):
            batch.price(d)
        batch.moved_flow = moved * np.nan  # a NaN gap fails too
        with pytest.raises(CertificateError, match="gap=nan"):
            batch.price(d)


def _cold_flow(monkeypatch, g, cfg):
    """``run_flow`` pricing every step as a new topology: each edge solved
    cold, once per step, from the least-cost start."""
    import curvflow.ricci_flow as ricci_flow
    from curvflow.transport import _price_edges, transport_audit

    with monkeypatch.context() as m, transport_audit() as audit:
        m.setattr(ricci_flow, "_price_edges", lambda pairs, batch, d: _price_edges(pairs, None, d))
        res = run_flow(g, cfg)
        assert audit.warm == 0
        assert audit.count == sum(len(row.kappa.values) for row in res.final.trace)
    return res


@pytest.mark.parametrize("case", ["identical-measures", "isolated-vertex", "edgeless"])
def test_batch_edge_cases(monkeypatch, case):
    from curvflow.transport import transport_audit

    if case == "identical-measures":
        # w/m = 1/3 on K3: every walk measure is uniform on the triangle
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0),
                                         (0, 2, 1.0, 1.0)], measure=[3.0] * 3)
    elif case == "isolated-vertex":
        g = WeightedGraph.from_edges(5, [(0, 1, 1.0, 1.0), (1, 2, 0.5, 2.0),
                                         (0, 2, 2.0, 1.5), (2, 3, 1.0, 1.0)],
                                     measure=[4.0, 3.0, 5.0, 2.0, 1.0])
    else:
        g = WeightedGraph.from_edges(3, [], measure=[1.0] * 3)
    cfg = FlowConfig(alpha=0.5, tolerance=1e-10, deletion_threshold=10.0)
    with transport_audit() as audit:
        kappas = [row.kappa.values for _, _, row in _steps(g, cfg.alpha, 3)]
        assert audit.count == 3 * g.edge_count()
    if case == "identical-measures":
        assert kappas == [{e: 1.0 for e in g.edges()}] * 3
    res = run_flow(g, cfg)
    cold = _cold_flow(monkeypatch, g, cfg)
    assert res.status == cold.status == STATUS_CONVERGED
    assert res.final.iteration == cold.final.iteration
    for row, cold_row in zip(res.final.trace, cold.final.trace, strict=True):
        assert row.kappa.values.keys() == cold_row.kappa.values.keys()
        for e, val in row.kappa.values.items():
            assert abs(val - cold_row.kappa.values[e]) <= 1e-12
    if case != "isolated-vertex":
        assert res.final.iteration == 1


# ---------------------------------------------------------------------------
# edge deletion against the plain per-edge scan

# few distinct lengths, so that ties (for the longest violating edge, and
# at the threshold itself) are common
_LENGTHS = [0.5, 1.0, 1.5, 2.0, 3.0, 4.5]


@st.composite
def _deletion_graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    lengths = draw(st.lists(st.sampled_from(_LENGTHS),
                            min_size=len(chosen), max_size=len(chosen)))
    edges = [(u, v, 1.0, ln) for (u, v), ln in zip(chosen, lengths)]
    return WeightedGraph.from_edges(n, edges, measure=[float(n)] * n)


_STAR = WeightedGraph.from_edges(  # two tied longest edges, both deleted
    5, [(0, 1, 1, 4.5), (0, 2, 1, 4.5), (0, 3, 1, 1.0), (3, 4, 1, 2.0)],
    measure=[5.0] * 5)
_PATH = WeightedGraph.from_edges(  # three deletions, re-checked after each
    5, [(0, 1, 1, 4.5), (1, 2, 1, 2.0), (2, 3, 1, 0.5), (3, 4, 1, 1.5)],
    measure=[5.0] * 5)


@settings(max_examples=300, deadline=None)
@given(g=_deletion_graphs(), threshold=st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 3.0]))
@example(g=_STAR, threshold=2.0)
@example(g=_PATH, threshold=2.0)
@example(g=_PATH, threshold=0.75)  # below 1 an edge must not count itself
def test_deletion_step_matches_per_edge_scan(g, threshold):
    deleted, left = _deletion(g, threshold)
    log, weights, lengths = deletion_scan(g.weights, g.lengths, threshold)
    assert deleted == log
    assert np.array_equal(left.weights, weights)
    assert np.array_equal(left.lengths, lengths)


def test_deletion_step_examples_reach_ties_and_chains():
    # the explicit examples above really exercise what they claim
    assert [e for e, _ in _deletion(_STAR, 2.0)[0]] == [(0, 1), (0, 2)]
    assert [e for e, _ in _deletion(_PATH, 2.0)[0]] == [(0, 1), (1, 2), (3, 4)]
    # (2, 3) is the shortest edge at both its endpoints
    assert (2, 3) in set(_deletion(_PATH, 0.75)[1].edges())


# ---------------------------------------------------------------------------
# per-topology bookkeeping

def _surgery_graph() -> WeightedGraph:
    edges = [(0, 1, 1, 1.0), (1, 2, 1, 1.0), (0, 2, 1, 1.0),
             (3, 4, 1, 1.0), (4, 5, 1, 1.0), (3, 5, 1, 1.0),
             (2, 3, 1, 5.0)]
    return WeightedGraph.from_edges(7, edges, measure=[3.0] * 7)


@pytest.mark.parametrize("seed", [None, 91])
def test_components_computed_once_per_topology(monkeypatch, seed):
    # the regression guard for the per-topology bookkeeping: a flow step
    # on an unchanged edge set partitions nothing
    import curvflow.graphs as graphs

    calls = []
    real = graphs.connected_components

    def counting(g):
        calls.append(g.edge_count())
        return real(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("curvflow") and hasattr(module, "connected_components"):
            monkeypatch.setattr(module, "connected_components", counting)
    if seed is None:
        g, cfg = _surgery_graph(), FlowConfig(alpha=0.5, tolerance=1e-10,
                                              deletion_threshold=6.0)
    else:
        rng = np.random.default_rng(seed)
        g = random_flow_graph(rng, int(rng.integers(5, 9)))
        cfg = FlowConfig(alpha=0.5, tolerance=1e-10)
    res = run_flow(g, cfg)
    assert res.status == STATUS_CONVERGED
    # one topology to start with, one more after each step that deleted
    topologies = 1 + len({n for n, _, _ in res.final.deletion_log})
    assert topologies >= 2
    assert len(calls) <= topologies + 1


@pytest.mark.parametrize("change", ["weights", "edges"])
def test_step_curvature_equals_curvature_report(change):
    g = _surgery_graph()
    (_, step, _), = _steps(g, 0.5, 1)
    if change == "weights":
        other = WeightedGraph(g.n, g.weights * 0.9, g.measure, step.lengths)
    else:
        other = step.drop_edge(2, 3)
    (_, _, row), = _steps(other, 0.5, 1)
    report = curvature_report(other)
    assert row.kappa.component_stats.keys() == report.component_stats.keys()
    for root, stats in report.component_stats.items():
        np.testing.assert_allclose(row.kappa.component_stats[root], stats,
                                   rtol=0, atol=1e-12)


def _isolated_vertex_graph() -> WeightedGraph:
    return WeightedGraph.from_edges(5, [(0, 1, 1.0, 1.0), (1, 2, 0.5, 2.0),
                                        (0, 2, 2.0, 1.5), (2, 3, 1.0, 1.0)],
                                    measure=[4.0, 3.0, 5.0, 2.0, 1.0])


def _flow_cases():
    for seed in range(700, 720):
        rng = np.random.default_rng(seed)
        yield random_flow_graph(rng, int(rng.integers(4, 11))), None
    yield _surgery_graph(), 6.0
    yield _isolated_vertex_graph(), 10.0
    yield WeightedGraph.from_edges(3, [], measure=[1.0] * 3), None


def test_run_flow_prefixes_match_the_full_run():
    # a run cut at k steps is the full run's first k steps: the same rows,
    # the same deletions, and limits that are its last normalized metric
    deleting = 0
    for g, threshold in _flow_cases():
        cfg = FlowConfig(alpha=0.5, tolerance=1e-10, deletion_threshold=threshold)
        full = run_flow(g, cfg)
        iters = full.final.iteration
        for k in sorted({1, math.ceil(iters / 2), iters}):
            res = run_flow(g, replace(cfg, max_iterations=k))
            assert res.final.iteration == len(res.final.trace) == k
            assert res.final.trace == full.final.trace[:k]  # kappa, lambdas, delta_sup, deletions
            for row, full_row in zip(res.final.trace, full.final.trace):
                assert list(row.normalized) == list(full_row.normalized)
            assert res.final.deletion_log == tuple(entry for entry in full.final.deletion_log
                                                   if entry[0] <= k)
            limits = [(e, v) for lim in res.limits.values() for e, v in lim.items()]
            assert limits == list(res.final.trace[-1].normalized.items())
            if k == iters:
                assert res.status == full.status
                assert np.array_equal(res.final.graph.lengths, full.final.graph.lengths)
                assert np.array_equal(res.final.graph.weights, full.final.graph.weights)
        deleting += bool(full.final.deletion_log)
    assert deleting >= 5


@pytest.mark.parametrize("seed", [None, 91])
def test_graphs_built_once_per_topology(monkeypatch, seed):
    # the flow runs on an edge-length vector: a graph (and its length
    # validation) is built after a deletion and for the final state only
    import curvflow.graphs as graphs

    calls = []
    real = graphs._edge_lengths

    def counting(w, lengths):
        calls.append(w.shape)
        return real(w, lengths)

    monkeypatch.setattr(graphs, "_edge_lengths", counting)
    if seed is None:
        g, cfg = _surgery_graph(), FlowConfig(alpha=0.5, tolerance=1e-10,
                                              deletion_threshold=6.0)
    else:
        rng = np.random.default_rng(seed)
        g = random_flow_graph(rng, int(rng.integers(5, 9)))
        cfg = FlowConfig(alpha=0.5, tolerance=1e-10)
    calls.clear()
    res = run_flow(g, cfg)
    assert res.status == STATUS_CONVERGED
    topologies = 1 + len({n for n, _, _ in res.final.deletion_log})
    assert topologies >= 2 and res.final.iteration > topologies + 1  # a graph per step fails
    assert len(calls) <= topologies + 1
