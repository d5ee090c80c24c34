import gc
import weakref

import numpy as np
import pytest

from conftest import complete_graph, cycle_graph, random_curvature_graph, random_flow_graph
from oracles import brute_force_wasserstein, dense_simplex, dense_transport_lp, limit_free_lly

from curvflow import (
    ProbMeasure,
    SolverError,
    ValidationError,
    WeightedGraph,
    combinatorial_metric,
    curvature_report,
    kappa_alpha,
    kappa_lly,
    modified_kappa_phi,
    ollivier_kappa,
    shortest_path_metric,
    vertex_measure,
    wasserstein,
)
from curvflow import curvature
from curvflow.errors import CertificateError
from curvflow.transport import transport_audit


def two_vertex(length=1.0):
    return WeightedGraph.from_edges(2, [(0, 1, 1.0, length)])


def test_vertex_measure_nonlazy():
    g = two_vertex()
    mu = vertex_measure(g, 0)
    assert mu.support.tolist() == [1] and mu.mass.tolist() == [1.0]
    k3 = complete_graph(3, measure=2.0)
    mu0 = vertex_measure(k3, 0)
    assert mu0.support.tolist() == [1, 2]
    np.testing.assert_allclose(mu0.mass, [0.5, 0.5])


def test_vertex_measure_lazy_and_remainder():
    g = two_vertex()
    mu = vertex_measure(g, 0, alpha=0.0)
    assert mu.support.tolist() == [0] and mu.mass.tolist() == [1.0]
    mu3 = vertex_measure(g, 0, alpha=0.3)
    assert dict(zip(mu3.support.tolist(), mu3.mass)) == pytest.approx({0: 0.7, 1: 0.3})
    half = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)], measure=[2.0, 2.0])
    mu_half = vertex_measure(half, 0)  # deg = 1/2, remainder stays home
    assert dict(zip(mu_half.support.tolist(), mu_half.mass)) == \
        pytest.approx({0: 0.5, 1: 0.5})


def test_vertex_measure_equals_the_checked_per_neighbour_measure():
    # built from array operations on x's weight row, the walk measure must be
    # the ProbMeasure of the per-neighbour masses, bit for bit and read-only
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = random_flow_graph(rng, int(rng.integers(2, 9)))
        for x in range(g.n):
            for alpha in (None, 0.0, 0.3, 1.0):
                masses = {int(z): (1.0 if alpha is None else alpha) * g.weights[x, z]
                          / g.measure[x] for z in g.neighbors(x) if alpha != 0.0}
                stay = max(1.0 - (1.0 if alpha is None else alpha) * g.degree(x), 0.0)
                if stay > 1e-12 or not masses:
                    masses[x] = stay
                ref = ProbMeasure.from_dict(masses)
                mu = vertex_measure(g, x, alpha)
                assert mu.support.tobytes() == ref.support.tobytes()
                assert mu.mass.tobytes() == ref.mass.tobytes()
                assert not (mu.support.flags.writeable or mu.mass.flags.writeable)


def test_vertex_measure_rejects_large_degree():
    heavy = WeightedGraph.from_edges(2, [(0, 1, 3.0, 1.0)], measure=[1.0, 1.0])
    with pytest.raises(ValidationError):
        vertex_measure(heavy, 0)
    with pytest.raises(ValidationError):
        vertex_measure(heavy, 0, alpha=0.9)
    vertex_measure(heavy, 0, alpha=0.2)  # alpha deg = 0.6 is fine


def test_two_vertex_kappa_zero():
    g = two_vertex()
    d = shortest_path_metric(g)
    assert ollivier_kappa(g, d, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_triangle_kappa_half_and_brute_force():
    g = complete_graph(3, measure=2.0)
    d = shortest_path_metric(g)
    got = ollivier_kappa(g, d, 0, 1)
    mu0, mu1 = vertex_measure(g, 0), vertex_measure(g, 1)
    sub = d.values[np.ix_(mu0.support, mu1.support)]
    oracle = 1.0 - brute_force_wasserstein(mu0.mass, mu1.mass, sub) / d.value(0, 1)
    assert got == pytest.approx(0.5, abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-12)


def test_kappa_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = random_flow_graph(rng, 6)
        d = shortest_path_metric(g)
        edges = list(g.edges())
        u, v = edges[int(rng.integers(len(edges)))]
        base = ollivier_kappa(g, d, u, v)
        for r in (0.1, 7.0):
            g2 = g.with_lengths(g.lengths * r)
            assert ollivier_kappa(g2, shortest_path_metric(g2), u, v) == \
                pytest.approx(base, abs=1e-9)


def test_kappa_symmetry_and_upper_bound():
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = random_flow_graph(rng, 7)
        d = shortest_path_metric(g)
        for u, v in g.edges():
            kuv = ollivier_kappa(g, d, u, v)
            kvu = ollivier_kappa(g, d, v, u)
            assert kuv == pytest.approx(kvu, abs=1e-9)
            assert kuv <= 1.0 + 1e-12


def test_kappa_alpha_zero_and_closed_form():
    g = two_vertex()
    d = shortest_path_metric(g)
    assert kappa_alpha(g, d, 0, 1, 0.0) == 0.0
    for a in (0.1, 0.25, 0.5):
        # overlap plan leaves (1 - 2a) fixed, kappa = 2a for a <= 1/2
        assert kappa_alpha(g, d, 0, 1, a) == pytest.approx(2 * a, abs=1e-12)


def test_kappa_alpha_concave_in_alpha():
    rng = np.random.default_rng(2)
    g = random_flow_graph(rng, 6)
    d = shortest_path_metric(g)
    u, v = next(iter(g.edges()))
    alphas = np.linspace(0.0, 1.0, 9)
    vals = [kappa_alpha(g, d, u, v, a) for a in alphas]
    second = np.diff(vals, 2)
    assert np.all(second <= 1e-9)


def test_lly_values():
    g = two_vertex()
    d = shortest_path_metric(g)
    assert kappa_lly(g, d, 0, 1) == pytest.approx(2.0, abs=1e-14)
    k3 = complete_graph(3, measure=2.0)
    d3 = shortest_path_metric(k3)
    lly = kappa_lly(k3, d3, 0, 1)
    assert lly == pytest.approx(1.5, abs=1e-14)
    # consistency with the non-lazy value: slope at 0 dominates kappa^1
    assert lly >= ollivier_kappa(k3, d3, 0, 1) - 1e-9
    # closed forms of the simple random walk: K_n gives n/(n-1), C_n
    # (n >= 6) gives 0, whatever the weight and length
    for n in range(4, 9):
        kn = complete_graph(n, 1.7, 0.6)
        assert kappa_lly(kn, shortest_path_metric(kn), 0, 1) == \
            pytest.approx(n / (n - 1), abs=1e-14)
    for n in range(6, 13):
        cn = cycle_graph(n, 1.7, 0.6)
        assert kappa_lly(cn, shortest_path_metric(cn), 0, 1) == pytest.approx(0.0, abs=1e-14)


def test_lly_halves_alpha_past_the_first_breakpoint():
    # at alpha 0.9 and 1 the optimal tree often lacks the cell (x, y), so
    # kappa^alpha is past its first breakpoint there; halving alpha must
    # land on the same slope as the default alpha
    graphs = [two_vertex()] + [random_flow_graph(np.random.default_rng(seed), 4 + seed % 5)
                               for seed in range(700, 760)]
    halved = 0
    for g in graphs:
        d = shortest_path_metric(g)
        for u, v in g.edges():
            exact = kappa_lly(g, d, u, v)
            for alpha in (0.9, 1.0):
                _, plan = wasserstein(vertex_measure(g, u, alpha), vertex_measure(g, v, alpha), d)
                halved += (u, v) not in plan.basic_cells
                assert kappa_lly(g, d, u, v, alpha=alpha) == pytest.approx(exact, abs=1e-14)
    assert halved >= 400  # 2 on the two-vertex graph, 179 + 235 on the random ones


def test_lly_matches_the_limit_free_formula():
    graphs = [random_curvature_graph(np.random.default_rng(seed), 40, 40)
              for seed in (101, 102, 103)]
    graphs += [random_flow_graph(np.random.default_rng(seed), 4 + seed % 5)
               for seed in range(700, 760)]
    for g in graphs:
        d = shortest_path_metric(g)
        for u, v in g.edges():
            oracle = limit_free_lly(g, d, u, v)
            for alpha in (1e-3, 0.9):
                assert abs(kappa_lly(g, d, u, v, alpha=alpha) - oracle) <= 1e-13


def test_lly_audit_rejects_a_corrupted_slope_or_potential(monkeypatch):
    k3 = complete_graph(3, measure=2.0)
    d = shortest_path_metric(k3)
    tree, solve = curvature._tree, curvature._solve

    def doubled_flows(*args):
        duals, parent, flows = tree(*args)
        return duals, parent, {e: 2.0 * f for e, f in flows.items()}

    def shifted_potential(*args, **kwargs):
        w, flows, phi = solve(*args, **kwargs)
        if phi is not None:
            phi = phi + 1e-3 * (np.arange(phi.size) == 1)  # moves phi(y)
        return w, flows, phi

    def nan_potential(*args, **kwargs):
        w, flows, phi = solve(*args, **kwargs)
        return w, flows, None if phi is None else phi * np.nan  # NaN gaps fail too

    for name, corrupt in (("_tree", doubled_flows), ("_solve", shifted_potential),
                          ("_solve", nan_potential)):
        with monkeypatch.context() as patch:
            patch.setattr(curvature, name, corrupt)
            kappa_lly(k3, d, 0, 1)  # unaudited, nothing checks the slope
            with transport_audit() as audit, pytest.raises(CertificateError):
                kappa_lly(k3, d, 0, 1)
            assert audit.count == 1
    with transport_audit():
        assert kappa_lly(k3, d, 0, 1) == pytest.approx(1.5, abs=1e-14)


def test_lly_where_the_walk_measures_coincide():
    # K2 with w/m = 1/2: at alpha = m/(2w) = 1 the two walk measures are
    # equal, their tree lacks (x, y) and alpha is halved
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.5)], measure=[2.0, 2.0])
    d = shortest_path_metric(g)
    assert vertex_measure(g, 0, 1.0) == vertex_measure(g, 1, 1.0)
    with transport_audit() as audit:
        value = kappa_lly(g, d, 0, 1, alpha=1.0)
    assert audit.count == 2
    assert abs(value - limit_free_lly(g, d, 0, 1)) <= 1e-14
    assert value == pytest.approx(1.0, abs=1e-14)


def test_lly_audit_certifies_each_value_once(monkeypatch):
    # the potential that certified W certifies the slope: an audited LLY
    # pass makes no dual_certificate call, and that potential is the one
    # dual_certificate derives from wasserstein's plan
    from curvflow import dual_certificate, transport

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return dual_certificate(*args, **kwargs)

    for module in (transport, curvature):
        monkeypatch.setattr(module, "dual_certificate", counted, raising=False)
    graphs = [random_curvature_graph(np.random.default_rng(101), 40, 40)]
    graphs += [random_flow_graph(np.random.default_rng(seed), 4 + seed % 5)
               for seed in range(700, 720)]
    checked = 0
    for g in graphs:
        d = shortest_path_metric(g)
        with transport_audit() as audit:
            for u, v in g.edges():
                kappa_lly(g, d, u, v)
        assert calls == [] and audit.count >= g.edge_count()
        for u, v in g.edges():
            for alpha in (1e-3, 0.9, None):
                mu, nu = vertex_measure(g, u, alpha), vertex_measure(g, v, alpha)
                assert transport._solve(mu, nu, d)[2] is None  # unaudited
                with transport_audit():
                    _, _, phi = transport._solve(mu, nu, d)
                _, plan = wasserstein(mu, nu, d)
                assert np.array_equal(phi, dual_certificate(mu, nu, d, plan)[0])
                checked += 1
    assert checked >= 300


def test_lly_rejects_equal_endpoints():
    k3 = complete_graph(3, measure=2.0)
    with pytest.raises(ValidationError, match="two distinct vertices"):
        kappa_lly(k3, shortest_path_metric(k3), 1, 1)


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.0}, {"alpha": -1e-3}, {"alpha": 1.5}, {"alpha": float("nan")},
])
def test_lly_rejects_bad_alpha_and_agree_tol(kwargs):
    # at alpha = 0 the plan is the cell (x, y) alone and shows no slope,
    # beyond 1 the lazy measure is undefined, and NaN must not reach a solve
    k3 = complete_graph(3, measure=2.0)
    with pytest.raises(ValidationError, match="alpha must"):
        kappa_lly(k3, shortest_path_metric(k3), 0, 1, **kwargs)


def test_modified_kappa_examples():
    g = two_vertex()
    assert modified_kappa_phi(g, 0, 1, "convex") == 0.0
    assert modified_kappa_phi(g, 0, 1, "concave") == 0.0
    k3 = complete_graph(3, measure=2.0)
    assert modified_kappa_phi(k3, 0, 1, "convex") == pytest.approx(0.0, abs=1e-12)
    assert modified_kappa_phi(k3, 0, 1, "concave") == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValidationError):
        modified_kappa_phi(g, 0, 1, "wiggly")


def test_curvature_report_components_and_spread():
    g = WeightedGraph.from_edges(
        5, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1), (3, 4, 1, 1)],
        measure=[2.0] * 5)
    rep = curvature_report(g)
    assert set(rep.values) == {(0, 1), (1, 2), (0, 2), (3, 4)}
    assert set(rep.component_stats) == {0, 3}
    lo, hi, spread = rep.component_stats[0]
    assert spread == pytest.approx(0.0, abs=1e-12)
    # with m = 2 both walk measures keep half at home, so they coincide
    assert rep.values[(3, 4)] == pytest.approx(1.0, abs=1e-12)
    assert rep.max_spread >= 0.0


def test_lazy_curvature_linear_near_zero():
    # the slope extraction relies on kappa^alpha being exactly linear on
    # the first parametric piece; verify on three nested alphas
    rng = np.random.default_rng(19)
    for _ in range(5):
        g = random_flow_graph(rng, 6)
        d = shortest_path_metric(g)
        u, v = next(iter(g.edges()))
        a = 1e-3
        k1 = kappa_alpha(g, d, u, v, a)
        k2 = kappa_alpha(g, d, u, v, a / 2)
        k4 = kappa_alpha(g, d, u, v, a / 4)
        assert k1 / a == pytest.approx(k2 / (a / 2), abs=1e-8)
        assert k2 / (a / 2) == pytest.approx(k4 / (a / 4), abs=1e-8)


def test_small_alpha_transport_is_exact():
    # the benchmark's curvature seed 101, item 72, edge (5, 16): the lazy
    # masses, down to ~1e-6, lie far below an absolute tie window of 1e-9,
    # so the ratio test's ties must scale with the least ratio, or a cell
    # above it leaves and a solve ends 1e-11 above the optimum at a
    # negative flow; kappa_lly reads its slope off the tree at 1e-3
    g = random_curvature_graph(np.random.default_rng([101, 72]), 20, 30)
    d = shortest_path_metric(g)
    for alpha in (1e-3, 5e-4, 1e-4, 1e-5):
        mu, nu = vertex_measure(g, 5, alpha), vertex_measure(g, 16, alpha)
        value, _ = wasserstein(mu, nu, d)
        cost = d.values[np.ix_(mu.support, nu.support)]
        dense = dense_simplex(*dense_transport_lp(mu.mass, nu.mass, cost))
        assert abs(value - dense.value) <= 1e-13
    assert kappa_lly(g, d, 5, 16) == pytest.approx(-0.6245319079, abs=1e-10)


def test_cold_solves_start_near_the_optimum():
    # the least-cost start and Dantzig pricing leave few pivots per LP:
    # Ollivier plus LLY (one LP per value) on ten 40-vertex curvature graphs
    # take 1.43 pivots per certified value (1.86 entering by Bland's rule)
    with transport_audit() as audit:
        for seed in range(101, 111):
            g = random_curvature_graph(np.random.default_rng(seed), 40, 40)
            curvature_report(g, kind="ollivier")
            d = shortest_path_metric(g)
            for u, v in g.edges():
                kappa_lly(g, d, u, v)
    assert audit.count == 1532
    assert audit.pivots <= 1.6 * audit.count


def test_curvature_report_matches_per_edge_functions():
    # seed 707 is the one graph here where the convex phi transport is
    # feasible on every edge; on the others it raises InfeasibleError
    for seed in range(700, 708):
        g = random_flow_graph(np.random.default_rng(seed), 4 + seed % 5)
        d, d0 = shortest_path_metric(g), combinatorial_metric(g)
        per_edge = {
            "ollivier": lambda u, v: ollivier_kappa(g, d, u, v),
            "alpha": lambda u, v: kappa_alpha(g, d, u, v, 0.3),
            "lly": lambda u, v: kappa_lly(g, d, u, v),
            "phi-convex": lambda u, v: modified_kappa_phi(g, u, v, "convex", d0),
            "phi-concave": lambda u, v: modified_kappa_phi(g, u, v, "concave", d0),
        }
        for kind, kappa in per_edge.items():
            try:
                expected = {(u, v): kappa(u, v) for u, v in g.edges()}
            except SolverError as exc:
                with pytest.raises(type(exc)):
                    curvature_report(g, kind=kind, alpha=0.3)
                continue
            rep = curvature_report(g, kind=kind, alpha=0.3)
            assert {e: k.hex() for e, k in rep.values.items()} == \
                {e: k.hex() for e, k in expected.items()}  # bit for bit
            assert (rep.min, rep.max) == (min(expected.values()), max(expected.values()))


@pytest.mark.parametrize("kind", ["ollivier", "alpha", "lly"])
def test_curvature_report_builds_each_walk_measure_once(monkeypatch, kind):
    # one evaluator per report: every vertex with an edge gets one walk
    # measure, however many edges share it (the per-edge functions build
    # two per edge)
    built = []
    measure = curvature.vertex_measure

    def counted(g, x, alpha=None):
        built.append((x, alpha))
        return measure(g, x, alpha)

    monkeypatch.setattr(curvature, "vertex_measure", counted)
    graphs = [random_flow_graph(np.random.default_rng(seed), 4 + seed % 5)
              for seed in range(700, 708)]
    graphs += [random_curvature_graph(np.random.default_rng(31), 30, 30),
               WeightedGraph.from_edges(5, [(0, 1, 1.0, 1.0), (1, 2, 0.5, 2.0)],
                                        measure=[2.0] * 5)]
    for g in graphs:
        built.clear()
        curvature_report(g, kind=kind, alpha=0.3)
        assert sorted(x for x, _ in built) == [x for x in range(g.n) if g.neighbors(x).size]
        assert len(set(built)) == len(built)


def test_per_edge_functions_share_the_graphs_walk_measures(monkeypatch):
    # every per-edge call on one graph reads one memo: Ollivier and LLY
    # over every edge build each (vertex, alpha) once; a with_lengths copy
    # (same weights and measure) builds none, a drop_edge graph its own
    built = []
    measure = curvature.vertex_measure

    def counted(g, x, alpha=None):
        built.append((x, alpha))
        return measure(g, x, alpha)

    monkeypatch.setattr(curvature, "vertex_measure", counted)
    g = random_curvature_graph(np.random.default_rng(31), 30, 30)
    d = shortest_path_metric(g)
    for u, v in g.edges():
        ollivier_kappa(g, d, u, v)
        kappa_lly(g, d, u, v)
    assert len(set(built)) == len(built)
    touched = [x for x in range(g.n) if g.neighbors(x).size]
    for alpha in (None, curvature.LLY_ALPHA):
        assert sorted(x for x, a in built if a == alpha) == touched
    built.clear()
    longer = g.with_lengths(2.0 * g.lengths)
    d2 = shortest_path_metric(longer)
    assert all(ollivier_kappa(longer, d2, u, v) == ollivier_kappa(g, d, u, v)
               for u, v in g.edges())  # W and d both double
    assert built == []
    dropped = g.drop_edge(*next(g.edges()))
    u, v = next(dropped.edges())
    ollivier_kappa(dropped, shortest_path_metric(dropped), u, v)
    assert sorted(built) == [(u, None), (v, None)]
    assert vertex_measure(g, u) is not vertex_measure(g, u)  # the public function builds


def test_walk_memo_holds_no_graph():
    g = random_flow_graph(np.random.default_rng(700), 5)
    d = shortest_path_metric(g)
    curvature_report(g, kind="lly")
    kappa_alpha(g, d, *next(g.edges()), 0.3)
    copy = g.with_lengths(g.lengths)  # keeps the shared memo alive
    assert copy._walk_measures is g._walk_measures and g._walk_measures
    ref = weakref.ref(g)
    gc.disable()  # so only reference counting can free g: no cycle through the memo
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("alpha", [5.0, -0.1, float("nan"), None])
def test_curvature_report_checks_alpha_before_edges(alpha):
    edgeless = WeightedGraph.from_edges(3, [])
    with pytest.raises(ValidationError, match="alpha"):
        curvature_report(edgeless, kind="alpha", alpha=alpha)
    assert curvature_report(edgeless, kind="ollivier", alpha=alpha).values == {}


def test_curvature_report_checks_kind_before_edges():
    edgeless = WeightedGraph.from_edges(3, [])
    assert curvature_report(edgeless).values == {}
    with pytest.raises(ValidationError, match="unknown curvature kind"):
        curvature_report(edgeless, kind="forman")
    with pytest.raises(ValidationError, match="alpha"):
        curvature_report(edgeless, kind="alpha")
