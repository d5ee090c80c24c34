import numpy as np
import pytest

from conftest import complete_graph, cycle_graph, random_flow_graph
from oracles import brute_force_wasserstein

from curvflow import (
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
)
from curvflow.curvature import CurvatureError


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
    assert kappa_lly(g, d, 0, 1) == pytest.approx(2.0, abs=1e-6)
    c6 = cycle_graph(6)
    assert kappa_lly(c6, shortest_path_metric(c6), 0, 1) == \
        pytest.approx(0.0, abs=1e-6)
    k3 = complete_graph(3, measure=2.0)
    d3 = shortest_path_metric(k3)
    lly = kappa_lly(k3, d3, 0, 1)
    assert lly == pytest.approx(1.5, abs=1e-6)
    # consistency with the non-lazy value: slope at 0 dominates kappa^1
    assert lly >= ollivier_kappa(k3, d3, 0, 1) - 1e-9


def test_lly_agreement_guard():
    g = two_vertex()
    d = shortest_path_metric(g)
    with pytest.raises(CurvatureError):
        kappa_lly(g, d, 0, 1, alpha=0.9, agree_tol=1e-15)


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
            assert rep.values == expected
            assert (rep.min, rep.max) == (min(expected.values()), max(expected.values()))


def test_curvature_report_checks_kind_before_edges():
    edgeless = WeightedGraph.from_edges(3, [])
    assert curvature_report(edgeless).values == {}
    with pytest.raises(ValidationError, match="unknown curvature kind"):
        curvature_report(edgeless, kind="forman")
    with pytest.raises(ValidationError, match="alpha"):
        curvature_report(edgeless, kind="alpha")
