import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_flow_graph
from oracles import apsp_relaxation, union_find_components

from curvflow import (
    DisconnectedError,
    DistanceMatrix,
    ValidationError,
    WeightedGraph,
    combinatorial_metric,
    connected_components,
    laplacian_apply,
    lipschitz_constant,
    shortest_path_metric,
)


def test_single_edge_distance():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 3.0)])
    d = shortest_path_metric(g)
    assert d.value(0, 1) == 3.0
    assert d.value(0, 0) == 0.0


def test_path_unique_route():
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 2.0)])
    d = shortest_path_metric(g)
    assert d.value(0, 2) == 3.0


def test_shortcut_beats_edge_length():
    g = WeightedGraph.from_edges(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 5)])
    d = shortest_path_metric(g)
    assert d.value(0, 2) == 2.0
    assert g.edge_length(0, 2) == 5.0


def test_random_graphs_match_relaxation_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_flow_graph(rng, 8)
        edges = [(u, v, g.lengths[u, v]) for u, v in g.edges()]
        expected = apsp_relaxation(8, edges)
        got = shortest_path_metric(g).values
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_disconnected_pairs_flagged_infinite():
    g = WeightedGraph.from_edges(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
    d = shortest_path_metric(g)
    assert not d.is_finite(0, 2)
    with pytest.raises(DisconnectedError):
        d.value(0, 2)


def test_triangle_inequality_exhaustive():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(4, 13))
        g = random_flow_graph(rng, n)
        d = shortest_path_metric(g).values
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    assert d[x, z] <= d[x, y] + d[y, z] + 1e-12


@settings(max_examples=25, deadline=None)
@given(r=st.floats(min_value=0.01, max_value=100.0), seed=st.integers(0, 1000))
def test_scaling_lengths_scales_metric(r, seed):
    rng = np.random.default_rng(seed)
    g = random_flow_graph(rng, 6)
    base = shortest_path_metric(g).values
    scaled = shortest_path_metric(g.with_lengths(g.lengths * r)).values
    np.testing.assert_allclose(scaled, base * r, rtol=1e-12)


@pytest.mark.parametrize("r", [0.0, -1.0, float("nan"), float("inf")])
def test_scaled_rejects_a_non_positive_or_non_finite_factor(r):
    d = shortest_path_metric(random_flow_graph(np.random.default_rng(2), 5))
    with pytest.raises(ValidationError, match="scale factor"):
        d.scaled(r)
    assert np.array_equal(d.scaled(2.0).values, 2.0 * d.values)


def test_laplacian_constant_and_two_vertex():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)])
    np.testing.assert_allclose(laplacian_apply(g, np.array([5.0, 5.0])), 0.0)
    np.testing.assert_allclose(laplacian_apply(g, np.array([0.0, 1.0])),
                               [1.0, -1.0])


def test_laplacian_linearity():
    rng = np.random.default_rng(4)
    g = random_flow_graph(rng, 7)
    f1, f2 = rng.normal(size=7), rng.normal(size=7)
    a, b = 2.3, -0.7
    lhs = laplacian_apply(g, a * f1 + b * f2)
    rhs = a * laplacian_apply(g, f1) + b * laplacian_apply(g, f2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_laplacian_measure_weighted_sum_vanishes():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_flow_graph(rng, 6)
        f = rng.normal(size=6)
        assert abs(float(g.measure @ laplacian_apply(g, f))) < 1e-12


def test_lipschitz_basics():
    g = WeightedGraph.from_edges(3, [(0, 1, 1, 1), (1, 2, 1, 1)])
    d = shortest_path_metric(g)
    assert lipschitz_constant(np.array([2.0, 2.0, 2.0]), d) == 0.0
    assert lipschitz_constant(np.array([0.0, 1.0, 2.0]), d) == pytest.approx(1.0)


def test_lipschitz_edges_equal_all_pairs_on_path_metric():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_flow_graph(rng, 7)
        d = shortest_path_metric(g)
        f = rng.normal(size=7)
        all_pairs = lipschitz_constant(f, d, "all-pairs")
        edges_only = lipschitz_constant(f, d, "edges-only")
        assert all_pairs == pytest.approx(edges_only, abs=1e-12)


def test_lipschitz_rejects_infinite_pairs():
    g = WeightedGraph.from_edges(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
    d = shortest_path_metric(g)
    with pytest.raises(DisconnectedError):
        lipschitz_constant(np.zeros(4), d, "all-pairs")
    assert lipschitz_constant(np.array([0, 1, 0, 5.0]), d, "edges-only") == 5.0


def test_components_simple():
    assert connected_components(WeightedGraph.from_edges(2, [(0, 1, 1, 1)])) == [[0, 1]]
    two = WeightedGraph.from_edges(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
    assert connected_components(two) == [[0, 1], [2, 3]]


def test_components_match_union_find_and_bridge_deletion():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_flow_graph(rng, 9)
        pairs = list(g.edges())
        assert connected_components(g) == union_find_components(9, pairs)
    chain = WeightedGraph.from_edges(4, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1)])
    before = len(connected_components(chain))
    after = len(connected_components(chain.drop_edge(1, 2)))
    assert after == before + 1
    assert connected_components(chain.drop_edge(1, 2)) == \
        union_find_components(4, [(0, 1), (2, 3)])


def test_combinatorial_metric_is_hop_count():
    g = WeightedGraph.from_edges(3, [(0, 1, 1, 7.0), (1, 2, 1, 0.2)])
    d0 = combinatorial_metric(g)
    assert d0.value(0, 2) == 2.0


def test_validation_rejects_bad_graphs():
    with pytest.raises(ValidationError):
        WeightedGraph.from_edges(2, [(0, 1, -1.0, 1.0)])
    with pytest.raises(ValidationError):
        WeightedGraph.from_edges(2, [(0, 1, 1.0, 0.0)])
    with pytest.raises(ValidationError):
        WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)], measure=[1.0, -2.0])
    with pytest.raises(ValidationError):
        WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0), (0, 1, 2.0, 1.0)])
    with pytest.raises(ValidationError):
        WeightedGraph.from_edges(2, [(0, 0, 1.0, 1.0)])


def test_graph_arrays_immutable():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)])
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


def test_graph_and_distances_copy_their_inputs():
    # views of the caller's arrays would follow its later writes, and
    # freezing the caller's own arrays would take them from it
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = np.array([2.0, 2.0])
    ln = np.array([[0.0, 3.0], [3.0, 0.0]])
    a = np.array([[0.0, 3.0], [3.0, 0.0]])
    mask = np.array([[False, True], [True, False]])
    g = WeightedGraph(2, w[:, :], m[:], ln)
    d = DistanceMatrix(a[:, :], edge_mask=mask)
    g2 = WeightedGraph(2, w, m, ln)
    d2 = DistanceMatrix(a)
    w[0, 1] = w[1, 0] = 7.0
    m[0] = 9.0
    ln[0, 1] = 5.0
    a[0, 1] = a[1, 0] = -1.0
    mask[0, 1] = False
    for graph in (g, g2):
        assert graph.weights[0, 1] == 1.0 and graph.measure[0] == 2.0
        assert graph.lengths[0, 1] == 3.0
    for dist in (d, d2):
        assert dist.values[0, 1] == 3.0
    assert d.edge_mask[0, 1]
    for arr in (w, m, ln, a, mask):
        assert arr.flags.writeable


def _bad_lengths(g: WeightedGraph, case: str) -> np.ndarray:
    if case == "shape":
        return np.ones((g.n + 1, g.n + 1))
    ln = g.lengths.copy()
    if case == "asymmetric":
        ln[0, 1] += 1e-6
    else:
        ln[0, 1] = ln[1, 0] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                               "zero": 0.0, "negative": -1.0}[case]
    return ln


@pytest.mark.parametrize("case", ["nan", "inf", "-inf", "zero", "negative",
                                  "asymmetric", "shape"])
def test_with_lengths_rejects_what_the_constructor_rejects(case):
    g = random_flow_graph(np.random.default_rng(3), 5)
    assert g.weights[0, 1] > 0
    bad = _bad_lengths(g, case)
    with pytest.raises(ValidationError) as full:
        WeightedGraph(g.n, g.weights, g.measure, bad)
    with pytest.raises(ValidationError) as lean:
        g.with_lengths(bad)
    assert str(lean.value) == str(full.value)


def test_with_lengths_equals_constructor_and_shares_arrays():
    rng = np.random.default_rng(4)
    g = random_flow_graph(rng, 7)
    new = rng.uniform(0.5, 2.0, (7, 7))
    new = new + new.T  # nonzero off the edge set too: stored as 0
    lean = g.with_lengths(new)
    full = WeightedGraph(g.n, g.weights, g.measure, new)
    assert lean.n == full.n
    assert np.array_equal(lean.lengths, full.lengths)
    assert np.array_equal(lean.weights, full.weights)
    assert np.array_equal(lean.measure, full.measure)
    assert np.all(lean.lengths[g.weights == 0] == 0)
    assert lean.weights is g.weights and lean.measure is g.measure
    assert g.lengths is not lean.lengths
    assert not lean.lengths.flags.writeable
    assert not lean.weights.flags.writeable and not lean.measure.flags.writeable
