import time

import numpy as np
import pytest

from conftest import (
    cycle_graph,
    cycle_partition,
    path_graph,
    random_flow_graph,
    random_lazy_kernel,
)

from curvflow import (
    DisconnectedError,
    DistanceMatrix,
    PartitionXKY,
    PreconditionError,
    ValidationError,
    WeightedGraph,
    laplacian_apply,
    linear_chain_operator,
    lipschitz_constant,
    lipschitz_extend,
    ric_r,
    separation_flow_generic,
    separation_flow_linear,
    separation_flow_p,
    shortest_path_metric,
)
from curvflow.chains import CONVERGED, ChainOperator
from curvflow.graphs import laplacian_matrix
from curvflow.plaplace import _Resolvent, resolvent
from curvflow.separation import _extension, _iterate_on_k, _newton_on_k


def path_partition():
    g = path_graph([1.0, 1.0])  # x - k - y with measure 2
    part = PartitionXKY.build(g, [0], [1], [2])
    return g, part


def test_partition_validation():
    g = path_graph([1.0, 1.0])
    PartitionXKY.build(g, [0, 1], [2], [])  # empty Y is allowed
    # X-Y edge rejected
    tri = WeightedGraph.from_edges(3, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 2, 1, 1)],
                                   measure=[2.0] * 3)
    with pytest.raises(ValidationError):
        PartitionXKY.build(tri, [0], [1], [2])
    with pytest.raises(ValidationError):
        PartitionXKY.build(g, [0], [], [1, 2])
    with pytest.raises(ValidationError):
        PartitionXKY.build(g, [0], [1], [])  # vertex 2 missing


def test_partition_entries_must_be_integer_vertex_ids():
    g = path_graph([1.0, 1.0])
    part = PartitionXKY.build(g, np.array([0]), (np.int64(1),), iter([2]))
    assert part == PartitionXKY((0,), (1,), (2,))
    # 1.0 == 1 and True == 1 would pass the covering check, then index
    for bad in ([1.0], [True], ["1"], [[1]], [None]):
        with pytest.raises(ValidationError, match="integer vertex ids"):
            PartitionXKY.build(g, [0], bad, [2])


def test_distance_factorization_check():
    from curvflow import DistanceMatrix

    g, part = path_partition()
    d = shortest_path_metric(g)
    # graph metrics always factor: every x-y path crosses K
    assert part.check_distance_factorization(d)
    square = cycle_graph(4)
    good = cycle_partition(square)
    assert good.check_distance_factorization(shortest_path_metric(square))
    # an abstract metric can shortcut around K
    abstract = DistanceMatrix(np.array([[0.0, 1.0, 1.0],
                                        [1.0, 0.0, 1.0],
                                        [1.0, 1.0, 0.0]]))
    assert not part.check_distance_factorization(abstract)


def test_extension_examples():
    g, part = path_partition()
    d = shortest_path_metric(g)
    np.testing.assert_allclose(lipschitz_extend(part, d, np.array([0.0])),
                               [-1.0, 0.0, 1.0])
    # K = V: the extension is the identity
    all_k = PartitionXKY.build(g, [], [0, 1, 2], [])
    f = np.array([0.2, 0.0, -0.8])
    np.testing.assert_allclose(lipschitz_extend(all_k, d, f), f)


def test_extension_rejects_non_lipschitz():
    g, part = path_partition()
    d = shortest_path_metric(g)
    two_k = PartitionXKY.build(g, [0], [1, 2], [])
    with pytest.raises(ValidationError):
        lipschitz_extend(two_k, d, np.array([0.0, 5.0]))


def _extend_by_vertex(part, d, f):
    """The extremal extension one X or Y vertex at a time."""
    ks = np.array(part.k_set)
    out = np.empty(d.n)
    out[ks] = f
    for x in part.x_set:
        out[x] = np.max(f - d.values[x, ks])
    for y in part.y_set:
        out[y] = np.min(f + d.values[y, ks])
    return out


@pytest.mark.parametrize("x_set,y_set,vertex", [
    ([0, 3, 4], [2], 3),  # the first unreachable X vertex, before Y's
    ([0], [2, 3, 4], 2),  # then the first unreachable Y vertex
])
def test_extension_names_the_first_vertex_without_a_finite_distance_to_k(
        x_set, y_set, vertex):
    # 2, 3 and 4 are isolated; 0 is one step from K = {1}
    g = WeightedGraph.from_edges(5, [(0, 1, 1.0, 1.0)], measure=[1.0] * 5)
    part = PartitionXKY.build(g, x_set, [1], y_set)
    with pytest.raises(DisconnectedError, match=f"vertex {vertex} has no finite distance"):
        lipschitz_extend(part, shortest_path_metric(g), np.array([0.0]))


def _random_partition(rng, g):
    """K of 1 to n - 1 random vertices; each component of G - K goes whole
    to X or to Y, so either may be empty."""
    k_set = sorted(rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False).tolist())
    side = {}
    for v in range(g.n):
        if v in k_set or v in side:
            continue
        stack, side[v] = [v], bool(rng.integers(2))
        while stack:
            for z in g.neighbors(stack.pop()).tolist():
                if z not in k_set and z not in side:
                    side[z] = side[v]
                    stack.append(z)
    return PartitionXKY.build(g, [v for v in side if side[v]], k_set,
                              [v for v in side if not side[v]])


def test_chain_extension_equals_the_public_one_bit_for_bit():
    # _iterate_on_k takes d's columns to K once per flow; every chain step's
    # extension must be the public lipschitz_extend's, and the per-vertex one's
    rng = np.random.default_rng(19)
    empty_x = empty_y = 0
    for _ in range(60):
        g = random_flow_graph(rng, int(rng.integers(2, 9)))
        part = _random_partition(rng, g)
        d, ks = shortest_path_metric(g), np.array(part.k_set)
        steps = []

        def step(full):
            fk = full[ks]
            assert full.tobytes() == lipschitz_extend(part, d, fk, validate=False).tobytes()
            assert full.tobytes() == _extend_by_vertex(part, d, fk).tobytes()
            steps.append(fk)
            return full + 0.5 * laplacian_apply(g, full)

        _iterate_on_k(part, d, step, rng.normal(size=ks.size), 0, 1e-9, 6)
        assert steps
        empty_x += not part.x_set
        empty_y += not part.y_set
    assert empty_x and empty_y


@pytest.mark.parametrize("x_set,y_set,vertex", [([0, 3, 4], [2], 3), ([0], [2, 3, 4], 2)])
def test_chain_step_names_the_first_vertex_without_a_finite_distance_to_k(
        x_set, y_set, vertex):
    g = WeightedGraph.from_edges(5, [(0, 1, 1.0, 1.0)], measure=[1.0] * 5)
    part = PartitionXKY.build(g, x_set, [1], y_set)
    d, steps = shortest_path_metric(g), []
    # the engine checks f0 before its first step, where the extension raises
    with pytest.raises(ValidationError, match="f0 must be finite"):
        _iterate_on_k(part, d, steps.append, np.array([np.nan]), 0, 1e-9, 10)
    with pytest.raises(DisconnectedError, match=f"vertex {vertex} has no finite distance"):
        _iterate_on_k(part, d, steps.append, np.array([0.0]), 0, 1e-9, 10)
    assert steps == []
    with pytest.raises(DisconnectedError, match=f"vertex {vertex} has no finite distance"):
        separation_flow_linear(g, part, 0.1, waive_curvature=True)


@pytest.mark.parametrize("f0", [[0.0], [0.0, 0.5, 0.2], [[0.0, 0.5]], [0.0, np.nan]])
def test_flows_reject_a_start_that_is_not_finite_values_on_k(f0):
    g = cycle_graph(4)
    part = cycle_partition(g)
    for flow in (lambda f: separation_flow_linear(g, part, 0.2, f),
                 lambda f: separation_flow_p(g, part, 2.0, f0=f)):
        with pytest.raises(ValidationError, match="f0 must be 2 finite values on K"):
            flow(np.array(f0))


def test_extension_rejects_a_non_finite_f():
    g, part = path_partition()
    with pytest.raises(ValidationError, match="finite"):
        lipschitz_extend(part, shortest_path_metric(g), np.array([np.nan]), validate=False)


def test_extension_is_one_lipschitz_and_constant_additive():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        g = random_flow_graph(rng, n)
        d = shortest_path_metric(g)
        if np.any(np.isinf(d.values)):
            continue
        ids = rng.permutation(n)
        k_sz = int(rng.integers(1, n - 1))
        k_set = sorted(ids[:k_sz].tolist())
        rest = ids[k_sz:]
        # X gets vertices not adjacent to Y's side: use BFS split by K
        x_set, y_set = [], []
        for v in sorted(rest.tolist()):
            (x_set if len(x_set) <= len(y_set) else y_set).append(v)
        try:
            part = PartitionXKY.build(g, x_set, k_set, y_set)
        except ValidationError:
            continue
        raw = rng.normal(size=k_sz)
        ks = np.array(part.k_set)
        f = np.min(raw[None, :] + d.values[np.ix_(ks, ks)], axis=1)
        ext = lipschitz_extend(part, d, f)
        assert ext.tobytes() == _extend_by_vertex(part, d, f).tobytes()
        assert lipschitz_constant(ext, d, "all-pairs") <= 1.0 + 1e-9
        shifted = lipschitz_extend(part, d, f + 3.25)
        np.testing.assert_allclose(shifted, ext + 3.25, atol=1e-12)


def test_linear_flow_path_hand_value():
    # unit measure variant: Laplacian of (-1, 0, 1) is (1, 0, -1)
    g = path_graph([1.0, 1.0], measure=1.0)
    part = PartitionXKY.build(g, [0], [1], [2])
    res = separation_flow_linear(g, part, eps=0.4, tol=1e-11,
                                 waive_curvature=True)
    assert res.status == CONVERGED
    assert res.laplacian_constant == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(laplacian_apply(g, res.extension), [1.0, 0.0, -1.0],
                               atol=1e-9)
    assert res.sign_min_x == pytest.approx(1.0, abs=1e-9)
    assert res.sign_max_y == pytest.approx(-1.0, abs=1e-9)
    assert res.waived and not res.curvature_verified


def test_linear_flow_verified_path():
    g, part = path_partition()
    res = separation_flow_linear(g, part, eps=0.4, tol=1e-11)
    assert res.curvature_verified and not res.waived
    assert res.status == CONVERGED
    assert res.spread_on_k == pytest.approx(0.0, abs=1e-9)
    assert res.sign_min_x >= -1e-9 and res.sign_max_y <= 1e-9


def test_linear_flow_rejects_large_eps_and_negative_curvature():
    g, part = path_partition()
    with pytest.raises(ValidationError):
        separation_flow_linear(g, part, eps=3.0)
    # a three-leg spider has curvature -1/3 on its inner edges
    spider = WeightedGraph.from_edges(
        7, [(0, 1, 1, 1), (1, 2, 1, 1), (0, 3, 1, 1), (3, 4, 1, 1),
            (0, 5, 1, 1), (5, 6, 1, 1)],
        measure=[3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
    spart = PartitionXKY.build(spider, [2], [0, 1, 3, 5], [4, 6])
    with pytest.raises(PreconditionError):
        separation_flow_linear(spider, spart, eps=0.3)
    res = separation_flow_linear(spider, spart, eps=0.3, waive_curvature=True,
                                 tol=1e-10)
    assert res.waived


def test_single_k_vertex_converges_in_one_step():
    g, part = path_partition()
    res = separation_flow_linear(g, part, eps=0.25, tol=1e-9)
    assert res.status == CONVERGED
    assert res.engine.iterations == 1


def test_linear_flow_keeps_iterates_lipschitz(monkeypatch):
    # every iterate on K passes through the chain's extension
    import curvflow.separation as separation

    g = cycle_graph(6)
    part = cycle_partition(g)
    f0 = np.array([0.0, 1.0])
    d, ks, iterates = shortest_path_metric(g), np.array(part.k_set), []

    def watched(part, d):
        extend = _extension(part, d)
        return lambda fk: iterates.append(fk) or extend(fk)

    monkeypatch.setattr(separation, "_extension", watched)
    res = separation_flow_linear(g, part, eps=0.4, f0=f0, tol=1e-11)
    assert res.status == CONVERGED and len(iterates) >= res.iterations
    d_on_k = d.values[np.ix_(ks, ks)]
    off = d_on_k > 0
    for fk in iterates:
        assert np.max(np.abs(fk[:, None] - fk[None, :])[off] / d_on_k[off]) <= 1.0 + 1e-9


def test_linear_flow_on_random_nonnegative_instances():
    rng = np.random.default_rng(1)
    done = 0
    for _ in range(40):
        n = int(rng.integers(4, 9))
        g = cycle_graph(n, weight=float(rng.uniform(0.5, 2.0)))
        part = cycle_partition(g)
        f0 = rng.uniform(-0.5, 0.5, len(part.k_set))
        f0 -= f0[0]
        try:
            res = separation_flow_linear(g, part, eps=0.3, f0=f0, tol=1e-11)
        except PreconditionError:
            continue
        assert res.status == CONVERGED
        assert res.spread_on_k < 1e-7
        assert res.sign_min_x >= -1e-9 and res.sign_max_y <= 1e-9
        done += 1
        if done >= 10:
            break
    assert done >= 10


def test_p_flow_reduces_to_linear_fixed_point_for_p2():
    g = cycle_graph(6)
    part = cycle_partition(g)
    lin = separation_flow_linear(g, part, eps=0.25, tol=1e-12)
    pres = separation_flow_p(g, part, 2.0, eps=0.1, tol=1e-12)
    assert pres.status == CONVERGED
    # both flows reach a state whose Laplacian is the same constant on K
    lap_lin = lin.laplacian_constant
    np.testing.assert_allclose(pres.constant, lap_lin, atol=1e-7)
    assert pres.spread_on_k < 1e-7
    assert pres.sign_min_x >= -1e-9 and pres.sign_max_y <= 1e-9


def test_p_flow_defect_decays_linearly():
    g = cycle_graph(5)
    part = cycle_partition(g)
    for p in (1.0, 1.5, 3.0):
        res = separation_flow_p(g, part, p, eps=0.1, tol=1e-12)
        assert res.status == CONVERGED
        defects = [s["defect"] for s in res.stages]
        epss = [s["eps"] for s in res.stages]
        bound = 2.0 * max(g.degrees())
        for dft, ek in zip(defects, epss):
            assert dft <= bound * ek + 1e-9
        assert res.spread_on_k < 1e-7


def test_p_flow_at_p_1_5_converges_on_a_near_flat_input():
    # the primal resolvent failed at chain step 402 of the first stage,
    # whose input has two edges flat to 5.8e-8
    g = cycle_graph(5, weight=1.0, measure=2.134575843061704)
    part = cycle_partition(g)
    res = separation_flow_p(g, part, 1.5, eps=0.1, f0=np.array([0.0, 0.820466237994694]))
    assert res.status == CONVERGED and len(res.stages) == 6
    assert res.spread_on_k < 1e-7


def test_p_flow_p1_membership_of_g_sub():
    g = cycle_graph(4)
    part = cycle_partition(g)
    res = separation_flow_p(g, part, 1.0, eps=0.1, tol=1e-12)
    assert res.status == CONVERGED
    from curvflow import p_laplacian

    member = p_laplacian(g, res.h, 1)
    ok, msg = member.verify(res.g_sub, res.selection, tol=1e-6)
    assert ok, msg


def _criterion_5_cycle(i):
    """Criterion 5's cycle i: (graph, partition, f0, p)."""
    rng = np.random.default_rng(20_000 + i)
    n = int(rng.integers(4, 7))
    weight = float(rng.uniform(0.5, 2.0))
    g = cycle_graph(n, weight=weight, measure=2.0 * weight * float(rng.uniform(1.0, 2.0)))
    part = cycle_partition(g)
    half = float(shortest_path_metric(g).value(part.k_set[0], part.k_set[1]))
    return g, part, np.array([0.0, float(rng.uniform(-half, half))]), [1.0, 1.5, 2.0, 3.0][i % 4]


def _p_flow_by_public_resolvent(g, part, p, f0, tol, eps=0.1):
    """separation_flow_p's stages with every chain step, the Newton start's
    included, a public resolvent call warm from the stage's last g: (stage
    rows, h, g_sub)."""
    d = shortest_path_metric(g)
    ks = np.array(part.k_set)
    warm, rows, current = {}, [], f0
    for eps_k in [eps * 0.5 ** k for k in range(6)]:
        def step(full, eps_k=eps_k):
            warm[eps_k] = resolvent(g, full, p, eps_k, x0=warm.get(eps_k)).g
            return warm[eps_k]

        start, newton_steps = _newton_on_k(part, d, step, current, 0, tol)
        if start is None:
            start = current
            warm.pop(eps_k, None)
        result = _iterate_on_k(part, d, step, start, 0, tol, 100_000)
        current = result.limit
        s_ftilde = lipschitz_extend(part, d, current, tol=1e-6)
        sol = resolvent(g, s_ftilde, p, eps_k)
        s_h = lipschitz_extend(part, d, sol.g[ks], validate=False)
        rows.append((result.iterations, newton_steps,
                     float(np.max(np.abs(sol.g - s_h))), sol.residual))
    return rows, sol.g, (sol.g - s_ftilde) / eps_k


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_p_flow_matches_one_public_resolvent_per_chain_step(p):
    # the criterion-5 cycles of p: a solver built once per stage must
    # leave every stage and the limit bit-identical
    for i in range(2):
        g, part, f0, _ = _criterion_5_cycle([1.0, 1.5, 2.0, 3.0].index(p) + 4 * i)
        res = separation_flow_p(g, part, p, eps=0.1, f0=f0, tol=1e-8)
        rows, h, g_sub = _p_flow_by_public_resolvent(g, part, p, f0, 1e-8)
        assert res.status == CONVERGED
        assert [(s["iterations"], s["newton_steps"], s["defect"], s["residual"])
                for s in res.stages] == rows
        assert res.h.tobytes() == h.tobytes() and res.g_sub.tobytes() == g_sub.tobytes()


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_p_flow_stage_limit_matches_a_tight_plain_chain(monkeypatch, p):
    # the Newton start and the chain's one certifying step land on the
    # stage's limit, which the chain alone approaches only to about
    # tol / (1 - its contraction rate)
    import curvflow.separation as separation

    limits = []

    def spy(*args):
        result = _iterate_on_k(*args)
        limits.append(result.limit)
        return result

    monkeypatch.setattr(separation, "_iterate_on_k", spy)
    for i in range(20):
        g, part, f0, p_i = _criterion_5_cycle(i)
        if p_i != p:
            continue
        limits.clear()
        res = separation_flow_p(g, part, p, eps=0.1, f0=f0, tol=1e-8)
        assert res.status == CONVERGED and res.stages[0]["iterations"] == 1
        solver = _Resolvent(g, p, 0.1)
        plain = _iterate_on_k(part, shortest_path_metric(g), lambda full: solver.solve(full)[0],
                              f0, 0, 1e-13, 200_000)
        assert plain.status == CONVERGED
        assert np.max(np.abs(limits[0] - plain.limit)) <= 1e-9


@pytest.mark.parametrize("i", [0, 1, 10])
def test_p3_six_cycle_is_solved_fast_and_near_its_symmetric_limit(i):
    # the plain chain needed 83,795 steps in the first stage of cycle 0,
    # ending with |h(k2) - h(k1)| = 8.4e-4, and stopped at max-iterations
    # (100,000 steps) on cycles 1 and 10
    g, part, f0, _ = _criterion_5_cycle(i)
    assert g.n == 6
    start = time.process_time()
    res = separation_flow_p(g, part, 3.0, eps=0.1, f0=f0, tol=1e-8)
    assert time.process_time() - start < 1.0
    assert res.status == CONVERGED and res.stages[0]["newton_steps"] > 0
    k1, k2 = part.k_set
    assert abs(res.h[k2] - res.h[k1]) < 8.4e-4


def _without_newton(monkeypatch, g, part, p, f0, x0=None):
    import curvflow.separation as separation

    with monkeypatch.context() as m:
        m.setattr(separation, "_newton_on_k", lambda *args: (None, 0))
        return separation_flow_p(g, part, p, eps=0.1, f0=f0, x0=x0, tol=1e-8)


def _three_cut_six_cycle(seed):
    """A criterion-5 style 6-cycle cut at 0, 2 and 4, so |K| = 3, with a
    start in Lip(1, K): (graph, partition, f0)."""
    rng = np.random.default_rng(seed)
    weight = float(rng.uniform(0.5, 2.0))
    g = cycle_graph(6, weight=weight, measure=2.0 * weight * float(rng.uniform(1.0, 2.0)))
    return g, PartitionXKY.build(g, [1], [0, 2, 4], [3, 5]), rng.uniform(-1.0, 1.0, 3)


@pytest.mark.parametrize("p, x0", [(1.5, 0), (2.0, 2), (3.0, 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_p_flow_on_three_cut_vertices_is_exact_and_cheaper_than_the_plain_chain(
        monkeypatch, p, x0, seed):
    # |K| = 3 gives a 2 x 2 difference Jacobian, with x0's column left out
    # first, in the middle or last; the limit ties the values at 0 and 2,
    # a kink of S, which a column differenced across it turned into a stall
    import curvflow.separation as separation

    g, part, f0 = _three_cut_six_cycle(seed)
    x0k, limits, solves = part.k_index(x0), [], []

    def spy(*args):
        result = _iterate_on_k(*args)
        limits.append(result.limit)
        return result

    def counting(*args):
        solver = _Resolvent(*args)
        solve = solver.solve
        solver.solve = lambda *a: solves.append(1) or solve(*a)
        return solver

    monkeypatch.setattr(separation, "_Resolvent", counting)
    if p != 3.0:  # the plain p = 3 flow takes seconds here, tens of thousands of steps
        start = time.process_time()
        ref = _without_newton(monkeypatch, g, part, p, f0, x0)
        plain_time, plain_solves = time.process_time() - start, len(solves)
        assert ref.status == CONVERGED
        solves.clear()
    monkeypatch.setattr(separation, "_iterate_on_k", spy)
    start = time.process_time()
    res = separation_flow_p(g, part, p, eps=0.1, f0=f0, x0=x0, tol=1e-8)
    newton_time = time.process_time() - start
    assert res.status == CONVERGED
    assert all(s["newton_steps"] > 0 and s["iterations"] == 1 for s in res.stages)
    if p != 3.0:
        # measured: 3.6-5.7x fewer solves at p = 1.5, 145-190x at p = 2
        assert 3 * len(solves) < plain_solves and newton_time < plain_time
        assert np.max(np.abs(res.h - ref.h)) < 1e-5

    # Newton stops at max|R| <= 1e-11, which bounds the error by 1e-11 over
    # 1 - the chain's contraction rate; the tol-1e-8 chain is off by 2e-7
    # to 8e-6 on such cycles
    solver = _Resolvent(g, p, 0.1)
    plain = _iterate_on_k(part, shortest_path_metric(g), lambda full: solver.solve(full)[0],
                          f0, x0k, 1e-13, 200_000)
    assert plain.status == CONVERGED
    assert np.max(np.abs(limits[0] - plain.limit)) <= 1e-8


def test_p3_newton_steps_through_an_exactly_singular_jacobian():
    # the last stage starts with f(0) = f(3) and a flat X arc between
    # them, where the p = 3 Laplacian has no derivative: its difference
    # Jacobian is exactly singular, and a Newton step solved by LU raised,
    # leaving that stage to the plain chain (37,707 steps, 4 s)
    g = cycle_graph(9, measure=3.0)
    part = PartitionXKY.build(g, [1, 2], [0, 3, 6], [4, 5, 7, 8])
    start = time.process_time()
    res = separation_flow_p(g, part, 3.0, eps=0.1, f0=np.array([0.0, -1.0, -1.0]), x0=6,
                            tol=1e-8)
    assert time.process_time() - start < 1.0
    assert res.status == CONVERGED
    assert all(s["newton_steps"] > 0 and s["iterations"] == 1 for s in res.stages)


def _assert_same_flow(res, ref):
    assert res.status == ref.status == CONVERGED
    assert res.stages == ref.stages
    assert res.h.tobytes() == ref.h.tobytes() and res.g_sub.tobytes() == ref.g_sub.tobytes()


def test_p1_stage_rejects_its_singular_newton_start(monkeypatch):
    # p = 1 moves no K value under a small change of f, so the difference
    # Jacobian is zero and every stage is the plain chain
    for i in (0, 12, 16):
        g, part, f0, p = _criterion_5_cycle(i)
        assert p == 1.0
        res = separation_flow_p(g, part, p, eps=0.1, f0=f0, tol=1e-8)
        assert all(s["newton_steps"] == 0 for s in res.stages)
        _assert_same_flow(res, _without_newton(monkeypatch, g, part, p, f0))


@pytest.mark.parametrize("case", [0, 12, 16, "three-cut"])
def test_p1_newton_stops_on_its_zero_step(monkeypatch, case):
    # a zero difference Jacobian yields a zero Newton move, which no
    # halving can improve: such a Newton call costs its residual and |K| - 1
    # columns, where its line search once added 20 more solves (the first
    # stages of cycles 12 and 16 and of the three-cut cycle took 22, 22 and
    # 23, now 2, 2 and 3)
    import curvflow.separation as separation

    if case == "three-cut":
        g, part, f0 = _three_cut_six_cycle(0)
    else:
        g, part, f0, p = _criterion_5_cycle(case)
        assert p == 1.0
    calls = []

    def counted(part, d, step, *args):
        calls.append(0)

        def counting_step(full):
            calls[-1] += 1
            return step(full)

        return _newton_on_k(part, d, counting_step, *args)

    monkeypatch.setattr(separation, "_newton_on_k", counted)
    res = separation_flow_p(g, part, 1.0, eps=0.1, f0=f0, tol=1e-8)
    assert res.status == CONVERGED and len(calls) == len(res.stages)
    assert all(1 <= n <= len(part.k_set) + 1 for n in calls), calls


def test_newton_start_outside_lip_k_is_rejected(monkeypatch):
    # a step contracting K toward a target, Newton's zero, which is taken
    # only if it lies in Lip(1, K)
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)],
                                 measure=[2.0] * 3)
    part = PartitionXKY.build(g, [], [0, 1], [2])
    d = shortest_path_metric(g)

    def toward(target):
        def step(full):
            out = full.copy()
            out[1] = 0.5 * (full[1] + target)
            return out
        return step

    f, steps = _newton_on_k(part, d, toward(0.75), np.zeros(2), 0, 1e-8)
    assert steps >= 1 and f == pytest.approx([0.0, 0.75], abs=1e-12)
    assert _newton_on_k(part, d, toward(1.25), np.zeros(2), 0, 1e-8) == (None, 0)

    # in the flow: Newton takes its steps at p = 1.5, warming the stage's
    # solver, then its point is refused, and the stage ends as the plain chain
    import curvflow.separation as separation

    g, part, f0, p = _criterion_5_cycle(1)
    taken = []

    def refused(*args):
        taken.append(_newton_on_k(*args)[1])
        return None, 0

    monkeypatch.setattr(separation, "_newton_on_k", refused)
    res = separation_flow_p(g, part, p, eps=0.1, f0=f0, tol=1e-8)
    monkeypatch.undo()
    assert len(taken) == len(res.stages) and all(taken)
    _assert_same_flow(res, _without_newton(monkeypatch, g, part, p, f0))


def test_p_flow_gate_on_negative_modified_curvature():
    g = path_graph([1.0, 1.0])  # end edges have negative convex curvature
    part = PartitionXKY.build(g, [0], [1], [2])
    with pytest.raises(PreconditionError):
        separation_flow_p(g, part, 3.0, eps=0.1)
    res = separation_flow_p(g, part, 3.0, eps=0.1, waive_curvature=True,
                            tol=1e-11)
    assert res.waived and res.status == CONVERGED


def test_p_flow_gate_on_infeasible_modified_curvature():
    # a lone edge: the convex curvature LP forbids the plan's diagonal,
    # which leaves no plan at all, so the sign is unverified
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)], measure=[1.0, 2.0])
    part = PartitionXKY.build(g, [], [0, 1], [])
    with pytest.raises(PreconditionError, match=r"\(0, 1\).*waive_curvature"):
        separation_flow_p(g, part, 3.0, eps=0.1)


# ---------------------------------------------------------------------------
# Ric_r


def test_ric_identity_is_zero():
    rng = np.random.default_rng(2)
    g = random_flow_graph(rng, 5)
    d = shortest_path_metric(g)
    if np.any(np.isinf(d.values)):
        g = cycle_graph(5)
        d = shortest_path_metric(g)
    for r in (0.5, 1.0, 2.0):
        b = ric_r(linear_chain_operator(np.eye(g.n)), d, r, n_samples=8, seed=0)
        assert b.lower == pytest.approx(0.0, abs=1e-12)
        assert b.upper == pytest.approx(0.0, abs=1e-12)


def test_ric_averaging_chain_is_one():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)])
    M = np.array([[0.5, 0.5], [0.5, 0.5]])
    b = ric_r(linear_chain_operator(M), shortest_path_metric(g), 1.0,
              n_samples=8, seed=0)
    assert b.lower == pytest.approx(1.0)
    assert b.upper == pytest.approx(1.0)


def test_ric_sampled_matches_exact_for_linear_chains():
    rng = np.random.default_rng(3)
    count = 0
    while count < 8:
        g = random_flow_graph(rng, int(rng.integers(3, 7)))
        d = shortest_path_metric(g)
        if np.any(np.isinf(d.values)):
            continue
        K = random_lazy_kernel(rng, g)
        b = ric_r(linear_chain_operator(K), d, 1.0, n_samples=64, seed=count)
        assert b.exact
        assert 0.0 <= b.upper - b.lower <= 1e-12
        count += 1


def test_ric_of_linear_chains_matches_lp_oracle():
    # chains k of seed 208 include the `separation` benchmark's ric_r
    # inputs; a coordinate-ascent sampler with 64 samples left the upper
    # bound of k = 167, 259 and 287 from 6.8e-4 to 6.1e-3 too high
    from oracles import ric_sup_lp

    for k in range(300):
        rng = np.random.default_rng([208, k])
        g = random_flow_graph(rng, 3 + k % 4)
        d = shortest_path_metric(g)
        K = random_lazy_kernel(rng, g)
        r = (1.0, 0.5, 2.0)[k % 3]
        b = ric_r(linear_chain_operator(K), d, r, seed=k)
        assert b.exact
        assert abs(b.lower - ric_sup_lp(K, d.values, r)) <= 1e-9, k
        assert 0.0 <= b.upper - b.lower <= 1e-12, k


def test_ric_on_a_non_metric_distance_is_a_valid_bracket():
    # d(0, 2) = 5 > d(0, 1) + d(1, 2): the c-transform of the duals is not
    # 1-Lipschitz here, so the witness is divided by its measured Lip
    from oracles import ric_sup_lp

    d = DistanceMatrix(np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]))
    K = np.array([[0.2, 0.8, 0.0], [0.0, 0.3, 0.7], [0.6, 0.0, 0.4]])
    for r in (0.5, 1.0, 3.0):
        b = ric_r(linear_chain_operator(K), d, r)
        assert np.isfinite(b.lower) and np.isfinite(b.upper)
        assert b.upper >= b.lower
        # Kantorovich's W on a non-metric cost only bounds the sup from above
        assert b.lower <= ric_sup_lp(K, d.values, r) + 1e-9 <= b.upper + 2e-9


def test_nonlinear_ric_on_a_non_metric_distance_is_a_valid_upper_bound():
    # the cones +-r d(z, .) are not Lip r here; unscaled, they once gave
    # upper = -2.0 against Ric_r = 0.1
    from oracles import ric_sup_lp

    d = DistanceMatrix(np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]))
    K = np.array([[0.2, 0.8, 0.0], [0.0, 0.3, 0.7], [0.6, 0.0, 0.4]])
    P = ChainOperator(dimension=3, apply=lambda f: K @ f)
    for r in (0.5, 1.0, 3.0):
        b = ric_r(P, d, r)
        assert not b.exact and b.lower == -np.inf
        assert b.upper >= ric_sup_lp(K, d.values, r) - 1e-9, r


def test_ric_applies_a_kernel_chain_once_and_ignores_the_sampler():
    rng = np.random.default_rng(7)
    g = random_flow_graph(rng, 6)
    K = random_lazy_kernel(rng, g)
    calls = []
    P = ChainOperator(dimension=g.n, apply=lambda f: calls.append(1) or K @ f,
                      kernel=K)
    results = set()
    for seed in range(4):
        for n_samples in (0, 64):
            calls.clear()
            results.add(ric_r(P, shortest_path_metric(g), 1.0,
                              n_samples=n_samples, seed=seed))
            assert len(calls) == 1
    assert len(results) == 1


@pytest.mark.parametrize("kwargs", [
    {"r": np.nan}, {"r": np.inf}, {"r": -np.inf}, {"r": 0.0}, {"r": -1.0},
    {"r": "1"}, {"r": 1e308}, {"n_samples": -3}, {"n_samples": 2.0}, {"n_samples": True}])
def test_ric_rejects_bad_r_and_sample_counts(kwargs):
    g = cycle_graph(4)
    args = {"r": 1.0, "n_samples": 4} | kwargs
    for P in (linear_chain_operator(np.eye(4)),
              ChainOperator(dimension=4, apply=lambda f: f)):
        with pytest.raises(ValidationError):
            ric_r(P, shortest_path_metric(g), args["r"], n_samples=args["n_samples"])


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_nonlinear_ric_rejects_a_bad_seed(seed):
    P = ChainOperator(dimension=4, apply=lambda f: f)
    with pytest.raises(ValidationError, match="seed must be"):
        ric_r(P, shortest_path_metric(cycle_graph(4)), 1.0, seed=seed)


def test_ric_of_a_one_dimensional_chain_is_one():
    d = DistanceMatrix(np.zeros((1, 1)))
    for P in (linear_chain_operator(np.eye(1)),
              ChainOperator(dimension=1, apply=lambda f: 2.0 * f)):
        b = ric_r(P, d, 1.0)
        assert (b.lower, b.upper, b.sampled_amplification, b.exact) == (1.0, 1.0, 0.0, True)


def test_ric_requires_connected_distances():
    g = WeightedGraph.from_edges(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
    with pytest.raises(DisconnectedError):
        ric_r(linear_chain_operator(np.eye(4)), shortest_path_metric(g), 1.0)


# ---------------------------------------------------------------------------
# generic flow


def test_generic_flow_matches_linear_flow():
    g = cycle_graph(6)
    part = cycle_partition(g)
    d = shortest_path_metric(g)
    eps = 0.25
    P = linear_chain_operator(np.eye(g.n) + eps * laplacian_matrix(g))
    gen = separation_flow_generic(P, part, d, tol=1e-12)
    lin = separation_flow_linear(g, part, eps, tol=1e-12)
    assert gen.status == lin.status == CONVERGED
    assert gen.curvature_verified
    # Delta_generic = P - id = eps * Laplacian
    np.testing.assert_allclose(gen.laplacian_constant,
                               eps * lin.laplacian_constant, atol=1e-8)
    assert gen.sign_min_x >= -1e-9 and gen.sign_max_y <= 1e-9


def test_generic_flow_matches_p_flow_resolvent():
    g = cycle_graph(4)
    part = cycle_partition(g)
    d = shortest_path_metric(g)
    eps = 0.1

    P = ChainOperator(dimension=g.n,
                      apply=lambda f: resolvent(g, f, 2, eps).g,
                      name="J_eps")
    gen = separation_flow_generic(P, part, d, tol=1e-12, allow_unverified=True)
    assert gen.status == CONVERGED
    lin = separation_flow_linear(g, part, eps, tol=1e-12)
    # at a resolvent fixed point, (J - id) Sg = eps Delta J Sg ~ eps * C
    np.testing.assert_allclose(gen.laplacian_constant,
                               eps * lin.laplacian_constant, atol=1e-6)


def test_generic_flow_gate():
    g = cycle_graph(4)
    part = cycle_partition(g)
    d = shortest_path_metric(g)
    P = ChainOperator(dimension=g.n, apply=lambda f: resolvent(g, f, 2, 0.1).g,
                      name="J_eps")  # no kernel: Ric_1 unverifiable
    with pytest.raises(PreconditionError):
        separation_flow_generic(P, part, d)
    res = separation_flow_generic(P, part, d, allow_unverified=True, tol=1e-11)
    assert not res.curvature_verified
    # an abstract metric that shortcuts around K is rejected
    from curvflow import DistanceMatrix

    tri_d = DistanceMatrix(np.array([[0.0, 1.0, 1.0],
                                     [1.0, 0.0, 1.0],
                                     [1.0, 1.0, 0.0]]))
    gpath = path_graph([1.0, 1.0])
    ppart = PartitionXKY.build(gpath, [0], [1], [2])
    M = linear_chain_operator(np.eye(3))
    with pytest.raises(ValidationError):
        separation_flow_generic(M, ppart, tri_d)


def test_generic_gate_runs_no_sampler_for_a_chain_without_kernel(monkeypatch):
    import curvflow.separation as separation

    def no_ric(*args, **kwargs):
        raise AssertionError("ric_r called for a chain without a kernel")

    monkeypatch.setattr(separation, "ric_r", no_ric)
    g = cycle_graph(4)
    part = cycle_partition(g)
    d = shortest_path_metric(g)
    K = np.eye(g.n) + 0.2 * laplacian_matrix(g)
    P = ChainOperator(dimension=g.n, apply=lambda f: K @ f, name="K without kernel")
    with pytest.raises(PreconditionError, match="without a kernel"):
        separation_flow_generic(P, part, d)
    res = separation_flow_generic(P, part, d, allow_unverified=True, tol=1e-11)
    assert res.status == CONVERGED
    assert not res.curvature_verified and res.waived


@pytest.mark.parametrize("bad", [{"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0},
                                 {"eps": np.nan}, {"eps": np.inf}, {"eps": -0.1},
                                 {"tol": 1e-13}])  # below the p-flow's floor alone
def test_separation_flows_reject_bad_eps_and_tol_before_any_gate(monkeypatch, bad):
    # a NaN eps once ran the linear flow into a non-finite SolverError, and
    # a NaN tol failed the generic gate as if Ric_1 were negative
    import curvflow.separation as separation

    def no_gate(*args, **kwargs):
        raise AssertionError("a gate ran before eps and tol were checked")

    monkeypatch.setattr(separation, "_require_nonnegative", no_gate)
    monkeypatch.setattr(separation, "ric_r", no_gate)
    g = cycle_graph(4)
    part = cycle_partition(g)
    d = shortest_path_metric(g)
    kw = {"eps": 0.1, "tol": 1e-9} | bad
    floor = kw["tol"] == 1e-13
    if not floor:
        with pytest.raises(ValidationError):
            separation_flow_linear(g, part, kw["eps"], tol=kw["tol"])
    with pytest.raises(ValidationError, match="floor plaplace.GAP_TOL = 1e-12" if floor else None):
        separation_flow_p(g, part, 1.5, kw["eps"], tol=kw["tol"])
    if "tol" in bad and not floor:
        P = linear_chain_operator(np.eye(g.n) + 0.1 * laplacian_matrix(g))
        with pytest.raises(ValidationError):
            separation_flow_generic(P, part, d, tol=kw["tol"])


def test_generic_flow_pf_chain_gate_or_pattern():
    # a nonlinear chain's Ric_1 cannot be certified: the gate must report
    # it unverified; with the waiver the engine still runs and either
    # satisfies the separation pattern or simply reports its status
    from curvflow import perron_frobenius_operator

    g = cycle_graph(4)
    part = cycle_partition(g)
    d = shortest_path_metric(g)
    rng = np.random.default_rng(11)
    P = perron_frobenius_operator([rng.uniform(0.5, 1.5, (4, 4))])
    with pytest.raises(PreconditionError):
        separation_flow_generic(P, part, d, tol=1e-10)
    res = separation_flow_generic(P, part, d, tol=1e-10, allow_unverified=True)
    assert not res.curvature_verified and res.waived
    if res.status == CONVERGED:
        assert res.spread_on_k < 1e-7
        assert res.sign_min_x >= -1e-8 and res.sign_max_y <= 1e-8


def test_extension_preserves_lipschitz_bound_pairwise():
    # random Lip(1, K) data on a disconnected-free instance: the extension
    # never amplifies any pairwise ratio beyond 1
    rng = np.random.default_rng(12)
    for n in (5, 6, 8):
        g = cycle_graph(n)
        part = cycle_partition(g)
        d = shortest_path_metric(g)
        ks = np.array(part.k_set)
        raw = rng.normal(size=len(ks)) * 2.0
        f = np.min(raw[None, :] + d.values[np.ix_(ks, ks)], axis=1)
        ext = lipschitz_extend(part, d, f)
        np.testing.assert_allclose(ext[ks], f)
        assert lipschitz_constant(ext, d, "all-pairs") <= 1.0 + 1e-9


def test_ric_of_lazy_walk_equals_min_lazy_curvature():
    # the rows of id + eps*Laplacian are exactly the eps-lazy walk
    # measures, so its exact Ric_1 is the smallest eps-lazy curvature
    from curvflow import kappa_alpha

    rng = np.random.default_rng(18)
    count = 0
    while count < 6:
        g = random_flow_graph(rng, int(rng.integers(3, 7)))
        d = shortest_path_metric(g)
        if np.any(np.isinf(d.values)):
            continue
        eps = 0.3 / float(np.max(g.degrees()))
        P = linear_chain_operator(np.eye(g.n) + eps * laplacian_matrix(g))
        bounds = ric_r(P, d, 1.0, n_samples=24, seed=count)
        expected = min(kappa_alpha(g, d, u, v, eps) for u, v in g.edges())
        assert bounds.lower == pytest.approx(expected, abs=1e-9)
        count += 1
