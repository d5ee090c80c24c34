import itertools

import numpy as np
import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    random_graph_const_measure,
)
from oracles import (
    conjugate_dual_separate,
    finite_difference_gradient,
    minimize_prox_separate,
    regularized_homotopy_resolvent,
    tv_resolvent_dual,
)

from curvflow import (
    PhiSpec,
    SolverError,
    ValidationError,
    WeightedGraph,
    energy,
    laplacian_apply,
    lipschitz_decay_bound,
    p_laplacian,
    resolvent,
)
from curvflow.plaplace import (
    _conjugate_dual,
    _minimize_prox,
    _Resolvent,
    phi_laplacian,
    resolvent_phi,
)


def two_vertex():
    return WeightedGraph.from_edges(2, [(0, 1, 1.0, 1.0)])


def test_energy_examples():
    g = two_vertex()
    assert energy(g, np.array([4.0, 4.0]), 2) == 0.0
    assert energy(g, np.array([0.0, 1.0]), 2) == pytest.approx(1.0)


def test_energy_homogeneity_and_translation():
    rng = np.random.default_rng(0)
    g = random_graph_const_measure(rng, 6)
    f = rng.normal(size=6)
    lam, a = 1.7, -4.2
    assert energy(g, lam * f, 2) == pytest.approx(lam ** 2 * energy(g, f, 2))
    for p in (1, 1.5, 2, 3):
        assert energy(g, f + a, p) == pytest.approx(energy(g, f, p))
        assert energy(g, f, p) >= 0.0


def test_energy_zero_iff_constant_per_component():
    g = WeightedGraph.from_edges(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
    f = np.array([2.0, 2.0, -1.0, -1.0])
    assert energy(g, f, 2) == 0.0
    assert energy(g, np.array([0.0, 1.0, 0.0, 0.0]), 2) > 0.0


def test_p2_laplacian_matches_linear():
    rng = np.random.default_rng(1)
    g = random_graph_const_measure(rng, 7)
    f = rng.normal(size=7)
    np.testing.assert_allclose(p_laplacian(g, f, 2), laplacian_apply(g, f),
                               atol=1e-12)


def test_p3_two_vertex_and_finite_difference():
    g = two_vertex()
    f = np.array([0.0, 1.0])
    np.testing.assert_allclose(p_laplacian(g, f, 3), [1.0, -1.0], atol=1e-12)
    # -grad E_p / p equals Delta_p on constant measure
    for p in (1.5, 2.0, 3.0):
        grad = finite_difference_gradient(lambda x: energy(g, x, p) / p, f)
        np.testing.assert_allclose(-grad, p_laplacian(g, f, p),
                                   rtol=1e-4, atol=1e-6)


def test_p_laplacian_constant_is_zero_and_p1_membership():
    g = two_vertex()
    const = np.array([2.5, 2.5])
    for p in (1.5, 2, 3):
        np.testing.assert_allclose(p_laplacian(g, const, p), 0.0, atol=1e-12)
    member = p_laplacian(g, const, 1)
    ok, msg = member.verify(np.zeros(2), np.zeros((2, 2)))
    assert ok, msg
    with pytest.raises(ValidationError):
        p_laplacian(g, const, 0.5)


def test_resolvent_constant_input():
    g = two_vertex()
    for p in (1, 1.5, 2, 3):
        sol = resolvent(g, np.array([3.0, 3.0]), p, 0.1)
        np.testing.assert_allclose(sol.g, 3.0, atol=1e-9)
        assert sol.residual < 1e-9


def test_resolvent_two_vertex_linear_example():
    g = two_vertex()
    sol = resolvent(g, np.array([0.0, 1.0]), 2, 1.0)
    np.testing.assert_allclose(sol.g, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_resolvent_p2_variational_matches_direct_solve():
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = random_graph_const_measure(rng, 6)
        f = rng.normal(size=6)
        lin = resolvent(g, f, 2, 0.1)
        var = _minimize_prox(g, 0.1, PhiSpec.power(2))(f)[0]
        assert lin.method == "linear"
        np.testing.assert_allclose(var, lin.g, atol=1e-8)


def test_resolvent_p2_general_measure_direct_solve():
    rng = np.random.default_rng(3)
    g = WeightedGraph.from_edges(
        3, [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0)], measure=[1.0, 3.0, 2.0])
    f = rng.normal(size=3)
    sol = resolvent(g, f, 2, 0.2)
    assert sol.method == "linear"
    assert sol.residual < 1e-12
    with pytest.raises(ValidationError):
        resolvent(g, f, 3, 0.2)  # non-constant measure


@pytest.mark.parametrize("eps", [1e4, 1e12, 1e16, 1e300])
def test_resolvent_p2_at_huge_eps_is_the_component_mean(eps):
    # I - eps L was singular to working precision: LinAlgError at 1e16,
    # means off by 1.5e-5 at 1e12
    g = WeightedGraph.from_edges(
        5, [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (3, 4, 1.0, 1.0)],
        measure=[1.0, 3.0, 2.0, 1.0, 2.0])
    f = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    sol = resolvent(g, f, 2, eps)
    means = [7.0 / 6.0] * 3 + [11.0 / 3.0] * 2
    np.testing.assert_allclose(sol.g, means, rtol=0, atol=1e-12 + 10 / eps)


def test_resolvent_contracts_and_commutes_with_constants():
    rng = np.random.default_rng(4)
    for p in (1, 1.5, 2, 3):
        g = random_graph_const_measure(rng, 5)
        f = rng.normal(size=5)
        fp = f + rng.uniform(0.0, 1.0, 5)
        a, b = resolvent(g, f, p, 0.1), resolvent(g, fp, p, 0.1)
        assert np.all(b.g >= a.g - 1e-10)  # monotonicity
        assert np.max(np.abs(b.g - a.g)) <= np.max(np.abs(fp - f)) + 1e-10
        c = 2.75
        shifted = resolvent(g, f + c, p, 0.1)
        np.testing.assert_allclose(shifted.g, a.g + c, atol=1e-8)


def test_resolvent_strict_monotonicity_lemma():
    rng = np.random.default_rng(5)
    for p in (1, 1.5, 2, 3):
        g = random_graph_const_measure(rng, 5)
        f = rng.normal(size=5)
        x = int(rng.integers(5))
        delta = 0.4
        bump = np.zeros(5)
        bump[x] = delta * g.n
        a = resolvent(g, f, p, 0.1)
        b = resolvent(g, f + bump, p, 0.1)
        assert b.g[x] >= a.g[x] + delta - 1e-8


def _check_exact_p1(g, f, eps, sol):
    assert sol.method == "tv-dual-active-set"
    assert sol.residual <= 1e-12
    ok, msg = p_laplacian(g, sol.g, 1).verify((sol.g - f) / eps,
                                              sol.subgradient_selection, tol=1e-12)
    assert ok, msg
    np.testing.assert_allclose(sol.g, tv_resolvent_dual(g, f, eps), rtol=0, atol=1e-12)


def test_resolvent_p1_selection_is_valid():
    rng = np.random.default_rng(6)
    for _ in range(3):
        g = random_graph_const_measure(rng, 5)
        f = rng.normal(size=5) * 2.0
        sol = resolvent(g, f, 1, 0.1)
        assert sol.residual <= 1e-12
        member = p_laplacian(g, sol.g, 1)
        ok, msg = member.verify((sol.g - f) / 0.1, sol.subgradient_selection,
                                tol=1e-12)
        assert ok, msg
        # a bound edge carries exactly its slope's sign
        s = sol.subgradient_selection
        at_bound = (np.abs(s) == 1.0) & (g.weights > 0)
        grad = sol.g[None, :] - sol.g[:, None]
        assert np.all(np.sign(grad[at_bound]) * s[at_bound] >= 0)


def test_resolvent_p1_matches_the_dual_oracle():
    rng = np.random.default_rng(24)
    for k in range(30):
        n = int(rng.integers(3, 26))
        g = random_graph_const_measure(rng, n, extra=int(rng.integers(0, 2 * n)))
        f = rng.uniform(-2.0, 2.0, n)
        eps = (0.1, 0.02, 0.7)[k % 3]
        sol = resolvent(g, f, 1, eps)
        _check_exact_p1(g, f, eps, sol)


def _two_components():
    return WeightedGraph.from_edges(
        5, [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (3, 4, 0.5, 1.0)], measure=[1.5] * 5)


@pytest.mark.parametrize("case", ["edgeless", "constant", "tied-neighbours", "K5",
                                  "C4", "C5", "C6", "two-components"])
def test_resolvent_p1_degenerate_inputs(case):
    rng = np.random.default_rng(25)
    f = None
    if case == "edgeless":
        g = WeightedGraph.from_edges(3, [], measure=[2.0] * 3)
    elif case == "constant":
        g = random_graph_const_measure(rng, 8)
        f = np.full(8, -0.75)
    elif case == "tied-neighbours":
        g = random_graph_const_measure(rng, 9, extra=9)
        f = rng.integers(-1, 2, 9).astype(float)
    elif case == "K5":
        g = complete_graph(5, measure=2.0)
    elif case.startswith("C"):
        g = cycle_graph(int(case[1:]))
        f = np.array([0.0, 1.0] * (g.n // 2) + [0.5] * (g.n % 2))
    else:
        g = _two_components()
    if f is None:
        f = rng.uniform(-2.0, 2.0, g.n)
    for eps in (0.05, 0.5, 5.0):
        sol = resolvent(g, f, 1, eps)
        _check_exact_p1(g, f, eps, sol)
    if case == "edgeless" or case == "constant":
        np.testing.assert_allclose(resolvent(g, f, 1, 0.3).g, f, rtol=0, atol=1e-15)
    if case == "two-components":
        # each component keeps its own mean
        sol = resolvent(g, f, 1, 5.0)
        for comp in ([0, 1, 2], [3, 4]):
            assert np.sum(sol.g[comp]) == pytest.approx(np.sum(f[comp]), abs=1e-12)


def test_resolvent_p1_active_set_that_does_not_settle_raises(monkeypatch):
    # least-squares values that always leave the box never let the
    # active set settle: the solve fails loudly instead of returning
    g = cycle_graph(5)
    f = np.array([0.0, 2.0, -1.0, 1.5, 0.5])
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda A, b, rcond=None: (np.full(A.shape[1], 2.0),))
    with pytest.raises(SolverError, match="did not settle"):
        resolvent(g, f, 1, 5.0)


BAD_INPUTS = [({"eps": np.nan}, "eps"), ({"eps": np.inf}, "eps"), ({"eps": 0.0}, "eps"),
              ({"eps": -1.0}, "eps"), ({"p": np.nan}, "p must"), ({"p": np.inf}, "p must"),
              ({"p": 0.5}, "p must"), ({"f": [0.0, np.nan, 1.0]}, "f must"),
              ({"f": [0.0, np.inf, 1.0]}, "f must"), ({"f": [0.0, 1.0]}, "f must")]


def _duality_gap(g, f, p, eps, x, s):
    """(P(x), P(x) + D(s)) for the prox of E_p/p and its conjugate dual;
    the gap is nonnegative and bounds ||x - J_eps f||^2 / (2 eps)."""
    q = p / (p - 1)
    edges = [(u, v) for u, v in itertools.combinations(range(g.n), 2) if g.weights[u, v] > 0]
    c = np.array([g.weights[u, v] / g.measure[u] for u, v in edges])
    t = np.array([x[v] - x[u] for u, v in edges])
    df = np.array([f[v] - f[u] for u, v in edges])
    dts = np.zeros(g.n)
    for (u, v), se in zip(edges, s):
        dts[u] -= se
        dts[v] += se
    primal = float(c @ np.abs(t) ** p / p + np.sum((x - f) ** 2) / (2 * eps))
    dual = float(c @ np.abs(s / c) ** q / q - s @ df + eps * np.sum(dts ** 2) / 2)
    return primal, primal + dual


@pytest.mark.parametrize("p", [1.05, 1.1, 1.2, 1.3, 1.5])
def test_subquadratic_resolvent_sweep_is_certified_by_its_duality_gap(p):
    # the regularized-kernel homotopy this solver replaced failed on 35,
    # 20, 2, 1 and 0 of these 60 inputs at the five p
    eps = 0.1
    for k in range(60):
        rng = np.random.default_rng([77, k])
        n = 10 + k % 31
        g = random_graph_const_measure(rng, n)
        f = rng.uniform(-2.0, 2.0, n)
        sol = resolvent(g, f, p, eps)
        assert sol.method == "conjugate-dual-newton" and sol.subgradient_selection is None
        x, _, s = _conjugate_dual(g, p, eps)(f)
        np.testing.assert_array_equal(x, sol.g)
        primal, gap = _duality_gap(g, f, p, eps, x, s)
        assert abs(gap) <= 1e-12 * max(1.0, primal), (k, gap)
        ref = regularized_homotopy_resolvent(g, f, p, eps)
        if ref is not None:
            assert np.max(np.abs(ref - sol.g)) <= 1e-11, k


def test_subquadratic_resolvent_warm_and_cold_agree():
    rng = np.random.default_rng(31)
    for p in (1.05, 1.5, 1.95):
        g = random_graph_const_measure(rng, 12)
        f = rng.uniform(-2.0, 2.0, 12)
        cold = resolvent(g, f, p, 0.1)
        for x0 in (cold.g, f + rng.normal(size=12), np.zeros(12)):
            warm = resolvent(g, f, p, 0.1, x0=x0)
            assert warm.method == cold.method
            assert np.max(np.abs(warm.g - cold.g)) <= 1e-11


@pytest.mark.parametrize("p", [np.nextafter(1.0, 2.0), 1 + 1e-12, 1 + 1e-8, 1 + 1e-6])
def test_subquadratic_resolvent_near_p_one_approaches_the_tv_prox(p):
    # J_p f - J_1 f is about 0.9 (p - 1) max(1, max|f|) on these inputs;
    # a stop test that loosened with q = p/(p - 1) once returned a plain
    # explicit step here, up to 55 max(1, max|f|) away from J_1 f
    for k in range(60):
        rng = np.random.default_rng([8, k])
        n = int(rng.integers(2, 20))
        g = random_graph_const_measure(rng, n)
        eps = 10 ** rng.uniform(-12, 2)
        f = rng.uniform(-1, 1, n) * 10 ** rng.uniform(0, 3)
        scale = max(1.0, float(np.max(np.abs(f))))
        sol = resolvent(g, f, p, eps)
        tv = resolvent(g, f, 1, eps)
        assert np.max(np.abs(sol.g - tv.g)) <= (2 * (p - 1) + 1e-12) * scale, k


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("bad,message", BAD_INPUTS)
def test_resolvent_rejects_non_finite_or_out_of_range_input(p, bad, message):
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)],
                                 measure=[2.0] * 3)
    args = {"f": [0.0, 1.0, 2.0], "p": p, "eps": 0.1, **bad}
    with pytest.raises(ValidationError, match=message):
        resolvent(g, np.array(args["f"]), args["p"], args["eps"])
    if "p" not in bad:
        for phi in (PhiSpec.power(p),
                    PhiSpec.custom(lambda t: np.sign(t) * np.abs(t) ** 2, "convex")):
            with pytest.raises(ValidationError, match=message):
                resolvent_phi(g, np.array(args["f"]), phi, args["eps"])


def test_resolvent_checks_f_then_p_then_measure():
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)],
                                 measure=[1.0, 2.0, 2.0])
    good, bad = np.array([0.0, 1.0, 2.0]), np.array([0.0, np.nan, 2.0])
    for f, p, message in [
            (bad, 0.5, "f must be 3 finite values"),
            (good, 0.5, "p must be finite and at least 1, got 0.5"),
            (good, 1.5, "the p = 1.5 resolvent needs a constant vertex measure")]:
        with pytest.raises(ValidationError, match=message):
            resolvent(g, f, p, 0.1)


@pytest.mark.parametrize("p", [1.0, 1.0 + 1e-7, 1.5, 2.0, 2.5, 3.0])
def test_stage_solver_reproduces_resolvent_bit_for_bit(p):
    # the separation flow's chain steps reuse one solver per eps stage;
    # call after call, cold and warm, its g must be a fresh resolvent's
    # (at eps = 1e4, p = 2 takes the kernel lift)
    for k in range(40):
        rng = np.random.default_rng([17, k])
        n = 2 + k % 12
        g = random_graph_const_measure(rng, n)
        for eps in (0.1, 1e4):
            solver = _Resolvent(g, p, eps)
            for _ in range(3):
                f = rng.uniform(-2.0, 2.0, n)
                for x0 in (None, f + rng.normal(scale=0.1, size=n)):
                    sol = resolvent(g, f, p, eps, x0=x0)
                    assert solver.solve(f, x0)[0].tobytes() == sol.g.tobytes(), (k, eps)
                    assert solver.method == sol.method


def _outcome(solve, f, x0):
    """(g, steps, s) as bytes, or the SolverError's message."""
    try:
        g, steps, s = solve(f, x0)
    except SolverError as exc:
        return str(exc)
    return g.tobytes(), steps, None if s is None else s.tobytes()


@pytest.mark.parametrize("p,log_eps", [(p, (-12, 2)) for p in (1 + 1e-7, 1.2, 1.5, 1.9, 2.5, 3.0, 4.0)]
                         + [(1.05, (0, 6)), (3.0, (6, 20))])  # these two damp some steps
def test_newton_with_one_evaluation_per_point_matches_separate_evaluations(p, log_eps):
    # the Newton resolvents evaluate each point once; the oracle evaluates
    # objective, gradient, Hessian and certificate separately through PhiSpec
    # (the solver this one replaced): g, steps and s must agree to the bit
    for k in range(60):
        rng = np.random.default_rng([8, k])
        n = int(rng.integers(2, 20))
        g = random_graph_const_measure(rng, n)
        eps = 10 ** rng.uniform(*log_eps)
        f = rng.uniform(-1, 1, n) * 10 ** rng.uniform(0, 3)
        if p < 2:
            lean, separate = _conjugate_dual(g, p, eps), conjugate_dual_separate(g, p, eps)
        else:
            phi = PhiSpec.power(p)
            lean, separate = _minimize_prox(g, eps, phi), minimize_prox_separate(g, eps, phi)
        cold = _outcome(separate, f, None)
        assert _outcome(lean, f, None) == cold, k
        if not isinstance(cold, str):
            x0 = np.frombuffer(cold[0]) + rng.normal(scale=1e-3, size=n)
            assert _outcome(lean, f, x0) == _outcome(separate, f, x0), k


def test_newton_failure_matches_separate_evaluations():
    # at eps = 1e12 the p = 1.5 dual cannot meet its gradient test
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0),
                                     (0, 3, 1.0, 1.0)], measure=[2.0] * 4)
    f = np.array([0.0, 1.0, 2.0, 0.5])
    failure = _outcome(conjugate_dual_separate(g, 1.5, 1e12), f, None)
    assert isinstance(failure, str)
    assert _outcome(_conjugate_dual(g, 1.5, 1e12), f, None) == failure


def test_custom_phi_resolvent_matches_separate_evaluations():
    phi = PhiSpec.custom(lambda t: np.sign(t) * np.abs(t) ** 2 + t, "convex")
    for k in range(20):
        rng = np.random.default_rng([9, k])
        n = int(rng.integers(2, 12))
        g = random_graph_const_measure(rng, n)
        f = rng.uniform(-2.0, 2.0, n)
        sol = resolvent_phi(g, f, phi, 0.1)
        ref, steps, _ = minimize_prox_separate(g, 0.1, phi)(f)
        assert sol.g.tobytes() == ref.tobytes() and sol.iterations == steps, k


def test_variational_gradient_vanishes_against_finite_differences():
    rng = np.random.default_rng(7)
    g = random_graph_const_measure(rng, 5)
    f = rng.normal(size=5)
    eps = 0.1
    for p in (1.5, 2.0, 3.0):
        # at p = 2 the variational solve, which resolvent leaves to the linear one
        sol = (_minimize_prox(g, eps, PhiSpec.power(2))(f)[0] if p == 2
               else resolvent(g, f, p, eps).g)

        def objective(x):
            return energy(g, x, p) / p + float(np.sum((x - f) ** 2)) / (2 * eps)

        grad = finite_difference_gradient(objective, sol)
        assert np.max(np.abs(grad)) < 1e-4 * max(1.0, abs(objective(sol)))


# ---------------------------------------------------------------------------
# PhiSpec


def test_phispec_power_shapes():
    assert PhiSpec.power(3).shape == "convex"
    assert PhiSpec.power(2).shape == "convex"
    assert PhiSpec.power(1.5).shape == "concave"
    phi = PhiSpec.power(3)
    assert phi(2.0) == pytest.approx(4.0)
    assert phi(-2.0) == pytest.approx(-4.0)
    with pytest.raises(ValidationError):
        PhiSpec.power(0.5)


def test_phispec_custom_validation():
    PhiSpec.custom(lambda t: np.sign(t) * np.abs(t) ** 2, "convex")
    with pytest.raises(ValidationError):  # not odd
        PhiSpec.custom(lambda t: t + 1.0, "convex")
    with pytest.raises(ValidationError):  # decreasing
        PhiSpec.custom(lambda t: -t, "convex")
    with pytest.raises(ValidationError):  # wrong declared shape
        PhiSpec.custom(lambda t: np.sign(t) * np.abs(t) ** 2, "concave")


def test_phispec_primitive_matches_power():
    phi = PhiSpec.custom(lambda t: np.sign(t) * np.abs(t) ** 2, "convex")
    ref = PhiSpec.power(3)
    ts = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(phi.primitive(ts), ref.primitive(ts), atol=1e-10)


def test_custom_phi_resolvent_matches_power():
    rng = np.random.default_rng(8)
    g = random_graph_const_measure(rng, 4)
    f = rng.normal(size=4)
    custom = PhiSpec.custom(lambda t: np.sign(t) * np.abs(t) ** 2, "convex")
    a = resolvent_phi(g, f, custom, 0.1)
    b = resolvent(g, f, 3, 0.1)
    np.testing.assert_allclose(a.g, b.g, atol=1e-7)
    np.testing.assert_allclose(phi_laplacian(g, f, custom),
                               p_laplacian(g, f, 3), atol=1e-10)


# ---------------------------------------------------------------------------
# Lipschitz decay


def test_decay_constant_function():
    g = two_vertex()
    bound = lipschitz_decay_bound(g, np.array([5.0, 5.0]), PhiSpec.power(2), 0.1)
    assert bound.holds and bound.lhs == pytest.approx(0.0, abs=1e-9)
    assert bound.rhs == 0.0


def test_decay_two_vertex_identity_phi():
    g = two_vertex()
    bound = lipschitz_decay_bound(g, np.array([0.0, 1.0]), PhiSpec.power(2),
                                  0.1, K=0.0)
    assert bound.kappa_min == pytest.approx(0.0, abs=1e-12)
    assert bound.holds
    assert bound.lhs <= bound.lip_before + 1e-12


def test_decay_rejects_overclaimed_bound():
    g = two_vertex()
    with pytest.raises(ValidationError):
        lipschitz_decay_bound(g, np.array([0.0, 1.0]), PhiSpec.power(2), 0.1, K=0.5)


def test_decay_sweep_on_nonnegative_instances():
    rng = np.random.default_rng(9)
    graphs = [cycle_graph(4), cycle_graph(5), cycle_graph(6),
              complete_graph(3, measure=2.0), complete_graph(4, measure=3.0)]
    for g in graphs:
        for p in (1.5, 2.0, 3.0):
            f = rng.uniform(-2.0, 2.0, g.n)
            bound = lipschitz_decay_bound(g, f, PhiSpec.power(p), 0.1)
            assert bound.kappa_min >= -1e-12
            assert bound.holds, (p, bound)


def test_resolvent_continuous_in_p_near_two():
    rng = np.random.default_rng(23)
    g = random_graph_const_measure(rng, 5)
    f = rng.normal(size=5)
    base = resolvent(g, f, 2.0, 0.1).g
    lo = resolvent(g, f, 2.0 - 1e-4, 0.1).g
    hi = resolvent(g, f, 2.0 + 1e-4, 0.1).g
    assert np.max(np.abs(lo - base)) < 1e-3
    assert np.max(np.abs(hi - base)) < 1e-3
