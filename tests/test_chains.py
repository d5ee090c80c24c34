from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import increments_cycle, increments_cycle_window, power_iteration

from curvflow import (
    ChainOperator,
    SolverError,
    ValidationError,
    counterexample_operator,
    extend_operator,
    iterate_normalized,
    lambda_diagnostics,
    linear_chain_operator,
    perron_frobenius_operator,
    verify_properties,
)
from curvflow.chains import (
    CONVERGED,
    DIVERGED,
    DIVERGENCE_BOUND,
    MAX_ITERATIONS,
    OSCILLATING,
    OSCILLATION_WINDOW,
    _period2,
)


def lazy_swap():
    return linear_chain_operator(np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_engine_lazy_two_state_chain():
    res = iterate_normalized(lazy_swap(), np.array([0.0, 1.0]), 0, 1e-12)
    assert res.status == CONVERGED
    np.testing.assert_allclose(res.limit, [0.0, 0.0], atol=1e-11)
    assert res.growth_constant == pytest.approx(0.0, abs=1e-11)


def test_engine_identity_immediate():
    ident = linear_chain_operator(np.eye(3))
    f0 = np.array([3.0, -1.0, 2.0])
    res = iterate_normalized(ident, f0, 1, 1e-9)
    assert res.status == CONVERGED and res.iterations == 1
    np.testing.assert_allclose(res.limit, f0 - f0[1])
    assert res.growth_constant == 0.0


def test_engine_reports_linear_growth_constant():
    shift = ChainOperator(dimension=2, apply=lambda f: f + 1.5)
    res = iterate_normalized(shift, np.array([0.0, 0.3]), 0, 1e-9)
    assert res.status == CONVERGED
    assert res.growth_constant == pytest.approx(1.5)


def test_engine_divergence_guard():
    # the spread reads 1e3, 1e6, 1e9, 1e12 and leaves DIVERGENCE_BOUND at 1e15
    blow = ChainOperator(dimension=2, apply=lambda f: np.array([1e3 * f[0], f[1]]))
    res = iterate_normalized(blow, np.array([1.0, 0.0]), 1, 1e-9)
    assert 1e3 ** 4 <= DIVERGENCE_BOUND < 1e3 ** 5
    assert res.status == DIVERGED and res.iterations == 5


def test_engine_rejects_nonfinite():
    bad = ChainOperator(dimension=2, apply=lambda f: np.full(2, np.nan))
    with pytest.raises(SolverError):
        iterate_normalized(bad, np.zeros(2), 0, 1e-9)


@pytest.mark.parametrize("tolerance", [np.nan, np.inf, -np.inf, 0.0, -1e-9])
def test_engine_rejects_a_tolerance_that_is_not_finite_and_positive(tolerance):
    # a NaN tolerance once ran the chain to max_iter, an infinite one
    # "converged" after one step
    calls = []
    P = ChainOperator(dimension=2, apply=lambda f: calls.append(1) or f)
    with pytest.raises(ValidationError, match="tolerance"):
        iterate_normalized(P, np.zeros(2), 0, tolerance)
    assert calls == []


def test_engine_max_iterations():
    slow = linear_chain_operator(np.array([[0.999, 0.001], [0.001, 0.999]]))
    res = iterate_normalized(slow, np.array([0.0, 1.0]), 0, 1e-14, max_iter=5)
    assert res.status == MAX_ITERATIONS


def test_engine_stationarity_of_limit():
    rng = np.random.default_rng(3)
    for _ in range(5):
        M = rng.uniform(0.1, 1.0, (4, 4))
        M = M / M.sum(axis=1, keepdims=True)
        P = linear_chain_operator(M)
        tol = 1e-11
        res = iterate_normalized(P, rng.normal(size=4), 2, tol)
        assert res.status == CONVERGED
        g = res.limit
        lam = res.growth_constant
        resid = np.max(np.abs(P(g) - g - lam))
        assert resid < 10 * tol * 1e3  # stationarity modulo constants


def test_lambda_diagnostics_basics():
    ident = linear_chain_operator(np.eye(3))
    d = lambda_diagnostics(ident, np.array([1.0, 2.0, 3.0]))
    assert d.lambda_plus == d.lambda_minus == 0.0
    assert d.argmax == (0, 1, 2)
    shift = ChainOperator(dimension=3, apply=lambda f: f + 2.0)
    f = np.array([0.0, 1.0, -1.0])
    d1 = lambda_diagnostics(shift, f)
    d2 = lambda_diagnostics(shift, f + 17.0)
    assert d1.lambda_plus == d2.lambda_plus == 2.0
    assert d1.lambda_minus == d2.lambda_minus == 2.0


def test_lambda_monotone_along_monotone_additive_chains():
    rng = np.random.default_rng(4)
    M = rng.uniform(0.05, 1.0, (5, 5))
    M = M / M.sum(axis=1, keepdims=True)
    P = linear_chain_operator(M)
    res = iterate_normalized(P, rng.normal(size=5), 0, 1e-12)
    lams_plus = [row.lambda_plus for row in res.trace]
    lams_minus = [row.lambda_minus for row in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(lams_plus, lams_plus[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(lams_minus, lams_minus[1:]))


def test_nonexpansive_chains_contract_orbits():
    rng = np.random.default_rng(5)
    M = rng.uniform(0.05, 1.0, (4, 4))
    M = M / M.sum(axis=1, keepdims=True)
    P = linear_chain_operator(M)
    f, g = rng.normal(size=4), rng.normal(size=4)
    gaps = []
    for _ in range(20):
        gaps.append(float(np.max(np.abs(f - g))))
        f, g = P(f), P(g)
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# counterexample chain


def test_counterexample_on_family_steps():
    eps0 = 0.01
    P = counterexample_operator(eps0)
    f = np.array([0.0, 0.0, -eps0, eps0])
    pf = P(f)
    np.testing.assert_array_equal(pf, [1.0, -1.0, eps0, -eps0])
    p2f = P(pf)
    assert p2f[0] - pf[0] == 1.0
    np.testing.assert_array_equal(p2f, [2.0, -2.0, -eps0, eps0])


def test_counterexample_alternation_is_exact():
    eps0 = 0.01
    P = counterexample_operator(eps0)
    f = np.array([0.0, 0.0, -eps0, eps0])
    for n in range(1, 101):
        f = P(f)
        assert f[2] - f[3] == (-1.0) ** (n + 1) * (2 * eps0)


def test_counterexample_never_converges_detector_fires_fast():
    P = counterexample_operator(0.01)
    f0 = np.array([0.0, 0.0, -0.01, 0.01])
    for tol in (1e-3, 1e-6, 1e-9):
        res = iterate_normalized(P, f0, 0, tol, max_iter=500)
        assert res.status == OSCILLATING
        assert res.iterations <= 4


def test_counterexample_extension_satisfies_conditions():
    P = counterexample_operator(0.01)
    rep = verify_properties(P, n_samples=40, magnitude=2.0, seed=9)
    assert rep.passed(1) and rep.passed(3) and rep.passed(4)
    assert rep.conditions[3].estimate["epsilon_0"] >= 0.5 - 1e-9


# ---------------------------------------------------------------------------
# verify_properties


def test_verify_linear_lazy_chain_passes():
    rng = np.random.default_rng(6)
    M = rng.uniform(0.1, 1.0, (4, 4))
    M = M / M.sum(axis=1, keepdims=True)
    rep = verify_properties(linear_chain_operator(M), n_samples=40, seed=1)
    for cond in (1, 2, 4, 5):
        assert rep.passed(cond), rep.conditions[cond]
    assert rep.passed(6) and rep.conditions[6].estimate["n_0"] >= 1
    assert rep.passed(7) and rep.conditions[7].estimate["epsilon_0"] > 0


def test_verify_shift_passes_core_conditions():
    shift = ChainOperator(dimension=3, apply=lambda f: f + 1.0)
    rep = verify_properties(shift, n_samples=30, seed=2)
    assert rep.passed(1) and rep.passed(4) and rep.passed(5)
    # Pf - Pg = f - g: strictness degenerates to the identity margin
    assert rep.passed(2)


def test_verify_scaling_fails_non_expansion():
    double = ChainOperator(dimension=3, apply=lambda f: 2.0 * f)
    rep = verify_properties(double, n_samples=30, seed=3)
    assert not rep.passed(5)
    ce = rep.conditions[5].first_counterexample
    assert ce is not None and ce["expansion"] > 0


@pytest.mark.parametrize("magnitude", [1.0, 1e4, 1e8, 1e12, 8e306])
def test_verify_slack_scales_with_the_operands(magnitude):
    # the lazy walk on the unit triangle is linear, so its only condition 4
    # deviation is the rounding of f + c, which grows with |c| <= 10 x
    # magnitude; a relative 1e-6 excess still fails at every magnitude
    from conftest import complete_graph
    from curvflow.graphs import laplacian_matrix

    lazy = linear_chain_operator(np.eye(3) + 0.2 * laplacian_matrix(complete_graph(3, measure=2.0)))
    for seed in range(5):
        rep = verify_properties(lazy, n_samples=50, magnitude=magnitude, seed=seed)
        for cond in range(1, 8):
            assert rep.passed(cond), (seed, rep.conditions[cond])
    for a in (2.0, 1.000001):
        scale = ChainOperator(dimension=3, apply=lambda f, a=a: a * f)
        rep = verify_properties(scale, n_samples=50, magnitude=magnitude, seed=0)
        assert not any(rep.passed(cond) for cond in (4, 5, 6, 7)), a


# ---------------------------------------------------------------------------
# extension


def test_extension_agrees_on_family_and_shifts():
    base = linear_chain_operator(np.array([[0.7, 0.3], [0.2, 0.8]]))
    family = [np.array([0.0, 1.0]), np.array([2.0, -1.0])]
    ext = extend_operator(base, 0.2, family)
    for h in family:
        np.testing.assert_allclose(ext(h), base(h), atol=1e-12)
        np.testing.assert_allclose(ext(h + 3.5), base(h) + 3.5, atol=1e-12)


def test_extension_uniform_strict_monotonicity():
    rng = np.random.default_rng(7)
    base = linear_chain_operator(np.array([[0.6, 0.4], [0.5, 0.5]]))
    family = [rng.normal(size=2) for _ in range(4)]
    eps = 0.3
    ext = extend_operator(base, eps, family)
    for _ in range(50):
        g = rng.normal(size=2)
        h = rng.uniform(0.0, 1.0, 2)
        f = g + h
        assert np.all(ext(f) >= ext(g) + eps * h - 1e-10)
    # the extension claims its eps; a claim must be None or finite and positive
    assert ext.epsilon_0 == eps
    for bad in ("0.3", np.nan, 0.0):
        with pytest.raises(ValidationError, match="epsilon_0"):
            ChainOperator(dimension=2, apply=base, epsilon_0=bad)


def test_extension_rejects_bad_arguments():
    base = linear_chain_operator(np.eye(2))
    with pytest.raises(ValidationError):
        extend_operator(base, 0.5, [])
    with pytest.raises(ValidationError):
        extend_operator(base, 1.5, [np.zeros(2)])


# ---------------------------------------------------------------------------
# Perron-Frobenius


def test_pf_single_flat_matrix():
    P = perron_frobenius_operator([np.array([[1.0, 1.0], [1.0, 1.0]])])
    res = iterate_normalized(P, np.array([0.0, np.log(3.0)]), 0, 1e-12)
    assert res.status == CONVERGED
    np.testing.assert_allclose(res.limit, [0.0, 0.0], atol=1e-9)
    assert np.exp(2 * res.growth_constant) == pytest.approx(2.0, abs=1e-9)


def test_pf_permutation_fixed_point():
    P = perron_frobenius_operator([np.array([[0.0, 1.0], [1.0, 0.0]])])
    res = iterate_normalized(P, np.zeros(2), 0, 1e-12)
    assert res.status == CONVERGED and res.iterations == 1
    assert res.growth_constant == pytest.approx(0.0, abs=1e-12)


def test_pf_matches_power_iteration():
    rng = np.random.default_rng(8)
    for _ in range(5):
        A = rng.uniform(0.1, 2.0, (4, 4))
        P = perron_frobenius_operator([A])
        res = iterate_normalized(P, rng.normal(size=4), 0, 1e-13)
        assert res.status == CONVERGED
        lam, vec = power_iteration(A)
        v = np.exp(res.limit)
        np.testing.assert_allclose(v / v[0], vec / vec[0], atol=1e-8)
        assert np.exp(2 * res.growth_constant) == pytest.approx(lam, abs=1e-8)


def test_pf_min_family_eigen_equation():
    A = np.array([[2.0, 0.3], [0.4, 1.0]])
    B = np.array([[1.0, 0.7], [0.2, 1.5]])
    P = perron_frobenius_operator([A, B])
    res = iterate_normalized(P, np.zeros(2), 0, 1e-13)
    assert res.status == CONVERGED
    v = np.exp(res.limit)
    factor = np.exp(2 * res.growth_constant)
    np.testing.assert_allclose(np.minimum(A @ v, B @ v), factor * v, atol=1e-8)


def test_pf_rejects_zero_rows():
    with pytest.raises(ValidationError):
        perron_frobenius_operator([np.array([[0.0, 0.0], [1.0, 1.0]])])


def test_extension_iterates_from_off_family_points():
    # the tight-shift extension is total: iterating from outside the
    # generating family must keep producing finite values, and the
    # counterexample chain keeps oscillating from any start
    P = counterexample_operator(0.01)
    rng = np.random.default_rng(17)
    f = rng.normal(size=4) * 3.0
    for _ in range(20):
        f = P(f)
        assert np.all(np.isfinite(f))
    res = iterate_normalized(P, rng.normal(size=4), 0, 1e-6, max_iter=400)
    assert res.status in (OSCILLATING, MAX_ITERATIONS, DIVERGED)


def test_increments_cycle_detector():
    tol = 1e-9

    def increments(orbit):
        return [b - a for a, b in zip(orbit, orbit[1:])]

    # increments alternate +1, -0.5, +1, ...: a genuine period-2 cycle
    alternating = [np.array([0.0, 0.0]), np.array([1.0, -1.0])]
    for k in range(6):
        step = np.array([1.0, -1.0]) if k % 2 else np.array([-0.5, 0.5])
        alternating.append(alternating[-1] + step)
    assert increments_cycle(increments(alternating), tol)
    assert increments_cycle(increments(alternating[:5]), tol)
    # fewer than four increments (five orbit entries) never fire
    assert not increments_cycle(increments(alternating[:4]), tol)
    # geometrically settling orbit: increments shrink, no period-2 cycle
    settling = [np.array([1.0 - 0.5 ** k, 0.5 ** k]) for k in range(8)]
    assert not increments_cycle(increments(settling), tol)
    # a constant orbit has equal increments, nothing alternates
    assert not increments_cycle(increments([np.array([2.0, 3.0])] * 6), tol)


def _replay(tol, ops):
    """Feed ops (an increment, or None for a reset) to the detector and
    check each answer against the window rule, rescanned from scratch."""
    push, window = _period2(tol), deque(maxlen=OSCILLATION_WINDOW)
    answers = []
    for inc in ops:
        if inc is None:
            push, window = _period2(tol), deque(maxlen=OSCILLATION_WINDOW)
            continue
        window.append(inc)
        answers.append(push(inc))
        assert answers[-1] == increments_cycle_window(list(window), tol)
        assert increments_cycle(window, tol) == answers[-1]
    return answers


# increments on a lattice of tol, so that differences land exactly on tol,
# plus NaN entries (a NaN second difference counts as calm)
_lattice = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, np.nan])


@settings(max_examples=400, deadline=None)
@given(tol=st.sampled_from([1.0, 0.5, 1e-3, 1e-9]),
       ops=st.lists(st.one_of(st.none(), st.tuples(_lattice, _lattice)),
                    min_size=1, max_size=12))
def test_period2_detector_matches_the_window_rule(tol, ops):
    _replay(tol, [None if op is None else np.array(op) * tol for op in ops])


def test_period2_detector_on_named_orbits():
    tol = 1.0
    one = [np.array([v]) for v in (0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0)]
    # first differences exactly tol, second differences 0: fires from the fourth
    assert _replay(tol, one) == [False] * 3 + [True] * 6
    # a second difference exactly tol is not calm
    assert not any(_replay(tol, [np.array([v]) for v in (0.0, 1.0, 1.0, 2.0, 2.0)]))
    # a NaN second difference counts as calm, as in the window rule
    assert _replay(tol, [np.array([v]) for v in (0.0, 1.0, 0.0, np.nan)])[-1]
    # first differences below tol do not alternate
    assert not any(_replay(tol, [np.array([v]) for v in (0.0, 0.5) * 5]))
    # a reset empties the window: four more increments are needed
    assert _replay(tol, one[:4] + [None] + one[:4]) == [False] * 3 + [True] + [False] * 3 + [True]
    # settling and constant orbits never fire
    assert not any(_replay(1e-9, [np.array([0.5 ** k, -(0.5 ** k)]) for k in range(12)]))
    assert not any(_replay(1e-9, [np.array([2.0, 3.0])] * 12))
    # criterion 3's counterexample still ends oscillating at every tolerance
    P = counterexample_operator(0.01)
    for tol in (1e-3, 1e-6, 1e-9):
        res = iterate_normalized(P, np.array([0.0, 0.0, -0.01, 0.01]), 0, tol, max_iter=1000)
        assert res.status == OSCILLATING
