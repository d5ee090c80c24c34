"""Generic nonlinear Markov chain iteration and diagnostics.

A chain is a self-map P of R^N.  The engine iterates the base-point
normalized orbit f_n = P^n f - P^n f(x0), tracking the monotone
quantities lambda+ = max(Pf - f) and lambda- = min(Pf - f) whose
collapse certifies convergence to a fixed point modulo constants.
Non-convergence is classified: unbounded normalized orbits (missing
accumulation point) and period-2 oscillation of the increment sequence.

Also provided: randomized verification of the structural chain
conditions (monotonicity through uniform connectedness), the
tight-shift extension of an operator from a generating family to all of
R^N, the four-coordinate oscillating chain that defeats every
convergence criterion, and the log-coordinate Perron-Frobenius chain of
a component-wise-min matrix family.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import SolverError, ValidationError

__all__ = [
    "ChainOperator",
    "IterationResult",
    "TraceRow",
    "LambdaDiagnostics",
    "iterate_normalized",
    "lambda_diagnostics",
    "verify_properties",
    "PropertyReport",
    "ConditionReport",
    "extend_operator",
    "counterexample_operator",
    "perron_frobenius_operator",
    "linear_chain_operator",
    "CONVERGED",
    "DIVERGED",
    "OSCILLATING",
    "MAX_ITERATIONS",
]

CONVERGED = "converged"
DIVERGED = "diverged-unbounded"
OSCILLATING = "oscillating"
MAX_ITERATIONS = "max-iterations"
# increments of the normalized orbit kept for the period-2 oscillation test
OSCILLATION_WINDOW = 7
# normalized spread past which the orbit is reported diverged-unbounded
DIVERGENCE_BOUND = 1e12


@dataclass(frozen=True, eq=False)
class ChainOperator:
    """Self-map of R^N.

    ``epsilon_0``, None or finite and positive, is the one structural
    claim an operator carries: a constant of uniform strict monotonicity
    (condition 3).  :func:`verify_properties` holds condition 3's
    estimate to it, and tests all seven conditions whatever is claimed.
    ``kernel`` carries the row-stochastic matrix when the chain is
    linear, unlocking exact transport-based diagnostics.
    """

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]
    epsilon_0: float | None = None
    kernel: np.ndarray | None = None
    name: str = ""

    def __post_init__(self) -> None:
        eps = self.epsilon_0
        if eps is not None and not (isinstance(eps, numbers.Real) and 0 < eps < np.inf):
            raise ValidationError(f"epsilon_0 must be None or finite and positive, got {eps!r}")
        if self.kernel is not None:
            k = np.asarray(self.kernel, dtype=float)
            if k.shape != (self.dimension, self.dimension):
                raise ValidationError("kernel shape must match the dimension")
            object.__setattr__(self, "kernel", k)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.dimension,):
            raise ValidationError(
                f"operator expects vectors of length {self.dimension}, got {f.shape}")
        return np.asarray(self.apply(f), dtype=float)


@dataclass(frozen=True)
class LambdaDiagnostics:
    lambda_plus: float
    lambda_minus: float
    argmax: tuple[int, ...]
    argmin: tuple[int, ...]


def lambda_diagnostics(P: ChainOperator, f: np.ndarray) -> LambdaDiagnostics:
    """max/min of Pf - f with the attaining index sets (ties within 1e-12)."""
    f = np.asarray(f, dtype=float)
    lf = P(f) - f
    lo, hi = float(lf.min()), float(lf.max())
    return LambdaDiagnostics(
        lambda_plus=hi,
        lambda_minus=lo,
        argmax=tuple(int(i) for i in np.flatnonzero(lf >= hi - 1e-12)),
        argmin=tuple(int(i) for i in np.flatnonzero(lf <= lo + 1e-12)),
    )


@dataclass(frozen=True)
class TraceRow:
    n: int
    lambda_plus: float
    lambda_minus: float
    delta_sup: float
    base_value: float


@dataclass
class IterationResult:
    limit: np.ndarray | None
    growth_constant: float | None
    iterations: int
    status: str
    trace: list[TraceRow]

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _period2(tol: float) -> Callable[[np.ndarray], bool]:
    """push(inc) fires on a period-2 cycle in the last OSCILLATION_WINDOW
    orbit increments: every second difference vanishes within tol (is not
    >= tol; NaN counts) while consecutive increments alternate by at least
    tol, an orbit jumping forever between two behaviors.  Needs four
    increments; a push costs two reductions."""
    recent, jumps, calm = deque(maxlen=2), deque(maxlen=OSCILLATION_WINDOW - 1), 0

    def push(inc: np.ndarray) -> bool:
        nonlocal calm  # the run of calm second differences
        if recent:
            jumps.append(float(np.abs(inc - recent[-1]).max()))
        calm = calm + 1 if len(recent) == 2 and not np.abs(inc - recent[0]).max() >= tol else 0
        recent.append(inc)
        return len(jumps) >= 3 and calm >= len(jumps) - 1 and max(jumps) >= tol

    return push


def iterate_normalized(P: ChainOperator, f0: np.ndarray, x0: int,
                       tolerance: float, max_iter: int = 100_000) -> IterationResult:
    """Iterate f -> Pf, tracking the normalized orbit P^n f - P^n f(x0).

    Converges when the normalized step and the lambda+/lambda- gap both
    fall below ``tolerance``; the growth constant is the stabilized base
    increment P^{n+1}f(x0) - P^n f(x0).  Reports "diverged-unbounded"
    when the normalized spread leaves ``DIVERGENCE_BOUND`` (a missing
    finite accumulation point cannot be certified in advance, so the
    engine fails loudly) and "oscillating" on a period-2 increment cycle,
    an O(1) test per step (``_period2``).
    """
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValidationError(f"tolerance must be finite and positive, got {tolerance}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    f_raw = np.array(f0, dtype=float)
    if f_raw.shape != (P.dimension,):
        raise ValidationError(f"f0 must have length {P.dimension}")
    if not np.all(np.isfinite(f_raw)):
        raise ValidationError("f0 must be finite")
    if not 0 <= x0 < P.dimension:
        raise ValidationError(f"x0 must be a coordinate index, got {x0}")

    normalized = f_raw - f_raw[x0]
    cycle = _period2(tolerance)
    trace: list[TraceRow] = []

    for n in range(max_iter):
        f_next = P(f_raw)
        if not np.isfinite(f_next).all():
            raise SolverError(f"chain operator produced non-finite values at step {n}")
        lf = f_next - f_raw
        lam_plus, lam_minus = float(lf.max()), float(lf.min())
        norm_next = f_next - f_next[x0]
        inc = norm_next - normalized
        delta = float(np.abs(inc).max())
        trace.append(TraceRow(n=n, lambda_plus=lam_plus, lambda_minus=lam_minus,
                              delta_sup=delta, base_value=float(f_raw[x0])))

        if delta < tolerance and (lam_plus - lam_minus) < tolerance:
            return IterationResult(
                limit=norm_next, growth_constant=float(f_next[x0] - f_raw[x0]),
                iterations=n + 1, status=CONVERGED, trace=trace)
        if cycle(inc):
            return IterationResult(
                limit=None, growth_constant=None, iterations=n + 1,
                status=OSCILLATING, trace=trace)
        if float(norm_next.max() - norm_next.min()) > DIVERGENCE_BOUND:
            return IterationResult(
                limit=None, growth_constant=None, iterations=n + 1,
                status=DIVERGED, trace=trace)
        f_raw = f_next
        normalized = norm_next

    return IterationResult(limit=None, growth_constant=None, iterations=max_iter,
                           status=MAX_ITERATIONS, trace=trace)


# ---------------------------------------------------------------------------
# randomized verification of the structural conditions


@dataclass
class ConditionReport:
    condition: int
    name: str
    checked: int
    failures: int
    first_counterexample: dict | None
    passed: bool
    estimate: dict | None = None


@dataclass
class PropertyReport:
    seed: int
    n_samples: int
    magnitude: float
    conditions: dict[int, ConditionReport]

    def passed(self, condition: int) -> bool:
        return self.conditions[condition].passed


def _rng(seed: int) -> np.random.Generator:
    """numpy's default generator for ``seed``, an integer >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def verify_properties(P: ChainOperator, n_samples: int = 50,
                      magnitude: float = 1.0, seed: int = 0) -> PropertyReport:
    """Statistical check of chain conditions (1)-(7) on random inputs.

    Each condition gets ``n_samples`` random draws (with f >= g enforced
    by construction where required) and reports pass/fail counts plus the
    first counterexample.  Conditions 1, 3 (inactive coordinates), 4 and 5
    forgive violations within 1e-9 x max(1, |f|_inf, |g|_inf, |c|) over
    their operands, whose rounding they are; the dimensionless epsilon_0
    estimates compare within 1e-9, and condition 3 fails below the
    operator's ``epsilon_0`` ("declared").
    Connectedness searches the stabilization index n0 up to the
    dimension.  A "fail" is a result, not an error; passing is
    statistical evidence only.  ``magnitude`` must be > 0 with 20 x
    magnitude finite (condition 4 shifts by up to 10 x magnitude), the
    seed an integer >= 0.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    if not (magnitude > 0 and np.isfinite(20 * magnitude)):
        raise ValidationError(f"magnitude must be > 0 and 20 x magnitude finite, got {magnitude!r}")
    rng = _rng(seed)
    N = P.dimension
    cap, slack = max(N, 1), 1e-9
    reports: dict[int, ConditionReport] = {}

    def record(cond: int, name: str, failures: list[dict], checked: int,
               estimate: dict | None = None, passed: bool | None = None) -> None:
        reports[cond] = ConditionReport(
            condition=cond, name=name, checked=checked, failures=len(failures),
            first_counterexample=failures[0] if failures else None,
            passed=(not failures) if passed is None else passed,
            estimate=estimate)

    def rand_vec() -> np.ndarray:
        return rng.uniform(-magnitude, magnitude, N)

    def scaled(*operands) -> float:  # slack x max(1, the operands' sup norms)
        return slack * max(1.0, *(float(np.max(np.abs(x))) for x in operands))

    # (1) monotonicity
    fails = []
    for _ in range(n_samples):
        g = rand_vec()
        f = g + rng.uniform(0.0, magnitude, N)
        viol = float(np.min(P(f) - P(g)))
        if viol < -scaled(f, g):
            fails.append({"f": f.tolist(), "g": g.tolist(), "violation": viol})
    record(1, "monotonicity", fails, n_samples)

    # (2) strict monotonicity at the bumped coordinate
    fails = []
    margin = np.inf
    for _ in range(n_samples):
        g = rand_vec()
        x = int(rng.integers(N))
        h = rng.uniform(0.0, magnitude, N) * rng.integers(0, 2, N)
        h[x] = rng.uniform(0.1, 1.0) * magnitude
        f = g + h
        gap = float((P(f) - P(g))[x])
        margin = min(margin, gap)
        if gap <= 0.0:
            fails.append({"g": g.tolist(), "x": x, "bump": h.tolist(), "gap": gap})
    record(2, "strict monotonicity", fails, n_samples,
           estimate={"min_margin": margin})

    # (3) uniform strict monotonicity: estimate the best epsilon_0
    fails = []
    eps_est = np.inf
    for _ in range(n_samples):
        g = rand_vec()
        h = rng.uniform(0.0, magnitude, N)
        f = g + h
        diff = P(f) - P(g)
        active = h > 1e-12
        if np.any(diff[~active] < -scaled(f, g)):
            fails.append({"g": g.tolist(), "h": h.tolist(),
                          "violation": float(np.min(diff[~active]))})
            continue
        if np.any(active):
            eps_est = min(eps_est, float(np.min(diff[active] / h[active])))
    passed = (not fails) and eps_est > slack
    if P.epsilon_0 is not None:
        passed = passed and eps_est >= P.epsilon_0 - slack
    record(3, "uniform strict monotonicity", fails, n_samples,
           estimate={"epsilon_0": None if np.isinf(eps_est) else eps_est,
                     "declared": P.epsilon_0},
           passed=passed)

    # (4) constant additivity
    fails = []
    for _ in range(n_samples):
        f = rand_vec()
        c = float(rng.uniform(-10 * magnitude, 10 * magnitude))
        dev = float(np.max(np.abs(P(f + c) - (P(f) + c))))
        if dev > scaled(f, c):
            fails.append({"f": f.tolist(), "c": c, "deviation": dev})
    record(4, "constant additivity", fails, n_samples)

    # (5) non-expansion
    fails = []
    for _ in range(n_samples):
        f, g = rand_vec(), rand_vec()
        lhs = float(np.max(np.abs(P(f) - P(g))))
        rhs = float(np.max(np.abs(f - g)))
        if lhs > rhs + scaled(f, g):
            fails.append({"f": f.tolist(), "g": g.tolist(),
                          "expansion": lhs - rhs})
    record(5, "non-expansion", fails, n_samples)

    # (6) connectedness: first n with strict inequality everywhere
    fails = []
    n0_found = 0
    for _ in range(n_samples):
        g = rand_vec()
        x = int(rng.integers(N))
        delta = float(rng.uniform(0.1, 1.0) * magnitude)
        f = g.copy()
        f[x] += delta
        pf, pg = f, g
        reached = None
        for n in range(1, cap + 1):
            pf, pg = P(pf), P(pg)
            if float(np.min(pf - pg)) > 0.0:
                reached = n
                break
        if reached is None:
            fails.append({"g": g.tolist(), "x": x, "delta": delta, "cap": cap})
        else:
            n0_found = max(n0_found, reached)
    record(6, "connectedness", fails, n_samples,
           estimate={"n_0": n0_found if not fails else None, "cap": cap})

    # (7) uniform connectedness: best uniform epsilon over an n0 <= cap
    fails = []
    floor_by_n = np.full(cap, np.inf)
    for _ in range(n_samples):
        g = rand_vec()
        x = int(rng.integers(N))
        delta = float(rng.uniform(0.1, 1.0) * magnitude)
        f = g + rng.uniform(0.0, magnitude, N) * rng.integers(0, 2, N)
        f[x] = g[x] + delta  # tight at the bumped coordinate
        pf, pg = f, g
        for n in range(cap):
            pf, pg = P(pf), P(pg)
            floor_by_n[n] = min(floor_by_n[n], float(np.min(pf - pg)) / delta)
    best_n = int(np.argmax(floor_by_n)) + 1
    eps7 = float(floor_by_n[best_n - 1])
    record(7, "uniform connectedness", fails, n_samples,
           estimate={"n_0": best_n, "epsilon_0": eps7, "cap": cap},
           passed=eps7 > slack)

    return PropertyReport(seed=seed, n_samples=n_samples, magnitude=magnitude,
                          conditions=reports)


# ---------------------------------------------------------------------------
# operator constructions


def extend_operator(P: ChainOperator, eps: float,
                    family: Sequence[np.ndarray]) -> ChainOperator:
    """Extend P from a generating family to all of R^N.

    The extension is the componentwise infimum of P(g) - eps (g - f)
    over dominating family members g >= f; since the family is closed
    under adding constants and the objective grows in the shift (eps < 1),
    only the tight shift of each member matters.  Agrees with P on the
    family and inherits uniform strict monotonicity with constant eps,
    its ``epsilon_0``, and constant additivity.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps must lie in (0, 1)")
    members = [np.asarray(h, dtype=float) for h in family]
    if not members:
        raise ValidationError("empty generating family: no dominating set exists")
    for h in members:
        if h.shape != (P.dimension,):
            raise ValidationError("family members must match the operator dimension")

    def apply(f: np.ndarray) -> np.ndarray:
        best = np.full(P.dimension, np.inf)
        for h in members:
            shift = float(np.max(f - h))
            g = h + shift
            np.minimum(best, P(g) - eps * (g - f), out=best)
        return best

    return ChainOperator(dimension=P.dimension, apply=apply, epsilon_0=eps,
                         name=f"extension({P.name or 'P'})")


def counterexample_operator(eps0: float = 0.01) -> ChainOperator:
    """Four-coordinate chain whose normalized orbit never converges.

    On the two-parameter family (n, -n, -+eps0, +-eps0) + c the map bumps
    n and flips the sign pair, so coordinates 1, 2 diverge linearly while
    coordinates 3, 4 jump between +-eps0 forever.  Off the family the
    tight-shift extension (with eps = 1/2, its ``epsilon_0``) is
    evaluated exactly by scanning the finitely many shift regimes in n.
    """
    if not 0.0 < eps0 < 1.0:
        raise ValidationError("eps0 must lie in (0, 1)")
    parse_tol = 1e-9
    eps = 0.5

    def member(n: int, c: float, offset: float) -> np.ndarray:
        return np.array([n + c, -n + c, c + offset, c - offset])

    def image(n: int, c: float, offset: float) -> np.ndarray:
        return np.array([n + 1 + c, -(n + 1) + c, c - offset, c + offset])

    def apply(f: np.ndarray) -> np.ndarray:
        c = (f[0] + f[1]) / 2.0
        t = (f[0] - f[1]) / 2.0
        n = int(np.rint(t))
        if abs(t - n) <= parse_tol:
            offset = -eps0 if n % 2 == 0 else eps0
            if (abs(f[2] - (c + offset)) <= parse_tol
                    and abs(f[3] - (c - offset)) <= parse_tol):
                return image(n, c, offset)
        # componentwise tight-shift extension over both parity branches
        best = np.full(4, np.inf)
        for offset in (-eps0, eps0):
            breaks = [
                (f[0] - f[1]) / 2.0,
                f[0] - (f[2] - offset),
                (f[2] - offset) - f[1],
                f[0] - (f[3] + offset),
                (f[3] + offset) - f[1],
            ]
            lo = int(np.floor(min(breaks))) - 4
            hi = int(np.ceil(max(breaks))) + 4
            parity = 0 if offset == -eps0 else 1
            for n in range(lo, hi + 1):
                if n % 2 != parity:
                    continue
                g_base = member(n, 0.0, offset)
                shift = float(np.max(f - g_base))
                g = g_base + shift
                np.minimum(best, image(n, shift, offset) - eps * (g - f), out=best)
        return best

    return ChainOperator(dimension=4, apply=apply, epsilon_0=eps,
                         name=f"counterexample(eps0={eps0})")


def perron_frobenius_operator(family: Sequence[np.ndarray]) -> ChainOperator:
    """Log-coordinate chain of Lambda(v) = componentwise min of A v.

    Pf = (f + log Lambda(exp f)) / 2; a normalized fixed point g solves
    the eigen-equation Lambda(exp g) = exp(2 lambda) exp(g).  Every
    matrix must be nonnegative with no all-zero row, otherwise Lambda
    leaves the positive cone.
    """
    mats = [np.asarray(a, dtype=float) for a in family]
    if not mats:
        raise ValidationError("matrix family must be nonempty")
    if mats[0].ndim != 2 or mats[0].shape[0] != mats[0].shape[1]:
        raise ValidationError(f"matrix 0 must be square, got shape {mats[0].shape}")
    N = mats[0].shape[0]
    for idx, a in enumerate(mats):
        if a.shape != (N, N):
            raise ValidationError(f"matrix {idx} must be {N}x{N}, got {a.shape}")
        if np.any(a < 0) or not np.all(np.isfinite(a)):
            raise ValidationError(f"matrix {idx} must be nonnegative and finite")
        zero_rows = np.flatnonzero(a.sum(axis=1) == 0)
        if zero_rows.size:
            raise ValidationError(
                f"matrix {idx} has all-zero row {int(zero_rows[0])}; "
                "Lambda would leave the positive cone")
    stack = np.stack(mats)
    positive = stack > 0

    def apply(f: np.ndarray) -> np.ndarray:
        # log sum_j A_kij e^(f_j), each row shifted by its largest f_j over
        # the row's positive entries, so no row underflows to log 0
        logs = np.where(positive, f, -np.inf)
        shift = logs.max(axis=2)
        rows = np.sum(stack * np.exp(logs - shift[..., None]), axis=2)
        log_lam = np.min(shift + np.log(rows), axis=0)
        if not np.all(np.isfinite(log_lam)):
            raise SolverError("Lambda left the finite positive cone")
        return 0.5 * (f + log_lam)

    return ChainOperator(dimension=N, apply=apply,
                         name=f"perron-frobenius({len(mats)} matrices)")


def linear_chain_operator(matrix: np.ndarray, name: str = "") -> ChainOperator:
    """Chain f -> M f for a row-stochastic nonnegative matrix M."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("kernel must be a square matrix")
    if np.any(M < 0):
        raise ValidationError("kernel must be nonnegative")
    if np.max(np.abs(M.sum(axis=1) - 1.0)) > 1e-9:
        raise ValidationError("kernel rows must sum to 1")
    return ChainOperator(dimension=M.shape[0], apply=lambda f: M @ f, kernel=M,
                         name=name or "linear chain")
