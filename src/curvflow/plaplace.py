"""Energy functionals, p-Laplace operators, resolvents, and the
Lipschitz-decay estimate for their resolvents.

The resolvent J_eps = (id - eps Delta_p)^(-1) is computed variationally:
with a constant vertex measure, Delta_p is -1/p times the gradient of
the energy, so J_eps f minimizes E_p(g)/p + ||g - f||^2 / (2 eps).
p > 2 runs damped Newton on that problem; p = 2 solves (id - eps Delta)
g = f for any measure; 1 < p < 2 runs damped Newton on the Fenchel-
Rockafellar dual, one variable per edge with a Hessian that stays
bounded where the primal curvature |t|^(p-2) blows up; the set-valued
p = 1 solves its box-constrained dual in the edge signs by a finite
active set, and the optimal signs are the edge sign selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import curvature_report
from .errors import SolverError, ValidationError
from .graphs import (
    WeightedGraph,
    combinatorial_metric,
    connected_components,
    laplacian_apply,
    laplacian_matrix,
    lipschitz_constant,
)

__all__ = [
    "PhiSpec",
    "ResolventSolution",
    "Delta1Membership",
    "DecayBound",
    "energy",
    "p_laplacian",
    "phi_laplacian",
    "resolvent",
    "resolvent_phi",
    "lipschitz_decay_bound",
]

# error in g allowed to the primal Newton, relative to max(1, max|f|)
G_TOL = 1e-11
# Fenchel gap certifying the dual's g, relative to max(1, primal objective)
GAP_TOL = 1e-12
# damped Newton steps per inner solve (random graphs need up to about 30
# at 1 < p < 2; p > 2 at eps = 1e100 about 190)
MAX_INNER = 200
# optimality slack of the p = 1 active set, relative to the scale of g
KKT_TOL = 1e-13
CONST_MEASURE_TOL = 1e-12


def _require_p(p: float) -> None:
    if not (np.isfinite(p) and p >= 1):
        raise ValidationError(f"p must be finite and at least 1, got {p}")


def _require_eps(eps: float) -> None:
    if not (np.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be finite and positive, got {eps}")


@dataclass(frozen=True, eq=False)
class PhiSpec:
    """Odd increasing nonlinearity, convex or concave on the positives.

    ``power(p)`` gives phi(t) = |t|^(p-2) t (convex for p >= 2, concave
    for 1 <= p <= 2).  Custom maps declare their shape, which is checked
    against second differences on a sample grid along with oddness and
    strict monotonicity.
    """

    kind: str
    p: float | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None
    shape: str = "convex"

    @classmethod
    def power(cls, p: float) -> "PhiSpec":
        _require_p(p)
        return cls(kind="p-power", p=p, shape="convex" if p >= 2 else "concave")

    @classmethod
    def custom(cls, func: Callable[[np.ndarray], np.ndarray],
               shape: str) -> "PhiSpec":
        if shape not in ("convex", "concave"):
            raise ValidationError("shape must be 'convex' or 'concave'")
        spec = cls(kind="custom", func=func, shape=shape)
        spec._validate_grid()
        return spec

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "p-power":
            out = np.sign(t) * np.abs(t) ** (self.p - 1)
        else:
            out = np.asarray(self.func(t), dtype=float)
        return out if out.ndim else float(out)

    def primitive(self, t: np.ndarray) -> np.ndarray:
        """Even primitive with primitive(0) = 0 (energy integrand)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "p-power":
            return np.abs(t) ** self.p / self.p
        # Gauss-Legendre on [0, |t|]; phi odd makes the primitive even
        nodes, weights = np.polynomial.legendre.leggauss(32)
        a = np.abs(t)
        pts = 0.5 * a[..., None] * (nodes + 1.0)
        return 0.5 * a * np.sum(weights * self.func(pts), axis=-1)

    def derivative(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "p-power":  # (p - 1) |t|^0 = 1 at p = 2
            a = np.maximum(np.abs(t), 1e-12)
            return (self.p - 1) * a ** (self.p - 2)
        h = 1e-6 * (1.0 + np.abs(t))
        return (self.func(t + h) - self.func(t - h)) / (2 * h)

    def _validate_grid(self) -> None:
        grid = np.linspace(0.05, 3.0, 40)
        pos = np.asarray(self.func(grid), dtype=float)
        neg = np.asarray(self.func(-grid), dtype=float)
        if np.max(np.abs(pos + neg)) > 1e-9:
            raise ValidationError("phi must be odd")
        if np.any(np.diff(pos) <= 0):
            raise ValidationError("phi must be strictly increasing")
        second = np.diff(pos, 2)
        if self.shape == "convex" and np.any(second < -1e-9):
            raise ValidationError("phi is declared convex but curves downward")
        if self.shape == "concave" and np.any(second > 1e-9):
            raise ValidationError("phi is declared concave but curves upward")


def energy(g: WeightedGraph, f: np.ndarray, p: float) -> float:
    """E_p(f) = 1/2 sum_{x,y} w(x,y)/m(x) |f(y) - f(x)|^p."""
    _require_p(p)
    f = np.asarray(f, dtype=float)
    diff = np.abs(f[None, :] - f[:, None])
    return float(0.5 * np.sum((g.weights / g.measure[:, None]) * diff ** p))


def p_laplacian(g: WeightedGraph, f: np.ndarray, p: float):
    """Delta_p f for p > 1; for p = 1 a membership test for the
    set-valued Delta_1 f (candidate value plus edge sign selection)."""
    _require_p(p)
    f = np.asarray(f, dtype=float)
    if p == 1:
        return Delta1Membership(g, f)
    diff = f[None, :] - f[:, None]
    mag = np.abs(diff)
    safe = np.where(mag > 0, mag, 1.0)
    kernel = np.where(mag > 0, safe ** (p - 2) * diff, 0.0)
    return np.sum(g.weights * kernel, axis=1) / g.measure


def phi_laplacian(g: WeightedGraph, f: np.ndarray, phi: PhiSpec) -> np.ndarray:
    """Delta_phi f(x) = sum_y w(x,y)/m(x) phi(f(y) - f(x))."""
    f = np.asarray(f, dtype=float)
    diff = f[None, :] - f[:, None]
    return np.sum(g.weights * np.where(g.weights > 0, phi(diff), 0.0), axis=1) / g.measure


@dataclass(frozen=True, eq=False)
class Delta1Membership:
    """Verifier for h in Delta_1 f: antisymmetric signs summing to h."""

    graph: WeightedGraph
    f: np.ndarray

    def verify(self, h: np.ndarray, selection: np.ndarray, *,
               tol: float = 1e-7) -> tuple[bool, str]:
        """Check selection s_xy in sign(f(y) - f(x)), s antisymmetric,
        and h(x) = (1/m) sum w s_xy, each within ``tol``; a gradient
        within 1e-6 of zero leaves its sign free."""
        g = self.graph
        h = np.asarray(h, dtype=float)
        s = np.asarray(selection, dtype=float)
        if s.shape != (g.n, g.n):
            return False, f"selection must be {g.n}x{g.n}"
        if np.max(np.abs(s + s.T)) > tol:
            return False, "selection is not antisymmetric"
        grad = self.f[None, :] - self.f[:, None]
        for u, v in g.edges():
            val = s[u, v]
            if abs(val) > 1.0 + tol:
                return False, f"selection at ({u}, {v}) leaves [-1, 1]"
            if grad[u, v] > 1e-6 and abs(val - 1.0) > tol:
                return False, f"selection at ({u}, {v}) must be 1 on a positive gradient"
            if grad[u, v] < -1e-6 and abs(val + 1.0) > tol:
                return False, f"selection at ({u}, {v}) must be -1 on a negative gradient"
        achieved = np.sum(g.weights * s, axis=1) / g.measure
        dev = float(np.max(np.abs(achieved - h)))
        if dev > tol:
            return False, f"selection reproduces h only within {dev:g}"
        return True, "ok"


@dataclass(frozen=True, eq=False)
class ResolventSolution:
    g: np.ndarray
    residual: float
    subgradient_selection: np.ndarray | None = None
    iterations: int = 0
    method: str = ""


# ---------------------------------------------------------------------------
# inner solvers


def _edges(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(iu, iv, c): the edges (u, v), u < v, in row-major order, and
    c_e = w_e / m0 (constant measure)."""
    iu, iv = np.nonzero(np.triu(g.weights, k=1) > 0)
    return iu, iv, g.weights[iu, iv] / float(g.measure[0])


def _minimize_prox(g: WeightedGraph, eps: float, phi: PhiSpec):
    """solve(f, x0) = (argmin sum_e c_e Prim(g_v - g_u) + ||g - f||^2 /
    (2 eps), Newton steps, None), Prim phi's primitive (the p > 2 powers
    and custom phi), by ``_lm_newton``.

    It stops once eps |grad| (a bound on the error in g, as the Hessian
    H >= I/eps) or (1 + mu eps) ||d|| for the last step d, taken with
    damping mu (a bound on the Newton step H^-1 grad, the error near the
    optimum) is at most G_TOL max(1, max|f|).  The raw gradient's
    roundoff scales with 1/eps, and eps |grad| alone overstates the
    error wherever the energy's Hessian dwarfs 1/eps.
    """
    iu, iv, c = _edges(g)
    n = g.n

    def grad(t: np.ndarray, r: np.ndarray) -> np.ndarray:
        s = c * phi(t)
        return r / eps + np.bincount(iv, s, n) - np.bincount(iu, s, n)

    def hess(t: np.ndarray) -> np.ndarray:
        H = np.zeros((n, n))
        dvals = phi.derivative(t) * c
        H[iu, iv] = H[iv, iu] = -dvals
        np.fill_diagonal(H, np.bincount(iu, dvals, n) + np.bincount(iv, dvals, n) + 1.0 / eps)
        return H

    def solve(f: np.ndarray, x0: np.ndarray | None = None):
        tol = G_TOL * max(1.0, float(np.max(np.abs(f))))

        def converged(gnorm: float, last) -> bool:
            return eps * gnorm <= tol or (
                last is not None
                and (1.0 + last[1] * eps) * float(np.linalg.norm(last[0])) <= tol)

        def evaluate(x: np.ndarray):
            t, r = x[iv] - x[iu], x - f
            return (float(c @ phi.primitive(t)) + float(r @ r) / (2 * eps),
                    lambda: grad(t, r), lambda: hess(t), converged)

        return *_lm_newton(f if x0 is None else x0, evaluate), None

    return solve


def _lm_newton(x, evaluate):
    """Levenberg-Marquardt damped Newton.

    Damping makes every accepted step descend through the far-from-
    quadratic start of the p > 2 primal and the 1 < p < 2 dual (power
    q = p/(p-1)) and vanishes near the optimum.  A rejected step is
    halved before the damping grows, which would linger: a step into the
    wall of the dual's |sigma|^q needs only shortening.  At the
    objective's resolution limit, steps that shrink the gradient norm
    count.  ``evaluate(x)`` evaluates x once: its objective value, grad(),
    hess() and converged(gradient norm, last (direction, damping) or None),
    each run at most once.  Returns (point, steps) once converged; raises
    SolverError when no damping descends or after ``MAX_INNER`` steps.
    """
    x = x.copy()
    fx, grad, hess, converged = evaluate(x)
    gx = grad()
    gnorm = float(np.abs(gx).max(initial=0.0))
    mu, last = 0.0, None
    for step in range(MAX_INNER + 1):
        if converged(gnorm, last):
            return x, step
        if step == MAX_INNER:
            break
        H = hess()
        diag = H.diagonal().copy()
        ftol = 1e-14 * max(1.0, abs(fx))
        accepted = False
        for _ in range(60):
            if mu:  # H's diagonal is diag until damping starts
                np.fill_diagonal(H, diag + mu)
            try:
                direction = np.linalg.solve(H, gx)
            except np.linalg.LinAlgError:
                mu = max(2.0 * mu, 1e-12 * float(diag.max()))
                continue
            length = 1.0
            for _ in range(30):
                cand = x - length * direction
                point = evaluate(cand)
                fc, gc = point[0], None
                if fc <= fx or (fc <= fx + ftol
                                and float(np.abs(gc := point[1]()).max()) < gnorm):
                    accepted = True
                    break
                length /= 2.0
            if accepted:
                x, fx, (_, grad, hess, converged) = cand, fc, point
                gx = grad() if gc is None else gc
                gnorm = float(np.abs(gx).max())
                last = (direction, mu)
                mu /= 3.0
                break
            base = float(diag.max())
            mu = max(10.0 * mu, 1e-12 * base)
            if mu > 1e15 * base:
                break
        if not accepted:
            break
    raise SolverError(
        f"resolvent inner solver did not converge within {step} Newton steps")


def _resolvent_tv(g: WeightedGraph, eps: float):
    """p = 1: solve(f, x0) = (the total-variation prox, exactly, steps, s).

    J_eps f = f + eps B s, where B[:, e] = (w_e / m0)(1_u - 1_v) for each
    edge e = (u, v) and s minimizes ||f + eps B s||^2 over [-1, 1]^E.
    The bounded-variable least-squares active set of Stark & Parker
    (Comput. Stat. 1995) finds s in finitely many steps: free signs take
    their least-squares values (``lstsq``, since free edges that close a
    cycle make the system rank-deficient) and step back to the first
    bound they cross; a bound sign whose gradient points inward is
    freed.  At the end every bound edge has s_e = sign(g_v - g_u) and
    every free edge has g_u = g_v, so s is itself the Delta_1 selection.
    Signs start from the slopes of f along the edges.
    """
    iu, iv, coef = _edges(g)
    A = eps * coef * (np.eye(g.n)[:, iu] - np.eye(g.n)[:, iv])
    # g - f = A s moves a vertex by at most eps times its degree
    reach = eps * float(np.max(g.degrees()))

    def solve(f: np.ndarray, x0: np.ndarray | None = None):
        scale = max(float(np.max(np.abs(f))), reach)
        if not np.isfinite(4.0 * scale):  # bounds every |f_v - f_u| and |g_v - g_u|
            raise ValidationError(f"the p = 1 resolvent at eps = {eps:g} is past the float range")
        s = np.sign(f[iv] - f[iu])
        free = s == 0
        tol = KKT_TOL * scale
        steps = 0
        while True:
            while free.any():
                steps += 1
                # random graphs settle within 1.4 E steps; far past that the
                # active set is cycling on roundoff
                if steps > 4 * iu.size + 10:
                    raise SolverError(
                        f"p = 1 active set did not settle within {steps - 1} steps")
                idx = np.flatnonzero(free)
                z = np.linalg.lstsq(A[:, idx], -(f + A[:, ~free] @ s[~free]),
                                    rcond=None)[0]
                crossed = np.abs(z) >= 1.0
                if not crossed.any():
                    s[idx] = z
                    break
                bound = np.sign(z[crossed])
                zc, sc = z[crossed], s[idx[crossed]]
                # only a just-freed sign can sit on its bound (z == s: no move)
                alphas = np.divide(bound - sc, zc - sc, out=np.zeros_like(zc),
                                   where=zc != sc)
                first = int(np.argmin(alphas))
                s[idx] += alphas[first] * (z - s[idx])
                hit = idx[np.flatnonzero(crossed)[first]]
                s[hit] = bound[first]
                free[hit] = False
            sol = f + A @ s
            # a bound sign against the slope breaks optimality: free the
            # steepest such edge
            against = -s * (sol[iv] - sol[iu])
            wrong = ~free & (against > tol)
            if not wrong.any():
                break
            free[int(np.argmax(np.where(wrong, coef * against, 0.0)))] = True
        return sol, steps, s

    return solve


def _require_constant_measure(g: WeightedGraph, why: str) -> None:
    m = g.measure
    if np.max(m) - np.min(m) > CONST_MEASURE_TOL * max(1.0, float(np.max(m))):
        raise ValidationError(
            f"{why} needs a constant vertex measure (rescale inputs); "
            f"measure ranges over [{np.min(m):g}, {np.max(m):g}]")


def _checked_input(g: WeightedGraph, f: np.ndarray, eps: float) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,) or not np.all(np.isfinite(f)):
        raise ValidationError(f"f must be {g.n} finite values")
    _require_eps(eps)
    return f


class _Resolvent:
    """J_eps at one (graph, p, eps), checked (eps, p) and set up once;
    ``solve(f, x0)`` maps a finite f to (J_eps f, inner steps, edge dual
    or None)."""

    def __init__(self, g: WeightedGraph, p: float, eps: float):
        _require_eps(eps)
        _require_p(p)
        self.graph, self.p, self.eps = g, p, eps
        if p == 2:
            A = np.eye(g.n) - eps * laplacian_matrix(g)
            self.method, self.solve = "linear", lambda f, x0=None: (np.linalg.solve(A, f), 0, None)
            if A.max() > 1e3:
                # eps deg swamps the identity: J, the m-weighted mean on each
                # component, lifts the kernel of L to eigenvalue 1 + eps
                J = np.zeros((g.n, g.n))
                for comp in connected_components(g):
                    J[np.ix_(comp, comp)] = g.measure[comp] / np.sum(g.measure[comp])
                lifted = A + eps * J
                self.solve = lambda f, x0=None: (
                    np.linalg.solve(lifted, f) + eps / (1.0 + eps) * (J @ f), 0, None)
            return
        _require_constant_measure(g, f"the p = {p:g} resolvent")
        if p == 1:
            self.method, self.solve = "tv-dual-active-set", _resolvent_tv(g, eps)
        elif p < 2:
            self.method, self.solve = "conjugate-dual-newton", _conjugate_dual(g, p, eps)
        else:
            self.method, self.solve = "variational", _minimize_prox(g, eps, PhiSpec.power(p))

    def solution(self, f: np.ndarray, x0: np.ndarray | None = None) -> ResolventSolution:
        """``solve`` plus the fixed-point residual (and p = 1 selection)."""
        g, selection = self.graph, None
        sol, steps, s = self.solve(f, x0)
        if self.p == 1:
            iu, iv, _ = _edges(g)
            selection = np.zeros((g.n, g.n))
            selection[iu, iv], selection[iv, iu] = s, -s
            lap = np.sum(g.weights * selection, axis=1) / g.measure
        elif self.p == 2:
            lap = laplacian_apply(g, sol)
        else:
            lap = p_laplacian(g, sol, self.p)
        residual = float(np.max(np.abs(sol - self.eps * lap - f)))
        return ResolventSolution(g=sol, residual=residual, subgradient_selection=selection,
                                 iterations=steps, method=self.method)


def resolvent(g: WeightedGraph, f: np.ndarray, p: float, eps: float, *,
              x0: np.ndarray | None = None) -> ResolventSolution:
    """J_eps f = (id - eps Delta_p)^(-1) f.

    p = 2 solves the linear system (any vertex measure; "linear"); the
    rest need a constant measure: p > 2 runs damped Newton on the primal
    ("variational"), 1 < p < 2 on the conjugate dual
    ("conjugate-dual-newton"), p = 1 the exact active set
    ("tv-dual-active-set").  ``x0`` warm-starts the Newton solves
    (the dual from s = c phi_p(D x0), except near p = 1; see
    ``_conjugate_dual``); the exact p = 1 and p = 2 solves ignore it.
    Checks f, then p.  ``_Resolvent`` builds what depends on (graph, p,
    eps) alone (edges, measure check, I - eps L, the p = 1 matrix, D and
    eps D D^T, PhiSpec.power(p)) once; the chain steps of
    ``separation_flow_p`` reuse one per eps stage and skip the residual.

    The fixed-point residual ||g - eps Delta_p g - f||_inf is always
    reported; for p = 1 the solution carries the antisymmetric edge sign
    selection realizing it.  As p -> 1 the residual is ill-conditioned,
    |t|^(p-1) having an infinite slope at 0: at eps = 0.1 it reaches
    5e-2 at p = 1.05 on random graphs whose g is right to 1e-11.  For
    1 < p < 2 the accuracy statement is the Fenchel duality gap, which
    every returned g meets.
    """
    f = _checked_input(g, f, eps)
    return _Resolvent(g, p, eps).solution(f, x0)


def _conjugate_dual(g: WeightedGraph, p: float, eps: float):
    """1 < p < 2: solve(f, x0) = (the prox, Newton steps, s), from the dual.

    With c_e = w_e / m0, q = p/(p - 1) and (D x)_e = x_v - x_u on each
    edge e = (u, v), J_eps f = f - eps D^T s, where s minimizes
    sum_e c_e |s_e/c_e|^q / q - <s, D f> + eps ||D^T s||^2 / 2
    (Rockafellar, Convex Analysis, Section 31).  The power term is taken
    in sigma = s/c (c^(1-q) overflows for q near 20), so the gradient
    phi_q(sigma) - D g is in edge-gradient units and the Hessian
    eps D D^T + diag((q - 1) |sigma|^(q-2) / c) stays bounded on flat
    edges.  The start is s = c phi_p(D x0), x0 defaulting to f; within
    1e-6 of p = 1, where phi_p sends flat edges into the wall of
    |sigma|^q, it is the p = 1 signs, the q -> oo limit.  Newton stops
    when the gradient is at most 1e-12 max(1, max|f|) + 1e-13 q max|D f|
    (phi_q(sigma) carries about q ulps of error) and the Fenchel gap
    P(g) + D(s) = sum_e c_e (|t_e|^p/p + |sigma_e|^q/q - sigma_e t_e),
    t = D g, which bounds ||g - J_eps f||^2 / (2 eps), is at most
    GAP_TOL max(1, P(g)) plus 1e-14 sum_e |s_e| max_v (|f_v| +
    eps sum_{e at v} |s_e|), the roundoff of g; SolverError otherwise.
    The E x E Newton system makes the cost grow like E^3 and the memory
    like E^2: this suits sparse graphs.
    """
    iu, iv, c = _edges(g)
    D = np.eye(g.n)[iv] - np.eye(g.n)[iu]
    q = p / (p - 1.0)
    phi_p, phi_q = PhiSpec.power(p), PhiSpec.power(q)
    gram = eps * (D @ D.T)
    gram_diag, abs_d = gram.diagonal().copy(), np.abs(D)
    signs = _resolvent_tv(g, eps) if p - 1.0 <= 1e-6 else None

    def hess(a: np.ndarray) -> np.ndarray:
        H = gram.copy()
        np.fill_diagonal(H, gram_diag + phi_q.derivative(a) / c)
        return H

    def solve(f: np.ndarray, x0: np.ndarray | None = None):
        df = D @ f
        grad_tol = (1e-12 * max(1.0, float(np.abs(f).max()))
                    + 1e-13 * q * float(np.abs(df).max(initial=0.0)))

        def evaluate(s: np.ndarray):
            sigma = s / c
            a, u = np.abs(sigma), s @ D
            power, half = a ** q / q, eps * (u @ u) / 2

            def converged(gnorm: float, last) -> bool:
                if gnorm > grad_tol:
                    return False
                t = D @ (f - eps * u)
                energy = float(c @ phi_p.primitive(t))
                gap = energy + float(c @ (power - sigma * t))
                floor = float(np.abs(s).sum() * np.max(np.abs(f) + eps * (np.abs(s) @ abs_d)))
                return gap <= GAP_TOL * max(1.0, energy + half) + 1e-14 * floor

            return (float(c @ power - s @ df + half),
                    lambda: np.sign(sigma) * a ** (q - 1) - df + gram @ s,
                    lambda: hess(a), converged)

        s0 = c * (signs(f)[2] if signs else phi_p(D @ (f if x0 is None else x0)))
        # a trial step far out overflows |sigma|^q; the damping rejects it
        with np.errstate(over="ignore"):
            s, steps = _lm_newton(s0, evaluate)
        return f - eps * (s @ D), steps, s

    return solve


def resolvent_phi(g: WeightedGraph, f: np.ndarray, phi: PhiSpec,
                  eps: float) -> ResolventSolution:
    """(id - eps Delta_phi)^(-1) f for a general odd increasing phi."""
    f = _checked_input(g, f, eps)
    if phi.kind == "p-power":
        return resolvent(g, f, phi.p, eps)
    _require_constant_measure(g, "the Delta_phi resolvent")
    sol, iters, _ = _minimize_prox(g, eps, phi)(f)
    residual = float(np.max(np.abs(sol - eps * phi_laplacian(g, sol, phi) - f)))
    return ResolventSolution(g=sol, residual=residual, iterations=iters,
                             method="variational")


# ---------------------------------------------------------------------------
# Lipschitz decay


@dataclass(frozen=True)
class DecayBound:
    lhs: float
    rhs: float
    holds: bool
    eps_used: float
    lip_before: float
    kappa_min: float


def lipschitz_decay_bound(g: WeightedGraph, f: np.ndarray, phi: PhiSpec,
                          eps: float, K: float | None = None) -> DecayBound:
    """Check Lip(J_eps f) <= Lip(f) (1 + eps phi(Lip f) K / Lip f)^(-1).

    Lipschitz constants are taken over edges of the combinatorial
    distance, and the bound holds with a slack of 1e-8.  K defaults to
    the verified minimum of the modified curvature over all edges (and
    may not exceed it).  When the
    positivity precondition 1 + eps phi(L) K / L fails, eps is halved
    until it holds; the effective eps is reported.
    """
    f = np.asarray(f, dtype=float)
    d0, slack = combinatorial_metric(g), 1e-8
    kappa_min = curvature_report(g, d0, kind=f"phi-{phi.shape}").min
    if K is None:
        K = kappa_min
    elif K > kappa_min + 1e-12:
        raise ValidationError(
            f"K = {K:g} exceeds the verified curvature minimum {kappa_min:g}")

    lip_f = lipschitz_constant(f, d0, "edges-only")
    if lip_f == 0.0:
        sol = resolvent_phi(g, f, phi, eps)
        lhs = lipschitz_constant(sol.g, d0, "edges-only")
        return DecayBound(lhs=lhs, rhs=0.0, holds=lhs <= slack,
                          eps_used=eps, lip_before=0.0, kappa_min=kappa_min)

    eps_used = eps
    for _ in range(80):
        denom = 1.0 + eps_used * float(phi(lip_f)) * K / lip_f
        if denom > 0:
            break
        eps_used /= 2.0
    else:
        raise ValidationError("could not satisfy the positivity precondition")

    sol = resolvent_phi(g, f, phi, eps_used)
    lhs = lipschitz_constant(sol.g, d0, "edges-only")
    rhs = lip_f / denom
    return DecayBound(lhs=lhs, rhs=rhs, holds=lhs <= rhs + slack,
                      eps_used=eps_used, lip_before=lip_f, kappa_min=kappa_min)
