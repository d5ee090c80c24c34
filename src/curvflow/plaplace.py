"""Energy functionals, p-Laplace operators, resolvents, and the
Lipschitz-decay estimate for their resolvents.

The resolvent J_eps = (id - eps Delta_p)^(-1) is computed variationally:
with a constant vertex measure, Delta_p is -1/p times the gradient of
the energy, so J_eps f minimizes E_p(g)/p + ||g - f||^2 / (2 eps).  The
minimizer is found by accelerated gradient descent (strong convexity
1/eps, backtracking) with a Newton polish for the last digits; for p = 2
the linear system (id - eps Delta) g = f is solved directly and works
for any vertex measure.  The set-valued p = 1 case runs the same scheme
on a pseudo-Huber smoothing with width decreasing to 1e-9 and recovers
the edge sign selection from the smoothed optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import curvature_report
from .errors import SolverError, ValidationError
from .graphs import (
    DistanceMatrix,
    WeightedGraph,
    combinatorial_metric,
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

GRAD_TOL = 1e-10
CONST_MEASURE_TOL = 1e-12


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
        if p < 1:
            raise ValidationError(f"p must be at least 1, got {p}")
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
        if self.kind == "p-power":
            if self.p == 2:
                return np.ones_like(t)
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
    if p < 1:
        raise ValidationError(f"p must be at least 1, got {p}")
    f = np.asarray(f, dtype=float)
    diff = np.abs(f[None, :] - f[:, None])
    return float(0.5 * np.sum((g.weights / g.measure[:, None]) * diff ** p))


def p_laplacian(g: WeightedGraph, f: np.ndarray, p: float):
    """Delta_p f for p > 1; for p = 1 a membership test for the
    set-valued Delta_1 f (candidate value plus edge sign selection)."""
    if p < 1:
        raise ValidationError(f"p must be at least 1, got {p}")
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
               tol: float = 1e-7, zero_tol: float = 1e-6) -> tuple[bool, str]:
        """Check selection s_xy in sign(f(y) - f(x)), s antisymmetric,
        and h(x) = (1/m) sum w s_xy, each within tolerance."""
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
            if grad[u, v] > zero_tol and abs(val - 1.0) > tol:
                return False, f"selection at ({u}, {v}) must be 1 on a positive gradient"
            if grad[u, v] < -zero_tol and abs(val + 1.0) > tol:
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
# inner solver


def _edge_arrays(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    iu, iv = np.nonzero(np.triu(g.weights, k=1) > 0)
    return iu, iv, g.weights[iu, iv]


def _minimize_prox(g: WeightedGraph, f: np.ndarray, eps: float,
                   value1: Callable[[np.ndarray], np.ndarray],
                   deriv1: Callable[[np.ndarray], np.ndarray],
                   prim1: Callable[[np.ndarray], np.ndarray],
                   grad_tol: float, max_inner: int,
                   x0: np.ndarray | None = None,
                   stall_tol: float = 1e-6) -> tuple[np.ndarray, int]:
    """Minimize sum_edges (w/m0) Prim(grad) + ||g - f||^2 / (2 eps).

    value1/deriv1/prim1 are the scalar nonlinearity, its derivative, and
    its primitive on edge gradients.  Accelerated descent with
    backtracking does the bulk of the work; a damped Newton polish
    brings the gradient norm down to ``grad_tol``.  When the iterate
    saturates double precision with a gradient below ``stall_tol``, the
    point is accepted — the fixed-point residual reported to callers
    stays honest either way.
    """
    m0 = float(g.measure[0])
    iu, iv, w = _edge_arrays(g)
    coef = w / m0
    n = g.n

    def grad_obj(x: np.ndarray) -> np.ndarray:
        out = (x - f) / eps
        if iu.size:
            s = coef * value1(x[iv] - x[iu])
            np.subtract.at(out, iu, s)
            np.add.at(out, iv, s)
        return out

    def obj(x: np.ndarray) -> float:
        reg = float(np.sum(coef * prim1(x[iv] - x[iu]))) if iu.size else 0.0
        return reg + float(np.sum((x - f) ** 2)) / (2 * eps)

    if iu.size == 0:
        return f.copy(), 0
    x = f.copy() if x0 is None else x0.copy()
    # the attainable gradient norm floor scales with the iterate's ulp
    stall_tol = stall_tol * max(1.0, float(np.max(np.abs(f))))

    def hess(xv: np.ndarray) -> np.ndarray:
        H = np.zeros((n, n))
        dvals = deriv1(xv[iv] - xv[iu]) * coef
        np.add.at(H, (iu, iu), dvals)
        np.add.at(H, (iv, iv), dvals)
        np.add.at(H, (iu, iv), -dvals)
        np.add.at(H, (iv, iu), -dvals)
        H[np.diag_indices(n)] += 1.0 / eps
        return H

    sigma = 1.0 / eps
    L = max(4.0 * sigma, 1.0)
    x_prev = x.copy()
    fx = obj(x)
    iters = 0
    best_gnorm = np.inf
    best_x = x.copy()
    no_progress = 0
    while iters < max_inner:
        x, reached, extra = _lm_newton(x, obj, grad_obj, hess, grad_tol)
        iters += max(extra, 1)
        if reached:
            return x, iters
        gnorm_now = float(np.max(np.abs(grad_obj(x))))
        if gnorm_now < 0.95 * best_gnorm:
            best_gnorm, best_x, no_progress = gnorm_now, x.copy(), 0
        else:
            no_progress += 1
            # double-precision floor: zero-gradient edges of the exact
            # power nonlinearity (and the final smoothing stages) cap
            # the representable gradient norm well above grad_tol; the
            # reported fixed-point residual stays honest either way
            if best_gnorm <= stall_tol and no_progress >= 3:
                return best_x, iters
        fx = obj(x)
        x_prev = x.copy()
        # accelerated descent burst before the next Newton attempt
        for _ in range(200):
            gx = grad_obj(x)
            gnorm = float(np.max(np.abs(gx)))
            if gnorm <= grad_tol:
                return x, iters
            q = min(sigma / L, 1.0)
            beta = (1 - np.sqrt(q)) / (1 + np.sqrt(q))
            y = x + beta * (x - x_prev)
            gy = grad_obj(y)
            fy = obj(y)
            while True:
                cand = y - gy / L
                fc = obj(cand)
                bound = fy - float(gy @ (y - cand)) \
                    + 0.5 * L * float(np.sum((y - cand) ** 2)) + 1e-15
                if fc <= bound or L > 1e18:
                    break
                L *= 2.0
            if fc > fx:  # adaptive restart on objective increase
                x_prev = x.copy()
                cand = x - grad_obj(x) / L
                fc = obj(cand)
            else:
                x_prev = x
            x, fx = cand, fc
            L = max(L * 0.9, sigma)
            iters += 1
            if iters >= max_inner:
                break
        gnorm_now = float(np.max(np.abs(grad_obj(x))))
        if gnorm_now < 0.95 * best_gnorm:
            best_gnorm, best_x, no_progress = gnorm_now, x.copy(), 0
    gx = grad_obj(x)
    if float(np.max(np.abs(gx))) <= grad_tol:
        return x, iters
    raise SolverError(
        f"resolvent inner solver failed to reach gradient norm {grad_tol:g} "
        f"within {max_inner} iterations")


def _lm_newton(x, obj, grad_obj, hess, grad_tol, max_steps: int = 200):
    """Levenberg-Marquardt damped Newton; keeps its best point.

    Damping makes every accepted step a descent step, which rides out
    the violently varying curvature of the smoothed p = 1 stages; near
    the optimum the damping vanishes and convergence is quadratic.  At
    the resolution limit of the objective, steps that still shrink the
    gradient norm are accepted.  Returns (point, reached, steps_used).
    """
    x = x.copy()
    fx = obj(x)
    gx = grad_obj(x)
    gnorm = float(np.max(np.abs(gx)))
    mu = 0.0
    for step in range(max_steps):
        if gnorm <= grad_tol:
            return x, True, step
        H = hess(x)
        base = float(np.max(np.diag(H)))
        ftol = 1e-14 * max(1.0, abs(fx))
        accepted = False
        for _ in range(60):
            try:
                direction = np.linalg.solve(H + mu * np.eye(x.size), gx)
            except np.linalg.LinAlgError:
                mu = max(2.0 * mu, 1e-12 * base)
                continue
            cand = x - direction
            fc = obj(cand)
            if fc <= fx:
                accepted = True
            elif fc <= fx + ftol:
                gc = grad_obj(cand)
                if float(np.max(np.abs(gc))) < gnorm:
                    accepted = True
            if accepted:
                x, fx = cand, fc
                gx = grad_obj(x)
                gnorm = float(np.max(np.abs(gx)))
                mu /= 3.0
                break
            mu = max(10.0 * mu, 1e-12 * base)
            if mu > 1e15 * base:
                break
        if not accepted:
            return x, False, step
    return x, gnorm <= grad_tol, max_steps


def _require_constant_measure(g: WeightedGraph, why: str) -> None:
    m = g.measure
    if np.max(m) - np.min(m) > CONST_MEASURE_TOL * max(1.0, float(np.max(m))):
        raise ValidationError(
            f"{why} needs a constant vertex measure (rescale inputs); "
            f"measure ranges over [{np.min(m):g}, {np.max(m):g}]")


def resolvent(g: WeightedGraph, f: np.ndarray, p: float, eps: float, *,
              method: str = "auto", grad_tol: float = GRAD_TOL,
              max_inner: int = 200_000,
              x0: np.ndarray | None = None) -> ResolventSolution:
    """J_eps f = (id - eps Delta_p)^(-1) f.

    For p = 2 the linear system is solved directly (any vertex measure);
    the variational path requires a constant measure.  ``method`` forces
    "linear" or "variational" for cross-checking; "auto" picks the
    linear solve exactly when p = 2.  The fixed-point residual
    ||g - eps Delta_p g - f||_inf is always reported; for p = 1 the
    solution carries the antisymmetric edge sign selection realizing it.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise ValidationError(f"f must have length {g.n}")
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if p < 1:
        raise ValidationError(f"p must be at least 1, got {p}")
    if method not in ("auto", "linear", "variational"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "linear" and p != 2:
        raise ValidationError("the linear solve applies only to p = 2")

    if p == 2 and method in ("auto", "linear"):
        A = np.eye(g.n) - eps * laplacian_matrix(g)
        sol = np.linalg.solve(A, f)
        residual = float(np.max(np.abs(sol - eps * laplacian_apply(g, sol) - f)))
        return ResolventSolution(g=sol, residual=residual, method="linear")

    if p == 1:
        return _resolvent_tv(g, f, eps, grad_tol, max_inner, x0=x0)

    _require_constant_measure(g, f"the p = {p:g} resolvent")
    if p < 2:
        sol, iters, method = _solve_subquadratic(g, f, p, eps, grad_tol,
                                                 max_inner, x0)
    else:
        phi = PhiSpec.power(p)
        sol, iters = _minimize_prox(
            g, f, eps, value1=phi, deriv1=phi.derivative, prim1=phi.primitive,
            grad_tol=grad_tol, max_inner=max_inner, x0=x0)
        method = "variational"
    residual = float(np.max(np.abs(sol - eps * p_laplacian(g, sol, p) - f)))
    return ResolventSolution(g=sol, residual=residual, iterations=iters,
                             method=method)


def _solve_subquadratic(g: WeightedGraph, f: np.ndarray, p: float, eps: float,
                        grad_tol: float, max_inner: int,
                        x0: np.ndarray | None) -> tuple[np.ndarray, int, str]:
    """1 < p < 2 by a regularized-kernel homotopy.

    The exact kernel |t|^(p-2) t has unbounded curvature at 0, which
    makes Newton crawl whenever an edge gradient sits near zero; the
    regularization t (t^2 + delta^2)^((p-2)/2) bounds it by
    delta^(p-2).  Driving delta to 1e-15 keeps the kernel error
    O(delta^(p-1)) below 1e-9, negligible against the residual budget.
    """
    def stage(dl: float):
        def val(t, dl=dl):
            return t * (t * t + dl * dl) ** ((p - 2.0) / 2.0)

        def der(t, dl=dl):
            return ((t * t + dl * dl) ** ((p - 4.0) / 2.0)
                    * ((p - 1.0) * t * t + dl * dl))

        def prim(t, dl=dl):
            return ((t * t + dl * dl) ** (p / 2.0) - dl ** p) / p

        return val, der, prim

    if x0 is not None:
        # a warm start usually lands straight in the final stage's basin
        val, der, prim = stage(1e-15)
        try:
            sol, it = _minimize_prox(g, f, eps, value1=val, deriv1=der,
                                     prim1=prim, grad_tol=grad_tol,
                                     max_inner=4000, x0=x0)
            return sol, it, "regularized-variational"
        except SolverError:
            pass
    sol = f.copy() if x0 is None else x0.copy()
    iters = 0
    delta = 1e-2
    while True:
        val, der, prim = stage(delta)
        stage_tol = grad_tol if delta <= 1e-15 else max(grad_tol, 1e-8)
        sol, it = _minimize_prox(g, f, eps, value1=val, deriv1=der, prim1=prim,
                                 grad_tol=stage_tol, max_inner=max_inner,
                                 x0=sol)
        iters += it
        if delta <= 1e-15:
            return sol, iters, "regularized-variational"
        delta = max(delta * 1e-2, 1e-15)


def _resolvent_tv(g: WeightedGraph, f: np.ndarray, eps: float,
                  grad_tol: float, max_inner: int,
                  x0: np.ndarray | None = None) -> ResolventSolution:
    """p = 1 resolvent by pseudo-Huber smoothing with decreasing width."""
    _require_constant_measure(g, "the p = 1 resolvent")

    def stage(dl: float):
        def val(t, dl=dl):
            return t / np.sqrt(t * t + dl * dl)

        def der(t, dl=dl):
            return dl * dl / (t * t + dl * dl) ** 1.5

        def prim(t, dl=dl):
            return np.sqrt(t * t + dl * dl) - dl

        return val, der, prim

    sol = None
    iters = 0
    if x0 is not None:
        val, der, prim = stage(1e-9)
        try:
            sol, iters = _minimize_prox(g, f, eps, value1=val, deriv1=der,
                                        prim1=prim, grad_tol=grad_tol,
                                        max_inner=4000, x0=x0)
        except SolverError:
            sol = None
    if sol is None:
        sol = f.copy() if x0 is None else x0.copy()
        delta = 0.1
        while True:
            val, der, prim = stage(delta)
            stage_tol = grad_tol if delta <= 1e-9 else max(grad_tol, 1e-8)
            sol, it = _minimize_prox(g, f, eps, value1=val, deriv1=der,
                                     prim1=prim, grad_tol=stage_tol,
                                     max_inner=max_inner, x0=sol)
            iters += it
            if delta <= 1e-9:
                break
            delta = max(delta / 10.0, 1e-9)
    delta = 1e-9

    grad = sol[None, :] - sol[:, None]
    selection = np.where(g.weights > 0,
                         grad / np.sqrt(grad * grad + delta * delta), 0.0)
    achieved = np.sum(g.weights * selection, axis=1) / g.measure
    residual = float(np.max(np.abs(sol - eps * achieved - f)))
    return ResolventSolution(g=sol, residual=residual,
                             subgradient_selection=selection,
                             iterations=iters, method="smoothed-tv")


def resolvent_phi(g: WeightedGraph, f: np.ndarray, phi: PhiSpec, eps: float, *,
                  grad_tol: float = GRAD_TOL,
                  max_inner: int = 200_000) -> ResolventSolution:
    """(id - eps Delta_phi)^(-1) f for a general odd increasing phi."""
    f = np.asarray(f, dtype=float)
    if phi.kind == "p-power":
        return resolvent(g, f, phi.p, eps, grad_tol=grad_tol, max_inner=max_inner)
    _require_constant_measure(g, "the Delta_phi resolvent")
    sol, iters = _minimize_prox(
        g, f, eps, value1=phi, deriv1=phi.derivative, prim1=phi.primitive,
        grad_tol=grad_tol, max_inner=max_inner)
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
                          eps: float, K: float | None = None, *,
                          slack: float = 1e-8,
                          d0: DistanceMatrix | None = None) -> DecayBound:
    """Check Lip(J_eps f) <= Lip(f) (1 + eps phi(Lip f) K / Lip f)^(-1).

    Lipschitz constants are taken over edges of the combinatorial
    distance.  K defaults to the verified minimum of the modified
    curvature over all edges (and may not exceed it).  When the
    positivity precondition 1 + eps phi(L) K / L fails, eps is halved
    until it holds; the effective eps is reported.
    """
    f = np.asarray(f, dtype=float)
    if d0 is None:
        d0 = combinatorial_metric(g)
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
