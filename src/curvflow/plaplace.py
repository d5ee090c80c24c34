"""Energy functionals, p-Laplace operators, resolvents, and the
Lipschitz-decay estimate for their resolvents.

The resolvent J_eps = (id - eps Delta_p)^(-1) is computed variationally:
with a constant vertex measure, Delta_p is -1/p times the gradient of
the energy, so J_eps f minimizes E_p(g)/p + ||g - f||^2 / (2 eps).  For
p > 1 damped Newton finds the minimizer; for p = 2 the linear system
(id - eps Delta) g = f is solved directly and works for any vertex
measure.  The set-valued p = 1 case is solved exactly: its dual is a
box-constrained least-squares problem in the edge signs, solved by a
finite active set, and the optimal signs are the edge sign selection.
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
# damped Newton steps per inner solve (the workloads need at most 7)
MAX_INNER = 200
# optimality slack of the p = 1 active set, relative to the scale of g
KKT_TOL = 1e-13
CONST_MEASURE_TOL = 1e-12


def _require_p(p: float) -> None:
    if not (np.isfinite(p) and p >= 1):
        raise ValidationError(f"p must be finite and at least 1, got {p}")


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
# inner solvers


def _edge_arrays(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    iu, iv = np.nonzero(np.triu(g.weights, k=1) > 0)
    return iu, iv, g.weights[iu, iv]


def _minimize_prox(g: WeightedGraph, f: np.ndarray, eps: float,
                   value1: Callable[[np.ndarray], np.ndarray],
                   deriv1: Callable[[np.ndarray], np.ndarray],
                   prim1: Callable[[np.ndarray], np.ndarray],
                   grad_tol: float = GRAD_TOL,
                   x0: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Minimize sum_edges (w/m0) Prim(grad) + ||g - f||^2 / (2 eps).

    value1/deriv1/prim1 are the scalar nonlinearity, its derivative, and
    its primitive on edge gradients.  The objective is strongly convex
    and smooth for every p > 1 kernel passed here, so damped Newton
    (``_lm_newton``) alone drives the gradient norm to ``grad_tol``;
    failing that within ``MAX_INNER`` steps raises SolverError.
    """
    m0 = float(g.measure[0])
    iu, iv, w = _edge_arrays(g)
    coef = w / m0
    n = g.n

    def grad_obj(x: np.ndarray) -> np.ndarray:
        out = (x - f) / eps
        s = coef * value1(x[iv] - x[iu])
        np.subtract.at(out, iu, s)
        np.add.at(out, iv, s)
        return out

    def obj(x: np.ndarray) -> float:
        reg = float(np.sum(coef * prim1(x[iv] - x[iu])))
        return reg + float(np.sum((x - f) ** 2)) / (2 * eps)

    def hess(xv: np.ndarray) -> np.ndarray:
        H = np.zeros((n, n))
        dvals = deriv1(xv[iv] - xv[iu]) * coef
        np.add.at(H, (iu, iu), dvals)
        np.add.at(H, (iv, iv), dvals)
        np.add.at(H, (iu, iv), -dvals)
        np.add.at(H, (iv, iu), -dvals)
        H[np.diag_indices(n)] += 1.0 / eps
        return H

    if iu.size == 0:
        return f.copy(), 0
    x = f.copy() if x0 is None else x0.copy()
    x, reached, steps = _lm_newton(x, obj, grad_obj, hess, grad_tol)
    if not reached:
        raise SolverError(
            f"resolvent inner solver failed to reach gradient norm {grad_tol:g} "
            f"within {steps} Newton steps")
    return x, steps


def _lm_newton(x, obj, grad_obj, hess, grad_tol):
    """Levenberg-Marquardt damped Newton.

    Damping makes every accepted step a descent step, which rides out
    the large curvature of the regularized 1 < p < 2 kernels near a zero
    edge gradient; near the optimum the damping vanishes and convergence
    is quadratic.  At the resolution limit of the objective, steps that
    still shrink the gradient norm are accepted.  Returns (point,
    reached, steps_used).
    """
    x = x.copy()
    fx = obj(x)
    gx = grad_obj(x)
    gnorm = float(np.max(np.abs(gx)))
    mu = 0.0
    for step in range(MAX_INNER):
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
    return x, gnorm <= grad_tol, MAX_INNER


def _resolvent_tv(g: WeightedGraph, f: np.ndarray, eps: float) -> ResolventSolution:
    """p = 1: the graph total-variation prox, exactly, from its dual.

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
    _require_constant_measure(g, "the p = 1 resolvent")
    iu, iv, w = _edge_arrays(g)
    edges = np.arange(iu.size)
    coef = w / float(g.measure[0])
    A = np.zeros((g.n, iu.size))
    A[iu, edges] = eps * coef
    A[iv, edges] = -eps * coef
    s = np.sign(f[iv] - f[iu])
    free = s == 0
    # g - f = A s moves a vertex by at most eps times its degree
    tol = KKT_TOL * max(float(np.max(np.abs(f))), eps * float(np.max(g.degrees())))
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
    selection = np.zeros((g.n, g.n))
    selection[iu, iv] = s
    selection[iv, iu] = -s
    achieved = np.sum(g.weights * selection, axis=1) / g.measure
    residual = float(np.max(np.abs(sol - eps * achieved - f)))
    return ResolventSolution(g=sol, residual=residual,
                             subgradient_selection=selection,
                             iterations=steps, method="tv-dual-active-set")


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
    if not (np.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be finite and positive, got {eps}")
    return f


def resolvent(g: WeightedGraph, f: np.ndarray, p: float, eps: float, *,
              method: str = "auto",
              x0: np.ndarray | None = None) -> ResolventSolution:
    """J_eps f = (id - eps Delta_p)^(-1) f.

    For p = 2 the linear system is solved directly (any vertex measure);
    the other paths require a constant measure.  ``method`` forces
    "linear" or "variational" for cross-checking; "auto" picks the
    linear solve exactly when p = 2.  ``x0`` warm-starts the Newton
    solves from a nearby solution; the exact p = 1 and p = 2 solves do
    not use it.  The fixed-point residual
    ||g - eps Delta_p g - f||_inf is always reported; for p = 1 the
    solution carries the antisymmetric edge sign selection realizing it.
    """
    f = _checked_input(g, f, eps)
    _require_p(p)
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
        return _resolvent_tv(g, f, eps)

    _require_constant_measure(g, f"the p = {p:g} resolvent")
    if p < 2:
        sol, iters, method = _solve_subquadratic(g, f, p, eps, x0)
    else:
        phi = PhiSpec.power(p)
        sol, iters = _minimize_prox(
            g, f, eps, value1=phi, deriv1=phi.derivative, prim1=phi.primitive,
            x0=x0)
        method = "variational"
    residual = float(np.max(np.abs(sol - eps * p_laplacian(g, sol, p) - f)))
    return ResolventSolution(g=sol, residual=residual, iterations=iters,
                             method=method)


def _solve_subquadratic(g: WeightedGraph, f: np.ndarray, p: float, eps: float,
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
                                     prim1=prim, x0=x0)
            return sol, it, "regularized-variational"
        except SolverError:
            pass
    sol = f.copy() if x0 is None else x0.copy()
    iters = 0
    delta = 1e-2
    while True:
        val, der, prim = stage(delta)
        stage_tol = GRAD_TOL if delta <= 1e-15 else 1e-8
        sol, it = _minimize_prox(g, f, eps, value1=val, deriv1=der, prim1=prim,
                                 grad_tol=stage_tol, x0=sol)
        iters += it
        if delta <= 1e-15:
            return sol, iters, "regularized-variational"
        delta = max(delta * 1e-2, 1e-15)


def resolvent_phi(g: WeightedGraph, f: np.ndarray, phi: PhiSpec,
                  eps: float) -> ResolventSolution:
    """(id - eps Delta_phi)^(-1) f for a general odd increasing phi."""
    f = _checked_input(g, f, eps)
    if phi.kind == "p-power":
        return resolvent(g, f, phi.p, eps)
    _require_constant_measure(g, "the Delta_phi resolvent")
    sol, iters = _minimize_prox(
        g, f, eps, value1=phi, deriv1=phi.derivative, prim1=phi.primitive)
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
