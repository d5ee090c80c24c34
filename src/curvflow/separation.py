"""Separation geometry on partitions V = X | K | Y without X-Y edges.

The extremal Lipschitz extension S pushes a 1-Lipschitz function on K
maximally toward X and minimally toward Y.  Composing S with a lazy
Laplacian step, a p-Laplace resolvent, or any chain with nonnegative
transport curvature and iterating on K drives the system to a state
whose "Laplacian" (P - id) is constant on K, at least that constant on
X, and at most it on Y.

Ric_r measures the worst-case Lipschitz amplification of a chain on
Lip-r functions; for linear chains the exact value comes from per-pair
Wasserstein distances of the kernel rows, attained by the Kantorovich
potential of the worst pair, while sampling plus coordinate ascent
bounds it for nonlinear chains.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chains import (
    CONVERGED,
    ChainOperator,
    IterationResult,
    _rng,
    iterate_normalized,
)
from .curvature import _evaluator
from .errors import (
    DisconnectedError,
    InfeasibleError,
    PreconditionError,
    SolverError,
    ValidationError,
)
from .graphs import (
    DistanceMatrix,
    WeightedGraph,
    laplacian_apply,
    shortest_path_metric,
)
from .plaplace import GAP_TOL, PhiSpec, _Resolvent
from .transport import ProbMeasure, _certify, _solve

__all__ = [
    "PartitionXKY",
    "SeparationResult",
    "SeparationPResult",
    "RicBounds",
    "lipschitz_extend",
    "separation_flow_linear",
    "separation_flow_p",
    "separation_flow_generic",
    "ric_r",
]

SIGN_TOL = 1e-12
# coordinate-ascent sweeps per sampled start in ric_r
RIC_SWEEPS = 200
# a p-flow stage's Newton start stops at max|R| <= NEWTON_STOP x tol, so the
# chain's test at tol certifies it in one step, and gives up after
# NEWTON_STEPS steps or NEWTON_HALVINGS halvings of one step
NEWTON_STOP = 1e-3
NEWTON_STEPS = 40
NEWTON_HALVINGS = 20


@dataclass(frozen=True)
class PartitionXKY:
    """Vertex partition with a finite nonempty cut set K and no X-Y edges."""

    x_set: tuple[int, ...]
    k_set: tuple[int, ...]
    y_set: tuple[int, ...]

    @classmethod
    def build(cls, g: WeightedGraph, x_set, k_set, y_set) -> "PartitionXKY":
        """Sorted sets of integer vertex ids (bools and floats are
        rejected), validated for g."""
        sets = [list(s) for s in (x_set, k_set, y_set)]
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral)
               for s in sets for v in s):
            raise ValidationError("partition entries must be integer vertex ids")
        part = cls(*(tuple(sorted(int(v) for v in s)) for s in sets))
        part.validate_for(g)
        return part

    def validate_for(self, g: WeightedGraph) -> None:
        all_ids = sorted(self.x_set + self.k_set + self.y_set)
        if all_ids != list(range(g.n)):
            raise ValidationError("partition must cover every vertex exactly once")
        if not self.k_set:
            raise ValidationError("the cut set K must be nonempty")
        for x in self.x_set:
            for y in self.y_set:
                if g.weights[x, y] > 0:
                    raise ValidationError(f"edge ({x}, {y}) joins X to Y")

    def check_distance_factorization(self, d: DistanceMatrix,
                                     tol: float = 1e-9) -> bool:
        """d(x, y) = min_k d(x, k) + d(k, y) for all x in X, y in Y."""
        ks = np.array(self.k_set)
        for x in self.x_set:
            for y in self.y_set:
                through = float(np.min(d.values[x, ks] + d.values[ks, y]))
                if not np.isclose(through, d.values[x, y], rtol=0.0, atol=tol):
                    return False
        return True

    def k_index(self, vertex: int) -> int:
        try:
            return self.k_set.index(vertex)
        except ValueError:
            raise ValidationError(f"vertex {vertex} is not in K") from None


def _check_lip_on_k(part: PartitionXKY, d: DistanceMatrix, f: np.ndarray,
                    tol: float = 1e-9) -> None:
    ks = part.k_set
    for i, a in enumerate(ks):
        for j, b in enumerate(ks):
            dab = d.values[a, b]
            if np.isfinite(dab) and f[j] - f[i] > dab + tol:
                raise ValidationError(
                    f"f leaves Lip(1, K): f({b}) - f({a}) = {f[j] - f[i]:g} "
                    f"> d = {dab:g}")


def _start_on_k(part: PartitionXKY, d: DistanceMatrix, f0: np.ndarray | None,
                x0: int | None, tol: float) -> tuple[np.ndarray, int]:
    """A separation flow's start on K (zero by default, checked to be |K|
    finite values in Lip(1, K)) and the K index of its base vertex (K's
    first by default).  Rejects a tol that is not finite and positive."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    f0 = np.zeros(len(part.k_set)) if f0 is None else np.asarray(f0, dtype=float)
    if f0.shape != (len(part.k_set),) or not np.isfinite(f0).all():
        raise ValidationError(f"f0 must be {len(part.k_set)} finite values on K")
    _check_lip_on_k(part, d, f0)
    return f0, part.k_index(part.k_set[0] if x0 is None else x0)


def _extension(part: PartitionXKY, d: DistanceMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """S on finite f on K, d's columns to K taken once; a call names the first
    X, then Y, vertex with no finite distance to K in a DisconnectedError."""
    ks, xs = np.array(part.k_set), np.array(part.x_set, dtype=np.intp)
    to_k = d.values[:, ks]
    to_k_x, reach = to_k[xs], np.isfinite(to_k).any(axis=1)
    cut = [v for v in part.x_set + part.y_set if not reach[v]]

    def extend(f: np.ndarray) -> np.ndarray:
        if cut:
            raise DisconnectedError(f"vertex {cut[0]} has no finite distance to K")
        # on 4-6 vertices this beats loops per vertex and np.ix_ fan-outs
        out = np.minimum.reduce(f + to_k, axis=1)
        out[xs] = np.maximum.reduce(f - to_k_x, axis=1)
        out[ks] = f
        return out

    return extend


def lipschitz_extend(part: PartitionXKY, d: DistanceMatrix, f: np.ndarray, *,
                     validate: bool = True, tol: float = 1e-9) -> np.ndarray:
    """Extremal extension: f on K, min_K (f + d) on Y, max_K (f - d) on X.

    Requires finite f in Lip(1, K) (checked unless ``validate`` is off,
    with the violating pair reported) and every X or Y vertex at finite
    distance from K.  The result is 1-Lipschitz on all of V.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (len(part.k_set),) or not np.isfinite(f).all():
        raise ValidationError(f"f must be {len(part.k_set)} finite values, one per K vertex")
    if validate:
        _check_lip_on_k(part, d, f, tol)
    return _extension(part, d)(f)


@dataclass
class SeparationResult:
    g_on_k: np.ndarray | None
    extension: np.ndarray | None
    laplacian_constant: float | None
    spread_on_k: float | None
    sign_min_x: float | None
    sign_max_y: float | None
    status: str
    iterations: int
    growth_constant: float | None
    curvature_verified: bool
    waived: bool
    engine: IterationResult


def _k_statistics(part: PartitionXKY, values: np.ndarray
                  ) -> tuple[float, float, float | None, float | None]:
    """(constant, spread_on_k, sign_min_x, sign_max_y) of per-vertex values:
    their mean and spread on K, min over X and max over Y minus the mean."""
    on_k = values[np.array(part.k_set)]
    constant = float(np.mean(on_k))
    spread = float(np.max(on_k) - np.min(on_k))
    sign_min_x = (float(np.min(values[np.array(part.x_set)]) - constant)
                  if part.x_set else None)
    sign_max_y = (float(np.max(values[np.array(part.y_set)]) - constant)
                  if part.y_set else None)
    return constant, spread, sign_min_x, sign_max_y


def _iterate_on_k(part: PartitionXKY, d: DistanceMatrix,
                  step: Callable[[np.ndarray], np.ndarray], f0: np.ndarray,
                  x0k: int, tol: float, max_iter: int) -> IterationResult:
    """The normalized orbit of fk -> step(S fk)|_K from f0 on K."""
    ks, extend = np.array(part.k_set), _extension(part, d)

    def apply(fk: np.ndarray) -> np.ndarray:
        return step(extend(fk))[ks]

    return iterate_normalized(ChainOperator(len(ks), apply), f0, x0k, tol, max_iter)


def _newton_on_k(part: PartitionXKY, d: DistanceMatrix,
                 step: Callable[[np.ndarray], np.ndarray], f0: np.ndarray,
                 x0k: int, tol: float) -> tuple[np.ndarray | None, int]:
    """Damped Newton on R(f) = (T f - f) - (T f - f)[x0], T f = step(S f)|_K,
    over f's coordinates off x0 from f0 - f0[x0]: (the point, its steps), or
    (None, 0) if Newton took no step, failed or left Lip(1, K).  The
    difference Jacobian costs one step per free coordinate, each differenced
    to the side on which S draws every X and Y value from the same K vertex,
    so no column straddles a kink of S.  The step solves the difference
    system by least squares, so an exactly singular Jacobian (a flat edge
    at p > 2) still yields one; its fraction t is taken if it lowers max|R|
    by 1 - t/2."""
    ks, extend, unit = np.array(part.k_set), _extension(part, d), np.eye(len(part.k_set))
    free = np.delete(np.arange(len(ks)), x0k)
    to_x, to_y = (d.values[np.ix_(np.array(vs, dtype=np.intp), ks)]
                  for vs in (part.x_set, part.y_set))

    def source(f: np.ndarray) -> np.ndarray:  # the K vertex S takes each value from
        return np.concatenate([np.argmax(f - to_x, axis=1), np.argmin(f + to_y, axis=1)])

    def residual(f: np.ndarray) -> np.ndarray:
        lf = step(extend(f))[ks] - f
        return lf - lf[x0k]

    f, steps = f0 - f0[x0k], 0
    try:
        r = residual(f)
        while np.abs(r).max() > NEWTON_STOP * tol and steps < NEWTON_STEPS:
            # well above the roundoff of the Newton resolvents, about 1e-12
            h = 1e-7 * max(1.0, float(np.abs(f).max()))
            base = source(f)
            sides = [-h if (source(f + h * unit[j]) != base).any() else h for j in free]
            jac = np.column_stack([(residual(f + s * unit[j]) - r)[free] / s
                                   for j, s in zip(free, sides)])
            move = np.zeros_like(f)
            move[free] = np.linalg.lstsq(jac, -r[free], rcond=None)[0]
            if not move.any():
                break  # a zero Jacobian (as at p = 1): no halving can help
            for k in range(NEWTON_HALVINGS):
                r_new = residual(f + move)
                if np.abs(r_new).max() <= (1.0 - 0.5 ** (k + 1)) * np.abs(r).max():
                    break
                move /= 2.0
            else:
                break  # a stall: no halving lowered max|R| enough
            f, r, steps = f + move, r_new, steps + 1
        _check_lip_on_k(part, d, f)
    except (SolverError, ValidationError, np.linalg.LinAlgError):
        return None, 0
    return (f, steps) if steps else (None, 0)


def _separation_result(part: PartitionXKY, d: DistanceMatrix,
                       result: IterationResult,
                       delta: Callable[[np.ndarray], np.ndarray],
                       verified: bool, waived: bool, validate: bool) -> SeparationResult:
    """On convergence, the limit's extension (checked in Lip(1, K) to 1e-6
    if ``validate``) and the K statistics of ``delta`` of it."""
    g_on_k = extension = None
    stats = (None,) * 4
    if result.status == CONVERGED:
        g_on_k = result.limit
        extension = lipschitz_extend(part, d, g_on_k, validate=validate, tol=1e-6)
        stats = _k_statistics(part, delta(extension))
    constant, spread, sign_min_x, sign_max_y = stats
    return SeparationResult(
        g_on_k=g_on_k, extension=extension, laplacian_constant=constant,
        spread_on_k=spread, sign_min_x=sign_min_x, sign_max_y=sign_max_y,
        status=result.status, iterations=result.iterations,
        growth_constant=result.growth_constant, curvature_verified=verified,
        waived=waived, engine=result)


def _require_nonnegative(g: WeightedGraph, kind: str, label: str,
                         d: DistanceMatrix | None = None) -> None:
    """Curvature sign gate: the first edge, in edge order, whose curvature
    of ``kind`` is below -SIGN_TOL or undefined (an infeasible modified
    curvature LP) fails it."""
    hint = "pass waive_curvature=True to run anyway"
    kappa = _evaluator(g, kind, d)
    try:
        for u, v in g.edges():
            if (k := kappa(u, v)) < -SIGN_TOL:
                raise PreconditionError(
                    f"{label} is negative at edge ({u}, {v}): {k:g}; {hint}")
    except InfeasibleError as exc:
        # the message of the LP names the edge
        raise PreconditionError(f"{label} is undefined: {exc}; {hint}") from exc


def separation_flow_linear(g: WeightedGraph, part: PartitionXKY, eps: float,
                           f0: np.ndarray | None = None,
                           x0: int | None = None, tol: float = 1e-9, *,
                           max_iter: int = 100_000,
                           waive_curvature: bool = False) -> SeparationResult:
    """Iterate ((id + eps Laplacian) S)|_K to the constant-Laplacian state.

    Needs diag(id + eps Laplacian) positive (eps deg(x) < 1 everywhere)
    and nonnegative Ollivier curvature on every edge, verified up front
    unless explicitly waived (the waiver is echoed in the result).  On
    convergence, Laplacian(S g) is constant on K within tolerance, at
    least that constant on X and at most it on Y.
    """
    part.validate_for(g)
    if not (eps > 0 and eps * float(np.max(g.degrees())) < 1.0):  # NaN fails too
        raise ValidationError(
            "eps must be finite and positive with eps * deg(x) < 1 at every vertex")
    d = shortest_path_metric(g)
    f0, x0k = _start_on_k(part, d, f0, x0, tol)
    verified = False
    if not waive_curvature:
        _require_nonnegative(g, "ollivier", "Ollivier curvature", d)
        verified = True

    def step(full: np.ndarray) -> np.ndarray:
        return full + eps * laplacian_apply(g, full)

    result = _iterate_on_k(part, d, step, f0, x0k, tol, max_iter)
    return _separation_result(part, d, result, lambda e: laplacian_apply(g, e),
                              verified, waive_curvature, not waive_curvature)


@dataclass
class SeparationPResult:
    h: np.ndarray | None
    g_sub: np.ndarray | None
    constant: float | None
    spread_on_k: float | None
    sign_min_x: float | None
    sign_max_y: float | None
    status: str
    stages: list[dict]
    curvature_verified: bool
    waived: bool
    defect_bound_coefficient: float | None
    selection: np.ndarray | None = None


def separation_flow_p(g: WeightedGraph, part: PartitionXKY, p: float,
                      eps: float = 0.1, f0: np.ndarray | None = None,
                      x0: int | None = None, tol: float = 1e-9, *,
                      max_iter: int = 100_000,
                      waive_curvature: bool = False) -> SeparationPResult:
    """Resolvent separation flow (J_eps S)|_K across a decreasing
    eps schedule.

    Each stage solves its fixed point T f = f + c 1 on K (T one chain
    step) by damped Newton from the previous stage's limit, then runs the
    chain from the Newton point; the chain's own test at tol certifies
    it, usually in one step, and decides the status.  Where Newton fails
    (as at p = 1, where its difference Jacobian is zero) or leaves
    Lip(1, K), the chain runs from the previous limit.  tol bounds the
    chain's last normalized step, the residual of T f = f + c 1, not the
    distance to the true limit.  Newton aims at a residual of 1e-3 tol;
    where it stalls above that, the chain certifies its point at tol
    alone.  A Newton step costs |K| - 1 solves for its difference
    Jacobian and one or more for its line search.
    The stage then computes h_eps = J_eps S f and the defect
    ||h_eps - S h_eps||, which decays at least linearly in eps; its row
    counts ``iterations`` (chain steps) and ``newton_steps``.  A stage
    builds its resolvent solver once; its Newton and chain steps solve
    warm from the stage's last g without a residual, its final solve cold.
    The final stage yields g in Delta_p(S h) constant on K with the X/Y
    sign pattern.  Needs nonnegative modified curvature for the shape of
    p (verified or waived).  tol may not fall below ``plaplace.GAP_TOL``:
    a smaller chain step is the resolvents' own roundoff.
    """
    part.validate_for(g)
    phi_shape = PhiSpec.power(p).shape  # p must be finite and at least 1
    if not (np.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be finite and positive, got {eps}")
    if 0 < tol < GAP_TOL:
        raise ValidationError(f"tol {tol:g} is below the p-flow's floor plaplace.GAP_TOL = "
                              f"{GAP_TOL:g}, the resolvents' own roundoff")
    d = shortest_path_metric(g)
    f0, x0k = _start_on_k(part, d, f0, x0, tol)
    verified = False
    if not waive_curvature:
        _require_nonnegative(g, f"phi-{phi_shape}", f"modified curvature ({phi_shape})")
        verified = True

    ks = np.array(part.k_set)
    stages: list[dict] = []
    current = f0
    warm: dict[float, np.ndarray] = {}
    for eps_k in [eps * 0.5 ** k for k in range(6)]:
        solver = _Resolvent(g, p, eps_k)

        def step(full: np.ndarray, eps_k=eps_k, solve=solver.solve) -> np.ndarray:
            warm[eps_k] = solve(full, warm.get(eps_k))[0]
            return warm[eps_k]

        start, newton_steps = _newton_on_k(part, d, step, current, x0k, tol)
        if start is None:  # the stage's usual start, solved as if Newton never ran
            start = current
            warm.pop(eps_k, None)
        result = _iterate_on_k(part, d, step, start, x0k, tol, max_iter)
        stage = {"eps": eps_k, "status": result.status, "iterations": result.iterations,
                 "newton_steps": newton_steps, "defect": None}
        stages.append(stage)
        if result.status != CONVERGED:
            return SeparationPResult(
                h=None, g_sub=None, constant=None, spread_on_k=None,
                sign_min_x=None, sign_max_y=None, status=result.status,
                stages=stages, curvature_verified=verified,
                waived=waive_curvature, defect_bound_coefficient=None)
        current = result.limit
        s_ftilde = lipschitz_extend(part, d, current,
                                    validate=not waive_curvature, tol=1e-6)
        sol = solver.solution(s_ftilde)
        s_h = lipschitz_extend(part, d, sol.g[ks], validate=False)
        stage.update(defect=float(np.max(np.abs(sol.g - s_h))), residual=sol.residual)

    # the last stage's solve: h = J_eps S f~ and the g in Delta_p(h) it
    # selects, read from the solve (Delta_p h itself is ill-conditioned
    # near flat edges as p approaches 1)
    h = sol.g
    g_sub = (h - s_ftilde) / eps_k
    constant, spread, sign_min_x, sign_max_y = _k_statistics(part, g_sub)
    coeff = max(s["defect"] / s["eps"] for s in stages)
    return SeparationPResult(
        h=h, g_sub=g_sub, constant=constant, spread_on_k=spread,
        sign_min_x=sign_min_x, sign_max_y=sign_max_y, status=CONVERGED,
        stages=stages, curvature_verified=verified, waived=waive_curvature,
        defect_bound_coefficient=coeff, selection=sol.subgradient_selection)


# ---------------------------------------------------------------------------
# curvature of abstract chains


@dataclass(frozen=True)
class RicBounds:
    """Linear chains: upper = lower, sampled_amplification the Kantorovich witness's."""

    lower: float
    upper: float
    sampled_amplification: float
    exact: bool


def ric_r(P: ChainOperator, d: DistanceMatrix, r: float, n_samples: int = 64,
          seed: int = 0) -> RicBounds:
    """Bounds on Ric_r(P, d) = 1 - sup_{Lip f <= r} Lip(Pf) / r.

    Linear chains: the sup is r max_{x != y} W(p(x,.), p(y,.)) / d(x, y)
    by Kantorovich duality (the lower bound), attained by f = r phi /
    Lip(phi) (the upper bound, equal to roundoff on a metric), phi the
    potential of the worst pair's optimal tree.  Nonlinear chains: seeded
    Lip-r samples (scaled to Lip r where d is not a metric) refined by
    coordinate ascent bound the sup from below, hence Ric_r from above;
    the lower bound is -inf.  One coordinate has no pair: Ric_r = 1.  r
    must be finite and positive with 2 r max(d) finite, n_samples >= 0,
    and the seed of the samples an integer >= 0.
    """
    if not (isinstance(r, numbers.Real) and np.isfinite(r) and r > 0):
        raise ValidationError(f"r must be finite and positive, got {r!r}")
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral) or n_samples < 0:
        raise ValidationError(f"n_samples must be an integer >= 0, got {n_samples!r}")
    n = P.dimension
    if d.n != n:
        raise ValidationError("distance matrix must match the chain dimension")
    if np.any(np.isinf(d.values)):
        raise DisconnectedError("Ric_r needs a connected distance matrix")
    if not np.isfinite(2 * r * float(np.max(d.values, initial=0.0))):
        raise ValidationError(f"r must keep 2 r max(d) finite, got r = {r!r}")
    if n < 2:
        return RicBounds(lower=1.0, upper=1.0, sampled_amplification=0.0, exact=True)
    iu, iv = np.triu_indices(n, k=1)
    pair_d = d.values[iu, iv]

    def lip(f: np.ndarray) -> float:
        return float(np.max(np.abs(f[iu] - f[iv]) / pair_d))

    def amplification(f: np.ndarray) -> float:
        return lip(P(f)) / r

    if P.kernel is not None:
        rows = [ProbMeasure(np.flatnonzero(k > 0), k[k > 0]) for k in P.kernel]
        worst = -1.0
        for x, y in zip(iu.tolist(), iv.tolist()):
            cost, tree, *_ = _solve(rows[x], rows[y], d)
            if cost / d.values[x, y] > worst:
                worst, witness = cost / d.values[x, y], (rows[x], rows[y], d, tree, cost)
        phi = _certify(*witness)[0]
        best = amplification(r * phi / (lip(phi) or 1.0))  # phi is constant only if W = 0
        if best - worst > 1e-9:  # beyond roundoff the transport LP and its duals disagree
            raise SolverError(f"witness amplification {best:g} exceeds exact {worst:g}")
        return RicBounds(lower=1.0 - worst, upper=max(1.0 - best, 1.0 - worst),
                         sampled_amplification=best, exact=True)

    def project_lip(raw: np.ndarray) -> np.ndarray:
        return np.max(raw[None, :] - r * d.values, axis=1)

    rng = _rng(seed)
    step, scale = r / 16.0, r * float(np.max(pair_d))
    starts = []
    for z in range(n):
        starts.append(r * d.values[z])
        starts.append(-r * d.values[z])
    for _ in range(n_samples):
        starts.append(project_lip(rng.uniform(-scale, scale, n)))

    best = 0.0
    for f in starts:
        # off a metric a start can exceed Lip r; the moves below keep Lip <= r
        if (lip_f := lip(f)) > r * (1.0 + 1e-12):
            f = f * (r / lip_f)
        current = amplification(f)
        for _ in range(RIC_SWEEPS):
            improved = False
            for i in range(n):
                others = np.arange(n) != i
                lo = float(np.max(f[others] - r * d.values[i, others]))
                hi = float(np.min(f[others] + r * d.values[i, others]))
                candidates = {lo, hi,
                              min(max(f[i] + step, lo), hi),
                              min(max(f[i] - step, lo), hi)}
                for cand in candidates:
                    if cand == f[i]:
                        continue
                    old = f[i]
                    f[i] = cand
                    val = amplification(f)
                    if val > current + 1e-15:
                        current = val
                        improved = True
                    else:
                        f[i] = old
            if not improved:
                break
        best = max(best, current)
    return RicBounds(lower=-np.inf, upper=1.0 - best,
                     sampled_amplification=best, exact=False)


def separation_flow_generic(P: ChainOperator, part: PartitionXKY,
                            d: DistanceMatrix,
                            f0: np.ndarray | None = None,
                            x0: int | None = None, tol: float = 1e-9, *,
                            max_iter: int = 100_000,
                            allow_unverified: bool = False) -> SeparationResult:
    """Separation flow of an abstract chain: iterate (P S)|_K.

    Gates on Ric_1(P, d) >= -tol, exact for a chain with a kernel.  A
    chain without one has no verifiable Ric_1 (no sampler is run), so
    the gate fails unless ``allow_unverified``.  The partition must
    factor distances through K.  On convergence, (P - id) of the
    extended limit is constant on K with the X/Y sign pattern.
    """
    if len(part.x_set + part.k_set + part.y_set) != P.dimension:
        raise ValidationError("partition must cover the chain's coordinates")
    if not part.check_distance_factorization(d):
        raise ValidationError("d(x, y) must factor through K for x in X, y in Y")
    f0, x0k = _start_on_k(part, d, f0, x0, tol)
    bounds = ric_r(P, d, 1.0) if P.kernel is not None else None
    verified = bool(bounds is not None and bounds.lower >= -tol)
    if not verified and not allow_unverified:
        why = ("a chain without a kernel has no verifiable Ric_1" if bounds is None
               else f"Ric_1 lower bound {bounds.lower:g} is unverified or negative")
        raise PreconditionError(f"{why}; pass allow_unverified=True to run anyway")

    result = _iterate_on_k(part, d, P, f0, x0k, tol, max_iter)
    return _separation_result(part, d, result, lambda e: P(e) - e, verified,
                              allow_unverified and not verified, verified)
