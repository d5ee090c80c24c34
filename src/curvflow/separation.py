"""Separation geometry on partitions V = X | K | Y without X-Y edges.

The extremal Lipschitz extension S pushes a 1-Lipschitz function on K
maximally toward X and minimally toward Y.  Composing S with a lazy
Laplacian step, a p-Laplace resolvent, or any chain with nonnegative
transport curvature and iterating on K drives the system to a state
whose "Laplacian" (P - id) is constant on K, at least that constant on
X, and at most it on Y.

Ric_r measures the worst-case Lipschitz amplification of a chain on
Lip-r functions; for linear chains the exact value comes from per-pair
Wasserstein distances of the kernel rows, while sampling plus
coordinate ascent bounds it for arbitrary chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import (
    CONVERGED,
    ChainOperator,
    IterationResult,
    iterate_normalized,
)
from .curvature import _edge_curvatures
from .errors import (
    DisconnectedError,
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
from .plaplace import PhiSpec, p_laplacian, resolvent
from .transport import ProbMeasure, wasserstein

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


@dataclass(frozen=True)
class PartitionXKY:
    """Vertex partition with a finite nonempty cut set K and no X-Y edges."""

    x_set: tuple[int, ...]
    k_set: tuple[int, ...]
    y_set: tuple[int, ...]

    @classmethod
    def build(cls, g: WeightedGraph, x_set, k_set, y_set) -> "PartitionXKY":
        part = cls(tuple(sorted(x_set)), tuple(sorted(k_set)), tuple(sorted(y_set)))
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
                x0: int | None) -> tuple[np.ndarray, int]:
    """A separation flow's start on K (zero by default, checked to be in
    Lip(1, K)) and the K index of its base vertex (K's first by default)."""
    f0 = np.zeros(len(part.k_set)) if f0 is None else np.asarray(f0, dtype=float)
    _check_lip_on_k(part, d, f0)
    return f0, part.k_index(part.k_set[0] if x0 is None else x0)


def lipschitz_extend(part: PartitionXKY, d: DistanceMatrix, f: np.ndarray, *,
                     validate: bool = True, tol: float = 1e-9) -> np.ndarray:
    """Extremal extension: f on K, min_K (f + d) on Y, max_K (f - d) on X.

    Requires f in Lip(1, K) (checked unless ``validate`` is off, with the
    violating pair reported) and every X or Y vertex at finite distance
    from K.  The result is 1-Lipschitz on all of V.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (len(part.k_set),):
        raise ValidationError(f"f must have one value per K vertex, got {f.shape}")
    if validate:
        _check_lip_on_k(part, d, f, tol)
    ks = np.array(part.k_set)
    out = np.empty(d.n)
    out[ks] = f
    for x in part.x_set:
        vals = f - d.values[x, ks]
        top = float(np.max(vals))
        if not np.isfinite(top):
            raise DisconnectedError(f"vertex {x} has no finite distance to K")
        out[x] = top
    for y in part.y_set:
        vals = f + d.values[y, ks]
        low = float(np.min(vals))
        if not np.isfinite(low):
            raise DisconnectedError(f"vertex {y} has no finite distance to K")
        out[y] = low
    return out


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
    lip_trace: list[float] = field(default_factory=list)


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


def _finish_linear_like(part: PartitionXKY, result: IterationResult,
                        delta_values: np.ndarray | None,
                        verified: bool, waived: bool,
                        lip_trace: list[float],
                        g_on_k: np.ndarray | None,
                        extension: np.ndarray | None) -> SeparationResult:
    """Result of a converged flow (all of g_on_k, extension and
    delta_values given) or of one that stopped early (all three None)."""
    constant, spread, sign_min_x, sign_max_y = (
        (None,) * 4 if delta_values is None else _k_statistics(part, delta_values))
    return SeparationResult(
        g_on_k=g_on_k, extension=extension, laplacian_constant=constant,
        spread_on_k=spread, sign_min_x=sign_min_x, sign_max_y=sign_max_y,
        status=result.status, iterations=result.iterations,
        growth_constant=result.growth_constant, curvature_verified=verified,
        waived=waived, engine=result, lip_trace=lip_trace)


def _require_nonnegative(g: WeightedGraph, kind: str, label: str,
                         d: DistanceMatrix | None = None) -> None:
    """Curvature sign gate: the first edge, in edge order, whose curvature
    of ``kind`` is below -SIGN_TOL fails it."""
    for (u, v), k in _edge_curvatures(g, kind, d):
        if k < -SIGN_TOL:
            raise PreconditionError(
                f"{label} is negative at edge ({u}, {v}): {k:g}; "
                "pass waive_curvature=True to run anyway")


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
    degs = g.degrees()
    if eps <= 0 or eps * float(np.max(degs)) >= 1.0:
        raise ValidationError(
            "eps must be positive with eps * deg(x) < 1 at every vertex")
    d = shortest_path_metric(g)
    verified = False
    if not waive_curvature:
        _require_nonnegative(g, "ollivier", "Ollivier curvature", d)
        verified = True

    ks = np.array(part.k_set)
    f0, x0k = _start_on_k(part, d, f0, x0)

    lip_trace: list[float] = []
    d_on_k = d.values[np.ix_(ks, ks)]

    def apply(fk: np.ndarray) -> np.ndarray:
        full = lipschitz_extend(part, d, fk, validate=False)
        out = full + eps * laplacian_apply(g, full)
        res = out[ks]
        diffs = np.abs(res[:, None] - res[None, :])
        with np.errstate(invalid="ignore"):
            ratios = np.where(d_on_k > 0, diffs / d_on_k, 0.0)
        lip_trace.append(float(np.nanmax(ratios)) if ratios.size else 0.0)
        return res

    chain = ChainOperator(dimension=len(part.k_set), apply=apply,
                          declared={"monotone": None, "strictly-monotone": None,
                                    "constant-additive": None},
                          name="laplacian separation flow")
    result = iterate_normalized(chain, f0, x0k, tol, max_iter)
    delta_vals = None
    g_on_k = extension = None
    if result.status == CONVERGED:
        g_on_k = result.limit
        extension = lipschitz_extend(part, d, g_on_k,
                                     validate=not waive_curvature, tol=1e-6)
        delta_vals = laplacian_apply(g, extension)
    return _finish_linear_like(part, result, delta_vals, verified,
                               waive_curvature, lip_trace, g_on_k, extension)


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
                      eps_schedule: list[float] | None = None,
                      max_iter: int = 100_000,
                      waive_curvature: bool = False) -> SeparationPResult:
    """Resolvent separation flow (J_eps S)|_K across a decreasing
    eps schedule.

    Each stage runs the chain at its eps to the normalized limit (warm
    started from the previous stage), computes h_eps = J_eps S f and the
    defect ||h_eps - S h_eps||, which decays at least linearly in eps.
    The final stage yields g in Delta_p(S h) constant on K with the X/Y
    sign pattern.  Needs nonnegative modified curvature for the shape of
    p (verified or waived).
    """
    part.validate_for(g)
    if p < 1:
        raise ValidationError(f"p must be at least 1, got {p}")
    phi_shape = PhiSpec.power(p).shape
    verified = False
    if not waive_curvature:
        _require_nonnegative(g, f"phi-{phi_shape}", f"modified curvature ({phi_shape})")
        verified = True

    d = shortest_path_metric(g)
    ks = np.array(part.k_set)
    f0, x0k = _start_on_k(part, d, f0, x0)
    schedule = eps_schedule or [eps * 0.5 ** k for k in range(6)]

    stages: list[dict] = []
    current = f0
    h_last = None
    sel_last = None
    ftilde_last = None
    eps_last = schedule[-1]
    status = CONVERGED
    warm: dict[float, np.ndarray] = {}
    for eps_k in schedule:
        def apply(fk: np.ndarray, eps_k=eps_k) -> np.ndarray:
            full = lipschitz_extend(part, d, fk, validate=False)
            sol = resolvent(g, full, p, eps_k, x0=warm.get(eps_k))
            warm[eps_k] = sol.g
            return sol.g[ks]

        chain = ChainOperator(dimension=len(part.k_set), apply=apply,
                              declared={"monotone": None,
                                        "strictly-monotone": None,
                                        "constant-additive": None},
                              name=f"resolvent separation flow (p={p:g})")
        result = iterate_normalized(chain, current, x0k, tol, max_iter)
        if result.status != CONVERGED:
            status = result.status
            stages.append({"eps": eps_k, "status": result.status,
                           "iterations": result.iterations, "defect": None})
            break
        ftilde = result.limit
        s_ftilde = lipschitz_extend(part, d, ftilde,
                                    validate=not waive_curvature, tol=1e-6)
        sol = resolvent(g, s_ftilde, p, eps_k)
        h = sol.g
        s_h = lipschitz_extend(part, d, h[ks], validate=False)
        defect = float(np.max(np.abs(h - s_h)))
        stages.append({"eps": eps_k, "status": result.status,
                       "iterations": result.iterations, "defect": defect,
                       "residual": sol.residual})
        current = ftilde
        h_last, ftilde_last, eps_last = h, s_ftilde, eps_k
        sel_last = sol.subgradient_selection

    if status != CONVERGED or h_last is None:
        return SeparationPResult(
            h=None, g_sub=None, constant=None, spread_on_k=None,
            sign_min_x=None, sign_max_y=None, status=status, stages=stages,
            curvature_verified=verified, waived=waive_curvature,
            defect_bound_coefficient=None)

    if p == 1:
        g_sub = (h_last - ftilde_last) / eps_last
    else:
        g_sub = p_laplacian(g, h_last, p)
    constant, spread, sign_min_x, sign_max_y = _k_statistics(part, g_sub)
    coeff = max(s["defect"] / s["eps"] for s in stages if s["defect"] is not None)
    return SeparationPResult(
        h=h_last, g_sub=g_sub, constant=constant, spread_on_k=spread,
        sign_min_x=sign_min_x, sign_max_y=sign_max_y, status=status,
        stages=stages, curvature_verified=verified, waived=waive_curvature,
        defect_bound_coefficient=coeff, selection=sel_last)


# ---------------------------------------------------------------------------
# curvature of abstract chains


@dataclass(frozen=True)
class RicBounds:
    lower: float
    upper: float
    sampled_amplification: float
    exact: bool


def ric_r(P: ChainOperator, d: DistanceMatrix, r: float, n_samples: int = 64,
          seed: int = 0, *, sweeps: int = 200,
          step: float | None = None) -> RicBounds:
    """Bounds on Ric_r(P, d) = 1 - sup_{Lip f <= r} Lip(Pf) / r.

    Sampling seeded Lip-r functions (distance cones plus random
    McShane-projected draws) and refining each by coordinate ascent on
    Lip(Pf) lower-bounds the sup, hence upper-bounds Ric_r.  For linear
    chains the sup is exactly r max_{x != y} W(p(x,.), p(y,.)) / d(x, y)
    by Kantorovich duality, reported as the lower bound; otherwise the
    lower bound is -inf (unverified).
    """
    if r <= 0:
        raise ValidationError("r must be positive")
    n = P.dimension
    if d.n != n:
        raise ValidationError("distance matrix must match the chain dimension")
    if np.any(np.isinf(d.values)):
        raise DisconnectedError("Ric_r needs a connected distance matrix")
    step = r / 16.0 if step is None else step
    iu, iv = np.triu_indices(n, k=1)
    pair_d = d.values[iu, iv]

    def amplification(f: np.ndarray) -> float:
        pf = P(f)
        return float(np.max(np.abs(pf[iu] - pf[iv]) / pair_d)) / r

    def project_lip(raw: np.ndarray) -> np.ndarray:
        return np.max(raw[None, :] - r * d.values, axis=1)

    rng = np.random.default_rng(seed)
    scale = r * float(np.max(pair_d)) if pair_d.size else r
    starts = []
    for z in range(n):
        starts.append(r * d.values[z])
        starts.append(-r * d.values[z])
    for _ in range(n_samples):
        starts.append(project_lip(rng.uniform(-scale, scale, n)))

    best = 0.0
    for f in starts:
        f = f.copy()
        current = amplification(f)
        for _ in range(sweeps):
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

    upper = 1.0 - best
    if P.kernel is None:
        return RicBounds(lower=-np.inf, upper=upper,
                         sampled_amplification=best, exact=False)

    worst = 0.0
    rows: list[ProbMeasure] = []
    for x in range(n):
        supp = np.flatnonzero(P.kernel[x] > 0)
        rows.append(ProbMeasure(supp, P.kernel[x, supp]))
    for x in range(n):
        for y in range(x + 1, n):
            cost, _ = wasserstein(rows[x], rows[y], d)
            worst = max(worst, cost / d.values[x, y])
    lower = 1.0 - worst
    if upper < lower:
        # the sample can only undershoot the true sup; anything beyond
        # roundoff means the transport LP and the sampler disagree
        if lower - upper > 1e-9:
            raise SolverError(
                f"sampled amplification {best:g} exceeds the exact value "
                f"{worst:g} beyond tolerance")
        upper = lower
    return RicBounds(lower=lower, upper=upper,
                     sampled_amplification=best, exact=True)


def separation_flow_generic(P: ChainOperator, part: PartitionXKY,
                            d: DistanceMatrix,
                            f0: np.ndarray | None = None,
                            x0: int | None = None, tol: float = 1e-9, *,
                            max_iter: int = 100_000, ric_samples: int = 32,
                            seed: int = 0,
                            allow_unverified: bool = False) -> SeparationResult:
    """Separation flow of an abstract chain: iterate (P S)|_K.

    Gates on a verified Ric_1(P, d) >= 0 (exact for linear chains; for
    nonlinear chains the bound is unverifiable and the gate fails unless
    ``allow_unverified``).  The partition must factor distances through
    K.  On convergence, (P - id) of the extended limit is constant on K
    with the X/Y sign pattern.
    """
    if len(part.x_set + part.k_set + part.y_set) != P.dimension:
        raise ValidationError("partition must cover the chain's coordinates")
    if not part.check_distance_factorization(d):
        raise ValidationError("d(x, y) must factor through K for x in X, y in Y")
    bounds = ric_r(P, d, 1.0, n_samples=ric_samples, seed=seed)
    verified = bool(bounds.lower >= -tol)
    if not verified and not allow_unverified:
        raise PreconditionError(
            f"Ric_1 lower bound {bounds.lower:g} is unverified or negative; "
            "pass allow_unverified=True to run anyway")

    ks = np.array(part.k_set)
    f0, x0k = _start_on_k(part, d, f0, x0)

    def apply(fk: np.ndarray) -> np.ndarray:
        full = lipschitz_extend(part, d, fk, validate=False)
        return P(full)[ks]

    chain = ChainOperator(dimension=len(part.k_set), apply=apply,
                          name=f"generic separation flow ({P.name or 'P'})")
    result = iterate_normalized(chain, f0, x0k, tol, max_iter)
    delta_vals = None
    g_on_k = extension = None
    if result.status == CONVERGED:
        g_on_k = result.limit
        extension = lipschitz_extend(part, d, g_on_k, validate=verified, tol=1e-6)
        delta_vals = P(extension) - extension
    return _finish_linear_like(part, result, delta_vals, verified,
                               allow_unverified and not verified, [],
                               g_on_k, extension)
