"""Ollivier-type curvatures of weighted graphs.

Covers the plain transport curvature kappa = 1 - W(mu_x, mu_y)/d(x, y),
its alpha-lazy variant, the Lin-Lu-Yau limit (the slope of kappa^alpha at
alpha = 0, read exactly off one optimal transport tree), and the modified
ball-transport curvature driving the p-Laplace gradient estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import CertificateError, SolverError, ValidationError
from .graphs import (
    DistanceMatrix,
    WeightedGraph,
    _component_groups,
    combinatorial_metric,
    shortest_path_metric,
)
from .transport import CERTIFY_TOL, ProbMeasure, _solve, _tree, constrained_transport_max

__all__ = [
    "CurvatureError",
    "CurvatureReport",
    "vertex_measure",
    "ollivier_kappa",
    "kappa_alpha",
    "kappa_lly",
    "modified_kappa_phi",
    "curvature_report",
]

DEG_TOL = 1e-12
LLY_ALPHA = 1e-3  # where kappa_lly makes its first solve


class CurvatureError(SolverError):
    """A curvature evaluation could not be completed reliably.  Nothing
    raises it since ``kappa_lly`` became exact; it stays importable."""


def vertex_measure(g: WeightedGraph, x: int, alpha: float | None = None) -> ProbMeasure:
    """One-step distribution of the random walk at x, built by array
    operations on x's weight row.

    With ``alpha=None`` each neighbor z gets w(x, z)/m(x) and the
    remainder 1 - deg(x) stays at x, which requires deg(x) <= 1.  With a
    numeric ``alpha`` the neighbor masses are scaled by alpha and
    1 - alpha deg(x) stays at x, which requires alpha deg(x) <= 1.
    """
    deg = g.degree(x)
    if alpha is None:
        if deg > 1.0 + DEG_TOL:
            raise ValidationError(
                f"vertex {x} has deg = {deg:g} > 1; the non-lazy measure needs deg <= 1")
        stay, scale = max(1.0 - deg, 0.0), 1.0
    else:
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
        if alpha * deg > 1.0 + DEG_TOL:
            raise ValidationError(
                f"alpha * deg = {alpha * deg:g} > 1 at vertex {x}")
        stay, scale = max(1.0 - alpha * deg, 0.0), alpha
    row = g.weights[x] > 0.0 if scale > 0.0 else np.zeros(g.n, dtype=bool)
    row[x] = stay > DEG_TOL or not row.any()  # w(x, x) = 0: x is no neighbour
    supp = np.flatnonzero(row)
    mass = scale * g.weights[x, supp] / g.measure[x]
    mass[supp == x] = stay  # the remainder, where x is in the support
    return ProbMeasure(supp, mass)


def ollivier_kappa(g: WeightedGraph, d: DistanceMatrix, x: int, y: int) -> float:
    """kappa(x, y) = 1 - W(mu_x, mu_y) / d(x, y)."""
    return _kappa_walk(g, d, None, _walks(g), x, y)


def kappa_alpha(g: WeightedGraph, d: DistanceMatrix, x: int, y: int,
                alpha: float | None) -> float:
    """alpha-lazy curvature 1 - W(mu_x^alpha, mu_y^alpha) / d(x, y).

    ``alpha=None`` uses the non-lazy measures (the Ollivier curvature).
    """
    return _kappa_walk(g, d, alpha, _walks(g), x, y)


def kappa_lly(g: WeightedGraph, d: DistanceMatrix, x: int, y: int, *,
              alpha: float = LLY_ALPHA) -> float:
    """Lin-Lu-Yau curvature -(dW/dalpha)/d(x, y), the slope of kappa^alpha at 0.

    One transport solve at ``alpha`` in (0, 1] gives it exactly: the tree
    duals do not depend on alpha and the tree flows are affine in it, with
    the single cell (x, y) at alpha = 0, so a tree holding (x, y) stays
    optimal on all of [0, alpha] and W is linear there.  A tree without
    (x, y) lies past the first breakpoint; alpha is then halved and the
    solve repeated cold.  dW/dalpha is the flow of the solver's own tree,
    peeled once more under the derivative supplies (w/m at the neighbours
    and -deg at x, minus the same for y).  Under ``transport_audit`` the
    potential phi that certified W certifies the slope too, by the
    limit-free formula: phi(x) - phi(y) = d(x, y) and
    Delta phi(x) - Delta phi(y) = dW/dalpha, else CertificateError.  A
    slope over d(x, y) past the float range is a ValidationError.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha}")
    return _kappa_lly(g, d, alpha, _walks(g), x, y)


def modified_kappa_phi(g: WeightedGraph, x: int, y: int, phi_shape: str,
                       d0: DistanceMatrix | None = None) -> float:
    """Ball-transport curvature with the cycle exclusions of phi's shape.

    Convex phi forbids the diagonal of the plan (three-cycles); concave
    phi forbids hop-distance-2 cells off the anchors (five-cycles).  Uses
    the combinatorial distance.
    """
    if phi_shape not in ("convex", "concave"):
        raise ValidationError(f"phi_shape must be convex or concave, got {phi_shape!r}")
    return _evaluator(g, f"phi-{phi_shape}", d0)(x, y)


def _walks(g: WeightedGraph) -> Callable[[int, float | None], ProbMeasure]:
    """walk(z, alpha) = ``vertex_measure(g, z, alpha)``, built once per graph
    in ``g._walk_measures`` (it holds no graph; ``with_lengths`` copies share
    it, as walks read no length).  Kind bodies take (g, d, alpha, walk, x, y)."""
    def walk(z: int, alpha: float | None, memo: dict = g._walk_measures) -> ProbMeasure:
        if (z, alpha) not in memo:
            memo[z, alpha] = vertex_measure(g, z, alpha)
        return memo[z, alpha]
    return walk


def _kappa_walk(g: WeightedGraph, d: DistanceMatrix, alpha: float | None, walk,
                x: int, y: int) -> float:
    """1 - W(mu_x^alpha, mu_y^alpha) / d(x, y); ``alpha=None`` is non-lazy."""
    if x == y:
        raise ValidationError("curvature needs two distinct vertices")
    dxy = d.value(x, y)
    return 1.0 - _solve(walk(x, alpha), walk(y, alpha), d)[0] / dxy


def _kappa_lly(g: WeightedGraph, d: DistanceMatrix, alpha: float, walk,
               x: int, y: int) -> float:
    """``kappa_lly`` from a first solve at ``alpha``."""
    if x == y:
        raise ValidationError("curvature needs two distinct vertices")
    while True:
        mu, nu = walk(x, alpha), walk(y, alpha)
        _, (_, _, flows), phi = _solve(mu, nu, d)
        sx, sy = mu.support.tolist(), nu.support.tolist()
        if x in sx and y in sy and (sx.index(x), sy.index(y)) in flows:
            break
        alpha /= 2.0
    rates = [sign * (g.weights[v, s] / g.measure[v] if s != v else -g.degree(v))
             for v, sign, support in ((x, 1.0, sx), (y, -1.0, sy)) for s in support]
    c = d.values[mu.support[:, None], nu.support].tolist()
    slope = sum(f * c[i][j] for (i, j), f in _tree(sorted(flows), c, rates)[2].items())
    if phi is not None:
        gaps = (phi[x] - phi[y] - d.value(x, y), np.dot(rates, phi[sx + sy]) - slope)
        if not all(abs(gap) <= CERTIFY_TOL * max(1.0, max(map(max, c))) for gap in gaps):
            raise CertificateError(f"no certificate of the LLY slope at ({x}, {y}): "
                                   f"gaps {gaps[0]:g}, {gaps[1]:g}")
    kappa = -float(slope) / float(d.value(x, y))
    if not np.isfinite(kappa):
        raise ValidationError(f"kappa_lly at ({x}, {y}) is past the float range: "
                              f"slope {slope:g} over d = {d.value(x, y):g}")
    return kappa


def _kappa_phi(forbid: str, g: WeightedGraph, d0: DistanceMatrix, alpha: None, walk,
               x: int, y: int) -> float:
    """The ball-transport maximum with the ``forbid`` exclusions."""
    return constrained_transport_max(x, y, g, d0, forbid)[0]


class _Kind(NamedTuple):
    column: str  # the curvature command's table column
    metric: str  # "path" (edge lengths) or "combinatorial" (hop count)
    body: Callable[..., float]
    alpha: float | None = None  # the body's alpha; kind "alpha" takes the caller's


KINDS: dict[str, _Kind] = {
    "ollivier": _Kind("kappa", "path", _kappa_walk),
    "alpha": _Kind("kappa_alpha", "path", _kappa_walk),
    "lly": _Kind("kappa_lly", "path", _kappa_lly, LLY_ALPHA),
    "phi-convex": _Kind("khat_convex", "combinatorial", partial(_kappa_phi, "three-cycles")),
    "phi-concave": _Kind("khat_concave", "combinatorial", partial(_kappa_phi, "five-cycles")),
}


def _evaluator(g: WeightedGraph, kind: str, d: DistanceMatrix | None = None,
               alpha: float | None = None) -> Callable[[int, int], float]:
    """The curvature of ``kind`` on g as a function of the edge (x, y), each
    walk measure built once.  ``kind`` and ``alpha`` are checked first;
    only kind "alpha" reads alpha, in [0, 1].  ``d`` defaults to the
    kind's metric."""
    if kind not in KINDS:
        raise ValidationError(f"unknown curvature kind {kind!r}")
    spec = KINDS[kind]
    if kind != "alpha":
        alpha = spec.alpha
    elif alpha is None or not 0.0 <= alpha <= 1.0:  # NaN fails too
        raise ValidationError(f"kind 'alpha' needs alpha in [0, 1], got {alpha}")
    if d is None:
        d = combinatorial_metric(g) if spec.metric == "combinatorial" else shortest_path_metric(g)
    return partial(spec.body, g, d, alpha, _walks(g))


@dataclass(frozen=True)
class CurvatureReport:
    """Per-edge curvatures with per-component min/max/spread."""

    values: dict[tuple[int, int], float]
    component_stats: dict[int, tuple[float, float, float]]  # root -> (min, max, spread)

    @classmethod
    def from_values(cls, g: WeightedGraph,
                    values: dict[tuple[int, int], float]) -> "CurvatureReport":
        """Report on per-edge values; components without edges get no stats."""
        return cls._from_groups(values, _component_groups(g, values))

    @classmethod
    def _from_groups(cls, values: dict[tuple[int, int], float],
                     groups: list[tuple]) -> "CurvatureReport":
        """Report on values whose edges ``graphs._component_groups`` grouped."""
        stats: dict[int, tuple[float, float, float]] = {}
        for root, edges, *_ in groups:
            inside = [values[e] for e in edges]
            lo, hi = min(inside), max(inside)
            stats[root] = (lo, hi, hi - lo)
        return cls(dict(values), stats)

    @property
    def min(self) -> float:
        return min((v[0] for v in self.component_stats.values()), default=0.0)

    @property
    def max(self) -> float:
        return max((v[1] for v in self.component_stats.values()), default=0.0)

    @property
    def max_spread(self) -> float:
        return max((v[2] for v in self.component_stats.values()), default=0.0)


def curvature_report(g: WeightedGraph, d: DistanceMatrix | None = None,
                     kind: str = "ollivier", alpha: float | None = None) -> CurvatureReport:
    """Curvature of every edge plus spread statistics per component.

    ``kind`` is one of "ollivier", "alpha" (needs ``alpha``), "lly",
    "phi-convex", "phi-concave"; ``d`` defaults to the kind's metric (the
    path metric, or the combinatorial one for the phi kinds).  Components
    without edges contribute no statistics.
    """
    kappa = _evaluator(g, kind, d, alpha)
    return CurvatureReport.from_values(g, {(u, v): kappa(u, v) for u, v in g.edges()})
