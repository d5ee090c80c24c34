"""Ollivier-type curvatures of weighted graphs.

Covers the plain transport curvature kappa = 1 - W(mu_x, mu_y)/d(x, y),
its alpha-lazy variant, the Lin-Lu-Yau limit (slope of kappa^alpha at
alpha = 0), and the modified ball-transport curvature driving the
p-Laplace gradient estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .errors import SolverError, ValidationError
from .graphs import (
    DistanceMatrix,
    WeightedGraph,
    combinatorial_metric,
    connected_components,
    shortest_path_metric,
)
from .transport import ProbMeasure, constrained_transport_max, wasserstein

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


class CurvatureError(SolverError):
    """A curvature evaluation could not be completed reliably."""


def vertex_measure(g: WeightedGraph, x: int, alpha: float | None = None) -> ProbMeasure:
    """One-step distribution of the random walk at x.

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
        stay = max(1.0 - deg, 0.0)
        scale = 1.0
    else:
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
        if alpha * deg > 1.0 + DEG_TOL:
            raise ValidationError(
                f"alpha * deg = {alpha * deg:g} > 1 at vertex {x}")
        stay = max(1.0 - alpha * deg, 0.0)
        scale = alpha
    masses = {int(z): scale * g.weights[x, z] / g.measure[x]
              for z in g.neighbors(x) if scale > 0.0}
    if stay > DEG_TOL or not masses:
        masses[x] = masses.get(x, 0.0) + stay
    return ProbMeasure.from_dict(masses)


def ollivier_kappa(g: WeightedGraph, d: DistanceMatrix, x: int, y: int) -> float:
    """kappa(x, y) = 1 - W(mu_x, mu_y) / d(x, y)."""
    return kappa_alpha(g, d, x, y, None)


def kappa_alpha(g: WeightedGraph, d: DistanceMatrix, x: int, y: int,
                alpha: float | None) -> float:
    """alpha-lazy curvature 1 - W(mu_x^alpha, mu_y^alpha) / d(x, y).

    ``alpha=None`` uses the non-lazy measures (the Ollivier curvature).
    """
    if x == y:
        raise ValidationError("curvature needs two distinct vertices")
    dxy = d.value(x, y)
    cost, _ = wasserstein(vertex_measure(g, x, alpha), vertex_measure(g, y, alpha), d)
    return 1.0 - cost / dxy


def kappa_lly(g: WeightedGraph, d: DistanceMatrix, x: int, y: int, *,
              alpha: float = 1e-3, agree_tol: float = 1e-6) -> float:
    """Lin-Lu-Yau curvature as the slope of kappa^alpha at alpha = 0.

    kappa^alpha is piecewise linear and vanishes at alpha = 0, so the
    slope is read off at ``alpha`` and ``alpha/2``; the two values must
    agree within ``agree_tol`` (otherwise alpha sits beyond the first
    breakpoint — retry with a smaller alpha).
    """
    k1 = kappa_alpha(g, d, x, y, alpha) / alpha
    k2 = kappa_alpha(g, d, x, y, alpha / 2.0) / (alpha / 2.0)
    if abs(k1 - k2) > agree_tol:
        raise CurvatureError(
            f"kappa^alpha/alpha disagrees at alpha={alpha:g} ({k1:.9g}) and "
            f"alpha/2 ({k2:.9g}); retry with a smaller alpha")
    return k2


def modified_kappa_phi(g: WeightedGraph, x: int, y: int, phi_shape: str,
                       d0: DistanceMatrix | None = None) -> float:
    """Ball-transport curvature with the cycle exclusions of phi's shape.

    Convex phi forbids the diagonal of the plan (three-cycles); concave
    phi forbids hop-distance-2 cells off the anchors (five-cycles).  Uses
    the combinatorial distance.
    """
    if phi_shape not in ("convex", "concave"):
        raise ValidationError(f"phi_shape must be convex or concave, got {phi_shape!r}")
    if d0 is None:
        d0 = combinatorial_metric(g)
    forbid = "three-cycles" if phi_shape == "convex" else "five-cycles"
    value, _ = constrained_transport_max(x, y, g, d0, forbid)
    return value


class _Kind(NamedTuple):
    column: str  # the curvature command's table column
    metric: str  # "path" (edge lengths) or "combinatorial" (hop count)
    kappa: Callable[[WeightedGraph, DistanceMatrix, int, int, float | None], float]


# every curvature kind: (g, d, x, y, alpha) -> value on edge (x, y), with d
# the kind's metric; alpha is read by kind "alpha" only.  The entries look
# the public functions up by name on each call, so rebinding one of them
# on this module reaches every caller of the table.
KINDS: dict[str, _Kind] = {
    "ollivier": _Kind("kappa", "path",
                      lambda g, d, x, y, alpha: ollivier_kappa(g, d, x, y)),
    "alpha": _Kind("kappa_alpha", "path",
                   lambda g, d, x, y, alpha: kappa_alpha(g, d, x, y, alpha)),
    "lly": _Kind("kappa_lly", "path",
                 lambda g, d, x, y, alpha: kappa_lly(g, d, x, y)),
    "phi-convex": _Kind("khat_convex", "combinatorial",
                        lambda g, d, x, y, alpha: modified_kappa_phi(g, x, y, "convex", d)),
    "phi-concave": _Kind("khat_concave", "combinatorial",
                         lambda g, d, x, y, alpha: modified_kappa_phi(g, x, y, "concave", d)),
}


def _metric(g: WeightedGraph, name: str) -> DistanceMatrix:
    """The metric a kind names in its ``metric`` field."""
    return combinatorial_metric(g) if name == "combinatorial" else shortest_path_metric(g)


def _edge_curvatures(g: WeightedGraph, kind: str, d: DistanceMatrix | None = None,
                     alpha: float | None = None) -> Iterator[tuple[tuple[int, int], float]]:
    """Lazily yield ((u, v), curvature) for every edge, in edge order.

    ``kind`` and ``alpha`` are checked before any edge is evaluated; ``d``
    defaults to the kind's metric.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown curvature kind {kind!r}")
    if kind == "alpha" and alpha is None:
        raise ValidationError("kind='alpha' needs an alpha value")
    if d is None:
        d = _metric(g, KINDS[kind].metric)
    kappa = KINDS[kind].kappa
    return (((u, v), kappa(g, d, u, v, alpha)) for u, v in g.edges())


@dataclass(frozen=True)
class CurvatureReport:
    """Per-edge curvatures with per-component min/max/spread."""

    values: dict[tuple[int, int], float]
    component_stats: dict[int, tuple[float, float, float]]  # root -> (min, max, spread)

    @classmethod
    def from_values(cls, g: WeightedGraph,
                    values: dict[tuple[int, int], float]) -> "CurvatureReport":
        """Report on per-edge values; components without edges get no stats."""
        stats: dict[int, tuple[float, float, float]] = {}
        for comp in connected_components(g):
            cset = set(comp)
            inside = [values[e] for e in values if e[0] in cset]
            if inside:
                lo, hi = min(inside), max(inside)
                stats[comp[0]] = (lo, hi, hi - lo)
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
    return CurvatureReport.from_values(g, dict(_edge_curvatures(g, kind, d, alpha)))
