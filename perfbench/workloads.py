"""The four benchmark workloads: seeded inputs, one item, outcome check.

Every workload exposes the same three calls:

- ``make_item(k)`` builds the inputs of item ``k`` from ``(seed, k)``
  alone, so the same seed always yields the same item sequence.  Item 0
  of seed 0 is the untimed warm-up of every run.
- ``run(inputs)`` is the timed item.  It calls the library only through
  module attributes of ``curvflow`` so that the traced run's rebinding
  of those attributes sees every call.
- ``check(inputs, result)`` recomputes the outcome from public functions
  (never from a solver's own report) and returns ``None`` when the item
  is correct, or a one-line reason.  It runs outside the timed region.

``curvature`` and ``separation`` also define ``note(inputs, result)``: a
remark on a correct item that the run prints and counts but does not
fail (a ``kappa_lly`` retried at a smaller alpha, a ``ric_r`` bound
looser than criterion 8 asks).

Instance sizes follow a fixed schedule over ``k``; the seed varies only
the instances drawn at each size.  That keeps the mix of cheap and dear
items the same from seed to seed, which is what makes runs comparable.
"""

from __future__ import annotations

import json
import os

import numpy as np

import curvflow as cf
from curvflow import cli, plaplace
from curvflow.curvature import CurvatureError

import gen
from tracer import RESOLVENT_PS, RIC_GAP, membership_deviation

EPS = 0.1
# kappa_lly's default alpha, and the smallest it is retried at
LLY_ALPHA, LLY_ALPHA_MIN = 1e-3, 1e-6


class Flow:
    """In-process ``curvflow flow`` on a written graph file (the user path).

    Items sit at criterion-1 size (4-10 vertices, one size per position)
    except item ``BIG_ITEM``, a 23-vertex graph on which surgery deletes
    two edges.  That one is drawn from seed 0 whatever the run's seed: a
    flow at 20-30 vertices takes 0.6-7 s depending on the graph, so
    drawing it from the seed would move a run's busy time nearly as much
    as all its small items together.
    """

    name = "flow"
    BIG_ITEM, BIG_N = 10, 23

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.graph_path = os.path.join(workdir, "flow_graph.json")
        self.out_path = os.path.join(workdir, "flow_result.json")
        self.trace_path = os.path.join(workdir, "flow_trace.csv")

    def make_item(self, k: int):
        if self.tiny:
            seed, n = self.seed, 4 + k % 2
        elif k == self.BIG_ITEM:
            seed, n = 0, self.BIG_N
        else:
            seed, n = self.seed, 4 + k % 7
        g = gen.random_flow_graph(np.random.default_rng([seed, k]), n)
        gen.write_graph(g, self.graph_path)
        return g

    def run(self, g):
        return cli.main(["flow", self.graph_path, "--alpha", "0.5", "--tol", "1e-10",
                         "--trace", self.trace_path, "-o", self.out_path])

    def check(self, g, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        with open(self.out_path) as fh:
            res = json.load(fh)["results"]
        if res["status"] != "converged":
            return f"status {res['status']}"
        edges = []
        for lim in res["limits"].values():
            for key, length in lim.items():
                u, v = (int(t) for t in key.split("-"))
                edges.append((u, v, float(g.weights[u, v]), length))
        limit = cf.WeightedGraph.from_edges(g.n, edges, measure=g.measure)
        spread = cf.curvature_report(limit).max_spread
        if not spread < 1e-6:
            return f"limit curvature spread {spread:.3g}"
        return None


class Curvature:
    """Ollivier and Lin-Lu-Yau curvature of every edge under the audit.

    The LLY pass is the per-edge loop of ``curvature_report(kind="lly")``
    with the retry that ``kappa_lly`` asks for when its two slope samples
    disagree; without it the report aborts on about 0.7% of the graphs.

    Seven items in eight are random graphs of 20-100 vertices (size and
    extra edge draws fixed by the position); the eighth is a closed
    form: the triangle, K_n or C_n.
    """

    name = "curvature"
    SIZES = (20, 30, 40, 50, 60, 70, 80, 90, 100)
    TINY_SIZES = (6, 8)

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def make_item(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        if k % 8 == 7:
            w, ln = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
            form = (k // 8) % 3
            # (Ollivier, LLY) on every edge; the measures put no mass
            # at the centre, so Ollivier is 1 - W / d of uniform
            # neighbour measures
            if form == 0:
                return gen.complete_graph(3, w, ln), (0.5, 1.5)
            if form == 1:
                n = 4 + (k // 24) % 5
                return gen.complete_graph(n, w, ln), ((n - 2) / (n - 1), n / (n - 1))
            return gen.cycle_graph(6 + (k // 24) % 7, w, ln), (0.0, 0.0)
        sizes = self.TINY_SIZES if self.tiny else self.SIZES
        pos = k - k // 8  # position among the random graphs
        n = sizes[pos % len(sizes)]
        # n, 1.25 n, ..., 2n extra edge draws in turn over the rounds of
        # sizes: the edge count sets an item's cost as much as n does
        extra = n + n * ((pos // len(sizes)) % 5) // 4
        return gen.random_curvature_graph(rng, n, extra), None

    def run(self, inputs):
        g, _ = inputs
        with cf.transport_audit() as audit:
            ollivier = cf.curvature_report(g, kind="ollivier").values
            d = cf.shortest_path_metric(g)
            lly, retries = {}, 0
            for u, v in g.edges():
                # what curvature_report(kind="lly") does per edge, plus the
                # retry that kappa_lly's CurvatureError asks for: on the
                # failing edge only, at a ten times smaller alpha
                alpha = LLY_ALPHA
                while True:
                    try:
                        lly[(u, v)] = cf.kappa_lly(g, d, u, v, alpha=alpha)
                        break
                    except CurvatureError:
                        if alpha <= LLY_ALPHA_MIN:
                            raise
                        alpha /= 10.0
                        retries += 1
            return ollivier, lly, audit.count, retries

    def check(self, inputs, result) -> str | None:
        g, closed_form = inputs
        ollivier, lly, count, _ = result
        edges = list(g.edges())
        if set(ollivier) != set(edges) or set(lly) != set(edges):
            return "report does not cover every edge"
        # an LP the audit cannot certify raises CertificateError, which
        # fails the item; here only that the audit saw the LPs at all
        if count < 1:
            return "no LP went through the audit"
        if closed_form is not None:
            for kind, values, exact in zip(("Ollivier", "LLY"), (ollivier, lly),
                                           closed_form):
                worst = max(abs(v - exact) for v in values.values())
                if not worst <= 1e-9:
                    return f"{kind} off its closed form {exact:.9g} by {worst:.3g}"
        return None

    def note(self, inputs, result) -> str | None:
        retries = result[3]
        return f"kappa_lly retried {retries} time(s) at a smaller alpha" if retries else None


class Resolvent:
    """One cold ``resolvent(g, f, p, 0.1)``; p cycles over 1, 1, 1.5, 2,
    3, 3, 3.

    Item times cluster by p, decades apart (p = 2 fastest, then 3, 1.5
    and 1), and p = 1 solves are either quick (a few ms) or slow
    (0.1-0.5 s).  The weights put the median item inside the p = 3
    cluster and the 90th percentile at about the 65th percentile of the
    p = 1 times, inside the slow ones; with one p = 1 in five items it
    fell near the lower edge of the slow ones and moved with the share of
    quick solves from seed to seed.
    Constant-measure graphs of 10-40 vertices; the size steps through
    the range along the sequence, staggered against the p cycle.
    """

    P_WEIGHTS = (2, 1, 1, 3)  # items per cycle for each p of RESOLVENT_PS
    P_CYCLE = tuple(p for p, w in zip(RESOLVENT_PS, P_WEIGHTS) for _ in range(w))

    name = "resolvent"

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def make_item(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        p = self.P_CYCLE[k % len(self.P_CYCLE)]
        n = 4 + k % 3 if self.tiny else 10 + (7 * (k // len(self.P_CYCLE)) + k) % 31
        g = gen.random_graph_const_measure(rng, n)
        return g, rng.uniform(-2.0, 2.0, n), p

    def run(self, inputs):
        g, f, p = inputs
        return plaplace.resolvent(g, f, p, EPS)

    def check(self, inputs, sol) -> str | None:
        g, f, p = inputs
        if p == 1.0:
            if sol.subgradient_selection is None:
                return "p = 1 solve returned no sign selection"
            h = (sol.g - f) / EPS
            ok, why = plaplace.Delta1Membership(g, sol.g).verify(
                h, sol.subgradient_selection, tol=1e-7 / EPS)
            if not ok:
                return f"Delta_1 membership: {why}"
            residual = EPS * membership_deviation(g, f, EPS, sol)
        elif p == 2.0:
            residual = float(np.max(np.abs(
                sol.g - EPS * cf.laplacian_apply(g, sol.g) - f)))
        else:
            residual = float(np.max(np.abs(
                sol.g - EPS * cf.p_laplacian(g, sol.g, p) - f)))
        if not residual <= 1e-7:
            return f"p={p:g} residual {residual:.3g}"
        return None


class Separation:
    """Criterion-5 separation flows and criterion-8 Ric_1 bounds.

    The item kind cycles over the linear flow (2 in 13), ``ric_r`` on a
    lazy kernel (7 in 13) and the p-flow at each p (4 in 13).  The p-flows
    take most of the time; the many cheap ``ric_r`` items put the median
    inside their own cluster.  The p = 3 flow runs on 4- and 5-cycles
    only: on 6-cycles it can need tens of thousands of chain steps (see
    NOTES.md), which would swamp a run.
    """

    name = "separation"
    KINDS = ("linear", "ric", 1.0, "ric", "ric", 1.5, "ric",
             "linear", "ric", 2.0, "ric", "ric", 3.0)

    def __init__(self, seed: int, workdir: str, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def make_item(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        kind = self.KINDS[k % len(self.KINDS)]
        turn = k // len(self.KINDS)
        if kind == "ric":
            g = gen.random_flow_graph(rng, 3 if self.tiny else 3 + k % 4)
            return kind, g, cf.shortest_path_metric(g), gen.random_lazy_kernel(rng, g), k
        if self.tiny:
            n = 4
        elif kind == 3.0:
            n = 4 + turn % 2
        else:
            n = 4 + turn % 3
        weight = float(rng.uniform(0.5, 2.0))
        measure = 2.0 * weight * float(rng.uniform(1.0, 2.0))
        g = gen.cycle_graph(n, weight=weight, measure=measure)
        part = gen.cycle_partition(g)
        d = cf.shortest_path_metric(g)
        half = float(d.value(part.k_set[0], part.k_set[1]))
        f0 = np.array([0.0, float(rng.uniform(-half, half))])
        return kind, g, d, part, f0

    def run(self, inputs):
        kind, g, d, a, b = inputs
        if kind == "ric":  # a: lazy kernel, b: sampling seed
            return cf.ric_r(cf.linear_chain_operator(a), d, 1.0, n_samples=64, seed=b)
        # a: partition, b: f0 on K
        if kind == "linear":
            eps = 0.9 / float(np.max(g.degrees()))
            return cf.separation_flow_linear(g, a, eps, b, tol=1e-11)
        return cf.separation_flow_p(g, a, kind, eps=EPS, f0=b, tol=1e-8)

    def check(self, inputs, res) -> str | None:
        kind, g, d, part, _ = inputs
        if kind == "ric":
            # the exact Ric_1 of a linear chain by Kantorovich duality,
            # recomputed here: 1 - max W(p(x, .), p(y, .)) / d(x, y)
            if not res.exact:
                return "Ric_1 bound is not exact"
            exact = 1.0 - _max_contraction(inputs[3], d)
            if not abs(res.lower - exact) <= 1e-9:
                return f"Ric_1 lower bound {res.lower:.12g}, exact {exact:.12g}"
            if not res.upper >= exact - 1e-9:
                return f"Ric_1 upper bound {res.upper:.12g} below exact {exact:.12g}"
            return None
        if res.status != "converged":
            return f"{kind} flow status {res.status}"
        if not res.curvature_verified:
            return f"{kind} flow curvature gate not verified"
        ks, xs, ys = (np.array(s) for s in (part.k_set, part.x_set, part.y_set))
        if kind == "linear":
            ext = cf.lipschitz_extend(part, d, res.g_on_k)
            lap = cf.laplacian_apply(g, ext)
            const = float(np.mean(lap[ks]))
            spread = float(np.max(lap[ks]) - np.min(lap[ks]))
            if not spread < 1e-7:
                return f"linear flow Laplacian spread on K {spread:.3g}"
            if xs.size and not np.min(lap[xs]) - const >= -1e-9:
                return "linear flow sign pattern fails on X"
            if ys.size and not np.max(lap[ys]) - const <= 1e-9:
                return "linear flow sign pattern fails on Y"
            return None
        bound = 2.0 * float(np.max(g.degrees()))
        final = res.stages[-1]
        defect = float(np.max(np.abs(
            res.h - cf.lipschitz_extend(part, d, res.h[ks], validate=False))))
        if not defect <= bound * final["eps"] + 1e-9:
            return f"p={kind:g} final defect {defect:.3g} above {bound:g} eps"
        for stage in res.stages:
            if not stage["defect"] <= bound * stage["eps"] + 1e-9:
                return f"p={kind:g} defect {stage['defect']:.3g} at eps {stage['eps']:g}"
        return None

    def note(self, inputs, res) -> str | None:
        if inputs[0] != "ric" or res.upper - res.lower < RIC_GAP:
            return None
        return (f"Ric_1 sampled upper bound above the exact value by "
                f"{res.upper - res.lower:.3g} (criterion 8 asks < {RIC_GAP:g})")


def _max_contraction(kernel, d) -> float:
    """max over x != y of W(p(x, .), p(y, .)) / d(x, y) for a kernel."""
    rows = [cf.ProbMeasure(np.flatnonzero(row > 0), row[row > 0]) for row in kernel]
    n = len(rows)
    return max(cf.wasserstein(rows[x], rows[y], d)[0] / d.values[x, y]
               for x in range(n) for y in range(x + 1, n))


WORKLOADS = {w.name: w for w in (Flow, Curvature, Resolvent, Separation)}
