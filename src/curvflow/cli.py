"""Command-line interface: file ingestion, dispatch, and trace emission.

Commands cover the whole library surface: per-edge curvature tables,
the Ricci flow with its iteration trace, single resolvent solves,
separation flows, Ric_r bounds, Perron-Frobenius eigenvectors, chain
property verification, and the non-convergent counterexample chain.

Every JSON result embeds the full effective configuration (defaults and
waiver flags included), so identical configs and seeds reproduce
byte-identical outputs.  Iteration traces use a fixed CSV schema with
floats printed to 17 significant digits.

Exit codes: 0 success, 2 validation, 3 non-convergence, 4 precondition
unverified, 5 internal solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any

import numpy as np

from . import chains, curvature, plaplace, ricci_flow, separation
from .errors import PreconditionError, SolverError, ValidationError
from .graphs import WeightedGraph, laplacian_matrix, shortest_path_metric

__all__ = ["parse_graph", "parse_partition", "emit_trace", "main"]

TRACE_HEADER = ("n,lambda_plus,lambda_minus,delta_sup,base_value,"
                "curvature_min,curvature_max,deleted_edge")
TRACE_KEYS = TRACE_HEADER.split(",")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_PRECONDITION = 4
EXIT_SOLVER = 5

SEED_ENV = "CURVFLOW_SEED"


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _load_json(path: str, what: str) -> Any:
    """The JSON document in a file; unreadable files and invalid JSON
    raise ValidationError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _float_array(doc: Any, path: str) -> np.ndarray:
    try:
        return np.asarray(doc, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: expected an array of numbers: {exc}") from exc


def _json_number(x: Any, what: str) -> float:
    """A JSON number (not a bool or a string) as a float, else ValidationError."""
    if type(x) not in (int, float):
        raise ValidationError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValidationError(f"{what} is beyond the float range") from None


def parse_graph(path: str) -> WeightedGraph:
    """Load and validate the JSON graph format.

    Expected document: ``{"vertices": N, "edges": [{"u", "v", "w",
    "len"}, ...], "measure": [N floats]?}`` with 0 <= u < v < N, positive
    weights and lengths, no duplicate pairs, and a positive measure
    (default all 1.0).  Integers and numbers must be JSON integers and
    numbers: bools and numeric strings are rejected.
    """
    doc = _load_json(path, "graph")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: graph document must be a JSON object")
    n = doc.get("vertices")
    if type(n) is not int or n < 1:
        raise ValidationError(f"{path}: 'vertices' must be a positive integer")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ValidationError(f"{path}: 'edges' must be an array")
    tuples = []
    for idx, e in enumerate(edges):
        if not isinstance(e, dict) or not {"u", "v", "w", "len"} <= set(e):
            raise ValidationError(
                f"{path}: edges[{idx}] needs fields u, v, w, len")
        u, v = e["u"], e["v"]
        if not (type(u) is int and type(v) is int and 0 <= u < v < n):
            raise ValidationError(
                f"{path}: edges[{idx}] must satisfy 0 <= u < v < {n}, "
                f"got u={u!r}, v={v!r}")
        w, ln = (_json_number(e[k], f"{path}: edges[{idx}].{k}") for k in ("w", "len"))
        tuples.append((u, v, w, ln))
    measure = doc.get("measure")
    if measure is not None:
        if not isinstance(measure, list) or len(measure) != n:
            raise ValidationError(
                f"{path}: 'measure' must be an array of {n} numbers")
        measure = [_json_number(x, f"{path}: measure[{i}]") for i, x in enumerate(measure)]
        if any(x <= 0 for x in measure):
            raise ValidationError(f"{path}: 'measure' entries must be positive")
    try:
        return WeightedGraph.from_edges(n, tuples, measure=measure)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (MemoryError, ValueError) as exc:  # numpy refuses the n x n matrices
        raise ValidationError(f"{path}: {n} vertices are too many: {exc}") from exc


def parse_partition(path: str, g: WeightedGraph) -> separation.PartitionXKY:
    """Load ``{"X": [...], "K": [...], "Y": [...]}``, three arrays of
    integer vertex ids, and validate it."""
    doc = _load_json(path, "partition")
    if not isinstance(doc, dict) or not all(isinstance(doc.get(s), list) for s in "XKY"):
        raise ValidationError(f"{path}: partition needs arrays X, K, Y")
    try:
        return separation.PartitionXKY.build(g, doc["X"], doc["K"], doc["Y"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def emit_trace(rows: list[dict], fmt: str, path: str) -> None:
    """Write iteration trace rows in the fixed schema.

    CSV uses the exact header ``n,lambda_plus,...`` with empty fields
    where a column does not apply; JSON mirrors the same keys.
    """
    for idx, row in enumerate(rows):
        extra = set(row) - set(TRACE_KEYS)
        if extra:
            raise ValidationError(f"trace row {idx} has unknown fields {sorted(extra)}")
    try:
        if fmt == "csv":
            lines = [TRACE_HEADER]
            for row in rows:
                lines.append(",".join(_fmt(row.get(k)) for k in TRACE_KEYS))
            payload = "\n".join(lines) + "\n"
        elif fmt == "json":
            payload = _dump_json([{k: row.get(k) for k in TRACE_KEYS} for row in rows])
        else:
            raise ValidationError(f"unknown trace format {fmt!r}")
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ValidationError(f"cannot write trace to {path}: {exc}") from exc


def _dump_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None if np.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _engine_trace_rows(result: chains.IterationResult) -> list[dict]:
    return [{"n": r.n, "lambda_plus": r.lambda_plus,
             "lambda_minus": r.lambda_minus, "delta_sup": r.delta_sup,
             "base_value": r.base_value} for r in result.trace]


def _parse_vector(text: str | None, path: str | None, n: int,
                  default: np.ndarray | None = None) -> np.ndarray:
    if text is not None and path is not None:
        raise ValidationError("give the vector inline or as a file, not both")
    if text is not None:
        try:
            vec = np.array([float(t) for t in text.split(",")])
        except ValueError as exc:
            raise ValidationError(f"cannot parse vector {text!r}") from exc
    elif path is not None:
        vec = _float_array(_load_json(path, "vector"), path)
    elif default is not None:
        return default
    else:
        raise ValidationError("a vector argument is required")
    if vec.shape != (n,):
        raise ValidationError(f"vector must have {n} entries, got {vec.shape[0]}")
    return vec


def _number(text: str, default: float, spec: str) -> float:
    """A finite operator argument; ``default`` when the text is empty."""
    try:
        value = float(text) if text else default
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ValidationError(f"operator {spec!r}: {text!r} is not a finite number")
    return value


def _make_operator(spec: str, g: WeightedGraph | None) -> chains.ChainOperator:
    """Built-in operator factory for the ric/verify/separation commands.

    Specs: identity, shift:<c>, scale:<a>, counterexample:<eps0>,
    linear:<matrix.json>, pf:<matrices.json>, lazy-walk:<eps> (graph),
    resolvent:<p>,<eps> (graph).
    """
    kind, _, arg = spec.partition(":")
    if kind == "identity":
        n = _need_graph(g, kind).n
        return chains.linear_chain_operator(np.eye(n), name="identity")
    if kind == "shift":
        n = _need_graph(g, kind).n
        c = _number(arg, 1.0, spec)
        return chains.ChainOperator(dimension=n, apply=lambda f, c=c: f + c,
                                    name=f"shift({c:g})")
    if kind == "scale":
        n = _need_graph(g, kind).n
        a = _number(arg, 2.0, spec)
        return chains.ChainOperator(dimension=n, apply=lambda f, a=a: a * f,
                                    name=f"scale({a:g})")
    if kind == "counterexample":
        return chains.counterexample_operator(_number(arg, 0.01, spec))
    if kind == "linear":
        return chains.linear_chain_operator(_float_array(_load_json(arg, "kernel"), arg))
    if kind == "pf":
        return chains.perron_frobenius_operator(_load_matrices(arg))
    if kind == "lazy-walk":
        graph = _need_graph(g, kind)
        eps = _number(arg, 0.1, spec)
        M = np.eye(graph.n) + eps * laplacian_matrix(graph)
        if np.any(np.diag(M) <= 0):
            raise ValidationError(f"lazy-walk eps {eps:g} makes a diagonal entry nonpositive")
        return chains.linear_chain_operator(M, name=f"lazy-walk({eps:g})")
    if kind == "resolvent":
        graph = _need_graph(g, kind)
        parts = arg.split(",") + [""]
        p = _number(parts[0], 2.0, spec)
        eps = _number(parts[1], 0.1, spec)
        # built at the first apply, after f's check: errors keep resolvent()'s order
        solver = functools.cache(lambda: plaplace._Resolvent(graph, p, eps))

        def apply(f: np.ndarray) -> np.ndarray:
            f = plaplace._checked_input(graph, f, eps)
            return solver().solve(f)[0]

        return chains.ChainOperator(dimension=graph.n, apply=apply,
                                    name=f"resolvent(p={p:g}, eps={eps:g})")
    raise ValidationError(f"unknown operator spec {spec!r}")


def _need_graph(g: WeightedGraph | None, kind: str) -> WeightedGraph:
    if g is None:
        raise ValidationError(f"operator {kind!r} needs a graph argument")
    return g


def _load_matrices(path: str) -> list[np.ndarray]:
    doc = _load_json(path, "matrices")
    mats = doc.get("matrices") if isinstance(doc, dict) else doc
    if not isinstance(mats, list):
        raise ValidationError(
            f"{path}: expected a list of matrices or {{\"matrices\": [...]}}")
    return [_float_array(m, path) for m in mats]


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, result dict, trace rows)


def _cmd_curvature(args) -> tuple[int, dict, list[dict]]:
    g = parse_graph(args.graph)
    kinds = args.kinds.split(",")
    unknown = set(kinds) - set(curvature.KINDS)
    if unknown:
        raise ValidationError(f"unknown curvature kinds: {sorted(unknown)}")
    kappas = {kind: curvature._evaluator(g, kind, alpha=args.alpha) for kind in kinds}
    table = []
    for u, v in g.edges():
        row: dict[str, Any] = {"u": u, "v": v}
        for kind, kappa in kappas.items():
            try:
                row[curvature.KINDS[kind].column] = kappa(u, v)
            except SolverError as exc:
                row[f"{kind}_error"] = str(exc)
        table.append(row)
    return EXIT_OK, {"edges": table}, []


def _cmd_flow(args) -> tuple[int, dict, list[dict]]:
    g = parse_graph(args.graph)
    cfg = ricci_flow.FlowConfig(alpha=args.alpha,
                                deletion_threshold=args.threshold,
                                tolerance=args.tol,
                                max_iterations=args.max_iter)
    result = ricci_flow.run_flow(g, cfg)
    rows = []
    for r in result.final.trace:
        rows.append({
            "n": r.n, "lambda_plus": r.lambda_plus, "lambda_minus": r.lambda_minus,
            "delta_sup": r.delta_sup,
            "curvature_min": r.kappa.min, "curvature_max": r.kappa.max,
            "deleted_edge": ";".join(f"{u}-{v}" for u, v in r.deleted_edges) or None,
        })
    payload = {
        "status": result.status,
        "iterations": result.final.iteration,
        "limits": {str(root): {f"{u}-{v}": val for (u, v), val in lim.items()}
                   for root, lim in result.limits.items()},
        "growth_rate": {str(k): v for k, v in result.growth_rate.items()},
        "final_curvature_spread": result.final.trace[-1].kappa.max_spread,
        "deletions": [{"iteration": it, "edge": f"{u}-{v}",
                       "length": ln, "shortest_adjacent": adj}
                      for it, (u, v), (ln, adj) in result.final.deletion_log],
    }
    code = EXIT_OK if result.status == ricci_flow.STATUS_CONVERGED else EXIT_NONCONVERGENCE
    return code, payload, rows


def _cmd_resolvent(args) -> tuple[int, dict, list[dict]]:
    g = parse_graph(args.graph)
    f = _parse_vector(args.f, args.f_file, g.n)
    sol = plaplace.resolvent(g, f, args.p, args.eps)
    payload = {"g": sol.g, "residual": sol.residual, "method": sol.method,
               "iterations": sol.iterations}
    if sol.subgradient_selection is not None:
        payload["subgradient_selection"] = sol.subgradient_selection
    return EXIT_OK, payload, []


def _cmd_separation(args) -> tuple[int, dict, list[dict]]:
    g = parse_graph(args.graph)
    part = parse_partition(args.partition, g)
    f0 = _parse_vector(args.f0, None, len(part.k_set),
                       default=np.zeros(len(part.k_set)))
    if args.mode == "linear":
        res = separation.separation_flow_linear(
            g, part, args.eps, f0, args.x0, args.tol,
            max_iter=args.max_iter, waive_curvature=args.waive_curvature)
        payload = {
            "status": res.status, "iterations": res.iterations,
            "laplacian_constant": res.laplacian_constant,
            "spread_on_k": res.spread_on_k,
            "sign_min_x": res.sign_min_x, "sign_max_y": res.sign_max_y,
            "g_on_k": res.g_on_k, "extension": res.extension,
            "curvature_verified": res.curvature_verified, "waived": res.waived,
        }
        rows = _engine_trace_rows(res.engine)
        code = EXIT_OK if res.status == chains.CONVERGED else EXIT_NONCONVERGENCE
        return code, payload, rows
    if args.mode == "p":
        res = separation.separation_flow_p(
            g, part, args.p, args.eps, f0, args.x0, args.tol,
            max_iter=args.max_iter, waive_curvature=args.waive_curvature)
        payload = {
            "status": res.status, "constant": res.constant,
            "spread_on_k": res.spread_on_k,
            "sign_min_x": res.sign_min_x, "sign_max_y": res.sign_max_y,
            "h": res.h, "g_sub": res.g_sub,
            "stages": res.stages,
            "defect_bound_coefficient": res.defect_bound_coefficient,
            "curvature_verified": res.curvature_verified, "waived": res.waived,
        }
        code = EXIT_OK if res.status == chains.CONVERGED else EXIT_NONCONVERGENCE
        return code, payload, []
    # generic
    P = _make_operator(args.operator, g)
    d = shortest_path_metric(g)
    res = separation.separation_flow_generic(
        P, part, d, f0, args.x0, args.tol, max_iter=args.max_iter,
        allow_unverified=args.allow_unverified)
    payload = {
        "status": res.status, "iterations": res.iterations,
        "constant": res.laplacian_constant, "spread_on_k": res.spread_on_k,
        "sign_min_x": res.sign_min_x, "sign_max_y": res.sign_max_y,
        "g_on_k": res.g_on_k, "extension": res.extension,
        "ric_verified": res.curvature_verified, "waived": res.waived,
    }
    rows = _engine_trace_rows(res.engine)
    code = EXIT_OK if res.status == chains.CONVERGED else EXIT_NONCONVERGENCE
    return code, payload, rows


def _cmd_ric(args) -> tuple[int, dict, list[dict]]:
    g = parse_graph(args.graph)
    P = _make_operator(args.operator, g)
    d = shortest_path_metric(g)
    bounds = separation.ric_r(P, d, args.r, n_samples=args.samples, seed=args.seed)
    payload = {"lower": bounds.lower, "upper": bounds.upper,
               "sampled_amplification": bounds.sampled_amplification,
               "exact": bounds.exact, "operator": P.name}
    return EXIT_OK, payload, []


def _cmd_pf(args) -> tuple[int, dict, list[dict]]:
    mats = _load_matrices(args.matrices)
    P = chains.perron_frobenius_operator(mats)
    f0 = _parse_vector(args.f0, None, P.dimension, default=np.zeros(P.dimension))
    result = chains.iterate_normalized(P, f0, args.x0, args.tol, args.max_iter)
    payload: dict[str, Any] = {"status": result.status,
                               "iterations": result.iterations}
    if result.converged:
        v = np.exp(result.limit)
        factor = float(np.exp(2.0 * result.growth_constant))
        stack = np.stack(mats)
        residual = float(np.max(np.abs(np.min(stack @ v, axis=0) - factor * v)))
        payload.update({"g": result.limit, "eigenvector": v,
                        "growth_constant": result.growth_constant,
                        "eigenvalue_factor": factor,
                        "eigen_residual": residual})
    code = EXIT_OK if result.converged else EXIT_NONCONVERGENCE
    return code, payload, _engine_trace_rows(result)


def _cmd_verify(args) -> tuple[int, dict, list[dict]]:
    g = parse_graph(args.graph) if args.graph else None
    P = _make_operator(args.operator, g)
    report = chains.verify_properties(P, n_samples=args.samples,
                                      magnitude=args.magnitude, seed=args.seed)
    payload = {
        "operator": P.name, "seed": report.seed,
        "n_samples": report.n_samples,
        "conditions": {
            str(c): {"name": r.name, "passed": r.passed, "checked": r.checked,
                     "failures": r.failures, "estimate": r.estimate,
                     "first_counterexample": r.first_counterexample}
            for c, r in report.conditions.items()},
    }
    return EXIT_OK, payload, []


def _cmd_counterexample(args) -> tuple[int, dict, list[dict]]:
    P = chains.counterexample_operator(args.eps0)
    f0 = np.array([0.0, 0.0, -args.eps0, args.eps0])
    diffs = []
    f = f0.copy()
    for _ in range(args.steps):
        f = P(f)
        diffs.append(float(f[2] - f[3]))
    result = chains.iterate_normalized(P, f0, 0, args.tol, args.steps)
    payload = {"status": result.status, "iterations": result.iterations,
               "eps0": args.eps0, "x3_minus_x4": diffs}
    # oscillation is this chain's expected behavior, not a failure
    code = EXIT_OK if result.status == chains.OSCILLATING else EXIT_NONCONVERGENCE
    return code, payload, _engine_trace_rows(result)


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process; main reads the environment per call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvflow",
        description="curvature flows and nonlinear Markov chains on finite graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", "-o", help="write the JSON result here (default stdout)")
        p.add_argument("--trace", help="write the per-iteration trace here")
        p.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="trace file format (default csv)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"random seed (default ${SEED_ENV} or 0)")

    p = sub.add_parser("curvature", help="per-edge curvature table")
    p.add_argument("graph")
    p.add_argument("--kinds", default="ollivier",
                   help="comma list: ollivier,alpha,lly,phi-convex,phi-concave")
    p.add_argument("--alpha", type=float, default=0.5)
    common(p)

    p = sub.add_parser("flow", help="Ricci flow with edge deletion")
    p.add_argument("graph")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--threshold", type=float, default=None,
                   help="deletion threshold C (default: 2x initial adjacent ratio)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=100_000)
    common(p)

    p = sub.add_parser("resolvent", help="single p-Laplace resolvent solve")
    p.add_argument("graph")
    p.add_argument("--f", help="comma-separated vertex values")
    p.add_argument("--f-file", help="JSON array of vertex values")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=0.1)
    common(p)

    p = sub.add_parser("separation", help="Laplacian separation flows")
    p.add_argument("graph")
    p.add_argument("partition")
    p.add_argument("--mode", choices=("linear", "p", "generic"), default="linear")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--f0", help="comma-separated initial values on K")
    p.add_argument("--x0", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--waive-curvature", action="store_true")
    p.add_argument("--allow-unverified", action="store_true")
    p.add_argument("--operator", default="lazy-walk:0.1",
                   help="chain operator for generic mode")
    common(p)

    p = sub.add_parser("ric", help="Ric_r bounds of a chain")
    p.add_argument("graph")
    p.add_argument("--operator", default="lazy-walk:0.1")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=64,
                   help="samples, with --seed, for nonlinear operators (linear ones are exact)")
    common(p)

    p = sub.add_parser("pf", help="Perron-Frobenius eigenvector via the log chain")
    p.add_argument("matrices", help="JSON file with a list of matrices")
    p.add_argument("--f0", help="comma-separated initial log values")
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-11)
    p.add_argument("--max-iter", type=int, default=100_000)
    common(p)

    p = sub.add_parser("verify", help="check chain conditions (1)-(7)")
    p.add_argument("--operator", required=True)
    p.add_argument("--graph", default=None)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--magnitude", type=float, default=1.0)
    common(p)

    p = sub.add_parser("counterexample",
                       help="run the non-convergent oscillating chain")
    p.add_argument("--eps0", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)

    return parser


def _effective_config(args: argparse.Namespace) -> dict:
    skip = {"output", "trace"}
    return {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    rows: list[dict] = []
    code = EXIT_OK
    payload: dict = {}
    error: str | None = None
    try:
        if args.seed is None:
            try:
                args.seed = int(os.environ.get(SEED_ENV, "0"))
            except ValueError as exc:
                raise ValidationError(f"${SEED_ENV} must be an integer: {exc}") from None
        # looked up per call: the parser outlives any rebinding of a handler
        code, payload, rows = globals()[f"_cmd_{args.command}"](args)
    except ValidationError as exc:
        code, error = EXIT_VALIDATION, str(exc)
    except PreconditionError as exc:
        code, error = EXIT_PRECONDITION, str(exc)
    except SolverError as exc:
        code, error = EXIT_SOLVER, str(exc)
    finally:
        # write the rows the handler returned; a handler that raised
        # returned none, so its trace file holds only the header
        if args.trace and rows is not None:
            try:
                emit_trace(rows, args.format, args.trace)
            except ValidationError as exc:
                code, error = _output_failure(code, error, str(exc))

    doc = {"command": args.command, "config": _effective_config(args),
           "results": _jsonable(payload)}
    if error is not None:
        doc["error"] = error
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(_dump_json(doc))
            return code
        except OSError as exc:  # the document goes to stdout instead
            code, doc["error"] = _output_failure(
                code, error, f"cannot write output to {args.output}: {exc}")
    sys.stdout.write(_dump_json(doc))
    return code


def _output_failure(code: int, error: str | None, failure: str) -> tuple[int, str]:
    """An output file that cannot be written exits 2, unless the run has
    already failed; then its code stays and the failure joins its error."""
    if error is None:
        return EXIT_VALIDATION, failure
    return code, f"{error}; {failure}"


if __name__ == "__main__":
    sys.exit(main())
