"""Write one source tree's Ricci flow and curvature outputs, for
byte-identity checks.

    python3 tools/compare_outputs.py SRC_DIR OUT_DIR

SRC_DIR is a curvflow checkout, whose ``src/`` runs the flows and
curvatures.  The flow graphs are the 50 criterion-1 graphs of the
acceptance suite, ``random_flow_graph`` seeds 700-759 (4 to 30
vertices) and, at 100 vertices, ``random_flow_graph`` with 500 extra
edge draws, seeds 1-3 (559-569 edges; flows only, no curvature
tables); the curvature graphs are 20 ``random_curvature_graph`` graphs
of 20 to 100 vertices with n to 2n extra edge draws.  OUT_DIR receives:

- ``graphs/``: the graph files;
- ``flow/``: the CLI ``flow --alpha 0.5 --tol 1e-10`` result and CSV
  trace of each flow graph;
- ``ledgers.json``: per flow graph, the ``transport_audit`` ledger
  (count, warm, pivots, max_gap) of the same flow through ``run_flow``;
- ``curvature/``: the CLI ``curvature --kinds
  ollivier,lly,phi-convex,phi-concave`` table of every graph but the
  100-vertex flow graphs;
- ``curvature_ledgers.json``: per graph, the ledgers of
  ``curvature_report`` with kind "ollivier" and with kind "lly", or the
  error that ended the report.

The graphs are drawn by this checkout's test helpers whatever SRC_DIR
is, and the commands run in OUT_DIR on relative paths, so the result
files of two trees name the same graph paths.  Two trees' outputs are
byte-identical exactly when

    diff -r OUT_A OUT_B

prints nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run by SRC_DIR's interpreter path, in OUT_DIR
_FLOWS = """
import json, os
from curvflow import cli
from curvflow.ricci_flow import FlowConfig, run_flow
from curvflow.transport import transport_audit

from curvflow.curvature import curvature_report
from curvflow.errors import CurvflowError


def ledger(audit):
    return {"count": audit.count, "warm": audit.warm,
            "pivots": audit.pivots, "max_gap": audit.max_gap}


ledgers, curvature_ledgers = {}, {}
for name in sorted(os.listdir("graphs")):
    stem, graph = name.removesuffix(".json"), os.path.join("graphs", name)
    if not stem.startswith("curvature-"):
        cli.main(["flow", graph, "--alpha", "0.5", "--tol", "1e-10",
                  "-o", os.path.join("flow", stem + ".json"),
                  "--trace", os.path.join("flow", stem + ".csv")])
        with transport_audit() as audit:
            run_flow(cli.parse_graph(graph), FlowConfig(alpha=0.5, tolerance=1e-10))
        ledgers[stem] = ledger(audit)
    if stem.startswith("flow100-"):
        continue
    cli.main(["curvature", graph, "--kinds", "ollivier,lly,phi-convex,phi-concave",
              "-o", os.path.join("curvature", stem + ".json")])
    curvature_ledgers[stem] = {}
    for kind in ("ollivier", "lly"):
        try:
            with transport_audit() as audit:
                curvature_report(cli.parse_graph(graph), kind=kind)
            curvature_ledgers[stem][kind] = ledger(audit)
        except CurvflowError as exc:
            curvature_ledgers[stem][kind] = f"{type(exc).__name__}: {exc}"
for path, doc in (("ledgers.json", ledgers), ("curvature_ledgers.json", curvature_ledgers)):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
"""


def _graphs():
    """(name, graph) of every flow input, drawn by this checkout."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import numpy as np
    from conftest import random_curvature_graph, random_flow_graph

    for i in range(50):  # as the acceptance suite's criterion 1 draws them
        rng = np.random.default_rng(10_000 + i)
        yield f"criterion1-{i:02d}", random_flow_graph(rng, int(rng.integers(4, 11)))
    for seed in range(700, 760):
        rng = np.random.default_rng(seed)
        yield f"seed-{seed}", random_flow_graph(rng, int(rng.integers(4, 31)))
    for seed in (1, 2, 3):
        yield f"flow100-seed-{seed}", random_flow_graph(np.random.default_rng(seed), 100, 500)
    for i in range(20):
        rng = np.random.default_rng(20_000 + i)
        n = int(rng.integers(20, 101))
        yield f"curvature-{i:02d}", random_curvature_graph(rng, n, int(rng.integers(n, 2 * n + 1)))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = (os.path.abspath(a) for a in argv)
    for sub in ("graphs", "flow", "curvature"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    for name, g in _graphs():
        doc = {"vertices": g.n,
               "edges": [{"u": u, "v": v, "w": float(g.weights[u, v]),
                          "len": float(g.lengths[u, v])} for u, v in g.edges()],
               "measure": g.measure.tolist()}
        with open(os.path.join(out, "graphs", name + ".json"), "w") as fh:
            json.dump(doc, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", _FLOWS], cwd=out, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
