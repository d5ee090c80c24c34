"""Write one source tree's Ricci flow outputs, for byte-identity checks.

    python3 tools/compare_outputs.py SRC_DIR OUT_DIR

SRC_DIR is a curvflow checkout, whose ``src/`` runs the flows.  For the
50 criterion-1 graphs of the acceptance suite and ``random_flow_graph``
seeds 700-759 (4 to 30 vertices), OUT_DIR receives:

- ``graphs/``: the graph files;
- ``flow/``: the CLI ``flow --alpha 0.5 --tol 1e-10`` result and CSV
  trace of each graph;
- ``ledgers.json``: per graph, the ``transport_audit`` ledger (count,
  warm, pivots, max_gap) of the same flow through ``run_flow``.

The graphs are drawn by this checkout's test helpers whatever SRC_DIR
is, and the flows run in OUT_DIR on relative paths, so the result files
of two trees name the same graph paths.  Two trees' outputs are
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

ledgers = {}
for name in sorted(os.listdir("graphs")):
    stem, graph = name.removesuffix(".json"), os.path.join("graphs", name)
    cli.main(["flow", graph, "--alpha", "0.5", "--tol", "1e-10",
              "-o", os.path.join("flow", stem + ".json"),
              "--trace", os.path.join("flow", stem + ".csv")])
    with transport_audit() as audit:
        run_flow(cli.parse_graph(graph), FlowConfig(alpha=0.5, tolerance=1e-10))
    ledgers[stem] = {"count": audit.count, "warm": audit.warm,
                     "pivots": audit.pivots, "max_gap": audit.max_gap}
with open("ledgers.json", "w") as fh:
    json.dump(ledgers, fh, indent=1, sort_keys=True)
"""


def _graphs():
    """(name, graph) of every flow input, drawn by this checkout."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import numpy as np
    from conftest import random_flow_graph

    for i in range(50):  # as the acceptance suite's criterion 1 draws them
        rng = np.random.default_rng(10_000 + i)
        yield f"criterion1-{i:02d}", random_flow_graph(rng, int(rng.integers(4, 11)))
    for seed in range(700, 760):
        rng = np.random.default_rng(seed)
        yield f"seed-{seed}", random_flow_graph(rng, int(rng.integers(4, 31)))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = (os.path.abspath(a) for a in argv)
    for sub in ("graphs", "flow"):
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
