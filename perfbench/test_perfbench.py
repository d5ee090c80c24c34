"""Self-test of the benchmark itself (not of curvflow).

Run from the repository root::

    python3 -m pytest -q perfbench

Each workload runs once untraced and once traced at a tiny size and must
print every metric of BENCHMARK.json with its unit; a deliberately
corrupted resolvent result must be counted as failed; the tracer must
report zero calls, not crash, for a layer that is gone or never called.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import curvflow  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 2
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    printed = {tuple(line.split()[1::2]) for line in lines[:-1]
               if line.startswith(workload + " ")}
    assert printed == set(expected.items())


class CorruptedResolvent(workloads.Resolvent):
    """Shifts one entry of g but leaves the solver's own residual alone."""

    def run(self, inputs):
        sol = super().run(inputs)
        bad = sol.g.copy()
        bad[0] += 1e-3
        return dataclasses.replace(sol, g=bad)


def test_corrupted_result_counts_as_failed(tmp_path):
    good, log = workloads.Resolvent(5, str(tmp_path), tiny=True), run.Log()
    times = run._timed_loop(good, log, None, 8)
    assert len(times) == 8 and log.failures == []
    bad, log = CorruptedResolvent(5, str(tmp_path), tiny=True), run.Log()
    times = run._timed_loop(bad, log, None, 8)
    assert len(times) == 8 and [k for k, _ in log.failures] == list(range(1, 9))


def test_missing_or_idle_layer_reports_zero_calls(tmp_path):
    gone = tr.Layer("graphs.gone", "graphs", "no_such_function")
    tracer = tr.Tracer(tr.LAYERS + (gone,))
    tracer.install()
    try:
        assert curvflow.ricci_flow.wasserstein is curvflow.transport.wasserstein
        assert hasattr(curvflow.ricci_flow.wasserstein, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(curvflow.ricci_flow.wasserstein, "__wrapped__")
    wl, log = workloads.Flow(7, str(tmp_path), tiny=True), run.Log()
    times = run._timed_loop(wl, log, None, 1, spans=tracer)
    assert not hasattr(curvflow.cli.main, "__wrapped__")
    assert log.failures == []
    out = tracer.summary(len(times), 0.0)
    assert out["graphs.gone.calls"] == 0.0
    assert out["separation.ric_r.calls"] == 0.0
    assert out["plaplace.resolvent.p1.calls"] == 0.0
    assert out["cli.main.calls"] == 1.0
    assert out["ricci_flow.run_flow.iterations"] > 0
    # self time never exceeds the span that contains it
    assert 0.0 < out["cli.main.self_s"] < sum(times)
    assert all(np.isfinite(v) for v in out.values())


def test_wrong_ric_bounds_count_as_failed(tmp_path):
    wl = workloads.Separation(5, str(tmp_path), tiny=True)
    inputs = wl.make_item(1)
    assert inputs[0] == "ric"
    res = wl.run(inputs)
    assert wl.check(inputs, res) is None
    for bad in (dataclasses.replace(res, lower=res.lower - 1e-6),
                dataclasses.replace(res, upper=res.lower - 1e-6)):
        assert wl.check(inputs, bad) is not None
