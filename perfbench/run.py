"""curvflow benchmark: one workload per run, closed loop, one thread.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload flow --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38

Each run starts the workload in processes of its own with BLAS pinned to
one thread.  Such a process imports ``curvflow`` from ``src/``, builds
its inputs from the seed, runs one untimed warm-up item and then items
one after another (the next starts only when the previous one is done)
until their summed busy time reaches its share of ``--seconds``.  Every
item's outcome is checked outside the timed region.

An untraced run is split into ``SEGMENTS`` workload processes started
one after another, each measuring an equal share of ``--seconds``; item
numbers carry on from one process to the next, so the items are the same
as in one long process.  ``setup_s`` is the time from spawning a workload
process to its first timed item (interpreter start, import, input
generation and warm-up), and the run reports its median over the
segments, so that its samples are spread over the whole run like the
item times are.

The end-to-end times are corrected for the speed of the shared host:
between items each process times a fixed kernel that runs no
``curvflow`` code (hostspeed.py), and the run scales its times by the
kernel's reference time over its median time in the run.  The raw values
and the factor are printed on the lines before the result.

With ``--trace 1`` one process runs each item twice, untraced and then
under the span tracer (tracer.py), until the untraced half reaches half
of ``--seconds``; the run reports the per-layer metrics instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit, every failed item, and every item
that passed its check with a remark (a retried ``kappa_lly``, a loose
``ric_r`` bound).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
# the keys of workloads.WORKLOADS; this process imports neither numpy nor
# curvflow, so it cannot read them from there
WORKLOAD_NAMES = ("flow", "curvature", "resolvent", "separation")
SEGMENTS = 5
RUN_TIMEOUT_S = 170  # one run, all its process starts included
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_s.p50": "s",
    "item_s.p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# ---------------------------------------------------------------------------
# workload process


class Log:
    """Failed items and remarks on passed ones, as (item, text) pairs."""

    def __init__(self) -> None:
        self.failures: list[tuple[int, str]] = []
        self.notes: list[tuple[int, str]] = []


def _run_item(wl, k: int, log: Log, spans=None) -> float:
    """Build item ``k``, time it (under the ``spans`` tracer if given),
    check it untimed and log the outcome; returns the busy time."""
    inputs = wl.make_item(k)
    if spans is not None:
        spans.item = k
        spans.install()
    t0 = time.perf_counter()
    try:
        result = wl.run(inputs)
        error = None
    except Exception as exc:  # a raising item is a failed item, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if spans is not None:
        spans.uninstall()
    if error is None:
        try:
            error = wl.check(inputs, result)
            note = wl.note(inputs, result) if hasattr(wl, "note") else None
            if note is not None:
                log.notes.append((k, note))
        except Exception as exc:  # a check that cannot run fails the item
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        log.failures.append((k, error))
    return dt


def _timed_loop(wl, log: Log, seconds: float | None, count: int | None = None,
                first: int = 1, spans=None, kernel: list | None = None) -> list[float]:
    """Items ``first``, ``first`` + 1, ... one after another until their
    busy time reaches ``seconds`` (or ``count`` items ran).  With a
    ``kernel`` list, the host-speed kernel runs after every
    ``hostspeed.EVERY_S`` of busy time and its times are appended."""
    times: list[float] = []
    since = 0.0
    while (sum(times) < seconds) if count is None else (len(times) < count):
        times.append(_run_item(wl, first + len(times), log, spans))
        since += times[-1]
        if kernel is not None and since >= hostspeed.EVERY_S:
            kernel.append(hostspeed.kernel_seconds())
            since = 0.0
    return times


def _paired_loop(wl, log: Log, seconds: float, spans):
    """Each item untraced, then again traced, until the untraced busy
    time reaches ``seconds``; pairing cancels the machine's drift out of
    the tracing overhead."""
    plain: list[float] = []
    traced: list[float] = []
    while sum(plain) < seconds:
        k = len(plain) + 1
        plain.append(_run_item(wl, k, log))
        traced.append(_run_item(wl, k, log, spans))
    return plain, traced


def child_main(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    workdir = os.path.join(WORKDIR, f"w{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload]
        # the warm-up is item 0 of seed 0 in every process, so that
        # setup_s does not vary with the seed's first instance
        warmup = Log()
        _run_item(workload(0, workdir, tiny=args.tiny), 0, warmup)
        wl = workload(args.seed, workdir, tiny=args.tiny)
        ready = time.monotonic()
        log = Log()
        out = {"ready": ready, "warmup_failures": warmup.failures}
        if args.trace:
            spans = tracer.Tracer()
            times, traced = _paired_loop(wl, log, args.seconds / 2, spans)
            out["layers"] = spans.summary(len(traced), sum(traced) / sum(times) - 1.0)
            spans.write_spans(os.path.join(
                WORKDIR, f"spans-{args.workload}-seed{args.seed}.json"))
            times += traced
        else:
            kernel = [hostspeed.kernel_seconds()]
            times = _timed_loop(wl, log, args.seconds, first=args.first_item,
                                kernel=kernel)
            out["kernel"] = kernel
        out.update(times=times, failures=log.failures, notes=log.notes,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# orchestration


def _spawn(args, seconds: float, first_item: int, deadline: float) -> tuple[float, dict]:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--first-item", str(first_item)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} process exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["ready"] - t0, doc


def run_workload(args) -> dict:
    """One benchmark run of one workload; returns the result document."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    segments = 1 if args.trace else SEGMENTS
    setups: list[float] = []
    times: list[float] = []
    kernel: list[float] = []
    log = Log()
    warmup_failures = []
    peak_rss = 0.0
    for _ in range(segments):
        setup, doc = _spawn(args, args.seconds / segments, len(times) + 1, deadline)
        setups.append(setup)
        times += doc["times"]
        kernel += doc.get("kernel", [])
        log.failures += [tuple(f) for f in doc["failures"]]
        log.notes += [tuple(n) for n in doc["notes"]]
        warmup_failures = [tuple(f) for f in doc["warmup_failures"]]
        peak_rss = max(peak_rss, doc["peak_rss_mb"])
    # the warm-up is the same item in every process: count it once
    failures = warmup_failures + log.failures
    attempted = len(times) + 1
    if args.trace:
        values = doc["layers"]
        units = tracer.metric_units()
    else:
        raw = {
            "items_per_s": len(times) / sum(times),
            "item_s.p50": statistics.median(times),
            "item_s.p90": statistics.quantiles(times, n=10)[-1],
            "setup_s": statistics.median(setups),
        }
        host = hostspeed.REFERENCE_S / statistics.median(kernel)
        values = {name: value / host if name == "items_per_s" else value * host
                  for name, value in raw.items()}
        values["peak_rss_mb"] = peak_rss
        units = END_TO_END_UNITS
    for k, reason in failures:
        print(f"# {args.workload} failed item {k}: {reason}")
    for k, note in log.notes:
        print(f"# {args.workload} item {k} passed: {note}")
    print(f"# {args.workload}: {attempted} items attempted (1 warm-up), "
          f"{len(failures)} failed, failed_ratio {len(failures) / attempted:.6g}, "
          f"{len(log.notes)} passed with a remark")
    if not args.trace:
        print(f"# item_s percentiles over {len(times)} timed items; "
              f"setup_s median of {segments} process starts")
        print(f"# host factor {host:.4f}: median host-speed kernel "
              f"{statistics.median(kernel) * 1e3:.3f} ms over {len(kernel)} runs, "
              f"reference {hostspeed.REFERENCE_S * 1e3:g} ms; times below are raw "
              f"times x host factor, items_per_s is raw / host factor")
        print("# raw: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    for name, unit in units.items():
        print(f"{args.workload} {name} {values[name]:.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances (self-test only)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--first-item", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child:
        return child_main(args)
    os.makedirs(WORKDIR, exist_ok=True)
    if args.workload != "all":
        doc = run_workload(args)
        print(json.dumps(doc))
        return 0
    combined = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            combined[f"{name}.trace{trace}"] = run_workload(sub)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
