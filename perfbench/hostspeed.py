"""Host-speed calibration for the end-to-end times.

The machines this benchmark runs on are shared: the same items run up to
twice as slowly for minutes at a time when other tenants load the host,
and every time metric of a run moves with it.  Each workload process
therefore times a fixed kernel between its items.  The kernel runs no
``curvflow`` code, so a change to the library cannot move it; it mixes
small numpy operations with Python dict and float work, like the
library's inner loops.  Over windows of 40-60 s its time follows the
items' time closely (see NOTES.md, "Host speed").

A run's host factor is ``REFERENCE_S`` over the median kernel time of
the run, and the end-to-end times are reported multiplied by it: seconds
at the speed at which the kernel takes ``REFERENCE_S``.  ``REFERENCE_S``
is the kernel's median time on the machine the benchmark was written
on, so there a run reports about its raw times when the host runs at
its usual speed.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.025  # median of 300 kernel runs, 2-vCPU Xeon at 2.1 GHz
EVERY_S = 1.0  # busy time between two kernel runs


def kernel_seconds() -> float:
    """Run the fixed kernel once and return its wall time."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.arange(144, dtype=float).reshape(12, 12) / 144.0
    total = 0.0
    for i in range(2000):
        x = a @ a[i % 12]
        total += float(x[int(np.argmin(x))])
        total += float(x[x > 0.5].sum())
        row = {k: float(v) for k, v in enumerate(x[:6])}
        total += sum(row.values())
    return time.perf_counter() - t0
