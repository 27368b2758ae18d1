"""The host-speed reference that the timing metrics are scaled by.

On a shared virtual machine the speed the benchmark gets drifts by 20 % or
more over minutes, as neighbours come and go; that drift moved the wall
times of two sets of runs of the same code further apart than any useful
bound.  So the worker times this fixed kernel right after every op (and
after set-up), and run.py reports each time scaled to a host on which the
kernel takes ``REFERENCE_S``:

    adjusted = wall seconds * REFERENCE_S / kernel seconds

The kernel mimics what dominates the program's own ops: small numpy
arrays built and indexed in Python loops, as in the finite-difference
stencils and the scalar profile interpolation.  It runs no vacuumdata code,
so a change to the program cannot move it, and a slower or faster program
shows in the adjusted times as it does in the wall times.
"""

from __future__ import annotations

import statistics
import time

WINDOW = 5  # kernel timings an op's time is scaled by

# the kernel's median seconds on the 2-vCPU Intel Xeon virtual machine the
# bounds in BENCHMARK.json were set on
REFERENCE_S = 0.08


def reference_kernel() -> float:
    import numpy as np

    x = np.linspace(0.0, 1.0, 9)
    acc = 0.0
    for i in range(6000):
        c = np.ones(5)
        d = x[i % 4:i % 4 + 5] - 0.5
        for j in range(1, 5):
            c[j] = c[j - 1] * d[j] / j
        acc += float(np.clip(c.sum(), -1.0, 1.0)) + min(i, 3)
    return acc


def time_reference(repeats: int = 1) -> float:
    """Median wall seconds of ``repeats`` runs of the kernel."""
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def adjusted(seconds: float, reference_s: float) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * REFERENCE_S / reference_s


def scale_ops(seconds: list[float], references: list[float]) -> list[float]:
    """Each op's seconds on the reference host.  ``references[i]`` is the
    kernel timing made right after op ``i``; an op is scaled by the median
    of the WINDOW timings nearest it, which follows the host's drift and
    damps the jitter of a single timing."""
    scaled = []
    for i, op_s in enumerate(seconds):
        lo = min(max(0, i - WINDOW // 2), max(0, len(seconds) - WINDOW))
        scaled.append(adjusted(op_s, statistics.median(references[lo:lo + WINDOW])))
    return scaled
