"""Host-speed probes used to rescale timings.

On a shared host the same pass can take twice as long from one minute to the
next, with CPU time equal to wall time, so raw seconds spread across runs by
more than any useful bound.  Each timing is therefore divided by a speed
factor measured just before and just after it: the time of fixed probe
kernels relative to their time on a reference host.  A pure-Python probe
(Fraction arithmetic, dict and list traffic) tracks the exact-arithmetic
workloads; a numpy max-plus probe tracks the float grid solve.  Each workload
weighs the two by its share of time in each kind of code (workloads.PROBE_MIX).
The raw seconds and the factors are printed with every run as well.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction


def python_kernel() -> None:
    acc = Fraction(0)
    table = {}
    for i in range(6000):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        table[(i * 2654435761) % 1000003] = [i, i + 1]
    sorted(table)


def numpy_kernel() -> None:
    """Steps of Karp's walk table at the sweep's grid size."""
    import numpy as np

    rng = np.random.default_rng(0)
    n, m = 1024, 6144
    tails = rng.integers(0, n, m)
    heads, starts = np.unique(np.sort(rng.integers(0, n, m)), return_index=True)
    weights = rng.random(m)
    rows = np.zeros((129, n))
    for j in range(1, 129):
        rows[j, heads] = np.maximum.reduceat(rows[j - 1, tails] + weights, starts)


# kernel and its seconds on the reference host, a 2-core Intel Xeon virtual
# machine with Python 3.11 and numpy 2.4
KERNELS = {"python": (python_kernel, 0.03), "numpy": (numpy_kernel, 0.01)}


def kernel_seconds(kind: str) -> float:
    """Median seconds of three runs of one probe kernel on this host."""
    kernel = KERNELS[kind][0]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_factor(mix: dict[str, float]) -> float:
    """Weighted probe time relative to the reference host: 1.0 on the
    reference host, 1.3 on a host running 30% slower."""
    return sum(share * kernel_seconds(kind) / KERNELS[kind][1] for kind, share in mix.items())


def rescale(seconds: float, before: float, after: float) -> float:
    """A timing divided by the mean speed factor around it."""
    return seconds * 2 / (before + after)
