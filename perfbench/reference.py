"""A fixed reference kernel that reads the host's speed at one moment.

The benchmark runs on shared virtual machines whose vCPU speed changes by
up to about 1.6x in phases of seconds to minutes. A time measured in one
run then depends on which phases the run fell into more than on the
program. To take that out, the benchmark runs this kernel at every mark
(call start, epoch boundaries, call end) and scales each interval between
two marks by the kernel's speed at its ends:

    interval at reference speed = interval * REF_SECONDS / kernel time

The kernel does not touch ``gib``, so a change to the program cannot change
it; it mixes what the workloads do, small numpy matrix products and Python
object churn, so that it slows down with the host as they do. It uses no
global random state, so the workloads' outputs are not affected.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on the 2-vCPU VM the benchmark was tuned on, at
# its slow steady speed; timings are reported in seconds at this speed
REF_SECONDS = 0.0015
REPEATS = 3

_rng = np.random.default_rng(0)
_A = _rng.random((64, 64))
_B = _rng.random((64, 32))


class _Node:
    __slots__ = ("value", "parent")

    def __init__(self, value, parent):
        self.value = value
        self.parent = parent


def kernel() -> float:
    node = None
    x = _B
    for _ in range(50):
        y = np.maximum(_A @ x, 0.0) * 0.01 + x
        node = _Node(y, node)
        x = y / (1.0 + y.sum())
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return float(x[0, 0]) + counts[0]


def measure() -> float:
    """Seconds the kernel takes now: the median of a few back-to-back runs,
    so that one preempted run does not count."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
