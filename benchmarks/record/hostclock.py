"""Host-speed calibration: two fixed kernels and the slowdown they show.

This container's speed moves by tens of percent over tens of seconds
(CPU clock, a busy sibling core, memory-system contention). In a noisy
hour ten runs of a workload spread 11-14 % in raw ops per host second
(quartile distance over median), the native-code ``ec_pipeline`` included,
and no amount of repetition inside one run averages a slow drift out. So two
fixed pure-Python kernels — integer arithmetic, and a list/dict walk over
a few MB — are timed around the timed phases, and host seconds are
reported as *reference seconds*: what the work would have taken on a host
that runs each kernel in exactly its reference time. Work and kernels see
the same host, so most of the drift cancels (``ec_pipeline``: 12.6 % raw,
3.2 % in reference seconds).

The reference times only fix the unit. The kernels are part of the
benchmark's definition: changing one changes every host-time metric.

Imports nothing from the repo, so a child can sample the host before it
pays for the heavy imports.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List, Tuple

_WALK = list(range(400_000))
_TABLE = {i: i for i in range(0, 400_000, 3)}


def arith_kernel() -> int:
    total = 0
    for i in range(100_000):
        total = (total + i * 7) & 0xFFFF
    return total


def walk_kernel() -> int:
    total = 0
    get = _TABLE.get
    for x in _WALK[::4]:
        value = get(x)
        if value is not None:
            total += value
    return total


# (kernel, seconds it takes on the reference host)
KERNELS = ((arith_kernel, 0.0054), (walk_kernel, 0.0080))


def sample() -> Tuple[float, float]:
    """Time each kernel once. Returns (slowdown, seconds spent): slowdown
    is the mean over the kernels of time / reference time, 1.0 on the
    reference host."""
    start = perf_counter()
    slowdown = 0.0
    t0 = start
    for kernel, reference in KERNELS:
        kernel()
        t1 = perf_counter()
        slowdown += (t1 - t0) / reference
        t0 = t1
    return slowdown / len(KERNELS), t0 - start


def host_scale(slowdowns: List[float]) -> float:
    """Reference seconds per host second over an interval: the inverse of
    the median slowdown sampled in it."""
    return 1.0 / statistics.median(slowdowns)
