"""Measurement primitives: latency recorders, time series, throughput windows.

These are the instruments behind every figure and table in the evaluation:
latency percentiles (Figs 10-12, 14, Tables 2-3), throughput timelines
(Figs 2, 15), and distribution summaries (Fig 17).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "Histogram",
    "LatencyRecorder",
    "TimeSeries",
    "ThroughputWindow",
    "Counter",
    "DistributionSummary",
    "summarize",
]


class Histogram:
    """Log-bucketed (HDR-style) value histogram: O(1) record, constant
    memory, exact-bucket percentiles, deterministic merge.

    Buckets are geometric: a value ``v > 0`` lands in sub-bucket
    ``floor((m - 0.5) * 2 * subbuckets)`` of its binary octave
    (``v = m * 2**e`` via :func:`math.frexp`), giving a worst-case
    relative bucket width of ``1/subbuckets`` (~3 % at the default 32).
    Percentiles report the *upper bound* of the bucket holding the
    requested rank — a pure function of the bucket counts, so two
    histograms with equal buckets report byte-identical percentiles and
    merging shards is associative and order-independent on the buckets.
    ``sum``/``min``/``max`` are tracked exactly.

    Zero values get a dedicated bucket (``frexp`` has no octave for 0).
    Sparse storage: only occupied buckets take memory, bounded by the
    dynamic range (~64 octaves x subbuckets), never by the sample count.
    """

    __slots__ = ("name", "subbuckets", "count", "sum", "min", "max",
                 "zero", "buckets")

    PERCENTILES = (50.0, 90.0, 99.0, 99.9)

    def __init__(self, name: str = "", subbuckets: int = 32):
        if subbuckets < 1:
            raise ValueError(f"subbuckets must be >= 1, got {subbuckets}")
        self.name = name
        self.subbuckets = subbuckets
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zero = 0  # count of exactly-0.0 samples
        self.buckets: Dict[int, int] = {}

    # -- recording -----------------------------------------------------
    def record(self, value: float, count: int = 1) -> None:
        if value < 0:
            raise ValueError(f"negative value in histogram {self.name!r}: {value}")
        self.count += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value == 0.0:
            self.zero += count
            return
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + count

    def _index(self, value: float) -> int:
        mantissa, exponent = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
        sub = int((mantissa - 0.5) * 2.0 * self.subbuckets)
        if sub >= self.subbuckets:  # guard the m -> 1.0 rounding edge
            sub = self.subbuckets - 1
        return exponent * self.subbuckets + sub

    def bucket_upper(self, index: int) -> float:
        """Exclusive upper bound of bucket ``index`` (a pure function of
        the index — the value percentiles report)."""
        exponent, sub = divmod(index, self.subbuckets)
        return math.ldexp(0.5 + (sub + 1) / (2.0 * self.subbuckets), exponent)

    def bucket_lower(self, index: int) -> float:
        exponent, sub = divmod(index, self.subbuckets)
        return math.ldexp(0.5 + sub / (2.0 * self.subbuckets), exponent)

    # -- reading -------------------------------------------------------
    def percentile(self, pct: float) -> float:
        """Upper bound of the bucket containing the ``pct``-th rank."""
        if self.count == 0:
            raise ValueError(f"no samples recorded in histogram {self.name!r}")
        rank = min(self.count, max(1, math.ceil(pct / 100.0 * self.count)))
        cumulative = self.zero
        if cumulative >= rank:
            return 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                return self.bucket_upper(index)
        return self.bucket_upper(max(self.buckets))  # pragma: no cover

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"no samples recorded in histogram {self.name!r}")
        return self.sum / self.count

    def percentiles(self) -> Dict[str, float]:
        """The standard p50/p90/p99/p999 quadruple from the buckets."""
        return {
            "p" + format(pct, "g").replace(".", ""): self.percentile(pct)
            for pct in self.PERCENTILES
        }

    def cumulative_buckets(self):
        """(upper_bound, cumulative_count) pairs, ascending — Prometheus
        ``le`` exposition and CDF plots."""
        out = []
        cumulative = self.zero
        if self.zero:
            out.append((0.0, cumulative))
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            out.append((self.bucket_upper(index), cumulative))
        return out

    # -- merge / transport ---------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (in place; returns self).

        Bucket counts add, so merge order never changes buckets or the
        percentiles derived from them — the property the ``-j N`` shard
        runner relies on.
        """
        if other.subbuckets != self.subbuckets:
            raise ValueError(
                f"cannot merge histograms with different resolutions: "
                f"{self.subbuckets} vs {other.subbuckets}"
            )
        self.count += other.count
        self.sum += other.sum
        self.zero += other.zero
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        return self

    def to_dict(self) -> Dict:
        """JSON-friendly, canonical (bucket keys sorted) form."""
        return {
            "name": self.name,
            "subbuckets": self.subbuckets,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "zero": self.zero,
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Histogram":
        hist = cls(data.get("name", ""), subbuckets=data["subbuckets"])
        hist.count = data["count"]
        hist.sum = data["sum"]
        hist.min = data["min"]
        hist.max = data["max"]
        hist.zero = data.get("zero", 0)
        hist.buckets = {int(i): c for i, c in data["buckets"].items()}
        return hist

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, n={self.count}, "
            f"occupied_buckets={len(self.buckets)})"
        )


class LatencyRecorder:
    """Accumulates latency samples and reports percentiles.

    All latencies are in microseconds, matching the kernel's time unit.

    Storage is bounded: every sample lands in a log-bucketed
    :class:`Histogram` (constant memory), and the first
    ``reservoir_limit`` samples are additionally kept verbatim in
    ``samples``. While the reservoir holds *all* samples the percentile /
    mean properties are computed exactly from it (bit-identical to the
    historical unbounded recorder, which the perf-suite anchors pin);
    once a run outgrows the reservoir they switch to the histogram's
    bucket-exact values. ``max`` is exact either way.
    """

    DEFAULT_RESERVOIR = 4096

    def __init__(self, name: str = "", reservoir_limit: int = DEFAULT_RESERVOIR):
        self.name = name
        self.reservoir_limit = reservoir_limit
        self.samples: List[float] = []
        self.hist = Histogram(name)

    def record(self, latency_us: float) -> None:
        if latency_us < 0:
            raise ValueError(f"negative latency: {latency_us}")
        self.hist.record(latency_us)
        if len(self.samples) < self.reservoir_limit:
            self.samples.append(latency_us)

    def extend(self, latencies: Sequence[float]) -> None:
        for value in latencies:
            self.record(value)

    @property
    def exact(self) -> bool:
        """True while the reservoir still holds every sample."""
        return self.hist.count <= len(self.samples)

    def __len__(self) -> int:
        return self.hist.count

    @property
    def count(self) -> int:
        return self.hist.count

    def percentile(self, pct: float) -> float:
        if self.hist.count == 0:
            raise ValueError(f"no samples recorded in {self.name!r}")
        if self.exact:
            return float(np.percentile(self.samples, pct))
        return self.hist.percentile(pct)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean(self) -> float:
        if self.hist.count == 0:
            raise ValueError(f"no samples recorded in {self.name!r}")
        if self.exact:
            return float(np.mean(self.samples))
        return self.hist.mean

    @property
    def max(self) -> float:
        if self.hist.count == 0:
            raise ValueError(f"no samples recorded in {self.name!r}")
        if self.exact:
            return float(np.max(self.samples))
        return float(self.hist.max)

    def summary(self) -> "DistributionSummary":
        if self.exact:
            return summarize(self.samples, name=self.name)
        return DistributionSummary(
            name=self.name,
            count=self.hist.count,
            mean=self.hist.mean,
            p50=self.hist.percentile(50),
            p90=self.hist.percentile(90),
            p99=self.hist.percentile(99),
            max=float(self.hist.max),
        )


@dataclass
class DistributionSummary:
    """Five-number-style summary of a sample set."""

    name: str
    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float

    def __str__(self) -> str:
        return (
            f"{self.name or 'latency'}: n={self.count} mean={self.mean:.2f} "
            f"p50={self.p50:.2f} p90={self.p90:.2f} p99={self.p99:.2f} "
            f"max={self.max:.2f}"
        )


def summarize(samples: Sequence[float], name: str = "") -> DistributionSummary:
    """Build a :class:`DistributionSummary` from raw samples."""
    if len(samples) == 0:
        raise ValueError(f"cannot summarize empty sample set {name!r}")
    arr = np.asarray(samples, dtype=np.float64)
    return DistributionSummary(
        name=name,
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p90=float(np.percentile(arr, 90)),
        p99=float(np.percentile(arr, 99)),
        max=float(arr.max()),
    )


class TimeSeries:
    """(time, value) samples, e.g. instantaneous memory usage per machine."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time went backwards in series {self.name!r}: "
                f"{time} < {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> float:
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return self.values[-1]

    def mean(self) -> float:
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return float(np.mean(self.values))


class ThroughputWindow:
    """Counts completions in fixed windows — throughput-over-time figures.

    ``window_us`` is the bucket width. ``series()`` returns
    (window_start_times, ops_per_second).
    """

    def __init__(self, window_us: float, name: str = ""):
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us}")
        self.window_us = window_us
        self.name = name
        self._buckets: Dict[int, int] = {}

    def record(self, time_us: float, count: int = 1) -> None:
        if time_us < 0:
            raise ValueError(
                f"negative time in window {self.name!r}: {time_us}"
            )
        bucket = int(time_us // self.window_us)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + count

    def series(self):
        """(start_times_us, throughput_ops_per_sec) over the covered span."""
        if not self._buckets:
            return np.array([]), np.array([])
        lo, hi = min(self._buckets), max(self._buckets)
        starts = np.arange(lo, hi + 1) * self.window_us
        per_window = np.array(
            [self._buckets.get(b, 0) for b in range(lo, hi + 1)], dtype=np.float64
        )
        ops_per_sec = per_window * (1e6 / self.window_us)
        return starts, ops_per_sec

    def total(self) -> int:
        return sum(self._buckets.values())


@dataclass
class Counter:
    """A named bag of monotonically increasing counters."""

    counts: Dict[str, int] = field(default_factory=dict)

    def incr(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def __getitem__(self, key: str) -> int:
        return self.counts.get(key, 0)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"Counter({inner})"


def imbalance_ratio(values: Sequence[float]) -> float:
    """max/min ratio used for Fig 17's memory-usage skew metric.

    A zero minimum yields ``inf`` — callers should ensure all machines saw
    some load before calling, or handle inf.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("imbalance_ratio of empty sequence")
    lo = arr.min()
    if lo <= 0:
        return math.inf
    return float(arr.max() / lo)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """stddev/mean — the 'memory usage variation' percentage in §7.4."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("coefficient_of_variation of empty sequence")
    mean = arr.mean()
    if mean == 0:
        return math.inf
    return float(arr.std() / mean)
