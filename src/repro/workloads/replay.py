"""Epoch-sliced trace replay against the paged-memory data path.

Production remote-memory traffic is nonstationary: rate, key popularity,
and object sizes drift hour to hour. Following the hopperkv
``replay_workload.py`` idiom, a trace here is a sequence of *epochs*,
each carrying its own arrival rate, key distribution (zipf exponent +
hot-set offset, so the popular keys *move* between epochs), operation
mix, and a discrete value-size distribution (pages per operation).
Replay walks the epochs in order, generating open-loop Poisson arrivals
within each epoch and recording per-epoch latency/throughput, so a curve
over epochs shows how the backend tracks a shifting working set.

Traces serialize to/from JSON (``ReplayTrace.to_json``), and
:meth:`ReplayTrace.synthetic` builds a deterministic diurnal-shaped trace
from a seed for experiments that have no captured trace on hand.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..sim import Counter, LatencyRecorder, RandomSource
from ..vmm import PagedMemory
from .arrivals import PoissonArrivals
from .openloop import RequestChain

__all__ = ["TraceEpoch", "ReplayTrace", "TraceReplayWorkload", "EpochResult"]

TRACE_SCHEMA = "hydra-trace/1"


@dataclass(frozen=True)
class TraceEpoch:
    """One slice of a trace: stationary within, different from its
    neighbors."""

    duration_us: float
    rate_per_sec: float
    zipf_alpha: float = 0.99
    key_offset: int = 0  # rotates the hot set across epochs
    get_fraction: float = 0.9
    size_pages: Sequence[int] = (1,)
    size_weights: Sequence[float] = (1.0,)

    def validate(self, key_space: int) -> None:
        if self.duration_us <= 0:
            raise ValueError(f"epoch duration must be > 0, got {self.duration_us}")
        if self.rate_per_sec <= 0:
            raise ValueError(f"epoch rate must be > 0, got {self.rate_per_sec}")
        if not 0 <= self.get_fraction <= 1:
            raise ValueError(f"get_fraction must be in [0,1], got {self.get_fraction}")
        if len(self.size_pages) != len(self.size_weights) or not self.size_pages:
            raise ValueError("size_pages and size_weights must be equal-length")
        if min(self.size_pages) < 1:
            raise ValueError("size_pages entries must be >= 1")
        if not 0 <= self.key_offset < max(1, key_space):
            raise ValueError(
                f"key_offset {self.key_offset} outside key space {key_space}"
            )


@dataclass
class ReplayTrace:
    """A named sequence of epochs over one key space."""

    name: str
    key_space: int
    epochs: List[TraceEpoch] = field(default_factory=list)

    def validate(self) -> None:
        if self.key_space < 1:
            raise ValueError(f"key_space must be >= 1, got {self.key_space}")
        if not self.epochs:
            raise ValueError(f"trace {self.name!r} has no epochs")
        for epoch in self.epochs:
            epoch.validate(self.key_space)

    @property
    def duration_us(self) -> float:
        return sum(epoch.duration_us for epoch in self.epochs)

    # -- transport -----------------------------------------------------
    def to_json(self) -> str:
        doc = {
            "schema": TRACE_SCHEMA,
            "name": self.name,
            "key_space": self.key_space,
            "epochs": [asdict(epoch) for epoch in self.epochs],
        }
        for entry in doc["epochs"]:
            entry["size_pages"] = list(entry["size_pages"])
            entry["size_weights"] = list(entry["size_weights"])
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReplayTrace":
        doc = json.loads(text)
        if doc.get("schema") != TRACE_SCHEMA:
            raise ValueError(
                f"trace schema {doc.get('schema')!r} != {TRACE_SCHEMA!r}"
            )
        trace = cls(
            name=doc["name"],
            key_space=int(doc["key_space"]),
            epochs=[
                TraceEpoch(
                    duration_us=float(e["duration_us"]),
                    rate_per_sec=float(e["rate_per_sec"]),
                    zipf_alpha=float(e.get("zipf_alpha", 0.99)),
                    key_offset=int(e.get("key_offset", 0)),
                    get_fraction=float(e.get("get_fraction", 0.9)),
                    size_pages=tuple(int(s) for s in e.get("size_pages", (1,))),
                    size_weights=tuple(
                        float(w) for w in e.get("size_weights", (1.0,))
                    ),
                )
                for e in doc["epochs"]
            ],
        )
        trace.validate()
        return trace

    # -- generation ----------------------------------------------------
    @classmethod
    def synthetic(
        cls,
        seed: int = 0,
        epochs: int = 6,
        key_space: int = 512,
        epoch_us: float = 50_000.0,
        base_rate_per_sec: float = 10_000.0,
        peak_multiplier: float = 2.5,
    ) -> "ReplayTrace":
        """A deterministic diurnal-shaped trace: rates follow one sine
        "day" across the epochs, the hot set rotates by a random stride
        each epoch, and the size mix drifts around (1, 2, 4) pages."""
        rng = RandomSource(seed, "trace/synthetic")
        mid = (peak_multiplier + 1.0) / 2.0
        swing = (peak_multiplier - 1.0) / 2.0
        out: List[TraceEpoch] = []
        for i in range(epochs):
            shape = mid + swing * math.sin(2.0 * math.pi * i / epochs)
            jitter = rng.uniform(0.9, 1.1)
            heavy = rng.uniform(0.0, 0.1)
            out.append(
                TraceEpoch(
                    duration_us=epoch_us,
                    rate_per_sec=round(base_rate_per_sec * shape * jitter, 3),
                    zipf_alpha=round(rng.uniform(0.8, 1.2), 4),
                    key_offset=rng.randint(0, key_space - 1),
                    get_fraction=round(rng.uniform(0.7, 0.97), 4),
                    size_pages=(1, 2, 4),
                    size_weights=(
                        round(0.8 - heavy, 4),
                        round(0.15 + heavy / 2, 4),
                        round(0.05 + heavy / 2, 4),
                    ),
                )
            )
        trace = cls(name=f"synthetic-{seed}", key_space=key_space, epochs=out)
        trace.validate()
        return trace


@dataclass
class EpochResult:
    """Per-epoch measurement row."""

    index: int
    rate_per_sec: float
    issued: int
    completed_in_epoch: int
    p50_us: float
    p99_us: float
    mean_us: float


class TraceReplayWorkload:
    """Replay a :class:`ReplayTrace` open-loop against paged memory.

    Within an epoch arrivals are Poisson at the epoch rate; each request
    draws its key from the epoch's zipf distribution shifted by the
    epoch's ``key_offset`` and touches ``size_pages`` consecutive pages
    (multi-page values page in/out as a unit). Latency is measured from
    scheduled arrival to completion through a bounded server-slot pool: the
    :class:`~repro.workloads.openloop.RequestChain` ``OpenLoopWorkload`` uses.
    """

    name = "replay"

    def __init__(
        self,
        memory: PagedMemory,
        rng: RandomSource,
        trace: ReplayTrace,
        concurrency: int = 2,
        compute_us: float = 25.0,
    ):
        trace.validate()
        self.memory = memory
        self.sim = memory.sim
        self.rng = rng
        self.trace = trace
        self.concurrency = concurrency
        self.compute_us = compute_us
        self.stats = Counter()
        self._chain = RequestChain(memory, concurrency, compute_us)
        self.epoch_results: List[EpochResult] = []
        self.latency = LatencyRecorder(f"{self.name}.op", reservoir_limit=1 << 22)

    # ------------------------------------------------------------------
    def run(self):
        """Replay every epoch in order; the returned process's value is
        the list of :class:`EpochResult` rows, or a failed access's exception."""
        chain = self._chain
        chain.owner = self.sim.process(self._replay(), name=f"{self.name}-run")
        return chain.owner

    def _replay(self):
        for index, epoch in enumerate(self.trace.epochs):
            yield from self._epoch(index, epoch)
        yield self._chain.drained()
        return self.epoch_results

    def _epoch(self, index: int, epoch: TraceEpoch):
        sim = self.sim
        key_space = self.trace.key_space
        arrivals = PoissonArrivals(
            self.rng.child(f"epoch{index}/arrivals"), epoch.rate_per_sec
        )
        zipf = self.rng.child(f"epoch{index}/keys").zipf_sampler(
            key_space, epoch.zipf_alpha
        )
        op_rng = self.rng.child(f"epoch{index}/ops")
        recorder = LatencyRecorder(f"{self.name}.epoch{index}", reservoir_limit=1 << 22)

        def completed(latency_us: float) -> None:
            recorder.record(latency_us)
            self.latency.record(latency_us)
            self.stats.incr("completed")

        end = sim.now + epoch.duration_us
        issued = 0
        completed_before = self.stats["completed"]
        while True:
            gap = arrivals.next_gap()
            if sim.now + gap >= end:
                break
            yield sim.timeout(gap)
            issued += 1
            rank = zipf.sample()
            key = (rank + epoch.key_offset) % key_space
            first_page = (key * 2654435761) % key_space
            pages = op_rng.weighted_choice(epoch.size_pages, epoch.size_weights)
            write = op_rng.random() >= epoch.get_fraction
            self._chain.submit(
                [(first_page + offset) % key_space for offset in range(pages)],
                write, completed,
            )
        yield sim.timeout(max(0.0, end - sim.now))
        p50 = p99 = mean = 0.0
        if recorder.count:
            summary = recorder.summary()
            p50, p99, mean = summary.p50, summary.p99, summary.mean
        self.epoch_results.append(EpochResult(
            index=index, rate_per_sec=epoch.rate_per_sec, issued=issued,
            completed_in_epoch=self.stats["completed"] - completed_before,
            p50_us=p50, p99_us=p99, mean_us=mean,
        ))

    def samples(self) -> np.ndarray:
        return np.asarray(self.latency.samples, dtype=np.float64)

    def epoch_table(self) -> List[Dict]:
        return [asdict(row) for row in self.epoch_results]
