"""The process-per-request open-loop drivers, kept as the oracle.

Until the request path became a callback chain
(``repro.workloads.openloop.RequestChain``) every open-loop request was a
``Process``: a generator that waits for a ``Resource`` slot, yields each
``memory.access`` event and a compute ``Timeout``, with the run process
collecting all of them in an ``inflight`` list for one ``all_of``. The two
classes below are that implementation verbatim (only the class names
differ); ``tests/test_openloop_chain.py`` drives them beside production
and asserts identical samples, counts and clocks.
"""

from dataclasses import asdict
from typing import Dict, List, Optional

import numpy as np

from repro.sim import Counter, LatencyRecorder, RandomSource, Resource, ThroughputWindow
from repro.vmm import PagedMemory
from repro.workloads import EpochResult, OpenLoopResult, PoissonArrivals, ReplayTrace
from repro.workloads.arrivals import ArrivalProcess


class OracleOpenLoopWorkload:
    """Open-loop zipfian GET/SET traffic with bounded service concurrency.

    Parameters
    ----------
    memory:
        The paged-memory front-end under test.
    rng:
        Random stream for key/op draws (arrival gaps come from the
        arrival process's own stream).
    arrivals:
        The arrival process supplying inter-arrival gaps.
    n_keys:
        Key-space size; keys map to pages via the same multiplicative
        hash the memcached model uses.
    concurrency:
        Server slots: requests beyond this queue FIFO. This is what makes
        offered load above capacity *visible* — the queue, and with it
        the arrival-to-completion latency, grows without bound.
    queue_limit:
        Optional admission cap: arrivals finding this many requests
        waiting are dropped (counted, never timed). ``None`` = no drops.
    compute_us:
        Post-access server compute per request.
    """

    name = "openloop"

    def __init__(
        self,
        memory: PagedMemory,
        rng: RandomSource,
        arrivals: ArrivalProcess,
        n_keys: int,
        get_fraction: float = 0.9,
        zipf_alpha: float = 0.99,
        concurrency: int = 2,
        queue_limit: Optional[int] = None,
        compute_us: float = 25.0,
        window_us: float = 50_000.0,
    ):
        if n_keys < 1:
            raise ValueError(f"n_keys must be >= 1, got {n_keys}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if not 0 <= get_fraction <= 1:
            raise ValueError(f"get_fraction must be in [0,1], got {get_fraction}")
        self.memory = memory
        self.sim = memory.sim
        self.rng = rng
        self.arrivals = arrivals
        self.n_keys = n_keys
        self.get_fraction = get_fraction
        self.concurrency = concurrency
        self.queue_limit = queue_limit
        self.compute_us = compute_us
        # Unbounded-in-practice reservoir: sweep statistics (bootstrap
        # over raw samples) need every latency verbatim, not the
        # histogram approximation the default 4096-sample reservoir
        # degrades to on long runs.
        self.latency = LatencyRecorder(f"{self.name}.op", reservoir_limit=1 << 22)
        self.throughput = ThroughputWindow(window_us, name=f"{self.name}.tput")
        self.stats = Counter()
        self._zipf = rng.zipf_sampler(n_keys, zipf_alpha)
        self._slots = Resource(self.sim, capacity=concurrency)
        self._queue_peak = 0

    # ------------------------------------------------------------------
    def _request(self, arrived_us: float, page: int, write: bool):
        """One request: queue for a slot, touch the page, compute."""
        grant = self._slots.request()
        self._queue_peak = max(self._queue_peak, self._slots.queue_length)
        yield grant
        try:
            yield self.memory.access(page, write=write)
            if self.compute_us > 0:
                yield self.sim.timeout(self.compute_us)
        finally:
            self._slots.release()
        self.latency.record(self.sim.now - arrived_us)
        self.throughput.record(self.sim.now)
        self.stats.incr("completed")

    def run(self, duration_us: float):
        """Start the generator; the returned process completes once every
        admitted request has drained (arrivals stop at ``duration_us``).

        The process's value is the :class:`OpenLoopResult`.
        """
        if duration_us <= 0:
            raise ValueError(f"duration_us must be > 0, got {duration_us}")
        sim = self.sim

        def generator():
            start = sim.now
            end = start + duration_us
            inflight: List = []
            while True:
                gap = self.arrivals.next_gap()
                if sim.now + gap >= end:
                    break
                yield sim.timeout(gap)
                self.stats.incr("issued")
                if (
                    self.queue_limit is not None
                    and self._slots.queue_length >= self.queue_limit
                ):
                    self.stats.incr("dropped")
                    continue
                key = self._zipf.sample()
                page = (key * 2654435761) % self.n_keys
                write = self.rng.random() >= self.get_fraction
                inflight.append(
                    sim.process(
                        self._request(sim.now, page, write),
                        name=f"ol-req{self.stats['issued']}",
                    )
                )
            # Snapshot window-bounded throughput before draining.
            yield sim.timeout(max(0.0, end - sim.now))
            completed_in_window = self.stats["completed"]
            if inflight:
                yield sim.all_of(inflight)
            return OpenLoopResult(
                offered_per_sec=self.arrivals.rate_per_sec,
                duration_us=duration_us,
                issued=self.stats["issued"],
                completed=self.stats["completed"],
                completed_in_window=completed_in_window,
                dropped=self.stats["dropped"],
                queue_peak=self._queue_peak,
                latency_samples=np.asarray(
                    self.latency.samples, dtype=np.float64
                ),
                stats=self.stats,
            )

        return sim.process(generator(), name=f"{self.name}-run")


class OracleTraceReplayWorkload:
    """Replay a :class:`ReplayTrace` open-loop against paged memory.

    Within an epoch arrivals are Poisson at the epoch rate; each request
    draws its key from the epoch's zipf distribution shifted by the
    epoch's ``key_offset`` and touches ``size_pages`` consecutive pages
    (multi-page values page in/out as a unit). Latency is measured from
    scheduled arrival to completion through a bounded server-slot pool,
    exactly like :class:`~repro.workloads.OpenLoopWorkload`.
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
        self._slots = Resource(self.sim, capacity=concurrency)
        self.epoch_results: List[EpochResult] = []
        self.latency = LatencyRecorder(f"{self.name}.op", reservoir_limit=1 << 22)

    # ------------------------------------------------------------------
    def _request(self, arrived_us: float, first_page: int, pages: int,
                 write: bool, recorder: LatencyRecorder):
        yield self._slots.request()
        try:
            for offset in range(pages):
                page = (first_page + offset) % self.trace.key_space
                yield self.memory.access(page, write=write)
            if self.compute_us > 0:
                yield self.sim.timeout(self.compute_us)
        finally:
            self._slots.release()
        latency = self.sim.now - arrived_us
        recorder.record(latency)
        self.latency.record(latency)
        self.stats.incr("completed")

    def run(self):
        """Replay every epoch in order; the returned process's value is
        the list of :class:`EpochResult` rows."""
        sim = self.sim

        def replay():
            inflight: List = []
            for index, epoch in enumerate(self.trace.epochs):
                arrivals = PoissonArrivals(
                    self.rng.child(f"epoch{index}/arrivals"), epoch.rate_per_sec
                )
                zipf = self.rng.child(f"epoch{index}/keys").zipf_sampler(
                    self.trace.key_space, epoch.zipf_alpha
                )
                op_rng = self.rng.child(f"epoch{index}/ops")
                recorder = LatencyRecorder(
                    f"{self.name}.epoch{index}", reservoir_limit=1 << 22
                )
                start = sim.now
                end = start + epoch.duration_us
                issued = 0
                completed_before = self.stats["completed"]
                while True:
                    gap = arrivals.next_gap()
                    if sim.now + gap >= end:
                        break
                    yield sim.timeout(gap)
                    issued += 1
                    rank = zipf.sample()
                    key = (rank + epoch.key_offset) % self.trace.key_space
                    first_page = (key * 2654435761) % self.trace.key_space
                    pages = op_rng.weighted_choice(
                        epoch.size_pages, epoch.size_weights
                    )
                    write = op_rng.random() >= epoch.get_fraction
                    inflight.append(
                        sim.process(
                            self._request(
                                sim.now, first_page, pages, write, recorder
                            ),
                            name=f"replay-e{index}",
                        )
                    )
                yield sim.timeout(max(0.0, end - sim.now))
                completed = self.stats["completed"] - completed_before
                if recorder.count:
                    summary = recorder.summary()
                    p50, p99, mean = summary.p50, summary.p99, summary.mean
                else:
                    p50 = p99 = mean = 0.0
                self.epoch_results.append(
                    EpochResult(
                        index=index,
                        rate_per_sec=epoch.rate_per_sec,
                        issued=issued,
                        completed_in_epoch=completed,
                        p50_us=p50,
                        p99_us=p99,
                        mean_us=mean,
                    )
                )
            if inflight:
                yield sim.all_of(inflight)
            return self.epoch_results

        return sim.process(replay(), name=f"{self.name}-run")

    def samples(self) -> np.ndarray:
        return np.asarray(self.latency.samples, dtype=np.float64)

    def epoch_table(self) -> List[Dict]:
        return [asdict(row) for row in self.epoch_results]
