"""Open-loop load generation against the paged-memory data path.

A :class:`ClosedLoopWorkload` client waits for each operation before
issuing the next, so offered load collapses to service rate and the
latency-under-load curve is unmeasurable. :class:`OpenLoopWorkload`
decouples the two: an :class:`~repro.workloads.arrivals.ArrivalProcess`
schedules request arrivals independently of completions, requests queue
FIFO for a bounded pool of server slots (the frontend's worker threads),
and latency is measured from *scheduled arrival* to completion — so
queueing delay, the quantity that explodes past the saturation knee, is
part of every sample rather than being silently omitted (no coordinated
omission).

Requests are zipfian GET/SET traffic over a :class:`~repro.vmm.PagedMemory`
front-end, like :class:`~repro.workloads.MemcachedWorkload`, but every
random draw (gap, key, op type) happens in the single arrival process, so
a run's request sequence is a pure function of the seed regardless of how
completions interleave.

A request is not a process: :class:`RequestChain` carries it on callbacks
(walk-through in docs/ARCHITECTURE.md); the process-per-request drivers
survive as the oracle in ``tests/openloop_oracle.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from ..sim import Counter, LatencyRecorder, RandomSource, ThroughputWindow
from ..vmm import PagedMemory
from .arrivals import ArrivalProcess

__all__ = ["OpenLoopWorkload", "OpenLoopResult", "RequestChain"]


class RequestChain:
    """The request path of both open-loop drivers, run as callbacks.

    A request — ``(arrived_us, pages, write, done)`` — takes one of
    ``concurrency`` slots or waits for one in the FIFO ``waiting``, touches
    its pages in order, computes for ``compute_us`` and hands ``done`` its
    arrival-to-completion latency; the slot then passes to the oldest
    waiter, in the same step. A failed access records nothing, passes the
    slot on and is thrown into ``owner``, the driver's run process.
    """

    def __init__(self, memory: PagedMemory, concurrency: int, compute_us: float):
        self.memory = memory
        self.sim = memory.sim
        self.concurrency = concurrency
        self.compute_us = compute_us
        self.in_use = 0
        self.waiting = deque()
        self.queue_peak = 0
        self.owner = None  # the run process, set by the driver
        self._drained = None  # the event of drained(), while requests are left

    def submit(self, pages: Iterable[int], write: bool, done: Callable) -> None:
        """Admit a request arriving now that touches ``pages`` in order."""
        request = (self.sim.now, iter(pages), write, done)
        if self.in_use < self.concurrency:
            self.in_use += 1
            self._serve(request)
        else:
            self.waiting.append(request)
            self.queue_peak = max(self.queue_peak, len(self.waiting))

    def _serve(self, request, accessed=None) -> None:
        """Holding a slot, and ``accessed`` (if any) is over: touch the next
        page and go on from its event, or compute after the last one."""
        arrived_us, pages, write, done = request
        try:
            if accessed is not None:
                accessed.value  # raises what the access failed with
            for page in pages:  # an iterator: goes on behind the last page
                event = self.memory.access(page, write=write)
                if not event.processed:
                    event.callbacks.append(lambda event: self._serve(request, event))
                    return
                event.value
        except Exception as exc:  # noqa: BLE001 - the run process gets it
            self.owner.throw(exc)  # first: the first failure is the one raised
            self._release()
            return
        if self.compute_us > 0:
            self.sim.call_later(self.compute_us, lambda: self._finish(arrived_us, done))
        else:
            self._finish(arrived_us, done)

    def _finish(self, arrived_us: float, done: Callable) -> None:
        done(self.sim.now - arrived_us)
        self._release()

    def _release(self) -> None:
        if self.waiting:
            self._serve(self.waiting.popleft())  # the slot changes hands
            return
        self.in_use -= 1
        if not self.in_use and self._drained is not None:
            self._drained.succeed()
            self._drained = None

    def drained(self):
        """The event a run process waits on once its arrivals have
        stopped: triggered when no admitted request is left."""
        event = self.sim.event(name="openloop.drained")
        if self.in_use:
            self._drained = event
        else:
            event.succeed()
        return event


@dataclass
class OpenLoopResult:
    """Everything one offered-load point contributes to a sweep."""

    offered_per_sec: float
    duration_us: float
    issued: int
    completed: int
    completed_in_window: int
    dropped: int
    queue_peak: int
    latency_samples: np.ndarray  # us, one per completed request
    stats: Counter = field(default_factory=Counter)

    @property
    def achieved_per_sec(self) -> float:
        """Completion throughput over the measurement window (requests
        that finished after the window count toward latency, not here)."""
        if self.duration_us <= 0:
            return 0.0
        return self.completed_in_window / (self.duration_us / 1e6)


class OpenLoopWorkload:
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
        self._chain = RequestChain(memory, concurrency, compute_us)

    # ------------------------------------------------------------------
    def _completed(self, latency_us: float) -> None:
        self.latency.record(latency_us)
        self.throughput.record(self.sim.now)
        self.stats.incr("completed")

    def run(self, duration_us: float):
        """Start the generator; the returned process completes once every
        admitted request has drained (arrivals stop at ``duration_us``).
        Its value is the :class:`OpenLoopResult`; a request whose access
        failed ends it with that exception instead."""
        if duration_us <= 0:
            raise ValueError(f"duration_us must be > 0, got {duration_us}")
        sim, chain, limit = self.sim, self._chain, self.queue_limit

        def generator():
            end = sim.now + duration_us
            while True:
                gap = self.arrivals.next_gap()
                if sim.now + gap >= end:
                    break
                yield sim.timeout(gap)
                self.stats.incr("issued")
                if limit is not None and len(chain.waiting) >= limit:
                    self.stats.incr("dropped")
                    continue
                key = self._zipf.sample()
                page = (key * 2654435761) % self.n_keys
                write = self.rng.random() >= self.get_fraction
                chain.submit((page,), write, self._completed)
            # Snapshot window-bounded throughput before draining.
            yield sim.timeout(max(0.0, end - sim.now))
            completed_in_window = self.stats["completed"]
            yield chain.drained()
            return OpenLoopResult(
                offered_per_sec=self.arrivals.rate_per_sec,
                duration_us=duration_us,
                issued=self.stats["issued"],
                completed=self.stats["completed"],
                completed_in_window=completed_in_window,
                dropped=self.stats["dropped"],
                queue_peak=chain.queue_peak,
                latency_samples=np.asarray(self.latency.samples, dtype=np.float64),
                stats=self.stats,
            )

        chain.owner = sim.process(generator(), name=f"{self.name}-run")
        return chain.owner
