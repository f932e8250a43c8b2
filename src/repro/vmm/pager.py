"""Disaggregated virtual memory manager — the paging front-end.

This is the Infiniswap/LegoOS-style integration (§6): applications access
a flat page space; pages beyond the local memory limit live in remote
memory through whichever backend (Hydra RM or a baseline) the pager is
given. A page access that misses the resident set triggers:

* page-in — a backend read on the critical path;
* eviction — when the resident set is full, the LRU victim is dropped
  (clean) or written back to the backend (dirty) before the new page is
  admitted.

The pager is payload-agnostic: in real mode it keeps the authoritative
content of every resident page and verifies what comes back from remote
memory; in phantom mode only access timing is modeled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from ..baselines.base import BackendError
from ..core.resilience_manager import RemoteMemoryUnavailable
from ..net.rdma import RDMAError
from ..obs import MetricsRegistry, Span, Tracer

__all__ = ["PagedMemory"]

# What a backend raises when it cannot serve a request *now* but may later:
# cluster-wide memory pressure, a regeneration in flight, a dead connection.
# Anything else (a malformed request, a bug) is not worth retrying.
_TRANSIENT_ERRORS = (RemoteMemoryUnavailable, BackendError, RDMAError)


class PagedMemory:
    """An LRU-resident-set pager over a remote-memory backend.

    Parameters
    ----------
    backend:
        Any remote-memory pool (``write(page_id, data)``/``read(page_id)``
        returning processes).
    resident_pages:
        Local memory limit in pages. The paper's app experiments set this
        to 100 %, 75 %, or 50 % of the working set.
    page_size:
        Bytes per page.
    hit_cost_us:
        Cost of an access served from local memory (TLB + DRAM).
    verify_contents:
        Real mode only: keep golden copies and assert page-in contents
        match (used by the test suite; adds Python-side memory).
    """

    def __init__(
        self,
        backend,
        resident_pages: int,
        page_size: int = 4096,
        hit_cost_us: float = 0.05,
        verify_contents: bool = False,
        stall_retry_us: float = 500.0,
        read_retries: int = 20,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if resident_pages < 1:
            raise ValueError(f"resident_pages must be >= 1, got {resident_pages}")
        self.backend = backend
        self.sim = backend.sim
        self.resident_pages = resident_pages
        self.page_size = page_size
        self.hit_cost_us = hit_cost_us
        self.verify_contents = verify_contents
        self.stall_retry_us = stall_retry_us
        self.read_retries = read_retries
        # Observability: share the backend's tracer/registry so fault spans
        # parent the backend's request spans in one trace.
        if tracer is None:
            tracer = getattr(backend, "tracer", None)
        if tracer is None:
            tracer = Tracer(self.sim, sample_every=0)
        if metrics is None:
            metrics = getattr(backend, "metrics", None)
        if metrics is None:
            metrics = MetricsRegistry()
        self.tracer = tracer
        self.metrics = metrics

        # page_id -> dirty flag; OrderedDict gives O(1) LRU.
        self._resident: "OrderedDict[int, bool]" = OrderedDict()
        self._contents: Dict[int, bytes] = {}
        self._remote: set = set()
        self._zero_page = bytes(page_size)
        owner = getattr(backend, "machine_id", None)
        if owner is None:
            owner = getattr(backend, "client_id", None)
        label = "vmm" if owner is None else f"vmm.{owner}"
        self.fault_latency = metrics.latency(f"{label}.fault")
        # Faults per 1-second window — the paging-pressure timeline the
        # dashboard renders next to hit rate.
        self.fault_window = metrics.throughput(f"{label}.fault_rate")
        self.stats = metrics.counter_group(f"{label}.stats")
        self.verification_failures = 0

    # ------------------------------------------------------------------
    def access(self, page_id: int, write: bool = False, data: Optional[bytes] = None):
        """Simulation event: touch a page (optionally writing it).

        Hits resolve to a plain timeout (cheap — no process); misses spawn
        the fault-handling process. The event's value is the page's bytes
        in real/verify mode, else None.
        """
        if page_id in self._resident:
            # Fast path: resident hit, handled inline.
            self._resident.move_to_end(page_id)
            if write:
                self._resident[page_id] = True
                if data is not None:
                    self._contents[page_id] = data
            self.stats.incr("hits")
            return self.sim.timeout(self.hit_cost_us, value=self._contents.get(page_id))
        return self.sim.process(
            self._access_process(page_id, write, data), name=f"vmm:{page_id}"
        )

    def _access_process(self, page_id: int, write: bool, data: Optional[bytes]):
        if page_id in self._resident:
            # Raced with a concurrent fault for the same page.
            self._resident.move_to_end(page_id)
            if write:
                self._resident[page_id] = True
                if data is not None:
                    self._contents[page_id] = data
            self.stats.incr("hits")
            yield self.sim.timeout(self.hit_cost_us)
            return self._contents.get(page_id)

        # Page fault.
        self.stats.incr("faults")
        self.fault_window.record(self.sim.now)
        span = self.tracer.start_trace(
            "vmm.fault", tags={"page": page_id, "write": write}
        )
        phases = self.tracer.phases(span)
        start = self.sim.now
        try:
            page_bytes: Optional[bytes] = None
            if page_id in self._remote:
                # Transient backend failures (saturation, mid-regeneration)
                # stall the fault, exactly like a blocked swap-in.
                for attempt in range(self.read_retries + 1):
                    try:
                        if span is not None:
                            page_bytes = yield self.backend.read(page_id, parent=span)
                        else:
                            page_bytes = yield self.backend.read(page_id)
                        break
                    except _TRANSIENT_ERRORS:
                        if attempt == self.read_retries:
                            raise
                        self.stats.incr("read_stalls")
                        yield self.sim.timeout(self.stall_retry_us)
                self.stats.incr("page_ins")
                phases.mark("page_in")
                if self.verify_contents and page_id in self._contents:
                    if page_bytes != self._contents[page_id]:
                        self.verification_failures += 1
            elif write and data is not None:
                page_bytes = data

            yield from self._make_room(span)
            phases.mark("evict")
            self._resident[page_id] = write
            if data is not None:
                self._contents[page_id] = data  # the write's bytes win
            elif page_bytes is not None:
                self._contents[page_id] = page_bytes
            self.fault_latency.record(self.sim.now - start)
            if span is not None:
                span.set_tag("outcome", "ok")
            return self._contents.get(page_id)
        except BaseException as exc:
            if span is not None:
                span.tags.setdefault("error", type(exc).__name__)
            raise
        finally:
            if span is not None:
                span.finish()

    def _make_room(self, span: Optional[Span] = None):
        """Evict the LRU victim if the resident set is full."""
        while len(self._resident) >= self.resident_pages:
            victim, dirty = self._resident.popitem(last=False)
            if (
                not dirty
                and victim not in self._remote
                and self._contents.get(victim) is None
            ):
                # Touched by reads only, never initialized with content:
                # uninitialized anonymous memory can simply be dropped.
                self.stats.incr("untouched_drops")
                continue
            if dirty or victim not in self._remote:
                # Anonymous pages have no backing store: the first eviction
                # always pages out, like swap for a never-swapped page.
                # Dirty data can never be dropped, so write-back failures
                # (cluster-wide memory pressure) stall until they succeed.
                # A page written without bytes is anonymous memory nobody
                # initialized: it pages out as zeros (phantom backends
                # ignore the payload either way).
                payload = self._contents.get(victim, self._zero_page)
                while True:
                    try:
                        if span is not None:
                            yield self.backend.write(victim, payload, parent=span)
                        else:
                            yield self.backend.write(victim, payload)
                        break
                    except _TRANSIENT_ERRORS:
                        self.stats.incr("write_stalls")
                        yield self.sim.timeout(self.stall_retry_us)
                self._remote.add(victim)
                self.stats.incr("page_outs")
            else:
                # Clean victim with a valid remote copy: drop it.
                self.stats.incr("clean_drops")
            # A fault may have re-admitted the victim while its write-back
            # was in flight; the bytes then belong to the resident copy.
            if not self.verify_contents and victim not in self._resident:
                self._contents.pop(victim, None)

    # ------------------------------------------------------------------
    def preload(self, page_ids, make_data=None):
        """Simulation process: fault a set of pages in (warm-up helper).

        ``make_data(page_id)`` supplies real-mode content.
        """

        def run():
            for page_id in page_ids:
                data = make_data(page_id) if make_data else None
                yield self.access(page_id, write=True, data=data)

        return self.sim.process(run(), name="vmm-preload")

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    @property
    def hit_rate(self) -> float:
        total = self.stats["hits"] + self.stats["faults"]
        return self.stats["hits"] / total if total else 0.0
