"""In-memory replication — the high-performance, high-overhead extreme.

Each page is written in full to ``copies`` remote machines (2x by default,
as in the paper's evaluation: "we directly write each page over RDMA to
two remote machines' memory for a 2x overhead"). A remote I/O completes
after the confirmation from one of the replicas (§5.1); reads go to a
single replica and fail over on disconnect or checksum mismatch.

Lost replicas are re-replicated in the background by bulk-copying the
surviving slab to a new machine.
"""

from __future__ import annotations

from typing import Optional

from ..net import RDMAError, RemoteAccessError
from ..obs import Span
from ..sim import AnyOf
from .base import BackendError, BaselineBackend

__all__ = ["ReplicationBackend"]


class ReplicationBackend(BaselineBackend):
    """r+1-way in-memory replication with read failover and hedging."""

    name = "replication"
    # Time a subclass spends on an op outside these methods (compression),
    # taken into the one latency sample each op records.
    _write_stage_us = 0.0
    _read_stage_us = 0.0

    def __init__(
        self,
        *args,
        copies: int = 2,
        write_acks: int = 1,
        hedged_reads: bool = False,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        if not 1 <= write_acks <= copies:
            raise ValueError(f"write_acks must be in [1, {copies}], got {write_acks}")
        self.copies = copies
        self.write_acks = write_acks
        self.hedged_reads = hedged_reads

    @property
    def memory_overhead(self) -> float:
        return float(self.copies)

    # -- write -------------------------------------------------------------
    _WRITE_RETRIES = 20
    _WRITE_BACKOFF_US = 500.0

    def _write_process(self, page_id: int, data: Optional[bytes], span: Optional[Span] = None):
        """Write with bounded retry: under cluster-wide memory pressure a
        group can transiently have no live replica and no machine with
        space for a new one; evictions elsewhere free memory shortly."""
        for attempt in range(self._WRITE_RETRIES):
            try:
                result = yield from self._write_once(page_id, data, span)
                return result
            except BackendError:
                self.events.incr("write_retries")
                yield self.sim.timeout(self._WRITE_BACKOFF_US)
        raise BackendError(
            f"write of page {page_id} failed after {self._WRITE_RETRIES} retries"
        )

    def _live_replicas(self, page_id: int):
        """The replicas a write of ``page_id`` targets, placing the group on
        first use. Dead replicas are replaced by the background
        re-replication process; the write path only targets live ones —
        except when *every* replica is gone, where the write itself
        re-places the group (a write carries its own data; nothing needs
        recovering)."""
        handles = self._ensure_group(page_id, self.copies)
        live = [h for h in handles if h.available]
        if not live:
            group_id = self.group_of(page_id)
            for index, handle in enumerate(handles):
                if not handle.available:
                    try:
                        live.append(self.replace_handle(group_id, index))
                    except BackendError:
                        continue
            self.events.incr("group_replacements")
        if not live:
            self.events.incr("write_failures")
            raise BackendError(f"no replica reachable for page {page_id}")
        return live

    def _write_once(self, page_id: int, data: Optional[bytes], span: Optional[Span] = None):
        phases = self.tracer.phases(span)
        start = self.sim.now
        yield self.sim.timeout(self.config.software_overhead_us)
        phases.mark("software")
        live = self._live_replicas(page_id)
        offset = self.page_offset(page_id)
        version = self.versions.get(page_id, 0) + 1
        payload = self.make_payload(data, version)

        acks = [self._post_page_write(handle, offset, payload, span) for handle in live]
        succeeded = 0
        pending = list(acks)
        # Not a callback quorum like the RM's gather, on purpose: the two
        # zero-delay hops of _observe + AnyOf order same-timestamp resumes
        # on a shared cluster. Replacing them held fig01/10/14/16/17/18 and
        # tab03 byte-identical but moved fig02_background/burst/corruption
        # (replication p99 2.05 -> 1.91 ms, one ssd_backup timeline cell).
        while pending and succeeded < self.write_acks:
            yield AnyOf(self.sim, [self._observe(e) for e in pending])
            still = []
            for event in pending:
                if event.triggered:
                    if event.ok:
                        succeeded += 1
                else:
                    still.append(event)
            pending = still
        phases.mark("wait_acks", replicas=len(acks), acked=succeeded)
        if succeeded < 1:
            self.events.incr("write_failures")
            raise BackendError(f"write of page {page_id} reached no replica")

        self.record_integrity(page_id, data, version)
        self.write_latency.record(self.sim.now - start + self._write_stage_us)
        self.events.incr("writes")
        return None

    # -- read --------------------------------------------------------------
    def _read_process(self, page_id: int, span: Optional[Span] = None):
        phases = self.tracer.phases(span)
        start = self.sim.now
        self.events.incr("reads")
        if page_id not in self.versions:
            return None
        yield self.sim.timeout(self.config.software_overhead_us)
        phases.mark("software")
        handles = self.groups[self.group_of(page_id)]
        offset = self.page_offset(page_id)
        order = [h for h in handles if h.available] + [
            h for h in handles if not h.available
        ]
        if self.hedged_reads and len(order) > 1:
            payload = yield from self._hedged_read(order[:2], offset, page_id, span)
            if payload is not None:
                phases.mark("network")
                self.read_latency.record(self.sim.now - start + self._read_stage_us)
                return self.payload_to_bytes(payload)
            order = order[2:]
        for handle in order:
            try:
                payload = yield self._post_page_read(handle, offset, span)
            except (RDMAError, RemoteAccessError):
                self.events.incr("read_failovers")
                continue
            if self.payload_ok(page_id, payload):
                phases.mark("network")
                self.read_latency.record(self.sim.now - start + self._read_stage_us)
                return self.payload_to_bytes(payload)
            self.events.incr("corrupt_replica_reads")
        self.events.incr("read_failures")
        raise BackendError(f"no valid replica for page {page_id}")

    def _hedged_read(self, handles, offset: int, page_id: int, span: Optional[Span] = None):
        """Issue two reads at once, take the first valid one — doubles the
        read bandwidth, which is the §2.3 criticism of hedging."""
        self.events.incr("hedged_reads")
        pending = {
            i: self._post_page_read(h, offset, span) for i, h in enumerate(handles)
        }
        while pending:
            yield AnyOf(self.sim, [self._observe(e) for e in pending.values()])
            for key in list(pending):
                event = pending[key]
                if not event.triggered:
                    continue
                del pending[key]
                if event.ok and self.payload_ok(page_id, event.value):
                    return event.value
        return None

    # -- failure handling -----------------------------------------------------
    def on_handle_lost(self, group_id: int, index: int) -> None:
        self.sim.process(
            self._rereplicate(group_id, index), name=f"rereplicate:{group_id}/{index}"
        )

    def _rereplicate(self, group_id: int, index: int):
        """Background copy of a surviving replica slab to a new machine."""
        if self.groups[group_id][index].available:
            return  # already re-placed (e.g. by a write that found 0 live)
        survivors = [h for h in self.groups[group_id] if h.available]
        if not survivors:
            self.events.incr("groups_lost")
            return
        source = survivors[0]
        try:
            new_handle = self.replace_handle(group_id, index)
        except BackendError:
            self.events.incr("rereplicate_failed")
            return
        # Not ready until the copy lands: reads (and evictors) must not
        # treat an empty replica as valid.
        new_handle.available = False
        src_machine = self.fabric.machine(source.machine_id)
        dst_machine = self.fabric.machine(new_handle.machine_id)
        qp = self.fabric.qp(self.client_id, source.machine_id)

        def snapshot():
            slab = src_machine.hosted_slabs.get(source.slab_id)
            if slab is None:
                raise RemoteAccessError("source slab vanished")
            return dict(slab.pages)

        src_slab = src_machine.hosted_slabs.get(source.slab_id)
        used = src_slab.touched_pages if src_slab else 0
        try:
            pages = yield qp.post_read(
                max(1, used) * self.config.page_size, fetch=snapshot
            )
        except (RDMAError, RemoteAccessError):
            self.events.incr("rereplicate_failed")
            return
        dst_slab = dst_machine.hosted_slabs.get(new_handle.slab_id)
        if dst_slab is not None:
            dst_slab.pages.update(pages)
            new_handle.available = True
        self.events.incr("rereplications")

    def _observe(self, event):
        """Shield an event so its failure doesn't crash an AnyOf."""
        shield = self.sim.event(name="observe")
        if event.processed:
            shield.succeed()
            return shield
        event.callbacks.append(lambda _e: shield.succeed() if not shield.triggered else None)
        return shield
