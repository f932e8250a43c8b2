"""The process-per-write Resilience Manager write path, kept as the oracle.

Until the write became a chain of stage callbacks
(``ResilienceManager._write``) every page write was a ``Process``: a
generator that places the page's range (``_resolve``, with a backoff while
placement fails), commits the write intent, and runs ``_write_attempt`` —
a ``Timeout`` for the issue overhead, one for a degraded write's encode,
its gather's ``wait_valid`` event and a ``Timeout`` for the completion
overhead — retried after a backoff while fewer than k splits are acked;
then it commits the ack and acknowledges. The methods below are that
implementation verbatim — ``_resolve``, the placement step the write
retried, included — with one difference: the two metadata commits are
``yield``ed (``ReplicatedMetadataStore.commit`` returns an event now)
instead of delegated to with ``yield from``.

:func:`as_oracle` makes a deployed RM write this way;
``tests/test_write_chain.py`` drives it beside production and compares
bytes, exceptions, clocks, counters, observer calls and span trees.
"""

from typing import List, Optional

import numpy as np

from repro.cluster import PhantomSplit
from repro.core.address_space import AddressRange
from repro.core.placement import PlacementError
from repro.core.resilience_manager import (
    _WRITE_RETRY_BACKOFF_US,
    _WRITE_RETRY_LIMIT,
    HydraError,
    RemoteMemoryUnavailable,
    ResilienceManager,
)
from repro.obs import Span, request_span, traced
from repro.sim import Event, Timeout


def as_oracle(rm: ResilienceManager) -> ResilienceManager:
    """Make ``rm`` write through the process-per-write oracle; returns it."""
    rm.__class__ = OracleResilienceManager
    return rm


class OracleResilienceManager(ResilienceManager):
    """A Resilience Manager whose writes are generator processes."""

    def write(self, page_id: int, data: Optional[bytes] = None, parent: Optional[Span] = None):
        """Write a page to remote memory; returns a simulation process."""
        span = request_span(self.tracer, "rm.write", self.machine_id, page_id, parent)
        return self.sim.process(
            traced(self._write_process(page_id, data, span), span),
            name=f"hydra-write:{page_id}",
        )

    def _write_process(self, page_id: int, data: Optional[bytes], span: Optional[Span] = None):
        config = self.config
        phases = self.tracer.phases(span)
        start = self.sim.now
        if self._fenced:
            self.events.incr("fenced_writes")
            raise RemoteMemoryUnavailable(
                f"resilience manager {self.machine_id} is fenced"
            )
        # Reject a malformed page before it reserves cluster memory or
        # commits an intent for splits that would never be posted.
        data_splits = None
        if config.payload_mode == "real":
            if data is None or len(data) != config.page_size:
                raise HydraError(
                    f"real mode write needs {config.page_size} bytes of data"
                )
            data_splits = self.codec.split(data)
        # Placement can transiently fail under cluster-wide memory
        # pressure; back off and retry before giving up.
        address_range = None
        for attempt in range(_WRITE_RETRY_LIMIT):
            try:
                address_range, offset = yield from self._resolve(page_id)
                break
            except PlacementError:
                self.events.incr("placement_retries")
                yield self.sim.timeout(_WRITE_RETRY_BACKOFF_US * 4 * (attempt + 1))
        phases.mark("place")
        if address_range is None:
            self.events.incr("write_failures")
            raise RemoteMemoryUnavailable(
                f"no placement for page {page_id} after {_WRITE_RETRY_LIMIT} tries"
            )
        version = self._versions.get(page_id, 0) + 1

        # Write-ahead metadata: the intent (and any slab-map records the
        # placement just appended) must reach a majority of the metadata
        # replica set before any split is posted, so a failover can tell a
        # torn write from a never-started one.
        if self._meta is not None:
            self._meta.append("write_intent", page_id=page_id, version=version)
            if not (yield self._meta.commit()):
                self.events.incr("meta_commit_failures")
                raise RemoteMemoryUnavailable(
                    f"metadata quorum unavailable for write of page {page_id}"
                )

        full_done = self.sim.event(name=f"write-durable:{page_id}")
        self._inflight_writes[page_id] = full_done

        def _finish_inflight(_event: Event) -> None:
            if self._inflight_writes.get(page_id) is full_done:
                del self._inflight_writes[page_id]

        full_done.callbacks.append(_finish_inflight)

        for attempt in range(_WRITE_RETRY_LIMIT):
            if self._fenced:
                break
            available = address_range.available_positions()
            try:
                yield from self._write_attempt(
                    address_range, offset, page_id, version, data_splits,
                    available, full_done, span, phases,
                )
            except RemoteMemoryUnavailable:
                self.events.incr("write_retries")
                # Probe the range: any position on an unreachable machine
                # is marked failed here (belt and braces — the disconnect
                # listener normally does this first).
                for position in address_range.available_positions():
                    handle = address_range.handle(position)
                    if not self.fabric.reachable(self.machine_id, handle.machine_id):
                        self._emit("on_position_failed", address_range.range_id, position)
                        self._start_regeneration(address_range, position)
                yield self.sim.timeout(_WRITE_RETRY_BACKOFF_US)
                phases.mark("retry_backoff", attempt=attempt)
                continue
            # The splits are in remote memory; commit the ack record before
            # promising anything to the client. On quorum loss the RM is
            # fenced and the version table untouched: the successor's seal
            # pass resolves the torn splits at `version`.
            if self._meta is not None:
                self._meta.append("write_acked", page_id=page_id, version=version)
                if not (yield self._meta.commit()):
                    self.events.incr("meta_commit_failures")
                    if not full_done.triggered:
                        full_done.succeed_now()
                    raise RemoteMemoryUnavailable(
                        f"metadata quorum lost before acking page {page_id}"
                    )
            # Positions that could not receive this write need a catch-up
            # split once their slab is regenerated; buffer the content so
            # the repair is self-contained. Decide by the positions that
            # were unavailable when the splits were POSTED — if one came
            # back while our acks were in flight, the helper posts the
            # split directly instead of buffering.
            if len(available) != config.n or not all(
                handle.available for handle in address_range.slots
            ):
                for position in range(config.n):
                    posted = position in available
                    live = address_range.handle(position).available
                    if posted and live:
                        continue  # the write itself covered this position
                    self._record_or_post_catchup(
                        address_range, position, offset, page_id, version, data
                    )
            self._emit("on_write_acked", page_id, version, data)
            if self._observers:
                if full_done.triggered:
                    self._notify("on_write_durable", page_id, version)
                else:
                    full_done.callbacks.append(
                        lambda _event: self._notify("on_write_durable", page_id, version)
                    )
            self.write_latency.record(self.sim.now - start)
            self.ops_window.record(self.sim.now)
            self.events.incr("writes")
            return None

        if not full_done.triggered:
            full_done.succeed_now()  # give up; unblock any ordered readers
        self.events.incr("write_failures")
        raise RemoteMemoryUnavailable(
            f"write of page {page_id} failed after {_WRITE_RETRY_LIMIT} attempts"
        )

    def _write_attempt(
        self,
        address_range: AddressRange,
        offset: int,
        page_id: int,
        version: int,
        data_splits: Optional[np.ndarray],
        available: List[int],
        full_done: Event,
        span: Optional[Span],
        phases,
    ):
        """One try at landing ``version`` of a page: issue, post the splits
        on the critical path, return once enough of them are acknowledged.

        With asynchronous encoding and every data slab up only the k data
        splits are on the critical path: parities are encoded and written
        behind the client's ack and :meth:`_write_parity_async` marks the
        write durable. Otherwise the page is encoded first and every
        reachable split posted (§4.3 'resends the I/O request to other
        machines'), so the write is durable once its acks are in. Raises
        :class:`RemoteMemoryUnavailable` on fewer than k acks; the caller
        backs off and retries.
        """
        config = self.config
        dp = config.datapath
        k = config.k
        async_parity = dp.async_encoding and all(
            handle.available for handle in address_range.slots[:k]
        )
        # Only verbs on the critical path cost posting time.
        positions = range(k) if async_parity else available
        yield Timeout(self.sim, self._issue_us[len(positions)])
        phases.mark("issue")
        payloads = data_splits  # row views, one per data position
        need = k
        if not async_parity:
            if len(available) < k:
                raise RemoteMemoryUnavailable(
                    f"only {len(available)} slabs available, need {k}"
                )
            yield Timeout(self.sim, self._encode_us)
            phases.mark("encode")
            if data_splits is not None:
                all_splits = self.codec.code.encode_page(data_splits)
                payloads = [all_splits[position] for position in available]
            if not dp.async_encoding:
                need = len(available)  # the unoptimized write waits for all
        if data_splits is None:
            payloads = [PhantomSplit(version=version) for _ in positions]
        acks = self._post_splits(address_range.slots, offset, positions, payloads, span)
        yield acks.wait_valid(need)
        acked = len(acks.valid)
        phases.mark("wait_k", fanout=len(positions), acked=acked)
        yield Timeout(self.sim, self._completion_us[need])
        phases.mark("completion")
        if acked < k:
            raise RemoteMemoryUnavailable(f"only {acked} split writes acked, need {k}")
        if async_parity:
            # The application gets its ack here; parity continues behind it.
            self._schedule_parity(
                address_range, offset, page_id, version, data_splits, full_done, span
            )
        else:
            self.events.incr("degraded_writes")
            if not full_done.triggered:
                full_done.succeed_now()

    def _resolve(self, page_id: int):
        """Locate (or lazily place) the address range of ``page_id``.

        Raises :class:`PlacementError` when the cluster cannot host the
        range right now; callers back off and retry.
        """
        range_id, offset = self.space.locate(page_id)
        address_range = self.space.get(range_id)
        if address_range is not None:
            return address_range, offset
        pending = self._placements_pending.get(range_id)
        if pending is not None:
            yield pending
            address_range = self.space.get(range_id)
            if address_range is None:
                raise PlacementError(
                    f"placement of range {range_id} failed while waiting"
                )
            return address_range, offset
        gate = self.sim.event(name=f"placement:{range_id}")
        self._placements_pending[range_id] = gate
        try:
            handles = yield from self.placer.place_range(range_id)
            address_range = AddressRange(range_id, handles)
            self._emit("on_range_installed", address_range)
            self._watch_machines(handles)
            self.events.incr("ranges_placed")
        finally:
            del self._placements_pending[range_id]
            gate.succeed()
        return address_range, offset
