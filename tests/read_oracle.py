"""The process-per-read Resilience Manager read path, kept as the oracle.

Until the late-binding read became a chain of stage callbacks
(``ResilienceManager._read``) every page read was a ``Process``: a
generator that yields the in-flight write it orders behind, a ``Timeout``
per datapath delay and its gather's ``wait_valid`` / ``wait_all`` events,
and corrects a suspected page through ``_correct_and_heal`` as a
sub-generator; the background check spawned a process running the same
generator when it detected corruption. The methods below are that
implementation verbatim, with two differences: the order stage re-checks
the fence after its wait, the fix that came with the callback chain, and
the background check's ``when_all`` callback takes no argument.

:func:`as_oracle` makes a deployed RM read this way;
``tests/test_read_chain.py`` drives it beside production and compares
bytes, exceptions, clocks, counters, observer calls and span trees.
"""

from typing import Dict, Optional

import numpy as np

from repro.cluster import PhantomSplit
from repro.core.address_space import AddressRange
from repro.core.resilience_manager import (
    HydraError,
    RemoteMemoryUnavailable,
    ResilienceManager,
    _SplitGather,
)
from repro.ec import CorruptionDetected, DecodeError
from repro.obs import Span, request_span, traced
from repro.sim import Timeout


def as_oracle(rm: ResilienceManager) -> ResilienceManager:
    """Make ``rm`` read through the process-per-read oracle; returns it."""
    rm.__class__ = OracleResilienceManager
    return rm


class OracleResilienceManager(ResilienceManager):
    """A Resilience Manager whose reads are generator processes."""

    def read(self, page_id: int, parent: Optional[Span] = None):
        """Read a page back; the process's value is the page bytes (real
        mode) or ``None`` (phantom mode)."""
        span = request_span(self.tracer, "rm.read", self.machine_id, page_id, parent)
        return self.sim.process(
            traced(self._read_process(page_id, span), span),
            name=f"hydra-read:{page_id}",
        )

    def _read_process(self, page_id: int, span: Optional[Span] = None):
        config = self.config
        phases = self.tracer.phases(span)
        start = self.sim.now
        if self._fenced:
            self.events.incr("fenced_reads")
            raise RemoteMemoryUnavailable(
                f"resilience manager {self.machine_id} is fenced"
            )
        self.events.incr("reads")

        # Per-QP ordering makes read-after-write safe for data splits, but a
        # read racing the *asynchronous parity* writes could mix versions;
        # the RM tracks in-flight writes and orders behind them (§4.3).
        inflight = self._inflight_writes.get(page_id)
        if inflight is not None and not inflight.triggered:
            yield inflight
            phases.mark("order")
            if self._fenced:
                self.events.incr("fenced_reads")
                raise RemoteMemoryUnavailable(
                    f"resilience manager {self.machine_id} is fenced"
                )

        if page_id not in self._versions:
            return None  # never written; nothing to read

        range_id, offset = self.space.locate(page_id)
        address_range = self.space.get(range_id)
        if address_range is None:
            raise HydraError(f"page {page_id} has a version but no range")
        version = self._versions[page_id]

        available = address_range.available_positions()
        if len(available) < config.k:
            raise RemoteMemoryUnavailable(
                f"page {page_id}: only {len(available)} slabs reachable"
            )

        # No machine has ever been suspected on the vast majority of reads;
        # one truthiness check replaces the per-position score scan then.
        error_scores = self.error_scores
        suspected = bool(error_scores) and any(
            error_scores.get(address_range.handle(p).machine_id, 0.0)
            >= config.error_correction_limit
            for p in available
        )
        if suspected:
            fanout = min(config.correction_fanout(), len(available))
            self.events.incr("suspicious_reads")
        else:
            fanout = min(config.read_fanout(), len(available))
        if span is not None:
            span.set_tag("fanout", fanout)
            if suspected:
                span.set_tag("suspected", True)

        yield Timeout(self.sim, self._issue_us[fanout])
        phases.mark("issue")

        slots = address_range.slots
        positions = self.rng.sample(available, fanout)
        gather = _SplitGather(self.sim, self._split_validator(version))
        self._post_splits(slots, offset, positions, span=span, gather=gather)

        escalations = 0
        while len(gather.valid) < config.k:
            yield gather.wait_valid(config.k)
            if len(gather.valid) >= config.k:
                break
            # Escalate: everything in flight has landed (each posted
            # position is in `arrivals`) and we still lack k valid splits —
            # request the untried positions.
            untried = [
                position
                for position in address_range.available_positions()
                if position not in gather.arrivals
            ]
            if untried:
                self._post_splits(slots, offset, untried, span=span, gather=gather)
                self.events.incr("escalation_reads", len(untried))
                escalations += len(untried)
            elif gather.outstanding == 0:
                break
        phases.mark("wait_k", valid=len(gather.valid))
        if span is not None and escalations:
            span.set_tag("escalations", escalations)

        if len(gather.valid) < config.k:
            self.events.incr("read_failures")
            if self._observers:
                self._notify("on_read_failed", page_id)
            detail = []
            for position, payload in sorted(gather.arrivals.items()):
                if isinstance(payload, PhantomSplit):
                    state = f"v{payload.version}" + ("!" if payload.corrupt else "")
                elif payload is None:
                    state = "none"
                else:
                    state = "bytes"
                detail.append(f"{position}={state}")
            raise RemoteMemoryUnavailable(
                f"page {page_id}: decoded {len(gather.valid)} valid splits, "
                f"need {config.k} (want v{version}; arrivals: {', '.join(detail)})"
            )

        yield Timeout(self.sim, self._completion_us[config.k])
        phases.mark("completion")

        # In-place coding guard: the k-th valid arrival deregisters the
        # page's memory region, so later (possibly corrupt) splits can never
        # overwrite it — we snapshot exactly the first k valid splits.
        first_k = gather.first_valid(config.k)
        systematic = set(first_k) == set(range(config.k))
        if not systematic:
            yield Timeout(self.sim, self._decode_us)
            phases.mark("decode")
            self.events.incr("decoded_reads")

        page: Optional[bytes] = None
        if config.payload_mode == "real":
            if suspected:
                # Inline verified read: wait for the full (k + 2Δ + 1)
                # fanout and decode through the correction path.
                yield gather.wait_all()
                usable = gather.real_payloads()
                try:
                    page = self.codec.decode_verified(usable)
                    self.events.incr("verified_reads")
                except CorruptionDetected:
                    page, _corrupted = yield from self._correct_and_heal(
                        address_range, offset, page_id, version, usable, span
                    )
                phases.mark("correction")
            else:
                data_splits = self.codec.code.decode(first_k)
                page = self.codec.join(data_splits)
                self._schedule_background_verify(
                    address_range, offset, page_id, version, gather,
                    first_k, data_splits, span,
                )

        if self._observers:
            self._notify("on_read_done", page_id, version, page, start)
        self.read_latency.record(self.sim.now - start)
        self.ops_window.record(self.sim.now)
        return page

    def _schedule_background_verify(
        self,
        address_range: AddressRange,
        offset: int,
        page_id: int,
        version: int,
        gather: _SplitGather,
        first_k: Dict[int, object],
        data_splits: np.ndarray,
        parent: Optional[Span] = None,
    ) -> None:
        span = (
            parent.child("rm.verify", cat="background") if parent is not None else None
        )

        def correct_then_finish(usable):
            try:
                yield from self._correct_and_heal(
                    address_range, offset, page_id, version, usable, span
                )
            finally:
                if span is not None:
                    span.finish()

        def check() -> None:
            spawned = False
            try:
                if self.codec.code.consistent_with_decode(
                    gather.arrivals, first_k, data_splits
                ):
                    return  # nothing to do (or no extra split to detect with)
                usable = gather.real_payloads()
                self.events.incr("corruption_detected")
                if span is not None:
                    span.set_tag("corruption_detected", True)
                spawned = True
                self.sim.process(correct_then_finish(usable), name=f"hydra-verify:{page_id}")
            finally:
                if span is not None and not spawned:
                    span.finish()

        gather.when_all(check)

    def _correct_and_heal(
        self,
        address_range: AddressRange,
        offset: int,
        page_id: int,
        version: int,
        splits: Dict[int, object],
        parent: Optional[Span] = None,
    ):
        """Fetch Δ + 1 extra splits, locate/correct errors, rewrite the
        corrupted splits, and update per-machine error scores."""
        config = self.config
        slots = address_range.slots
        # Corruption recovery is rare and high-value: trace it whenever the
        # tracer is on at all, even if the triggering read lost the sample.
        span = (
            parent.child("rm.recover", cat="recovery")
            if parent is not None
            else self.tracer.start_span(
                "rm.recover",
                machine_id=self.machine_id,
                cat="recovery",
                tags={"page": page_id},
            )
        )
        try:
            extra_needed = config.correction_fanout() - len(splits)
            if extra_needed > 0:
                extra_positions = [
                    p
                    for p in address_range.available_positions()
                    if p not in splits
                ][: extra_needed + config.delta]
                if extra_positions:
                    extra = self._post_splits(slots, offset, extra_positions, span=span)
                    yield extra.wait_all()
                    splits.update(extra.real_payloads())

            # Best-effort localization when the k + 2Δ + 1 guarantee cannot
            # be met with the splits that exist (e.g. r < 2Δ + 1): the
            # unique maximal-agreement codeword localizes random corruption
            # with overwhelming probability (§5.1 distinguishes this from
            # the information-theoretic guarantee).
            max_errors = max(1, (len(splits) - config.k - 1) // 2)
            try:
                page, corrupted = self.codec.correct(
                    splits, max_errors=max_errors, best_effort=True
                )
            except DecodeError:
                # Cannot localize: smear suspicion across those involved.
                for position in splits:
                    machine = address_range.handle(position).machine_id
                    self._record_error(
                        machine, 1.0 / len(splits), address_range, position
                    )
                self.events.incr("uncorrectable_detections")
                if span is not None:
                    span.set_tag("outcome", "uncorrectable")
                return self.codec.decode(splits), []

            self.events.incr("corrected_reads")
            data_splits = self.codec.split(page)
            for position in corrupted:
                machine = address_range.handle(position).machine_id
                self._record_error(machine, 1.0, address_range, position)
                # Heal the stored split in place.
                payload = self.codec.code.reencode_split(data_splits, position)
                self._post_splits(slots, offset, (position,), (payload,), span)
                self.events.incr("healed_splits")
            if span is not None:
                span.set_tag("outcome", "corrected")
                span.set_tag("corrupted_positions", list(corrupted))
            return page, corrupted
        finally:
            if span is not None:
                span.finish()
