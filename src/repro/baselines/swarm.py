"""SWARM-style sub-RTT replication — the low-latency replication extreme.

SWARM (as surveyed in PAPERS.md) completes a replicated write in *less*
than one network round trip: the requester unblocks once the write has
been serialized onto the wire and propagated one way, while the replica
acknowledgements drain in the background. Latency approaches a raw
one-way write; the cost is a completion that runs ahead of durability —
a replica that dies between completion and ack delivery silently holds
no copy. The backend surfaces that window through two counters:
``sub_rtt_completions`` (writes completed before all acks) and
``post_completion_failures`` (replica writes that failed *after* the
client already considered the write complete).

Reads, re-replication and group placement are inherited unchanged from
:class:`~repro.baselines.replication.ReplicationBackend`; only the write
completion rule differs, which is exactly the knob the Hydra comparison
cares about (client-visible latency vs. the durability of the ack).
"""

from __future__ import annotations

from typing import Optional

from ..obs import Span
from .replication import ReplicationBackend

__all__ = ["SwarmReplicationBackend"]


class SwarmReplicationBackend(ReplicationBackend):
    """Replication with sub-RTT write completion and background acks."""

    name = "swarm"

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
        # Sub-RTT completion: unblock once the payload has been serialized
        # out of the requester's NIC and reached the switch (half the
        # one-way path) — from there the fabric carries it to every
        # replica without further requester involvement. The delivery
        # confirmations are collected off the critical path.
        network = self.fabric.config
        wire_us = 0.5 * network.base_latency_us + network.transfer_us(
            self.config.page_size
        )
        yield self.sim.timeout(wire_us)
        phases.mark("sub_rtt_completion", replicas=len(acks))
        self.sim.process(
            self._collect_acks(page_id, list(acks)),
            name=f"swarm-acks:{page_id}",
        )

        self.record_integrity(page_id, data, version)
        self.write_latency.record(self.sim.now - start)
        self.events.incr("writes")
        self.events.incr("sub_rtt_completions")
        return None

    def _collect_acks(self, page_id: int, acks):
        """Background drain of the replica acks for one completed write."""
        for event in acks:
            if not event.processed:
                yield self._observe(event)
        failures = sum(1 for event in acks if not event.ok)
        if failures:
            # The client already moved on: these replicas missed the
            # write, and only background re-replication (or the next
            # overwrite) will repair them — the SWARM durability window.
            self.events.incr("post_completion_failures", failures)
