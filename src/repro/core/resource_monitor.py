"""The Hydra Resource Monitor (§3.2, §4.4) — the server-side daemon.

One Resource Monitor runs on every machine that donates memory. Each
ControlPeriod it:

* defends the free-memory *headroom* for local applications — when free
  memory shrinks below the headroom it evicts slabs using decentralized
  batch eviction (evict the E least-frequently-accessed of E + E' sampled
  slabs, notifying the owning Resilience Managers first);
* *proactively allocates* FREE slabs when memory is plentiful, so remote
  map requests are served instantly (Fig 7b).

It also serves the control-plane RPCs (load queries, slab map/unmap) and
executes background slab regeneration hand-offs: reading k source slabs in
bulk, re-encoding the lost split position, and calling the owner back.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cluster import Machine, PhantomSplit, Slab, SlabState, recoverable_versions
from ..ec import ReedSolomonCode
from ..ec.vectorized import rebuild_position
from ..net import RemoteAccessError
from ..obs import MetricsRegistry, Tracer, default_obs
from ..sim import RandomSource
from .config import HydraConfig
from .resilience_manager import _SplitGather
from .rpc import RpcEndpoint, RpcError

__all__ = ["ResourceMonitor"]

# Decode throughput for regeneration, from §7.1.2: a 1 GB slab decodes in
# ~50 ms => ~4.66e-5 µs per byte.
_DECODE_US_PER_BYTE = 50_000.0 / float(1 << 30)


def _snapshot_slab(machine: Machine, slab_id: int) -> dict:
    """What a bulk READ of a regeneration source returns at completion
    time: the slab's pages, if it is still there to be read."""
    remote = machine.hosted_slabs.get(slab_id)
    if remote is None or remote.state is SlabState.FREE:
        raise RemoteAccessError(f"source slab {slab_id} unavailable")
    return dict(remote.pages)


class ResourceMonitor:
    """Manages one machine's donated memory slabs."""

    def __init__(
        self,
        machine: Machine,
        config: HydraConfig,
        endpoint: RpcEndpoint,
        rng: RandomSource,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.machine = machine
        self.sim = machine.sim
        self.config = config
        self.endpoint = endpoint
        self.rng = rng
        self.tracer, self.metrics = default_obs(machine.fabric, self.sim, tracer, metrics)
        metrics = self.metrics
        self.events = metrics.counter_group(f"monitor.{machine.id}.events")
        # Headroom over time: one point per ControlPeriod, the watermark
        # series the health monitor and ``repro top`` read.
        self.free_series = metrics.timeseries(f"monitor.{machine.id}.free_fraction")
        self._daemon = None

        endpoint.register("query_load", self._on_query_load)
        endpoint.register("map_slab", self._on_map_slab)
        endpoint.register("unmap_slab", self._on_unmap_slab)
        endpoint.register("regenerate_slab", self._on_regenerate_slab)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the periodic control loop."""
        if self._daemon is None:
            self._daemon = self.sim.process(
                self._control_loop(), name=f"monitor:{self.machine.id}"
            )

    def _control_loop(self):
        config = self.config
        while True:
            yield self.sim.timeout(config.control_period_us)
            if not self.machine.alive:
                continue
            self.machine.record_usage()
            free_fraction = self.machine.free_bytes / self.machine.total_memory_bytes
            self.free_series.record(self.sim.now, free_fraction)
            # One sampled span per ControlPeriod iteration: headroom state
            # plus which arm (defense vs proactive allocation) ran.
            span = self.tracer.start_trace(
                "monitor.loop",
                machine_id=self.machine.id,
                tags={"free_fraction": round(free_fraction, 4)},
            )
            try:
                if free_fraction < config.headroom_fraction:
                    if span is not None:
                        span.set_tag("action", "relieve_pressure")
                    yield from self._relieve_pressure()
                else:
                    if span is not None:
                        span.set_tag("action", "proactive_allocate")
                    self._proactive_allocate(free_fraction)
            finally:
                if span is not None:
                    span.finish()

    # ------------------------------------------------------------------
    # headroom defense (Fig 7a)
    # ------------------------------------------------------------------
    def _relieve_pressure(self):
        """Free memory until the headroom is restored: drop FREE slabs
        first, then batch-evict mapped slabs."""
        config = self.config
        target = int(config.headroom_fraction * self.machine.total_memory_bytes)
        # Cheapest first: unused FREE slabs.
        for slab in self.machine.free_slabs():
            if self.machine.free_bytes >= target:
                break
            self.machine.release_slab(slab.slab_id)
            self.events.incr("free_slabs_dropped")
        # Then evict mapped slabs with batch eviction.
        while self.machine.free_bytes < target:
            evicted = yield from self._batch_evict()
            if not evicted:
                break  # nothing left to evict

    def _batch_evict(self):
        """Decentralized batch eviction (§4.4): sample (E + E') mapped
        slabs, evict the E least-frequently-accessed after notifying their
        owners. Returns the number of slabs evicted."""
        config = self.config
        mapped = self.machine.mapped_slabs()
        if not mapped:
            return 0
        sample_size = min(len(mapped), config.eviction_batch + config.eviction_extra)
        sample = self.rng.sample(mapped, sample_size)
        sample.sort(key=lambda slab: slab.access_count)
        evicted = 0
        for slab in sample:
            if evicted >= config.eviction_batch:
                break
            try:
                reply = yield self.endpoint.call(
                    slab.owner_id,
                    "evict_slab",
                    {
                        "slab_id": slab.slab_id,
                        "range_id": slab.range_id,
                        "position": slab.split_index,
                    },
                )
            except RpcError:
                reply = {"ok": True}  # owner unreachable; evict freely
            if not (reply or {}).get("ok", True):
                # Owner vetoed (range already degraded); try the next
                # candidate from the (E + E') sample.
                self.events.incr("evictions_vetoed")
                continue
            self.machine.release_slab(slab.slab_id)
            self.events.incr("slabs_evicted")
            evicted += 1
        return evicted

    # ------------------------------------------------------------------
    # proactive allocation (Fig 7b)
    # ------------------------------------------------------------------
    def _proactive_allocate(self, free_fraction: float) -> None:
        """Pre-allocate FREE slabs while staying above the headroom."""
        config = self.config
        slab_fraction = config.slab_size_bytes / self.machine.total_memory_bytes
        # Count free slabs once and track the delta locally: every slab
        # allocated below is FREE by construction, so re-scanning the
        # hosted-slab dict each iteration would be O(slabs) for nothing.
        free_count = len(self.machine.free_slabs())
        while (
            free_count < config.free_slab_target
            and free_fraction - slab_fraction > config.headroom_fraction
        ):
            try:
                self.machine.allocate_slab(config.slab_size_bytes)
            except MemoryError:
                break
            free_count += 1
            self.events.incr("slabs_preallocated")
            free_fraction = self.machine.free_bytes / self.machine.total_memory_bytes

    # ------------------------------------------------------------------
    # control-plane handlers
    # ------------------------------------------------------------------
    def _on_query_load(self, src_id: int, body: dict) -> dict:
        return {
            "utilization": self.machine.memory_utilization,
            "free_bytes": self.machine.free_bytes,
            "has_free_slab": bool(self.machine.free_slabs()),
            "rack": self.machine.rack,
        }

    def _on_map_slab(self, src_id: int, body: dict) -> dict:
        """Map a slab for a remote RM: reuse a FREE slab or allocate one,
        refusing when that would break the local headroom."""
        config = self.config
        slab = self._take_free_slab()
        if slab is None:
            after = self.machine.free_bytes - config.slab_size_bytes
            if after / self.machine.total_memory_bytes < config.headroom_fraction:
                raise MemoryError(
                    f"machine {self.machine.id}: mapping would break headroom"
                )
            slab = self.machine.allocate_slab(config.slab_size_bytes)
        slab.map_to(src_id, body["range_id"], body["position"])
        self.events.incr("slabs_mapped")
        return {"slab_id": slab.slab_id}

    def _on_unmap_slab(self, src_id: int, body: dict) -> dict:
        slab = self.machine.hosted_slabs.get(body["slab_id"])
        if slab is not None and slab.owner_id == src_id:
            self.machine.release_slab(slab.slab_id)
            self.events.incr("slabs_unmapped")
            return {"ok": True}
        return {"ok": False}

    def _take_free_slab(self) -> Optional[Slab]:
        free = self.machine.free_slabs()
        return free[0] if free else None

    # ------------------------------------------------------------------
    # background slab regeneration (§4.4)
    # ------------------------------------------------------------------
    def _on_regenerate_slab(self, src_id: int, body: dict) -> dict:
        """Accept a regeneration hand-off: allocate the replacement slab
        synchronously (so refusal propagates as an RPC error), then rebuild
        in a background process."""
        slab = self._take_free_slab()
        if slab is None:
            slab = self.machine.allocate_slab(self.config.slab_size_bytes)
        slab.map_to(body["owner"], body["range_id"], body["position"])
        slab.begin_regeneration()
        self.sim.process(
            self._regenerate_process(slab, body),
            name=f"regen@{self.machine.id}:{body['range_id']}/{body['position']}",
        )
        return {"slab_id": slab.slab_id, "started": True}

    def _regenerate_process(self, slab: Slab, body: dict):
        """Bulk-read k source slabs in parallel, re-encode the lost split
        position, install the pages, and call the owner back."""
        sources = body["sources"]
        k = body["k"]
        span = self.tracer.start_span(
            "monitor.regen",
            machine_id=self.machine.id,
            tags={
                "range": body["range_id"],
                "position": body["position"],
                "owner": body["owner"],
            },
        )
        phases = self.tracer.phases(span)
        fabric = self.machine.fabric
        gather = _SplitGather(self.sim)
        for source in sources:
            machine = fabric.machine(source["machine_id"])
            remote_slab = machine.hosted_slabs.get(source["slab_id"])
            used = remote_slab.touched_pages if remote_slab else 0
            gather.post(
                fabric.qp(self.machine.id, source["machine_id"]),
                max(1, used) * self.config.split_size,
                source["position"],
                _snapshot_slab,
                (machine, source["slab_id"]),
                span,
                "read",
            )
        yield gather.wait_all()
        # In source order, not arrival order: the rebuilt slab's page order
        # follows the order the snapshots are merged in.
        positions = [source["position"] for source in sources]
        snapshots = {p: gather.arrivals[p] for p in positions if p in gather.valid}
        phases.mark("read_sources", sources=len(sources), usable=len(snapshots))
        if len(snapshots) < k:
            self.events.incr("regen_aborted")
            if span is not None:
                span.set_tag("outcome", "aborted")
                span.finish()
            slab.unmap()
            return

        # Pages recoverable at this position: any page with >= k source
        # splits (sources may themselves have gaps from earlier rebuilds).
        universe = set()
        for snapshot in snapshots.values():
            universe.update(snapshot)
        rebuilt_bytes = len(universe) * self.config.split_size * k
        yield self.sim.timeout(rebuilt_bytes * _DECODE_US_PER_BYTE)
        phases.mark("decode", pages=len(universe), bytes=rebuilt_bytes)

        if body["payload_mode"] == "real":
            self._rebuild_real(
                slab, body["position"], snapshots, universe, k, body["r"]
            )
        else:
            self._rebuild_phantom(slab, snapshots, universe, k)

        slab.finish_regeneration()
        self.events.incr("slabs_regenerated")
        try:
            yield self.endpoint.call(
                body["owner"],
                "slab_regenerated",
                {
                    "range_id": body["range_id"],
                    "position": body["position"],
                    "slab_id": slab.slab_id,
                },
            )
            phases.mark("ack")
            if span is not None:
                span.set_tag("outcome", "rebuilt")
        except RpcError:
            # Owner vanished; drop the orphan slab.
            if span is not None:
                span.set_tag("outcome", "owner_gone")
            slab.unmap()
        if span is not None:
            span.finish()

    def _rebuild_real(
        self,
        slab: Slab,
        target_position: int,
        snapshots: Dict[int, dict],
        universe: set,
        k: int,
        r: int,
    ) -> None:
        """Vectorized re-encode: target_split = G[t] @ inv(G[rows]) @ S.

        Pages are grouped by the k source positions that actually hold
        them, one GF matmul per group; pages with fewer than k sources are
        skipped (not recoverable at this position right now).
        """
        if not universe:
            return
        code = ReedSolomonCode(k, r)
        rebuilt = rebuild_position(
            code, snapshots, target_position, self.config.split_size
        )
        slab.pages.update(rebuilt)

    def _rebuild_phantom(
        self, slab: Slab, snapshots: Dict[int, dict], universe: set, k: int
    ) -> None:
        """Rebuild each phantom page at the newest version it is
        recoverable at (:func:`repro.cluster.recoverable_versions`)."""
        for page_id in universe:
            viable = recoverable_versions(
                (snapshot.get(page_id) for snapshot in snapshots.values()), k
            )
            if viable:
                slab.pages[page_id] = PhantomSplit(version=max(viable))
