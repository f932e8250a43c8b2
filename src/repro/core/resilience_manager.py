"""The Hydra Resilience Manager (§3.1, §4) — the client-side data path.

One Resilience Manager runs on every machine that consumes remote memory.
It owns a remote address space (ranges of (k + r) slabs placed via batch
placement), erasure-codes each 4 KB page individually, and implements the
four data-path techniques of §4.2:

* **asynchronously encoded writes** — data splits are written first and
  the write returns to the application after their k acks; parities are
  encoded and written in the background;
* **late-binding reads** — (k + Δ) splits are requested in parallel and
  the read completes at the k-th *valid* arrival, cutting straggler tails;
* **run-to-completion** and **in-place coding** — modeled as host-side
  overheads that vanish when the toggles are on (see
  :mod:`repro.core.datapath`).

It also implements the §4.3 uncertainty machinery: disconnect-driven slab
failover, eviction notices, corruption detection/correction with
per-machine error accounting (ErrorCorrectionLimit /
SlabRegenerationLimit), and background slab regeneration hand-off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..cluster import PhantomSplit, SlabState, recoverable_versions
from ..ec import (
    CorruptionDetected,
    DecodeError,
    PageCodec,
    reencode_split_pages,
)
from ..net import QueuePair, RdmaFabric
from ..obs import MetricsRegistry, Span, Tracer, default_obs, request_span
from ..sim import Event, RandomSource, Simulator
from .address_space import AddressRange, RemoteAddressSpace, SlabHandle
from .config import HydraConfig
from .datapath import (
    completion_overhead_us,
    decode_latency_us,
    encode_latency_us,
    issue_overhead_us,
)
from .placement import BatchPlacer, PlacementError
from .rpc import RpcEndpoint, RpcError

__all__ = ["HydraError", "RemoteMemoryUnavailable", "ResilienceManager"]

_WRITE_RETRY_LIMIT = 10
_WRITE_RETRY_BACKOFF_US = 100.0
_REGEN_TIMEOUT_US = 5_000_000.0  # give up on a silent regeneration target
_ALL = float("inf")  # a gather `need` no valid count reaches: wait for every post


def _sample(rng: RandomSource, population: List[int], count: int) -> List[int]:
    """``rng.sample(population, count)``, consuming ``population``: up to
    21 elements (an RM's k + r, almost always) ``random.Random.sample``
    draws from a pool list, and this is that loop without its wrappers —
    the same ``getrandbits`` calls, so the same result and generator state."""
    n = len(population)
    if n > 21:
        return rng.sample(population, count)
    getrandbits = rng._rng.getrandbits
    chosen = []
    for left in range(n, n - count, -1):
        bits = left.bit_length()
        j = getrandbits(bits)
        while j >= left:
            j = getrandbits(bits)
        chosen.append(population[j])
        population[j] = population[left - 1]
    return chosen


class _SplitGather:
    """The one fan-out-and-gather of ``repro.core``: n posted verbs tracked
    by position, one waiter woken at the need-th *valid* completion.

    A write returns at k acks of (k + r) (§4.2.1), a late-binding read at
    k valid splits of (k + Δ) (§4.2.2); verification, seal recovery and
    takeover and regeneration's source reads wait for everything they
    posted. The gather is the *sink* of its verbs: :meth:`post` counts the
    verb as outstanding and hands :meth:`_arrive` and a position to
    ``QueuePair._post``, whose completion record calls it back — no event,
    callback list or closure per split.
    A verb that succeeded is valid when ``is_valid`` accepts its value
    (every success counts when there is no predicate, as for write acks
    and metadata verbs); a failed verb finishes but is never valid. The
    one waiter is a callable (:meth:`when_valid`) run from the delivery
    that satisfies it: no event per wait unless a generator asks for one.
    """

    __slots__ = ("sim", "is_valid", "arrivals", "valid", "outstanding", "_need", "_waiter")

    def __init__(self, sim: Simulator, is_valid=None):
        self.sim = sim
        self.is_valid = is_valid
        self.arrivals: Dict[object, object] = {}  # position -> payload (None: failed)
        self.valid: List[object] = []  # valid positions in arrival order
        self.outstanding = 0  # posted, not yet arrived
        self._need = 0
        self._waiter: Optional[Event] = None

    def post(self, qp, size: int, position, fn, args=(), span=None, kind="op") -> None:
        """Post a one-sided verb on ``qp`` that completes into this gather
        as ``position`` with ``fn(*args)``'s value, or its failure."""
        self.outstanding += 1
        post = (qp, position, fn, args)
        QueuePair._post(qp.fabric, size, self._arrive, (post,), True, span, kind)

    def _arrive(self, position, ok: bool, value) -> None:
        """The verb posted for ``position`` completed (``QueuePair._post``
        sink): ``value`` is what it returned, or its exception."""
        self.outstanding -= 1
        if ok:
            self.arrivals[position] = value
            is_valid = self.is_valid
            if is_valid is None or is_valid(value):
                self.valid.append(position)
        else:
            self.arrivals[position] = None
        waiter = self._waiter
        if waiter is not None and (
            len(self.valid) >= self._need or self.outstanding == 0
        ):
            # Detach before delivering: the waiter runs synchronously and
            # may register itself again (the read's escalation) — the slot
            # must already be clear.
            self._waiter = None
            waiter()

    def when_valid(self, need: int, waiter) -> None:
        """Call ``waiter()`` once ``need`` valid completions have arrived —
        or once nothing is outstanding anymore (the caller sees fewer in
        ``valid`` and decides: escalate, retry, fail): at once when that is
        already so, else from the delivering :meth:`_arrive`. One waiter at
        a time; no event, no process to resume."""
        assert self._waiter is None, "a gather serves one waiter at a time"
        if len(self.valid) >= need or self.outstanding == 0:
            waiter()
        else:
            self._need = need
            self._waiter = waiter

    def when_all(self, waiter) -> None:
        """Call ``waiter()`` once every posted verb has completed."""
        self.when_valid(_ALL, waiter)

    def wait_valid(self, need: int) -> Event:
        """:meth:`when_valid` as an event, for a generator to yield."""
        event = self.sim.event(name="gather")
        self.when_valid(need, event.succeed_now)
        return event

    def wait_all(self) -> Event:
        """:meth:`when_all` as an event, for a generator to yield."""
        return self.wait_valid(_ALL)

    def first_valid(self, count: int) -> Dict[int, object]:
        """The first ``count`` valid splits in arrival order — exactly what
        survives the in-place buffer after MR deregistration."""
        return {p: self.arrivals[p] for p in self.valid[:count]}

    def real_payloads(self) -> Dict[int, np.ndarray]:
        return {
            p: payload
            for p, payload in self.arrivals.items()
            if isinstance(payload, np.ndarray)
        }


class HydraError(Exception):
    """Base error of the resilience layer."""


class RemoteMemoryUnavailable(HydraError):
    """Fewer than k splits of a page are reachable — data is lost or the
    cluster lacks capacity."""


class ResilienceManager:
    """Erasure-coded remote memory for one client machine.

    The public interface is the remote-memory-pool protocol shared with
    the baselines: :meth:`write` and :meth:`read` return an event;
    ``yield`` them from workload code. Underneath, every path
    that touches splits posts through :meth:`_post_splits` and waits on
    the :class:`_SplitGather` it returns — the gather is the sink the
    posted verbs complete into, so a split is handled once, by
    ``_SplitGather._arrive`` — and a write is an attempt retried,
    whichever slabs are up. A healthy read decodes once: the
    background check of the Δ extras compares them with the codeword that
    decode produced (``ReedSolomonCode.consistent_with_decode``).
    """

    name = "hydra"

    def __init__(
        self,
        sim: Simulator,
        fabric: RdmaFabric,
        machine_id: int,
        config: HydraConfig,
        endpoint: RpcEndpoint,
        placer: BatchPlacer,
        rng: RandomSource,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.machine_id = machine_id
        self.config = config
        self.endpoint = endpoint
        self.placer = placer
        self.rng = rng
        self.codec = PageCodec(config.k, config.r, page_size=config.page_size)
        self.space = RemoteAddressSpace(config.pages_per_range)

        # Phantom-mode page versions; also used in real mode for bookkeeping.
        self._versions: Dict[int, int] = {}
        # Real-mode golden copies are NOT kept: reads decode remote bytes.
        self._inflight_writes: Dict[int, Event] = {}
        self._placements_pending: Dict[int, Event] = {}
        self._regenerating: Set[Tuple[int, int]] = set()
        self._regen_waiters: Dict[Tuple[int, int], Event] = {}
        # Pages written while a split position was unavailable: their split
        # at that position must be re-written once the slab is back
        # (regeneration rebuilds from a snapshot and misses them). The
        # entry buffers the page *content* at write time so catch-up never
        # depends on a read that could itself race other repairs.
        self._catchup: Dict[Tuple[int, int], Dict[int, Tuple[int, object]]] = {}
        # Per-machine suspicion scores (§4.3): +1 per localized corruption,
        # +1/m smeared when localization was impossible.
        self.error_scores: Dict[int, float] = {}
        self._watched_machines: Set[int] = set()
        # Slots with a regeneration retry timer pending: _regenerating
        # covers an in-flight regeneration, this covers the backoff window
        # between attempts — together they make duplicate regenerations
        # for one (range, position) structurally impossible.
        self._regen_retry_pending: Set[Tuple[int, int]] = set()
        # Replicated metadata store (repro.core.rm_replica.ControlPlane
        # attaches one when HydraConfig.metadata_replicas > 0): the write
        # path commits the two records that gate a client ack through it,
        # and a fence ends its epoch. Every other record reaches it as an
        # observer. With no store each use is a single `is not None` check.
        self._meta = None
        # Fenced: this RM's leadership epoch is over (it lost its metadata
        # quorum, or its machine crashed and a peer took over). A fenced
        # RM refuses all client traffic and starts no new repairs.
        self._fenced = False
        # (machine, qp) per remote id — both are stable registry objects;
        # caching them here turns two fabric lookups per posted split into
        # one dict hit.
        self._endpoints: Dict[int, tuple] = {}
        # Observers (the replicated metadata store, chaos invariant
        # checkers): every hook site on the request path is guarded by
        # `if self._observers`, so the happy path costs one truthiness check
        # per request when none are registered.
        self._observers: List[object] = []
        # Fault injection for the chaos engine's self-test: silently drop
        # every asynchronous parity write while still reporting the write
        # durable. MUST stay False outside `repro chaos --inject-bug`.
        self.debug_drop_parity = False

        # Observability: by default the RM joins the cluster-wide bundle on
        # the fabric; explicit tracer/metrics override for isolated tests.
        self.tracer, self.metrics = default_obs(fabric, sim, tracer, metrics)
        metrics = self.metrics
        self.read_latency = metrics.latency(f"rm.{machine_id}.read")
        self.write_latency = metrics.latency(f"rm.{machine_id}.write")
        self.events = metrics.counter_group(f"rm.{machine_id}.events")
        # Completions per 1-second window — throughput-over-time for the
        # dashboard / Fig 2-style timelines without retaining per-op data.
        self.ops_window = metrics.throughput(f"rm.{machine_id}.ops")
        # Plan-cache pressure is an operator signal: steady evictions mean
        # the erasure-pattern working set exceeds the LRU capacity and
        # decode plans are being recompiled on the hot path.
        self.codec.code.plan_cache.bind_eviction_counter(
            metrics.counter(f"rm.{machine_id}.ec.plan_evictions")
        )

        # Datapath overhead constants: pure functions of the construction-
        # time config, computed once so the per-op yields reuse the floats
        # (bit-identical to calling the helpers each time).
        dp = config.datapath
        # Indexed by the verbs posted on the critical path (at least one)
        # and by the completions waited for.
        self._issue_us = [
            issue_overhead_us(dp, max(1, posts)) for posts in range(config.n + 1)
        ]
        self._completion_us = [
            completion_overhead_us(dp, waited) for waited in range(config.n + 1)
        ]
        self._encode_us = encode_latency_us(config)
        self._decode_us = decode_latency_us(config)

        endpoint.register("evict_slab", self._on_evict_notice)
        endpoint.register("slab_regenerated", self._on_slab_regenerated)

    # ==================================================================
    # observer hooks (repro.chaos invariant checkers)
    # ==================================================================
    def add_observer(self, observer: object) -> None:
        """Register a passive observer of the RM's lifecycle events.

        Observers may implement any subset of: ``on_write_acked(page_id,
        version, data)``, ``on_write_durable(page_id, version)``,
        ``on_read_done(page_id, version, data, start_us)``,
        ``on_read_failed(page_id)``, ``on_regen_start(range_id, position)``,
        ``on_regen_end(range_id, position, outcome)``,
        ``on_range_installed(address_range)``, ``on_range_dropped(range_id)``,
        ``on_position_failed(range_id, position)``,
        ``on_position_replaced(range_id, position, handle)``,
        ``on_error_score(machine_id, score)`` and ``on_page_lost(page_id)``.
        Observers run in registration order; the replicated metadata store
        (repro.core.rm_replica) is the first when there is one. Hooks are
        notifications; they must not mutate RM state. Seven report a state
        change the RM just applied, and :meth:`restore` applies them:
        ``on_range_installed``, ``on_range_dropped``, ``on_position_failed``,
        ``on_position_replaced``, ``on_error_score``, ``on_write_acked`` and
        ``on_page_lost``.
        """
        self._observers.append(observer)

    def _notify(self, method: str, *args) -> None:
        for observer in self._observers:
            fn = getattr(observer, method, None)
            if fn is not None:
                fn(*args)

    # ==================================================================
    # replicated metadata (repro.core.rm_replica)
    # ==================================================================
    def attach_metadata_store(self, store) -> None:
        """Bind the replicated metadata log this RM commits through."""
        self._meta = store

    @property
    def fenced(self) -> bool:
        return self._fenced

    def fence(self, reason: str = "fenced") -> None:
        """End this RM's leadership epoch: refuse new client traffic and
        unblock readers ordered behind writes that can no longer ack."""
        if self._fenced:
            return
        self._fenced = True
        self.events.incr("fenced")
        if self._meta is not None:
            self._meta.fence(reason)
        for event in list(self._inflight_writes.values()):
            if not event.triggered:
                event.succeed_now()

    # -- the logged state changes: one method per event. The live path emits
    # an event (apply, then notify); restore() replays a log through _APPLY.
    def _emit(self, event: str, *args) -> None:
        self._APPLY[event](self, *args)
        if self._observers:
            self._notify(event, *args)

    def _apply_range_installed(self, address_range: AddressRange) -> None:
        self.space.install(address_range)

    def _apply_range_dropped(self, range_id: int) -> None:
        self.space.drop(range_id)
        for page_id in [p for p in self._versions if self.space.locate(p)[0] == range_id]:
            del self._versions[page_id]

    def _apply_position_failed(self, range_id: int, position: int) -> None:
        address_range = self.space.get(range_id)
        if address_range is not None:
            address_range.mark_failed(position)

    def _apply_position_replaced(self, range_id: int, position: int, handle: SlabHandle) -> None:
        address_range = self.space.get(range_id)
        if address_range is not None:
            address_range.replace(position, handle)

    def _apply_error_score(self, machine_id: int, score: float) -> None:
        self.error_scores[machine_id] = score

    def _apply_write_acked(self, page_id: int, version: int, _data) -> None:
        self._versions[page_id] = version

    def _apply_page_lost(self, page_id: int) -> None:
        self._versions.pop(page_id, None)

    _APPLY = {
        "on_range_installed": _apply_range_installed,
        "on_range_dropped": _apply_range_dropped,
        "on_position_failed": _apply_position_failed,
        "on_position_replaced": _apply_position_replaced,
        "on_error_score": _apply_error_score,
        "on_write_acked": _apply_write_acked,
        "on_page_lost": _apply_page_lost,
    }

    def restore(self, events) -> Dict[int, int]:
        """Rebuild this RM from another RM's metadata log, given as the
        ``(event, args)`` pairs its observers were notified with
        (``ReplicatedMetadataStore.decode``). Each is applied by the method
        the live path applies it with; no observer is notified.

        Every position this RM cannot reach — one hosted on its own machine
        (there is no loopback queue pair) or one behind a partition — is
        then failed, for :meth:`seal` to re-home, and every other host is
        watched. Returns the restored page → version table. Raises
        :class:`HydraError` on an RM that holds remote memory of its own:
        two address spaces cannot share one map.
        """
        if self.space.ranges or self._versions:
            raise HydraError(f"resilience manager {self.machine_id} is not empty")
        for event, args in events:
            self._APPLY[event](self, *args)
        for address_range in sorted(self.space.all_ranges(), key=lambda a: a.range_id):
            for position, handle in enumerate(address_range.slots):
                if handle.available and (
                    handle.machine_id == self.machine_id
                    or not self.fabric.reachable(self.machine_id, handle.machine_id)
                ):
                    self._apply_position_failed(address_range.range_id, position)
            self._watch_machines(
                [h for h in address_range.slots if h.machine_id != self.machine_id]
            )
        return dict(self._versions)

    def seal(self, interrupted: List[Tuple[int, int, int]], unsettled: List[int]):
        """Generator, after :meth:`restore`: restore full (k + r) durability
        for the pages whose write the old leader left unfinished, then
        restart the regeneration of every failed position. Returns counts.

        ``interrupted`` lists ``(page, acked version, intent version)`` for
        each write torn mid-flight (its splits may mix two versions);
        ``unsettled`` lists acked pages whose parity was never confirmed.
        A recoverable page is rewritten through the normal write path (a
        full n-position overwrite, replacing any mixed-version split). A
        torn page never acked carries no durability promise and is
        discarded; any other page that cannot be recovered is reported
        through ``on_page_lost``.
        """
        jobs = [(page, (intent, acked), True) for page, acked, intent in interrupted if acked]
        counts = {"sealed": 0, "lost": 0, "seal_failures": 0}
        counts["discarded"] = len(interrupted) - len(jobs)  # never acked: the client retries
        jobs += [(page, (self._versions[page],), False) for page in unsettled]
        for page, versions, torn in sorted(jobs):
            content, ok = yield from self._recover_page(page, versions, torn)
            if not ok:
                self._emit("on_page_lost", page)
                counts["lost"] += 1
                continue
            # The reseal lands one past the acked version (== the torn
            # intent's), re-asserting its durability promise with fresh splits.
            self._versions[page] = versions[-1]
            try:
                yield self.write(page, content)
            except HydraError:
                counts["seal_failures"] += 1
                continue
            inflight = self._inflight_writes.get(page)
            if inflight is not None and not inflight.triggered:
                yield inflight
            counts["sealed"] += 1
        counts["regens_restarted"] = 0
        for address_range in sorted(self.space.all_ranges(), key=lambda a: a.range_id):
            for position, handle in enumerate(address_range.slots):
                if not handle.available:
                    self._start_regeneration(address_range, position)
                    counts["regens_restarted"] += 1
        return counts

    def _recover_page(self, page_id: int, versions: Tuple[int, ...], torn: bool):
        """Generator: read every reachable split of ``page_id`` and try to
        reconstruct a consistent page. Returns ``(content, ok)``.

        Real mode takes the codec's maximal-agreement codeword
        (``correct(best_effort=True)``: at least k + 1 splits agree on it) —
        for a ``torn`` page, whose splits may mix two versions, nothing else
        proves a version: any k splits decode to *something*. A page that
        only lacks its durability confirmation has all k data rows at the
        acked version, so plain ``decode`` of exactly k splits, or else of
        the k data rows, also recovers it. Phantom mode requires k intact
        splits of one of ``versions``.
        """
        config = self.config
        range_id, offset = self.space.locate(page_id)
        address_range = self.space.get(range_id)
        if address_range is None:
            return None, False
        available = address_range.available_positions()
        # Splits hosted on this machine were failed at restore (no loopback
        # QPs), but the slab is still sitting in local DRAM — read it
        # directly, out of band. Without these, a page whose parity phase
        # was interrupted can lose its only consistent copy.
        local: Dict[int, object] = {}
        local_machine = self.fabric.machine(self.machine_id)
        for position, handle in enumerate(address_range.slots):
            if handle.machine_id != self.machine_id or position in available:
                continue
            slab = local_machine.hosted_slabs.get(handle.slab_id)
            if slab is not None and slab.state is not SlabState.FREE:
                payload = slab.pages.get(offset)
                if payload is not None:
                    local[position] = payload
        if len(available) + len(local) < config.k:
            return None, False
        gather = self._post_splits(address_range.slots, offset, available)
        yield gather.wait_all()
        arrivals = {**gather.arrivals, **local}
        k = config.k
        if config.payload_mode != "real":
            viable = recoverable_versions(arrivals.values(), k)
            return None, any(version in viable for version in versions)
        splits = {p: row for p, row in arrivals.items() if isinstance(row, np.ndarray)}
        if len(splits) < k:
            return None, False
        try:
            if len(splits) > k:
                return self.codec.correct(splits, best_effort=True)[0], True
            if not torn:
                return self.codec.decode(splits), True
        except (CorruptionDetected, DecodeError):
            pass
        if torn:
            return None, False
        data_rows = {p: splits[p] for p in range(k) if p in splits}
        if len(data_rows) == k:
            try:
                return self.codec.decode(data_rows), True
            except DecodeError:
                pass
        return None, False

    # ==================================================================
    # public pool interface
    # ==================================================================
    def write(self, page_id: int, data: Optional[bytes] = None, parent: Optional[Span] = None):
        """Write a page to remote memory: an event that succeeds when the
        write returns to the application (k data-split acks on the fast
        path) or fails with its exception; full (k + r) durability follows
        via the asynchronous parity writes. ``data`` is ``page_size`` bytes
        in real mode, ignored in phantom mode; ``parent`` as for :meth:`read`."""
        span = request_span(self.tracer, "rm.write", self.machine_id, page_id, parent)
        return self._write(page_id, data, span)

    def read(self, page_id: int, parent: Optional[Span] = None) -> Event:
        """Read a page back; returns an event whose value is the page bytes
        (real mode) or ``None`` (phantom mode), or which fails with the
        read's exception. The read is no process: :meth:`_read` schedules
        its first stage. ``parent`` (a sampled span, e.g. a VMM fault)
        adopts this request into an existing trace; otherwise the tracer's
        sampler decides."""
        span = request_span(self.tracer, "rm.read", self.machine_id, page_id, parent)
        return self._read(page_id, span)

    @property
    def memory_overhead(self) -> float:
        return self.config.memory_overhead

    @property
    def open_regen_count(self) -> int:
        """Regenerations currently in flight — the health monitor's
        regeneration-backlog SLO input."""
        return len(self._regenerating)

    def remote_pages(self) -> int:
        """Pages currently tracked in remote memory."""
        return len(self._versions)

    # ==================================================================
    # write path (§4.2.1)
    # ==================================================================
    def _write(self, page_id: int, data: Optional[bytes], span: Optional[Span]) -> Event:
        """The write as stage callbacks named after the phase marks they
        record — place → issue → encode (degraded only) → wait_k →
        completion → the ack, a try short of k acks backing off to issue
        again — in :meth:`_read`'s shape; a failing stage releases readers too."""
        sim, config = self.sim, self.config
        k, n = config.k, config.n
        phases = self.tracer.phases(span)
        start = sim.now
        done = Event(sim)
        data_splits = address_range = offset = version = full_done = None
        available = positions = acks = async_parity = need = None
        tries = 0

        def failed(exc: BaseException) -> None:
            nonlocal place, attempt, completion
            place = attempt = completion = None  # they name themselves: drop the cycle
            if done.triggered:
                raise exc
            if full_done is not None and not full_done.triggered:
                full_done.succeed_now()  # no reader waits on a failed write
            if span is not None:
                span.tags.setdefault("error", type(exc).__name__)
                span.finish()
            done.fail(exc)

        def place(placing: Optional[Event] = None) -> None:
            # The first record; once per range, the end of the placing process.
            nonlocal data_splits, address_range, offset, version
            try:
                if placing is not None:
                    address_range = placing.value
                elif self._fenced:
                    self.events.incr("fenced_writes")
                    raise RemoteMemoryUnavailable(f"resilience manager {self.machine_id} is fenced")
                else:
                    # Reject a malformed page before it reserves cluster memory
                    # or commits an intent for splits that would never be posted.
                    if config.payload_mode == "real":
                        if data is None or len(data) != config.page_size:
                            raise HydraError(
                                f"real mode write needs {config.page_size} bytes of data"
                            )
                        data_splits = self.codec.split(data)
                    range_id, offset = self.space.locate(page_id)
                    address_range = self.space.get(range_id)
                    if address_range is None:
                        return sim.process(self._place(range_id)).callbacks.append(place)
                phases.mark("place")
                if address_range is None:
                    self.events.incr("write_failures")
                    raise RemoteMemoryUnavailable(
                        f"no placement for page {page_id} after {_WRITE_RETRY_LIMIT} tries"
                    )
                version = self._versions.get(page_id, 0) + 1
                if self._meta is None:
                    return attempt()
                # Write-ahead metadata: the intent (and any slab-map record of the
                # placement) is committed before a split is posted, so a failover
                # can tell a torn write from a never-started one.
                self._meta.append("write_intent", page_id=page_id, version=version)
                committed = self._meta.commit()
                if not committed.processed:
                    return committed.callbacks.append(attempt)
                attempt(committed)
            except BaseException as exc:
                failed(exc)

        def ungate(_event: Event) -> None:
            if self._inflight_writes.get(page_id) is full_done:
                del self._inflight_writes[page_id]

        def attempt(committed: Optional[Event] = None) -> None:
            # A try at landing `version`: after the intent, and after each backoff.
            nonlocal full_done, tries, available, async_parity, positions
            try:
                if tries:
                    phases.mark("retry_backoff", attempt=tries - 1)
                elif committed is not None and not committed.value:
                    self.events.incr("meta_commit_failures")
                    raise RemoteMemoryUnavailable(
                        f"metadata quorum unavailable for write of page {page_id}"
                    )
                else:
                    full_done = sim.event(name=f"write-durable:{page_id}")
                    self._inflight_writes[page_id] = full_done
                    full_done.callbacks.append(ungate)
                if tries == _WRITE_RETRY_LIMIT or self._fenced:  # give up
                    self.events.incr("write_failures")
                    raise RemoteMemoryUnavailable(
                        f"write of page {page_id} failed after {_WRITE_RETRY_LIMIT} attempts"
                    )
                tries += 1
                available = address_range.available_positions()
                # Every data slab up: only the k data splits are on the critical path
                # (§4.2.1); else every reachable split (§4.3 'resends the I/O request').
                async_parity = config.datapath.async_encoding and all(
                    handle.available for handle in address_range.slots[:k]
                )
                positions = range(k) if async_parity else available  # what costs posting
                sim.call_later(self._issue_us[len(positions)], issue)
            except BaseException as exc:
                failed(exc)

        def issue() -> None:
            try:
                phases.mark("issue")
                if async_parity:
                    return encode()
                if len(available) < k:
                    return retry()
                sim.call_later(self._encode_us, encode)
            except BaseException as exc:
                failed(exc)

        def encode() -> None:  # the degraded write's delay; every write posts here
            nonlocal acks, need
            try:
                payloads, need = data_splits, k  # row views, one per data position
                if not async_parity:
                    phases.mark("encode")
                    if data_splits is not None:
                        all_splits = self.codec.code.encode_page(data_splits)
                        payloads = [all_splits[position] for position in available]
                    if not config.datapath.async_encoding:
                        need = len(available)  # the unoptimized write waits for all
                if data_splits is None:
                    payloads = [PhantomSplit(version=version) for _ in positions]
                acks = self._post_splits(address_range.slots, offset, positions, payloads, span)
                acks.when_valid(need, wait_k)
            except BaseException as exc:
                failed(exc)

        def wait_k() -> None:  # the gather's waiter
            try:
                phases.mark("wait_k", fanout=len(positions), acked=len(acks.valid))
                sim.call_later(self._completion_us[need], completion)
            except BaseException as exc:
                failed(exc)

        def retry() -> None:
            self.events.incr("write_retries")
            # Probe the range (belt and braces: the disconnect listener is first).
            for position in address_range.available_positions():
                machine_id = address_range.handle(position).machine_id
                if not self.fabric.reachable(self.machine_id, machine_id):
                    self._emit("on_position_failed", address_range.range_id, position)
                    self._start_regeneration(address_range, position)
            sim.call_later(_WRITE_RETRY_BACKOFF_US, attempt)

        def completion(committed: Optional[Event] = None) -> None:
            # The delay's record; with a store, again at the ack record's commit.
            nonlocal place, attempt, completion
            try:
                if committed is None:
                    phases.mark("completion")
                    if len(acks.valid) < k:  # nothing was in flight at wait_k
                        return retry()
                    if async_parity:  # the client's ack; parity goes on behind it
                        self._schedule_parity(
                            address_range, offset, page_id, version, data_splits, full_done, span
                        )
                    else:
                        self.events.incr("degraded_writes")
                        if not full_done.triggered:
                            full_done.succeed_now()
                    if self._meta is not None:
                        # On quorum loss the successor's seal resolves the torn splits.
                        self._meta.append("write_acked", page_id=page_id, version=version)
                        committed = self._meta.commit()
                        if not committed.processed:
                            return committed.callbacks.append(completion)
                if committed is not None and not committed.value:  # `failed` releases readers
                    self.events.incr("meta_commit_failures")
                    raise RemoteMemoryUnavailable(
                        f"metadata quorum lost before acking page {page_id}"
                    )
                # A position the splits were not posted to needs a catch-up split.
                if len(available) != n or not all(h.available for h in address_range.slots):
                    for position in range(n):
                        if position in available and address_range.handle(position).available:
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
                self.write_latency.record(sim.now - start)
                self.ops_window.record(sim.now)
                self.events.incr("writes")
                place = attempt = completion = None
                if span is not None:
                    span.set_tag("outcome", "ok")
                    span.finish()
                done.succeed_now()
            except BaseException as exc:
                failed(exc)

        sim.call_later(0.0, place)
        return done

    def _schedule_parity(
        self,
        address_range: AddressRange,
        offset: int,
        page_id: int,
        version: int,
        data_splits: Optional[np.ndarray],
        full_done: Event,
        parent: Optional[Span] = None,
    ) -> None:
        """§4.2.1 behind the ack: encode the r parities, write them, then
        fire ``full_done`` (the write is durable; ordered readers go on).

        No process: the encode delay is one ``call_later`` record and the
        stage ends from its gather's last arrival. However it ends —
        parities landed, fenced meanwhile, dropped by the chaos self-test,
        an exception on its way out of ``Simulator.run`` — ``full_done`` is
        released, so no reader of the page is left waiting on it."""
        config = self.config
        span = parent.child("rm.parity", cat="background") if parent is not None else None

        def finish(**tags) -> None:
            if span is not None:
                for tag, value in tags.items():
                    span.set_tag(tag, value)
                span.finish()
            if not full_done.triggered:
                full_done.succeed_now()

        def encode_and_post() -> None:
            if self._fenced:
                # Fenced mid-write: the successor's seal pass owns this page
                # now; posting stale parities would race its full rewrite.
                return finish(fenced=True)
            if span is not None:
                span.set_tag("encode_done_us", round(self.sim.now, 4))
            if self.debug_drop_parity:
                # Injected durability bug (chaos self-test): every parity write
                # is silently dropped, yet the write still reports durable.
                return finish(parities=0, debug_dropped=True)
            try:
                parity = page = None
                if data_splits is not None:
                    parity = self.codec.code.encode(data_splits)
                positions, payloads = [], []
                for index in range(config.r):
                    position = config.k + index
                    if not address_range.handle(position).available:
                        # This parity cannot be written now; make sure the
                        # pending regeneration (or a direct post, if it races
                        # us) covers it.
                        if page is None and data_splits is not None:
                            page = self.codec.join(data_splits)
                        self._record_or_post_catchup(
                            address_range, position, offset, page_id, version, page
                        )
                        continue
                    positions.append(position)
                    payloads.append(
                        parity[index] if parity is not None else PhantomSplit(version=version)
                    )
                acks = self._post_splits(address_range.slots, offset, positions, payloads, span)
            except BaseException:
                finish()  # loud, but no reader is left behind
                raise

            def landed() -> None:
                self.events.incr("parity_writes", len(positions))
                finish(parities=len(positions))

            acks.when_all(landed)

        self.sim.call_later(self._encode_us, encode_and_post)

    # ==================================================================
    # read path (§4.2.2)
    # ==================================================================
    def _read(self, page_id: int, span: Optional[Span]) -> Event:
        """The late-binding read as stage callbacks named after the phase
        marks they record — order → issue → wait_k (escalating) →
        completion → decode → correction (suspected) → the returned event.
        A delay is one ``call_later`` record, a wait a callback: no
        ``Process`` or ``Timeout``. A stage the engine enters fails the
        event with its exception while the event is pending (after, the
        exception is its waiter's); ``span`` ends as ``traced`` ends one."""
        sim, config = self.sim, self.config
        k = config.k
        phases = self.tracer.phases(span)
        start = sim.now
        done = Event(sim)
        address_range = offset = version = available = fanout = gather = first_k = None
        suspected = False
        escalations = 0

        def failed(exc: BaseException) -> None:
            if done.triggered:
                raise exc
            if span is not None:
                span.tags.setdefault("error", type(exc).__name__)
                span.finish()
            done.fail(exc)

        def finish(page) -> None:
            if version is not None:  # a page never written is no read done
                if self._observers:
                    self._notify("on_read_done", page_id, version, page, start)
                self.read_latency.record(sim.now - start)
                self.ops_window.record(sim.now)
            if span is not None:
                span.set_tag("outcome", "ok")
                span.finish()
            done.succeed_now(page)

        # `order` and `wait_k` name themselves to wait again; each drops its
        # name after its last wait, so a finished read holds no reference
        # cycle and is freed at once instead of by the cycle collector.
        def order(write: Optional[Event] = None) -> None:
            # The first record, and the in-flight write's callback once it
            # is durable.
            nonlocal order, address_range, offset, version, available, fanout, suspected
            try:
                if write is not None:
                    phases.mark("order")
                if self._fenced:  # also when the fence, not the parities, released it
                    self.events.incr("fenced_reads")
                    raise RemoteMemoryUnavailable(
                        f"resilience manager {self.machine_id} is fenced"
                    )
                if write is None:
                    self.events.incr("reads")
                    # Per-QP ordering makes read-after-write safe for data
                    # splits, but a read racing the *asynchronous parity*
                    # writes could mix versions; the RM tracks in-flight
                    # writes and orders behind them (§4.3).
                    inflight = self._inflight_writes.get(page_id)
                    if inflight is not None and not inflight.triggered:
                        return inflight.callbacks.append(order)
                order = None
                if page_id not in self._versions:
                    return finish(None)  # never written; nothing to read
                range_id, offset = self.space.locate(page_id)
                address_range = self.space.get(range_id)
                if address_range is None:
                    raise HydraError(f"page {page_id} has a version but no range")
                version = self._versions[page_id]
                available = address_range.available_positions()
                if len(available) < k:
                    raise RemoteMemoryUnavailable(
                        f"page {page_id}: only {len(available)} slabs reachable"
                    )
                # No machine has ever been suspected on the vast majority of
                # reads; one truthiness check replaces the per-position
                # score scan then.
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
                sim.call_later(self._issue_us[fanout], issue)
            except BaseException as exc:
                failed(exc)

        def issue() -> None:
            nonlocal gather
            try:
                phases.mark("issue")
                positions = _sample(self.rng, available, fanout)
                gather = _SplitGather(sim, self._split_validator(version))
                self._post_splits(address_range.slots, offset, positions, span=span, gather=gather)
                gather.when_valid(k, wait_k)
            except BaseException as exc:
                failed(exc)

        def wait_k() -> None:
            # The gather's waiter: k valid splits are in, or none in flight.
            nonlocal wait_k, escalations
            try:
                if len(gather.valid) < k:
                    # Escalate: everything in flight has landed (each posted
                    # position is in `arrivals`) and we still lack k valid
                    # splits — request the untried positions.
                    untried = [
                        position
                        for position in address_range.available_positions()
                        if position not in gather.arrivals
                    ]
                    if untried:
                        self._post_splits(
                            address_range.slots, offset, untried, span=span, gather=gather
                        )
                        self.events.incr("escalation_reads", len(untried))
                        escalations += len(untried)
                        return gather.when_valid(k, wait_k)
                wait_k = None
                phases.mark("wait_k", valid=len(gather.valid))
                if span is not None and escalations:
                    span.set_tag("escalations", escalations)
                if len(gather.valid) < k:
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
                        f"need {k} (want v{version}; arrivals: {', '.join(detail)})"
                    )
                sim.call_later(self._completion_us[k], completion)
            except BaseException as exc:
                failed(exc)

        def completion() -> None:
            nonlocal first_k
            try:
                phases.mark("completion")
                # In-place coding guard: the k-th valid arrival deregisters
                # the page's memory region, so later (possibly corrupt)
                # splits can never overwrite it — we snapshot exactly the
                # first k valid splits.
                first_k = gather.first_valid(k)
                if set(first_k) == set(range(k)):
                    return decode(systematic=True)
                sim.call_later(self._decode_us, decode)
            except BaseException as exc:
                failed(exc)

        def decode(systematic: bool = False) -> None:
            try:
                if not systematic:
                    phases.mark("decode")
                    self.events.incr("decoded_reads")
                if config.payload_mode != "real":
                    return finish(None)
                if suspected:
                    # Inline verified read: wait for the full (k + 2Δ + 1)
                    # fanout and decode through the correction path.
                    return gather.when_all(verify)
                page = self.codec.decode(first_k)  # the one copy: bytes
                self._schedule_background_verify(
                    address_range, offset, page_id, gather, first_k, page, span
                )
                finish(page)
            except BaseException as exc:
                failed(exc)

        def verify() -> None:
            try:
                usable = gather.real_payloads()
                try:
                    page = self.codec.decode_verified(usable)
                except CorruptionDetected:
                    return self._correct_and_heal(
                        address_range, offset, page_id, usable, span, corrected, failed
                    )
                self.events.incr("verified_reads")
                corrected(page)
            except BaseException as exc:
                failed(exc)

        def corrected(page, _corrupted=()) -> None:
            try:
                phases.mark("correction")
                finish(page)
            except BaseException as exc:
                failed(exc)

        sim.call_later(0.0, order)
        return done

    def _schedule_background_verify(
        self,
        address_range: AddressRange,
        offset: int,
        page_id: int,
        gather: _SplitGather,
        first_k: Dict[int, object],
        page: bytes,
        parent: Optional[Span] = None,
    ) -> None:
        """§4.3 detection path: once the Δ extra splits arrive, check
        consistency off the critical path; on detection, correct and heal.

        k splits determine the codeword, and the read decoded ``page`` from
        ``first_k``: the arrivals are consistent exactly when each later one
        equals that codeword's split at its position
        (``ReedSolomonCode.consistent_with_decode``), the data splits read
        as a view of ``page``. The check is the gather's last waiter
        (:meth:`_SplitGather.when_all`); a detection is one ``call_later``
        record for :meth:`_correct_and_heal`, whose exception would leave
        ``Simulator.run`` as the parity stage's does."""
        span = (
            parent.child("rm.verify", cat="background") if parent is not None else None
        )

        def healed(_page, _corrupted) -> None:
            if span is not None:
                span.finish()

        def check() -> None:
            scheduled = False
            try:
                codec = self.codec
                data_splits = np.frombuffer(
                    page.ljust(codec.padded_size, b"\0"), dtype=np.uint8
                ).reshape(codec.k, codec.split_size)
                if codec.code.consistent_with_decode(gather.arrivals, first_k, data_splits):
                    return  # nothing to do (or no extra split to detect with)
                usable = gather.real_payloads()
                self.events.incr("corruption_detected")
                if span is not None:
                    span.set_tag("corruption_detected", True)
                scheduled = True
                self.sim.call_later(
                    0.0,
                    lambda: self._correct_and_heal(
                        address_range, offset, page_id, usable, span, healed
                    ),
                )
            finally:
                if span is not None and not scheduled:
                    span.finish()

        gather.when_all(check)

    def _correct_and_heal(
        self,
        address_range: AddressRange,
        offset: int,
        page_id: int,
        splits: Dict[int, object],
        parent: Optional[Span],
        then,
        failed=None,
    ) -> None:
        """Fetch Δ + 1 extra splits, locate/correct errors, rewrite the
        corrupted splits, update per-machine error scores, then call
        ``then(page, corrupted)``: at once when no extra split is needed,
        else from the extras' last arrival. An exception on the way goes to
        ``failed`` when one is given (the suspected read's), else up."""
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
        extra = None

        def correct() -> None:
            try:
                if extra is not None:
                    splits.update(extra.real_payloads())
                # Best-effort localization when the k + 2Δ + 1 guarantee
                # cannot be met with the splits that exist (e.g. r < 2Δ + 1):
                # the unique maximal-agreement codeword localizes random
                # corruption with overwhelming probability (§5.1
                # distinguishes this from the information-theoretic
                # guarantee).
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
                    page, corrupted = self.codec.decode(splits), []
                else:
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
            except BaseException as exc:
                if span is not None:
                    span.finish()
                if failed is None:
                    raise
                return failed(exc)
            if span is not None:
                span.finish()
            then(page, corrupted)

        extra_needed = config.correction_fanout() - len(splits)
        if extra_needed > 0:
            extra_positions = [
                p for p in address_range.available_positions() if p not in splits
            ][: extra_needed + config.delta]
            if extra_positions:
                extra = self._post_splits(slots, offset, extra_positions, span=span)
                return extra.when_all(correct)
        correct()

    # ==================================================================
    # failure / eviction / corruption bookkeeping (§4.3)
    # ==================================================================
    def _record_error(
        self, machine_id: int, weight: float, address_range: AddressRange, position: int
    ) -> None:
        score = self.error_scores.get(machine_id, 0.0) + weight
        if score >= self.config.slab_regeneration_limit:
            # Error rate beyond repair: regenerate this machine's slab.
            self._emit("on_position_failed", address_range.range_id, position)
            score = 0.0
            self.events.incr("regen_for_errors")
            self._start_regeneration(address_range, position)
        self._emit("on_error_score", machine_id, score)

    def _on_machine_down(self, machine_id: int) -> None:
        """RDMA connection-manager notification: fail over every range that
        had a slab on the dead machine and regenerate in the background."""
        if self._fenced:
            return
        self.events.incr("disconnects")
        for address_range in self.space.ranges_using_machine(machine_id):
            for position in address_range.positions_on_machine(machine_id):
                handle = address_range.handle(position)
                if handle.available:
                    self._emit("on_position_failed", address_range.range_id, position)
                    self._start_regeneration(address_range, position)

    def _on_evict_notice(self, src_id: int, body: dict) -> None:
        """A Resource Monitor wants to evict one of our slabs (explicit
        message, §4.3 'eviction handling is similar to failure').

        Batch eviction *contacts the owners to determine* the victims
        (§4.4): if the slab's range is already degraded (another slab
        failed or mid-regeneration), the eviction is vetoed so correlated
        evictions cannot silently erode a range below k survivors.
        """
        range_id = body["range_id"]
        position = body["position"]
        if self._fenced:
            return {"ok": True}  # a fenced RM's map is dead weight anyway
        address_range = self.space.get(range_id)
        if address_range is None:
            return {"ok": True}  # stale slab; monitor may drop it
        handle = address_range.handle(position)
        if handle.slab_id != body["slab_id"] or not handle.available:
            return {"ok": True}
        if len(address_range.available_positions()) < address_range.n:
            self.events.incr("evictions_vetoed")
            return {"ok": False}
        self.events.incr("evictions")
        self._emit("on_position_failed", address_range.range_id, position)
        self._start_regeneration(address_range, position)
        return {"ok": True}

    # ==================================================================
    # background slab regeneration (§4.4)
    # ==================================================================
    def _start_regeneration(self, address_range: AddressRange, position: int) -> None:
        if self._fenced:
            return  # the successor owns all repairs now
        key = (address_range.range_id, position)
        if key in self._regenerating:
            return
        self._regenerating.add(key)
        if self._observers:
            self._notify("on_regen_start", address_range.range_id, position)
        self.sim.process(
            self._regenerate(address_range, position),
            name=f"hydra-regen:{key}",
        )

    def _regenerate(self, address_range: AddressRange, position: int):
        key = (address_range.range_id, position)
        config = self.config
        # Regeneration is rare: always trace it when the tracer is enabled.
        span = self.tracer.start_span(
            "rm.regen",
            machine_id=self.machine_id,
            tags={"range": address_range.range_id, "position": position},
        )
        phases = self.tracer.phases(span)
        outcome: List[str] = []

        def _outcome(value: str) -> None:
            outcome.append(value)
            if span is not None:
                span.set_tag("outcome", value)

        try:
            available = address_range.available_positions()
            if len(available) < config.k:
                self.events.incr("regen_impossible")
                _outcome("impossible")
                return  # data is lost; nothing to rebuild from
            exclude = set(address_range.machine_ids()) | {self.machine_id}
            try:
                target = yield from self.placer.place_single(
                    address_range.range_id, position, exclude
                )
            except PlacementError:
                # No machine can host the slab right now (cluster-wide
                # pressure): retry after a backoff instead of leaving the
                # range degraded forever.
                self.events.incr("regen_no_target")
                _outcome("no_target")
                self._retry_regeneration_later(address_range, position)
                return
            phases.mark("place", target=target)
            # Hand the monitor *every* available position: pages missing
            # from one source (e.g. a previously regenerated slab) can
            # still be rebuilt from any k others.
            sources = list(available)
            body = {
                "range_id": address_range.range_id,
                "position": position,
                "owner": self.machine_id,
                "k": config.k,
                "r": config.r,
                "page_size": config.page_size,
                "payload_mode": config.payload_mode,
                "sources": [
                    {
                        "machine_id": address_range.handle(p).machine_id,
                        "slab_id": address_range.handle(p).slab_id,
                        "position": p,
                    }
                    for p in sources
                ],
            }
            waiter = self.sim.event(name=f"regen-wait:{key}")
            self._regen_waiters[key] = waiter
            try:
                yield self.endpoint.call(target, "regenerate_slab", body)
            except RpcError:
                # The chosen target died between placement and hand-off.
                # Retry after a backoff — place_single surveys afresh at
                # retry time, so the dead machine is never re-picked.
                self._regen_waiters.pop(key, None)
                self.events.incr("regen_handoff_failures")
                _outcome("handoff_failed")
                self._retry_regeneration_later(address_range, position)
                return
            phases.mark("handoff")
            # The monitor calls back when rebuilt; guard against it dying
            # mid-rebuild with a timeout + retry. If the call-back wins, the
            # deadline's record still fires later and changes nothing.
            deadline = self.sim.event(name=f"regen-deadline:{key}")
            self.sim.call_later(_REGEN_TIMEOUT_US, deadline.succeed_now)
            yield self.sim.any_of([waiter, deadline])
            phases.mark("rebuild_wait")
            if not waiter.triggered:
                self.events.incr("regen_timeouts")
                _outcome("timeout")
                # Back off for a control period before retrying: a ~1 µs
                # retry after a 5 s silent-target timeout would hot-loop
                # RPCs against a cluster that just demonstrated it is slow.
                self._retry_regeneration_later(address_range, position)
                return
            result = waiter.value
            new_handle = SlabHandle(
                machine_id=result["machine_id"], slab_id=result["slab_id"]
            )
            # Apply catch-up writes BEFORE the position goes live: while it
            # is still marked failed, every concurrent write keeps landing
            # in the catch-up buffer, so draining it to empty and then
            # replacing the handle (no yield in between) leaves the slab
            # exactly current.
            yield from self._apply_catchup(address_range, position, new_handle)
            phases.mark("catchup")
            self._emit("on_position_replaced", address_range.range_id, position, new_handle)
            # The replacement may live on a machine we have never talked
            # to: watch its connection too, or later failures of that
            # machine would go unnoticed.
            self._watch_machines([new_handle])
            self.events.incr("regenerations")
            _outcome("regenerated")
        finally:
            if span is not None:
                span.finish()
            self._regenerating.discard(key)
            self._regen_waiters.pop(key, None)
            if self._observers:
                self._notify(
                    "on_regen_end",
                    address_range.range_id,
                    position,
                    outcome[-1] if outcome else "error",
                )

    def _record_or_post_catchup(
        self,
        address_range: AddressRange,
        position: int,
        offset: int,
        page_id: int,
        version: int,
        data,
    ) -> None:
        """A write could not cover ``position``: buffer it for the pending
        regeneration — or, if the position already came back (the write
        raced the repair), post the split directly (later post on the same
        QP wins over anything the repair wrote)."""
        handle = address_range.handle(position)
        if handle.available:
            if self.config.payload_mode == "real" and data is not None:
                payload = self.codec.code.reencode_split(
                    self.codec.split(data), position
                )
            else:
                payload = PhantomSplit(version=version)
            self._post_splits(address_range.slots, offset, (position,), (payload,))
            self.events.incr("catchup_direct_posts")
            return
        self._catchup.setdefault((address_range.range_id, position), {})[
            page_id
        ] = (version, data)

    def _apply_catchup(
        self, address_range: AddressRange, position: int, handle: SlabHandle
    ):
        """Bring a regenerated slab fully up to date before it goes live.

        Re-encodes the buffered page content recorded by writes that ran
        while the position was down and writes the splits to ``handle``,
        the replacement slab that is not in the range's slot table yet.
        Loops until the buffer drains — writes landing mid-drain re-enter
        it because the position is still marked failed.
        """
        config = self.config
        key = (address_range.range_id, position)
        replacement = {position: handle}
        while True:
            buffered = self._catchup.pop(key, None)
            if not buffered:
                return
            # Re-encode the whole drained batch in one GF matmul; the split
            # for a page is pure in its buffered bytes, so computing it
            # up-front is exact. Version filtering stays inside the loop —
            # versions can advance between the yields below.
            payloads: Dict[int, np.ndarray] = {}
            if config.payload_mode == "real":
                real_ids = [
                    pid for pid, (_v, d) in buffered.items() if d is not None
                ]
                if real_ids:
                    stack = self.codec.split_pages(
                        [buffered[pid][1] for pid in real_ids]
                    )
                    rows = reencode_split_pages(self.codec.code, stack, position)
                    payloads = dict(zip(real_ids, rows))
            for page_id, (version, data) in buffered.items():
                if self._versions.get(page_id, 0) > version:
                    # A newer write exists; its own catch-up entry wins (the
                    # position cannot have gone live before replace()).
                    continue
                _range_id, offset = self.space.locate(page_id)
                if config.payload_mode == "real" and data is not None:
                    payload = payloads[page_id]
                else:
                    payload = PhantomSplit(version=version)
                written = self._post_splits(replacement, offset, (position,), (payload,))
                yield written.wait_all()
                if not written.valid:
                    # The replacement died: abandon the attempt, position still failed.
                    raise RemoteMemoryUnavailable(
                        f"catch-up write to machine {handle.machine_id} failed"
                    )
                self.events.incr("catchup_writes")

    def _retry_regeneration_later(self, address_range: AddressRange, position: int) -> None:
        """Schedule another regeneration attempt after a backoff (runs
        after the current attempt's cleanup has released the dedup key).

        Per-slot guard: while a retry timer is pending the slot is outside
        ``_regenerating``, so another trigger (an eviction notice racing a
        machine-down notification, an error-limit trip) could start a
        fresh regeneration AND leave this timer to start a duplicate a
        control period later. ``_regen_retry_pending`` dedupes the timers;
        ``_start_regeneration`` dedupes the regenerations themselves.
        """
        key = (address_range.range_id, position)
        if key in self._regen_retry_pending:
            return
        self._regen_retry_pending.add(key)

        def retry():
            yield self.sim.timeout(self.config.control_period_us)
            self._regen_retry_pending.discard(key)
            if self._fenced:
                return
            handle = address_range.handle(position)
            if not handle.available:
                self._start_regeneration(address_range, position)

        self.sim.process(
            retry(), name=f"regen-retry:{address_range.range_id}/{position}"
        )

    def _on_slab_regenerated(self, src_id: int, body: dict) -> None:
        key = (body["range_id"], body["position"])
        waiter = self._regen_waiters.get(key)
        if waiter is not None and not waiter.triggered:
            waiter.succeed({"machine_id": src_id, "slab_id": body["slab_id"]})
        return {"ok": True}

    # ==================================================================
    # reclaim (Fig 7b): bring a range's pages home and release its slabs
    # ==================================================================
    def reclaim_range(self, range_id: int):
        """Simulation process: read every page of a range back, unmap its
        slabs, and return ``{page_id: bytes|None}`` to the caller (the VMM
        absorbs them into local memory)."""
        return self.sim.process(self._reclaim_process(range_id), name=f"reclaim:{range_id}")

    def _reclaim_process(self, range_id: int):
        address_range = self.space.get(range_id)
        if address_range is None:
            return {}
        pages: Dict[int, Optional[bytes]] = {}
        for page_id in [p for p in self._versions if self.space.locate(p)[0] == range_id]:
            pages[page_id] = yield self.read(page_id)
        for position, handle in enumerate(address_range.slots):
            if not handle.available:
                continue
            try:
                yield self.endpoint.call(
                    handle.machine_id, "unmap_slab", {"slab_id": handle.slab_id}
                )
            except RpcError:
                pass
        self._emit("on_range_dropped", range_id)
        self.events.incr("ranges_reclaimed")
        return pages

    # ==================================================================
    # plumbing
    # ==================================================================
    def _place(self, range_id: int):
        """Generator: place the address range ``range_id`` (§4.4), or wait
        for the write already placing it; returns the range, or ``None`` when
        placement still fails after a growing backoff (memory pressure)."""
        for attempt in range(_WRITE_RETRY_LIMIT):
            pending = self._placements_pending.get(range_id)
            if pending is not None:
                yield pending
            elif self.space.get(range_id) is None:
                gate = self.sim.event(name=f"placement:{range_id}")
                self._placements_pending[range_id] = gate
                try:
                    handles = yield from self.placer.place_range(range_id)
                    self._emit("on_range_installed", AddressRange(range_id, handles))
                    self._watch_machines(handles)
                    self.events.incr("ranges_placed")
                except PlacementError:
                    pass
                finally:
                    del self._placements_pending[range_id]
                    gate.succeed()
            address_range = self.space.get(range_id)
            if address_range is not None:
                return address_range
            self.events.incr("placement_retries")
            yield self.sim.timeout(_WRITE_RETRY_BACKOFF_US * 4 * (attempt + 1))

    def _watch_machines(self, handles: List[SlabHandle]) -> None:
        for handle in handles:
            if handle.machine_id in self._watched_machines:
                continue
            self._watched_machines.add(handle.machine_id)
            qp = self.fabric.qp(self.machine_id, handle.machine_id)
            qp.on_disconnect(self._on_machine_down)

    def _post_splits(
        self,
        slots,
        offset: int,
        positions,
        payloads=None,
        span: Optional[Span] = None,
        gather: Optional[_SplitGather] = None,
    ) -> _SplitGather:
        """The split fan-out: one one-sided verb per position — a WRITE of
        ``payloads[i]`` when ``payloads`` is given, else a READ — each
        completing into the returned gather: ``gather`` when the caller
        adds to one it holds, else a fresh one counting successful
        completions. ``slots`` maps a position to its slab handle: a
        range's slot table, or ``{position: handle}`` for a replacement
        slab not installed yet.

        Builds the posts and hands them to ``QueuePair._post`` in one call.
        Verbs are posted in ``positions`` order, which fixes per-QP
        completion ordering and RNG draw order.
        """
        endpoints = self._endpoints
        fabric = self.fabric
        if gather is None:
            gather = _SplitGather(self.sim)
        gather.outstanding += len(positions)
        posts = []
        for index, position in enumerate(positions):
            handle = slots[position]
            pair = endpoints.get(handle.machine_id)
            if pair is None:
                pair = endpoints[handle.machine_id] = (
                    fabric.machine(handle.machine_id),
                    fabric.qp(self.machine_id, handle.machine_id),
                )
            machine, qp = pair
            if payloads is None:
                posts.append((qp, position, machine.read_split, (handle.slab_id, offset)))
            else:
                write = (handle.slab_id, offset, payloads[index])
                posts.append((qp, position, machine.write_split, write))
        kind = "read" if payloads is None else "write"
        QueuePair._post(fabric, self.config.split_size, gather._arrive, posts, True, span, kind)
        return gather

    def _split_validator(self, version: int):
        """Per-read closure telling the gather whether a split that was
        read counts toward k. Phantom corruption models *detectable*
        (integrity-checked) corruption; silent corruption needs real mode."""

        def valid(payload, _phantom=PhantomSplit, _ndarray=np.ndarray) -> bool:
            if isinstance(payload, _phantom):
                return not payload.corrupt and payload.version == version
            return isinstance(payload, _ndarray)

        return valid
