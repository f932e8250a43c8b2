"""RDMA fabric model: NICs, reliable-connection queue pairs, verbs.

What is modeled (and why it matters to Hydra):

* **One-sided READ/WRITE** verbs that touch remote memory without remote
  CPU involvement — the data path (§6: "all RDMA operations use reliable
  connection and one-sided RDMA verbs").
* **Two-sided SEND/RECV** for control messages (Resource Monitor traffic).
* **Strict per-QP ordering**: completions on a queue pair occur in post
  order. This is the property §4.3 leans on for read-after-write safety
  ("read requests will arrive at the same RDMA dispatch queue after write
  requests; hence, read requests will not be served with stale data").
* **Disconnect notification**: when a machine dies or the network
  partitions, pending verbs fail after a detection delay and the local
  side is notified — Hydra's failure-handling entry point.
* **Congestion and stragglers**: background flows inflate latency on the
  NICs they cross; a small per-op probability draws a Pareto-tailed
  straggler delay (§2.2 'tail at scale').

Remote memory itself lives on machine objects (see
:class:`repro.cluster.Machine`), which expose ``read_split``/``write_split``
callbacks the fabric invokes *at completion time*, preserving ordering
semantics.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush as _heappush
from math import exp, log
from random import NV_MAGICCONST
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import Observability, Span
from ..sim import Event, RandomSource, Simulator
from ..sim.engine import _PROCESSED
from .config import NetworkConfig

__all__ = [
    "RDMAError",
    "RDMADisconnect",
    "RemoteAccessError",
    "Nic",
    "QueuePair",
    "RdmaFabric",
]


class RDMAError(Exception):
    """Base class for fabric errors."""


class RDMADisconnect(RDMAError):
    """The reliable connection broke (machine failure / partition)."""

    def __init__(self, message: str, machine_id: Optional[int] = None):
        super().__init__(message)
        self.machine_id = machine_id


class RemoteAccessError(RDMAError):
    """The remote access target (slab/page) was invalid or unavailable."""


class Nic:
    """Per-machine NIC state: line rate, congestion level, traffic totals.

    Byte counters feed the §7.4 network-overhead comparison (Hydra's
    291 Mbps vs replication's >1 Gbps per machine in the paper). They
    live in the cluster's :class:`~repro.obs.MetricsRegistry` under
    ``nic.<machine>.{bytes_tx,bytes_rx,ops_tx}`` so harness reports read
    them by name; ``bytes_sent``/``bytes_received``/``ops_sent`` are
    read-only views of them. The counters have one writer,
    ``QueuePair._post``, which bumps the raw counter objects inline.
    """

    def __init__(self, config: NetworkConfig, machine_id=None, metrics=None):
        self.config = config
        self.machine_id = machine_id
        self.background_flows = 0
        if metrics is None:
            from ..obs import MetricsRegistry

            metrics = MetricsRegistry()
        label = "nic" if machine_id is None else f"nic.{machine_id}"
        self._bytes_tx = metrics.counter(f"{label}.bytes_tx")
        self._bytes_rx = metrics.counter(f"{label}.bytes_rx")
        self._ops_tx = metrics.counter(f"{label}.ops_tx")

    def inflation(self) -> float:
        """Latency multiplier from active background flows on this NIC."""
        return 1.0 + self.config.congestion_per_flow * self.background_flows

    @property
    def bytes_sent(self) -> int:
        return self._bytes_tx.value

    @property
    def bytes_received(self) -> int:
        return self._bytes_rx.value

    @property
    def ops_sent(self) -> int:
        return self._ops_tx.value

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received


def _deliver(event: Event, ok: bool, value: Any) -> None:
    """The sink of the public verbs: the token is the verb's event, which
    is triggered and processed in place (the caller is the queue record)."""
    event._ok = ok
    event._value = value
    event._state = _PROCESSED
    callbacks = event.callbacks
    event.callbacks = []
    for callback in callbacks:
        callback(event)


def _finishing(verb_span: Span, sink):
    """``sink`` behind the end of a traced verb's span."""

    def finish_then_deliver(token, ok, value):
        if not ok:
            verb_span.set_tag("error", type(value).__name__)
        verb_span.finish()
        sink(token, ok, value)

    return finish_then_deliver


class QueuePair:
    """A reliable connection between two machines.

    One QP per (initiator, target) machine pair, matching the paper's "one
    connection for each active remote machine". All verbs posted on a QP
    complete in post order.
    """

    __slots__ = (
        "fabric",
        "local_id",
        "remote_id",
        "connected",
        "_last_completion",
        "_pending",
        "_disconnect_listeners",
        "_event_name",
        "_local_nic",
        "_remote_nic",
        "_reach_epoch",
        "_reach_ok",
        "_rx_bytes",
        "_draw_uniform",
        "_draw_pareto",
    )

    def __init__(
        self,
        fabric: "RdmaFabric",
        local_id: int,
        remote_id: int,
        rng: RandomSource,
    ):
        self.fabric = fabric
        self.local_id = local_id
        self.remote_id = remote_id
        self.connected = True
        self._last_completion = 0.0
        self._pending: List[Tuple[Callable, Any]] = []  # (sink, token) in post order
        self._disconnect_listeners: List[Callable[[int], None]] = []
        # Hot-path caches: the event name is constant per QP, and both
        # endpoints are registered before a QP between them is made, so
        # their NICs are bound here. The latency draws bind the underlying
        # stream's methods directly — same draws, no wrapper frame per verb.
        self._event_name = f"rdma:{local_id}->{remote_id}"
        self._local_nic = fabric.nic(local_id)
        self._remote_nic = remote_nic = fabric.nic(remote_id)
        self._rx_bytes = remote_nic._bytes_rx
        # Reachability cache, invalidated by the fabric's topology epoch:
        # every alive flip routes through on_machine_failed/_recovered and
        # every partition change through partition()/heal(), all of which
        # bump the epoch — so a matching epoch means the cached answer is
        # exact and the hot path pays one int compare instead of dict
        # lookups and alive checks per verb.
        self._reach_epoch = -1
        self._reach_ok = False
        self._draw_uniform = rng._rng.random
        self._draw_pareto = rng._rng.paretovariate

    # -- public verbs ------------------------------------------------------
    def post_read(
        self,
        size_bytes: int,
        fetch: Callable[[], Any],
        span: Optional[Span] = None,
    ) -> Event:
        """One-sided RDMA READ.

        ``fetch`` is invoked at completion time against the remote memory
        and its return value becomes the event's value. Raising
        :class:`RemoteAccessError` from ``fetch`` fails the event.
        ``span`` (a sampled request span) parents a per-verb trace span
        carrying the queueing/wire/congestion latency breakdown.
        """
        return self._post_event(size_bytes, fetch, (), True, span, "read")

    def post_write(
        self,
        size_bytes: int,
        apply: Callable[[], Any],
        span: Optional[Span] = None,
    ) -> Event:
        """One-sided RDMA WRITE; ``apply`` mutates remote memory at
        completion time. Event value is ``apply``'s return (usually None)."""
        return self._post_event(size_bytes, apply, (), True, span, "write")

    def post_send(
        self, message: Any, size_bytes: int = 64, span: Optional[Span] = None
    ) -> Event:
        """Two-sided SEND: delivers ``message`` to the remote inbox."""
        delivery = (self.remote_id, self.local_id, message)
        return self._post_event(
            size_bytes, self.fabric.deliver_message, delivery, False, span, "send"
        )

    def _post_event(self, size_bytes, fn, args, one_sided, span, kind) -> Event:
        """A fan-out of one whose token is the event it returns."""
        event = Event(self.fabric.sim, self._event_name)
        post = (self, event, fn, args)
        QueuePair._post(self.fabric, size_bytes, _deliver, (post,), one_sided, span, kind)
        return event

    # -- notifications -----------------------------------------------------
    def on_disconnect(self, callback: Callable[[int], None]) -> None:
        """Register a connection-manager callback (receives remote id)."""
        self._disconnect_listeners.append(callback)

    def disconnect(self, reason: str) -> None:
        """Tear the connection down: fail all pending verbs after the
        detection delay and notify listeners."""
        if not self.connected:
            return
        self.connected = False
        # Detached from the QP: a completion record that fires inside the
        # detection window finds its entry gone and delivers nothing.
        pending, self._pending = self._pending, []

        def fail_pending():
            for sink, token in pending:
                self._fail(
                    sink, token, RDMADisconnect(reason, machine_id=self.remote_id)
                )
            for listener in self._disconnect_listeners:
                listener(self.remote_id)

        self.fabric.sim.call_later(self.fabric.config.failure_detect_us, fail_pending)

    def reconnect(self) -> None:
        """Re-establish the RC after the remote recovers."""
        self.connected = True
        self._last_completion = self.fabric.sim.now

    # -- internals -----------------------------------------------------------
    @staticmethod
    def _post(
        fabric: "RdmaFabric",
        size_bytes: int,
        sink: Callable[[Any, bool, Any], None],
        posts: Sequence[Tuple["QueuePair", Any, Callable[..., Any], tuple]],
        one_sided: bool = True,
        span: Optional[Span] = None,
        kind: str = "op",
    ) -> None:
        """The verb, stated once, for a whole fan-out: ``posts`` is a
        sequence of ``(qp, token, fn, args)``, every QP leaving the same
        machine, every verb ``size_bytes`` long. Per verb, in sequence
        order: compute the latency (wire, congestion, jitter, straggler,
        per-QP queueing — tagged on ``span``'s child when there is one),
        schedule the one completion record, report the outcome to ``sink``.
        A fan-out of n is n fan-outs of one: same draws from each QP's
        stream, same records in the same order.

        At completion time the record pops the verb off its QP's pending
        list, runs ``fn(*args)`` against the remote machine and calls
        ``sink(token, True, value)`` in place. A failed verb
        (:class:`RemoteAccessError` from ``fn``, unreachable at post time,
        connection torn down while pending) reports
        ``sink(token, False, exception)`` through :meth:`_fail`. ``sink``
        is called exactly once per post, always from the dispatch loop.
        Always called through the class: the benchmark's tracer times the
        verb layer by replacing the attribute ``QueuePair._post``.
        """
        if not posts:
            return
        # Per fan-out: the clock, the queue, the topology epoch, the wire
        # time of size_bytes, the local NIC's share of the congestion test.
        sim = fabric.sim
        now = sim.now
        queue = sim._queue
        epoch = fabric._topology_epoch
        cfg = fabric.config
        base_latency = cfg.base_latency_us
        jitter_sigma = cfg.jitter_sigma
        straggler_prob = cfg.straggler_prob
        transfer = size_bytes / cfg.bytes_per_us
        wire = base_latency + transfer
        if not one_sided:
            wire += cfg.send_recv_overhead_us
        local_nic = posts[0][0]._local_nic
        local_flows = local_nic.background_flows
        local_inflation = local_nic.inflation()
        sent = 0
        for qp, token, fn, args in posts:
            verb_sink = sink
            if span is not None:
                verb_span = span.child(
                    f"rdma.{kind}",
                    cat="verb",
                    machine_id=qp.local_id,
                    tags={"target": qp.remote_id, "bytes": size_bytes},
                )
                verb_sink = _finishing(verb_span, sink)
            if qp._reach_epoch != epoch:
                qp._reach_ok = fabric.reachable(qp.local_id, qp.remote_id)
                qp._reach_epoch = epoch
            if not (qp.connected and qp._reach_ok):
                # Immediately broken: fail after the RC retry timeout.
                exc = RDMADisconnect(
                    f"machine {qp.remote_id} unreachable", machine_id=qp.remote_id
                )
                sim.call_later(
                    cfg.failure_detect_us, partial(qp._fail, verb_sink, token, exc)
                )
                continue

            # Traffic accounting: a verb moves size_bytes across both NICs
            # (the local one is credited after the loop). This is the
            # counters' only writer, so it bumps the raw objects.
            sent += 1
            qp._rx_bytes.value += size_bytes

            # The latency model, stated here and nowhere else: wire, then
            # congestion, jitter, a straggler, per-QP queueing. A traced verb
            # tags the same intermediate floats the completion time is built
            # from, so its five tags tile post -> completion by construction.
            # Congestion from background flows on either endpoint NIC (read
            # live: flows start and stop mid-run). Queuing delay grows with the
            # *bytes* this op must push through the busy link (plus a small
            # fixed queue-entry cost) — small split-sized messages interleave
            # past bulk flows far better than whole pages, which is part of why
            # Hydra divides pages (§4.1).
            congested = wire
            congestion = straggler = 0.0
            remote_nic = qp._remote_nic
            if local_flows or remote_nic.background_flows:
                inflation = max(local_inflation, remote_nic.inflation())
                if inflation > 1.0:
                    congestion = (inflation - 1.0) * (transfer + 0.2 * base_latency)
                    congested += congestion
            # Ordinary fabric jitter, lognormal(0, sigma): a Kinderman–Monahan
            # normal draw inlined from random.normalvariate — same generator,
            # same draw order, same float ops as `exp(normalvariate(0, sigma))`,
            # so the seeded jitter sequence is bit-identical to the library's.
            draw = qp._draw_uniform
            while True:
                u1 = draw()
                u2 = 1.0 - draw()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            latency = jittered = congested * exp(z * jitter_sigma)
            # Rare straggler events with a heavy tail.
            if straggler_prob > 0 and draw() < straggler_prob:
                straggler = cfg.straggler_scale_us * qp._draw_pareto(cfg.straggler_shape)
                latency += straggler
            # Per-QP ordering: a verb completes no earlier than the one posted
            # ahead of it, and the wait that imposes is its queueing delay.
            completion = now + latency
            if qp._last_completion > completion:
                completion = qp._last_completion
            if span is not None:
                for tag, value in (
                    ("wire_us", wire),
                    ("congestion_us", congestion),
                    ("jitter_us", jittered - congested),
                    ("straggler_us", straggler),
                    ("queue_us", completion - (now + latency)),
                ):
                    verb_span.set_tag(tag, round(value, 4))
            qp._last_completion = completion
            entry = (verb_sink, token)
            qp._pending.append(entry)

            # The verb's values are bound as defaults: a closure made in a
            # loop would see the last verb's.
            def complete(qp=qp, entry=entry, fn=fn, args=args):
                # Per-QP ordering means completions run in post order, so the
                # verb is almost always at the head of the pending list.
                pending = qp._pending
                if pending and pending[0] is entry:
                    del pending[0]
                else:
                    for index, other in enumerate(pending):
                        if other is entry:
                            del pending[index]
                            break
                    else:
                        # The QP disconnected before this op's completion time:
                        # the data never arrived; fail_pending reports the verb.
                        return
                sink, token = entry
                try:
                    value = fn(*args)
                except RemoteAccessError as exc:
                    qp._fail(sink, token, exc)
                    return
                # Fused delivery: this callable *is* the scheduled completion
                # entry, so the sink runs in place rather than behind a second
                # same-timestamp queue entry. Same-time ordering is unchanged:
                # every other queue entry already holds an earlier sequence
                # number either way.
                sink(token, True, value)

            # Inlined sim.call_later(completion - now, complete): the same
            # `now + (completion - now)` float dance and one (when, seq, fn)
            # record, minus the call — verbs are the engine's highest-volume
            # scheduling source. `completion >= now`, so the delay guard is moot.
            sim._seq = seq = sim._seq + 1
            _heappush(queue, (now + (completion - now), seq, complete))
        local_nic._bytes_tx.value += sent * size_bytes
        local_nic._ops_tx.value += sent

    def _fail(self, sink, token: Any, exc: RDMAError) -> None:
        """Report a failed verb to its sink. An error completion is its own
        queue record at the current time: it surfaces behind whatever is
        already queued for this instant, and the seeded histories (queue
        entry counts, same-time ordering) depend on that."""
        self.fabric.sim.call_later(0.0, lambda: sink(token, False, exc))


class RdmaFabric:
    """The cluster interconnect: machine registry, QPs, partitions.

    Machines register themselves with :meth:`register`; they must provide
    ``id`` (int), ``nic`` (:class:`Nic`), ``alive`` (bool) and an
    ``deliver_message(src_id, message)`` method for SEND/RECV delivery.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[NetworkConfig] = None,
        rng: Optional[RandomSource] = None,
        obs: Optional[Observability] = None,
    ):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.rng = rng or RandomSource(0, "fabric")
        self.obs = obs or Observability.create(sim)
        self._machines: Dict[int, Any] = {}
        self._qps: Dict[Tuple[int, int], QueuePair] = {}
        self._partitions: set = set()
        # Bumped on every event that can change pairwise reachability
        # (machine death/recovery, partition/heal, registration); QPs key
        # their cached ``reachable`` answer on it.
        self._topology_epoch = 0

    # -- registry ------------------------------------------------------------
    def register(self, machine: Any) -> None:
        if machine.id in self._machines:
            raise ValueError(f"machine id {machine.id} already registered")
        self._machines[machine.id] = machine
        self._topology_epoch += 1

    def machine(self, machine_id: int) -> Any:
        return self._machines[machine_id]

    def machine_ids(self) -> List[int]:
        return sorted(self._machines)

    def nic(self, machine_id: int) -> Nic:
        return self._machines[machine_id].nic

    # -- connections -----------------------------------------------------------
    def qp(self, local_id: int, remote_id: int) -> QueuePair:
        """The (cached) queue pair from ``local_id`` to ``remote_id``."""
        if local_id == remote_id:
            raise ValueError("no loopback queue pairs: local_id == remote_id")
        key = (local_id, remote_id)
        pair = self._qps.get(key)
        if pair is None:
            pair = QueuePair(self, local_id, remote_id, self.rng.child(f"qp{key}"))
            self._qps[key] = pair
        return pair

    def queue_depth(self, machine_id: int) -> int:
        """Outstanding verbs posted by ``machine_id`` across all of its
        QPs — the dashboard's per-machine queue-depth gauge. Walks only
        existing QPs (no allocation), so samplers can call it every
        ControlPeriod without perturbing the run."""
        return sum(
            len(pair._pending)
            for (local_id, _remote_id), pair in self._qps.items()
            if local_id == machine_id
        )

    def reachable(self, a: int, b: int) -> bool:
        """True when both endpoints are alive and not partitioned."""
        if not self._machines[a].alive or not self._machines[b].alive:
            return False
        if not self._partitions:
            return True
        return frozenset((a, b)) not in self._partitions

    # -- failure / partition events -----------------------------------------
    def on_machine_failed(self, machine_id: int) -> None:
        """Disconnect every QP touching the failed machine."""
        self._topology_epoch += 1
        for (local, remote), pair in self._qps.items():
            if remote == machine_id:
                pair.disconnect(f"machine {machine_id} failed")
            elif local == machine_id:
                pair.disconnect(f"local machine {machine_id} failed")

    def on_machine_recovered(self, machine_id: int) -> None:
        self._topology_epoch += 1
        for (local, remote), pair in self._qps.items():
            if machine_id in (local, remote) and self.reachable(local, remote):
                pair.reconnect()

    def partition(self, a: int, b: int) -> None:
        """Make machines ``a`` and ``b`` mutually unreachable."""
        self._topology_epoch += 1
        self._partitions.add(frozenset((a, b)))
        for key in ((a, b), (b, a)):
            pair = self._qps.get(key)
            if pair is not None:
                pair.disconnect(f"network partition between {a} and {b}")

    def heal(self, a: int, b: int) -> None:
        self._topology_epoch += 1
        self._partitions.discard(frozenset((a, b)))
        for key in ((a, b), (b, a)):
            pair = self._qps.get(key)
            if pair is not None and self.reachable(*key):
                pair.reconnect()

    # -- messaging ------------------------------------------------------------
    def deliver_message(self, dst_id: int, src_id: int, message: Any) -> None:
        machine = self._machines.get(dst_id)
        if machine is None or not machine.alive:
            raise RemoteAccessError(f"machine {dst_id} cannot receive messages")
        machine.deliver_message(src_id, message)
