"""Replicated Resilience-Manager metadata and deterministic failover.

The paper assumes the Resilience Manager survives; its address-range →
slab maps, page version counters and regeneration state otherwise live in
one process's DRAM. This module replicates that metadata across a small
peer set with a one-sided-RDMA agreement protocol in the style of "The
Impact of RDMA on Agreement": the leader (the RM itself) appends to a
logical-timestamped metadata log and replicates it with one-sided WRITEs
into registered log regions on each peer; a commit needs a majority of
the replica set (the leader's own copy counts) before any client-visible
durability promise is made. Every replica guards its log with a *term*
word: a write carrying a stale term faults, so a deposed leader fences
itself on its next commit instead of diverging.

Failover is deterministic: when a metadata peer loses its connection to
the leader and the leader stays unreachable (or fenced) for a full lease
timeout, the lowest-id peer that is alive and not fenced itself bumps the
term on a majority of replicas, collects the longest surviving log and
hands it to its own RM: ``ResilienceManager.restore`` replays it through
the methods the live path applies, and ``ResilienceManager.seal``
re-seals pages whose writes were torn mid-flight and resumes
regenerations that were in flight when the leader died. This module
keeps the agreement protocol, the record format and the takeover; the
model's limits are in docs/ARCHITECTURE.md, "Control-plane resilience".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net import QueuePair, RemoteAccessError
from .address_space import AddressRange, SlabHandle
from .resilience_manager import _SplitGather

__all__ = [
    "StaleTermError",
    "ReplicaGapError",
    "MetadataReplica",
    "ReplicatedMetadataStore",
    "ControlPlane",
]

# Wire-size model for one replicated-log append: a fixed header (term,
# base lsn, committed lsn, record count) plus a packed record.
_META_BASE_BYTES = 64
_META_RECORD_BYTES = 96


class StaleTermError(RemoteAccessError):
    """A one-sided append/fence carried a term older than the replica's."""


class ReplicaGapError(RemoteAccessError):
    """An append's base lsn is past the replica's log end (needs resync)."""


class MetadataReplica:
    """One replica of one RM's metadata log (a registered memory region).

    ``term`` is the fencing word: one-sided appends with an older term
    fault at the "NIC" instead of applying. It intentionally survives
    :meth:`wipe` — the term word is modeled as protected memory so a
    rebooted host cannot be tricked into accepting a deposed leader.
    """

    __slots__ = ("domain", "host_id", "term", "log", "committed_lsn")

    def __init__(self, domain: int, host_id: int):
        self.domain = domain
        self.host_id = host_id
        self.term = 1
        self.log: List[dict] = []
        self.committed_lsn = 0

    def apply_term(self, term: int) -> None:
        """Fence: install a higher term (the successor's first step)."""
        if term <= self.term:
            raise StaleTermError(
                f"meta domain {self.domain} replica on m{self.host_id}: "
                f"term {term} <= current {self.term}"
            )
        self.term = term

    def apply_append(
        self, term: int, base_lsn: int, records: List[dict], committed_lsn: int
    ) -> None:
        """Apply a one-sided log append (or a bare lease-renewal probe)."""
        if term < self.term:
            raise StaleTermError(
                f"meta domain {self.domain} replica on m{self.host_id}: "
                f"append at term {term} < current {self.term}"
            )
        self.term = max(self.term, term)
        if base_lsn > len(self.log):
            raise ReplicaGapError(
                f"meta domain {self.domain} replica on m{self.host_id}: "
                f"append base {base_lsn} past log end {len(self.log)}"
            )
        if records:
            del self.log[base_lsn:]
            self.log.extend(records)
        self.committed_lsn = min(
            max(self.committed_lsn, committed_lsn), len(self.log)
        )

    def wipe(self) -> None:
        """Host DRAM lost: the log goes, the protected term word stays."""
        self.log.clear()
        self.committed_lsn = 0


class ReplicatedMetadataStore:
    """Leader-side view of one RM's replicated metadata log.

    The RM appends the two records that gate a client ack (``write_intent``,
    ``write_acked``) and runs :meth:`commit` at those durability
    boundaries; every other record comes from the store's ``on_*`` methods,
    which the RM calls as one of its observers, and is committed in the
    background. A commit pushes the per-peer log delta with one-sided
    WRITEs and succeeds once a majority of the replica set (peers + the
    leader's own copy) holds the prefix. Any failed commit — quorum loss
    or a stale-term fault — fences the store (and through ``on_fence`` the
    RM itself) permanently.
    """

    def __init__(
        self,
        sim,
        fabric,
        domain: int,
        self_replica: MetadataReplica,
        peers: Dict[int, MetadataReplica],
        lease_timeout_us: float,
        heartbeat_period_us: float,
        flight=None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.domain = domain
        self.self_replica = self_replica
        self.peers = dict(peers)
        self.lease_timeout_us = lease_timeout_us
        self.heartbeat_period_us = heartbeat_period_us
        self.flight = flight
        self.fenced = False
        self.fence_reason: Optional[str] = None
        self.term = 1
        self.lease_expiry = 0.0
        self.commits = 0
        self.commit_failures = 0
        self.records_appended = 0
        self.on_fence: Optional[Callable[[str], None]] = None
        # Per-peer replication cursors: ``sent`` is optimistic (reset on a
        # failed write), ``acked`` is the confirmed replicated prefix.
        self._links = {p: {"sent": 0, "acked": 0} for p in self.peers}
        self._heartbeat_on = False
        self._async_running = False
        # A peer disconnect (crash or partition) invalidates its cursor:
        # its DRAM log may be gone, so the next commit resyncs from zero.
        for peer_id in sorted(self.peers):
            fabric.qp(domain, peer_id).on_disconnect(self._reset_link)

    # -- log ----------------------------------------------------------------
    @property
    def log(self) -> List[dict]:
        return self.self_replica.log

    @property
    def majority(self) -> int:
        return (len(self.peers) + 1) // 2 + 1  # the leader's own copy counts

    def append(self, kind: str, **fields) -> None:
        """Append one metadata record locally (replicated on next commit)."""
        if self.fenced:
            return
        record = {"lsn": len(self.log), "term": self.term, "kind": kind}
        record.update(fields)
        self.log.append(record)
        self.records_appended += 1
        self._ensure_heartbeat()

    # -- RM observer: the records that gate no client ack --------------------
    def _log(self, kind: str, **fields) -> None:
        self.append(kind, **fields)
        self.commit_async()

    def on_range_installed(self, address_range) -> None:
        # Rides the caller's next commit: a write always commits its intent
        # right after resolving, and reads never place.
        self.append(
            "range_installed",
            range_id=address_range.range_id,
            handles=[
                [h.machine_id, h.slab_id, bool(h.available)] for h in address_range.slots
            ],
        )

    def on_range_dropped(self, range_id: int) -> None:
        self._log("range_dropped", range_id=range_id)

    def on_position_failed(self, range_id: int, position: int) -> None:
        self._log("position_failed", range_id=range_id, position=position)

    def on_position_replaced(self, range_id: int, position: int, handle) -> None:
        self._log(
            "position_replaced", range_id=range_id, position=position,
            machine_id=handle.machine_id, slab_id=handle.slab_id,
        )

    def on_error_score(self, machine_id: int, score: float) -> None:
        self._log("error_score", machine_id=machine_id, score=score)

    def on_write_durable(self, page_id: int, version: int) -> None:
        self._log("write_durable", page_id=page_id, version=version)

    def on_page_lost(self, page_id: int) -> None:
        self._log("page_dropped", page_id=page_id)

    @staticmethod
    def decode(records: List[dict]):
        """The writers above, inverted, for ``ResilienceManager.restore``:
        each record that changes RM state as the ``(event, args)`` its
        writer was called with (fresh handles). Write marks are skipped."""
        for rec in records:
            kind = rec["kind"]
            if kind == "range_installed":
                handles = [SlabHandle(m, s, a) for m, s, a in rec["handles"]]
                yield "on_range_installed", (AddressRange(rec["range_id"], handles),)
            elif kind == "range_dropped":
                yield "on_range_dropped", (rec["range_id"],)
            elif kind == "position_failed":
                yield "on_position_failed", (rec["range_id"], rec["position"])
            elif kind == "position_replaced":
                handle = SlabHandle(rec["machine_id"], rec["slab_id"])
                yield "on_position_replaced", (rec["range_id"], rec["position"], handle)
            elif kind == "error_score":
                yield "on_error_score", (rec["machine_id"], rec["score"])
            elif kind == "write_acked":
                yield "on_write_acked", (rec["page_id"], rec["version"], None)
            elif kind == "page_dropped":
                yield "on_page_lost", (rec["page_id"],)

    # -- commit -------------------------------------------------------------
    def commit(self):
        """Replicate the log prefix to a majority and renew the lease: an
        event whose value is whether it did (processed when nothing waits).

        Always probes every peer (even with an empty delta) so a lease
        renewal is a real liveness check — a partitioned leader fences
        itself within one heartbeat period. A failed commit fences the
        store; a fenced store's commit fails at once.
        """
        waiter = self.sim.event(name=f"meta-commit:{self.domain}")
        if self.fenced:
            return waiter.succeed_now(False)
        target = len(self.log)
        state = {"acks": 0, "fails": 0, "stale": False, "target": target, "waiter": waiter}
        committed = self.committed_lsn
        for peer_id in sorted(self._links):
            link = self._links[peer_id]
            base = min(link["sent"], target)
            records = [dict(r) for r in self.log[base:target]]
            qp = self.fabric.qp(self.domain, peer_id)
            append = (self.term, base, records, committed)
            post = (qp, (state, peer_id), self.peers[peer_id].apply_append, append)
            size = _META_BASE_BYTES + _META_RECORD_BYTES * len(records)
            QueuePair._post(self.fabric, size, self._on_append, (post,))
            link["sent"] = max(link["sent"], target)
        if not self._links:
            self._settle(state)
        return waiter

    def _settle(self, state: dict) -> None:
        """End a commit: renew the lease if a majority holds the prefix,
        else fence (a lost quorum or a stale term); then wake its waiter."""
        ok = not state["stale"] and state["acks"] >= self.majority - 1  # and the own copy
        if ok:
            self.commits += 1
            self.self_replica.committed_lsn = max(self.committed_lsn, state["target"])
            self.lease_expiry = self.sim.now + self.lease_timeout_us
        else:
            self.commit_failures += 1
            self.fence("superseded by a higher term" if state["stale"] else "metadata quorum lost")
        state["waiter"].succeed_now(ok)

    def _on_append(self, token, ok: bool, value) -> None:
        """Sink of :meth:`commit`'s appends: move the peer's cursor, count
        its vote, settle the commit once a majority has acked or cannot. Not
        a ``_SplitGather``: only a commit needs the failure's type and an
        exit when its quorum is out of reach."""
        state, peer_id = token
        link = self._links[peer_id]
        if ok:
            link["acked"] = max(link["acked"], state["target"])
            state["acks"] += 1
        else:
            if isinstance(value, StaleTermError):
                state["stale"] = True
            if isinstance(value, ReplicaGapError):
                link["sent"] = link["acked"] = 0
            else:
                link["sent"] = min(link["sent"], link["acked"])
            state["fails"] += 1
        needed = self.majority - 1
        if not state["waiter"].triggered and (
            state["acks"] >= needed or state["fails"] > len(self._links) - needed
        ):
            self._settle(state)

    @property
    def committed_lsn(self) -> int:
        return self.self_replica.committed_lsn

    def commit_async(self) -> None:
        """Commit in the background (metadata that gates no client ack:
        slab-map deltas, durability confirmations, error scores)."""
        if self.fenced or self._async_running:
            return
        self._async_running = True

        def runner():
            try:  # a failed commit fences the store, which ends the loop
                while not self.fenced and self.committed_lsn < len(self.log):
                    yield self.commit()
            finally:
                self._async_running = False

        self.sim.process(runner(), name=f"meta-commit-async:{self.domain}")

    # -- lease heartbeat ----------------------------------------------------
    def _ensure_heartbeat(self) -> None:
        if self._heartbeat_on or self.fenced or not self.peers:
            return
        self._heartbeat_on = True
        self.sim.process(self._heartbeat(), name=f"meta-heartbeat:{self.domain}")

    def _heartbeat(self):
        while not self.fenced:
            yield self.sim.timeout(self.heartbeat_period_us)
            if self.fenced or not (yield self.commit()):
                return

    # -- fencing ------------------------------------------------------------
    def fence(self, reason: str) -> None:
        """Permanently stop serving: this leader's epoch is over."""
        if self.fenced:
            return
        self.fenced = True
        self.fence_reason = reason
        if self.flight is not None:
            self.flight.note(
                "meta_fenced", at_us=self.sim.now, domain=self.domain,
                reason=reason,
            )
        if self.on_fence is not None:
            self.on_fence(reason)

    def _reset_link(self, peer_id: int) -> None:
        link = self._links.get(peer_id)
        if link is not None:
            link["sent"] = link["acked"] = 0

    def report(self) -> dict:
        return {
            "term": self.term,
            "fenced": self.fenced,
            "fence_reason": self.fence_reason,
            "log_records": len(self.log),
            "committed_lsn": self.committed_lsn,
            "commits": self.commits,
            "commit_failures": self.commit_failures,
        }


# ======================================================================
# failover: what the log says about each page
# ======================================================================
def _classify_pages(records: List[dict], versions: Dict[int, int], pages_per_range: int) -> dict:
    """What the write records say about the restored pages (``versions``):
    ``interrupted`` lists ``(page, acked, intent)`` for a write torn
    mid-flight, whose splits may mix versions; ``unsettled`` lists acked
    pages whose async parity may not have landed. A lost page, or a page
    of a dropped range, forgets its earlier records."""
    marks: Dict[str, Dict[int, int]] = {"write_intent": {}, "write_durable": {}}
    for rec in records:
        seen = marks.get(rec["kind"])
        if seen is not None:
            page, version = rec["page_id"], rec["version"]
            seen[page] = max(version, seen.get(page, 0))
        elif rec["kind"] == "page_dropped":
            for seen in marks.values():
                seen.pop(rec["page_id"], None)
        elif rec["kind"] == "range_dropped":
            for seen in marks.values():
                for page in [p for p in seen if p // pages_per_range == rec["range_id"]]:
                    del seen[page]
    intents, durable = marks["write_intent"], marks["write_durable"]
    return {
        "durable": durable,
        "interrupted": sorted(
            (page, versions.get(page, 0), version)
            for page, version in intents.items()
            if version > versions.get(page, 0)
        ),
        "unsettled": sorted(
            page
            for page, version in versions.items()
            if durable.get(page, 0) < version and intents.get(page, 0) <= version
        ),
    }


# ======================================================================
# deployment-level control plane
# ======================================================================
class ControlPlane:
    """Metadata replication and failover orchestration for a deployment.

    Builds one :class:`ReplicatedMetadataStore` per machine (each RM is
    the leader of its own metadata *domain*), hosts the peer replicas,
    watches leader connectivity from each peer, and runs the takeover
    protocol when a leader stays gone for a full lease timeout.
    """

    def __init__(self, deployment, cluster):
        self.deployment = deployment
        self.cluster = cluster
        self.sim = cluster.sim
        self.fabric = cluster.fabric
        config = deployment.config
        self.replicas = min(config.metadata_replicas, max(len(cluster) - 1, 0))
        self.heartbeat_period_us = config.control_period_us
        self.lease_timeout_us = (
            config.metadata_lease_timeout_us
            if config.metadata_lease_timeout_us is not None
            else 3.0 * config.control_period_us
        )
        obs = getattr(cluster, "obs", None)
        self.flight = getattr(obs, "flight", None)
        self.stores: Dict[int, ReplicatedMetadataStore] = {}
        self.replica_hosts: Dict[int, Dict[int, MetadataReplica]] = {}
        self.peers_of_domain: Dict[int, List[int]] = {}
        self.failovers: List[dict] = []
        self.on_failover_begin: List[Callable] = []
        self._taking_over: set = set()
        self._failed_over: Dict[int, int] = {}
        self._watch_pending: set = set()

        ids = sorted(machine.id for machine in cluster.machines)
        for domain in ids:
            peers = cluster.metadata_peers(domain, self.replicas)
            self.peers_of_domain[domain] = peers
            for host in [domain] + peers:
                self.replica_hosts.setdefault(host, {})[domain] = MetadataReplica(domain, host)
            store = ReplicatedMetadataStore(
                self.sim, self.fabric, domain, self.replica_hosts[domain][domain],
                {peer: self.replica_hosts[peer][domain] for peer in peers},
                self.lease_timeout_us, self.heartbeat_period_us, self.flight,
            )
            rm = deployment.manager(domain)
            store.on_fence = rm.fence
            rm.attach_metadata_store(store)
            # The first observer: the log records each RM event before any
            # later observer (the chaos monitor) sees it.
            rm.add_observer(store)
            self.stores[domain] = store
        # Takeover watchers: each peer monitors its connection to the
        # leaders it replicates (the QP doubles as the failure detector).
        for domain in ids:
            for peer in self.peers_of_domain[domain]:
                self.fabric.qp(peer, domain).on_disconnect(
                    self._make_watcher(domain, peer)
                )
        # An RM dies with its machine: wipe the replicas that machine
        # hosted and fence its own leadership at crash time.
        for machine in cluster.machines:
            machine.on_failure(self._on_machine_failed)
        # Best-effort stepdown notification for a deposed-but-alive leader
        # (belt and braces: the term words already guarantee safety).
        for domain in ids:
            deployment.node(domain).endpoint.register(
                "meta_stepdown", self._make_stepdown(domain)
            )

    # -- liveness events ----------------------------------------------------
    def _on_machine_failed(self, machine_id: int) -> None:
        for _domain, replica in sorted(self.replica_hosts.get(machine_id, {}).items()):
            replica.wipe()
        store = self.stores.get(machine_id)
        if store is not None:
            store.fence("machine crashed")

    def _make_stepdown(self, domain: int):
        def handler(src_id: int, body: dict):
            store = self.stores[domain]
            term = int(body.get("term", 0))
            if term > store.term:
                store.fence(f"stepdown from m{src_id} (term {term})")
            return {"ok": True}

        return handler

    def _make_watcher(self, domain: int, watcher: int):
        def on_disconnect(_remote_id: int) -> None:
            key = (domain, watcher)
            if key in self._watch_pending or domain in self._failed_over:
                return
            if domain in self._taking_over or not self._replicated(domain):
                return  # taken care of, or nothing worth taking over
            self._watch_pending.add(key)
            self.sim.process(
                self._watch(domain, watcher),
                name=f"meta-watch:{domain}:{watcher}",
            )

        return on_disconnect

    def _watch(self, domain: int, watcher: int):
        try:
            yield self.sim.timeout(self.lease_timeout_us)
        finally:
            self._watch_pending.discard((domain, watcher))
        if domain in self._failed_over or domain in self._taking_over:
            return
        if self.fabric.reachable(watcher, domain) and not self.stores[domain].fenced:
            return  # transient blip; the leader still holds its lease
        if not self._replicated(domain):
            return
        eligible = [
            peer
            for peer in self.peers_of_domain[domain]
            if self.cluster.machine(peer).alive and not self.stores[peer].fenced
            and not self.deployment.manager(peer).space.ranges
        ]
        if not eligible or eligible[0] != watcher:
            return  # the lowest-id eligible peer owns the takeover
        self._taking_over.add(domain)
        try:
            yield from self._takeover(domain, watcher)
        finally:
            self._taking_over.discard(domain)

    def _replicated(self, domain: int) -> bool:
        """Whether a surviving replica of ``domain`` holds any record."""
        return any(
            replicas[domain].log
            for host, replicas in self.replica_hosts.items()
            if domain in replicas and self.cluster.machine(host).alive
        )

    # -- takeover -----------------------------------------------------------
    def _takeover(self, domain: int, successor: int):
        sim = self.sim
        rm = self.deployment.manager(successor)
        my_replica = self.replica_hosts[successor][domain]
        new_term = my_replica.term + 1
        my_replica.apply_term(new_term)
        hosts = [
            host
            for host in sorted(self.replica_hosts)
            if domain in self.replica_hosts[host]
            and host != successor
            and self.cluster.machine(host).alive
        ]
        majority = self.stores[domain].majority
        logs: Dict[int, List[dict]] = {successor: list(my_replica.log)}
        size = _META_BASE_BYTES + _META_RECORD_BYTES * len(my_replica.log)
        # Per host: bump the term word (the fence), then read its log back.
        gather = _SplitGather(sim)
        for host in hosts:
            replica = self.replica_hosts[host][domain]
            qp = self.fabric.qp(successor, host)
            gather.post(
                qp, _META_BASE_BYTES, ("fence", host), replica.apply_term, (new_term,)
            )
            gather.post(qp, size, ("log", host), list, (replica.log,))
        yield gather.wait_all()
        for host in hosts:
            if ("fence", host) in gather.valid and ("log", host) in gather.valid:
                logs[host] = gather.arrivals[("log", host)]
        acked = len(logs)  # fenced-and-read hosts plus the successor's own replica
        if acked < majority:
            if self.flight is not None:
                self.flight.note(
                    "rm_failover_aborted", at_us=sim.now, domain=domain,
                    successor=successor, acked=acked, majority=majority,
                )
            return
        # The longest log; on a tie the successor's own, then the lowest id.
        best = max(sorted(logs), key=lambda host: (len(logs[host]), host == successor))
        merged = logs[best]
        # Tell a deposed-but-alive leader to stand down (best effort; its
        # next commit would hit the bumped term words anyway).
        self.deployment.node(successor).endpoint.notify(
            domain, "meta_stepdown", {"term": new_term}
        )
        versions = rm.restore(ReplicatedMetadataStore.decode(merged))
        ranges = len(rm.space.ranges)
        info = _classify_pages(merged, versions, rm.space.pages_per_range)
        store = self.stores[successor]
        if not store.fenced:
            # Snapshot the adopted state into the successor's own domain, so
            # a second failover does not depend on the first domain's log.
            for address_range in sorted(rm.space.all_ranges(), key=lambda a: a.range_id):
                store.on_range_installed(address_range)
            for page, version in sorted(versions.items()):
                store.append("write_acked", page_id=page, version=version)
                if info["durable"].get(page, 0) >= version:
                    store.append("write_durable", page_id=page, version=version)
            yield store.commit()
        for callback in list(self.on_failover_begin):
            callback(domain, rm, info)
        seal = yield from rm.seal(info["interrupted"], info["unsettled"])
        entry = {
            "domain": domain,
            "successor": successor,
            "term": new_term,
            "at_us": round(sim.now, 3),
            "log_records": len(merged),
            "log_source": best,
            "ranges": ranges,
            "pages": len(versions),
            "interrupted": len(info["interrupted"]),
            "unsettled": len(info["unsettled"]),
        }
        entry.update(seal)
        self.failovers.append(entry)
        self._failed_over[domain] = successor
        if self.flight is not None:
            self.flight.note(
                "rm_failover", at_us=sim.now, domain=domain,
                successor=successor, term=new_term,
                interrupted=entry["interrupted"], unsettled=entry["unsettled"],
                sealed=entry["sealed"], lost=entry["lost"],
            )

    # -- reporting ----------------------------------------------------------
    def report(self) -> dict:
        stores = {
            domain: store.report()
            for domain, store in sorted(self.stores.items())
            if store.records_appended or store.fenced
        }
        return {
            "replicas": self.replicas,
            "lease_timeout_us": self.lease_timeout_us,
            "failovers": [dict(entry) for entry in self.failovers],
            "stores": stores,
        }
