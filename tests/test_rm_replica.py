"""Survivable control plane: replicated RM metadata and failover.

These tests run real clusters with ``metadata_replicas=2`` and exercise
the one-sided-RDMA agreement protocol end to end: majority commits,
lease fencing, deterministic takeover, slab-map reconstruction from the
replicated log, and the crash matrix at every write-path phase boundary.
"""

import pytest

from repro.cluster import Cluster, CorruptionInjector
from repro.core import (
    HydraConfig,
    HydraDeployment,
    HydraError,
    RemoteMemoryUnavailable,
    ReplicatedMetadataStore,
    ResilienceManager,
)
from repro.core.rm_replica import StaleTermError
from repro.net import NetworkConfig
from repro.obs import MetricsRegistry, Tracer
from repro.sim import RandomSource

from .conftest import drive, make_page

LEASE_US = 60_000.0


def quiet_net():
    return NetworkConfig(jitter_sigma=0.0, straggler_prob=0.0)


def deploy(
    machines=8, k=4, r=2, replicas=2, seed=5, network=None, cluster_seed=3,
    **config_kwargs,
):
    cluster = Cluster(
        machines=machines,
        memory_per_machine=1 << 26,
        network=network or quiet_net(),
        seed=cluster_seed,
    )
    config = HydraConfig(
        k=k,
        r=r,
        delta=1,
        slab_size_bytes=1 << 20,
        payload_mode="real",
        control_period_us=20_000,
        metadata_replicas=replicas,
        metadata_lease_timeout_us=LEASE_US,
        **config_kwargs,
    )
    deployment = HydraDeployment(cluster, config, seed=seed)
    return cluster, deployment


class TestReplication:
    def test_control_plane_off_by_default(self):
        cluster = Cluster(machines=4, memory_per_machine=1 << 26, seed=3)
        deployment = HydraDeployment(cluster, HydraConfig(k=2, r=1, delta=0))
        assert deployment.control_plane is None
        assert deployment.manager(0)._meta is None

    def test_writes_replicate_metadata_to_a_majority(self):
        cluster, deployment = deploy()
        rm = deployment.manager(0)
        control = deployment.control_plane
        store = control.stores[0]

        def proc():
            for pid in range(8):
                yield rm.write(pid, make_page(pid))
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert store.commits > 0
        assert store.committed_lsn > 0
        # Every committed record sits on at least a majority of replicas
        # (the leader's copy plus at least one peer).
        prefix = store.log[: store.committed_lsn]
        holders = 1 + sum(
            1
            for peer in control.peers_of_domain[0]
            if control.replica_hosts[peer][0].log[: store.committed_lsn]
            == prefix
        )
        assert holders >= store.majority
        kinds = {rec["kind"] for rec in prefix}
        assert {"range_installed", "write_intent", "write_acked"} <= kinds

    def test_store_is_the_first_observer_and_logs_in_order(self):
        """The metadata log is fed by RM events: the store is registered
        ahead of any later observer, so it has logged an event before that
        observer sees it, and the records land in the order they did when
        the RM built them itself."""
        cluster, deployment = deploy(machines=10)
        sim = cluster.sim
        rm = deployment.manager(0)
        control = deployment.control_plane
        store = control.stores[0]
        last_kind_seen = []

        class LateObserver:
            def on_write_durable(self, page_id, version):
                last_kind_seen.append(store.log[-1]["kind"])

        rm.add_observer(LateObserver())
        assert rm._observers[0] is store

        def proc():
            for pid in range(3):
                yield rm.write(pid, make_page(pid))
            yield sim.timeout(1_000.0)
            crashed = next(
                handle.machine_id
                for handle in rm.space.get(0).slots
                if handle.machine_id not in control.peers_of_domain[0]
            )
            cluster.machine(crashed).fail()
            yield rm.write(0, make_page(7))
            yield sim.timeout(2_000_000.0)
            yield rm.reclaim_range(0)
            yield sim.timeout(100_000.0)
            return "ok"

        assert drive(sim, proc()) == "ok"
        assert last_kind_seen == ["write_durable"] * 4
        assert [rec["kind"] for rec in store.log] == [
            "range_installed", "write_intent", "write_acked",
            "write_intent", "write_durable", "write_acked",
            "write_intent", "write_durable", "write_acked", "write_durable",
            "write_intent", "position_failed", "position_replaced",
            "write_acked", "write_durable", "range_dropped",
        ]

    def test_heartbeat_keeps_the_lease_alive(self):
        cluster, deployment = deploy()
        rm = deployment.manager(0)
        store = deployment.control_plane.stores[0]

        def proc():
            yield rm.write(0, make_page(0))
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        # Idle for several lease windows: heartbeat commits must renew.
        cluster.sim.run(until=cluster.sim.now + 5 * LEASE_US)
        assert cluster.sim.now < store.lease_expiry
        assert not store.fenced

    def test_replica_count_clamped_to_cluster_size(self):
        cluster, deployment = deploy(machines=2, k=1, r=1, replicas=4)
        assert deployment.control_plane.replicas == 1


class TestFencing:
    def test_partition_from_all_peers_fences_the_leader(self):
        cluster, deployment = deploy()
        rm = deployment.manager(0)
        control = deployment.control_plane
        store = control.stores[0]

        def proc():
            for pid in range(4):
                yield rm.write(pid, make_page(pid))
            for peer in control.peers_of_domain[0]:
                cluster.fabric.partition(0, peer)
            # Within one heartbeat period the empty-delta probe fails to
            # reach a majority and the leader fences itself.
            yield cluster.sim.timeout(3 * 20_000.0)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert store.fenced
        assert rm.fenced

        def blocked():
            with pytest.raises(RemoteMemoryUnavailable):
                yield rm.write(9, make_page(9))
            with pytest.raises(RemoteMemoryUnavailable):
                yield rm.read(0)
            return "ok"

        assert drive(cluster.sim, blocked()) == "ok"
        assert rm.events["fenced_writes"] >= 1
        assert rm.events["fenced_reads"] >= 1

    def test_stale_term_append_fences_a_deposed_leader(self):
        cluster, deployment = deploy()
        rm = deployment.manager(0)
        control = deployment.control_plane
        store = control.stores[0]

        def proc():
            yield rm.write(0, make_page(0))
            # A successor bumped the term words behind our back.
            for peer in control.peers_of_domain[0]:
                control.replica_hosts[peer][0].apply_term(store.term + 1)
            assert (yield store.commit()) is False
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert store.fenced
        assert "superseded" in store.fence_reason

    def test_term_word_survives_a_wipe(self):
        cluster, deployment = deploy()
        replica = deployment.control_plane.replica_hosts[1][0]
        replica.apply_term(7)
        replica.log.append({"kind": "x"})
        replica.wipe()
        assert replica.term == 7
        assert replica.log == []
        with pytest.raises(StaleTermError):
            replica.apply_term(7)


class TestFailover:
    def test_failover_rebuilds_map_and_serves_reads(self):
        cluster, deployment = deploy(machines=10)
        rm = deployment.manager(0)
        control = deployment.control_plane
        pages = {pid: make_page(pid) for pid in range(12)}

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            yield cluster.sim.timeout(100_000.0)  # settle parity + durables
            cluster.machine(0).fail()
            yield cluster.sim.timeout(LEASE_US + 1_000_000.0)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert len(control.failovers) == 1
        entry = control.failovers[0]
        alive_peers = [
            p for p in control.peers_of_domain[0] if cluster.machine(p).alive
        ]
        assert entry["domain"] == 0
        assert entry["successor"] == alive_peers[0]
        assert entry["term"] >= 2
        assert entry["pages"] == len(pages)
        assert entry["lost"] == 0

        successor = deployment.manager(entry["successor"])

        def readback():
            got = {}
            for pid in pages:
                got[pid] = yield successor.read(pid)
            return got

        got = drive(cluster.sim, readback())
        assert got == pages

    def test_failover_resumes_inflight_regeneration(self):
        cluster, deployment = deploy(machines=10)
        rm = deployment.manager(0)
        control = deployment.control_plane
        pages = {pid: make_page(pid) for pid in range(8)}

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            yield cluster.sim.timeout(100_000.0)
            # Kill a data host, then the leader before the regeneration
            # completes: the successor must pick the repair back up.
            victim = rm.space.get(0).handle(2).machine_id
            cluster.machine(victim).fail()
            yield cluster.sim.timeout(200.0)
            cluster.machine(0).fail()
            yield cluster.sim.timeout(LEASE_US + 3_000_000.0)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert len(control.failovers) == 1
        entry = control.failovers[0]
        assert entry["regens_restarted"] >= 1
        successor = deployment.manager(entry["successor"])

        def readback():
            got = {}
            for pid in pages:
                got[pid] = yield successor.read(pid)
            return got

        assert drive(cluster.sim, readback()) == pages

    def test_takeover_after_the_lowest_peer_was_rebooted(self):
        """The lowest-id peer crashes and reboots before the leader's next
        heartbeat: its replica is empty and its own store fenced. The next
        peer must take over when the leader then dies."""
        cluster, deployment = deploy(machines=10)
        sim = cluster.sim
        rm = deployment.manager(0)
        control = deployment.control_plane
        lowest, other = control.peers_of_domain[0]
        pages = {pid: make_page(pid) for pid in range(8)}

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            yield sim.timeout(100_000.0)
            cluster.machine(lowest).fail()
            cluster.machine(lowest).recover()
            cluster.machine(0).fail()
            yield sim.timeout(LEASE_US + 2_000_000.0)
            return "ok"

        assert drive(sim, proc()) == "ok"
        assert control.stores[lowest].fenced
        assert [entry["successor"] for entry in control.failovers] == [other]
        assert control.failovers[0]["pages"] == len(pages)
        assert control.failovers[0]["lost"] == 0
        successor = deployment.manager(other)

        def readback():
            got = {}
            for pid in pages:
                got[pid] = yield successor.read(pid)
            return got

        assert drive(sim, readback()) == pages

    def test_failover_forgets_a_reclaimed_range(self):
        """A reclaimed range's pages are gone on the leader; the successor
        restored from its log must not resurrect them."""
        cluster, deployment = deploy(machines=10)
        sim = cluster.sim
        rm = deployment.manager(0)
        control = deployment.control_plane
        second = rm.config.pages_per_range  # the first page of range 1
        pages = {pid: make_page(pid) for pid in [0, 1, 2, 3]}
        reclaimed = {pid: make_page(pid) for pid in range(second, second + 4)}

        def proc():
            for pid, data in {**pages, **reclaimed}.items():
                yield rm.write(pid, data)
            assert (yield rm.reclaim_range(1)) == reclaimed
            yield sim.timeout(100_000.0)
            assert (yield rm.read(second)) is None
            cluster.machine(0).fail()
            yield sim.timeout(LEASE_US + 1_000_000.0)
            return "ok"

        assert drive(sim, proc()) == "ok"
        (entry,) = control.failovers
        assert (entry["ranges"], entry["pages"], entry["interrupted"]) == (1, 4, 0)
        successor = deployment.manager(entry["successor"])

        def readback():
            got = {}
            for pid in [*pages, *reclaimed]:
                got[pid] = yield successor.read(pid)
            return got

        assert drive(sim, readback()) == {**pages, **dict.fromkeys(reclaimed)}

    def test_a_peer_with_pages_of_its_own_does_not_take_over(self):
        """The lowest peer is itself a client, and its page ids overlap the
        leader's: taking over would merge two address spaces into one map.
        The next peer, which holds nothing, takes over instead."""
        cluster, deployment = deploy(machines=10)
        sim = cluster.sim
        control = deployment.control_plane
        lowest, other = control.peers_of_domain[0]
        rm, client = deployment.manager(0), deployment.manager(lowest)
        pages = {pid: make_page(pid) for pid in range(4)}
        own = {pid: make_page(pid + 100) for pid in range(2, 6)}

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            for pid, data in own.items():
                yield client.write(pid, data)
            yield sim.timeout(100_000.0)
            cluster.machine(0).fail()
            yield sim.timeout(LEASE_US + 2_000_000.0)
            return "ok"

        assert drive(sim, proc()) == "ok"
        assert [entry["successor"] for entry in control.failovers] == [other]
        with pytest.raises(HydraError):
            client.restore([])
        successor = deployment.manager(other)

        def readback(manager, pids):
            got = {}
            for pid in pids:
                got[pid] = yield manager.read(pid)
            return got

        assert drive(sim, readback(successor, pages)) == pages
        assert drive(sim, readback(client, own)) == own

    def test_deposed_leader_cannot_commit_after_failover(self):
        cluster, deployment = deploy(machines=10)
        rm = deployment.manager(0)
        control = deployment.control_plane

        def proc():
            for pid in range(6):
                yield rm.write(pid, make_page(pid))
            yield cluster.sim.timeout(100_000.0)
            cluster.machine(0).fail()
            yield cluster.sim.timeout(LEASE_US + 1_000_000.0)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert control.failovers
        old_store = control.stores[0]
        assert old_store.fenced
        # Even if the old leader's host resurrected its store, the bumped
        # term words on the replicas refuse its appends.
        successor = control.failovers[0]["successor"]
        replica = control.replica_hosts[successor][0]
        with pytest.raises(StaleTermError):
            replica.apply_append(old_store.term, 0, [], 0)


class _NoEndpoint:
    def register(self, *_args) -> None:
        pass


def restored_rm(cluster, config, machine_id, records):
    """A fresh RM on ``machine_id``, restored from ``records`` and then
    fenced: it holds the state, talks to nothing and repairs nothing."""
    rm = ResilienceManager(
        cluster.sim, cluster.fabric, machine_id, config, _NoEndpoint(), None,
        RandomSource(0), Tracer(cluster.sim, sample_every=0), MetricsRegistry(),
    )
    rm.restore(ReplicatedMetadataStore.decode(records))
    rm.fence("restore check")
    return rm


def projection(rm, viewer):
    """Per range ``(machine, slab, available)`` of each position ``viewer``
    can reach on another machine (None for the rest), the page version
    table and the error scores."""
    def slot(handle):
        machine = handle.machine_id
        if machine == viewer or not rm.fabric.reachable(viewer, machine):
            return None
        return (machine, handle.slab_id, handle.available)

    ranges = {rid: [slot(h) for h in rng.slots] for rid, rng in rm.space.ranges.items()}
    return ranges, dict(rm._versions), dict(rm.error_scores)


class TestRestoreEquivalence:
    def test_restore_of_the_committed_log_matches_the_leader(self):
        """State-machine replication: at every quiescent point of a
        replicated run, ``restore`` of the leader's committed log yields the
        leader's slab map, version table and error scores — through writes,
        an overwrite, corruption heals, an error-limit regeneration, a
        crashed host's regeneration and a reclaimed range."""
        cluster, deployment = deploy(machines=10)
        sim = cluster.sim
        rm = deployment.manager(0)
        control = deployment.control_plane
        store = control.stores[0]
        spare = 9  # the restorer: no client, and it hosts some of rm 0's slabs
        second = rm.config.pages_per_range  # the first page of range 1
        pages = {pid: make_page(pid) for pid in range(12)}
        pages.update({pid: make_page(pid) for pid in range(second, second + 4)})
        checked = []

        def check(step):
            assert store.committed_lsn == len(store.log), f"{step}: not quiescent"
            restored = restored_rm(cluster, rm.config, spare, store.log)
            assert projection(restored, spare) == projection(rm, spare), step
            checked.append(step)

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            yield sim.timeout(100_000.0)
            check("writes")
            for pid in (0, 1):
                pages[pid] = make_page(pid + 100)
                yield rm.write(pid, pages[pid])
            yield sim.timeout(100_000.0)
            check("overwrite")
            # A corrupted data host behind a congested NIC: its split is the
            # late extra of each read, so every read detects and heals it.
            victim = cluster.machine(rm.space.get(0).handle(1).machine_id)
            CorruptionInjector(sim, RandomSource(9)).corrupt_machine(victim)
            victim.nic.background_flows = 40
            for pid in range(3):
                assert (yield rm.read(pid)) == pages[pid]
            yield sim.timeout(100_000.0)
            assert rm.events["healed_splits"] and rm.error_scores
            check("corruption heal")
            for pid in range(3, 12):
                assert (yield rm.read(pid)) == pages[pid]
            yield sim.timeout(2_000_000.0)
            victim.nic.background_flows = 0
            assert rm.events["regen_for_errors"] == 1
            check("error-limit regeneration")
            crashed = next(
                handle.machine_id
                for handle in rm.space.get(0).slots
                if handle.machine_id not in control.peers_of_domain[0] + [spare]
            )
            cluster.machine(crashed).fail()
            yield sim.timeout(2_000_000.0)
            assert rm.events["regenerations"] >= 2
            check("crashed host regeneration")
            yield rm.reclaim_range(1)
            yield sim.timeout(100_000.0)
            check("reclaim")
            return "ok"

        assert drive(sim, proc()) == "ok"
        assert len(checked) == 6


class TestWritePathCrashMatrix:
    """Satellite: crash the RM at every ``_write_process`` phase boundary
    and assert zero durability violations after failover.

    The boundaries, in log order: the write-intent append (pre commit),
    the client-visible ack (post majority ack of ``write_acked``), and
    the window after the client ack while parity is still in flight
    (post client ack, pre durable); and, under the default network, every
    gap between two landings of the overwrite's data splits (mid data
    fan-out). Timing is probed on an identical crash-free run — the
    deterministic engine reproduces it exactly.
    """

    PAGE = 0

    def _run(self, crash_at=None, network=None, seed=3):
        cluster, deployment = deploy(machines=10, network=network, cluster_seed=seed)
        sim = cluster.sim
        rm = deployment.manager(0)
        control = deployment.control_plane
        store = control.stores[0]
        old, new = make_page(100), make_page(200)

        times = {"data_landings": []}
        orig_append = store.append

        def spy_append(kind, **fields):
            if fields.get("page_id") == self.PAGE and fields.get("version") == 2:
                times.setdefault(kind, sim.now)
            orig_append(kind, **fields)

        store.append = spy_append

        outcome = {"acked": None}

        def setup():
            yield rm.write(self.PAGE, old)
            for pid in range(1, 6):
                yield rm.write(pid, make_page(pid))
            yield sim.timeout(50_000.0)

        def overwrite():
            try:
                yield rm.write(self.PAGE, new)
                outcome["acked"] = True
                times.setdefault("client_ack", sim.now)
            except Exception:
                outcome["acked"] = False

        drive(sim, setup())
        _range_id, offset = rm.space.locate(self.PAGE)
        for handle in rm.space.get(_range_id).slots[: rm.config.k]:
            machine = cluster.machine(handle.machine_id)

            def spy_write(slab_id, page, payload, _write=machine.write_split, _slab=handle.slab_id):
                if (slab_id, page) == (_slab, offset):
                    times["data_landings"].append(sim.now)
                return _write(slab_id, page, payload)

            machine.write_split = spy_write
        if crash_at is not None:
            sim.call_later(max(0.0, crash_at - sim.now), cluster.machine(0).fail)
        sim.process(overwrite(), name="overwrite")
        sim.run(until=sim.now + LEASE_US + 3_000_000.0)
        return cluster, deployment, control, times, outcome, old, new

    def _boundaries(self):
        _c, _d, _control, times, outcome, _old, _new = self._run(crash_at=None)
        assert outcome["acked"] is True
        assert "write_intent" in times and "client_ack" in times
        durable = times.get("write_durable", times["client_ack"] + 20.0)
        return {
            "pre_intent_commit": times["write_intent"] + 0.3,
            "post_majority_ack": times["client_ack"] + 0.2,
            "post_client_ack": (times["client_ack"] + durable) / 2.0,
        }

    def test_crash_at_every_phase_boundary_preserves_durability(self):
        for name, crash_at in sorted(self._boundaries().items()):
            cluster, deployment, control, times, outcome, old, new = self._run(
                crash_at=crash_at
            )
            assert len(control.failovers) == 1, f"{name}: no failover"
            entry = control.failovers[0]
            assert entry["lost"] == 0, f"{name}: page lost in failover"
            successor = deployment.manager(entry["successor"])

            def readback():
                return (yield successor.read(self.PAGE))

            got = drive(cluster.sim, readback())
            # Never garbage, never a mix: one of the two committed states.
            assert got in (old, new), f"{name}: inconsistent page content"
            if outcome["acked"]:
                # The client saw the ack: the overwrite is a promise.
                assert got == new, f"{name}: acked write rolled back"
            # All the setup pages carried through untouched.
            for pid in range(1, 6):
                def read_pid(pid=pid):
                    return (yield successor.read(pid))

                assert drive(cluster.sim, read_pid()) == make_page(pid), (
                    f"{name}: settled page {pid} damaged"
                )

    def test_crash_mid_data_fan_out_reseals_old_new_or_loses_the_page(self):
        """The overwrite's data splits land at spread-out instants; a crash
        between two landings leaves a torn page whose splits mix both
        versions, and any k of them decode to *something*. The successor
        reseals only a codeword at least k + 1 splits agree on, so the page
        reads back as the old or the new bytes, or is reported lost (the
        torn-page trade-off) — never as a mix."""
        lost = []
        for seed in (1, 2, 3, 4):
            times = self._run(network=NetworkConfig(), seed=seed)[3]
            landings = sorted(set(times["data_landings"]))
            for first, second in zip(landings, landings[1:]):
                cluster, deployment, control, _t, outcome, old, new = self._run(
                    crash_at=(first + second) / 2, network=NetworkConfig(), seed=seed
                )
                assert outcome["acked"] is False
                (entry,) = control.failovers
                successor = deployment.manager(entry["successor"])

                def readback():
                    return (yield successor.read(self.PAGE))

                got = drive(cluster.sim, readback())
                where = f"seed {seed}, crash at {(first + second) / 2:.3f}"
                if entry["lost"]:
                    assert got is None, f"{where}: a lost page still reads back"
                else:
                    assert got in (old, new), f"{where}: resealed a mix of versions"
                lost.append(entry["lost"])
        assert sorted(set(lost)) == [0, 1]  # both outcomes exercised


class TestOneVerbPath:
    def test_core_posts_no_event_verb(self, monkeypatch):
        """Everything ``repro.core`` posts goes through ``QueuePair._post``
        and a sink: with the ``Event``-returning verbs refusing to run, the
        data path, a crash with regeneration and catch-up, an eviction
        RPC, metadata commits and a leader failover all still work."""
        from repro.chaos import ChaosConfig, run_chaos
        from repro.net import QueuePair

        def refuse(self, *args, **kwargs):
            raise AssertionError("repro.core posted an Event-returning verb")

        for verb in ("post_read", "post_write", "post_send"):
            monkeypatch.setattr(QueuePair, verb, refuse)

        cluster, deployment = deploy(machines=10)
        rm = deployment.manager(0)
        sim = cluster.sim
        pages = {pid: make_page(pid) for pid in range(8)}

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            for pid, data in pages.items():
                assert (yield rm.read(pid)) == data
            victim = rm.space.get(0).handle(2).machine_id
            cluster.machine(victim).fail()
            while not rm.open_regen_count:
                yield sim.timeout(50.0)
            for pid in range(4):  # race the regeneration: catch-up writes
                pages[pid] = make_page(pid + 100)
                yield rm.write(pid, pages[pid])
            yield sim.timeout(1_000_000.0)
            host = cluster.machine(rm.space.get(0).handle(0).machine_id)
            host.set_local_app_bytes(int(host.total_memory_bytes * 0.99))
            yield sim.timeout(1_000_000.0)
            for pid, data in pages.items():
                assert (yield rm.read(pid)) == data
            return "ok"

        assert drive(sim, proc()) == "ok"
        assert rm.events["catchup_writes"] >= 1
        assert rm.events["evictions"] == 1
        assert rm.events["regenerations"] == 2  # the crash, then the eviction
        assert deployment.control_plane.stores[0].commits > 0

        result = run_chaos(
            3,
            config=ChaosConfig(
                machines=10, pages=16, events=0, horizon_us=2_000_000.0,
                settle_us=4_000_000.0, op_gap_us=10_000.0, burst_ops=20,
                scenario="rm_failover",
            ),
        )
        assert result.ok, "\n".join(v.detail for v in result.violations)
        assert len(result.report["control_plane"]["failovers"]) == 1
