"""Resource Monitor: headroom defense, batch eviction, proactive
allocation, slab map/unmap service, regeneration hand-off."""

import pytest

from repro.cluster import Cluster, SlabState
from repro.core import HydraConfig, HydraDeployment
from repro.net import NetworkConfig
from repro.sim import RandomSource

from .conftest import drive, make_page


def deploy(machines=8, memory=1 << 24, headroom=0.25, **kwargs):
    cluster = Cluster(
        machines=machines,
        memory_per_machine=memory,
        network=NetworkConfig(jitter_sigma=0.0, straggler_prob=0.0),
        seed=3,
    )
    config = HydraConfig(
        k=2,
        r=1,
        delta=1,
        slab_size_bytes=1 << 20,
        payload_mode="phantom",
        control_period_us=10_000,
        headroom_fraction=headroom,
        **kwargs,
    )
    deployment = HydraDeployment(cluster, config, seed=7)
    return cluster, deployment


class TestProactiveAllocation:
    def test_free_slabs_appear_when_memory_plentiful(self):
        cluster, deployment = deploy(free_slab_target=2)
        cluster.sim.run(until=100_000)
        for machine in cluster.machines:
            assert len(machine.free_slabs()) == 2

    def test_no_allocation_when_it_would_break_headroom(self):
        cluster, deployment = deploy(memory=1 << 21, headroom=0.5)
        # 2 MiB machines, 50% headroom: a 1 MiB slab would leave exactly
        # the headroom, so one allocation at most.
        cluster.sim.run(until=100_000)
        for machine in cluster.machines:
            assert machine.free_bytes / machine.total_memory_bytes >= 0.5


class TestHeadroomDefense:
    def test_free_slabs_dropped_under_pressure(self):
        cluster, deployment = deploy(free_slab_target=2)
        sim = cluster.sim
        sim.run(until=100_000)
        machine = cluster.machine(1)
        assert machine.free_slabs()
        # Local apps suddenly take most of the memory.
        machine.set_local_app_bytes(int(machine.total_memory_bytes * 0.85))
        sim.run(until=200_000)
        assert not machine.free_slabs()

    def test_mapped_slab_evicted_with_owner_notice(self):
        cluster, deployment = deploy(free_slab_target=0)
        sim = cluster.sim
        rm = deployment.manager(0)

        def proc():
            for pid in range(4):
                yield rm.write(pid)

        drive(sim, proc())
        # Find a machine hosting one of RM-0's slabs; apply pressure.
        host_id = rm.space.get(0).handle(0).machine_id
        host = cluster.machine(host_id)
        host.set_local_app_bytes(int(host.total_memory_bytes * 0.9))
        sim.run(until=400_000)
        monitor = deployment.monitor(host_id)
        assert monitor.events["slabs_evicted"] >= 1
        assert rm.events["evictions"] >= 1
        # The RM replaced the evicted slab via regeneration.
        assert rm.space.get(0).handle(0).available

    def test_batch_eviction_prefers_cold_slabs(self):
        cluster, deployment = deploy(
            machines=4, eviction_batch=1, eviction_extra=2, free_slab_target=0
        )
        machine = cluster.machine(1)
        hot = machine.allocate_slab(1 << 20)
        hot.map_to(0, 0, 0)
        hot.access_count = 1000
        cold = machine.allocate_slab(1 << 20)
        cold.map_to(0, 1, 0)
        cold.access_count = 1
        monitor = deployment.monitor(1)

        def proc():
            yield from monitor._batch_evict()

        drive(cluster.sim, proc())
        assert cold.slab_id not in machine.hosted_slabs
        assert hot.slab_id in machine.hosted_slabs


class TestControlPlane:
    def test_map_slab_reuses_free_slab(self):
        cluster, deployment = deploy(free_slab_target=1)
        sim = cluster.sim
        sim.run(until=50_000)
        machine = cluster.machine(2)
        free_before = len(machine.free_slabs())
        monitor = deployment.monitor(2)
        reply = monitor._on_map_slab(0, {"range_id": 5, "position": 1})
        assert "slab_id" in reply
        assert len(machine.free_slabs()) == free_before - 1
        slab = machine.hosted_slabs[reply["slab_id"]]
        assert slab.state == SlabState.MAPPED
        assert slab.owner_id == 0

    def test_map_slab_refuses_when_headroom_would_break(self):
        cluster, deployment = deploy(memory=1 << 21, headroom=0.9)
        monitor = deployment.monitor(1)
        with pytest.raises(MemoryError):
            monitor._on_map_slab(0, {"range_id": 0, "position": 0})

    def test_unmap_slab_requires_owner(self):
        cluster, deployment = deploy()
        monitor = deployment.monitor(1)
        reply = monitor._on_map_slab(0, {"range_id": 0, "position": 0})
        # Wrong owner: refused.
        assert monitor._on_unmap_slab(3, {"slab_id": reply["slab_id"]}) == {
            "ok": False
        }
        assert monitor._on_unmap_slab(0, {"slab_id": reply["slab_id"]}) == {"ok": True}
        assert reply["slab_id"] not in cluster.machine(1).hosted_slabs

    def test_query_load_reports_utilization(self):
        cluster, deployment = deploy()
        machine = cluster.machine(1)
        machine.set_local_app_bytes(machine.total_memory_bytes // 2)
        body = deployment.monitor(1)._on_query_load(0, {})
        assert body["utilization"] == pytest.approx(0.5)
        assert body["rack"] == machine.rack


class TestRegenerationHandoff:
    def test_real_mode_rebuild_produces_correct_split(self):
        """End-to-end §4.4 regeneration with real bytes: the rebuilt slab
        must serve reads that decode to the original pages."""
        cluster = Cluster(
            machines=10,
            memory_per_machine=1 << 26,
            network=NetworkConfig(jitter_sigma=0.0, straggler_prob=0.0),
            seed=3,
        )
        config = HydraConfig(
            k=4, r=2, delta=1, slab_size_bytes=1 << 20,
            payload_mode="real", control_period_us=10_000,
        )
        deployment = HydraDeployment(cluster, config, seed=7)
        rm = deployment.manager(0)
        sim = cluster.sim
        pages = {pid: make_page(pid) for pid in range(10)}

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            old_handle = rm.space.get(0).handle(3)
            cluster.machine(old_handle.machine_id).fail()
            yield sim.timeout(5_000_000)
            new_handle = rm.space.get(0).handle(3)
            assert new_handle.machine_id != old_handle.machine_id
            # Kill every *other* data-carrying possibility for split 3 by
            # reading through it explicitly: force decode paths that use
            # the regenerated slab.
            host = cluster.machine(new_handle.machine_id)
            slab = host.hosted_slabs[new_handle.slab_id]
            assert slab.state == SlabState.MAPPED
            assert slab.touched_pages == len(pages)
            for pid, data in pages.items():
                got = yield rm.read(pid)
                assert got == data
            return "ok"

        assert drive(sim, proc()) == "ok"

    @pytest.mark.parametrize("vanishing, outcome", [(1, "rebuilt"), (2, "aborted")])
    def test_source_slab_vanishing_mid_read(self, vanishing, outcome):
        """Source slabs released while the bulk reads are in flight fail
        those reads only: with >= k snapshots left the position is rebuilt
        byte-exactly, below k the hand-off aborts and drops its slab."""
        cluster = Cluster(
            machines=10,
            memory_per_machine=1 << 26,
            network=NetworkConfig(jitter_sigma=0.0, straggler_prob=0.0),
            seed=3,
        )
        config = HydraConfig(
            k=4, r=2, delta=1, slab_size_bytes=1 << 20,
            payload_mode="real", control_period_us=10_000,
        )
        deployment = HydraDeployment(cluster, config, seed=7)
        rm = deployment.manager(0)
        sim = cluster.sim

        def proc():
            for pid in range(10):
                yield rm.write(pid, make_page(pid))
            yield sim.timeout(10_000)  # parity settles

        drive(sim, proc())
        address_range = rm.space.get(0)
        lost = 3
        sources = [p for p in range(config.n) if p != lost]  # k + 1 of them
        hosts = {address_range.handle(p).machine_id for p in range(config.n)}
        target = next(m.id for m in cluster.machines if m.id not in hosts | {0})
        monitor = deployment.monitor(target)
        original = cluster.machine(address_range.handle(lost).machine_id)
        expected = original.hosted_slabs[address_range.handle(lost).slab_id].pages
        reply = monitor._on_regenerate_slab(0, {
            "range_id": 0, "position": lost, "owner": 0, "k": config.k,
            "r": config.r, "page_size": config.page_size, "payload_mode": "real",
            "sources": [
                {
                    "machine_id": address_range.handle(p).machine_id,
                    "slab_id": address_range.handle(p).slab_id,
                    "position": p,
                }
                for p in sources
            ],
        })
        sim.run(until=sim.now + 1.0)  # reads posted, none complete yet
        for p in sources[:vanishing]:
            handle = address_range.handle(p)
            cluster.machine(handle.machine_id).release_slab(handle.slab_id)
        sim.run(until=sim.now + 1_000_000)
        rebuilt = cluster.machine(target).hosted_slabs.get(reply["slab_id"])
        if outcome == "rebuilt":
            assert monitor.events["slabs_regenerated"] == 1
            assert rebuilt.state == SlabState.MAPPED
            assert set(rebuilt.pages) == set(expected)
            for pid, split in expected.items():
                assert bytes(rebuilt.pages[pid]) == bytes(split)
        else:
            assert monitor.events["regen_aborted"] == 1
            assert monitor.events["slabs_regenerated"] == 0
            assert rebuilt is None or rebuilt.state == SlabState.FREE
