"""Baseline backends: replication, SSD backup, compression, direct."""

import pytest

from repro.baselines import (
    BackendError,
    BaselineConfig,
    CompressedReplicationBackend,
    DirectRemoteMemory,
    ReplicationBackend,
    SSDBackupBackend,
)
from repro.cluster import Cluster
from repro.net import NetworkConfig

from .conftest import drive, make_page


def build(kind, machines=8, with_ssd=False, seed=4, **kwargs):
    cluster = Cluster(
        machines=machines,
        memory_per_machine=1 << 26,
        network=NetworkConfig(jitter_sigma=0.0, straggler_prob=0.0),
        with_ssd=with_ssd,
        seed=seed,
    )
    config = BaselineConfig(slab_size_bytes=1 << 20)
    backend = kind(cluster, 0, config, **kwargs)
    return cluster, backend


class TestReplication:
    def test_roundtrip(self):
        cluster, backend = build(ReplicationBackend)

        def proc():
            for pid in range(8):
                yield backend.write(pid, make_page(pid))
            for pid in range(8):
                assert (yield backend.read(pid)) == make_page(pid)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"

    def test_memory_overhead_is_copies(self):
        _, two = build(ReplicationBackend)
        assert two.memory_overhead == 2.0
        _, three = build(ReplicationBackend, copies=3)
        assert three.memory_overhead == 3.0

    def test_replicas_on_distinct_machines(self):
        cluster, backend = build(ReplicationBackend)

        def proc():
            yield backend.write(0, make_page(0))

        drive(cluster.sim, proc())
        machines = [h.machine_id for h in backend.groups[0]]
        assert len(set(machines)) == 2 and 0 not in machines

    def test_read_fails_over_on_machine_death(self):
        cluster, backend = build(ReplicationBackend)

        def proc():
            yield backend.write(0, make_page(0))
            cluster.machine(backend.groups[0][0].machine_id).fail()
            yield cluster.sim.timeout(200)
            return (yield backend.read(0))

        assert drive(cluster.sim, proc()) == make_page(0)

    def test_rereplication_restores_redundancy(self):
        cluster, backend = build(ReplicationBackend)

        def proc():
            for pid in range(6):
                yield backend.write(pid, make_page(pid))
            dead = backend.groups[0][0].machine_id
            cluster.machine(dead).fail()
            yield cluster.sim.timeout(5_000_000)
            handles = backend.groups[0]
            assert all(h.available for h in handles)
            assert dead not in [h.machine_id for h in handles]
            # Kill the *other* original replica: data must survive via the
            # freshly copied one.
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert backend.events["rereplications"] >= 1

    def test_corrupt_replica_detected_by_checksum(self):
        import numpy as np

        cluster, backend = build(ReplicationBackend)

        def proc():
            yield backend.write(0, make_page(0))
            handle = backend.groups[0][0]
            slab = cluster.machine(handle.machine_id).hosted_slabs[handle.slab_id]
            stored = slab.pages[0]
            stored[0] ^= 0xFF  # silent remote corruption
            got = yield backend.read(0)
            return got

        assert drive(cluster.sim, proc()) == make_page(0)
        assert backend.events["corrupt_replica_reads"] >= 1

    def test_hedged_reads(self):
        cluster, backend = build(ReplicationBackend, hedged_reads=True)

        def proc():
            yield backend.write(0, make_page(0))
            return (yield backend.read(0))

        assert drive(cluster.sim, proc()) == make_page(0)
        assert backend.events["hedged_reads"] == 1

    def test_total_loss_raises(self):
        cluster, backend = build(ReplicationBackend, machines=3)

        def proc():
            yield backend.write(0, make_page(0))
            for handle in backend.groups[0]:
                cluster.machine(handle.machine_id).fail()
            yield cluster.sim.timeout(200)
            with pytest.raises(BackendError):
                yield backend.read(0)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build(ReplicationBackend, copies=0)
        with pytest.raises(ValueError):
            build(ReplicationBackend, write_acks=5)


class TestSSDBackup:
    def test_roundtrip_and_disk_copy(self):
        cluster, backend = build(SSDBackupBackend, with_ssd=True)

        def proc():
            for pid in range(8):
                yield backend.write(pid, make_page(pid))
            yield cluster.sim.timeout(10_000)  # staging drain
            for pid in range(8):
                assert (yield backend.read(pid)) == make_page(pid)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert backend.events["disk_backups"] == 8
        assert backend.memory_overhead == 1.0

    def test_requires_ssd(self):
        with pytest.raises(BackendError):
            build(SSDBackupBackend, with_ssd=False)

    def test_failure_falls_back_to_disk(self):
        cluster, backend = build(SSDBackupBackend, with_ssd=True)
        sim = cluster.sim

        def proc():
            yield backend.write(0, make_page(0))
            yield sim.timeout(10_000)
            fast_start = sim.now
            yield backend.read(0)
            fast = sim.now - fast_start
            cluster.machine(backend.groups[0][0].machine_id).fail()
            yield sim.timeout(200)
            slow_start = sim.now
            got = yield backend.read(0)
            slow = sim.now - slow_start
            return got, fast, slow

        got, fast, slow = drive(sim, proc())
        assert got == make_page(0)
        assert slow > 10 * fast  # disk-bound under failure
        assert backend.events["disk_reads"] >= 1

    def test_corruption_falls_back_to_disk(self):
        cluster, backend = build(SSDBackupBackend, with_ssd=True)

        def proc():
            yield backend.write(0, make_page(0))
            yield cluster.sim.timeout(10_000)
            handle = backend.groups[0][0]
            slab = cluster.machine(handle.machine_id).hosted_slabs[handle.slab_id]
            slab.pages[0][5] ^= 0x10
            return (yield backend.read(0))

        assert drive(cluster.sim, proc()) == make_page(0)
        assert backend.events["corrupt_remote_reads"] == 1

    def test_burst_blocks_on_staging_buffer(self):
        """Fig 2d: when the staging buffer fills, writes slow to disk
        speed."""
        from repro.cluster import SSDConfig

        cluster = Cluster(
            machines=4,
            memory_per_machine=1 << 26,
            network=NetworkConfig(jitter_sigma=0.0, straggler_prob=0.0),
            with_ssd=True,
            ssd_config=SSDConfig(write_latency_us=200.0, queue_depth=1),
            seed=4,
        )
        backend = SSDBackupBackend(
            cluster, 0, BaselineConfig(slab_size_bytes=1 << 20), staging_pages=4
        )
        sim = cluster.sim

        def proc():
            start = sim.now
            for pid in range(4):
                yield backend.write(pid, make_page(pid))
            unblocked = sim.now - start
            start = sim.now
            for pid in range(4, 24):
                yield backend.write(pid, make_page(pid))
            blocked = sim.now - start
            return unblocked / 4, blocked / 20

        fast_per_op, slow_per_op = drive(sim, proc())
        assert slow_per_op > 5 * fast_per_op

    def test_read_from_staging_buffer_before_drain(self):
        cluster, backend = build(SSDBackupBackend, with_ssd=True)

        def proc():
            yield backend.write(0, make_page(0))
            # Immediately kill the remote before the SSD drain finished.
            cluster.machine(backend.groups[0][0].machine_id).fail()
            yield cluster.sim.timeout(200)
            return (yield backend.read(0))

        assert drive(cluster.sim, proc()) == make_page(0)


class TestCompressed:
    def test_roundtrip(self):
        cluster, backend = build(CompressedReplicationBackend)

        def proc():
            yield backend.write(0, make_page(0))
            return (yield backend.read(0))

        assert drive(cluster.sim, proc()) == make_page(0)

    def test_overhead_below_replication(self):
        _, backend = build(CompressedReplicationBackend)
        assert backend.memory_overhead < 2.0

    def test_latency_above_replication(self):
        _, compressed = build(CompressedReplicationBackend)
        cluster_r, replication = build(ReplicationBackend, seed=5)

        def bench(cluster, backend):
            def proc():
                for pid in range(16):
                    yield backend.write(pid, make_page(pid))
                for pid in range(16):
                    yield backend.read(pid)

            drive(cluster.sim, proc())
            return backend.read_latency.p50

        cluster_c, compressed = build(CompressedReplicationBackend, seed=5)
        assert bench(cluster_c, compressed) > bench(cluster_r, replication)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            build(CompressedReplicationBackend, compression_ratio=0.0)

    @staticmethod
    def _recorders_after(ops):
        from repro.harness.microbench import page_generator, run_process
        from repro.harness.scenarios import build_pool

        cluster, pool = build_pool("compressed", 12, 1, payload_mode="real")
        make = page_generator()

        def proc():
            for op in range(ops):
                yield pool.write(op % 64, make(op % 64))
            for op in range(ops):
                yield pool.read(op % 64)

        drive(cluster.sim, proc())
        return pool, {
            "write": (pool.write_latency, pool.compress_latency_us),
            "read": (pool.read_latency, pool.decompress_latency_us),
        }

    def test_every_op_records_its_stage_past_the_reservoir(self):
        # Each op waits the software overhead and then its (de)compression
        # stage, so no recorded latency can be below their sum — also
        # past the recorder's 4,096-sample reservoir, where only the
        # histogram sees a sample.
        pool, recorders = self._recorders_after(4_200)
        for recorder, stage in recorders.values():
            assert recorder.count == 4_200
            assert recorder.p50 >= stage
            assert recorder.hist.min >= stage + pool.config.software_overhead_us

    def test_histogram_agrees_with_the_samples(self):
        _, recorders = self._recorders_after(200)
        for recorder, _stage in recorders.values():
            hist = recorder.hist
            exact = hist._index(recorder.p50)
            assert abs(hist._index(hist.percentile(50)) - exact) <= 1


class TestDirect:
    def test_roundtrip(self):
        cluster, backend = build(DirectRemoteMemory)

        def proc():
            yield backend.write(0, make_page(0))
            return (yield backend.read(0))

        assert drive(cluster.sim, proc()) == make_page(0)
        assert backend.memory_overhead == 1.0

    def test_no_resilience(self):
        cluster, backend = build(DirectRemoteMemory)

        def proc():
            yield backend.write(0, make_page(0))
            cluster.machine(backend.groups[0][0].machine_id).fail()
            yield cluster.sim.timeout(200)
            with pytest.raises(BackendError):
                yield backend.read(0)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"

    def test_unwritten_read_returns_none(self):
        cluster, backend = build(DirectRemoteMemory)

        def proc():
            return (yield backend.read(7))

        assert drive(cluster.sim, proc()) is None


class TestSwarm:
    def test_roundtrip(self):
        from repro.baselines import SwarmReplicationBackend

        cluster, backend = build(SwarmReplicationBackend)

        def proc():
            for pid in range(8):
                yield backend.write(pid, make_page(pid))
            yield cluster.sim.timeout(1000.0)  # let background acks drain
            for pid in range(8):
                assert (yield backend.read(pid)) == make_page(pid)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert backend.events["sub_rtt_completions"] == 8

    def test_sub_rtt_writes_beat_waiting_for_acks(self):
        from repro.baselines import SwarmReplicationBackend

        def write_p50(kind):
            cluster, backend = build(kind)

            def proc():
                for i in range(40):
                    yield backend.write(i % 10, make_page(i % 10))

            drive(cluster.sim, proc())
            cluster.sim.run(until=cluster.sim.now + 10_000.0)
            return backend.write_latency.percentile(50)

        assert write_p50(SwarmReplicationBackend) < write_p50(ReplicationBackend)

    def test_post_completion_failure_window_is_counted(self):
        from repro.baselines import SwarmReplicationBackend

        cluster, backend = build(SwarmReplicationBackend)

        def proc():
            yield backend.write(0, make_page(0))
            yield cluster.sim.timeout(100.0)
            # Kill a replica, then write: the client completes sub-RTT
            # while the ack from the dead half fails behind its back.
            victims = [h.machine_id for h in backend.groups[0]]
            cluster.machine(victims[0]).fail()
            yield backend.write(0, make_page(1))
            yield cluster.sim.timeout(5_000.0)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert backend.events["sub_rtt_completions"] == 2
        assert backend.events["post_completion_failures"] >= 1
