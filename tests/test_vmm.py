"""Pager semantics: hits, faults, LRU eviction, dirty write-back."""

import pytest

from repro.baselines import BaselineConfig, DirectRemoteMemory
from repro.cluster import Cluster
from repro.harness import build_pool
from repro.net import NetworkConfig
from repro.sim import RandomSource
from repro.vmm import PagedMemory
from repro.workloads import OpenLoopWorkload, make_arrivals

from .conftest import drive, make_page


def build_pager(resident_pages=4, verify=True, machines=4, payload_mode="real"):
    cluster = Cluster(
        machines=machines,
        memory_per_machine=1 << 26,
        network=NetworkConfig(jitter_sigma=0.0, straggler_prob=0.0),
        seed=2,
    )
    backend = DirectRemoteMemory(
        cluster, 0, BaselineConfig(slab_size_bytes=1 << 20),
        payload_mode=payload_mode,
    )
    return cluster, PagedMemory(
        backend, resident_pages=resident_pages, verify_contents=verify
    )


class TestHitsAndFaults:
    def test_resident_access_is_hit(self):
        cluster, pager = build_pager()

        def proc():
            yield pager.access(0, write=True, data=make_page(0))
            yield pager.access(0)
            yield pager.access(0)

        drive(cluster.sim, proc())
        assert pager.stats["hits"] == 2
        assert pager.stats["faults"] == 1

    def test_hit_is_fast_miss_is_slow(self):
        cluster, pager = build_pager(resident_pages=2)
        sim = cluster.sim

        def proc():
            yield pager.access(0, write=True, data=make_page(0))
            yield pager.access(1, write=True, data=make_page(1))
            yield pager.access(2, write=True, data=make_page(2))  # evicts 0
            start = sim.now
            yield pager.access(1)  # hit
            hit_time = sim.now - start
            start = sim.now
            yield pager.access(0)  # fault -> remote read
            miss_time = sim.now - start
            return hit_time, miss_time

        hit_time, miss_time = drive(cluster.sim, proc())
        assert miss_time > 10 * hit_time

    def test_hit_rate_property(self):
        cluster, pager = build_pager(resident_pages=8)

        def proc():
            for pid in range(8):
                yield pager.access(pid, write=True, data=make_page(pid))
            for _ in range(3):
                for pid in range(8):
                    yield pager.access(pid)

        drive(cluster.sim, proc())
        assert pager.hit_rate == pytest.approx(24 / 32)


class TestEviction:
    def test_lru_victim_selected(self):
        cluster, pager = build_pager(resident_pages=2)

        def proc():
            yield pager.access(0, write=True, data=make_page(0))
            yield pager.access(1, write=True, data=make_page(1))
            yield pager.access(0)  # refresh 0: LRU is now 1
            yield pager.access(2, write=True, data=make_page(2))
            return pager.resident_count

        drive(cluster.sim, proc())
        assert 0 in pager._resident and 2 in pager._resident
        assert 1 not in pager._resident

    def test_first_eviction_always_pages_out(self):
        """Anonymous pages have no backing store: even 'clean' pages must
        be written out the first time they are evicted."""
        cluster, pager = build_pager(resident_pages=1)

        def proc():
            yield pager.access(0, write=True, data=make_page(0))
            yield pager.access(1, write=True, data=make_page(1))
            got = yield pager.access(0)
            return got

        assert drive(cluster.sim, proc()) == make_page(0)
        assert pager.stats["page_outs"] >= 1

    def test_clean_page_with_remote_copy_dropped_without_write(self):
        cluster, pager = build_pager(resident_pages=2)

        def proc():
            yield pager.access(0, write=True, data=make_page(0))
            yield pager.access(1, write=True, data=make_page(1))
            yield pager.access(2, write=True, data=make_page(2))  # 0 paged out
            yield pager.access(0)  # page 0 back in (clean now)
            yield pager.access(3, write=True, data=make_page(3))  # evicts 2
            yield pager.access(4, write=True, data=make_page(4))  # evicts clean 0
            return None

        drive(cluster.sim, proc())
        assert pager.stats["clean_drops"] >= 1

    def test_contents_verified_across_remote_roundtrip(self):
        cluster, pager = build_pager(resident_pages=2)

        def proc():
            for pid in range(6):
                yield pager.access(pid, write=True, data=make_page(pid))
            for pid in range(6):
                got = yield pager.access(pid)
                assert got == make_page(pid)

        drive(cluster.sim, proc())
        assert pager.verification_failures == 0

    def test_dirty_flag_only_on_writes(self):
        cluster, pager = build_pager(resident_pages=4)

        def proc():
            yield pager.access(0, write=True, data=make_page(0))
            yield pager.access(0)  # read does not re-dirty

        drive(cluster.sim, proc())
        assert pager._resident[0] is True  # still dirty from the write


class TestApi:
    def test_a_failed_page_in_is_retried_only_when_transient(self):
        """A backend error that is not transient (a bug) surfaces on the
        first read; a transient one stalls the fault and retries."""
        from repro.baselines import BackendError

        for error, reads, stalls in ((ValueError, 1, 0), (BackendError, 2, 1)):
            cluster, pager = build_pager(resident_pages=1)
            sim = cluster.sim
            read, tries = pager.backend.read, []

            def flaky_read(page_id, parent=None):
                tries.append(page_id)
                if len(tries) == 1:
                    return sim.event().fail(error("page-in failed"))
                return read(page_id)

            def proc():
                yield pager.access(0, write=True, data=make_page(0))
                yield pager.access(1, write=True, data=make_page(1))  # evicts 0
                pager.backend.read = flaky_read
                try:
                    return (yield pager.access(0))
                except ValueError as exc:
                    return exc

            got = drive(cluster.sim, proc())
            assert len(tries) == reads and pager.stats["read_stalls"] == stalls
            assert isinstance(got, ValueError) if error is ValueError else got == make_page(0)

    def test_preload(self):
        cluster, pager = build_pager(resident_pages=16)
        drive(cluster.sim, _preload(pager))
        assert pager.resident_count == 8

    def test_invalid_resident_pages(self):
        cluster, _ = build_pager()
        with pytest.raises(ValueError):
            PagedMemory(object.__new__(DirectRemoteMemory), resident_pages=0)


def _preload(pager):
    proc = pager.preload(range(8), make_data=make_page)
    # Wrap as a generator so drive() can use it.
    def run():
        yield proc
    return run()


class TestOpenLoopRealMode:
    """An open-loop driver over a real-payload pager: writes arrive without
    bytes, many faults are in flight at once, and a page can be re-faulted
    while its own eviction is still writing back."""

    def test_terminates_and_every_page_reads_back(self):
        cluster, pool = build_pool("hydra", machines=12, seed=3, payload_mode="real")
        sim = cluster.sim
        n_pages = 64
        pager = PagedMemory(pool, resident_pages=16)
        # Half the pages get bytes; the other half are written without any
        # (what run_open_loop_point's preload does) and must read back as
        # zero pages, never wedge the evictor.
        written = {
            page: make_page(page) if page % 2 else bytes(4096)
            for page in range(n_pages)
        }

        def preload():
            for page in range(n_pages):
                data = written[page] if page % 2 else None
                yield pager.access(page, write=True, data=data)

        # One simulated second: the old retry-forever loop overran any
        # horizon; the real work needs a few milliseconds.
        drive(sim, preload(), until=1_000_000.0)
        rng = RandomSource(3, "openloop-real")
        work = OpenLoopWorkload(
            pager,
            rng.child("ops"),
            make_arrivals("poisson", rng.child("arrivals"), 70_000.0),
            n_pages,
            get_fraction=0.5,
            concurrency=4,
        )
        scheduled = sim._active
        process = work.run(4_000.0)
        sim.run_until_triggered(process, until=sim.now + 1_000_000.0)
        result = process.value
        assert result.completed == result.issued - result.dropped > 100
        assert sim._active - scheduled < 400 * result.issued  # no retry storm

        def read_back():
            pages = []
            for page in range(n_pages):
                pages.append((yield pager.access(page)))
            return pages

        assert drive(sim, read_back(), until=sim.now + 1_000_000.0) == [
            written[page] for page in range(n_pages)
        ]
        assert pager.stats["page_outs"] > n_pages
        assert pager.stats["write_stalls"] == 0

    def test_refault_during_write_back_keeps_the_bytes(self):
        cluster, pager = build_pager(resident_pages=1, verify=False)
        sim = cluster.sim

        def proc():
            yield pager.access(0, write=True, data=make_page(0))
            evictor = pager.access(1, write=True, data=make_page(1))  # evicts 0
            yield sim.timeout(0.5)
            # Page 0 comes back, dirtied without bytes, while its write-back
            # is still on the wire.
            assert pager.resident_count == 0
            refault = pager.access(0, write=True)
            yield sim.all_of([evictor, refault])
            yield pager.access(2, write=True, data=make_page(2))  # evicts 0 again
            yield pager.access(3, write=True, data=make_page(3))
            return (yield pager.access(0))

        assert drive(sim, proc(), until=1_000_000.0) == make_page(0)
