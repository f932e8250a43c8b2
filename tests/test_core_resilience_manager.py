"""Resilience Manager: the paper's §4 mechanisms, end to end.

These tests run small real clusters (4-10 machines, MiB-scale slabs) with
deterministic networks and push actual bytes through the codec.
"""

import sys

import numpy as np
import pytest

from repro.cluster import Cluster, CorruptionInjector, PhantomSplit
from repro.core import (
    DatapathConfig,
    HydraConfig,
    HydraDeployment,
    HydraError,
    RemoteMemoryUnavailable,
)
from repro.core.resilience_manager import _SplitGather
from repro.ec import DecodeError, ReedSolomonCode
from repro.net import NetworkConfig
from repro.sim import RandomSource, Simulator, engine

from .conftest import drive, make_page

# The background check lives in repro.ec; called unbound as (code, ...).
_consistent_with_decode = ReedSolomonCode.consistent_with_decode


def quiet_net():
    return NetworkConfig(jitter_sigma=0.0, straggler_prob=0.0)


def deploy(
    machines=8,
    k=4,
    r=2,
    delta=1,
    payload_mode="real",
    seed=5,
    network=None,
    datapath=None,
    **config_kwargs,
):
    cluster = Cluster(
        machines=machines,
        memory_per_machine=1 << 26,
        network=network or quiet_net(),
        seed=3,
    )
    config = HydraConfig(
        k=k,
        r=r,
        delta=delta,
        slab_size_bytes=1 << 20,
        payload_mode=payload_mode,
        control_period_us=50_000,
        datapath=datapath or DatapathConfig(),
        **config_kwargs,
    )
    deployment = HydraDeployment(cluster, config, seed=seed)
    return cluster, deployment.manager(0)


# Gather table. A post is (position, lands_at_us, outcome): outcome "ok" and
# "stale" succeed (only "ok" is valid), "fail" fails, and lands_at_us None is
# a delivery made before anybody waits. Each post reaches the gather the way
# QueuePair._post reports a verb: one sink call, _arrive(position, ok, value).
# The waiter wakes on wait_valid(need); each wake logs (now, valid positions
# so far); while short of `need` it posts the next batch of `more` from
# inside that synchronous delivery and waits again (the read escalation
# loop); wait_all follows.
GATHER_CASES = {
    "need met before all land": dict(
        posts=[(0, 3.0, "ok"), (1, 1.0, "ok"), (2, 9.0, "ok")], need=2,
        wakes=[(3.0, [1, 0])], all_at=9.0,
    ),
    "everything lands short of need": dict(
        posts=[(0, 2.0, "ok"), (1, 4.0, "stale")], need=2,
        wakes=[(4.0, [0])], all_at=4.0,
    ),
    "failed events finish but are never valid": dict(
        posts=[(0, 1.0, "fail"), (1, 2.0, "ok"), (2, 5.0, "fail")], need=2,
        wakes=[(5.0, [1])], all_at=5.0,
    ),
    "events already processed at post time": dict(
        posts=[(0, None, "ok"), (1, None, "ok"), (2, 6.0, "ok")], need=2,
        wakes=[(0.0, [0, 1])], all_at=6.0,
    ),
    "zero posts": dict(posts=[], need=1, wakes=[(0.0, [])], all_at=0.0),
    "waiter re-registered inside the delivery": dict(
        posts=[(0, 1.0, "ok"), (1, 2.0, "stale")], need=2,
        more=[[(2, 3.0, "fail")], [(3, 4.0, "ok"), (4, 8.0, "ok")]],
        wakes=[(2.0, [0]), (5.0, [0]), (9.0, [0, 3])], all_at=13.0,
    ),
    "first_valid keeps arrival order": dict(
        posts=[(0, 7.0, "ok"), (1, 5.0, "ok"), (2, 6.0, "stale"), (3, 2.0, "ok")],
        need=3, wakes=[(7.0, [3, 1, 0])], all_at=7.0, first_two={3: "ok", 1: "ok"},
    ),
    "k-th valid wakes the waiter once": dict(
        posts=[(0, 1.0, "ok"), (1, 2.0, "ok"), (2, 3.0, "ok"), (3, 4.0, "ok")],
        need=2, wakes=[(2.0, [0, 1])], all_at=4.0,
    ),
    "wait_all after the last arrival": dict(
        posts=[(0, 1.0, "ok"), (1, 2.0, "ok")], need=2,
        wakes=[(2.0, [0, 1])], all_at=2.0,
    ),
    "no predicate: every success is valid": dict(
        posts=[(0, 1.0, "stale"), (1, 2.0, "fail"), (2, 3.0, "ok")], need=2,
        predicate=None, wakes=[(3.0, [0, 2])], all_at=3.0,
    ),
}


@pytest.mark.parametrize("name", GATHER_CASES)
def test_split_gather(name):
    case = GATHER_CASES[name]
    sim = Simulator()
    gather = _SplitGather(sim, case.get("predicate", lambda value: value == "ok"))
    wakes, finished = [], []

    def post(batch):
        before = gather.outstanding
        gather.outstanding += len(batch)
        for position, lands_at, outcome in batch:
            ok = outcome != "fail"
            value = outcome if ok else RuntimeError("lost")
            if lands_at is None:
                gather._arrive(position, ok, value)
            else:
                sim.call_later(
                    lands_at, lambda p=position, o=ok, v=value: gather._arrive(p, o, v)
                )
        # Whatever its outcome will be, a verb is outstanding until it arrives.
        assert gather.outstanding == before + sum(
            1 for _p, lands_at, _o in batch if lands_at is not None
        )

    def waiter():
        post(case["posts"])
        escalations = iter(case.get("more", []))
        while True:
            yield gather.wait_valid(case["need"])
            wakes.append((sim.now, list(gather.valid)))
            batch = next(escalations, None)
            if len(gather.valid) >= case["need"] or batch is None:
                break
            post(batch)  # delays are relative to this wake
        yield gather.wait_all()
        finished.append(sim.now)

    sim.process(waiter(), name="waiter")
    sim.run()
    assert wakes == case["wakes"]
    assert finished == [case["all_at"]] and gather.outstanding == 0
    posted = [p for batch in [case["posts"], *case.get("more", [])] for p in batch]
    # A failed verb arrives as None and is never valid.
    assert gather.arrivals == {
        position: (None if outcome == "fail" else outcome)
        for position, _, outcome in posted
    }
    assert not {p for p, _, outcome in posted if outcome == "fail"} & set(gather.valid)
    if "first_two" in case:
        assert gather.first_valid(2) == case["first_two"]
        assert list(gather.first_valid(2)) == list(case["first_two"])


def test_check_against_decode_agrees_with_verify(ec_backend):
    """The background check compares the extras with the codeword the read
    already decoded; its verdict must be ``verify``'s on the same splits —
    for any code, arrival order, extras at data and parity positions, and
    corruption inside or outside the first k arrivals."""
    rng = np.random.default_rng(20220222)
    verdicts = {True: 0, False: 0}
    for case in range(400):
        k = int(rng.integers(2, 9))
        r = int(rng.integers(1, 5))
        delta = int(rng.integers(1, r + 1))
        code = ReedSolomonCode(k, r)
        assert type(code.kernel).__name__ == (
            "NumpyGF" if ec_backend == "numpy" else "NativeGF"
        )
        codeword = code.encode_page(rng.integers(0, 256, (k, 24), dtype=np.uint8))
        # Arrival order over the k + delta sampled positions.
        order = [int(p) for p in rng.permutation(k + r)[: k + delta]]
        arrivals = {p: codeword[p].copy() for p in order}
        for p in rng.choice(order, size=int(rng.integers(0, 3)), replace=False):
            arrivals[int(p)][int(rng.integers(0, 24))] ^= int(rng.integers(1, 256))
        if case % 7 == 0:
            arrivals[order[-1]] = None  # a failed verb among the extras
        first_k = {p: arrivals[p] for p in order[:k]}
        usable = {p: v for p, v in arrivals.items() if v is not None}
        verdict = _consistent_with_decode(code, arrivals, first_k, code.decode(first_k))
        assert verdict == code.verify(usable), (k, r, delta, order)
        verdicts[verdict] += 1
    assert min(verdicts.values()) > 50  # both outcomes well covered

    code = ReedSolomonCode(4, 2)
    codeword = code.encode_page(rng.integers(0, 256, (4, 16), dtype=np.uint8))
    first_k = {p: codeword[p] for p in range(4)}
    with pytest.raises(DecodeError, match="1-D"):  # extras stay validated
        _consistent_with_decode(
            code, {**first_k, 5: codeword[4:6]}, first_k, code.decode(first_k)
        )
    short = {**first_k, 4: codeword[4][:8].copy()}  # truncated, never "equal"
    assert not _consistent_with_decode(code, short, first_k, code.decode(first_k))


@pytest.mark.parametrize("position", [1, 5], ids=["data extra", "parity extra"])
def test_corrupted_extra_is_detected_corrected_and_healed(position, ec_backend):
    """A corrupted split that arrives after the k-th valid one (its NIC is
    congested, so it is always among the extras) never reaches the reader,
    and the background check still drives detection -> correction ->
    healing -> regeneration exactly as ``verify`` did: the event counts
    below were recorded on the commit before the check-against-decode."""
    cluster, rm = deploy(k=4, r=2, machines=10)
    pages = {pid: make_page(pid) for pid in range(12)}

    def proc():
        for pid, data in pages.items():
            yield rm.write(pid, data)
        yield cluster.sim.timeout(1000)
        victim = cluster.machine(rm.space.get(0).handle(position).machine_id)
        CorruptionInjector(cluster.sim, RandomSource(9)).corrupt_machine(victim)
        victim.nic.background_flows = 40
        got = []
        for pid in pages:
            got.append((yield rm.read(pid)))
        yield cluster.sim.timeout(10_000_000)
        return got

    assert drive(cluster.sim, proc()) == list(pages.values())
    detected, decoded, suspicious = {1: (4, 12, 4), 5: (5, 9, 3)}[position]
    assert dict(sorted(rm.events.counts.items())) == {
        "corrected_reads": 8,
        "corruption_detected": detected,
        "decoded_reads": decoded,
        "healed_splits": 8,
        "parity_writes": 24,
        "ranges_placed": 1,
        "reads": 12,
        "regen_for_errors": 1,
        "regenerations": 1,
        "suspicious_reads": suspicious,
        "writes": 12,
    }


class TestReadWrite:
    def test_roundtrip_real_bytes(self):
        cluster, rm = deploy()
        pages = {pid: make_page(pid) for pid in range(16)}

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            for pid, data in pages.items():
                got = yield rm.read(pid)
                assert got == data
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert rm.events["writes"] == 16
        assert rm.events["reads"] == 16

    @pytest.mark.parametrize("metadata_replicas", [0, 2])
    def test_rejected_write_leaves_no_trace(self, metadata_replicas):
        """A malformed page is refused before placement: no range, no slab
        mapped on any machine, no metadata record — and the page's next
        valid write is version 1."""
        cluster, rm = deploy(metadata_replicas=metadata_replicas)

        def mapped_slabs():
            return sum(
                1
                for machine in cluster.machines
                for slab in machine.hosted_slabs.values()
                if slab.owner_id is not None
            )

        def proc():
            for bad in (b"short", None, bytes(2 * rm.config.page_size)):
                with pytest.raises(HydraError, match="bytes of data"):
                    yield rm.write(0, bad)
            assert rm.events["ranges_placed"] == 0 and not rm.space.all_ranges()
            assert mapped_slabs() == 0
            if rm._meta is not None:
                assert rm._meta.log == []
            yield rm.write(0, make_page(0))
            assert rm._versions[0] == 1
            assert mapped_slabs() == rm.config.n
            return (yield rm.read(0))

        assert drive(cluster.sim, proc()) == make_page(0)

    def test_overwrite_returns_latest(self):
        cluster, rm = deploy()
        first, second = make_page(1), make_page(2)

        def proc():
            yield rm.write(0, first)
            yield rm.write(0, second)
            return (yield rm.read(0))

        assert drive(cluster.sim, proc()) == second

    def test_read_never_written_returns_none(self):
        cluster, rm = deploy()

        def proc():
            return (yield rm.read(123))

        assert drive(cluster.sim, proc()) is None

    def test_write_requires_full_page_in_real_mode(self):
        cluster, rm = deploy()

        def proc():
            with pytest.raises(Exception):
                yield rm.write(0, b"short")
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"

    def test_phantom_mode_roundtrip(self):
        cluster, rm = deploy(payload_mode="phantom")

        def proc():
            for pid in range(10):
                yield rm.write(pid)
            for pid in range(10):
                got = yield rm.read(pid)
                assert got is None  # phantom carries no bytes
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"

    def test_single_us_scale_latency(self):
        """The headline claim: remote page access in single-digit µs."""
        cluster, rm = deploy(k=8, r=2, machines=12)

        def proc():
            for pid in range(32):
                yield rm.write(pid, make_page(pid))
            for pid in range(32):
                yield rm.read(pid)

        drive(cluster.sim, proc())
        assert rm.read_latency.p50 < 10.0
        assert rm.write_latency.p50 < 10.0

    def test_slabs_placed_on_distinct_machines(self):
        cluster, rm = deploy()

        def proc():
            yield rm.write(0, make_page(0))

        drive(cluster.sim, proc())
        address_range = rm.space.get(0)
        machines = address_range.machine_ids()
        assert len(set(machines)) == rm.config.n
        assert 0 not in machines

    def test_pages_span_multiple_ranges(self):
        cluster, rm = deploy(machines=10)
        per_range = rm.config.pages_per_range

        def proc():
            yield rm.write(0, make_page(0))
            yield rm.write(per_range, make_page(1))
            a = yield rm.read(0)
            b = yield rm.read(per_range)
            return a, b

        a, b = drive(cluster.sim, proc())
        assert a == make_page(0) and b == make_page(1)
        assert len(rm.space.all_ranges()) == 2


class TestFailureHandling:
    def test_reads_survive_r_failures(self):
        cluster, rm = deploy(k=4, r=2, machines=10)
        pages = {pid: make_page(pid) for pid in range(12)}

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            address_range = rm.space.get(0)
            victims = [address_range.handle(0).machine_id,
                       address_range.handle(5).machine_id]
            for victim in victims:
                cluster.machine(victim).fail()
            yield cluster.sim.timeout(200)
            for pid, data in pages.items():
                got = yield rm.read(pid)
                assert got == data, f"page {pid} lost"
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"

    def test_writes_continue_after_failure(self):
        # Exactly k + r peers: after one failure there is no spare machine,
        # so regeneration cannot replace the slab and writes must keep
        # using the degraded path (encode-sync, k acks from survivors).
        cluster, rm = deploy(k=4, r=2, machines=7)

        def proc():
            yield rm.write(0, make_page(0))
            victim = rm.space.get(0).handle(1).machine_id
            cluster.machine(victim).fail()
            yield cluster.sim.timeout(200)
            yield rm.write(1, make_page(1))  # degraded write
            got = yield rm.read(1)
            return got

        assert drive(cluster.sim, proc()) == make_page(1)
        assert rm.events["degraded_writes"] >= 1

    def test_background_regeneration_restores_slab(self):
        cluster, rm = deploy(k=4, r=2, machines=10)

        def proc():
            for pid in range(8):
                yield rm.write(pid, make_page(pid))
            address_range = rm.space.get(0)
            old = address_range.handle(0).machine_id
            cluster.machine(old).fail()
            yield cluster.sim.timeout(5_000_000)  # regeneration window
            new_handle = rm.space.get(0).handle(0)
            assert new_handle.available
            assert new_handle.machine_id != old
            for pid in range(8):
                got = yield rm.read(pid)
                assert got == make_page(pid)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert rm.events["regenerations"] >= 1

    def test_too_many_failures_is_data_loss(self):
        cluster, rm = deploy(k=4, r=1, delta=1, machines=10)

        def proc():
            yield rm.write(0, make_page(0))
            address_range = rm.space.get(0)
            # Kill k+r-k+1 = r+1 = 2 machines fast: below k survivors.
            for position in (0, 1):
                cluster.machine(address_range.handle(position).machine_id).fail()
            yield cluster.sim.timeout(200)
            with pytest.raises(RemoteMemoryUnavailable):
                yield rm.read(0)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"

    def test_eviction_notice_triggers_failover(self):
        cluster, rm = deploy(k=4, r=2, machines=10)

        def proc():
            for pid in range(6):
                yield rm.write(pid, make_page(pid))
            # Simulate a Resource Monitor eviction notice for slot 2.
            address_range = rm.space.get(0)
            handle = address_range.handle(2)
            host = cluster.machine(handle.machine_id)
            host.release_slab(handle.slab_id)
            rm._on_evict_notice(
                handle.machine_id,
                {"range_id": 0, "position": 2, "slab_id": handle.slab_id},
            )
            yield cluster.sim.timeout(200)
            for pid in range(6):
                got = yield rm.read(pid)
                assert got == make_page(pid)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        assert rm.events["evictions"] == 1


class TestCorruptionHandling:
    def test_detection_and_healing(self):
        cluster, rm = deploy(k=4, r=2, machines=10)
        pages = {pid: make_page(pid) for pid in range(20)}

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            victim = rm.space.get(0).handle(1).machine_id
            CorruptionInjector(cluster.sim, RandomSource(9)).corrupt_machine(
                cluster.machine(victim), fraction=1.0
            )
            for pid in pages:
                yield rm.read(pid)
            yield cluster.sim.timeout(10_000_000)
            wrong = 0
            for pid, data in pages.items():
                got = yield rm.read(pid)
                wrong += got != data
            return wrong

        wrong = drive(cluster.sim, proc())
        assert wrong == 0  # healed / regenerated by the second pass
        assert rm.events["corruption_detected"] >= 1
        assert rm.events["corrected_reads"] >= 1

    def test_corruption_correctable_inline_with_r3(self):
        """§7.3.2: the corruption scenario runs with r=3 so that
        k + 2Δ + 1 splits exist and reads can correct inline."""
        cluster, rm = deploy(k=4, r=3, machines=12,
                             error_correction_limit=1)
        pages = {pid: make_page(pid) for pid in range(10)}

        def proc():
            for pid, data in pages.items():
                yield rm.write(pid, data)
            victim = rm.space.get(0).handle(0).machine_id
            CorruptionInjector(cluster.sim, RandomSource(4)).corrupt_machine(
                cluster.machine(victim), fraction=1.0
            )
            # Warm the suspicion state with a few reads.
            for pid in list(pages)[:4]:
                yield rm.read(pid)
            yield cluster.sim.timeout(1000)
            wrong = 0
            for pid, data in pages.items():
                got = yield rm.read(pid)
                wrong += got != data
            return wrong

        wrong = drive(cluster.sim, proc())
        # Once suspicion is active every read verifies inline: no wrong data.
        assert wrong == 0
        assert rm.events["suspicious_reads"] >= 1

    def test_phantom_corruption_is_detectable_on_arrival(self):
        cluster, rm = deploy(payload_mode="phantom", k=4, r=2, machines=10)

        def proc():
            for pid in range(8):
                yield rm.write(pid)
            victim = rm.space.get(0).handle(0).machine_id
            CorruptionInjector(cluster.sim, RandomSource(2)).corrupt_machine(
                cluster.machine(victim), fraction=1.0
            )
            for pid in range(8):
                yield rm.read(pid)  # must not raise: extra splits cover it
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"


class TestDatapathSemantics:
    def test_late_binding_cuts_tail(self):
        """Δ=1 extra read absorbs stragglers (Fig 11's tail claim)."""
        straggler_net = NetworkConfig(
            jitter_sigma=0.0, straggler_prob=0.08, straggler_scale_us=80.0
        )

        def p99_with(delta, datapath):
            cluster, rm = deploy(
                k=4, r=2, delta=delta, machines=10,
                network=straggler_net, datapath=datapath,
            )

            def proc():
                for pid in range(24):
                    yield rm.write(pid, make_page(pid))
                for _ in range(400):
                    pid = _ % 24
                    yield rm.read(pid)

            drive(cluster.sim, proc())
            return rm.read_latency.p99

        with_late_binding = p99_with(1, DatapathConfig())
        without = p99_with(0, DatapathConfig(late_binding=False))
        assert with_late_binding < without

    def test_async_encoding_cuts_write_latency(self):
        def p50_with(datapath):
            cluster, rm = deploy(k=8, r=2, machines=12, datapath=datapath)

            def proc():
                for pid in range(64):
                    yield rm.write(pid, make_page(pid))

            drive(cluster.sim, proc())
            return rm.write_latency.p50

        fast = p50_with(DatapathConfig())
        slow = p50_with(DatapathConfig(async_encoding=False))
        assert fast < slow

    def test_all_optimizations_off_is_much_slower(self):
        def p50_with(datapath):
            cluster, rm = deploy(k=8, r=2, machines=12, datapath=datapath)

            def proc():
                for pid in range(32):
                    yield rm.write(pid, make_page(pid))
                for pid in range(32):
                    yield rm.read(pid)

            drive(cluster.sim, proc())
            return rm.read_latency.p50

        optimized = p50_with(DatapathConfig())
        naive = p50_with(DatapathConfig().all_off())
        assert naive > 2 * optimized

    def test_read_waits_for_inflight_write(self):
        """Read-after-write of the same page orders behind the full
        (k + r) durability point, never mixing versions."""
        cluster, rm = deploy(k=4, r=2, machines=10)

        def proc():
            first, second = make_page(10), make_page(11)
            yield rm.write(0, first)
            write = rm.write(0, second)  # do not await: parity in flight
            got = yield rm.read(0)
            yield write
            return got

        assert drive(cluster.sim, proc()) == make_page(11)


class TestWriteIsOneProcess:
    """§4.2.1 behind the ack: the parity stage is one ``call_later`` record
    and a callback on its gather, not a process of its own."""

    @staticmethod
    def primed(**kwargs):
        """A deployment whose range 0 is placed, tracing every request."""
        cluster, rm = deploy(k=4, r=2, machines=10, **kwargs)
        rm.tracer.set_sampling(1)
        TestWriteIsOneProcess.acked(rm, 0, make_page(0))
        cluster.sim.run(until=cluster.sim.now + 1_000)
        return cluster, rm

    @staticmethod
    def acked(rm, page_id, data):
        """Run until the write of ``page_id`` returns to its caller."""
        write = rm.write(page_id, data)
        rm.sim.run_until_triggered(write)
        assert write.ok

    @staticmethod
    def parity_spans(rm, page_id):
        writes = {
            s.span_id for s in rm.tracer.spans
            if s.name == "rm.write" and s.tags["page"] == page_id
        }
        return [
            s for s in rm.tracer.spans if s.name == "rm.parity" and s.parent_id in writes
        ]

    def test_clean_write_starts_no_process_or_timeout(self, monkeypatch):
        cluster, rm = self.primed()
        sim = cluster.sim
        made = []
        for cls in (engine.Process, engine.Timeout):

            def counting(self, *args, _init=cls.__init__, **kwargs):
                callers = {sys._getframe(depth).f_code.co_filename for depth in (1, 2)}
                if any(name.endswith("resilience_manager.py") for name in callers):
                    made.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        before = rm.events["parity_writes"]
        self.acked(rm, 1, make_page(1))
        acked_at = sim.now
        assert 1 in rm._inflight_writes  # acked, parity still behind it
        sim.run(until=sim.now + 1_000)
        assert made == []
        assert rm.events["parity_writes"] - before == rm.config.r
        assert 1 not in rm._inflight_writes
        (span,) = self.parity_spans(rm, 1)  # finished once
        assert span.tags["parities"] == rm.config.r
        assert span.tags["encode_done_us"] == round(acked_at + rm._encode_us, 4)
        assert span.end_us > acked_at + rm._encode_us

    @pytest.mark.parametrize("how", ["fenced", "debug_dropped"])
    def test_stage_that_posts_nothing_still_releases_the_write(self, how):
        """Fenced between ack and encode, or the chaos self-test's dropped
        parity: no parity verb leaves the machine, the span says why and
        finishes once, readers ordered behind the write go on."""
        cluster, rm = self.primed()
        sim = cluster.sim
        nic = cluster.machine(0).nic
        rm.debug_drop_parity = how == "debug_dropped"
        durable = []
        rm.add_observer(
            type("Observer", (), {"on_write_durable": lambda self, *a: durable.append(a)})()
        )
        self.acked(rm, 1, make_page(1))
        full_done = rm._inflight_writes[1]
        posted = nic.ops_sent
        if how == "fenced":
            rm.fence("between ack and encode")
        sim.run(until=sim.now + 1_000)
        assert nic.ops_sent == posted
        assert full_done.processed and 1 not in rm._inflight_writes
        (span,) = self.parity_spans(rm, 1)
        assert span.tags[how] is True
        assert span.tags.get("parities") == (0 if how == "debug_dropped" else None)
        assert rm.events["parity_writes"] == rm.config.r  # the priming write's
        assert durable == [(1, 1)]  # the dropped stage still reports durable

    def test_parity_position_lost_behind_the_ack_records_one_catchup(self):
        cluster, rm = self.primed()
        sim = cluster.sim
        address_range = rm.space.get(0)
        joins, join = [], rm.codec.join
        rm.codec.join = lambda splits: joins.append(1) or join(splits)
        self.acked(rm, 1, make_page(1))
        for position in (4, 5):  # both parities, after the ack
            address_range.mark_failed(position)
        before = rm.events["parity_writes"]
        sim.run(until=sim.now + 1_000)
        assert rm.events["parity_writes"] == before
        for position in (4, 5):
            assert rm._catchup[(0, position)] == {1: (1, make_page(1))}
        assert len(joins) == 1  # the page is joined once, not per position
        assert 1 not in rm._inflight_writes

    def test_read_at_the_ack_instant_orders_behind_the_parities(self):
        cluster, rm = self.primed()
        sim = cluster.sim

        def proc():
            yield rm.write(0, make_page(7))
            acked_at = sim.now
            got = yield rm.read(0)
            return acked_at, got

        acked_at, got = drive(sim, proc())
        assert got == make_page(7)
        read = [s for s in rm.tracer.spans if s.name == "rm.read"][-1]
        (order,) = [
            s for s in rm.tracer.spans if s.name == "order" and s.parent_id == read.span_id
        ]
        (parity,) = self.parity_spans(rm, 0)[-1:]
        assert (order.start_us, order.end_us) == (acked_at, parity.end_us)

    def test_failing_encode_raises_out_of_the_run_and_releases_readers(self):
        """The stage is a callback: its exception leaves ``Simulator.run``
        instead of failing a process nobody observes, and the page's
        readers are not left waiting on a write that will never finish."""
        cluster, rm = self.primed()
        sim = cluster.sim

        def broken(_data_splits):
            raise RuntimeError("encode exploded")

        rm.codec.code.encode = broken
        self.acked(rm, 0, make_page(9))
        reader = rm.read(0)
        with pytest.raises(RuntimeError, match="encode exploded"):
            sim.run(until=sim.now + 1_000)
        assert 0 not in rm._inflight_writes
        sim.run(until=sim.now + 1_000)
        # It finished; what it read mixes new data with the stale parities.
        assert reader.processed and reader.ok
        (span,) = self.parity_spans(rm, 0)[-1:]
        assert "parities" not in span.tags


class TestRegenerationScheduling:
    def test_regen_deadline_is_a_late_noop(self):
        """When the monitor's call-back wins the race, the 5 s give-up
        record still fires later and changes nothing: no timeout is
        counted, no retry starts and the rebuilt position stays live."""
        cluster, rm = deploy(k=4, r=2, machines=10)
        sim = cluster.sim

        def proc():
            for pid in range(4):
                yield rm.write(pid, make_page(pid))
            victim = rm.space.get(0).handle(0).machine_id
            cluster.machine(victim).fail()
            yield sim.timeout(2_000_000)
            return victim

        victim = drive(sim, proc())
        regenerations = rm.events["regenerations"]
        assert regenerations >= 1
        ((deadline_at, deadline),) = [
            (when, entry.__self__)
            for (when, _seq, entry) in sim._queue
            if getattr(entry, "__name__", "") == "succeed_now"
            and entry.__self__.name.startswith("regen-deadline:")
        ]
        assert not deadline.triggered
        started = []
        spawn = sim.process
        sim.process = lambda generator, name="": started.append(name) or spawn(generator, name)
        sim.run(until=deadline_at + 1.0)
        assert deadline.processed
        assert rm.events["regen_timeouts"] == 0
        assert rm.events["regenerations"] == regenerations
        handle = rm.space.get(0).handle(0)
        assert handle.available and handle.machine_id != victim
        assert not [name for name in started if name.startswith("regen-retry")]

    def test_regen_retry_backs_off_a_control_period(self):
        """A timed-out regeneration must retry after a control period,
        not spin with a microsecond delay."""
        cluster, rm = deploy(k=4, r=2, machines=10)
        sim = cluster.sim

        def proc():
            yield rm.write(0, make_page(0))
            return "ok"

        assert drive(sim, proc()) == "ok"
        address_range = rm.space.get(0)
        address_range.handle(0).available = False
        fired = []
        rm._start_regeneration = lambda ar, pos: fired.append(sim.now)
        start = sim.now
        rm._retry_regeneration_later(address_range, 0)
        sim.run(until=start + rm.config.control_period_us / 2)
        assert fired == []  # a 1 us hot retry would already have fired
        sim.run(until=start + 2 * rm.config.control_period_us)
        assert fired and fired[0] >= start + rm.config.control_period_us

    def test_observer_hooks_fire_on_write_read_and_regen(self):
        cluster, rm = deploy(k=4, r=2, machines=10)
        calls = []

        class Observer:
            def on_write_acked(self, page_id, version, data):
                calls.append(("acked", page_id, version))

            def on_write_durable(self, page_id, version):
                calls.append(("durable", page_id, version))

            def on_read_done(self, page_id, version, data, start_us):
                calls.append(("read", page_id, version))

            def on_regen_start(self, range_id, position):
                calls.append(("regen_start", range_id, position))

            def on_regen_end(self, range_id, position, outcome):
                calls.append(("regen_end", range_id, position, outcome))

        rm.add_observer(Observer())

        def proc():
            yield rm.write(0, make_page(0))
            yield rm.read(0)
            victim = rm.space.get(0).handle(0).machine_id
            cluster.machine(victim).fail()
            yield cluster.sim.timeout(2_000_000)
            return "ok"

        assert drive(cluster.sim, proc()) == "ok"
        kinds = [c[0] for c in calls]
        assert ("acked", 0, 1) in calls
        assert ("durable", 0, 1) in calls
        assert ("read", 0, 1) in calls
        assert "regen_start" in kinds
        regen_ends = [c for c in calls if c[0] == "regen_end"]
        assert regen_ends and regen_ends[-1][3] == "regenerated"

    def test_observer_hooks_cost_nothing_when_unused(self):
        """No observers registered: the happy path must not notify."""
        cluster, rm = deploy(k=4, r=2, machines=8)
        rm._notify = None  # would crash if any hook site ran unguarded

        def proc():
            yield rm.write(0, make_page(0))
            got = yield rm.read(0)
            return got

        assert drive(cluster.sim, proc()) == make_page(0)


class TestRegenRetryDedupe:
    def test_concurrent_retry_requests_schedule_one_timer(self):
        """Two triggers for the same failed slot (e.g. an eviction notice
        racing a machine-down notification) while a retry timer is already
        pending must not stack a second timer — the slot would otherwise
        regenerate twice, wasting a slab and a full rebuild."""
        cluster, rm = deploy(k=4, r=2, machines=10)
        sim = cluster.sim

        def proc():
            yield rm.write(0, make_page(0))
            return "ok"

        assert drive(sim, proc()) == "ok"
        address_range = rm.space.get(0)
        address_range.handle(0).available = False
        fired = []
        rm._start_regeneration = lambda ar, pos: fired.append(sim.now)
        rm._retry_regeneration_later(address_range, 0)
        rm._retry_regeneration_later(address_range, 0)  # racing trigger
        assert rm._regen_retry_pending == {(0, 0)}
        sim.run(until=sim.now + 3 * rm.config.control_period_us)
        assert len(fired) == 1
        assert rm._regen_retry_pending == set()

    def test_retry_can_rearm_after_the_timer_fires(self):
        cluster, rm = deploy(k=4, r=2, machines=10)
        sim = cluster.sim

        def proc():
            yield rm.write(0, make_page(0))
            return "ok"

        assert drive(sim, proc()) == "ok"
        address_range = rm.space.get(0)
        address_range.handle(0).available = False
        fired = []
        rm._start_regeneration = lambda ar, pos: fired.append(sim.now)
        rm._retry_regeneration_later(address_range, 0)
        sim.run(until=sim.now + 2 * rm.config.control_period_us)
        rm._retry_regeneration_later(address_range, 0)
        sim.run(until=sim.now + 2 * rm.config.control_period_us)
        assert len(fired) == 2
