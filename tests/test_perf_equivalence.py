"""Equivalence pins for the wall-clock fast path.

The optimization pass (the GF(2^8) kernel and its two backends,
syndrome-transform verify, fused RDMA completions, synchronous event
delivery, batched EC) must be
*semantics-preserving*: a seeded simulation produces byte-identical pages
and an identical metric trace before and after. The constants pinned here
were recorded on the pre-optimization code and re-verified unchanged at
every optimization checkpoint — if any assertion below starts failing,
a "speedup" changed behavior.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.ec import PageCodec, ReedSolomonCode
from repro.ec.galois import MUL_TABLE, gf_mul
from repro.ec.matrix import gf_matmul
from repro.ec.native import NumpyGF, load_native
from repro.harness import build_hydra_cluster, run_process
from repro.harness.microbench import page_generator
from repro.sim import Simulator
from repro.sim.engine import SimulationError


# ----------------------------------------------------------------------
# GF(2^8) kernels against a definitional reference
# ----------------------------------------------------------------------
def _reference_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple loop straight from the field axioms — slow but obviously
    correct."""
    m, n = a.shape
    _, p = b.shape
    out = np.zeros((m, p), dtype=np.uint8)
    for i in range(m):
        for j in range(p):
            acc = 0
            for t in range(n):
                acc ^= gf_mul(int(a[i, t]), int(b[t, j]))
            out[i, j] = acc
    return out


def _cases(rng):
    yield rng.integers(0, 256, (4, 4), dtype=np.uint8), rng.integers(
        0, 256, (4, 9), dtype=np.uint8
    )
    # Identity-heavy: what decode matrices actually look like.
    sparse = np.eye(5, dtype=np.uint8)
    sparse[2] = rng.integers(0, 256, 5, dtype=np.uint8)
    yield sparse, rng.integers(0, 256, (5, 16), dtype=np.uint8)
    # A row of zeros and a row of ones exercise both shortcuts.
    a = rng.integers(0, 256, (3, 6), dtype=np.uint8)
    a[0] = 0
    a[1] = 1
    yield a, rng.integers(0, 256, (6, 7), dtype=np.uint8)


def _backends():
    """Both kernel backends in one process: numpy always, native if it loads."""
    native = load_native()
    return [NumpyGF()] + ([native] if native is not None else [])


def _input_forms(kernel, a, pages):
    """Every way the one interface takes ``pages`` (a (pages, ns, n) stack)
    with matrix ``a``: yields (label, result) with result (pages, nr, n)."""
    count, ns, n = pages.shape
    nr = a.shape[0]
    yield "contiguous 3-D stack", kernel.apply(a, pages)
    wide = np.full((count, ns + 3, n), 0xEE, dtype=np.uint8)
    wide[:, :ns] = pages
    yield "strided 3-D view", kernel.apply(a, wide[:, :ns])
    codeword = np.full((count, ns + nr, n), 0xEE, dtype=np.uint8)
    returned = kernel.apply(a, pages, out=codeword[:, ns:])
    assert returned.base is codeword and (codeword[:, :ns] == 0xEE).all()
    yield "out = parity slice of a wider stack", codeword[:, ns:]
    yield "bytes-page list", kernel.apply(a, [page.tobytes() for page in pages])
    yield "2-D page", np.stack([kernel.apply(a, page) for page in pages])
    out = np.empty((nr, n), dtype=np.uint8)
    yield "list of 1-D rows", np.stack(
        [kernel.apply_rows(a, list(page), out).copy() for page in pages]
    )
    yield "list of 1-D rows, kernel's own out", np.stack(
        [kernel.apply_rows(a, list(page)).copy() for page in pages]
    )
    columns = np.ascontiguousarray(pages.transpose(0, 2, 1))  # rows become strided
    yield "list of strided 1-D rows", np.stack(
        [kernel.apply_rows(a, list(page.T)).copy() for page in columns]
    )


def test_gf_kernels_match_reference():
    rng = np.random.default_rng(7)
    cases = list(_cases(rng))
    # n = 67 and 9/16/7 above are not multiples of 32: the SIMD kernels'
    # scalar tail loop runs; n = 96 has no tail at all.
    for n in (67, 96):
        unit = rng.integers(0, 2, (3, 8), dtype=np.uint8)  # unit coefficients only
        unit[1] = 0  # an all-zero coefficient row
        cases.append((unit, rng.integers(0, 256, (8, n), dtype=np.uint8)))
    for a, b in cases:
        expected = _reference_matmul(a, b)
        assert np.array_equal(gf_matmul(a, b), expected)
        # Three pages: b, a permutation of its rows, and all zeros.
        pages = np.stack([b, b[::-1], np.zeros_like(b)])
        want = np.stack([expected, _reference_matmul(a, b[::-1]), np.zeros_like(expected)])
        for kernel in _backends():
            for label, got in _input_forms(kernel, a, pages):
                assert np.array_equal(got, want), (kernel.isa, label, a.shape)
            empty = kernel.apply(a, pages[:0])  # npages = 0
            assert empty.shape == (0, a.shape[0], b.shape[1]), kernel.isa
            assert kernel.apply(a, []).shape[:2] == (0, a.shape[0]), kernel.isa


def test_row_plan_unit_rows_copy_not_alias():
    """A unit coefficient row copies its source row; the output must never
    alias it, on either backend and through either method."""
    identity = np.eye(3, dtype=np.uint8)
    for kernel in _backends():
        rows = [np.arange(4, dtype=np.uint8) + i for i in range(3)]
        page = np.stack(rows)
        for out in (
            kernel.apply(identity, page),
            kernel.apply(identity, page[None])[0],
            kernel.apply_rows(identity, rows),
        ):
            assert np.array_equal(out, page)
            out[0] ^= 0xFF
            assert rows[0][0] == 0 and page[0, 0] == 0, kernel.isa


def test_mul_table_row_take_is_gf_mul():
    rng = np.random.default_rng(3)
    c = 0x8E
    b = rng.integers(0, 256, 64, dtype=np.uint8)
    expected = np.array([gf_mul(c, int(x)) for x in b], dtype=np.uint8)
    assert np.array_equal(MUL_TABLE[c].take(b), expected)


# ----------------------------------------------------------------------
# Syndrome verify == decode + re-encode reference
# ----------------------------------------------------------------------
def _reference_verify(code: ReedSolomonCode, splits) -> bool:
    """The pre-optimization check: decode the first k received splits,
    re-encode every received index, compare."""
    if len(splits) <= code.k:
        return True
    decoded = code.decode(splits)
    for index in sorted(splits):
        expected = code.reencode_split(decoded, index)
        if not np.array_equal(expected, np.asarray(splits[index], dtype=np.uint8)):
            return False
    return True


def test_syndrome_verify_matches_reference():
    rng = np.random.default_rng(11)
    code = ReedSolomonCode(k=4, r=3)
    data = rng.integers(0, 256, (4, 32), dtype=np.uint8)
    full = code.encode_page(data)
    import itertools

    for subset in itertools.combinations(range(code.n), 5):
        clean = {i: full[i] for i in subset}
        assert code.verify(clean) is True
        assert _reference_verify(code, clean) is True
        for victim in subset:
            corrupt = {i: full[i].copy() for i in subset}
            corrupt[victim][0] ^= 0x55
            assert code.verify(corrupt) == _reference_verify(code, corrupt), (
                subset,
                victim,
            )


def test_decode_verified_rejects_exactly_like_reference():
    rng = np.random.default_rng(13)
    code = ReedSolomonCode(k=4, r=2)
    data = rng.integers(0, 256, (4, 16), dtype=np.uint8)
    full = code.encode_page(data)
    splits = {i: full[i] for i in (0, 1, 2, 4, 5)}
    assert np.array_equal(code.decode_verified(splits), data)
    bad = {i: full[i].copy() for i in (0, 1, 2, 4, 5)}
    bad[4][3] ^= 1
    from repro.ec import CorruptionDetected

    with pytest.raises(CorruptionDetected):
        code.decode_verified(bad)


# ----------------------------------------------------------------------
# Batched codec paths == per-page paths, byte for byte
# ----------------------------------------------------------------------
def test_batch_codec_paths_match_per_page():
    codec = PageCodec(k=8, r=2)
    make_page = page_generator()
    pages = [make_page(i) for i in range(6)]

    stack = codec.encode_batch(pages)
    for i, page in enumerate(pages):
        assert np.array_equal(stack[i], codec.encode(page))

    indices = [0, 1, 2, 3, 4, 5, 6, 8]  # one erasure, one parity standing in
    payload_stack = np.stack([stack[i][indices] for i in range(len(pages))])
    decoded = codec.decode_batch(indices, payload_stack)
    for i, page in enumerate(pages):
        per_page = codec.decode({j: stack[i][j] for j in indices})
        assert decoded[i] == per_page == page

    split_stack = codec.split_pages(pages)
    for i, page in enumerate(pages):
        assert np.array_equal(split_stack[i], codec.split(page))
    assert codec.join_pages(split_stack) == pages


def test_split_fast_path_returns_writable_copy():
    codec = PageCodec(k=8, r=2)
    page = bytes(range(256)) * 16
    splits = codec.split(page)
    splits[0][0] ^= 0xFF  # must not raise (frombuffer views are read-only)
    assert codec.split(page)[0][0] == 0  # and must not alias the source


# ----------------------------------------------------------------------
# Engine: synchronous delivery keeps Event semantics
# ----------------------------------------------------------------------
def test_succeed_now_runs_callbacks_synchronously():
    sim = Simulator()
    seen = []
    event = sim.event(name="x")
    event.callbacks.append(lambda ev: seen.append(ev.value))
    event.succeed_now(42)
    assert seen == [42]
    assert event.processed and event.ok and event.value == 42
    with pytest.raises(SimulationError):
        event.succeed_now(43)


def test_succeed_now_wakes_waiting_process_in_order():
    sim = Simulator()
    log = []
    gate = sim.event(name="gate")

    def waiter():
        yield gate
        log.append(("waiter", sim.now))

    def firer():
        yield sim.timeout(5.0)
        log.append(("fire", sim.now))
        gate.succeed_now()
        log.append(("after-fire", sim.now))

    sim.process(waiter(), name="w")
    sim.process(firer(), name="f")
    sim.run()
    assert log == [("fire", 5.0), ("waiter", 5.0), ("after-fire", 5.0)]


def test_rdma_completions_keep_post_order():
    """Fused verb delivery must preserve per-QP completion ordering —
    the property §4.3's read-after-write safety rests on."""
    from repro.net import RdmaFabric

    class _Stub:
        def __init__(self, mid, nic):
            self.id = mid
            self.nic = nic
            self.alive = True

        def deliver_message(self, src, msg):
            pass

    sim = Simulator()
    fabric = RdmaFabric(sim)
    from repro.net.rdma import Nic

    for mid in (0, 1):
        fabric.register(_Stub(mid, Nic(fabric.config, machine_id=mid)))
    qp = fabric.qp(0, 1)
    completions = []
    for i in range(50):
        # Alternate sizes so raw latencies would NOT be monotone.
        size = 4096 if i % 2 == 0 else 64
        event = qp.post_write(size, apply=lambda i=i: i)
        event.callbacks.append(lambda ev: completions.append(ev.value))
    sim.run()
    assert completions == list(range(50))


# ----------------------------------------------------------------------
# Pinned end-to-end fingerprints (recorded pre-optimization)
# ----------------------------------------------------------------------
def _metrics_sha(metrics) -> str:
    snap = metrics.snapshot()
    return hashlib.sha256(
        json.dumps(snap, sort_keys=True, default=str).encode()
    ).hexdigest()


def test_seeded_run_fingerprint_unchanged():
    hydra = build_hydra_cluster(machines=10, k=4, r=2, delta=1, seed=7)
    rm = hydra.remote_memory(0)
    sim = hydra.sim
    make_page = page_generator()
    pages = [make_page(pid) for pid in range(32)]
    digest = hashlib.sha256()

    def driver():
        for i in range(200):
            pid = i % 32
            yield rm.write(pid, pages[pid])
            data = yield rm.read(pid)
            digest.update(data)

    run_process(sim, sim.process(driver(), name="fp"), until=1e12)

    assert sim.now == pytest.approx(1722.486783623721, abs=0, rel=0)
    assert digest.hexdigest() == (
        "ebbc2035edb9416b042e621f1efc8b45dfd266d254ff6a1a460c007e26b06b9e"
    )
    assert rm.read_latency.p50 == pytest.approx(5.798503346925713, abs=0, rel=0)
    assert rm.write_latency.p50 == pytest.approx(1.7684307657343084, abs=0, rel=0)
    assert dict(sorted(rm.events.counts.items())) == {
        "decoded_reads": 188,
        "parity_writes": 400,
        "ranges_placed": 1,
        "reads": 200,
        "writes": 200,
    }
    # Re-pinned twice as the snapshot format grew: first for the
    # telemetry PR (p90 + distribution detail, rm.*.ops /
    # monitor.*.free_fraction), then for the EC plan-cache PR which adds
    # one rm.*.ec.plan_evictions counter per machine. Stripping the new
    # counters reproduces the previous hash exactly; the simulated
    # anchors above never moved.
    assert _metrics_sha(hydra.obs.metrics) == (
        "50403b43a756dbe07a5afb52d5386dab0ee9d6dffba70bc800fadb687fc23a8b"
    )


def test_seeded_failure_run_fingerprint_unchanged():
    hydra = build_hydra_cluster(machines=10, k=4, r=2, delta=1, seed=11)
    rm = hydra.remote_memory(0)
    sim = hydra.sim
    make_page = page_generator()
    pages = [make_page(pid) for pid in range(16)]
    digest = hashlib.sha256()

    def driver():
        for pid in range(16):
            yield rm.write(pid, pages[pid])
        victim = rm.space.get(0).handle(0).machine_id
        hydra.cluster.machine(victim).fail()
        yield sim.timeout(200)
        for i in range(64):
            pid = i % 16
            yield rm.write(pid, pages[pid])
            data = yield rm.read(pid)
            digest.update(data)
        yield sim.timeout(5_000_000)

    run_process(sim, sim.process(driver(), name="fp2"), until=1e12)

    assert sim.now == pytest.approx(5000882.758883418, abs=0, rel=0)
    assert digest.hexdigest() == (
        "2787081113f4cd3c8f0c1af600477130c8a6efc524b536d313f461aa65eae550"
    )
    events = dict(sorted(rm.events.counts.items()))
    assert events["regenerations"] == 1
    assert events["disconnects"] == 1
    assert events["reads"] == 64 and events["writes"] == 80


# ----------------------------------------------------------------------
# Pins for the branches no fingerprint above reaches
# ----------------------------------------------------------------------
def test_seeded_all_toggles_off_fingerprint_unchanged():
    """Every DatapathConfig toggle off with all slabs up: the
    encode-before-post write that waits for all (k + r) acks."""
    from repro.core import DatapathConfig

    hydra = build_hydra_cluster(
        machines=10, k=4, r=2, delta=1, seed=13,
        datapath=DatapathConfig().all_off(),
    )
    rm = hydra.remote_memory(0)
    sim = hydra.sim
    make_page = page_generator()
    pages = [make_page(pid) for pid in range(24)]
    digest = hashlib.sha256()

    def driver():
        for i in range(96):
            pid = (i * 7) % 24
            yield rm.write(pid, pages[pid])
            data = yield rm.read(pid)
            digest.update(data)

    run_process(sim, sim.process(driver(), name="fp3"), until=1e12)

    assert sim.now == pytest.approx(1549.9687064918655, abs=0, rel=0)
    assert digest.hexdigest() == (
        "b05855813efb51b7838ce04abc7d3a074e8f63b0f7a221c57e71553de897d9d9"
    )
    assert rm.read_latency.p50 == pytest.approx(6.656360343419777, abs=0, rel=0)
    assert rm.write_latency.p50 == pytest.approx(8.787230730291071, abs=0, rel=0)
    assert dict(sorted(rm.events.counts.items())) == {
        "decoded_reads": 91,
        "degraded_writes": 96,
        "ranges_placed": 1,
        "reads": 96,
        "writes": 96,
    }


def test_seeded_corruption_heal_regen_fingerprint_unchanged():
    """Corrupt a data host -> background detection -> correction and
    heal -> inline verified reads once the host is suspected -> slab
    regeneration on the error score -> catch-up of the writes that raced
    the regeneration."""
    from repro.cluster import CorruptionInjector
    from repro.sim import RandomSource

    hydra = build_hydra_cluster(machines=12, k=4, r=2, delta=1, seed=17)
    rm = hydra.remote_memory(0)
    sim = hydra.sim
    make_page = page_generator()
    pages = [make_page(pid) for pid in range(24)]
    rewritten = pages[1:] + pages[:1]
    digest = hashlib.sha256()
    injector = CorruptionInjector(sim, RandomSource(17, "pin/corrupt"))

    def driver():
        for pid in range(24):
            yield rm.write(pid, pages[pid])
        yield sim.timeout(50)
        victim = rm.space.get(0).handle(1).machine_id
        injector.corrupt_machine(hydra.cluster.machine(victim), fraction=1.0)
        for i in range(72):
            pid = (i * 5) % 24
            data = yield rm.read(pid)
            digest.update(data)
            if rm.open_regen_count:
                # Lands in the catch-up buffer of the regenerating slab.
                yield rm.write(pid, rewritten[pid])
                pages[pid] = rewritten[pid]
        yield sim.timeout(2_000_000)
        for pid in range(24):
            data = yield rm.read(pid)
            assert data == pages[pid]
            digest.update(data)

    run_process(sim, sim.process(driver(), name="fp4"), until=1e12)

    assert sim.now == pytest.approx(2000469.2254695853, abs=0, rel=0)
    assert digest.hexdigest() == (
        "803006aba7cf70d19c66a9710864c7544a31a71212de7330f41c6a0904f3d1e3"
    )
    assert dict(sorted(rm.events.counts.items())) == {
        "catchup_direct_posts": 1,
        "catchup_writes": 7,
        "corrected_reads": 8,
        "corruption_detected": 3,
        "decoded_reads": 94,
        "degraded_writes": 8,
        "healed_splits": 8,
        "parity_writes": 48,
        "ranges_placed": 1,
        "reads": 96,
        "regen_for_errors": 1,
        "regenerations": 1,
        "suspicious_reads": 5,
        "writes": 32,
    }


def test_seeded_traced_run_span_fingerprint_unchanged():
    """Everything traced: async-parity writes, a write whose data acks die
    in flight (one retry, then degraded), a degraded write, regeneration
    with catch-up, and a read that escalates to the untried split. The sha
    covers every span in finish order — name, parent name, ordered phase
    names, start/end sim-µs — i.e. the inputs of the Fig 11 breakdown."""
    hydra = build_hydra_cluster(machines=8, k=4, r=2, delta=1, seed=19)
    hydra.obs.enable_tracing(1)
    rm = hydra.remote_memory(0)
    sim = hydra.sim
    cluster = hydra.cluster
    make_page = page_generator()
    pages = [make_page(pid) for pid in range(8)]
    digest = hashlib.sha256()

    def driver():
        yield rm.write(0, pages[0])
        address_range = rm.space.get(0)
        hosts = address_range.machine_ids()
        (spare,) = [m for m in cluster.machines if m.id not in (0, *hosts)]
        spare.fail()  # no regeneration target until it recovers
        for pid in range(1, 8):
            yield rm.write(pid, pages[pid])
        yield sim.timeout(50)
        write = rm.write(0, pages[1])
        yield sim.timeout(1.0)
        cluster.machine(hosts[0]).fail()
        yield write
        digest.update((yield rm.read(0)))
        yield rm.write(2, pages[3])
        spare.recover()
        yield sim.timeout(400_000)
        assert len(address_range.available_positions()) == 6
        for position in (1, 2):
            cluster.machine(address_range.handle(position).machine_id).fail()
        for pid in range(8):
            digest.update((yield rm.read(pid)))
        yield sim.timeout(1000)

    run_process(sim, sim.process(driver(), name="fp5"), until=1e12)

    spans = hydra.obs.tracer.finished_spans()
    names = {span.span_id: span.name for span in spans}
    phases = {}
    for span in spans:
        if span.cat == "phase":
            phases.setdefault(span.parent_id, []).append(span.name)
    rows = [
        (span.name, names.get(span.parent_id), phases.get(span.span_id, []),
         span.start_us, span.end_us)
        for span in spans
    ]
    assert hydra.obs.tracer.dropped == 0
    assert len(rows) == 236
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "15259ad621886a7c3b25fd6d0e81a038e87cb35d053823634130048960996a49"
    )
    assert sim.now == pytest.approx(401335.50697617995, abs=0, rel=0)
    assert digest.hexdigest() == (
        "858605921db18c2f87b6370d92d4c0a504804dae65ac6009d55838f48a61b106"
    )
    assert dict(sorted(rm.events.counts.items())) == {
        "catchup_writes": 2,
        "decoded_reads": 9,
        "degraded_writes": 2,
        "disconnects": 3,
        "escalation_reads": 1,
        "parity_writes": 16,
        "ranges_placed": 1,
        "reads": 9,
        "regen_no_target": 3,
        "regenerations": 1,
        "write_retries": 1,
        "writes": 10,
    }
