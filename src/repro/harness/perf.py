"""Wall-clock performance suite — ``python -m repro perf``.

Everything else in this repository measures *simulated* time; this module
measures how fast the simulator itself runs on the host. It exists to
catch performance regressions in the three layers the data path burns CPU
on:

* the discrete-event engine (``repro.sim.engine``) — events/second;
* the GF(2^8) Reed-Solomon codec (``repro.ec``) — MB/second for encode,
  decode, verify, correct, and the batched (vectorized) paths;
* the end-to-end Resilience Manager data path — pages/second through a
  full simulated cluster (RDMA model, gathers, background verify).

Every workload is seeded and deterministic: two runs on the same machine
execute the identical event sequence, so wall-clock differences are real.
The end-to-end scenario additionally emits *simulated-time* anchors
(``sim_now_us``, latency percentiles, a SHA-256 over every page read
back). Those must be byte-identical across machines and optimization
work; if an anchor moves, the change was not semantics-preserving.

Results are written as ``BENCH_perf.json`` (schema documented in
``docs/PERFORMANCE.md``). Compare runs with best-of-N wall times — the
suite already takes the minimum over ``repeats`` runs of each workload,
which is the standard way to denoise a loaded machine.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..ec import PageCodec
from ..ec.native import native_kernel_name
from ..sim import Simulator
from .builders import build_hydra_cluster
from .microbench import page_generator, run_process

__all__ = [
    "SCHEMA",
    "PERF_BENCH_NAMES",
    "run_perf_shard",
    "run_perf_suite",
    "deterministic_anchors",
    "compare_results",
    "format_results",
    "main",
]

SCHEMA = "hydra-perf/1"

PAGE_SIZE = 4096
_MB = 1024 * 1024

# Canonical benchmark order; also the shard decomposition for ``-j``.
PERF_BENCH_NAMES = (
    "engine_events",
    "engine_events_batch",
    "ec_encode",
    "ec_decode",
    "ec_verify",
    "ec_correct",
    "ec_correct_guaranteed",
    "ec_correct_best_effort",
    "ec_slab_encode",
    "ec_slab_decode",
    "ec_slab_correct",
    "rdma_completion_batch",
    "rm_end_to_end",
    "rm_corrupted",
    "obs_overhead",
)

_EC_OPS = (
    "ec_encode",
    "ec_decode",
    "ec_verify",
    "ec_correct",
    "ec_correct_guaranteed",
    "ec_correct_best_effort",
    "ec_slab_encode",
    "ec_slab_decode",
    "ec_slab_correct",
)

# The raw-kernel slab benchmarks always run this many pages (1 MB of
# data at the 4 KB page size) regardless of --quick, so their MB/s is
# comparable across modes and matches the kernel's design point.
_SLAB_PAGES = 256

# Simulated-time (or size-derived) fields per benchmark that must be
# byte-identical across hosts, repeat counts, and ``-j`` values — the
# determinism contract the parallel runner is held to. Wall-clock fields
# (``seconds`` and the rates derived from it) are deliberately absent.
_ANCHOR_FIELDS: Dict[str, Tuple[str, ...]] = {
    "engine_events": ("events", "sim_now_us"),
    "engine_events_batch": ("events", "sim_now_us"),
    "ec_encode": ("pages", "mb"),
    "ec_decode": ("pages", "mb"),
    "ec_verify": ("pages", "mb"),
    "ec_correct": ("pages", "mb"),
    "ec_correct_guaranteed": ("pages", "mb"),
    "ec_correct_best_effort": ("pages", "mb", "corrupt_pages"),
    "ec_slab_encode": ("pages", "mb"),
    "ec_slab_decode": ("pages", "mb"),
    "ec_slab_correct": ("pages", "mb"),
    "rdma_completion_batch": ("posts", "sim_now_us"),
    "rm_end_to_end": (
        "ops",
        "page_ops",
        "sim_now_us",
        "pages_sha256",
        "read_p50_us",
        "write_p50_us",
        "read_hist",
        "write_hist",
        "queue_entries",
    ),
    "rm_corrupted": (
        "ops",
        "sim_now_us",
        "pages_sha256",
        "corrected_reads",
        "healed_splits",
    ),
    "obs_overhead": (
        "ops",
        "sim_now_us",
        "pages_sha256",
        "frames",
        "health_transitions",
    ),
}

# Wall-clock throughput fields per benchmark, for ``--compare``: the new
# run regresses when any of these drops below baseline * (1 - tolerance).
_RATE_FIELDS = ("events_per_sec", "mb_per_sec", "pages_per_sec", "posts_per_sec")


def _suite_sizes(quick: bool) -> Tuple[int, int, int, int, int, int]:
    """(engine_events, batch_events, ec_pages, correct_pages, rm_ops,
    rm_corrupt_ops).

    ``correct_pages`` sized for a multi-millisecond timed region: the
    guided localizer corrects a page in ~0.1 ms, so the old 8-page
    workload (sized for the combinatorial scan) timed mostly noise.
    ``batch_events`` is larger than ``engine_events`` because the fused
    burst path dispatches an order of magnitude faster — the timed region
    has to stay in the milliseconds.
    """
    if quick:
        return 40_000, 200_000, 256, 64, 300, 120
    return 200_000, 1_000_000, 2048, 384, 2000, 800


def _best_of(workload: Callable[[], dict], repeats: int) -> Tuple[float, dict]:
    """Run ``workload`` ``repeats`` times; return (best wall seconds, its
    payload). Minimum-of-N is robust against other load on the machine."""
    best_dt: Optional[float] = None
    best_payload: dict = {}
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        payload = workload()
        dt = time.perf_counter() - t0
        if best_dt is None or dt < best_dt:
            best_dt, best_payload = dt, payload
    return best_dt, best_payload


# ----------------------------------------------------------------------
# 1. Engine event throughput
# ----------------------------------------------------------------------
def bench_engine(n_events: int, repeats: int) -> dict:
    """Dispatch throughput of the discrete-event core: ``n_events``
    timeouts spread over 8 concurrent processes, no payload work."""

    def workload() -> dict:
        sim = Simulator()
        per_process = n_events // 8

        def ticker():
            for _ in range(per_process):
                yield sim.timeout(1.0)

        for i in range(8):
            sim.process(ticker(), name=f"ticker-{i}")
        sim.run()
        return {"entries": sim._active, "sim_now_us": sim.now}

    seconds, payload = _best_of(workload, repeats)
    return {
        "events": payload["entries"],
        "seconds": round(seconds, 6),
        "events_per_sec": round(payload["entries"] / seconds),
        "sim_now_us": payload["sim_now_us"],
    }


def bench_engine_batch(n_events: int, repeats: int) -> dict:
    """Completion-burst throughput of the scheduler's fused records.

    The workload is shaped like the RDMA completion traffic that dominates
    event volume at rack scale: 8 staggered chains, each re-arming a
    64-wide fused completion batch (``call_later_batch``) a few
    microseconds out, so the scheduler pays one heap push and one pop per
    64 callables. No payload work; the number is pure engine overhead.

    Deterministic: the chains re-arm until ``_active`` reaches
    ``n_events``, so the anchor fields (``events``, ``sim_now_us``) are a
    pure function of ``n_events``.
    """
    burst_width = 64
    delays = (0.3, 1.7, 0.9, 2.4, 0.1, 3.1, 0.6, 1.2)

    def workload() -> dict:
        sim = Simulator()
        nop = int  # cheapest deterministic no-op callable

        def make_chain(chain: int):
            beat = [chain]

            def rearm() -> None:
                if sim._seq < n_events:
                    beat[0] += 1
                    sim.call_later_batch(delays[beat[0] & 7], burst)

            burst = (nop,) * (burst_width - 1) + (rearm,)
            return rearm

        for chain in range(8):
            sim.call_later(delays[chain], make_chain(chain))
        sim.run()
        return {"entries": sim._active, "sim_now_us": round(sim.now, 6)}

    seconds, payload = _best_of(workload, repeats)
    return {
        "events": payload["entries"],
        "seconds": round(seconds, 6),
        "events_per_sec": round(payload["entries"] / seconds),
        "sim_now_us": payload["sim_now_us"],
    }


# ----------------------------------------------------------------------
# 2. Reed-Solomon codec throughput
# ----------------------------------------------------------------------
def _ec_pages(codec: PageCodec, n_pages: int) -> list:
    make_page = page_generator(codec.page_size, seed=99)
    return [make_page(i) for i in range(n_pages)]


def bench_ec(
    n_pages: int,
    correct_pages: int,
    repeats: int,
    k: int = 8,
    r: int = 2,
    ops: Optional[Sequence[str]] = None,
) -> Dict[str, dict]:
    """Batched and per-page codec throughput at the paper's RS(8+2) point.

    The headline ``ec_encode`` / ``ec_decode`` / ``ec_correct`` rows
    measure the slab-wide batch entry points — the path every RM hot loop
    now takes (encode-on-write, grouped decode-on-read, correction
    sweeps). ``decode`` uses a non-systematic split set (one data split
    replaced by a parity split) — the case late-binding reads actually
    hit; ``correct`` localizes one corrupted split per page from
    k+2Δ+1 = 11 splits (Δ=1) with *every* page corrupted, the worst case
    for the batched localizer. ``ec_verify`` and
    ``ec_correct_guaranteed`` keep exercising the per-page scalar codec,
    and the ``ec_slab_*`` rows time the raw (fixed 256-page) kernels with
    all staging prebuilt.

    ``ops`` restricts the run to a subset of :data:`PERF_BENCH_NAMES`'s
    ``ec_*`` entries (the parallel runner shards one op per worker);
    ``None`` runs all. Each op's setup and measurement are identical
    either way.
    """
    selected = tuple(_EC_OPS) if ops is None else tuple(ops)
    unknown = set(selected) - set(_EC_OPS)
    if unknown:
        raise ValueError(f"unknown ec benchmark(s): {sorted(unknown)}")
    codec = PageCodec(k, r, page_size=PAGE_SIZE)
    pages = _ec_pages(codec, n_pages)
    needs_encoded = set(selected) - {"ec_encode", "ec_correct_guaranteed"}
    enc_stack = codec.encode_batch(pages) if needs_encoded else None
    mb = n_pages * PAGE_SIZE / _MB
    indices = list(range(k - 1)) + [k]  # drop data split k-1, use parity k
    results: Dict[str, dict] = {}

    # -- encode (pages -> k+r split stacks, the batched write path) ----
    if "ec_encode" in selected:
        def encode_workload() -> dict:
            codec.encode_batch(pages)
            return {}

        seconds, _ = _best_of(encode_workload, repeats)
        results["ec_encode"] = {
            "pages": n_pages, "mb": round(mb, 3), "seconds": round(seconds, 6),
            "mb_per_sec": round(mb / seconds, 2),
        }

    # -- decode (non-systematic k of k+r, the late-binding read path) --
    if "ec_decode" in selected:
        received_stack = np.ascontiguousarray(enc_stack[:, indices])

        def decode_workload() -> dict:
            codec.decode_batch(indices, received_stack)
            return {}

        seconds, _ = _best_of(decode_workload, repeats)
        results["ec_decode"] = {
            "pages": n_pages, "mb": round(mb, 3), "seconds": round(seconds, 6),
            "mb_per_sec": round(mb / seconds, 2),
        }

    # -- verify (k+1 splits, the background consistency check; stays on
    # the per-page scalar codec on purpose) ----------------------------
    if "ec_verify" in selected:
        verify_sets = [
            {i: enc_stack[page, i] for i in range(k + 1)}
            for page in range(n_pages)
        ]

        def verify_workload() -> dict:
            ok = 0
            for splits in verify_sets:
                ok += codec.verify(splits)
            return {"ok": ok}

        seconds, payload = _best_of(verify_workload, repeats)
        if payload["ok"] != n_pages:
            raise RuntimeError("verify benchmark saw an inconsistent page")
        results["ec_verify"] = {
            "pages": n_pages, "mb": round(mb, 3), "seconds": round(seconds, 6),
            "mb_per_sec": round(mb / seconds, 2),
        }

    # -- correct (1 corrupted split among all k+r on every page, batch
    # majority decoding; the RM clamps correction fanout to n and
    # localizes best-effort) -------------------------------------------
    if "ec_correct" in selected:
        all_indices = list(range(codec.n))
        corrupt_stack = enc_stack[:correct_pages].copy()
        corrupt_stack[:, 2, :16] ^= 0xA5  # deterministic corruption
        correct_mb = correct_pages * PAGE_SIZE / _MB
        # Warm the compiled GF plan caches (decode plans, extras
        # transform, residual ratios) so the timed region measures
        # steady-state correction, not one-time plan compilation.
        codec.correct_batch(
            all_indices, corrupt_stack[:1], max_errors=1, best_effort=True
        )

        def correct_workload() -> dict:
            _, corrupted = codec.correct_batch(
                all_indices, corrupt_stack, max_errors=1, best_effort=True
            )
            return {"located": sum(bad == [2] for bad in corrupted)}

        seconds, payload = _best_of(correct_workload, repeats)
        if payload["located"] != correct_pages:
            raise RuntimeError("correct benchmark failed to localize corruption")
        results["ec_correct"] = {
            "pages": correct_pages, "mb": round(correct_mb, 3),
            "seconds": round(seconds, 6),
            "mb_per_sec": round(correct_mb / seconds, 2),
        }

    # -- correct, guaranteed mode (k+2Δ+1 = 11 splits at RS(8+3): any
    # single corruption is provably localized, no best-effort caveats) --
    if "ec_correct_guaranteed" in selected:
        codec_g = PageCodec(k, 3, page_size=PAGE_SIZE)
        guaranteed_sets = []
        for page in pages[:correct_pages]:
            splits = codec_g.encode(page)
            received_all = {i: splits[i].copy() for i in range(codec_g.n)}
            received_all[2][:16] ^= 0xA5  # deterministic corruption
            guaranteed_sets.append(received_all)
        guaranteed_mb = correct_pages * PAGE_SIZE / _MB
        # Same steady-state warm-up as ec_correct, for this codec's caches.
        codec_g.correct(guaranteed_sets[0], max_errors=1)

        def correct_guaranteed_workload() -> dict:
            located = 0
            for splits in guaranteed_sets:
                _, corrupted = codec_g.correct(splits, max_errors=1)
                located += corrupted == [2]
            return {"located": located}

        seconds, payload = _best_of(correct_guaranteed_workload, repeats)
        if payload["located"] != correct_pages:
            raise RuntimeError(
                "guaranteed correct benchmark failed to localize corruption"
            )
        results["ec_correct_guaranteed"] = {
            "pages": correct_pages, "mb": round(guaranteed_mb, 3),
            "seconds": round(seconds, 6),
            "mb_per_sec": round(guaranteed_mb / seconds, 2),
        }

    # -- batched best-effort correct (a corruption sweep: most pages are
    # clean and ride the batched residual check; every 16th page carries
    # one corrupted split that the per-page localizer must fix) ---------
    if "ec_correct_best_effort" in selected:
        all_indices = list(range(codec.n))
        sweep_stack = enc_stack.copy()
        dirty_pages = list(range(0, n_pages, 16))
        for page in dirty_pages:
            sweep_stack[page, 2, :16] ^= 0xA5  # deterministic corruption

        def correct_sweep_workload() -> dict:
            _, corrupted = codec.correct_batch(
                all_indices, sweep_stack, max_errors=1, best_effort=True
            )
            located = [page for page, bad in enumerate(corrupted) if bad == [2]]
            return {"located": located}

        seconds, payload = _best_of(correct_sweep_workload, repeats)
        if payload["located"] != dirty_pages:
            raise RuntimeError(
                "batched correct benchmark failed to localize corruption"
            )
        results["ec_correct_best_effort"] = {
            "pages": n_pages, "mb": round(mb, 3),
            "corrupt_pages": len(dirty_pages),
            "seconds": round(seconds, 6),
            "mb_per_sec": round(mb / seconds, 2),
        }

    # -- raw slab kernels (fixed 256-page slab, staging prebuilt): the
    # GF throughput ceiling the batch entry points are chasing ----------
    slab_selected = {"ec_slab_encode", "ec_slab_decode", "ec_slab_correct"}
    if slab_selected & set(selected):
        from ..ec.vectorized import correct_pages as slab_correct
        from ..ec.vectorized import decode_pages as slab_decode
        from ..ec.vectorized import encode_pages as slab_encode

        slab_mb = _SLAB_PAGES * PAGE_SIZE / _MB
        slab_pages = _ec_pages(codec, _SLAB_PAGES)
        slab_enc = codec.encode_batch(slab_pages)

        if "ec_slab_encode" in selected:
            slab_data = np.ascontiguousarray(slab_enc[:, :k])

            def slab_encode_workload() -> dict:
                slab_encode(codec.code, slab_data)
                return {}

            seconds, _ = _best_of(slab_encode_workload, repeats)
            results["ec_slab_encode"] = {
                "pages": _SLAB_PAGES, "mb": round(slab_mb, 3),
                "seconds": round(seconds, 6),
                "mb_per_sec": round(slab_mb / seconds, 2),
            }

        if "ec_slab_decode" in selected:
            slab_received = np.ascontiguousarray(slab_enc[:, indices])
            codec.code.decode_matrix(tuple(indices))  # warm the plan cache

            def slab_decode_workload() -> dict:
                slab_decode(codec.code, indices, slab_received)
                return {}

            seconds, _ = _best_of(slab_decode_workload, repeats)
            results["ec_slab_decode"] = {
                "pages": _SLAB_PAGES, "mb": round(slab_mb, 3),
                "seconds": round(seconds, 6),
                "mb_per_sec": round(slab_mb / seconds, 2),
            }

        if "ec_slab_correct" in selected:
            all_indices = list(range(codec.n))
            slab_corrupt = slab_enc.copy()
            slab_corrupt[:, 2, :16] ^= 0xA5  # every page corrupt
            slab_correct(
                codec.code, all_indices, slab_corrupt[:1],
                max_errors=1, best_effort=True,
            )

            def slab_correct_workload() -> dict:
                _, corrupted = slab_correct(
                    codec.code, all_indices, slab_corrupt,
                    max_errors=1, best_effort=True,
                )
                return {"located": sum(bad == [2] for bad in corrupted)}

            seconds, payload = _best_of(slab_correct_workload, repeats)
            if payload["located"] != _SLAB_PAGES:
                raise RuntimeError(
                    "slab correct benchmark failed to localize corruption"
                )
            results["ec_slab_correct"] = {
                "pages": _SLAB_PAGES, "mb": round(slab_mb, 3),
                "seconds": round(seconds, 6),
                "mb_per_sec": round(slab_mb / seconds, 2),
            }
    return results


# ----------------------------------------------------------------------
# 3. End-to-end pages/sec through the Resilience Manager
# ----------------------------------------------------------------------
class _PerfNode:
    """Minimal fabric endpoint for the raw verb benchmark: an id, a NIC,
    and an alive flag — no slabs, no RM, no control plane."""

    __slots__ = ("id", "nic", "alive")

    def __init__(self, machine_id: int, nic) -> None:
        self.id = machine_id
        self.nic = nic
        self.alive = True

    def deliver_message(self, src_id: int, message) -> None:  # pragma: no cover
        raise RuntimeError("perf nodes exchange no control messages")


def bench_rdma_completion_batch(posts: int, repeats: int) -> dict:
    """Raw RDMA verb throughput: split-sized write bursts across 8 QPs.

    Every round posts one 512 B one-sided WRITE per queue pair at a
    single simulated instant — the exact shape of the RM's data-split
    fan-out — then waits for the burst to complete before the next round.
    No erasure coding, no gathers, no RM: the measured rate isolates the
    post → latency-draw → completion-dispatch pipeline that every split
    of every page op pays. ``sim_now_us`` and ``posts`` are simulated
    anchors; a change means the latency model or RNG stream moved.
    """
    from ..net import Nic, RdmaFabric
    from ..net.config import NetworkConfig
    from ..obs import MetricsRegistry
    from ..sim import RandomSource

    fanout = 8
    rounds = posts // fanout

    def workload() -> dict:
        sim = Simulator()
        config = NetworkConfig()
        metrics = MetricsRegistry()
        fabric = RdmaFabric(sim, config, RandomSource(7, "perf-rdma"))
        for machine_id in range(fanout + 1):
            fabric.register(
                _PerfNode(machine_id, Nic(config, machine_id, metrics))
            )
        qps = [fabric.qp(0, target) for target in range(1, fanout + 1)]
        state = {"completed": 0}

        def apply() -> None:
            state["completed"] += 1

        def driver():
            for _ in range(rounds):
                acks = [qp.post_write(512, apply=apply) for qp in qps]
                yield sim.all_of(acks)

        run_process(sim, sim.process(driver(), name="perf-rdma"), until=1e12)
        if state["completed"] != rounds * fanout:
            raise RuntimeError("verb benchmark lost completions")
        return {"sim_now_us": sim.now}

    seconds, payload = _best_of(workload, repeats)
    total = rounds * fanout
    return {
        "posts": total,
        "seconds": round(seconds, 6),
        "posts_per_sec": round(total / seconds, 1),
        "sim_now_us": payload["sim_now_us"],
    }


def bench_rm_end_to_end(ops: int, repeats: int) -> dict:
    """The headline scenario: a full simulated cluster (12 machines,
    RS(8+2), Δ=1, real payloads, read verification on — the default
    configuration) running ``ops`` write+read pairs over 64 pages.

    Wall seconds are host performance; the ``sim_now_us`` /
    ``pages_sha256`` / latency anchors are simulated-time outputs that
    must not move when the host-side code gets faster.
    """

    def workload() -> dict:
        hydra = build_hydra_cluster(machines=12, k=8, r=2, delta=1, seed=1)
        rm = hydra.remote_memory(0)
        sim = hydra.sim
        make_page = page_generator()
        pages = [make_page(pid) for pid in range(64)]
        digest = hashlib.sha256()

        def driver():
            for i in range(ops):
                pid = i % 64
                yield rm.write(pid, pages[pid])
                data = yield rm.read(pid)
                digest.update(data)

        run_process(sim, sim.process(driver(), name="perf-rm"), until=1e12)
        return {
            "sim_now_us": sim.now,
            "pages_sha256": digest.hexdigest(),
            "read_p50_us": rm.read_latency.p50,
            "write_p50_us": rm.write_latency.p50,
            "read_hist": rm.read_latency.hist.to_dict(),
            "write_hist": rm.write_latency.hist.to_dict(),
            "queue_entries": sim._active,
        }

    seconds, payload = _best_of(workload, repeats)
    page_ops = 2 * ops  # each pair moves one page out and one page back
    return {
        "ops": ops,
        "page_ops": page_ops,
        "seconds": round(seconds, 6),
        "pages_per_sec": round(page_ops / seconds, 1),
        "sim_now_us": payload["sim_now_us"],
        "pages_sha256": payload["pages_sha256"],
        "read_p50_us": payload["read_p50_us"],
        "write_p50_us": payload["write_p50_us"],
        "read_hist": payload["read_hist"],
        "write_hist": payload["write_hist"],
        "queue_entries": payload["queue_entries"],
    }


def bench_rm_corrupted(ops: int, repeats: int) -> dict:
    """The corruption-heavy data path: the same cluster shape as
    :func:`bench_rm_end_to_end` (different seed) with a
    :class:`~repro.cluster.CorruptionInjector` flipping bytes in stored
    splits every fourth op, so a steady fraction of reads exercises the
    detect → correct → heal pipeline instead of the clean fast path.

    Anchors: besides ``sim_now_us`` and the read-back SHA (corrected reads
    must return the original bytes), the ``corrected_reads`` and
    ``healed_splits`` RM counters pin *how much* correction happened — if
    an optimization changes either, it changed semantics, not just speed.
    """

    def workload() -> dict:
        from ..cluster import CorruptionInjector
        from ..sim import RandomSource

        hydra = build_hydra_cluster(machines=12, k=8, r=2, delta=1, seed=3)
        rm = hydra.remote_memory(0)
        sim = hydra.sim
        injector = CorruptionInjector(sim, RandomSource(17, "perf-corrupt"))
        make_page = page_generator()
        pages = [make_page(pid) for pid in range(48)]
        digest = hashlib.sha256()

        def driver():
            for i in range(ops):
                pid = i % 48
                yield rm.write(pid, pages[pid])
                if i % 4 == 0:
                    victim = hydra.cluster.machine(1 + i % 11)
                    injector.corrupt_machine(victim, fraction=0.5)
                data = yield rm.read(pid)
                digest.update(data)

        run_process(sim, sim.process(driver(), name="perf-rm-corrupt"), until=1e12)
        return {
            "sim_now_us": sim.now,
            "pages_sha256": digest.hexdigest(),
            "corrected_reads": rm.events["corrected_reads"],
            "healed_splits": rm.events["healed_splits"],
        }

    seconds, payload = _best_of(workload, repeats)
    page_ops = 2 * ops
    if payload["corrected_reads"] == 0:
        raise RuntimeError("corrupted-path benchmark never exercised correction")
    return {
        "ops": ops,
        "page_ops": page_ops,
        "seconds": round(seconds, 6),
        "pages_per_sec": round(page_ops / seconds, 1),
        "sim_now_us": payload["sim_now_us"],
        "pages_sha256": payload["pages_sha256"],
        "corrected_reads": payload["corrected_reads"],
        "healed_splits": payload["healed_splits"],
    }


def bench_obs_overhead(ops: int, repeats: int) -> dict:
    """Wall-clock cost of the full telemetry stack on the hot data path.

    Runs the :func:`bench_rm_end_to_end` workload twice: once with the
    cluster sampler + SLO health monitor + flight recorder enabled (what
    every chaos run and ``repro top`` pay), once bare. The telemetry is
    read-only with respect to the simulation, so the simulated-time
    anchors (``sim_now_us``, ``pages_sha256``) must equal the bare run's
    — and ``rm_end_to_end``'s — exactly; only wall seconds may differ.
    ``overhead_pct`` is informational; the gated rate is the monitored
    run's ``pages_per_sec`` (the ≤5%% budget shows up as this staying
    within the ``--compare`` tolerance of its baseline).
    """

    def variant(monitored: bool) -> Callable[[], dict]:
        def workload() -> dict:
            hydra = build_hydra_cluster(machines=12, k=8, r=2, delta=1, seed=1)
            rm = hydra.remote_memory(0)
            sim = hydra.sim
            if monitored:
                # The data path spans only a few simulated ms, so sample
                # every 200 sim-us (~1 frame per 22 ops, 100x denser than
                # the production 20 ms ControlPeriod) — dense enough that
                # a sampler regression moves the number, sparse enough
                # that the steady-state cost stays inside the ~5% budget.
                hydra.cluster.obs.enable_monitoring(
                    hydra.cluster, rms=[rm], period_us=200.0
                )
            make_page = page_generator()
            pages = [make_page(pid) for pid in range(64)]
            digest = hashlib.sha256()

            def driver():
                for i in range(ops):
                    pid = i % 64
                    yield rm.write(pid, pages[pid])
                    data = yield rm.read(pid)
                    digest.update(data)

            run_process(sim, sim.process(driver(), name="perf-rm-obs"), until=1e12)
            payload = {
                "sim_now_us": sim.now,
                "pages_sha256": digest.hexdigest(),
            }
            if monitored:
                obs = hydra.cluster.obs
                payload["frames"] = obs.sampler.frames
                payload["health_transitions"] = len(obs.health.transitions)
            return payload

        return workload

    on_seconds, on_payload = _best_of(variant(True), repeats)
    off_seconds, off_payload = _best_of(variant(False), repeats)
    if on_payload["sim_now_us"] != off_payload["sim_now_us"] or (
        on_payload["pages_sha256"] != off_payload["pages_sha256"]
    ):
        raise RuntimeError(
            "telemetry perturbed the simulation: monitored and bare runs "
            "diverged on simulated-time anchors"
        )
    page_ops = 2 * ops
    return {
        "ops": ops,
        "page_ops": page_ops,
        "seconds": round(on_seconds, 6),
        "baseline_seconds": round(off_seconds, 6),
        "pages_per_sec": round(page_ops / on_seconds, 1),
        "baseline_pages_per_sec": round(page_ops / off_seconds, 1),
        "overhead_pct": round(100.0 * (on_seconds - off_seconds) / off_seconds, 2),
        "sim_now_us": on_payload["sim_now_us"],
        "pages_sha256": on_payload["pages_sha256"],
        "frames": on_payload["frames"],
        "health_transitions": on_payload["health_transitions"],
    }


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------
def run_perf_shard(name: str, quick: bool, repeats: int) -> Dict[str, dict]:
    """One shard of the suite: the benchmark(s) behind ``name``.

    Top-level (picklable) so the parallel runner can dispatch it to a
    worker process. Returns a ``{benchmark_name: payload}`` fragment that
    merges into the suite document; the payload is identical to what the
    serial suite computes for that benchmark.
    """
    (engine_events, batch_events, ec_pages, correct_pages,
     rm_ops, rm_corrupt_ops) = _suite_sizes(quick)
    if name == "engine_events":
        return {"engine_events": bench_engine(engine_events, repeats)}
    if name == "engine_events_batch":
        return {"engine_events_batch": bench_engine_batch(batch_events, repeats)}
    if name in _EC_OPS:
        return bench_ec(ec_pages, correct_pages, repeats, ops=(name,))
    if name == "rdma_completion_batch":
        return {
            "rdma_completion_batch": bench_rdma_completion_batch(
                16_000 if quick else 96_000, repeats
            )
        }
    if name == "rm_end_to_end":
        return {"rm_end_to_end": bench_rm_end_to_end(rm_ops, repeats)}
    if name == "rm_corrupted":
        return {"rm_corrupted": bench_rm_corrupted(rm_corrupt_ops, repeats)}
    if name == "obs_overhead":
        return {"obs_overhead": bench_obs_overhead(rm_ops, repeats)}
    raise ValueError(f"unknown perf shard {name!r}")


def run_perf_suite(
    quick: bool = False,
    repeats: Optional[int] = None,
    jobs: Union[int, str, None] = 1,
    metrics=None,
    progress=None,
) -> dict:
    """Run every benchmark; returns the BENCH_perf.json document.

    ``jobs`` shards the suite one benchmark per worker process through
    :func:`repro.parallel.run_shards` (``"auto"`` = core count). The
    simulated-time anchors in the document are byte-identical for every
    ``jobs`` value (see :func:`deterministic_anchors`); only the
    wall-clock ``seconds`` fields vary run to run.
    """
    from ..parallel import ShardTask, require_ok, resolve_jobs, run_shards

    if repeats is None:
        repeats = 1 if quick else 3
    jobs = resolve_jobs(jobs)

    tasks = [
        ShardTask(
            key=(index, name),
            fn=run_perf_shard,
            args=(name, quick, repeats),
            label=f"perf:{name}",
        )
        for index, name in enumerate(PERF_BENCH_NAMES)
    ]
    results = require_ok(
        run_shards(
            tasks, jobs=jobs, name="perf", metrics=metrics, progress=progress
        ),
        "perf",
    )
    benchmarks: Dict[str, dict] = {}
    for result in results:
        benchmarks.update(result.value)

    return {
        "schema": SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "ec_kernel": native_kernel_name(),
        "benchmarks": benchmarks,
    }


def deterministic_anchors(doc: dict) -> str:
    """Canonical JSON of every deterministic field of a suite document.

    Two runs at the same seed — any host, any ``--repeats``, any ``-j`` —
    must produce byte-identical anchor JSON; the determinism gate test
    pins this. Wall-clock fields (``seconds``, rates, platform strings)
    are excluded because they describe the host, not the simulation.
    """
    anchors = {
        "schema": doc["schema"],
        "quick": doc["quick"],
        "benchmarks": {
            name: {field: doc["benchmarks"][name][field] for field in fields}
            for name, fields in _ANCHOR_FIELDS.items()
            if name in doc["benchmarks"]
        },
    }
    return json.dumps(anchors, indent=2, sort_keys=True) + "\n"


def compare_results(
    current: dict, baseline: dict, tolerance: float = 0.2
) -> list:
    """The regression gate behind ``--compare``: current vs baseline.

    Returns a list of human-readable failure strings (empty = pass):

    * every benchmark present in the baseline must exist in the current
      document (benchmarks only in the current run are new — ignored);
    * every wall-clock rate field (:data:`_RATE_FIELDS`) must satisfy
      ``current >= baseline * (1 - tolerance)``. Rates are host-dependent,
      so CI uses a loose tolerance; local A/B runs can use a tight one;
    * when both documents ran the same mode (``quick`` flags match), the
      simulated-time anchor fields must be *equal* — an anchor drift is a
      semantics change, never acceptable at any tolerance.
    """
    failures = []
    current_benchmarks = current.get("benchmarks", {})
    baseline_benchmarks = baseline.get("benchmarks", {})
    same_mode = current.get("quick") == baseline.get("quick")
    floor = 1.0 - tolerance
    for name, base_row in baseline_benchmarks.items():
        row = current_benchmarks.get(name)
        if row is None:
            failures.append(f"{name}: present in baseline but missing from run")
            continue
        for field in _RATE_FIELDS:
            if field not in base_row:
                continue
            base_rate = base_row[field]
            rate = row.get(field, 0.0)
            if rate < base_rate * floor:
                failures.append(
                    f"{name}: {field} {rate:,.1f} < {floor:.2f} x "
                    f"baseline {base_rate:,.1f}"
                )
        if not same_mode:
            continue
        for field in _ANCHOR_FIELDS.get(name, ()):
            if field not in base_row:
                continue  # baseline predates this anchor
            if row.get(field) != base_row[field]:
                failures.append(
                    f"{name}: anchor {field} moved: "
                    f"{base_row[field]!r} -> {row.get(field)!r}"
                )
    return failures


def format_results(doc: dict) -> str:
    """Human-readable one-line-per-benchmark summary."""
    lines = [
        f"hydra perf suite ({'quick' if doc['quick'] else 'full'}, "
        f"best of {doc['repeats']}) — python {doc['python']}, "
        f"numpy {doc['numpy']}, ec kernel {doc['ec_kernel']}"
    ]
    b = doc["benchmarks"]
    lines.append(
        f"  {'engine':<22} {b['engine_events']['events_per_sec']:>12,} events/s"
        f"  ({b['engine_events']['events']:,} queue entries)"
    )
    if "engine_events_batch" in b:
        batch = b["engine_events_batch"]
        lines.append(
            f"  {'engine (batch)':<22} {batch['events_per_sec']:>12,} events/s"
            f"  ({batch['events']:,} fused completions)"
        )
    for name in _EC_OPS:
        row = b[name]
        lines.append(
            f"  {name:<22} {row['mb_per_sec']:>12,.1f} MB/s"
            f"  ({row['pages']} pages in {row['seconds']:.4f}s)"
        )
    if "rdma_completion_batch" in b:
        rb = b["rdma_completion_batch"]
        lines.append(
            f"  rdma_completion_batch  {rb['posts_per_sec']:>12,.1f} posts/s"
            f"  ({rb['posts']:,} verbs in {rb['seconds']:.3f}s)"
        )
    rm = b["rm_end_to_end"]
    lines.append(
        f"  rm_end_to_end          {rm['pages_per_sec']:>12,.1f} pages/s"
        f"  ({rm['page_ops']} page ops in {rm['seconds']:.3f}s, "
        f"sim t={rm['sim_now_us']:.1f}us)"
    )
    rc = b["rm_corrupted"]
    lines.append(
        f"  rm_corrupted           {rc['pages_per_sec']:>12,.1f} pages/s"
        f"  ({rc['corrected_reads']} corrected reads, "
        f"{rc['healed_splits']} healed splits in {rc['seconds']:.3f}s)"
    )
    if "obs_overhead" in b:
        ov = b["obs_overhead"]
        lines.append(
            f"  obs_overhead           {ov['pages_per_sec']:>12,.1f} pages/s"
            f"  (telemetry on, {ov['overhead_pct']:+.1f}% vs bare "
            f"{ov['baseline_pages_per_sec']:,.1f}, {ov['frames']} frames)"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI: ``python -m repro perf [--quick] [--repeats N] [-j N|auto]
    [--output PATH] [--compare BASELINE] [--tolerance F]``.

    With ``--compare`` the run is gated against a baseline document
    (see :func:`compare_results`); regressions exit 3. The baseline is
    read *before* the suite runs, so comparing against the same path
    ``--output`` overwrites is safe, and unless ``--repeats`` is given
    the run takes the baseline's recorded ``repeats``.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    quick = False
    repeats: Optional[int] = None
    jobs: Union[int, str] = 1
    output = "BENCH_perf.json"
    compare: Optional[str] = None
    tolerance = 0.2
    usage = (
        "python -m repro perf [--quick] [--repeats N] [-j N|auto] "
        "[--output PATH] [--compare BASELINE] [--tolerance F]"
    )
    while argv:
        arg = argv.pop(0)
        if arg == "--quick":
            quick = True
        elif arg == "--repeats":
            if not argv:
                print("--repeats needs a value", file=sys.stderr)
                return 2
            repeats = int(argv.pop(0))
        elif arg in ("-j", "--jobs"):
            if not argv:
                print(f"{arg} needs a value (or 'auto')", file=sys.stderr)
                return 2
            value = argv.pop(0)
            jobs = value if value == "auto" else int(value)
        elif arg == "--output":
            if not argv:
                print("--output needs a path", file=sys.stderr)
                return 2
            output = argv.pop(0)
        elif arg == "--compare":
            if not argv:
                print("--compare needs a baseline path", file=sys.stderr)
                return 2
            compare = argv.pop(0)
        elif arg == "--tolerance":
            if not argv:
                print("--tolerance needs a fraction in [0, 1)", file=sys.stderr)
                return 2
            tolerance = float(argv.pop(0))
            if not 0.0 <= tolerance < 1.0:
                print(f"--tolerance must be in [0, 1), got {tolerance}",
                      file=sys.stderr)
                return 2
        else:
            print(f"unknown argument {arg!r}; usage: {usage}", file=sys.stderr)
            return 2
    baseline: Optional[dict] = None
    if compare is not None:
        # Read up front: --output may overwrite the baseline path.
        try:
            with open(compare) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {compare!r}: {exc}", file=sys.stderr)
            return 2
        schema = baseline.get("schema") if isinstance(baseline, dict) else None
        if schema != SCHEMA:
            # Checked before the (slow) suite runs: a baseline from a
            # different schema era cannot gate anything meaningfully.
            print(
                f"baseline {compare!r} has schema {schema!r}, expected "
                f"{SCHEMA!r} — regenerate it with `python -m repro perf`",
                file=sys.stderr,
            )
            return 2
        if repeats is None and isinstance(baseline.get("repeats"), int):
            # Best-of-N rates only compare against best-of-N: one quick run
            # of a ~1 ms kernel timing reads far under a best of five.
            repeats = max(1, baseline["repeats"])
    doc = run_perf_suite(quick=quick, repeats=repeats, jobs=jobs, progress=print)
    with open(output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(format_results(doc))
    print(f"wrote {output}")
    if baseline is not None:
        failures = compare_results(doc, baseline, tolerance=tolerance)
        sides = (
            f"best of {doc.get('repeats', '?')} vs baseline best of "
            f"{baseline.get('repeats', '?')}, tolerance {tolerance:.2f}"
        )
        if failures:
            print(f"perf regression vs {compare} ({sides}):", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 3
        print(
            f"compare vs {compare}: ok "
            f"({len(baseline.get('benchmarks', {}))} benchmarks, {sides})"
        )
    return 0
