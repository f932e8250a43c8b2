"""The four benchmark workloads.

Each workload is a fixed amount of work per *segment*, so every count a
segment produces repeats exactly for a seed; how many segments a run
executes is the caller's business. A segment times its own phases (so a
cluster build inside it stays out of the timed region)
and checks every output it gets back.

Why these four — they load the layers under ``src/repro`` differently:

* ``rm_clean``       closed loop, healthy cluster: core + sim + net do
                     most of the work, ec about a tenth.
* ``rm_faults``      the same client through corruption, a crashed slab
                     host and regeneration: the ec/core fault paths.
* ``pager_openloop`` open loop in simulated time, phantom payloads: sim
                     is the largest share and ec does nothing.
* ``ec_pipeline``    the codec alone, no simulator: ec does everything.

An optimisation of one layer therefore has a workload that exercises it
and one that bypasses it, where the prediction is no change.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import traceback
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional

import numpy as np

import hostclock
from repro.cluster import CorruptionInjector
from repro.core import HydraConfig
from repro.ec import PageCodec
from repro.harness.builders import build_hydra_cluster
from repro.harness.microbench import page_generator, run_process
from repro.sim import RandomSource
from repro.vmm import PagedMemory
from repro.workloads import OpenLoopWorkload, make_arrivals

PAGE_SIZE = 4096
K, R, DELTA = 8, 2, 1
_HORIZON_US = 1e15  # simulated-time bound; no workload gets near it

_SAMPLE_EVERY_S = 0.1  # timed work between two host-speed samples

# rm.events counters reported as exact per-layer counts.
RM_EVENTS = (
    "reads", "writes", "decoded_reads", "corruption_detected",
    "corrected_reads", "healed_splits", "uncorrectable_detections",
    "degraded_writes", "regenerations", "regen_for_errors",
)


class Phase(NamedTuple):
    name: str
    kind: str      # "read" | "write" | "other"
    ops: int
    seconds: float  # host seconds


class Segment:
    """What one segment measured, counted and checked."""

    def __init__(self) -> None:
        self.phases: List[Phase] = []
        self.failed = 0
        self.exposed = 0   # rm_faults: wrong bytes from a not-yet-suspected host
        self.first_error: Optional[str] = None
        self.anchor: Dict[str, object] = {}   # exact for a seed
        self.counts: Dict[str, float] = {}    # exact for a seed
        self.read_lat: List[float] = []       # simulated us
        self.write_lat: List[float] = []
        self.req_lat: Dict[str, np.ndarray] = {}  # pager: per offered rate
        # Open loop: reads and writes interleave inside one timed phase, so
        # their counts are kept here and share the phase's seconds.
        self.mixed: Dict[str, int] = {}
        self.attempted_override: Optional[int] = None
        self.slowdowns: List[float] = []   # host-speed samples, see hostclock
        self.unsampled_s = 0.0             # timed work since the last one

    @property
    def host_scale(self) -> float:
        """Reference seconds per host second during this segment."""
        return hostclock.host_scale(self.slowdowns)

    def fail(self, exc: Optional[BaseException] = None) -> None:
        """One op raised, was refused or returned wrong bytes."""
        self.failed += 1
        if exc is not None and self.first_error is None:
            self.first_error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()

    def seconds(self, kind: Optional[str] = None) -> float:
        if kind in self.mixed:
            kind = None
        return sum(p.seconds for p in self.phases if kind in (None, p.kind))

    def ops(self, kind: Optional[str] = None) -> int:
        if kind in self.mixed:
            return self.mixed[kind]
        return sum(p.ops for p in self.phases if kind in (None, p.kind))

    @property
    def attempted(self) -> int:
        if self.attempted_override is not None:
            return self.attempted_override
        return self.ops()


def make_pages(seed: int, count: int) -> List[bytes]:
    """Seeded page contents, from the repo's own page generator."""
    make = page_generator(PAGE_SIZE, seed)
    return [make(page) for page in range(count)]


class Workload:
    """Set-up once, then any number of fixed-size segments."""

    name = ""
    anchor_segments = 2   # sim_* metrics and exact counts use this prefix

    def __init__(self, seed: int, scale: int = 1):
        self.seed = seed
        self.scale = scale      # size divisor; >1 only for --smoke
        self.tracer = None      # set after warm-up by a traced child
        self.build_s = 0.0
        self.preload_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def segment(self, index: int) -> Segment:
        raise NotImplementedError

    def plan_cache(self) -> Optional[dict]:
        """Snapshot of the EC plan cache this workload exercises."""
        return None

    @contextmanager
    def timed(self, seg: Segment, name: str, kind: str, ops):
        """Time one phase of ``ops`` operations (a callable when the count
        is only known afterwards). Tracing records only inside phases. The
        host's speed is sampled before a segment's first phase and again
        whenever ``_SAMPLE_EVERY_S`` of timed work has gone by, always
        outside the timed region."""
        if not seg.slowdowns:
            self.sample_host(seg)
        tracer = self.tracer
        if tracer is not None:
            tracer.start()
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.stop()
            seg.phases.append(Phase(name, kind, ops() if callable(ops) else ops, dt))
            seg.unsampled_s += dt
            if seg.unsampled_s >= _SAMPLE_EVERY_S:
                self.sample_host(seg)

    @staticmethod
    def sample_host(seg: Segment) -> None:
        seg.slowdowns.append(hostclock.sample()[0])
        seg.unsampled_s = 0.0

    def timed_pass(self, seg: Segment, name: str, kind: str, ops, sim,
                   generator) -> None:
        """One timed phase that is one driver process run to its end."""
        with self.timed(seg, name, kind, ops):
            _run(sim, generator, f"bench-{name}")

    def order(self, index: int, stream: int, count: int) -> List[int]:
        """Seeded shuffle; ``index`` -1 is the warm-up."""
        rng = np.random.default_rng([self.seed, index + 1, stream])
        return rng.permutation(count).tolist()


# ----------------------------------------------------------------------
# Resilience Manager drivers shared by rm_clean and rm_faults
# ----------------------------------------------------------------------
def _run(sim, generator, name: str) -> None:
    """Run ``generator`` as a process to its end; re-raises its failure."""
    run_process(sim, sim.process(generator, name=name), until=_HORIZON_US)


def _write_pass(rm, order, contents, seg: Segment):
    sim = rm.sim
    latencies = seg.write_lat
    for page in order:
        start = sim.now
        try:
            yield rm.write(page, contents[page])
        except Exception as exc:  # noqa: BLE001 - any refusal is a failed op
            seg.fail(exc)
        else:
            latencies.append(sim.now - start)


def _read_pass(rm, order, contents, seg: Segment, digest, before=None,
               unverified=None):
    """Read ``order`` and compare every byte. ``unverified()`` is asked as a
    read is issued: true while the RM still trusts the host being corrupted,
    when wrong bytes are the exposure delta=1 allows (``seg.exposed``) and
    not a failed operation."""
    sim = rm.sim
    latencies = seg.read_lat
    for i, page in enumerate(order):
        if before is not None:
            before(i)
        exposure_allowed = unverified is not None and unverified()
        start = sim.now
        try:
            data = yield rm.read(page)
        except Exception as exc:  # noqa: BLE001 - any refusal is a failed op
            seg.fail(exc)
        else:
            latencies.append(sim.now - start)
            if data == contents[page]:
                digest.update(data)
            elif exposure_allowed:
                seg.exposed += 1
            else:
                seg.fail()  # wrong bytes


def _rm_counters(hydra, rm) -> Dict[str, float]:
    nic = hydra.cluster.machine(rm.machine_id).nic
    out = {f"core.{key}": rm.events[key] for key in RM_EVENTS}
    # Entries ever scheduled; the repo's own perf suite reads the same
    # attribute as ``queue_entries``.
    out["sim.events"] = hydra.sim._active
    out["net.posts"] = nic.ops_sent
    out["net.bytes_tx"] = nic.bytes_sent
    return out


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


# ----------------------------------------------------------------------
# rm_clean
# ----------------------------------------------------------------------
class RmClean(Workload):
    """Closed loop, one client: machine 0's Resilience Manager on a
    healthy 12-machine RS(8+2), delta=1 cluster with real 4 KB payloads.
    A segment is a write-only pass then a read-only pass over every page
    in seeded-shuffled order, each read byte-compared — the paper's Fig 10
    microbenchmark. Separate passes make a write-path gain that costs
    reads visible."""

    name = "rm_clean"
    anchor_segments = 4   # 16 k reads: the p99 has > 100 samples beyond it
    machines = 12
    monitoring_period_us: Optional[float] = None

    def setup(self) -> None:
        self.n = 4096 // self.scale
        t0 = perf_counter()
        self.hydra = build_hydra_cluster(
            machines=self.machines, k=K, r=R, delta=DELTA, seed=self.seed
        )
        self.rm = self.hydra.remote_memory(0)
        if self.monitoring_period_us is not None:
            self.hydra.cluster.obs.enable_monitoring(
                self.hydra.cluster, rms=[self.rm],
                period_us=self.monitoring_period_us,
            )
        t1 = perf_counter()
        self.pages = make_pages(self.seed, self.n)
        _run(self.hydra.sim, _write_pass(self.rm, range(self.n), self.pages, Segment()),
             "bench-preload")
        self.build_s = t1 - t0
        self.preload_s = perf_counter() - t1

    def warmup(self) -> None:
        self._passes(Segment(), self.order(-1, 0, self.n)[: self.n // 8],
                     self.order(-1, 1, self.n)[: self.n // 8])

    def _passes(self, seg: Segment, write_order, read_order) -> None:
        sim = self.hydra.sim
        digest = hashlib.sha256()
        self.timed_pass(seg, "write", "write", len(write_order), sim,
                        _write_pass(self.rm, write_order, self.pages, seg))
        self.timed_pass(seg, "read", "read", len(read_order), sim,
                        _read_pass(self.rm, read_order, self.pages, seg, digest))
        seg.anchor = {"sim_now_us": sim.now, "pages_sha256": digest.hexdigest()}

    def segment(self, index: int) -> Segment:
        seg = Segment()
        gc.collect()
        before = _rm_counters(self.hydra, self.rm)
        self._passes(seg, self.order(index, 0, self.n), self.order(index, 1, self.n))
        seg.counts = _delta(_rm_counters(self.hydra, self.rm), before)
        return seg

    def plan_cache(self) -> Optional[dict]:
        return self.rm.codec.code.plan_cache.snapshot()


# ----------------------------------------------------------------------
# rm_faults
# ----------------------------------------------------------------------
class RmFaults(Workload):
    """The same client through the fault paths, on 14 machines with a
    fresh cluster per segment (build untimed) and the default error
    limits. Phases never overlap, so every page stays inside the r=2 /
    delta=1 tolerance:

    populate -> reads while the host of one data position is corrupted
    every 16 reads (unverified read -> background verify -> detect ->
    correct -> heal; at ErrorCorrectionLimit reads become verified; at
    SlabRegenerationLimit the slab is regenerated and the injector moves
    to its new host) -> settle -> that host crashes -> read pass and write
    pass with it down (the spare hosts are powered off, so regeneration
    has no target yet) -> spares return: regeneration + catch-up ->
    verified read pass.

    With delta=1 the RM returns the first k splits unverified until a
    host's error score reaches ErrorCorrectionLimit, so a read that meets
    a fresh corruption before that can return wrong bytes. That exposure
    is the specified behaviour, not a failed operation: it is counted
    (``core.exposed_wrong_reads``), and it is a failure when the read was
    issued after the host became suspected, or when the exposures outnumber
    the detections."""

    name = "rm_faults"
    machines = 14
    corrupt_every = 16          # reads between injections
    corrupt_fraction = 0.002    # of the host's splits per injection
    settle_us = 2_000.0
    regen_poll_us = 1_000.0
    regen_deadline_us = 2_000_000.0

    def setup(self) -> None:
        self.n = 2048 // self.scale
        t0 = perf_counter()
        self.pages = make_pages(self.seed, self.n)
        # Second version of every page, written while the host is down.
        self.pages_v2 = self.pages[1:] + self.pages[:1]
        self.preload_s = perf_counter() - t0
        self._last_rm = None

    def warmup(self) -> None:
        self.segment(-1, max(32, self.n // 8))

    def segment(self, index: int, n: Optional[int] = None) -> Segment:
        seg = Segment()
        n = n or self.n
        config = HydraConfig(
            k=K, r=R, delta=DELTA, slab_size_bytes=1 << 20,
            control_period_us=100_000.0,
        )
        hydra = build_hydra_cluster(
            machines=self.machines, seed=self.seed * 1009 + index + 1, config=config
        )
        rm = self._last_rm = hydra.remote_memory(0)
        sim = hydra.sim
        cluster = hydra.cluster
        injector = CorruptionInjector(
            sim, RandomSource(self.seed * 1009 + index + 1, "bench/corrupt")
        )
        digest = hashlib.sha256()
        gc.collect()

        self.timed_pass(seg, "populate", "write", n, sim,
                        _write_pass(rm, range(n), self.pages, seg))

        # -- corruption phase ---------------------------------------------
        (address_range,) = rm.space.all_ranges()
        position = (self.seed + index) % K   # a data position: forces decode
        fraction = max(self.corrupt_fraction, 2.0 / n)  # >= 2 splits at any size

        def inject(i: int) -> None:
            handle = address_range.handle(position)
            if i % self.corrupt_every == 0 and handle.available:
                injector.corrupt_machine(cluster.machine(handle.machine_id),
                                         fraction=fraction)

        def unverified() -> bool:
            host = address_range.handle(position).machine_id
            return rm.error_scores.get(host, 0.0) < config.error_correction_limit

        self.timed_pass(seg, "corrupt_read", "read", n, sim,
                        _read_pass(rm, self.order(index, 0, n), self.pages, seg,
                                   digest, before=inject, unverified=unverified))
        # Background verifies and heals of the last reads finish here.
        self.timed_pass(seg, "settle", "other", 0, sim, _sleep(sim, self.settle_us))
        if seg.exposed > rm.events["corruption_detected"]:
            seg.fail(RuntimeError("a wrong-byte read was never detected"))

        # -- crash phase: the corrupted host dies, and no spare is up ------
        hosts = address_range.machine_ids()
        spares = [m for m in cluster.machines
                  if m.id != rm.machine_id and m.id not in hosts]
        for spare in spares:
            spare.fail()
        cluster.machine(hosts[position]).fail()
        self.timed_pass(seg, "down_read", "read", n, sim,
                        _read_pass(rm, self.order(index, 2, n), self.pages, seg, digest))
        self.timed_pass(seg, "down_write", "write", n, sim,
                        _write_pass(rm, self.order(index, 3, n), self.pages_v2, seg))
        regenerated = rm.events["regenerations"]
        for spare in spares:
            spare.recover()
        self.timed_pass(seg, "regen", "other", 0, sim,
                        self._await_regeneration(rm, regenerated))
        if (rm.events["regenerations"] <= regenerated
                or len(address_range.available_positions()) != K + R):
            seg.fail(RuntimeError("slab was not regenerated inside the window"))
        self.timed_pass(seg, "post_regen_read", "read", n, sim,
                        _read_pass(rm, self.order(index, 4, n), self.pages_v2, seg,
                                   digest))

        seg.anchor = {"sim_now_us": sim.now, "pages_sha256": digest.hexdigest()}
        seg.counts = _rm_counters(hydra, rm)
        seg.counts["core.exposed_wrong_reads"] = seg.exposed
        return seg

    def _await_regeneration(self, rm, already: int):
        sim = rm.sim
        deadline = sim.now + self.regen_deadline_us
        while sim.now < deadline and (
            rm.events["regenerations"] <= already or rm.open_regen_count
        ):
            yield sim.timeout(self.regen_poll_us)

    def plan_cache(self) -> Optional[dict]:
        return self._last_rm.codec.code.plan_cache.snapshot() if self._last_rm else None


def _sleep(sim, delay_us: float):
    yield sim.timeout(delay_us)


# ----------------------------------------------------------------------
# pager_openloop
# ----------------------------------------------------------------------
class _CountingPager(PagedMemory):
    """PagedMemory that also counts SET accesses: the open-loop engine
    draws GET/SET internally and reports only totals."""

    sets = 0

    def access(self, page_id, write=False, data=None):
        self.sets += write
        return super().access(page_id, write, data)


class PagerOpenLoop(Workload):
    """Open loop in *simulated* time: Poisson arrivals, zipf(0.99) 90/10
    GET/SET through a 50 %-resident PagedMemory over a phantom-payload
    Hydra pool, two service slots and 25 us of compute per request — the
    ``repro loadgen`` defaults, whose capacity is about 77 k req/s. A
    segment is one pass over the four fixed offered rates with its own
    arrival seed, a fresh pool per rate (build and preload untimed).
    Latency runs from a request's due time to its completion; the
    generator lives on the simulated clock, so it is never late.

    Phantom payloads on purpose: with real payloads this path livelocks
    at >= 70 k req/s (see README, Known issues)."""

    name = "pager_openloop"
    anchor_segments = 1
    machines = 12
    n_pages = 512
    fit = 0.5
    rates = (20_000.0, 55_000.0, 70_000.0, 90_000.0)

    def setup(self) -> None:
        self.duration_us = 400_000.0 / self.scale

    def warmup(self) -> None:
        self._point(Segment(), self.seed, 20_000.0, self.duration_us / 8)

    def _point(self, seg: Segment, point_seed: int, rate: float,
               duration_us: float) -> dict:
        hydra = build_hydra_cluster(
            machines=self.machines, seed=point_seed, payload_mode="phantom"
        )
        sim = hydra.sim
        pager = _CountingPager(
            hydra.remote_memory(0),
            resident_pages=max(1, int(self.n_pages * self.fit)),
        )
        run_process(sim, pager.preload(range(self.n_pages)), until=_HORIZON_US)
        rng = RandomSource(point_seed, "bench/openloop")
        work = OpenLoopWorkload(
            pager, rng.child("ops"),
            make_arrivals("poisson", rng.child("arrivals"), rate),
            self.n_pages, get_fraction=0.9, zipf_alpha=0.99,
            concurrency=2, compute_us=25.0,
        )
        pager.sets = 0
        stats0 = {key: pager.stats[key] for key in ("hits", "faults", "page_ins", "page_outs")}
        before = _rm_counters(hydra, pager.backend)
        process = work.run(duration_us)
        with self.timed(seg, f"r{rate / 1000:.0f}k", "other",
                        lambda: process.value.completed):
            result = run_process(sim, process, until=_HORIZON_US)
        point = {
            "issued": result.issued,
            "completed": result.completed,
            "completed_in_window": result.completed_in_window,
            "dropped": result.dropped,
            "queue_peak": result.queue_peak,
            "sets": pager.sets,
            "sim_now_us": sim.now,
            "samples": result.latency_samples,
            "layers": _delta(_rm_counters(hydra, pager.backend), before),
        }
        for key, start in stats0.items():
            point[key] = pager.stats[key] - start
        return point

    def segment(self, index: int) -> Segment:
        seg = Segment()
        digest = hashlib.sha256()
        counts: Dict[str, float] = {}
        issued = completed = sets = 0
        for slot, rate in enumerate(self.rates):
            gc.collect()
            point = self._point(
                seg, (self.seed * 1009 + index) * 16 + slot, rate, self.duration_us
            )
            label = f"r{rate / 1000:.0f}k"
            samples = point.pop("samples")
            seg.req_lat[label] = samples
            digest.update(np.ascontiguousarray(samples).tobytes())
            seg.anchor[f"sim_now_us.{label}"] = point.pop("sim_now_us")
            seg.failed += point["issued"] - point["completed"]
            issued += point["issued"]
            completed += point["completed"]
            sets += point["sets"]
            for key, value in point.pop("layers").items():
                counts[key] = counts.get(key, 0) + value
            for key, value in point.items():
                counts[f"{label}.{key}"] = value
        seg.anchor["samples_sha256"] = digest.hexdigest()
        seg.counts = counts
        seg.mixed = {"read": completed - sets, "write": sets}
        seg.attempted_override = issued
        return seg


# ----------------------------------------------------------------------
# ec_pipeline
# ----------------------------------------------------------------------
def _nonsystematic_ksets() -> List[List[int]]:
    n = K + R
    sets = []
    for dropped in itertools.combinations(range(n), R):
        kept = [i for i in range(n) if i not in dropped]
        if kept != list(range(K)):
            sets.append(kept)
    return sets


class EcPipeline(Workload):
    """The codec alone at RS(8+2) on 4 KB pages, no simulator. Per page,
    the calls the RM data path makes: ``encode``; ``decode`` from a
    rotating non-systematic k-set; ``verify`` on k+delta splits; and on
    every 8th page a byte-flipped split through ``correct`` with the
    arguments ``_correct_and_heal`` passes. Then the batched calls
    regeneration makes, on 256-page slabs: ``encode_batch``,
    ``decode_batch``, ``correct_batch``. An op is one page through one
    call. Every decode/correct output is compared with the source page
    and every located index with the injected one. Encode-side calls are
    the "write" ops, everything that reconstructs or checks is "read"."""

    name = "ec_pipeline"
    slab_pages = 256
    correct_every = 8

    def setup(self) -> None:
        self.n = 2048 // self.scale
        t0 = perf_counter()
        self.pages = make_pages(self.seed, self.n)
        self.preload_s = perf_counter() - t0
        self.codec = PageCodec(K, R, page_size=PAGE_SIZE)
        self.ksets = _nonsystematic_ksets()
        self.build_s = perf_counter() - t0 - self.preload_s

    def warmup(self) -> None:
        self.segment(-1, max(self.correct_every, self.n // 8))

    def plan_cache(self) -> Optional[dict]:
        return self.codec.code.plan_cache.snapshot()

    def segment(self, index: int, n: Optional[int] = None) -> Segment:
        """Timed phases hold nothing but the codec calls: inputs are staged
        before a phase and outputs checked after it, so the layer budget of
        this workload is the codec's and not the driver's."""
        seg = Segment()
        codec = self.codec
        n = n or self.n
        slab_pages = min(self.slab_pages, n)
        pages, ksets = self.pages[:n], self.ksets
        all_indices = list(range(K + R))
        rng = np.random.default_rng([self.seed, index + 1, 7])
        flip_at = rng.integers(0, codec.split_size, n).tolist()
        flip_split = rng.integers(0, K + R, n).tolist()
        digest = hashlib.sha256()
        gc.collect()

        def check(outputs, expected) -> None:
            for out, page in zip(outputs, expected):
                if out != page:
                    seg.fail()

        with self.timed(seg, "encode", "write", n):
            encoded = [codec.encode(page) for page in pages]

        received = [
            {j: splits[j] for j in ksets[(i + index) % len(ksets)]}
            for i, splits in enumerate(encoded)
        ]
        with self.timed(seg, "decode", "read", n):
            decoded = [codec.decode(splits) for splits in received]
        check(decoded, pages)
        for out in decoded:
            digest.update(out)

        received = [{j: splits[j] for j in range(K + DELTA)} for splits in encoded]
        with self.timed(seg, "verify", "read", n):
            verified = [codec.verify(splits) for splits in received]
        seg.failed += verified.count(False)

        dirty = range(0, n, self.correct_every)
        received = []
        for i in dirty:
            splits = {j: encoded[i][j] for j in all_indices}
            splits[flip_split[i]] = splits[flip_split[i]].copy()
            splits[flip_split[i]][flip_at[i]] ^= 0x5A
            received.append(splits)
        with self.timed(seg, "correct", "read", len(dirty)):
            # _correct_and_heal: 10 splits -> max(1, (10-8-1)//2) = 1
            corrected = [
                codec.correct(splits, max_errors=1, best_effort=True)
                for splits in received
            ]
        check([out for out, _ in corrected], [pages[i] for i in dirty])
        if [located for _, located in corrected] != [[flip_split[i]] for i in dirty]:
            seg.fail()

        slabs = [pages[s: s + slab_pages] for s in range(0, n, slab_pages)]
        with self.timed(seg, "encode_batch", "write", n):
            stacks = [codec.encode_batch(slab) for slab in slabs]

        picks = [ksets[(number + index) % len(ksets)] for number in range(len(slabs))]
        received = [np.ascontiguousarray(stack[:, kset])
                    for stack, kset in zip(stacks, picks)]
        with self.timed(seg, "decode_batch", "read", n):
            decoded = [codec.decode_batch(kset, stack)
                       for kset, stack in zip(picks, received)]
        for out, slab in zip(decoded, slabs):
            check(out, slab)

        bad = [flip_split[number] for number in range(len(slabs))]
        for number, stack in enumerate(stacks):
            stack[:: self.correct_every, bad[number], flip_at[number]] ^= 0x33
        with self.timed(seg, "correct_batch", "read", n):
            corrected = [
                codec.correct_batch(all_indices, stack, max_errors=1, best_effort=True)
                for stack in stacks
            ]
        for number, ((out, located), slab) in enumerate(zip(corrected, slabs)):
            check(out, slab)
            want = [[bad[number]] if row % self.correct_every == 0 else []
                    for row in range(len(slab))]
            if located != want:
                seg.fail()

        seg.anchor = {"pages_sha256": digest.hexdigest()}
        seg.counts = {"pages": n}
        return seg


WORKLOADS = {
    cls.name: cls for cls in (RmClean, RmFaults, PagerOpenLoop, EcPipeline)
}
