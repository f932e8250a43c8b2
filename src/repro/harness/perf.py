"""Anchor carriers and codec rows — ``python -m repro perf``.

Host time in this repository is measured by the repo benchmark
(``BENCHMARK.json``, ``benchmarks/record/``: four workloads, rates
normalised to host speed, A/B'd by ``tools/ab_bench.py``). This suite
keeps only what that benchmark does not have:

* two **anchor carriers**, ``rm_end_to_end`` and ``rm_corrupted``: seeded
  write+read runs through a full simulated cluster whose *simulated-time*
  outputs (``sim_now_us``, a SHA-256 over every page read back, latency
  histograms, correction counters) must be byte-identical across hosts,
  repeat counts, ``-j`` values and optimisation work. If one moves, the
  change was not semantics-preserving;
* five **codec rows** with no twin among the benchmark's ``ec_pipeline``
  phases: the batched localiser's worst case, the guaranteed RS(8+3)
  mode, and the raw ``repro.ec.vectorized`` slab kernels.

Every row is one entry of :data:`_ROWS` plus one scenario function; the
shard list, the anchor map, the ``--compare`` rate fields and the lines
:func:`format_results` prints are all generated from that table, and
:func:`_measure` is the only stopwatch. Results are written as
``BENCH_perf.json`` (schema in ``docs/PERFORMANCE.md``); wall-clock rates
are best-of-N on one host and never comparable across machines.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np

from ..cluster import CorruptionInjector
from ..ec import PAGE_SIZE, PageCodec, correct_pages, decode_pages, encode_pages
from ..ec.native import native_kernel_name
from ..sim import RandomSource
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

_MB = 1024 * 1024

# Anchor tags (docs/ARCHITECTURE.md, "Model and mechanism anchors"): a
# *model* anchor describes Hydra as simulated and may never move; a
# *mechanism* anchor counts the simulator's own plumbing and may move in
# a PR that declares it and shows every model anchor equal.
MODEL = "model"
MECHANISM = "mechanism"


# ----------------------------------------------------------------------
# Codec scenarios: ``scenario(n_pages)`` stages everything, runs once to
# compile the GF plans, and returns the callable the stopwatch times.
# ----------------------------------------------------------------------
class _EcFixture:
    """RS(8+r) codec at the paper's 4 KB page, ``n_pages`` seeded pages
    encoded, and a copy with split 2 of *every* page corrupted — the
    worst case for the batched localiser, which rides clean pages through
    one residual check."""

    def __init__(self, n_pages: int, r: int = 2) -> None:
        self.codec = PageCodec(8, r, page_size=PAGE_SIZE)
        make_page = page_generator(PAGE_SIZE, seed=99)
        self.encoded = self.codec.encode_batch(
            [make_page(i) for i in range(n_pages)]
        )
        self.corrupt = self.encoded.copy()
        self.corrupt[:, 2, :16] ^= 0xA5
        self.all_indices = list(range(self.codec.n))
        self.sizes = {"pages": n_pages, "mb": round(n_pages * PAGE_SIZE / _MB, 3)}

    def timed(self, work: Callable[[], object]) -> Callable[[], dict]:
        """The row's timed callable, already run once: plan compilation
        stays out of the timed region."""

        def run() -> dict:
            work()
            return self.sizes

        run()
        return run

    def located(self, corrupted: list) -> None:
        """Check a correct call found split 2, and only it, on every page."""
        if any(bad != [2] for bad in corrupted):
            raise RuntimeError("correct benchmark failed to localize corruption")


def _ec_correct(n_pages: int) -> Callable[[], dict]:
    """Batch majority decoding from all k+r = 10 splits, best effort —
    how the RM's correction sweep calls the codec."""
    fx = _EcFixture(n_pages)
    return fx.timed(
        lambda: fx.located(
            fx.codec.correct_batch(
                fx.all_indices, fx.corrupt, max_errors=1, best_effort=True
            )[1]
        )
    )


def _ec_correct_guaranteed(n_pages: int) -> Callable[[], dict]:
    """Per-page scalar ``correct`` at RS(8+3): k+2Δ+1 = 11 splits provably
    localize any single corruption, no best-effort caveats."""
    fx = _EcFixture(n_pages, r=3)
    received = [dict(enumerate(page)) for page in fx.corrupt]
    return fx.timed(
        lambda: fx.located(
            [fx.codec.correct(splits, max_errors=1)[1] for splits in received]
        )
    )


def _ec_slab_encode(n_pages: int) -> Callable[[], dict]:
    fx = _EcFixture(n_pages)
    data = np.ascontiguousarray(fx.encoded[:, : fx.codec.k])
    return fx.timed(lambda: encode_pages(fx.codec.code, data))


def _ec_slab_decode(n_pages: int) -> Callable[[], dict]:
    """Non-systematic: data split k-1 dropped, parity split k in its
    place — the case late-binding reads actually hit."""
    fx = _EcFixture(n_pages)
    k = fx.codec.k
    indices = list(range(k - 1)) + [k]
    received = np.ascontiguousarray(fx.encoded[:, indices])
    return fx.timed(lambda: decode_pages(fx.codec.code, indices, received))


def _ec_slab_correct(n_pages: int) -> Callable[[], dict]:
    fx = _EcFixture(n_pages)
    return fx.timed(
        lambda: fx.located(
            correct_pages(
                fx.codec.code, fx.all_indices, fx.corrupt,
                max_errors=1, best_effort=True,
            )[1]
        )
    )


# ----------------------------------------------------------------------
# Anchor carriers: pages through the Resilience Manager, end to end
# ----------------------------------------------------------------------
def _write_read_pairs(ops: int, seed: int, n_pages: int, corrupt_every: int = 0):
    """The driver both anchor carriers share: a 12-machine RS(8+2), Δ=1
    cluster with real payloads and read verification on (the default
    configuration) runs ``ops`` write+read pairs round-robin over
    ``n_pages`` pages. With ``corrupt_every``, a
    :class:`~repro.cluster.CorruptionInjector` flips bytes in half the
    splits stored on one machine between the write and the read of every
    ``corrupt_every``-th pair. Returns ``(rm, fields)``; the cluster build
    is part of what the stopwatch times.
    """
    hydra = build_hydra_cluster(machines=12, k=8, r=2, delta=1, seed=seed)
    rm = hydra.remote_memory(0)
    sim = hydra.sim
    # Inert (own RNG stream, no process) until ``corrupt_machine`` is called.
    injector = CorruptionInjector(sim, RandomSource(17, "perf-corrupt"))
    make_page = page_generator()
    pages = [make_page(pid) for pid in range(n_pages)]
    digest = hashlib.sha256()

    def driver():
        for i in range(ops):
            pid = i % n_pages
            yield rm.write(pid, pages[pid])
            if corrupt_every and i % corrupt_every == 0:
                victim = hydra.cluster.machine(1 + i % 11)
                injector.corrupt_machine(victim, fraction=0.5)
            data = yield rm.read(pid)
            digest.update(data)

    run_process(sim, sim.process(driver(), name="perf-rm"), until=1e12)
    return rm, {
        "ops": ops,
        "page_ops": 2 * ops,  # each pair moves one page out and one back
        "sim_now_us": sim.now,
        "pages_sha256": digest.hexdigest(),
    }


def _rm_end_to_end(ops: int) -> Callable[[], dict]:
    """The headline clean path over 64 pages; carries the full latency
    distributions and the queue-entry count."""

    def run() -> dict:
        rm, fields = _write_read_pairs(ops, seed=1, n_pages=64)
        fields.update(
            read_p50_us=rm.read_latency.p50,
            write_p50_us=rm.write_latency.p50,
            read_hist=rm.read_latency.hist.to_dict(),
            write_hist=rm.write_latency.hist.to_dict(),
            queue_entries=rm.sim._active,
        )
        return fields

    return run


def _rm_corrupted(ops: int) -> Callable[[], dict]:
    """The detect → correct → heal pipeline: every fourth pair reads
    through fresh corruption. ``corrected_reads`` and ``healed_splits``
    pin *how much* correction happened, and the SHA that corrected reads
    returned the original bytes."""

    def run() -> dict:
        rm, fields = _write_read_pairs(ops, seed=3, n_pages=48, corrupt_every=4)
        fields.update(
            corrected_reads=rm.events["corrected_reads"],
            healed_splits=rm.events["healed_splits"],
        )
        if not fields["corrected_reads"]:
            raise RuntimeError("corrupted-path benchmark never exercised correction")
        return fields

    return run


# ----------------------------------------------------------------------
# The row table and the stopwatch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Row:
    """One benchmark. Adding one is this entry plus its scenario."""

    name: str
    # scenario(size) -> run; run() -> the row's deterministic fields.
    # Whatever the scenario does before returning ``run`` is untimed.
    scenario: Callable[[int], Callable[[], dict]]
    quick: int  # size under --quick
    full: int
    work: str  # result field holding the amount of work one run does
    rate: str  # result field for work / best seconds; gated by --compare
    unit: str
    detail: str  # format_results' parenthesis, formatted with the result
    anchors: Dict[str, str]  # deterministic field -> MODEL | MECHANISM


_EC = ("mb", "mb_per_sec", "MB/s", "{pages} pages in {seconds:.4f}s",
       {"pages": MODEL, "mb": MODEL})
_RM = ("page_ops", "pages_per_sec", "pages/s")
# The slab rows run 256 pages (1 MB, the kernels' design point) in both
# modes, so their MB/s is comparable across modes.
_SLAB_PAGES = 256

_ROWS = {
    row.name: row
    for row in (
        _Row("ec_correct", _ec_correct, 64, 384, *_EC),
        _Row("ec_correct_guaranteed", _ec_correct_guaranteed, 64, 384, *_EC),
        _Row("ec_slab_encode", _ec_slab_encode, _SLAB_PAGES, _SLAB_PAGES, *_EC),
        _Row("ec_slab_decode", _ec_slab_decode, _SLAB_PAGES, _SLAB_PAGES, *_EC),
        _Row("ec_slab_correct", _ec_slab_correct, _SLAB_PAGES, _SLAB_PAGES, *_EC),
        _Row(
            "rm_end_to_end", _rm_end_to_end, 300, 2000, *_RM,
            "{page_ops} page ops in {seconds:.3f}s, sim t={sim_now_us:.1f}us",
            {
                "ops": MODEL,
                "page_ops": MODEL,
                "sim_now_us": MODEL,
                "pages_sha256": MODEL,
                "read_p50_us": MODEL,
                "write_p50_us": MODEL,
                "read_hist": MODEL,
                "write_hist": MODEL,
                "queue_entries": MECHANISM,
            },
        ),
        _Row(
            "rm_corrupted", _rm_corrupted, 120, 800, *_RM,
            "{corrected_reads} corrected reads, {healed_splits} healed splits "
            "in {seconds:.3f}s",
            {
                "ops": MODEL,
                "sim_now_us": MODEL,
                "pages_sha256": MODEL,
                "corrected_reads": MODEL,
                "healed_splits": MODEL,
            },
        ),
    )
}

# Canonical benchmark order; also the shard decomposition for ``-j``.
PERF_BENCH_NAMES = tuple(_ROWS)


def _measure(row: _Row, size: int, repeats: int) -> dict:
    """The one stopwatch: best wall time over ``repeats`` runs of the
    row's scenario (minimum-of-N is robust against other load on the
    machine), merged with the deterministic fields the run returned."""
    run = row.scenario(size)
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fields = run()
        best = min(best, time.perf_counter() - t0)
    return {
        **fields,
        "seconds": round(best, 6),
        row.rate: round(fields[row.work] / best, 2),
    }


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------
def run_perf_shard(name: str, quick: bool, repeats: int) -> Dict[str, dict]:
    """One shard of the suite: the benchmark behind ``name``.

    Top-level (picklable) so the parallel runner can dispatch it to a
    worker process. Returns a ``{benchmark_name: payload}`` fragment that
    merges into the suite document; the payload is identical to what the
    serial suite computes for that benchmark.
    """
    row = _ROWS.get(name)
    if row is None:
        raise ValueError(f"unknown perf shard {name!r}")
    return {name: _measure(row, row.quick if quick else row.full, repeats)}


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
            name: {field: doc["benchmarks"][name][field] for field in row.anchors}
            for name, row in _ROWS.items()
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
    * every row's wall-clock rate must satisfy
      ``current >= baseline * (1 - tolerance)``. Rates are host-dependent,
      so CI uses a loose tolerance; local A/B runs can use a tight one;
    * when both documents ran the same mode (``quick`` flags match), the
      anchor fields must be *equal* — an anchor drift is a semantics
      change, never acceptable at any tolerance. The message carries the
      field's model/mechanism tag.
    """
    failures = []
    current_benchmarks = current.get("benchmarks", {})
    same_mode = current.get("quick") == baseline.get("quick")
    floor = 1.0 - tolerance
    for name, base_row in baseline.get("benchmarks", {}).items():
        row = current_benchmarks.get(name)
        if row is None:
            failures.append(f"{name}: present in baseline but missing from run")
            continue
        spec = _ROWS.get(name)
        if spec is None:
            continue  # not a row of this suite: nothing it can gate
        if spec.rate in base_row:
            base_rate = base_row[spec.rate]
            rate = row.get(spec.rate, 0.0)
            if rate < base_rate * floor:
                failures.append(
                    f"{name}: {spec.rate} {rate:,.1f} < {floor:.2f} x "
                    f"baseline {base_rate:,.1f}"
                )
        if not same_mode:
            continue
        for field, tag in spec.anchors.items():
            if field not in base_row:
                continue  # baseline predates this anchor
            if row.get(field) != base_row[field]:
                failures.append(
                    f"{name}: {tag} anchor {field} moved: "
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
    for row in _ROWS.values():
        result = doc["benchmarks"][row.name]
        lines.append(
            f"  {row.name:<22} {result[row.rate]:>12,.1f} {row.unit}"
            f"  ({row.detail.format(**result)})"
        )
    return "\n".join(lines)


def _carried_sections(path: str) -> dict:
    """What other commands merged into the document at ``path`` and a
    rewrite must keep: ``repro bench --record`` stores its
    ``bench_parallel`` summary in the same file."""
    try:
        with open(path) as fh:
            existing = json.load(fh)
    except (OSError, ValueError):
        return {}
    if isinstance(existing, dict) and "bench_parallel" in existing:
        return {"bench_parallel": existing["bench_parallel"]}
    return {}


def main(argv=None) -> int:
    """CLI: ``python -m repro perf``; returns the exit status.

    With ``--compare`` the run is gated against a baseline document
    (see :func:`compare_results`); regressions exit 3. The baseline is
    read *before* the suite runs, so comparing against the same path
    ``--output`` overwrites is safe, and unless ``--repeats`` is given
    the run takes the baseline's recorded ``repeats``.
    """
    import argparse

    from ..parallel import resolve_jobs

    def fraction(value: str) -> float:
        tolerance = float(value)
        if not 0.0 <= tolerance < 1.0:
            raise argparse.ArgumentTypeError(f"must be in [0, 1), got {tolerance}")
        return tolerance

    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="Run the perf suite into BENCH_perf.json, optionally "
        "gated against a baseline (exit 3 on a regression).",
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized rows")
    parser.add_argument(
        "--repeats", type=int, metavar="N",
        help="best of N timings (default: the baseline's, else 1 quick / 3)",
    )
    parser.add_argument(
        "-j", "--jobs", type=resolve_jobs, default=1, metavar="N",
        help="worker processes (number, 0 or 'auto'; default 1)",
    )
    parser.add_argument("--output", default="BENCH_perf.json", metavar="PATH")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="gate the run against this document")
    parser.add_argument("--tolerance", type=fraction, default=0.2, metavar="F",
                        help="allowed rate drop in [0, 1) (default 0.2)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    compare, repeats, tolerance = args.compare, args.repeats, args.tolerance
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
    doc = run_perf_suite(
        quick=args.quick, repeats=repeats, jobs=args.jobs, progress=print
    )
    doc.update(_carried_sections(args.output))
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(format_results(doc))
    print(f"wrote {args.output}")
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
