"""Sharded figure-suite driver — ``python -m repro bench [-j N]``.

The ``benchmarks/`` directory regenerates every paper table and figure as
a pytest module (``bench_fig01_tradeoff.py`` …). Serially that is minutes
of independent work, so this module shards it across worker processes
through :mod:`repro.parallel.runner`: one shard per benchmark module,
except Figures 17-18 and Table 3, which share the session-scoped
50-machine cluster experiment and therefore travel as a single
``cluster`` shard (splitting them would rebuild the experiment three
times).

Each shard runs ``pytest`` *in its worker process* with stdout captured,
then reports the exit code plus a SHA-256 per report file it wrote
(``benchmarks/conftest.py`` records them in ``WRITTEN_REPORTS``). The
report hashes are the determinism contract: every figure is seeded
simulated-time output, so two runs at any ``-j`` produce byte-identical
``benchmarks/results/*.txt`` — pinned by
``tests/test_parallel_determinism.py`` via :func:`bench_report_digest`.

Shards always execute in worker processes, even at ``-j 1``: running
``pytest.main`` inside the calling process would collide with an outer
pytest session (the determinism gate test drives this module from one).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .runner import ShardTask, resolve_jobs, run_shards

__all__ = [
    "BENCH_SCHEMA",
    "CLUSTER_FILES",
    "discover_shards",
    "run_bench_shard",
    "run_bench",
    "bench_report_digest",
    "main",
]

BENCH_SCHEMA = "hydra-bench/1"

# These three share the session-scoped ``cluster_runs`` fixture (one
# 50-machine experiment per backend); grouping them into one shard runs
# that experiment once instead of three times.
CLUSTER_FILES = (
    "bench_fig17_cluster_load.py",
    "bench_fig18_cluster_completion.py",
    "bench_tab03_cluster_latency.py",
)


def discover_shards(
    bench_dir: str = "benchmarks", substring: Optional[str] = None
) -> List[Tuple[str, Tuple[str, ...]]]:
    """``(shard_name, file_paths)`` for every figure/table module.

    One shard per ``bench_*.py`` in ``bench_dir`` (top level only), with :data:`CLUSTER_FILES` merged into a ``cluster`` shard.
    Sorted by shard name so the decomposition — and therefore the merged
    output order — is deterministic. ``substring`` filters shard names.
    """
    try:
        entries = sorted(os.listdir(bench_dir))
    except FileNotFoundError:
        raise FileNotFoundError(
            f"benchmark directory {bench_dir!r} not found "
            "(run from the repository root or pass --dir)"
        ) from None
    shards: Dict[str, List[str]] = {}
    for entry in entries:
        if not (entry.startswith("bench_") and entry.endswith(".py")):
            continue
        path = os.path.join(bench_dir, entry)
        if entry in CLUSTER_FILES:
            shards.setdefault("cluster", []).append(path)
        else:
            shards[entry[len("bench_"):-len(".py")]] = [path]
    picked = sorted(
        (name, tuple(files))
        for name, files in shards.items()
        if substring is None or substring in name
    )
    return picked


def run_bench_shard(
    name: str, files: Sequence[str], results_dir: Optional[str] = None
) -> dict:
    """One shard: an in-process pytest run over ``files``, summarized.

    Top-level (picklable) for worker dispatch; must only run in a worker
    process (see module docstring). ``results_dir`` redirects
    ``write_report`` output for this shard's process via the
    ``REPRO_BENCH_RESULTS_DIR`` env var.
    """
    import contextlib
    import io

    import pytest

    if results_dir:
        os.environ["REPRO_BENCH_RESULTS_DIR"] = os.path.abspath(results_dir)
    # A forked worker inherits the parent's modules; the benchmark
    # conftest must be imported fresh so WRITTEN_REPORTS and RESULTS_DIR
    # belong to this shard alone.
    sys.modules.pop("conftest", None)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = pytest.main(["-q", "-p", "no:cacheprovider", *files])
    conftest = sys.modules.get("conftest")
    written = sorted(getattr(conftest, "WRITTEN_REPORTS", ()))
    output = buf.getvalue()
    lines = [line for line in output.strip().splitlines() if line.strip()]
    return {
        "name": name,
        "files": [os.path.basename(path) for path in files],
        "exit_code": int(code),
        "reports": [{"name": n, "sha256": digest} for n, digest in written],
        "output": output[-4000:] if code else (lines[-1] if lines else ""),
    }


def run_bench(
    bench_dir: str = "benchmarks",
    jobs: Union[int, str, None] = 1,
    *,
    substring: Optional[str] = None,
    results_dir: Optional[str] = None,
    metrics=None,
    progress=None,
) -> dict:
    """Run the figure suite sharded across ``jobs`` workers.

    Returns the bench document: per-shard exit codes, report hashes and
    wall seconds, plus ``serial_seconds_sum`` (the sum of shard wall
    times ≈ a serial run) against ``wall_seconds`` for the realized
    speedup. A shard whose worker crashes after retries or whose pytest
    exits non-zero makes the document ``ok: false`` — never silently
    dropped.
    """
    jobs = resolve_jobs(jobs)
    discovered = discover_shards(bench_dir, substring)
    if not discovered:
        raise ValueError(
            f"no benchmark shards match {substring!r} in {bench_dir!r}"
        )
    tasks = [
        ShardTask(
            key=(name,),
            fn=run_bench_shard,
            args=(name, files),
            kwargs={"results_dir": results_dir},
            label=f"bench:{name}",
        )
        for name, files in discovered
    ]
    t0 = time.perf_counter()
    results = run_shards(
        tasks,
        jobs=jobs,
        name="bench",
        metrics=metrics,
        progress=progress,
        serial_in_process=False,
    )
    wall = time.perf_counter() - t0

    shards = []
    for result in results:
        if result.ok:
            entry = dict(result.value)
        else:
            entry = {
                "name": result.key[0],
                "files": [],
                "exit_code": None,
                "reports": [],
                "output": result.failure_summary(),
            }
        entry["seconds"] = round(result.seconds, 3)
        shards.append(entry)
    serial_sum = sum(entry["seconds"] for entry in shards)
    return {
        "schema": BENCH_SCHEMA,
        "bench_dir": bench_dir,
        "jobs": jobs,
        "host_cpus": resolve_jobs("auto"),
        "shards": shards,
        "ok": all(entry["exit_code"] == 0 for entry in shards),
        "wall_seconds": round(wall, 3),
        "serial_seconds_sum": round(serial_sum, 3),
        "speedup_vs_serial_sum": round(serial_sum / wall, 2) if wall else None,
    }


def bench_report_digest(doc: dict) -> str:
    """Canonical JSON of every deterministic field of a bench document.

    Report-file hashes and exit codes per shard, nothing wall-clock —
    byte-identical across hosts and ``-j`` values for a given tree.
    """
    digest = {
        "schema": doc["schema"],
        "shards": [
            {
                "name": entry["name"],
                "files": entry["files"],
                "exit_code": entry["exit_code"],
                "reports": entry["reports"],
            }
            for entry in doc["shards"]
        ],
    }
    return json.dumps(digest, indent=2, sort_keys=True) + "\n"


def _record(path: str, doc: dict) -> None:
    """Merge the bench speedup summary into ``BENCH_perf.json``."""
    existing: dict = {}
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
    existing["bench_parallel"] = {
        "jobs": doc["jobs"],
        "host_cpus": doc["host_cpus"],
        "wall_seconds": doc["wall_seconds"],
        "serial_seconds_sum": doc["serial_seconds_sum"],
        "speedup_vs_serial_sum": doc["speedup_vs_serial_sum"],
        "shard_seconds": {
            entry["name"]: entry["seconds"] for entry in doc["shards"]
        },
    }
    with open(path, "w") as fh:
        json.dump(existing, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    """CLI: ``python -m repro bench [-j N|auto] [--filter SUBSTR] [--list]
    [--dir DIR] [--results-dir DIR] [--record PATH]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Regenerate the paper's figures/tables (benchmarks/) "
        "sharded across worker processes.",
    )
    parser.add_argument(
        "-j", "--jobs", type=resolve_jobs, default=1, metavar="N",
        help="worker processes (number, 0 or 'auto'; default 1)",
    )
    parser.add_argument(
        "--filter", metavar="SUBSTR",
        help="only run shards whose name contains SUBSTR",
    )
    parser.add_argument(
        "--list", action="store_true", help="list shards and exit"
    )
    parser.add_argument(
        "--dir", default="benchmarks", help="benchmark directory"
    )
    parser.add_argument(
        "--results-dir", metavar="DIR",
        help="redirect benchmarks/results output to DIR",
    )
    parser.add_argument(
        "--record", metavar="PATH",
        help="merge the speedup summary into PATH (BENCH_perf.json)",
    )
    args = parser.parse_args(argv)

    shards = discover_shards(args.dir, args.filter)
    if args.list:
        for name, files in shards:
            print(f"{name:<24} {' '.join(os.path.basename(f) for f in files)}")
        return 0
    if not shards:
        print(f"no benchmark shards match {args.filter!r}", file=sys.stderr)
        return 2

    print(
        f"bench: {len(shards)} shard(s) from {args.dir}/ at -j {args.jobs}"
    )
    doc = run_bench(
        args.dir,
        args.jobs,
        substring=args.filter,
        results_dir=args.results_dir,
        progress=print,
    )
    print()
    for entry in doc["shards"]:
        status = "ok" if entry["exit_code"] == 0 else "FAILED"
        print(
            f"  {entry['name']:<24} {status:<6} {entry['seconds']:7.2f}s  "
            f"{len(entry['reports'])} report(s)"
        )
        if entry["exit_code"] != 0:
            print("    " + entry["output"].replace("\n", "\n    "))
    print(
        f"\nwall {doc['wall_seconds']}s vs serial-sum "
        f"{doc['serial_seconds_sum']}s -> speedup "
        f"{doc['speedup_vs_serial_sum']}x at -j {doc['jobs']} "
        f"({doc['host_cpus']} host cpus)"
    )
    if args.record:
        _record(args.record, doc)
        print(f"recorded bench_parallel in {args.record}")
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
