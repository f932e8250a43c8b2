"""The determinism gate: parallel output is byte-identical to serial.

This is the contract every ``-j`` flag in the repository is held to
(``docs/PERFORMANCE.md``): sharding an experiment across worker
processes may change only wall-clock time, never a single byte of the
deterministic outputs. Each test runs the same seeded workload twice —
once on the in-process serial reference path (``jobs=1``) and once
sharded across two workers — and compares canonical artifacts:

* perf suite — :func:`repro.harness.perf.deterministic_anchors`;
* chaos soak — :func:`repro.chaos.soak_json` (the ``soak.json`` bytes);
* figure suite — :func:`repro.parallel.bench.bench_report_digest` plus
  the raw ``results/*.txt`` bytes the benchmark wrote;
* loadgen — :func:`repro.harness.loadgen.loadgen_canonical_json` for
  both the offered-load sweep and the trace-replay suite.
"""

import json
from pathlib import Path

from repro.chaos import ChaosConfig, run_soak, soak_json
from repro.harness.loadgen import (
    loadgen_canonical_json,
    run_replay_suite,
    run_sweep,
)
from repro.harness.perf import deterministic_anchors, run_perf_suite
from repro.parallel.bench import bench_report_digest, run_bench


def test_perf_suite_parallel_matches_serial_anchors():
    serial = run_perf_suite(quick=True, repeats=1, jobs=1)
    parallel = run_perf_suite(quick=True, repeats=1, jobs=2)
    assert serial["jobs"] == 1 and parallel["jobs"] == 2
    assert deterministic_anchors(parallel) == deterministic_anchors(serial)

    # The committed baseline pins the same anchors: a model drift fails
    # here, in tier-1, not only in the CI perf-smoke job.
    committed = json.loads(
        (Path(__file__).parent.parent / "BENCH_perf.json").read_text()
    )
    assert committed["quick"] is True
    pinned = json.loads(deterministic_anchors(committed))["benchmarks"]
    ran = json.loads(deterministic_anchors(serial))["benchmarks"]
    assert {"rm_end_to_end", "rm_corrupted"} <= pinned.keys() & ran.keys()
    for name in pinned.keys() & ran.keys():
        assert ran[name] == pinned[name], name

    # The end-to-end latency distributions are anchored as full HDR
    # histogram dumps: every bucket count and every derived percentile
    # must be byte-identical between the serial and sharded runs.
    for doc in (serial, parallel):
        for direction in ("read", "write"):
            hist = doc["benchmarks"]["rm_end_to_end"][f"{direction}_hist"]
            assert hist["count"] > 0 and hist["buckets"]
    serial_rm = serial["benchmarks"]["rm_end_to_end"]
    parallel_rm = parallel["benchmarks"]["rm_end_to_end"]
    assert json.dumps(serial_rm["read_hist"], sort_keys=True) == json.dumps(
        parallel_rm["read_hist"], sort_keys=True
    )
    assert json.dumps(serial_rm["write_hist"], sort_keys=True) == json.dumps(
        parallel_rm["write_hist"], sort_keys=True
    )


def test_chaos_soak_parallel_matches_serial_bytes():
    config = ChaosConfig.quick()
    serial = run_soak(3, 2, config=config, jobs=1)
    parallel = run_soak(3, 2, config=config, jobs=2)
    assert soak_json(parallel) == soak_json(serial)
    assert [entry["seed"] for entry in serial["seeds"]] == [3, 4]
    assert all("report_sha256" in entry for entry in serial["seeds"])

    # Per-seed campaign histograms merge into the soak-wide latency
    # section; the merge is per-bucket addition, so buckets and
    # percentiles match the serial reference byte for byte.
    for direction in ("read", "write"):
        merged_serial = serial["latency"][direction]
        merged_parallel = parallel["latency"][direction]
        assert merged_serial == merged_parallel
        assert merged_serial["count"] == sum(
            entry["latency"][direction]["count"] for entry in serial["seeds"]
        )
        assert merged_serial["histogram"]["buckets"]
        assert merged_serial["p50"] <= merged_serial["p99"]


def test_figure_benchmark_parallel_matches_serial_bytes(tmp_path):
    dirs = {1: tmp_path / "j1", 2: tmp_path / "j2"}
    docs = {
        jobs: run_bench(jobs=jobs, substring="fig01", results_dir=str(path))
        for jobs, path in dirs.items()
    }
    assert all(doc["ok"] for doc in docs.values())
    assert bench_report_digest(docs[1]) == bench_report_digest(docs[2])

    serial_report = (dirs[1] / "fig01_tradeoff.txt").read_bytes()
    parallel_report = (dirs[2] / "fig01_tradeoff.txt").read_bytes()
    assert serial_report == parallel_report
    assert b"Figure 1" in serial_report


# Small grid, short points: the gate cares about byte equality, not
# about where the knee lands.
_SWEEP_KW = dict(
    rates=(20_000.0, 60_000.0, 100_000.0),
    seeds=2,
    duration_us=30_000.0,
    quick=True,
)


def test_loadgen_sweep_parallel_matches_serial_bytes():
    serial = run_sweep(jobs=1, **_SWEEP_KW)
    parallel = run_sweep(jobs=2, **_SWEEP_KW)
    assert serial["jobs"] == 1 and parallel["jobs"] == 2
    assert loadgen_canonical_json(parallel) == loadgen_canonical_json(serial)
    # The per-rate sample digests are the strongest anchors: identical
    # digests mean every pooled latency sample matched to 1e-6 us.
    for point_serial, point_parallel in zip(serial["points"], parallel["points"]):
        assert point_serial["n_samples"] > 0
        assert point_serial["samples_sha256"] == point_parallel["samples_sha256"]


def test_trace_replay_parallel_matches_serial_bytes():
    serial = run_replay_suite(jobs=1, seeds=2, quick=True)
    parallel = run_replay_suite(jobs=2, seeds=2, quick=True)
    assert loadgen_canonical_json(parallel) == loadgen_canonical_json(serial)
    assert serial["overall"]["n_samples"] > 0
    assert (
        serial["overall"]["samples_sha256"]
        == parallel["overall"]["samples_sha256"]
    )
