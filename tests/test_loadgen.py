"""Loadgen suite: knee detection, canonical percentiles, resampling
statistics, open-loop behavior, trace replay, and the CLI."""

import json

import numpy as np
import pytest

from repro.harness.loadgen import (
    LOADGEN_SCHEMA,
    detect_knee,
    loadgen_canonical_json,
    main as loadgen_main,
)
from repro.harness.report import (
    STATISTICS,
    bootstrap_ci,
    format_ci_series,
    percentile,
    permutation_pvalue,
)
from repro.harness.scenarios import run_open_loop_point, run_trace_replay_point
from repro.sim import RandomSource
from repro.workloads import ReplayTrace, TraceEpoch


# ----------------------------------------------------------------------
# knee detection regressions
# ----------------------------------------------------------------------
def test_knee_detected_on_hockey_stick():
    # Synthetic M/M/1-ish curve: flat, flat, turn, explode. The knee must
    # land within one sweep step of the turn (index 3).
    xs = [20e3, 40e3, 60e3, 80e3, 100e3, 120e3]
    ys = [57.0, 70.0, 144.0, 3_895.0, 30_063.0, 55_824.0]
    knee = detect_knee(xs, ys)
    assert knee is not None
    assert knee["index"] in (2, 3, 4)
    assert abs(knee["index"] - 3) <= 1
    assert knee["offered_per_sec"] == xs[knee["index"]]
    assert knee["p99_us"] == ys[knee["index"]]
    assert knee["bulge"] > 0.1


def test_knee_sharper_curve_moves_knee():
    # An earlier explosion moves the knee earlier by the same rule.
    xs = [1, 2, 3, 4, 5]
    ys = [10.0, 12.0, 500.0, 5_000.0, 50_000.0]
    knee = detect_knee(xs, ys)
    assert knee is not None and knee["index"] in (2, 3)


def test_knee_none_when_flat():
    # No saturation inside the sweep: never report a knee.
    assert detect_knee([1, 2, 3, 4], [10.0, 10.5, 10.2, 10.4]) is None
    assert detect_knee([1, 2, 3, 4], [10.0, 11.0, 12.0, 13.0]) is None  # <50% rise


def test_knee_none_when_monotone_degenerate():
    # Linear growth has no turning point — the normalized bulge is ~0.
    assert detect_knee([1, 2, 3, 4, 5], [10.0, 20.0, 30.0, 40.0, 50.0]) is None
    # Concave (decelerating) growth bulges the wrong way.
    assert detect_knee([1, 2, 3, 4, 5], [10.0, 40.0, 55.0, 62.0, 65.0]) is None


def test_knee_degenerate_inputs():
    assert detect_knee([1, 2], [1.0, 100.0]) is None  # too few points
    with pytest.raises(ValueError):
        detect_knee([1, 2, 2, 4], [1.0, 2.0, 3.0, 4.0])  # non-increasing xs
    with pytest.raises(ValueError):
        detect_knee([1, 2, 3], [1.0, 2.0])  # length mismatch


# ----------------------------------------------------------------------
# percentile canon + resampling statistics
# ----------------------------------------------------------------------
def test_percentile_linear_interpolation_pinned():
    # The canonical definition is linear interpolation between closest
    # ranks. [1,2,3,4]: p50 = 2.5 — nearest-rank would report 2 or 3.
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 25) == 1.75
    assert percentile([0.0, 10.0], 50) == 5.0
    assert percentile([7.0], 99) == 7.0
    assert percentile([5.0, 1.0, 3.0], 0) == 1.0  # sorts internally
    assert percentile([5.0, 1.0, 3.0], 100) == 5.0


def test_percentile_matches_numpy_everywhere():
    rng = np.random.default_rng(7)
    for size in (2, 5, 101, 1_000):
        values = rng.exponential(100.0, size=size)
        for pct in (1, 25, 50, 90, 99, 99.9):
            assert percentile(values, pct) == pytest.approx(
                float(np.percentile(values, pct)), rel=1e-12
            )


def test_percentile_differs_from_nearest_rank_histogram():
    # The historical inconsistency this helper resolves: the HDR
    # histogram path reports nearest-rank bucket upper bounds, which on
    # small samples disagrees with linear interpolation. Pin both so the
    # difference stays documented rather than accidental.
    from repro.sim.trace import LatencyRecorder

    recorder = LatencyRecorder("pin", reservoir_limit=2)
    for value in (1.0, 2.0, 3.0, 4.0):
        recorder.record(value)  # beyond the reservoir -> histogram path
    histogram_p50 = recorder.summary().p50
    linear_p50 = percentile([1.0, 2.0, 3.0, 4.0], 50)
    assert linear_p50 == 2.5
    assert histogram_p50 != linear_p50  # bucket upper bound, by design


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -1)


def test_bootstrap_ci_is_deterministic_and_brackets_the_statistic():
    rng = np.random.default_rng(11)
    values = rng.lognormal(3.0, 1.0, size=400)
    for name in STATISTICS:
        lo, hi = bootstrap_ci(values, statistic=name, seed=5)
        again = bootstrap_ci(values, statistic=name, seed=5)
        assert (lo, hi) == again  # seeded -> byte-stable
        point = STATISTICS[name](values)
        assert lo <= point <= hi
        assert lo < hi
    single = bootstrap_ci([42.0], statistic="mean")
    assert single == (42.0, 42.0)
    with pytest.raises(ValueError):
        bootstrap_ci([], statistic="mean")
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], statistic="p75")  # unknown name
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], confidence=1.0)


def test_bootstrap_ci_narrows_with_more_samples():
    rng = np.random.default_rng(13)
    small = rng.normal(100.0, 10.0, size=50)
    large = rng.normal(100.0, 10.0, size=5_000)
    lo_s, hi_s = bootstrap_ci(small, statistic="mean", seed=1)
    lo_l, hi_l = bootstrap_ci(large, statistic="mean", seed=1)
    assert (hi_l - lo_l) < (hi_s - lo_s)


def test_permutation_pvalue_separates_real_shifts_from_noise():
    rng = np.random.default_rng(17)
    a = rng.normal(100.0, 5.0, size=200)
    same = rng.normal(100.0, 5.0, size=200)
    shifted = rng.normal(110.0, 5.0, size=200)
    p_same = permutation_pvalue(a, same, seed=3)
    p_shift = permutation_pvalue(a, shifted, seed=3)
    assert p_same > 0.05
    assert p_shift < 0.01
    assert permutation_pvalue(a, same, seed=3) == p_same  # deterministic
    with pytest.raises(ValueError):
        permutation_pvalue([], [1.0])


def test_format_ci_series_renders_bounds():
    text = format_ci_series("p99", [10, 20], [1.0, 2.5], [0.9, 2.0], [1.1, 3.0])
    assert text == "p99: 10=1.0 [0.9, 1.1], 20=2.5 [2.0, 3.0]"


# ----------------------------------------------------------------------
# open-loop + replay behavior (single points; the sweep itself is pinned
# by the determinism gate)
# ----------------------------------------------------------------------
def test_open_loop_keeps_up_below_capacity():
    point = run_open_loop_point(
        rate_per_sec=20_000.0, duration_us=50_000.0, seed=1
    )
    assert point["achieved_per_sec"] == pytest.approx(20_000.0, rel=0.15)
    assert point["dropped"] == 0
    assert point["completed"] == point["issued"]
    assert point["p50_us"] < 100.0
    assert len(point["samples"]) == point["completed"]


def test_open_loop_saturates_above_capacity():
    light = run_open_loop_point(
        rate_per_sec=20_000.0, duration_us=50_000.0, seed=1
    )
    heavy = run_open_loop_point(
        rate_per_sec=120_000.0, duration_us=50_000.0, seed=1
    )
    # Past the knee: completions cap at capacity (~77k/s) while offered
    # load keeps growing, the queue backs up, and latency explodes.
    assert heavy["achieved_per_sec"] < 100_000.0
    assert heavy["queue_peak"] > 20 * light["queue_peak"]
    assert heavy["p99_us"] > 20 * light["p99_us"]
    # Open loop: every admitted request is eventually timed (no
    # coordinated omission).
    assert heavy["completed"] == heavy["issued"]


def test_open_loop_queue_limit_drops():
    point = run_open_loop_point(
        rate_per_sec=120_000.0, duration_us=30_000.0, seed=2,
    )
    from repro.harness.scenarios import build_pool
    from repro.harness.microbench import run_process
    from repro.sim import RandomSource as RS
    from repro.vmm import PagedMemory
    from repro.workloads import OpenLoopWorkload, PoissonArrivals

    cluster, pool = build_pool("hydra", 12, 2)
    pager = PagedMemory(pool, resident_pages=256)
    run_process(cluster.sim, pager.preload(range(512)), until=1e10)
    rng = RS(2, "queue-limit")
    work = OpenLoopWorkload(
        pager, rng.child("ops"),
        PoissonArrivals(rng.child("arrivals"), 120_000.0),
        512, queue_limit=16,
    )
    result = run_process(cluster.sim, work.run(30_000.0), until=1e10)
    assert result.dropped > 0
    assert result.completed + result.dropped == result.issued
    assert result.queue_peak <= 16 + work.concurrency
    # The unbounded run admitted (and timed) strictly more requests.
    assert point["completed"] > result.completed


def test_trace_json_roundtrip():
    trace = ReplayTrace.synthetic(seed=4, epochs=5)
    text = trace.to_json()
    back = ReplayTrace.from_json(text)
    assert back.name == trace.name
    assert back.key_space == trace.key_space
    assert back.epochs == trace.epochs
    assert back.to_json() == text

    with pytest.raises(ValueError):
        ReplayTrace.from_json(json.dumps({"schema": "hydra-trace/0"}))
    with pytest.raises(ValueError):
        ReplayTrace(name="empty", key_space=8, epochs=[]).validate()
    with pytest.raises(ValueError):
        TraceEpoch(duration_us=1.0, rate_per_sec=1.0, key_offset=9).validate(8)
    with pytest.raises(ValueError):
        TraceEpoch(
            duration_us=1.0, rate_per_sec=1.0, size_pages=(1, 2),
            size_weights=(1.0,),
        ).validate(8)


def test_trace_replay_point_tracks_epoch_rates():
    trace = ReplayTrace(
        name="step",
        key_space=256,
        epochs=[
            TraceEpoch(duration_us=40_000.0, rate_per_sec=10_000.0),
            TraceEpoch(duration_us=40_000.0, rate_per_sec=40_000.0,
                       key_offset=128, size_pages=(1, 2),
                       size_weights=(0.8, 0.2)),
        ],
    )
    point = run_trace_replay_point(seed=0, trace_json=trace.to_json())
    assert point["trace"] == "step"
    assert [row["index"] for row in point["epochs"]] == [0, 1]
    low, high = point["epochs"]
    # Issued counts track the epoch rates (Poisson, 4x the rate -> ~4x
    # the arrivals) and every epoch actually completed work.
    assert high["issued"] > 2.5 * low["issued"]
    assert low["completed_in_epoch"] > 0 and high["completed_in_epoch"] > 0
    assert low["p50_us"] > 0 and high["p99_us"] >= high["p50_us"]
    assert point["completed"] == sum(
        row["completed_in_epoch"] for row in point["epochs"]
    )
    assert len(point["samples"]) == point["completed"]


def test_weighted_choice_follows_weights():
    rng = RandomSource(9, "weights")
    counts = {1: 0, 2: 0, 4: 0}
    n = 10_000
    for _ in range(n):
        counts[rng.weighted_choice((1, 2, 4), (0.7, 0.2, 0.1))] += 1
    assert counts[1] / n == pytest.approx(0.7, abs=0.03)
    assert counts[2] / n == pytest.approx(0.2, abs=0.03)
    assert counts[4] / n == pytest.approx(0.1, abs=0.03)
    with pytest.raises(ValueError):
        rng.weighted_choice((1, 2), (1.0,))
    with pytest.raises(ValueError):
        rng.weighted_choice((1, 2), (0.0, 0.0))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_loadgen_cli_sweep_smoke(tmp_path):
    output = tmp_path / "loadgen.json"
    code = loadgen_main([
        "--sweep", "--quick", "--seeds", "1",
        "--rates", "20000,60000,100000",
        "--output", str(output),
    ])
    assert code == 0
    doc = json.loads(output.read_text())
    assert doc["schema"] == LOADGEN_SCHEMA
    assert doc["mode"] == "sweep"
    assert [p["offered_per_sec"] for p in doc["points"]] == [
        20_000.0, 60_000.0, 100_000.0,
    ]
    for point in doc["points"]:
        assert point["p99_ci_us"][0] <= point["p99_us"] <= point["p99_ci_us"][1]
    assert doc["points"][0]["vs_base_pvalue"] is None
    assert doc["points"][-1]["vs_base_pvalue"] is not None
    # 20k -> 100k spans the ~77k/s capacity: the knee must be found.
    assert doc["knee"] is not None
    assert doc["knee"]["offered_per_sec"] in (60_000.0, 100_000.0)
    # Canonicalization strips only host fields.
    canonical = json.loads(loadgen_canonical_json(doc))
    assert "jobs" not in canonical and "platform" not in canonical
    assert canonical["points"] == doc["points"]


def test_loadgen_cli_replay_smoke(tmp_path):
    output = tmp_path / "replay.json"
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(
        ReplayTrace.synthetic(seed=1, epochs=3, key_space=256,
                              epoch_us=30_000.0).to_json()
    )
    code = loadgen_main([
        "--replay", "--seeds", "1", "--trace", str(trace_path),
        "--output", str(output),
    ])
    assert code == 0
    doc = json.loads(output.read_text())
    assert doc["mode"] == "replay"
    assert doc["trace"]["name"] == "synthetic-1"
    assert len(doc["epochs"]) == 3
    assert doc["overall"]["n_samples"] > 0


def test_loadgen_cli_usage_errors(tmp_path):
    assert loadgen_main(["--bogus"]) == 2
    assert loadgen_main(["--arrivals", "weibull"]) == 2
    assert loadgen_main(["--backend", "carp"]) == 2
    assert loadgen_main(["--rates", "1000"]) == 2
    assert loadgen_main(["--rates", "a,b"]) == 2
    assert loadgen_main(["--seeds", "0"]) == 2
    assert loadgen_main(["--seeds"]) == 2
    assert loadgen_main(["--trace", str(tmp_path / "missing.json")]) == 2


# ----------------------------------------------------------------------
# Seeded open-loop histories (model pins). Recorded on the
# process-per-request drivers; any change to how a request is carried
# (processes, callbacks, slot hand-off) must leave every value here
# exactly as it is — a difference means the model moved, not the
# mechanism.
# ----------------------------------------------------------------------
def _pinned_pager(seed, n_pages=512, resident=256):
    from repro.harness.microbench import run_process
    from repro.harness.scenarios import build_pool
    from repro.vmm import PagedMemory

    cluster, pool = build_pool("hydra", 12, seed, payload_mode="phantom")
    pager = PagedMemory(pool, resident_pages=resident)
    run_process(cluster.sim, pager.preload(range(n_pages)), until=1e10)
    return cluster.sim, pager


def _sha(samples):
    import hashlib

    return hashlib.sha256(
        np.ascontiguousarray(samples, dtype=np.float64).tobytes()
    ).hexdigest()


def _pager_counts(pager):
    return tuple(
        pager.stats[key] for key in ("hits", "faults", "page_ins", "page_outs")
    )


def _open_loop_history(seed, kind, rate, **options):
    from repro.harness.microbench import run_process
    from repro.workloads import OpenLoopWorkload, make_arrivals

    sim, pager = _pinned_pager(seed)
    rng = RandomSource(seed, "pins/openloop")
    work = OpenLoopWorkload(
        pager, rng.child("ops"),
        make_arrivals(kind, rng.child("arrivals"), rate), 512, **options,
    )
    result = run_process(sim, work.run(30_000.0), until=1e10)
    return {
        "samples_sha256": _sha(result.latency_samples),
        "issued": result.issued,
        "completed": result.completed,
        "completed_in_window": result.completed_in_window,
        "dropped": result.dropped,
        "queue_peak": result.queue_peak,
        "sim_now": sim.now,
        "pager": _pager_counts(pager),
    }


_OPEN_LOOP_PINS = {
    "poisson below capacity": (
        (3, "poisson", 20_000.0), {},
        {
            "samples_sha256":
                "5c26f92fda7dea6332889b66022b6e8e8400e5582f8e19175dcf1ee92f104175",
            "issued": 620,
            "completed": 620,
            "completed_in_window": 620,
            "dropped": 0,
            "queue_peak": 2,
            "sim_now": 30784.083643954924,
            "pager": (482, 650, 138, 394),
        },
    ),
    "poisson above capacity": (
        (3, "poisson", 90_000.0), {},
        {
            "samples_sha256":
                "a015596d221278e0efd1ecca1f29e53aa220469425584eda2da67553c38e4cc1",
            "issued": 2709,
            "completed": 2709,
            "completed_in_window": 2296,
            "dropped": 0,
            "queue_peak": 416,
            "sim_now": 36102.10611589392,
            "pager": (2259, 962, 450, 511),
        },
    ),
    "queue_limit=16 above capacity": (
        (3, "poisson", 90_000.0), {"queue_limit": 16},
        {
            "samples_sha256":
                "1a18328a83c0320176486e63854e6270b0a3c77f895a9b0dc7baf6ec2ddade92",
            "issued": 2709,
            "completed": 2309,
            "completed_in_window": 2296,
            "dropped": 400,
            "queue_peak": 16,
            "sim_now": 30950.860758850762,
            "pager": (1910, 911, 399, 499),
        },
    ),
    "compute_us=0": (
        (5, "poisson", 55_000.0), {"compute_us": 0.0},
        {
            "samples_sha256":
                "9f19599613de075c15c4b14989669c991b2caeea510343882e7e5d62e515b3f4",
            "issued": 1581,
            "completed": 1581,
            "completed_in_window": 1581,
            "dropped": 0,
            "queue_peak": 2,
            "sim_now": 30770.816133436492,
            "pager": (1328, 765, 253, 460),
        },
    ),
    "bursty arrivals, one slot": (
        (4, "bursty", 60_000.0), {"concurrency": 1},
        {
            "samples_sha256":
                "f0bb85f1be482ef879786ee950b965455321693b879ae7a94a88dd21fd05f285",
            "issued": 1220,
            "completed": 1220,
            "completed_in_window": 826,
            "dropped": 0,
            "queue_peak": 400,
            "sim_now": 40968.5165674729,
            "pager": (992, 740, 228, 460),
        },
    ),
}


@pytest.mark.parametrize("label", sorted(_OPEN_LOOP_PINS))
def test_open_loop_history_is_pinned(label):
    args, options, expected = _OPEN_LOOP_PINS[label]
    assert _open_loop_history(*args, **options) == expected


def _replay_history():
    from repro.harness.microbench import run_process
    from repro.workloads import TraceReplayWorkload

    trace = ReplayTrace(
        name="pinned",
        key_space=256,
        epochs=[
            TraceEpoch(duration_us=15_000.0, rate_per_sec=15_000.0,
                       size_pages=(1, 2, 4), size_weights=(0.6, 0.3, 0.1)),
            TraceEpoch(duration_us=15_000.0, rate_per_sec=45_000.0,
                       zipf_alpha=0.8, key_offset=100, get_fraction=0.7,
                       size_pages=(1, 3), size_weights=(0.7, 0.3)),
            TraceEpoch(duration_us=10_000.0, rate_per_sec=8_000.0,
                       key_offset=31),
        ],
    )
    sim, pager = _pinned_pager(6, n_pages=256, resident=128)
    work = TraceReplayWorkload(pager, RandomSource(6, "pins/replay"), trace)
    run_process(sim, work.run(), until=1e10)
    return {
        "samples_sha256": _sha(work.samples()),
        "completed": work.stats["completed"],
        "sim_now": sim.now,
        "pager": _pager_counts(pager),
        "epochs": [
            (row["issued"], row["completed_in_epoch"], row["p50_us"],
             row["p99_us"], row["mean_us"])
            for row in work.epoch_table()
        ],
    }


_REPLAY_PIN = {
    "samples_sha256":
        "258031d47d2fc41c5fa245ca8fbc1f30299725a87a242dc20b30528b93916af8",
    "completed": 967,
    "sim_now": 40429.01374709248,
    "pager": (936, 780, 524, 421),
    "epochs": [
        (201, 200, 25.099999999998545, 57.77370837070269, 29.151566620240306),
        (686, 685, 31.770239575787855, 120.16119911184066, 40.70798830705714),
        (80, 82, 25.05000000000291, 31.488508520723535, 26.975284166183155),
    ],
}


def test_trace_replay_history_is_pinned():
    assert _replay_history() == _REPLAY_PIN
