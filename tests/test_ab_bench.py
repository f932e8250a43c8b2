"""The A/B table (tools/ab_bench.py) is computed as documented.

Only the pure summary is tested here, on canned run records; CI runs the
script end to end on one short pair as its self-check.
"""
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_bench", REPO / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

_METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _run(side, pair, ops, setup, failed=0, workload="w"):
    return {
        "side": side, "workload": workload, "pair": pair,
        "result": {
            "correct": True, "attempted": 1000, "failed": failed,
            "metrics": {
                "ops_per_s": {"value": ops, "unit": "1/s"},
                "setup_s": {"value": setup, "unit": "s"},
            },
        },
    }


def _rows(runs):
    return {(r["workload"], r["metric"]): r for r in ab_bench.summarise(runs, _METRICS)}


def test_medians_delta_and_quartile_distance():
    parent_ops = [100.0, 104.0, 96.0, 108.0, 92.0]
    runs = []
    for pair, ops in enumerate(parent_ops):
        runs.append(_run("parent", pair, ops, 0.5))
        runs.append(_run("change", pair, ops * 1.5, 0.5))
    row = _rows(runs)[("w", "ops_per_s")]
    assert row["parent_median"] == 100.0 and row["change_median"] == 150.0
    assert row["delta_pct"] == pytest.approx(50.0)
    # Inclusive quartiles of 92, 96, 100, 104, 108 are 96 and 104.
    assert row["parent_iqr_pct"] == pytest.approx(8.0)
    assert (row["won"], row["tied"], row["pairs"]) == (5, 0, 5)


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    runs = [
        _run("parent", 0, 100.0, 0.50), _run("change", 0, 90.0, 0.40),   # ops lost, setup won
        _run("change", 1, 100.0, 0.60), _run("parent", 1, 100.0, 0.50),  # ops tied, setup lost
        _run("parent", 2, 100.0, 0.50), _run("change", 2, 110.0, 0.50),  # ops won, setup tied
    ]
    rows = _rows(runs)
    ops, setup = rows[("w", "ops_per_s")], rows[("w", "setup_s")]
    assert (ops["won"], ops["tied"], ops["pairs"]) == (1, 1, 3)
    assert (setup["won"], setup["tied"], setup["pairs"]) == (1, 1, 3)
    assert setup["delta_pct"] == pytest.approx(0.0)


def test_a_run_without_a_result_is_a_failure_and_its_pair_is_not_scored():
    runs = [
        _run("parent", 0, 100.0, 0.5), _run("change", 0, 120.0, 0.5, failed=3),
        _run("parent", 1, 100.0, 0.5),
        {"side": "change", "workload": "w", "pair": 1, "result": None},
    ]
    row = _rows(runs)[("w", "ops_per_s")]
    assert (row["won"], row["tied"], row["pairs"]) == (1, 0, 1)
    assert (row["failed_parent"], row["failed_change"]) == (0, 4)
    assert row["change_median"] == 120.0  # from the run that has a value
    assert "0/4" in ab_bench.format_table([row])


def test_workloads_are_reported_separately_and_single_runs_have_no_spread():
    runs = [
        _run("parent", 0, 100.0, 0.5, workload="a"), _run("change", 0, 101.0, 0.5, workload="a"),
        _run("parent", 0, 10.0, 0.5, workload="b"), _run("change", 0, 9.0, 0.5, workload="b"),
    ]
    rows = _rows(runs)
    assert rows[("a", "ops_per_s")]["won"] == 1 and rows[("b", "ops_per_s")]["won"] == 0
    assert rows[("a", "ops_per_s")]["parent_iqr_pct"] == 0.0
    table = ab_bench.format_table(list(rows.values()))
    assert len(table.splitlines()) == 2 + 4


def test_interval_p_value_and_verdict_are_computed_from_the_pairs():
    """Ten fixed pairs: the seeded bootstrap interval of the median pair
    ratio and the permutation p-value are pinned, and the verdict follows
    the documented order (bound, spread, claim rule, resolved, same)."""
    parent = [100.0, 103.0, 98.0, 101.0, 99.0, 102.0, 97.0, 100.5, 101.5, 98.5]
    shift = [1.06, 1.05, 1.07, 1.04, 1.06, 1.05, 1.08, 1.05, 1.06, 1.07]
    noise = [1.02, 0.97, 1.01, 0.99, 1.03, 0.98, 1.00, 1.01, 0.96, 1.02]
    runs = []
    for pair, ops in enumerate(parent):
        # ops_per_s: +4..8 % on every pair; setup_s: the same noise on both sides.
        runs.append(_run("parent", pair, ops, 0.50 * noise[(pair + 3) % 10]))
        runs.append(_run("change", pair, ops * shift[pair], 0.50 * noise[pair]))
        # A second workload that lost 30 % and one too noisy to call.
        runs.append(_run("parent", pair, ops, 0.50, workload="slow"))
        runs.append(_run("change", pair, ops * 0.7, 0.50, workload="slow"))
        runs.append(_run("parent", pair, ops * (1 + pair % 2), 0.50, workload="wide"))
        runs.append(_run("change", pair, ops * (2 - pair % 2), 0.50, workload="wide"))
    rows = _rows(runs)
    ops, setup = rows[("w", "ops_per_s")], rows[("w", "setup_s")]
    assert ops["ratio_ci_pct"] == pytest.approx((5.0, 7.0))
    assert ops["p_value"] == pytest.approx(1 / 1001)
    assert (ops["won"], ops["verdict"]) == (10, "gain")
    assert setup["ratio_ci_pct"] == pytest.approx((-1.0419193451, 2.0938812631))
    assert setup["p_value"] == 1.0  # the same ten values, dealt to other pairs
    assert setup["verdict"] == "same"
    assert rows[("slow", "ops_per_s")]["verdict"] == "regressed"
    assert rows[("wide", "ops_per_s")]["verdict"] == "unresolved"
    line = ab_bench.format_table([ops]).splitlines()[-1]
    assert "+5.00..+7.00" in line and "0.001" in line and line.endswith("gain")
