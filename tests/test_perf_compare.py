"""Tests for the ``repro perf --compare`` regression gate.

The gate (``compare_results``) has three rules: baseline benchmarks must
be present, wall-clock rates may not drop below ``baseline * (1 -
tolerance)``, and — when both documents ran the same mode — the
simulated-time anchors must be *equal* (drift is a semantics change, not
a perf regression). The CLI returns 3 on gate failure, 2 on usage
errors, 0 when green.
"""

import copy
import json

import pytest

from repro.harness import perf
from repro.harness.perf import (
    PERF_BENCH_NAMES,
    compare_results,
    deterministic_anchors,
    format_results,
    run_perf_suite,
)


def _doc(quick=True):
    return {
        "schema": "hydra-perf/1",
        "quick": quick,
        "benchmarks": {
            "engine_events": {
                "events": 40_008,
                "sim_now_us": 5000.0,
                "events_per_sec": 800_000,
                "seconds": 0.05,
            },
            "ec_correct": {
                "pages": 64,
                "mb": 0.25,
                "mb_per_sec": 40.0,
                "seconds": 0.006,
            },
            "rm_end_to_end": {
                "ops": 300,
                "sim_now_us": 2672.57,
                "pages_sha256": "abc123",
                "pages_per_sec": 4500.0,
                "seconds": 0.13,
            },
        },
    }


def test_identical_documents_pass():
    assert compare_results(_doc(), _doc()) == []


def test_rate_regression_fails():
    current = _doc()
    current["benchmarks"]["ec_correct"]["mb_per_sec"] = 10.0
    failures = compare_results(current, _doc(), tolerance=0.2)
    assert len(failures) == 1
    assert "ec_correct" in failures[0] and "mb_per_sec" in failures[0]


def test_rate_within_tolerance_passes():
    current = _doc()
    current["benchmarks"]["ec_correct"]["mb_per_sec"] = 33.0  # floor is 32
    assert compare_results(current, _doc(), tolerance=0.2) == []


def test_rate_improvement_passes():
    current = _doc()
    current["benchmarks"]["ec_correct"]["mb_per_sec"] = 400.0
    assert compare_results(current, _doc(), tolerance=0.0) == []


def test_missing_benchmark_fails():
    current = _doc()
    del current["benchmarks"]["rm_end_to_end"]
    failures = compare_results(current, _doc())
    assert failures == ["rm_end_to_end: present in baseline but missing from run"]


def test_benchmark_only_in_current_is_ignored():
    current = _doc()
    current["benchmarks"]["rm_corrupted"] = {"pages_per_sec": 1.0}
    assert compare_results(current, _doc()) == []


def test_anchor_drift_fails_at_any_tolerance():
    current = _doc()
    current["benchmarks"]["rm_end_to_end"]["pages_sha256"] = "def456"
    failures = compare_results(current, _doc(), tolerance=0.99)
    assert len(failures) == 1
    assert "anchor pages_sha256 moved" in failures[0]


def test_anchor_drift_is_tagged_model_or_mechanism():
    # A mechanism anchor may move in a PR that declares it; a model anchor
    # never may. The gate fails on both and says which kind moved.
    baseline = _doc()
    baseline["benchmarks"]["rm_end_to_end"]["queue_entries"] = 8484
    current = copy.deepcopy(baseline)
    current["benchmarks"]["rm_end_to_end"]["queue_entries"] = 8000
    current["benchmarks"]["rm_end_to_end"]["sim_now_us"] = 2700.0
    failures = compare_results(current, baseline)
    assert len(failures) == 2
    assert any("model anchor sim_now_us moved" in f for f in failures)
    assert any("mechanism anchor queue_entries moved" in f for f in failures)


def test_anchors_not_compared_across_modes():
    current = _doc(quick=False)
    current["benchmarks"]["rm_end_to_end"]["pages_sha256"] = "def456"
    current["benchmarks"]["rm_end_to_end"]["sim_now_us"] = 9999.0
    assert compare_results(current, _doc(quick=True)) == []


def test_anchor_fields_absent_from_baseline_are_skipped():
    # A baseline recorded before an anchor existed must still compare.
    baseline = _doc()
    del baseline["benchmarks"]["rm_end_to_end"]["pages_sha256"]
    assert compare_results(_doc(), baseline) == []


def test_row_table_is_the_single_source():
    # Shards, the anchor map and the printed lines all come from one
    # table: a row missing from any of them is a hand-kept list again.
    doc = run_perf_suite(quick=True, repeats=1)
    names = set(PERF_BENCH_NAMES)
    assert len(names) == len(PERF_BENCH_NAMES)
    assert set(doc["benchmarks"]) == names
    assert set(json.loads(deterministic_anchors(doc))["benchmarks"]) == names
    printed = [line.split()[0] for line in format_results(doc).splitlines()[1:]]
    assert printed == list(PERF_BENCH_NAMES)


class TestCli:
    @pytest.fixture
    def fake_suite(self, monkeypatch):
        doc = _doc()
        calls = []

        def run_perf_suite(**kwargs):
            calls.append(kwargs)
            ran = copy.deepcopy(doc)
            ran["repeats"] = kwargs["repeats"] or (1 if kwargs["quick"] else 3)
            return ran

        monkeypatch.setattr(perf, "run_perf_suite", run_perf_suite)
        monkeypatch.setattr(perf, "format_results", lambda d: "(fake results)")
        return calls  # the keyword arguments of each suite run

    @pytest.mark.parametrize(
        "recorded, flags, ran",
        [
            (5, [], 5),  # the baseline's best-of-N, not --quick's best of 1
            (5, ["--repeats", "2"], 2),  # an explicit --repeats wins
            (None, [], 1),  # a baseline without the field: the mode's default
        ],
    )
    def test_compare_runs_with_the_baselines_repeats(
        self, tmp_path, fake_suite, capsys, recorded, flags, ran
    ):
        baseline = _doc()
        if recorded is not None:
            baseline["repeats"] = recorded
        base = tmp_path / "base.json"
        base.write_text(json.dumps(baseline))
        out = tmp_path / "out.json"
        argv = ["--quick", "--compare", str(base), "--output", str(out), *flags]
        assert perf.main(argv) == 0
        (call,) = fake_suite
        assert (call["repeats"] or 1) == ran
        shown = "?" if recorded is None else recorded
        assert f"best of {ran} vs baseline best of {shown}" in capsys.readouterr().out

    def test_regression_report_names_both_repeats(self, tmp_path, fake_suite, capsys):
        baseline = _doc()
        baseline["repeats"] = 5
        baseline["benchmarks"]["ec_correct"]["mb_per_sec"] = 4000.0
        base = tmp_path / "base.json"
        base.write_text(json.dumps(baseline))
        argv = ["--quick", "--repeats", "1", "--compare", str(base),
                "--output", str(tmp_path / "out.json")]
        assert perf.main(argv) == 3
        assert "best of 1 vs baseline best of 5" in capsys.readouterr().err

    def test_without_compare_the_mode_default_repeats_stand(self, tmp_path, fake_suite):
        assert perf.main(["--quick", "--output", str(tmp_path / "out.json")]) == 0
        assert fake_suite[0]["repeats"] is None

    def test_green_gate_exits_zero(self, tmp_path, fake_suite):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_doc()))
        out = tmp_path / "out.json"
        assert perf.main(["--compare", str(base), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["schema"] == "hydra-perf/1"

    def test_regression_exits_three(self, tmp_path, fake_suite):
        baseline = _doc()
        baseline["benchmarks"]["ec_correct"]["mb_per_sec"] = 4000.0
        base = tmp_path / "base.json"
        base.write_text(json.dumps(baseline))
        out = tmp_path / "out.json"
        assert (
            perf.main(
                ["--compare", str(base), "--tolerance", "0.5",
                 "--output", str(out)]
            )
            == 3
        )

    def test_baseline_read_before_output_overwrites(self, tmp_path, fake_suite):
        # --compare and --output pointing at the same file: the baseline
        # must be the pre-run bytes, so a green self-compare exits 0 even
        # though the run rewrites the file.
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(_doc()))
        assert perf.main(["--compare", str(path), "--output", str(path)]) == 0

    def test_output_keeps_the_bench_parallel_section(self, tmp_path, fake_suite):
        # `repro bench --record F` merges its speedup summary into the
        # same file; rewriting F must not drop it.
        path = tmp_path / "BENCH_perf.json"
        recorded = {"jobs": 2, "wall_seconds": 31.5}
        path.write_text(json.dumps({**_doc(), "bench_parallel": recorded}))
        assert perf.main(["--quick", "--output", str(path)]) == 0
        written = json.loads(path.read_text())
        assert written["bench_parallel"] == recorded
        assert written["benchmarks"] == _doc()["benchmarks"]

    def test_unreadable_baseline_exits_two(self, tmp_path, fake_suite):
        assert (
            perf.main(["--compare", str(tmp_path / "missing.json")]) == 2
        )

    def test_bad_tolerance_exits_two(self, fake_suite):
        assert perf.main(["--tolerance", "1.5"]) == 2
        assert perf.main(["--tolerance"]) == 2
        assert perf.main(["--compare"]) == 2


class TestBaselineSchema:
    @pytest.fixture
    def fake_suite(self, monkeypatch):
        doc = _doc()
        monkeypatch.setattr(perf, "run_perf_suite", lambda **kw: copy.deepcopy(doc))
        monkeypatch.setattr(perf, "format_results", lambda d: "(fake results)")
        return doc

    def test_unknown_schema_exits_two(self, tmp_path, fake_suite, capsys):
        baseline = _doc()
        baseline["schema"] = "hydra-perf/999"
        base = tmp_path / "base.json"
        base.write_text(json.dumps(baseline))
        assert perf.main(["--compare", str(base)]) == 2
        err = capsys.readouterr().err
        assert "hydra-perf/999" in err and "regenerate" in err

    def test_missing_schema_exits_two(self, tmp_path, fake_suite, capsys):
        baseline = _doc()
        del baseline["schema"]
        base = tmp_path / "base.json"
        base.write_text(json.dumps(baseline))
        assert perf.main(["--compare", str(base)]) == 2
        assert "expected" in capsys.readouterr().err

    def test_non_object_baseline_exits_two(self, tmp_path, fake_suite):
        base = tmp_path / "base.json"
        base.write_text(json.dumps([1, 2, 3]))
        assert perf.main(["--compare", str(base)]) == 2
