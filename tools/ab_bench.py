#!/usr/bin/env python3
"""Parent-vs-change A/B of the repo benchmark, in alternating pairs.

    python tools/ab_bench.py --parent <rev|dir> --change <rev|dir>
        [--workload W ...] [--pairs 10] [--seconds 15] [--seed0 100]

Each side is materialised into a bytecode-free temporary copy (``git
archive`` for a revision, a copy minus ``__pycache__`` for a directory:
a working tree keeps cached bytecode a fresh checkout lacks, worth ~60 ms
of ``setup_s``) and every run is the benchmark's own command from
``BENCHMARK.json`` with ``--workload W --seed S --seconds T --trace 0``.
Pair ``i`` uses seed ``seed0 + i`` on both sides and alternates which side
runs first. Every run is printed as one JSON line as it finishes; the
table at the end gives, per workload and end-to-end metric: parent median,
change median, the difference and the distance between the parent's
quartiles (both in % of the parent median), pairs the change won / tied,
the 95 % bootstrap interval of the median change/parent ratio over the
pairs (in %, 0 = no difference), the permutation p-value of the two sides'
medians (both from ``repro.harness.report``, seeded: the same runs give
the same numbers), failed operations (parent/change; a run with no result
counts as one) and a verdict:

``regressed``   the change's median is worse than the parent's by more than
                the metric's bound in ``BENCHMARK.json``
``unresolved``  the parent's quartile distance is wider than that bound, so
                the runs cannot tell (unless every run of the change reads
                better than every run of the parent)
``gain``        claimable: the change wins at least nine tenths of the pairs
                (ties count for neither) and the medians differ by more
                than the parent's quartile distance
``better`` / ``worse``  a difference the interval and p < 0.05 both resolve,
                inside the bound and short of the claim rule
``same``        inside the spread
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness.report import bootstrap_ci, permutation_pvalue  # noqa: E402

_SIDES = ("parent", "change")


def materialise(source: str, dest: Path) -> None:
    """Put a bytecode-free copy of ``source`` (a directory, else a git
    revision of this repository) at ``dest``."""
    if os.path.isdir(source):
        shutil.copytree(
            source, dest, ignore=shutil.ignore_patterns("__pycache__", ".git")
        )
        return
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", source], stdout=subprocess.PIPE, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_once(command: List[str], checkout: Path, workload: str, seed: int,
             seconds: float) -> Optional[dict]:
    """One benchmark run in ``checkout``; the result document on its last
    output line, or None when the run produced none."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=str(checkout), env=env, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def _quartile_distance(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(runs: List[dict], metrics: List[dict]) -> List[dict]:
    """One row per workload x end-to-end metric.

    ``runs`` are ``{"side", "workload", "pair", "result"}`` records
    (``result`` the benchmark's JSON document, None for a run that
    produced none); ``metrics`` is ``BENCHMARK.json``'s ``end_to_end``
    list. A pair counts as won, tied or lost only when both of its runs
    produced a value.
    """
    rows = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        failed = {
            side: sum(
                1 if run["result"] is None else run["result"]["failed"]
                for run in mine if run["side"] == side
            )
            for side in _SIDES
        }
        for metric in metrics:
            name = metric["name"]
            by_pair: Dict[int, Dict[str, float]] = {}
            for run in mine:
                if run["result"] is not None:
                    by_pair.setdefault(run["pair"], {})[run["side"]] = (
                        run["result"]["metrics"][name]["value"]
                    )
            values = {
                side: [pair[side] for pair in by_pair.values() if side in pair]
                for side in _SIDES
            }
            sign = 1.0 if metric["better"] == "higher" else -1.0
            won = tied = pairs = 0
            ratios = []
            for pair in by_pair.values():
                if len(pair) == 2:
                    pairs += 1
                    gain = sign * (pair["change"] - pair["parent"])
                    won += gain > 0
                    tied += gain == 0
                    if pair["parent"]:
                        ratios.append(pair["change"] / pair["parent"])
            parent = statistics.median(values["parent"]) if values["parent"] else None
            change = statistics.median(values["change"]) if values["change"] else None
            comparable = bool(parent) and change is not None
            row = {
                "workload": workload,
                "metric": name,
                "better": metric["better"],
                "parent_median": parent,
                "change_median": change,
                "delta_pct": 100.0 * (change - parent) / parent if comparable else None,
                "parent_iqr_pct": (
                    100.0 * _quartile_distance(values["parent"]) / parent
                    if parent else None
                ),
                "won": won,
                "tied": tied,
                "pairs": pairs,
                "ratio_ci_pct": (
                    tuple(100.0 * (bound - 1.0) for bound in bootstrap_ci(ratios, "p50"))
                    if ratios else None
                ),
                "p_value": (
                    permutation_pvalue(values["change"], values["parent"], "p50")
                    if comparable else None
                ),
                "failed_parent": failed["parent"],
                "failed_change": failed["change"],
            }
            row["verdict"] = _verdict(row, sign, 100.0 * metric["bound"], values)
            rows.append(row)
    return rows


def _verdict(row: dict, sign: float, bound_pct: float, values: Dict[str, List[float]]) -> str:
    """The rules of the module docstring, in its order."""
    if row["delta_pct"] is None:
        return "-"
    gain_pct = sign * row["delta_pct"]  # > 0: the change reads better
    if gain_pct < -bound_pct:
        return "regressed"
    separated = min(sign * v for v in values["change"]) > max(
        sign * v for v in values["parent"]
    )
    if row["parent_iqr_pct"] > bound_pct and not separated:
        return "unresolved"
    if 0 < 0.9 * row["pairs"] <= row["won"] and gain_pct > row["parent_iqr_pct"]:
        return "gain"
    low, high = row["ratio_ci_pct"] or (0.0, 0.0)
    if (low > 0.0 or high < 0.0) and row["p_value"] < 0.05:
        return "better" if gain_pct > 0 else "worse"
    return "same"


def format_table(rows: List[dict]) -> str:
    def cell(value, spec: str, width: int) -> str:
        return f"{'-' if value is None else format(value, spec):>{width}}"

    header = (
        f"{'workload':<15} {'metric':<16} {'better':<6} {'parent':>11} {'change':>11} "
        f"{'delta %':>8} {'iqr %':>7} {'won/tied/pairs':>14} {'ratio CI95 %':>15} "
        f"{'p':>6} {'failed p/c':>10} verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        score = f"{row['won']}/{row['tied']}/{row['pairs']}"
        failed = f"{row['failed_parent']}/{row['failed_change']}"
        ci = row["ratio_ci_pct"]
        interval = "-" if ci is None else f"{ci[0]:+.2f}..{ci[1]:+.2f}"
        lines.append(
            f"{row['workload']:<15} {row['metric']:<16} {row['better']:<6} "
            f"{cell(row['parent_median'], '.6g', 11)} {cell(row['change_median'], '.6g', 11)} "
            f"{cell(row['delta_pct'], '+.2f', 8)} {cell(row['parent_iqr_pct'], '.2f', 7)} "
            f"{score:>14} {interval:>15} {cell(row['p_value'], '.3f', 6)} "
            f"{failed:>10} {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision or directory")
    parser.add_argument("--change", required=True, help="git revision or directory")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed0", type=int, default=100)
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    workloads = args.workload or known
    unknown = [name for name in workloads if name not in known]
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {known}")

    runs: List[dict] = []
    with tempfile.TemporaryDirectory(prefix="ab_bench.") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        materialise(args.parent, checkouts["parent"])
        materialise(args.change, checkouts["change"])
        for workload in workloads:
            for pair in range(args.pairs):
                for side in _SIDES if pair % 2 == 0 else _SIDES[::-1]:
                    run = {
                        "side": side, "workload": workload, "pair": pair,
                        "seed": args.seed0 + pair, "seconds": args.seconds,
                        "result": run_once(
                            spec["command"], checkouts[side], workload,
                            args.seed0 + pair, args.seconds,
                        ),
                    }
                    runs.append(run)
                    print(json.dumps(run), flush=True)
    print(format_table(summarise(runs, spec["end_to_end"])))
    return 1 if any(run["result"] is None for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
