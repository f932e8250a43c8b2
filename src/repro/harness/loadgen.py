"""Offered-load sweeps and trace-replay suites with statistical reporting.

The ``loadgen`` suite drives the open-loop engine
(:class:`~repro.workloads.OpenLoopWorkload`) across a grid of offered
loads and repeated seeds, pools the raw latency samples per offered-load
point, and reports mean/p50/p99 **with bootstrap confidence intervals**
plus a permutation-test p-value against the lightest load (is the latency
shift at this rate statistically real, or seed noise?). A Kneedle-style
detector (:func:`detect_knee`) marks the saturation knee on the
throughput-vs-p99 curve.

The companion replay suite runs one epoch-sliced
:class:`~repro.workloads.ReplayTrace` at several seeds and aggregates the
per-epoch latency rows across runs.

Sharding follows the ``repro.parallel`` contract: every (rate, seed)
point is a pure function of its arguments, shards merge in key order, and
the document — see :func:`loadgen_canonical_json` — is byte-identical for
every ``-j`` value.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..workloads import ARRIVAL_KINDS, ReplayTrace
from .builders import BACKEND_KINDS
from .report import (
    bootstrap_ci,
    format_ci_series,
    percentile,
    permutation_pvalue,
)
from .scenarios import run_open_loop_point, run_trace_replay_point

__all__ = [
    "LOADGEN_SCHEMA",
    "DEFAULT_RATES",
    "QUICK_RATES",
    "detect_knee",
    "run_sweep",
    "run_replay_suite",
    "loadgen_canonical_json",
    "format_sweep",
    "format_replay",
    "main",
]

LOADGEN_SCHEMA = "hydra-loadgen/1"

# Offered loads (requests/s). With the defaults (concurrency=2,
# compute_us=25, fit=0.5 paging) measured capacity is ~77k requests/s,
# so the grid spans comfortably-underloaded (20k: p99 ~60 us) through
# clearly-saturated (120k: p99 tens of ms) and the knee falls inside
# the sweep.
DEFAULT_RATES = (20_000.0, 40_000.0, 60_000.0, 80_000.0, 100_000.0,
                 120_000.0)
QUICK_RATES = (20_000.0, 55_000.0, 90_000.0, 125_000.0)

_BOOTSTRAP_RESAMPLES = 400
_PERMUTATIONS = 400


# ----------------------------------------------------------------------
# knee detection
# ----------------------------------------------------------------------
def detect_knee(
    xs: Sequence[float],
    ys: Sequence[float],
    sensitivity: float = 0.1,
    min_rise: float = 0.5,
) -> Optional[Dict[str, float]]:
    """Kneedle-style saturation-knee detector for an increasing convex
    latency-vs-load curve.

    Both axes are normalized to [0, 1] by their endpoints; the knee is
    the point maximizing ``x_norm - y_norm`` (the largest bulge below the
    straight line joining the endpoints — exactly where the curve turns
    from flat to explosive). Returns ``None`` when the curve never
    saturates: total relative rise below ``min_rise`` (flat curve) or
    maximum bulge below ``sensitivity`` (straight / monotone-degenerate
    curve has no knee to report).
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("xs and ys must be equal-length")
    if len(xs) < 3:
        return None
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("xs must be strictly increasing")
    y0, y1 = ys[0], ys[-1]
    if y0 <= 0 or y1 <= y0 or (y1 - y0) / y0 < min_rise:
        return None  # never saturates within the sweep
    x0, x1 = xs[0], xs[-1]
    best_index, best_bulge = None, sensitivity
    for i in range(1, len(xs) - 1):
        x_norm = (xs[i] - x0) / (x1 - x0)
        y_norm = (ys[i] - y0) / (y1 - y0)
        bulge = x_norm - y_norm
        if bulge > best_bulge:
            best_index, best_bulge = i, bulge
    if best_index is None:
        return None  # straight line: latency grows but never turns
    return {
        "index": best_index,
        "offered_per_sec": xs[best_index],
        "p99_us": ys[best_index],
        "bulge": round(best_bulge, 6),
    }


# ----------------------------------------------------------------------
# sweep suite
# ----------------------------------------------------------------------
def _samples_sha256(samples: Sequence[float]) -> str:
    """Stable digest of a pooled sample list — a compact determinism
    anchor standing in for the samples themselves (which stay out of the
    document to keep artifacts readable)."""
    payload = json.dumps([round(float(s), 6) for s in samples])
    return hashlib.sha256(payload.encode()).hexdigest()


def _point_statistics(samples: Sequence[float], stat_seed: int) -> Dict:
    values = np.asarray(samples, dtype=np.float64)
    out: Dict = {"n_samples": int(values.size)}
    for name, stat in (("mean", "mean"), ("p50", "p50"), ("p99", "p99")):
        if name == "mean":
            point = float(values.mean())
        else:
            point = percentile(values, 50 if name == "p50" else 99)
        lo, hi = bootstrap_ci(
            values, statistic=stat, n_resamples=_BOOTSTRAP_RESAMPLES,
            seed=stat_seed,
        )
        out[f"{name}_us"] = round(point, 4)
        out[f"{name}_ci_us"] = [round(lo, 4), round(hi, 4)]
    out["samples_sha256"] = _samples_sha256(values)
    return out


def run_sweep(
    arrival_kind: str = "poisson",
    rates: Optional[Sequence[float]] = None,
    seeds: int = 3,
    backend: str = "hydra",
    quick: bool = False,
    jobs: Union[int, str, None] = 1,
    machines: int = 12,
    n_pages: int = 512,
    fit: float = 0.5,
    duration_us: Optional[float] = None,
    concurrency: int = 2,
    compute_us: float = 25.0,
    metrics=None,
    progress=None,
) -> dict:
    """Offered-load sweep: ``len(rates) x seeds`` open-loop points.

    Each (rate, seed) point is one shard; per rate the latency samples of
    every seed pool into the statistics row. The returned document is the
    BENCH_loadgen.json ``sweep`` payload.
    """
    from ..parallel import ShardTask, require_ok, resolve_jobs, run_shards

    if arrival_kind not in ARRIVAL_KINDS:
        raise ValueError(
            f"unknown arrival kind {arrival_kind!r}; choose from {ARRIVAL_KINDS}"
        )
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if rates is None:
        rates = QUICK_RATES if quick else DEFAULT_RATES
    rates = [float(r) for r in rates]
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise ValueError("rates must be strictly increasing")
    if duration_us is None:
        duration_us = 100_000.0 if quick else 200_000.0
    jobs = resolve_jobs(jobs)

    tasks = [
        ShardTask(
            key=(rate_index, seed),
            fn=run_open_loop_point,
            kwargs=dict(
                arrival_kind=arrival_kind,
                rate_per_sec=rate,
                seed=seed,
                backend=backend,
                machines=machines,
                n_pages=n_pages,
                fit=fit,
                duration_us=duration_us,
                concurrency=concurrency,
                compute_us=compute_us,
            ),
            label=f"loadgen:{arrival_kind}@{rate:.0f}/s seed={seed}",
        )
        for rate_index, rate in enumerate(rates)
        for seed in range(seeds)
    ]
    results = require_ok(
        run_shards(
            tasks, jobs=jobs, name="loadgen", metrics=metrics, progress=progress
        ),
        "loadgen",
    )

    by_rate: Dict[int, List[dict]] = {}
    for shard in results:
        rate_index = shard.key[0]
        by_rate.setdefault(rate_index, []).append(shard.value)

    points: List[dict] = []
    base_samples: Optional[List[float]] = None
    for rate_index, rate in enumerate(rates):
        runs = by_rate[rate_index]
        pooled: List[float] = []
        for run in runs:
            pooled.extend(run["samples"])
        achieved = [run["achieved_per_sec"] for run in runs]
        point = {
            "offered_per_sec": rate,
            "achieved_per_sec": round(float(np.mean(achieved)), 3),
            "achieved_min": round(min(achieved), 3),
            "achieved_max": round(max(achieved), 3),
            "issued": sum(run["issued"] for run in runs),
            "completed": sum(run["completed"] for run in runs),
            "dropped": sum(run["dropped"] for run in runs),
            "queue_peak": max(run["queue_peak"] for run in runs),
        }
        point.update(_point_statistics(pooled, stat_seed=rate_index))
        if base_samples is None:
            base_samples = pooled
            point["vs_base_pvalue"] = None
        else:
            point["vs_base_pvalue"] = round(
                permutation_pvalue(
                    pooled, base_samples, statistic="mean",
                    n_permutations=_PERMUTATIONS, seed=rate_index,
                ),
                6,
            )
        points.append(point)

    knee = detect_knee(
        [p["offered_per_sec"] for p in points],
        [p["p99_us"] for p in points],
    )
    return {
        "schema": LOADGEN_SCHEMA,
        "mode": "sweep",
        "quick": quick,
        "arrival_kind": arrival_kind,
        "backend": backend,
        "seeds": seeds,
        "duration_us": duration_us,
        "machines": machines,
        "n_pages": n_pages,
        "fit": fit,
        "concurrency": concurrency,
        "compute_us": compute_us,
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "points": points,
        "knee": knee,
    }


# ----------------------------------------------------------------------
# replay suite
# ----------------------------------------------------------------------
def run_replay_suite(
    trace_json: Optional[str] = None,
    seeds: int = 3,
    backend: str = "hydra",
    quick: bool = False,
    jobs: Union[int, str, None] = 1,
    machines: int = 12,
    fit: float = 0.5,
    concurrency: int = 2,
    compute_us: float = 25.0,
    metrics=None,
    progress=None,
) -> dict:
    """Replay one trace at several seeds; aggregate per-epoch rows.

    Without ``trace_json`` the deterministic synthetic diurnal trace is
    used (smaller in ``quick`` mode). One shard per seed.
    """
    from ..parallel import ShardTask, require_ok, resolve_jobs, run_shards

    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if trace_json is None:
        if quick:
            trace = ReplayTrace.synthetic(
                seed=0, epochs=4, key_space=256, epoch_us=40_000.0
            )
        else:
            trace = ReplayTrace.synthetic(seed=0)
        trace_json = trace.to_json()
    else:
        trace = ReplayTrace.from_json(trace_json)
    jobs = resolve_jobs(jobs)

    tasks = [
        ShardTask(
            key=(seed,),
            fn=run_trace_replay_point,
            kwargs=dict(
                seed=seed,
                trace_json=trace_json,
                backend=backend,
                machines=machines,
                fit=fit,
                concurrency=concurrency,
                compute_us=compute_us,
            ),
            label=f"replay:{trace.name} seed={seed}",
        )
        for seed in range(seeds)
    ]
    results = require_ok(
        run_shards(
            tasks, jobs=jobs, name="replay", metrics=metrics, progress=progress
        ),
        "replay",
    )
    runs = [shard.value for shard in results]

    epochs: List[dict] = []
    for index, epoch in enumerate(trace.epochs):
        rows = [run["epochs"][index] for run in runs]
        epochs.append(
            {
                "index": index,
                "rate_per_sec": epoch.rate_per_sec,
                "zipf_alpha": epoch.zipf_alpha,
                "issued": sum(row["issued"] for row in rows),
                "completed": sum(row["completed_in_epoch"] for row in rows),
                "p50_us": round(float(np.mean([r["p50_us"] for r in rows])), 4),
                "p99_us": round(float(np.mean([r["p99_us"] for r in rows])), 4),
                "p99_min_us": round(min(r["p99_us"] for r in rows), 4),
                "p99_max_us": round(max(r["p99_us"] for r in rows), 4),
            }
        )
    pooled: List[float] = []
    for run in runs:
        pooled.extend(run["samples"])
    overall = _point_statistics(pooled, stat_seed=len(trace.epochs))
    return {
        "schema": LOADGEN_SCHEMA,
        "mode": "replay",
        "quick": quick,
        "backend": backend,
        "seeds": seeds,
        "trace": {
            "name": trace.name,
            "key_space": trace.key_space,
            "epochs": len(trace.epochs),
            "duration_us": trace.duration_us,
        },
        "fit": fit,
        "machines": machines,
        "concurrency": concurrency,
        "compute_us": compute_us,
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "epochs": epochs,
        "overall": overall,
    }


# ----------------------------------------------------------------------
# document plumbing
# ----------------------------------------------------------------------
_HOST_FIELDS = ("jobs", "python", "numpy", "platform")


def loadgen_canonical_json(doc: dict) -> str:
    """Canonical JSON of the deterministic fields of a loadgen document.

    Everything except the host-description fields (``jobs``, versions,
    platform string) is a pure function of the seeds, so two runs at any
    ``-j`` must produce byte-identical canonical JSON — the determinism
    gate pins this. Works on single-mode documents and on the combined
    ``{"sweep": ..., "replay": ...}`` shape the CLI writes.
    """
    def strip(entry):
        if isinstance(entry, dict):
            return {
                key: strip(value)
                for key, value in entry.items()
                if key not in _HOST_FIELDS
            }
        if isinstance(entry, list):
            return [strip(value) for value in entry]
        return entry

    return json.dumps(strip(doc), indent=2, sort_keys=True) + "\n"


def format_sweep(doc: dict) -> str:
    """Human-readable sweep summary: stats table, p99 error-bar series,
    detected knee."""
    lines = [
        f"loadgen sweep: {doc['arrival_kind']} arrivals on "
        f"{doc['backend']} ({doc['seeds']} seeds x "
        f"{doc['duration_us'] / 1e3:.0f} ms, concurrency "
        f"{doc['concurrency']})",
        f"  {'offered/s':>10} {'achieved/s':>11} {'mean us':>9} "
        f"{'p50 us':>8} {'p99 us':>9} {'p99 95% CI':>20} {'p(vs base)':>10}",
    ]
    for point in doc["points"]:
        ci = point["p99_ci_us"]
        pval = point["vs_base_pvalue"]
        lines.append(
            f"  {point['offered_per_sec']:>10,.0f}"
            f" {point['achieved_per_sec']:>11,.1f}"
            f" {point['mean_us']:>9,.1f}"
            f" {point['p50_us']:>8,.1f}"
            f" {point['p99_us']:>9,.1f}"
            f" {f'[{ci[0]:,.1f}, {ci[1]:,.1f}]':>20}"
            f" {'-' if pval is None else format(pval, '.4f'):>10}"
        )
    lines.append(
        format_ci_series(
            "  p99(offered)",
            [p["offered_per_sec"] for p in doc["points"]],
            [p["p99_us"] for p in doc["points"]],
            [p["p99_ci_us"][0] for p in doc["points"]],
            [p["p99_ci_us"][1] for p in doc["points"]],
        )
    )
    knee = doc.get("knee")
    if knee is None:
        lines.append("  knee: none detected within the sweep")
    else:
        lines.append(
            f"  knee: offered {knee['offered_per_sec']:,.0f}/s "
            f"(p99 {knee['p99_us']:,.1f} us, bulge {knee['bulge']:.3f})"
        )
    return "\n".join(lines)


def format_replay(doc: dict) -> str:
    """Human-readable replay summary: per-epoch table + overall stats."""
    trace = doc["trace"]
    lines = [
        f"trace replay: {trace['name']} ({trace['epochs']} epochs, "
        f"{trace['duration_us'] / 1e3:.0f} ms, key space "
        f"{trace['key_space']}) on {doc['backend']}, {doc['seeds']} seeds",
        f"  {'epoch':>5} {'rate/s':>10} {'alpha':>6} {'completed':>9} "
        f"{'p50 us':>8} {'p99 us':>9} {'p99 range':>20}",
    ]
    for epoch in doc["epochs"]:
        p99_range = f"[{epoch['p99_min_us']:,.1f}, {epoch['p99_max_us']:,.1f}]"
        lines.append(
            f"  {epoch['index']:>5} {epoch['rate_per_sec']:>10,.0f}"
            f" {epoch['zipf_alpha']:>6.2f} {epoch['completed']:>9,}"
            f" {epoch['p50_us']:>8,.1f} {epoch['p99_us']:>9,.1f}"
            f" {p99_range:>20}"
        )
    overall = doc["overall"]
    mean_ci = overall["mean_ci_us"]
    p99_ci = overall["p99_ci_us"]
    lines.append(
        f"  overall: mean {overall['mean_us']:,.1f} us "
        f"[{mean_ci[0]:,.1f}, {mean_ci[1]:,.1f}], "
        f"p99 {overall['p99_us']:,.1f} us "
        f"[{p99_ci[0]:,.1f}, {p99_ci[1]:,.1f}] "
        f"({overall['n_samples']:,} samples)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """CLI: ``python -m repro loadgen``; returns the exit status.

    Default mode is ``--sweep``; passing both flags runs both suites into
    one combined document.
    """
    import argparse

    from ..parallel import resolve_jobs

    def rate_list(value: str) -> List[float]:
        rates = [float(rate) for rate in value.split(",") if rate]
        if len(rates) < 2:
            raise argparse.ArgumentTypeError("needs at least two rates")
        return rates

    def seed_count(value: str) -> int:
        seeds = int(value)
        if seeds < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return seeds

    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description="Open-loop latency-vs-load sweep and trace replay "
        "(writes BENCH_loadgen.json).",
    )
    parser.add_argument("--sweep", action="store_true", help="rate sweep (default)")
    parser.add_argument("--replay", action="store_true", help="trace replay suite")
    parser.add_argument("--arrivals", choices=ARRIVAL_KINDS, default="poisson")
    parser.add_argument("--backend", choices=BACKEND_KINDS, default="hydra")
    parser.add_argument("--rates", type=rate_list, metavar="R1,R2,...",
                        help="offered rates in req/s (at least two)")
    parser.add_argument("--seeds", type=seed_count, default=3, metavar="N")
    parser.add_argument("--trace", metavar="PATH",
                        help="replay this trace instead of the built-in ones")
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "-j", "--jobs", type=resolve_jobs, default=1, metavar="N",
        help="worker processes (number, 0 or 'auto'; default 1)",
    )
    parser.add_argument("--output", default="BENCH_loadgen.json", metavar="PATH")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code

    trace_json: Optional[str] = None
    if args.trace is not None:
        try:
            with open(args.trace) as fh:
                trace_json = fh.read()
            ReplayTrace.from_json(trace_json)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load trace {args.trace!r}: {exc}", file=sys.stderr)
            return 2

    sections: Dict[str, dict] = {}
    if args.sweep or not args.replay:
        sections["sweep"] = run_sweep(
            arrival_kind=args.arrivals,
            rates=args.rates,
            seeds=args.seeds,
            backend=args.backend,
            quick=args.quick,
            jobs=args.jobs,
            progress=print,
        )
        print(format_sweep(sections["sweep"]))
    if args.replay:
        sections["replay"] = run_replay_suite(
            trace_json=trace_json,
            seeds=args.seeds,
            backend=args.backend,
            quick=args.quick,
            jobs=args.jobs,
            progress=print,
        )
        print(format_replay(sections["replay"]))

    if len(sections) == 1:
        doc = next(iter(sections.values()))
    else:
        doc = {"schema": LOADGEN_SCHEMA, "mode": "both", **sections}
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
