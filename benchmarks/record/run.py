"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/record/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, one measurement; the last line printed is the JSON
        result the benchmark driver reads (see BENCHMARK.json).

    python3 benchmarks/record/run.py --seed N [--seconds S] [--traced]
        all four workloads; prints every metric by name with its unit and
        exits non-zero on any incorrect output. ``--traced`` adds the
        per-layer pass.

    ... --repeat R
        the untraced set R times on one seed: median, quartiles and
        relative spread per metric (R >= 5, or the quartiles are
        extrapolated). Exits 3 when a spread exceeds the
        metric's bound and 4 when anything that must repeat exactly for a
        seed (simulated latencies, anchors, counts) did not.

    ... --smoke
        tiny sizes; checks names, units, determinism and that tracing
        leaves nothing patched.

Every measurement runs in a fresh child interpreter (``child.py``), one
process, one thread. Metric names, units and bounds live in BENCHMARK.json
at the repo root and nowhere else; README.md explains each one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
OUT = BENCH_DIR / "out"
SOURCE = ROOT / "src"

SLO_P99_US = 500.0          # pager_openloop latency limit on the p99
SLO_COMPLETION_SHARE = 0.95  # and completions-in-window / arrivals
SETUP_REPEATS = 5


class ChildFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def spawn(workload: str, mode: str, seed: int, *, seconds: float = 0.0,
          segments: int = 0, scale: int = 1) -> dict:
    """Run ``child.py`` once and return the document it prints."""
    limit_s = 45 + 4 * seconds   # a livelock dies here, with a traceback
    args = {
        "workload": workload, "mode": mode, "seed": seed, "scale": scale,
        "seconds": seconds, "segments": segments, "limit_s": limit_s,
        "out": str(OUT), "t_spawn": time.time(),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # Compile cache inside the checkout: nothing is written outside it.
    env["REPRO_NATIVE_CACHE"] = str(OUT / "native-cache")
    env["PYTHONHASHSEED"] = "0"
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(args)],
            stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True,
            timeout=limit_s + 15,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}/{mode}: no result in {exc.timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}/{mode}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


def prime_native_cache() -> None:
    """Compile the GF kernel once, so no timed set-up pays for gcc."""
    cache = OUT / "native-cache"
    if not any(cache.glob("*.so")):
        spawn("ec_pipeline", "setup", 0, scale=64)


# ----------------------------------------------------------------------
# deriving metrics from child documents
# ----------------------------------------------------------------------
def reference_rate(doc: dict, kind: str = "all") -> float:
    """Ops of ``kind`` per reference second: total ops over total timed
    host seconds, each segment's seconds scaled by the host speed sampled
    around it (hostclock.py). Every stall inside a timed phase counts."""
    ops = sum(seg["ops"][kind] for seg in doc["segments"])
    seconds = sum(seg["seconds"][kind] * seg["host_scale"] for seg in doc["segments"])
    return ops / seconds


def raw_rate(doc: dict) -> float:
    """Total ops over total timed host seconds, not normalised."""
    return (sum(seg["ops"]["all"] for seg in doc["segments"])
            / sum(seg["seconds"]["all"] for seg in doc["segments"]))


def segment_rates(doc: dict) -> List[float]:
    """Per-segment ops per reference second: the spread inside one run."""
    return [seg["ops"]["all"] / (seg["seconds"]["all"] * seg["host_scale"])
            for seg in doc["segments"]]


def phase_totals(doc: dict, phase: str):
    """(ops, reference seconds) of one named phase over the whole run."""
    ops = 0
    seconds = 0.0
    for seg in doc["segments"]:
        for name, _kind, phase_ops, phase_seconds in seg["phases"]:
            if name == phase:
                ops += phase_ops
                seconds += phase_seconds * seg["host_scale"]
    return ops, seconds


def phase_rate(doc: dict, phase: str) -> float:
    ops, seconds = phase_totals(doc, phase)
    return ops / seconds if seconds else 0.0


def med(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def anchor_counts(doc: dict) -> Dict[str, float]:
    """Exact counts summed over the anchor prefix of segments."""
    total: Dict[str, float] = {}
    for seg in doc["segments"][: doc["anchor_segments"]]:
        for key, value in seg["counts"].items():
            total[key] = total.get(key, 0) + value
    return total


def slo_rate(doc: dict) -> float:
    """Highest offered rate that meets the p99 limit without a backlog."""
    counts = anchor_counts(doc)
    best = 0.0
    for label, stats in doc["sim"]["req"].items():
        issued = counts[f"{label}.issued"]
        in_window = counts[f"{label}.completed_in_window"]
        if stats["p99"] <= SLO_P99_US and in_window >= SLO_COMPLETION_SHARE * issued:
            best = max(best, float(label[1:-1]) * 1000.0)
    return best


def simulated_metrics(doc: dict) -> Dict[str, float]:
    sim = doc["sim"]
    out = {
        "sim_read_p50_us": sim["read"]["p50"], "sim_read_p99_us": sim["read"]["p99"],
        "sim_read_samples": sim["read"]["n"],
        "sim_write_p50_us": sim["write"]["p50"], "sim_write_p99_us": sim["write"]["p99"],
        "sim_write_samples": sim["write"]["n"],
        "sim_req_p99_us.r20k": 0.0, "sim_req_p99_us.r55k": 0.0,
        "sim_req_p99_us.r70k": 0.0, "sim_slo_rate_per_s": 0.0,
    }
    for label, stats in sim["req"].items():
        if f"sim_req_p99_us.{label}" in out:
            out[f"sim_req_p99_us.{label}"] = stats["p99"]
    if sim["req"]:
        out["sim_slo_rate_per_s"] = slo_rate(doc)
    return out


def verdict(doc: dict) -> dict:
    """attempted / failed / correct for one measured document."""
    attempted = sum(seg["attempted"] for seg in doc["segments"])
    failed = sum(seg["failed"] for seg in doc["segments"])
    errors = [seg["first_error"] for seg in doc["segments"] if seg["first_error"]]
    problems = list(errors[:1])
    if doc["workload"] == "rm_faults":
        for seg in doc["segments"]:
            counts = seg["counts"]
            if not (counts["core.corruption_detected"] > 0
                    and counts["core.corrected_reads"] > 0
                    and counts["core.regenerations"] > 0
                    and counts["core.degraded_writes"] > 0
                    and counts["core.uncorrectable_detections"] == 0):
                problems.append("a segment did not exercise the fault paths as designed")
                break
    return {
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems, "problems": problems,
    }


# ----------------------------------------------------------------------
# the two passes
# ----------------------------------------------------------------------
def measure_untraced(workload: str, seed: int, seconds: float, scale: int = 1) -> dict:
    """End-to-end metrics: one measuring child plus set-up-only children,
    so ``setup_s`` is a median of ``SETUP_REPEATS`` fresh set-ups."""
    doc = spawn(workload, "measure", seed, seconds=seconds, scale=scale)
    setups = [doc["setup"]] + [
        spawn(workload, "setup", seed, scale=scale)["setup"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    metrics = {
        "setup_s": med([s["setup_s"] * s["host_scale"] for s in setups]),
        "ops_per_s": reference_rate(doc),
        "read_ops_per_s": reference_rate(doc, "read"),
        "write_ops_per_s": reference_rate(doc, "write"),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    result = verdict(doc)
    result.update(
        workload=workload, seed=seed, metrics=metrics, doc=doc,
        raw={
            "setup_s": med([s["setup_s"] for s in setups]),
            "ops_per_s": raw_rate(doc),
            "host_scale": med([seg["host_scale"] for seg in doc["segments"]]),
        },
        simulated=simulated_metrics(doc),
    )
    return result


def measure_traced(workload: str, seed: int, seconds: float, scale: int = 1,
                   probes: Optional[dict] = None) -> dict:
    """Per-layer metrics: a short untraced child (rates, set-up split,
    simulated latencies), a traced child (where the time goes, exact
    counts) and the direct-drive probes (``probes``: reuse a set already
    measured; they do not depend on the workload)."""
    plain = spawn(workload, "measure", seed, seconds=0.4 * seconds, scale=scale)
    traced = spawn(workload, "traced", seed, segments=1, scale=scale)
    if probes is None:
        probes = spawn(workload, "probes", seed, scale=scale)

    trace = traced["trace"]
    window = trace["window_s"]
    self_s, busy_s, by_name = trace["self_s"], trace["busy_s"], trace["by_name"]
    seg = traced["segments"][0]
    counts = seg["counts"]
    ops = seg["ops"]["all"]

    def share(seconds_: float) -> float:
        return seconds_ / window if window else 0.0

    def count(name: str) -> float:
        return counts.get(name, 0)

    def points(field: str) -> List[float]:
        return [v for key, v in counts.items() if key.endswith("." + field)]

    metrics: Dict[str, float] = {}
    events = count("sim.events")
    metrics.update({
        "sim.events": events,
        "sim.events_per_op": events / ops if ops else 0.0,
        "sim.resumes": sum(v for k, v in by_name.items() if k.startswith("resume:")),
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.self_share": share(self_s.get("sim", 0.0)),
        "sim.host_us_per_event": 1e6 * self_s.get("sim", 0.0) / events if events else 0.0,
    })
    posts = count("net.posts")
    metrics.update({
        "net.posts": posts,
        "net.bytes_tx": count("net.bytes_tx"),
        "net.post_busy_s": busy_s.get("net", 0.0),
        "net.post_us": 1e6 * busy_s.get("net", 0.0) / posts if posts else 0.0,
        "net.busy_share": share(busy_s.get("net", 0.0)),
    })
    rm_reads = by_name.get("ResilienceManager.read", 0)
    metrics.update({
        "core.self_s": self_s.get("core", 0.0),
        "core.self_share": share(self_s.get("core", 0.0)),
        "core.splits_per_read":
            by_name.get("Machine.read_split", 0) / rm_reads / 8 if rm_reads else 0.0,
    })
    for key in ("reads", "writes", "decoded_reads", "corruption_detected",
                "corrected_reads", "healed_splits", "uncorrectable_detections",
                "degraded_writes", "regenerations", "regen_for_errors",
                "exposed_wrong_reads"):
        metrics[f"core.{key}"] = count(f"core.{key}")
    for phase in ("corrupt_read", "down_read", "down_write", "post_regen_read"):
        metrics[f"core.phase.{phase}_ops_per_s"] = phase_rate(plain, phase)
    # Reference seconds one regeneration window takes.
    metrics["core.phase.regen_host_s"] = (
        phase_totals(plain, "regen")[1] / len(plain["segments"]))

    cache = traced["plan_cache"] or {"hits": 0, "misses": 0}
    lookups = cache["hits"] + cache["misses"]
    metrics.update({
        "ec.calls": trace["calls"].get("ec", 0),
        "ec.busy_s": busy_s.get("ec", 0.0),
        "ec.busy_share": share(busy_s.get("ec", 0.0)),
        "ec.bytes_coded": trace["bytes_coded"],
        "ec.plan_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "ec.native_backend": traced["setup"]["native_backend"],
        "ec.native_load_s": traced["setup"]["native_load_s"],
    })
    for phase in ("encode", "decode", "verify", "correct"):
        rate = phase_rate(plain, phase)
        metrics[f"ec.{phase}_page_us"] = 1e6 / rate if rate else 0.0
    for phase in ("encode_batch", "decode_batch", "correct_batch"):
        metrics[f"ec.{phase}_mb_per_s"] = phase_rate(plain, phase) * 4096 / 2 ** 20

    metrics.update({
        "cluster.split_reads": by_name.get("Machine.read_split", 0),
        "cluster.split_writes": by_name.get("Machine.write_split", 0),
        "cluster.busy_s": busy_s.get("cluster", 0.0),
    })
    hits, faults = sum(points("hits")), sum(points("faults"))
    metrics.update({
        "vmm.accesses": hits + faults,
        "vmm.hit_rate": hits / (hits + faults) if hits + faults else 0.0,
        "vmm.page_ins": sum(points("page_ins")),
        "vmm.page_outs": sum(points("page_outs")),
        "vmm.self_s": self_s.get("vmm", 0.0),
        "workloads.issued": sum(points("issued")),
        "workloads.completed": sum(points("completed")),
        "workloads.dropped": sum(points("dropped")),
        "workloads.queue_peak": max(points("queue_peak"), default=0),
        # The generator runs on the simulated clock: it is never late.
        "workloads.generator_lag_us": 0.0,
        "workloads.self_s": self_s.get("workloads", 0.0),
    })
    metrics.update({
        "trace.overhead_pct":
            100.0 * (reference_rate(plain) / reference_rate(traced) - 1.0),
        "trace.bench_share": share(self_s.get("bench", 0.0)),
        "harness.import_s": plain["setup"]["import_s"],
        "harness.build_s": plain["setup"]["build_s"],
        "harness.preload_s": plain["setup"]["preload_s"],
        "harness.warmup_s": plain["setup"]["warmup_s"],
        "harness.raw_ops_per_s": raw_rate(plain),
        "host.scale": med([seg["host_scale"] for seg in plain["segments"]]),
    })
    metrics.update({k: v for k, v in probes.items() if k != "peak_rss_mb"})
    simulated = simulated_metrics(plain)
    metrics.update(simulated)
    result = verdict(plain)
    metrics["failed_share"] = result["failed"] / result["attempted"]

    # Non-perturbation guard: tracing must not change what is simulated.
    first = plain["segments"][0]
    if first["anchor"] != seg["anchor"] or first["counts"] != seg["counts"]:
        result["problems"].append("traced and untraced anchors differ")
    if not trace["restored"]:
        result["problems"].append("tracing left a patched attribute behind")
    if trace["missing"]:
        result["problems"].append(
            "entry points the tracer wraps are gone: " + ", ".join(trace["missing"]))
    if verdict(traced)["failed"]:
        result["problems"].append("the traced segment had failing operations")
    result["correct"] = result["correct"] and not result["problems"]
    result.update(workload=workload, seed=seed, metrics=metrics,
                  trace_file=trace["file"], layer_self_s=self_s, window_s=window,
                  anchor=first["anchor"], plain=plain)
    return result


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def units(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_metrics(workload: str, metrics: Dict[str, float], unit: Dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"{workload:<15} {name:<36} {value:>16.6g} {unit.get(name, '')}")


def print_untraced(result: dict, unit: Dict[str, str]) -> None:
    workload, doc = result["workload"], result["doc"]
    print_metrics(workload, result["metrics"], unit)
    rates = segment_rates(doc)
    q1, q2, q3 = (statistics.quantiles(rates, n=4) if len(rates) > 1
                  else rates * 3)
    print(f"{workload:<15} per-segment ops_per_s: n {len(rates)} q1 {q1:.6g} "
          f"median {q2:.6g} q3 {q3:.6g}; not normalised: ops_per_s "
          f"{result['raw']['ops_per_s']:.6g} 1/s, setup_s {result['raw']['setup_s']:.3f} s, "
          f"host scale {result['raw']['host_scale']:.3f}")
    print_metrics(workload, result["simulated"], unit)
    anchor = doc["segments"][0]["anchor"]
    print(f"{workload:<15} anchors (segment 0): "
          + " ".join(f"{k}={v}" for k, v in anchor.items()))
    print(f"{workload:<15} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']} {'; '.join(result['problems'])}")


def print_traced(result: dict, unit: Dict[str, str]) -> None:
    workload = result["workload"]
    print_metrics(workload, result["metrics"], unit)
    layers = ", ".join(f"{k} {v / result['window_s']:.3f}"
                       for k, v in sorted(result["layer_self_s"].items(),
                                          key=lambda kv: -kv[1]))
    print(f"{workload:<15} self-time shares of the traced window "
          f"({result['window_s']:.3f} s): {layers}")
    print(f"{workload:<15} spans in {result['trace_file']}")
    print(f"{workload:<15} correct {result['correct']} {'; '.join(result['problems'])}")


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def contract_run(spec: dict, args) -> int:
    """One workload, one measurement, JSON result on the last line."""
    unit = units(spec)
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
        print_traced(result, unit)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        result = measure_untraced(args.workload, args.seed, args.seconds)
        print_untraced(result, unit)
        names = [m["name"] for m in spec["end_to_end"]]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit[name]}
            for name in names
        },
    }))
    return 0


def exact_part(result: dict):
    """What must repeat exactly for a seed: simulated latencies, failure
    accounting of the anchor prefix, its anchors and every exact count."""
    doc = result["doc"]
    prefix = doc["segments"][: doc["anchor_segments"]]
    return (result["simulated"],
            [(seg["anchor"], seg["counts"], seg["attempted"], seg["failed"])
             for seg in prefix])


def spread_report(spec: dict, runs: List[dict]) -> int:
    """Median, quartiles and relative spread per end-to-end metric, and
    the same-seed determinism guard."""
    status = 0
    for workload in dict.fromkeys(r["workload"] for r in runs):
        parts = [exact_part(r) for r in runs if r["workload"] == workload]
        same = all(part == parts[0] for part in parts)
        print(f"{workload:<15} simulated metrics, anchors and counts of "
              f"{len(parts)} same-seed runs: {'identical' if same else 'DIFFER'}")
        if not same:
            status = 4
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in dict.fromkeys(r["workload"] for r in runs):
            values = [r["metrics"][name] for r in runs if r["workload"] == workload]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            flag = ""
            if spread > metric["bound"]:
                flag = "  <-- spread exceeds the bound"
                status = status or 3
            print(f"{workload:<15} {name:<18} median {q2:>12.6g} q1 {q1:>12.6g} "
                  f"q3 {q3:>12.6g} spread {spread:6.2%} bound {metric['bound']:.0%} "
                  f"n={len(values)}{flag}")
    return status


def full_run(spec: dict, args) -> int:
    unit = units(spec)
    names = [w["name"] for w in spec["workloads"]]
    runs: List[dict] = []
    status = 0
    for _ in range(args.repeat):
        for workload in names:
            result = measure_untraced(workload, args.seed, args.seconds)
            print_untraced(result, unit)
            runs.append(result)
            status = status or (0 if result["correct"] else 1)
    if args.traced:
        # One probe set serves all four; rm_clean's includes the monitoring probe.
        probes = spawn("rm_clean", "probes", args.seed)
        for workload in names:
            result = measure_traced(workload, args.seed, args.seconds, probes=probes)
            print_traced(result, unit)
            status = status or (0 if result["correct"] else 1)
    if args.repeat > 1:
        status = status or spread_report(spec, runs)
    return status


def smoke(spec: dict) -> int:
    """Tiny sizes: names, units, failure accounting, determinism and
    non-perturbation. Raises AssertionError on the first broken promise."""
    scale = 16
    before = _listing()
    unit = units(spec)
    probes = spawn("rm_clean", "probes", 3, scale=scale)
    for workload in (w["name"] for w in spec["workloads"]):
        first = measure_untraced(workload, 3, 0.0, scale)
        again = measure_untraced(workload, 3, 0.0, scale)
        traced = measure_traced(workload, 3, 0.0, scale, probes=probes)
        print_untraced(first, unit)
        print_traced(traced, unit)
        for metric in spec["end_to_end"]:
            assert metric["unit"] and first["metrics"][metric["name"]] > 0, metric
        for metric in spec["per_layer"]:
            assert metric["unit"] and metric["name"] in traced["metrics"], metric
        assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}, (
            set(traced["metrics"]) ^ {m["name"] for m in spec["per_layer"]})
        assert first["attempted"] > 0 and first["failed"] == 0 and first["correct"]
        assert traced["metrics"]["failed_share"] == (
            traced["failed"] / traced["attempted"])
        # Same seed, same simulation: anchors, counts, simulated latencies.
        assert exact_part(first) == exact_part(again), workload
        assert traced["correct"], traced["problems"]  # anchors equal, originals restored
        assert os.path.getsize(traced["trace_file"]) > 0
        # The counters the layer budget rests on are alive where they apply:
        # a renamed hook under src/ must not read as "this layer did nothing".
        simulated = workload != "ec_pipeline"
        coded = workload != "pager_openloop"
        for name, applies in (("sim.events", simulated), ("sim.resumes", simulated),
                              ("net.posts", simulated), ("ec.calls", coded)):
            assert (traced["metrics"][name] > 0) == applies, (workload, name)
    assert _listing() == before, "the benchmark wrote outside its out/ directory"
    print("smoke: ok")
    return 0


def _listing() -> List[str]:
    """Files of the repo outside ``out/`` and bytecode caches."""
    found = []
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if OUT in path.parents or path == OUT or rel.parts[0] == ".git":
            continue
        if "__pycache__" in rel.parts or not path.is_file():
            continue
        found.append(str(rel))
    return sorted(found)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro").is_dir():
        print(f"{SOURCE / 'repro'} not found: nothing to benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        print(f"unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2
    try:
        prime_native_cache()
        if args.smoke:
            return smoke(spec)
        if args.workload is not None:
            return contract_run(spec, args)
        return full_run(spec, args)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
