"""``python -m repro chaos`` — run a seeded chaos campaign from the CLI.

Exit status 0 when every invariant held, 1 on a violation (the repro
bundle is written either way; CI uploads it as an artifact on failure).

``--soak S`` switches to a multi-seed soak: ``S`` campaigns at seeds
``--seed .. --seed + S - 1``, sharded across ``-j`` worker processes,
with a deterministic merged summary written to ``<out>/soak.json``
(byte-identical for every ``-j`` value). Reproduce a violating seed with
the single-campaign mode.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import replace
from typing import Optional

from ..harness import banner, format_kv
from ..parallel import resolve_jobs
from .bundle import write_bundle
from .engine import INJECTABLE_BUGS, ChaosConfig, ChaosResult, run_chaos
from .schedule import SCENARIOS, ChaosSchedule
from .shrink import shrink_schedule
from .soak import run_soak, soak_json

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Seeded, deterministic chaos campaign with "
        "durability/consistency/liveness invariant checking.",
    )
    parser.add_argument("--seed", type=int, default=1, help="campaign seed")
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized run (~3 simulated seconds)"
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="on violation, shrink the schedule to a minimal counterexample",
    )
    parser.add_argument(
        "--replay",
        metavar="SCHEDULE_JSON",
        help="replay a schedule from a repro bundle instead of sampling one",
    )
    parser.add_argument(
        "--inject-bug",
        choices=INJECTABLE_BUGS,
        help="plant a known fault in the system under test (checker self-test)",
    )
    parser.add_argument(
        "--scenario",
        choices=SCENARIOS,
        help="run a named control-plane scenario (explicit schedule, "
        "auto-enables metadata replication); composes with --soak",
    )
    parser.add_argument(
        "--out",
        default="chaos-bundle",
        help="repro bundle output directory (default: chaos-bundle)",
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="skip span collection (faster; bundle ships no trace.json)",
    )
    parser.add_argument(
        "--soak",
        type=int,
        metavar="S",
        help="run S campaigns at seeds --seed .. --seed+S-1 and merge a "
        "deterministic summary (<out>/soak.json)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=resolve_jobs,
        default=1,
        metavar="N",
        help="worker processes for --soak shards (number, 0 or 'auto'; "
        "default 1 = serial in-process)",
    )
    return parser


def _soak_main(args) -> int:
    config = ChaosConfig.quick() if args.quick else ChaosConfig()
    if args.scenario:
        config = replace(config, scenario=args.scenario)
    print(
        banner(
            f"chaos soak seeds={args.seed}..{args.seed + args.soak - 1} "
            f"-j {args.jobs}"
            + (" (quick)" if args.quick else "")
            + (f" scenario={args.scenario}" if args.scenario else "")
        )
    )
    doc = run_soak(
        args.seed,
        args.soak,
        config=config,
        jobs=args.jobs,
        inject_bug=args.inject_bug,
        progress=print,
    )
    for entry in doc["seeds"]:
        if entry["ok"]:
            workload = entry["workload"]
            print(
                f"  seed {entry['seed']}: ok — "
                f"{entry['schedule_events']} events, "
                f"{workload['writes'] + workload['reads']} ops, "
                f"report sha {entry['report_sha256'][:12]}"
            )
        elif entry.get("error"):
            print(f"  seed {entry['seed']}: ERROR — {entry['error']}")
        else:
            for violation in entry["violations"]:
                print(
                    f"  seed {entry['seed']}: VIOLATED "
                    f"[{violation['invariant']}] t={violation['at_us']:.1f}us "
                    f"{violation['detail']}"
                )
    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(args.out, "soak.json")
    with open(summary_path, "w") as fh:
        fh.write(soak_json(doc))
    print(f"\nsoak summary: {summary_path}")
    if doc["ok"]:
        print(f"all invariants held across {args.soak} seeds")
        return 0
    bad = ", ".join(str(seed) for seed in doc["violating_seeds"])
    print(
        f"violations at seed(s) {bad} — reproduce with "
        f"`python -m repro chaos --seed <S>"
        + (" --quick" if args.quick else "")
        + " --shrink`"
    )
    return 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.soak is not None:
        if args.replay or args.shrink:
            print("--soak is incompatible with --replay/--shrink; "
                  "reproduce one seed with the single-campaign mode")
            return 2
        if args.soak < 1:
            print(f"--soak needs at least 1 seed, got {args.soak}")
            return 2
        return _soak_main(args)
    config = ChaosConfig.quick() if args.quick else ChaosConfig()
    if args.scenario:
        if args.replay:
            print("--scenario is incompatible with --replay "
                  "(a replayed schedule already says what happens)")
            return 2
        config = replace(config, scenario=args.scenario)

    schedule = None
    if args.replay:
        # A replay points CI (or a human) at a bundle that may be gone,
        # truncated, or from a different era — fail with one line and a
        # distinct exit status instead of a traceback.
        try:
            with open(args.replay) as fh:
                schedule = ChaosSchedule.from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"cannot replay {args.replay}: {exc}")
            return 2

    print(
        banner(
            f"chaos seed={args.seed}"
            + (" (quick)" if args.quick else "")
            + (f" scenario={args.scenario}" if args.scenario else "")
        )
    )
    result = run_chaos(
        args.seed,
        config=config,
        schedule=schedule,
        inject_bug=args.inject_bug,
        trace=not args.no_trace,
    )

    print("Schedule:")
    for event in result.schedule.events:
        print("  " + event.describe())
    print()
    print(
        format_kv(
            {
                "events": len(result.schedule),
                "workload ops": sum(
                    result.report["workload"][key] for key in ("writes", "reads")
                ),
                "workload errors": result.report["workload"]["errors"],
                "regens started": result.report["invariants"]["counters"][
                    "regens_started"
                ],
                "violations": len(result.violations),
            }
        )
    )

    shrunk: Optional[ChaosResult] = None
    if result.violations:
        print("\nVIOLATIONS:")
        for violation in result.violations:
            print(
                f"  [{violation.invariant}] t={violation.at_us:.1f}us "
                f"{violation.detail}"
            )
        if args.shrink and len(result.schedule) > 0:
            print("\nShrinking...")
            shrunk_schedule, shrunk, runs = shrink_schedule(
                args.seed,
                result.schedule,
                config=config,
                inject_bug=args.inject_bug,
                progress=lambda msg: print("  " + msg),
            )
            print(
                f"  minimal counterexample: {len(shrunk_schedule)} events "
                f"({runs} shrink runs)"
            )
            for event in shrunk_schedule.events:
                print("    " + event.describe())

    files = write_bundle(result, args.out, shrunk=shrunk)
    print(f"\nbundle: {len(files)} files in {args.out}/")
    if result.ok:
        print("all invariants held")
        return 0
    print("invariant VIOLATED — bundle has the repro")
    return 1
