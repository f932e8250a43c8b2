"""Greedy schedule shrinking: reduce a failing schedule to a minimal one.

ddmin-style: try removing progressively smaller chunks of events,
keeping any removal that still reproduces a violation, then finish with
a per-event greedy pass. Victim machine ids are baked into events at
sampling time, so removing an event never changes what the survivors do
— every candidate schedule is a true subset of the original behavior.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .engine import ChaosConfig, ChaosResult, run_chaos
from .schedule import ChaosSchedule

__all__ = ["shrink_schedule"]

_MAX_RUNS = 64  # campaigns one shrink may spend


def shrink_schedule(
    seed: int,
    schedule: ChaosSchedule,
    config: Optional[ChaosConfig] = None,
    *,
    inject_bug: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[ChaosSchedule, ChaosResult, int]:
    """Shrink ``schedule`` while :func:`run_chaos` keeps violating.

    Returns ``(shrunk_schedule, failing_result, runs_used)`` where
    ``failing_result`` is the violation-bearing run of the shrunk
    schedule. Raises ``ValueError`` if the input schedule does not fail
    in the first place.
    """
    runs = 0

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    def attempt(candidate: ChaosSchedule) -> Optional[ChaosResult]:
        nonlocal runs
        runs += 1
        result = run_chaos(
            seed, config=config, schedule=candidate, inject_bug=inject_bug
        )
        return result if not result.ok else None

    failing = attempt(schedule)
    if failing is None:
        raise ValueError("schedule does not produce a violation; nothing to shrink")

    current = schedule
    # Phase 1: ddmin — drop chunks, halving the chunk size as removals
    # stop working.
    chunk = max(1, len(current) // 2)
    while chunk >= 1 and runs < _MAX_RUNS:
        removed_any = False
        start = 0
        while start < len(current) and runs < _MAX_RUNS:
            candidate = current.without(range(start, min(start + chunk, len(current))))
            if len(candidate) == len(current):
                break
            result = attempt(candidate)
            if result is not None:
                say(
                    f"shrink: dropped events [{start}, {start + chunk}) -> "
                    f"{len(candidate)} events still failing"
                )
                current, failing = candidate, result
                removed_any = True
                # Do not advance: the next chunk slid into this position.
            else:
                start += chunk
        if not removed_any or chunk == 1:
            if chunk == 1:
                break
        chunk = max(1, chunk // 2)

    # Phase 2: greedy single-event pass (catches removals ddmin's chunk
    # alignment missed).
    index = 0
    while index < len(current) and runs < _MAX_RUNS:
        candidate = current.without([index])
        result = attempt(candidate)
        if result is not None:
            say(f"shrink: dropped event {index} -> {len(candidate)} events")
            current, failing = candidate, result
        else:
            index += 1

    say(f"shrink: done, {len(schedule)} -> {len(current)} events in {runs} runs")
    return current, failing, runs
