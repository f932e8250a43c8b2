"""Property test: the scheduler dispatches in exact ``(time, seq)`` order.

The dispatch-order contract (docs/SCALING.md) says entries are processed
in exact ``(time, seq)`` order — same-timestamp batches in FIFO schedule
order, fused ``call_later_batch`` records expanded in sequence order.
These tests interpret the same randomly generated schedule program on the
production ``Simulator`` (a binary heap) and on the definitional oracle
(``tests/scan_oracle.py``: dispatch the minimum record, found by linear
scan) and require the full dispatch logs to match, across 20 seeds.

``run`` and ``run_until_triggered`` share one drain, so the program is
also driven in slices — ``run(until=now+d)`` alternating with
``run_until_triggered(ev)`` — which exercises what a one-shot ``run()``
never reaches: the horizon stop, the target stop, and (with schedules
issued between slices) inserts earlier than the record the last drain
stopped at.

The program interpreter is deterministic *given the dispatch order*:
each fired node issues the next scripted node, so any ordering
divergence cascades into visibly different logs.

Test names (``calendar``) and the one-value ``make_sim`` parameter date
from earlier schedulers and variants these tests were written against;
they are kept so the suite's recorded test list stays comparable.
"""

import random
from functools import partial

import pytest

from repro.sim import Simulator

from .scan_oracle import ScanSimulator

# Delays are chosen to collide (same-timestamp batches), to interleave
# closely, and to sit thousands of microseconds behind everything else.
_DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 3.0, 7.5, 64.0, 4095.5, 4096.0, 9999.0)
_KINDS = ("call", "call", "batch", "timeout", "timeout", "event", "event_now", "noop")
# Slice lengths: shorter than, between and far beyond the delays above.
_SLICES = (0.0, 0.25, 1.0, 2.0, 3.5, 63.5, 4095.5, 4096.0, 5000.0)


def _one_shot(sim, arm, issue):
    sim.run()


def _sliced(poke: bool):
    """Drive in alternating ``run(until=...)`` / ``run_until_triggered``
    slices; with ``poke`` a scripted node is also issued from outside the
    drain after each horizon stop (clock parked short of the record the
    drain stopped at, so the insert can land ahead of it)."""

    def drive(sim, arm, issue):
        rng = random.Random(0x51CE)
        while True:
            sim.run(until=sim.now + rng.choice(_SLICES))
            if poke:
                issue()
                issue()
            target = sim.event()
            arm(target, rng.randrange(1, 6))
            sim.run_until_triggered(target)
            if not target.triggered:
                return  # no horizon, target pending: the queue drained

    return drive


def _run_schedule(make_sim, seed: int, drive=_one_shot):
    """Returns ``(dispatch log, (final clock, entries ever scheduled))``."""
    rng = random.Random(seed)
    n = 160
    script = [
        (rng.choice(_KINDS), rng.choice(_DELAYS), rng.randrange(2, 5), rng.randrange(1, 8))
        for _ in range(n)
    ]
    sim = make_sim()
    log = []
    cursor = [0]
    watch = []  # [dispatches left, target]: the armed run_until_triggered stop

    def arm(target, after: int) -> None:
        watch[:] = [after, target]

    def fire(i: int, j: int = 0) -> None:
        log.append((i, j, sim.now))
        if watch:
            watch[0] -= 1
            if not watch[0]:
                watch.pop().succeed_now()
                watch.clear()
        issue()

    def issue() -> None:
        i = cursor[0]
        if i >= n:
            return
        cursor[0] += 1
        kind, delay, width, pick = script[i]
        if kind == "call":
            # Odd picks take the drain's non-closure callable branch.
            sim.call_later(delay, partial(fire, i) if pick & 1 else lambda: fire(i))
        elif kind == "batch":
            sim.call_later_batch(delay, [(lambda j=j: fire(i, j)) for j in range(width)])
        elif kind == "timeout":
            timeout = sim.timeout(delay)
            timeout.callbacks.append(lambda ev: fire(i))
        elif kind == "event":
            event = sim.event()
            event.callbacks.append(lambda ev: fire(i))
            event.succeed(i)
        elif kind == "event_now":
            event = sim.event()
            event.callbacks.append(lambda ev: fire(i))
            event.succeed_now(i)
        else:
            issue()

    for _ in range(8):  # several roots, so independent chains interleave
        issue()
    drive(sim, arm, issue)
    return log, (sim.now, sim._active)


@pytest.mark.parametrize("seed", range(20))
def test_calendar_matches_heap_reference(seed):
    assert _run_schedule(Simulator, seed) == _run_schedule(ScanSimulator, seed)


@pytest.mark.parametrize("make_sim", [Simulator])
@pytest.mark.parametrize("seed", range(20))
def test_sliced_drain_matches_one_shot_and_heap(seed, make_sim):
    """Slicing a run changes where the drain stops and resumes, never what
    it dispatches: the concatenated log equals the one-shot log (the final
    clock is not compared — the last ``run(until=...)`` parks it)."""
    log, (_now, scheduled) = _run_schedule(make_sim, seed, _sliced(poke=False))
    for reference in (make_sim, ScanSimulator):
        ref_log, (_now, ref_scheduled) = _run_schedule(reference, seed)
        assert (log, scheduled) == (ref_log, ref_scheduled)


@pytest.mark.parametrize("make_sim", [Simulator])
@pytest.mark.parametrize("seed", range(20))
def test_sliced_drain_with_outside_schedules_matches_heap(seed, make_sim):
    """Scheduling between slices moves the program off the one-shot log,
    so the oracle is driven through the identical slices instead."""
    drive = _sliced(poke=True)
    assert _run_schedule(make_sim, seed, drive) == _run_schedule(ScanSimulator, seed, drive)
