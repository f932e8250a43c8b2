"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
    Timeout,
)

from .conftest import drive
from .scan_oracle import ScanSimulator


class Wake(Exception):
    """What the tests throw into a process."""


class TestEvent:
    def test_succeed_sets_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42
        assert event.ok

    def test_fail_sets_exception(self, sim):
        event = sim.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.exception is error
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(ValueError("x"))

    def test_fail_requires_exception_instance(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_callbacks_run_on_processing(self, sim):
        event = sim.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("hello")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["hello"]


class TestTimeout:
    def test_advances_clock(self, sim):
        def proc():
            yield sim.timeout(10.5)
            return sim.now

        assert drive(sim, proc()) == 10.5

    def test_zero_delay_is_fine(self, sim):
        def proc():
            yield sim.timeout(0.0)
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_timeout_value_passes_through(self, sim):
        def proc():
            result = yield sim.timeout(1.0, value="payload")
            return result

        assert drive(sim, proc()) == "payload"

    def test_timeouts_fire_in_order(self, sim):
        order = []

        def waiter(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(waiter(5, "b"))
        sim.process(waiter(2, "a"))
        sim.process(waiter(9, "c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_at_same_instant(self, sim):
        order = []

        def waiter(tag):
            yield sim.timeout(3)
            order.append(tag)

        for tag in ("x", "y", "z"):
            sim.process(waiter(tag))
        sim.run()
        assert order == ["x", "y", "z"]


class TestProcess:
    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        assert drive(sim, proc()) == "done"

    def test_exception_propagates_to_waiter(self, sim):
        def failing():
            yield sim.timeout(1)
            raise ValueError("inner")

        def outer():
            with pytest.raises(ValueError, match="inner"):
                yield sim.process(failing())
            return "caught"

        assert drive(sim, outer()) == "caught"

    def test_process_is_event(self, sim):
        def child():
            yield sim.timeout(3)
            return 7

        def parent():
            value = yield sim.process(child())
            return value * 2

        assert drive(sim, parent()) == 14

    def test_yield_non_event_fails_process(self, sim):
        def bad():
            yield 42

        process = sim.process(bad())
        sim.run()
        assert not process.ok
        assert isinstance(process.exception, SimulationError)

    def test_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_yield_already_processed_event(self, sim):
        done = sim.event()
        done.succeed("early")
        sim.run()
        assert done.processed

        def proc():
            value = yield done
            return value

        assert drive(sim, proc()) == "early"

    def test_interrupt_delivers_cause(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Wake as wake:
                log.append((sim.now, str(wake)))
                return "interrupted"
            return "slept"

        def interrupter(target):
            yield sim.timeout(5)
            target.throw(Wake("wake up"))

        target = sim.process(sleeper())
        sim.process(interrupter(target))
        sim.run()
        assert target.value == "interrupted"
        # Delivered at t=5; the orphaned timeout still drains at t=100.
        assert log == [(5.0, "wake up")]

    def test_interrupt_before_the_first_resume_detaches_from_the_first_wait(self):
        """A throw scheduled before the bootstrap record fired is delivered
        at the first yield; the event awaited there must not resume the
        process a second time."""
        from repro.cluster import Cluster
        from repro.net import BackgroundFlow

        cluster = Cluster(machines=2, seed=1)
        flow = BackgroundFlow(cluster.fabric, 1, message_bytes=1 << 20)
        process = flow.start()
        process.throw(Wake("flow stopped"))  # same instant: no first step yet
        # Used to raise "<bgflow->1 processed> has already been triggered".
        cluster.sim.run(until=1e6)
        assert not process.is_alive and not flow.active
        assert isinstance(process.exception, Wake)

    def test_interrupted_sleeper_is_not_woken_by_its_stale_timeout(self, sim):
        log = []

        def victim():
            try:
                yield sim.timeout(10)
            except Wake as wake:
                log.append((sim.now, str(wake)))
            yield sim.timeout(100)  # the 10 us timeout above must not cut this short
            return sim.now

        def twice():
            try:
                yield sim.timeout(10)
            except Wake:
                pass
            try:
                yield sim.timeout(20)
            except Wake:
                log.append((sim.now, "second"))
            yield sim.timeout(100)
            return sim.now

        def done_at_once():
            return "done"
            yield  # pragma: no cover - makes this a generator

        process = sim.process(victim())
        process.throw(Wake("before the bootstrap"))
        # A process that ends in its first step has nothing left to throw into.
        quick = sim.process(done_at_once())
        quick.throw(Wake())
        # Two throws in one instant: the second is delivered at the yield
        # the first one led to, and detaches from that one too.
        double = sim.process(twice())
        double.throw(Wake())
        double.throw(Wake())
        sim.run()
        assert log == [(0.0, "before the bootstrap"), (0.0, "second")]
        assert process.value == 100.0 and double.value == 100.0
        assert quick.value == "done"

    def test_start_is_one_record_in_fifo_with_its_instant(self, sim):
        """A process starts from one scheduled record — one sequence number,
        no event — which runs in scheduling order among the other records
        of its instant, whatever kind they are."""
        log = []

        def proc(tag):
            log.append(tag)
            yield sim.timeout(1)
            log.append(tag + " woke")

        before = sim._active
        sim.process(proc("p1"))
        assert sim._active == before + 1
        sim.call_later(0, lambda: log.append("call"))
        sim.event().succeed().callbacks.append(lambda _e: log.append("event"))
        sim.process(proc("p2"))
        sim.timeout(0).callbacks.append(lambda _e: log.append("timeout"))
        assert log == []  # nothing runs before the loop does
        sim.run()
        assert log == ["p1", "call", "event", "p2", "timeout", "p1 woke", "p2 woke"]

    def test_interrupt_dead_process_is_noop(self, sim):
        def quick():
            yield sim.timeout(1)

        process = sim.process(quick())
        sim.run()
        process.throw(Wake("too late"))  # must not raise
        sim.run()


class TestConditions:
    def test_any_of_first_wins(self, sim):
        def waiter(delay, value):
            yield sim.timeout(delay)
            return value

        def proc():
            a = sim.process(waiter(3, "a"))
            b = sim.process(waiter(7, "b"))
            results = yield sim.any_of([a, b])
            return (sim.now, len(results))

        now, count = drive(sim, proc())
        assert now == pytest.approx(3.0)
        assert count == 1

    def test_all_of_waits_for_all(self, sim):
        def waiter(delay):
            yield sim.timeout(delay)
            return delay

        def proc():
            procs = [sim.process(waiter(d)) for d in (2, 8, 5)]
            results = yield sim.all_of(procs)
            return (sim.now, sorted(results.values()))

        now, values = drive(sim, proc())
        assert now == pytest.approx(8.0)
        assert values == [2, 5, 8]

    def test_all_of_fails_fast(self, sim):
        def ok():
            yield sim.timeout(10)

        def bad():
            yield sim.timeout(2)
            raise RuntimeError("bad")

        def proc():
            with pytest.raises(RuntimeError):
                yield sim.all_of([sim.process(ok()), sim.process(bad())])
            return sim.now

        assert drive(sim, proc()) == pytest.approx(2.0)

    def test_empty_any_of_succeeds_immediately(self, sim):
        def proc():
            yield sim.any_of([])
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_all_of_with_processed_children(self, sim):
        done = sim.event()
        done.succeed(1)
        sim.run()

        def proc():
            yield sim.all_of([done])
            return "ok"

        assert drive(sim, proc()) == "ok"

    @staticmethod
    def _children(sim):
        """At t=2: ``bad`` failed (and was processed) at t=1, ``done``
        succeeded at t=1, ``good`` succeeds at t=5."""

        def bad():
            yield sim.timeout(1)
            raise RuntimeError("bad")

        def waiter(delay, value):
            yield sim.timeout(delay)
            return value

        children = (sim.process(bad()), sim.process(waiter(1, "done")),
                    sim.process(waiter(5, "good")))
        sim.run(until=2)
        assert children[0].processed and not children[0].ok
        return children

    def test_all_of_over_an_already_failed_child_and_pending_ones_fails(self, sim):
        # The failure used to be swallowed: nothing looked at a processed
        # child while others were pending, and the condition succeeded at
        # t=5 with {good: "good"}.
        bad, done, good = self._children(sim)
        for events in ([bad, good], [good, bad], [done, good, bad]):
            condition = sim.all_of(events)
            assert not condition.processed  # scheduled, like every outcome
            sim.run_until_triggered(condition)
            assert sim.now == 2 and condition.exception is bad.exception
        sim.run()
        assert good.value == "good"  # the pending child is left alone

    def test_all_of_over_processed_children_only(self, sim):
        bad, done, good = self._children(sim)
        sim.run()
        failed = sim.all_of([done, bad, good])
        succeeded = sim.all_of([done, good])
        sim.run()
        assert failed.exception is bad.exception
        assert succeeded.value == {done: "done", good: "good"}

    def test_any_of_over_already_processed_children(self, sim):
        bad, done, good = self._children(sim)
        failed = sim.any_of([good, bad])  # a failed child fails it at once
        first_ok = sim.any_of([done, bad, good])  # first processed child wins
        pending = sim.any_of([good])
        sim.run_until_triggered(failed)
        assert sim.now == 2 and failed.exception is bad.exception
        sim.run()
        assert first_ok.value == {done: "done"}
        assert pending.value == {good: "good"}


class TestSimulatorRun:
    def test_run_until_advances_clock_exactly(self, sim):
        sim.process(self._sleep(sim, 5))
        sim.run(until=100)
        assert sim.now == 100

    @staticmethod
    def _sleep(sim, delay):
        yield sim.timeout(delay)

    def test_run_until_in_past_rejected(self, sim):
        sim.process(self._sleep(sim, 5))
        sim.run(until=50)
        with pytest.raises(SimulationError):
            sim.run(until=10)

    def test_run_until_triggered_stops_early(self, sim):
        # A daemon keeps the queue busy forever; run_until_triggered must
        # still return when the target completes.
        def daemon():
            while True:
                yield sim.timeout(1.0)

        def target():
            yield sim.timeout(10.0)
            return "done"

        sim.process(daemon())
        process = sim.process(target())
        sim.run_until_triggered(process, until=1000)
        assert process.value == "done"
        assert sim.now <= 11.0

    def test_call_later_runs_function(self, sim):
        seen = []
        sim.call_later(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_call_later_negative_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_later(-1.0, lambda: None)

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_invalid_delay_is_loud_on_every_entry_point(self, sim, delay):
        """A NaN key compares false against everything: on the heap it
        would sit at the head and end every later drain early, silently
        dropping what is queued behind it."""
        seen = []
        sim.call_later(1.0, lambda: seen.append(sim.now))
        for schedule in (
            lambda: sim.call_later(delay, int),
            lambda: sim.call_later_batch(delay, [int]),
            lambda: sim.timeout(delay),
            lambda: sim._schedule(sim.event(), delay),
        ):
            with pytest.raises(SimulationError):
                schedule()
        assert sim._active == 1  # nothing was queued, no seq consumed
        sim.run()
        assert seen == [1.0]


class TestBatchedDispatch:
    """The drain's visible contract at one timestamp: FIFO order and
    same-time arrivals joining the drain."""

    def test_same_timestamp_fifo_order(self, sim):
        seen = []
        sim.call_later(5.0, lambda: seen.append("early"))
        for i in range(5):
            sim.call_later(10.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == ["early", 0, 1, 2, 3, 4]
        assert sim.now == 10.0

    def test_same_time_arrivals_join_the_drain(self, sim):
        seen = []

        def first():
            seen.append("first")
            sim.call_later(0.0, lambda: seen.append("second"))

        sim.call_later(3.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 3.0

    def test_horizon_stops_before_later_batch(self, sim):
        seen = []
        sim.call_later(10.0, lambda: seen.append("in"))
        sim.call_later(20.0, lambda: seen.append("out"))
        sim.run(until=15.0)
        assert seen == ["in"]
        assert sim.now == 15.0

    def test_active_counts_every_schedule(self, sim):
        base = sim._active
        sim.timeout(1.0)
        sim.call_later(2.0, lambda: None)
        sim.event().succeed()
        assert sim._active == base + 3


class TestQueueStorage:
    """Storage contract of the queue: an insert earlier than the record a
    drain stopped at dispatches first."""

    def test_insert_behind_a_parked_clock_dispatches_first(self):
        """``run(until)`` parks the clock short of the next record; what is
        scheduled afterwards may be due before it."""
        for make_sim in (Simulator, ScanSimulator):
            sim = make_sim()
            order = []
            sim.call_later(1.9, lambda: order.append(sim.now))
            sim.run(until=0.6)
            sim.call_later(2.6, lambda: order.append(sim.now))
            sim.call_later(2.1, lambda: order.append(sim.now))
            sim.call_later(0.0, lambda: order.append(sim.now))
            sim.run()
            assert order == [0.6, 1.9, 2.7, 3.2]
            assert not sim._queue


class TestCallLaterBatch:
    def test_batch_matches_unfused_order(self):
        for make_sim in (Simulator, ScanSimulator):
            sim = make_sim()
            seen = []
            sim.call_later(5.0, lambda: seen.append("a"))
            sim.call_later_batch(
                5.0, [lambda: seen.append("b"), lambda: seen.append("c")]
            )
            sim.call_later(5.0, lambda: seen.append("d"))
            sim.run()
            assert seen == ["a", "b", "c", "d"], make_sim.__name__
            assert sim.now == 5.0

    def test_batch_counts_every_callable(self, sim):
        base = sim._active
        sim.call_later_batch(1.0, [int, int, int])
        assert sim._active == base + 3

    def test_far_future_batch_is_one_record(self, sim):
        """A far-future batch is one record and dispatches at its time."""
        seen = []
        sim.call_later_batch(8192.0, [lambda: seen.append(sim.now)])
        sim.call_later(4096.0, lambda: seen.append(sim.now))
        assert len(sim._queue) == 2  # a batch is one record
        sim.run()
        assert seen == [4096.0, 8192.0]

    def test_empty_batch_is_a_noop(self, sim):
        base = sim._active
        sim.call_later_batch(1.0, [])
        assert sim._active == base
        sim.run()
        assert sim.now == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_later_batch(-1.0, [int])
