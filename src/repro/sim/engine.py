"""Discrete-event simulation kernel.

A minimal, dependency-free event engine in the style of SimPy. The rest of
the repository models physical time (RDMA verbs, SSD accesses, erasure
coding) on top of this kernel; the time unit everywhere is the
**microsecond**, carried as a float.

Core concepts
-------------
``Event``
    A one-shot occurrence. It can *succeed* with a value or *fail* with an
    exception. Callbacks attached to the event run when the simulator
    processes it. An event is pending, triggered or processed, nothing
    else: a triggered event cannot be revoked, so a deadline that may lose
    a race is a ``call_later(delay, event.succeed_now)`` whose late firing
    changes nothing.
``Timeout``
    An event that succeeds after a fixed simulated delay.
``Process``
    A generator wrapped as a coroutine. Each ``yield event`` suspends the
    process until the event triggers; the event's value is returned from the
    ``yield`` expression (or its exception is thrown into the generator).
    ``Process.throw`` raises an exception at the process's current yield.
``AnyOf`` / ``AllOf``
    Composite conditions over several events.
``Simulator``
    Owns the event queue and the clock.

Scheduling
----------
The scheduler is one **binary heap** of ``(time, seq, obj)`` records:
scheduling is a sequence-number bump plus a ``heappush``, and dispatch is a
peek-then-pop loop written once (``Simulator._drain``) and shared by
``run`` and ``run_until_triggered``.

Dispatch order is a total order: ``(time, seq)`` where ``seq`` is a
monotonically increasing sequence number assigned at scheduling. Events at
the same instant therefore run in FIFO order of scheduling (pinned against
a linear-scan oracle that relies on no heap invariant by
``tests/test_scheduler_equivalence.py``). See ``docs/SCALING.md`` for the
design, its invariants and the measurements it was chosen on.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(5.0)
...     return sim.now
>>> proc = sim.process(hello(sim))
>>> sim.run()
>>> proc.value
5.0
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from types import FunctionType as _FunctionType, MethodType as _MethodType
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "Simulator",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


# Event lifecycle states.
_PENDING = 0  # not yet triggered
_TRIGGERED = 1  # scheduled for processing, value/exception set
_PROCESSED = 2  # callbacks have run

_STATE_NAMES = {
    _PENDING: "pending",
    _TRIGGERED: "triggered",
    _PROCESSED: "processed",
}

_INF = float("inf")

# Dispatch-loop fast path: scheduled completions are plain closures and
# process starts are bound methods (`_FunctionType`, `_MethodType`), so two
# exact class checks skip the isinstance(Event) probe for the common cases.


class Event:
    """A one-shot occurrence inside a :class:`Simulator`.

    Events move through three states: pending, triggered (value set and
    scheduled on the queue), and processed (callbacks executed).
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_ok", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._state = _PENDING
        self._value: Any = None
        self._ok = True
        self.name = name

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (may not be processed yet)."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's result; raises its exception if the event failed."""
        if self._state == _PENDING:
            raise SimulationError(f"value of {self!r} is not available")
        if not self._ok:
            raise self._value
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None if pending/succeeded."""
        if self._state != _PENDING and not self._ok:
            return self._value
        return None

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        self.sim._schedule(self)
        return self

    def succeed_now(self, value: Any = None) -> "Event":
        """Trigger the event and run its callbacks synchronously.

        Equivalent to :meth:`succeed` followed immediately by this event's
        dispatch, with no other queue entry in between. Only valid from
        code already executing inside the dispatch loop (a callback or a
        ``call_later`` callable): the callbacks run at the current
        simulation time, in the caller's stack frame. Callers must not
        touch shared state after the call that a resumed waiter could
        have already rewritten.
        """
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = _PROCESSED
        callbacks = self.callbacks
        self.callbacks = []
        for callback in callbacks:
            callback(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self._state = _TRIGGERED
        self.sim._schedule(self)
        return self

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        return f"<{label} {_STATE_NAMES[self._state]}>"


class Timeout(Event):
    """An event that succeeds ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which would wedge the heap's head
            raise SimulationError(f"invalid timeout delay: {delay}")
        # Timeouts dominate event volume; initialize the slots directly
        # (no super().__init__), schedule inline (no _schedule call), and
        # leave the display name to __repr__ so the hot path never formats
        # a string.
        self.sim = sim
        self.callbacks = []
        self._state = _TRIGGERED
        self._value = value
        self._ok = True
        self.name = ""
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        _heappush(sim._queue, (sim.now + delay, seq, self))

    def __repr__(self) -> str:
        return f"<Timeout({self.delay:g}) {_STATE_NAMES[self._state]}>"


class Process(Event):
    """A running coroutine. The Process *is* an event that triggers when
    the generator returns (success, value = return value) or raises
    (failure)."""

    __slots__ = ("generator", "_waiting_on", "is_alive")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process() requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "Process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        self.is_alive = True
        # Kick off the process at the current simulation time: one bare
        # bound-method record, no event.
        sim._seq = seq = sim._seq + 1
        _heappush(sim._queue, (sim.now, seq, self._start))

    def _start(self) -> None:
        """The first step: a pending process reads as a trigger that
        succeeded with None, which a generator's first ``send`` takes."""
        self._resume(self)

    def throw(self, exc: BaseException) -> None:
        """Raise ``exc`` at the process's current yield, now, via the queue."""
        if not self.is_alive:
            return
        self._detach()
        failer = Event(self.sim, name=f"throw:{self.name}")
        failer.callbacks.append(self._thrown)
        failer.fail(exc)

    def _detach(self) -> None:
        """Stop waiting for the awaited event, if there is one."""
        if self._waiting_on is not None:
            try:
                self._waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None

    def _thrown(self, failer: Event) -> None:
        """Deliver a scheduled throw. The process may have started waiting
        since :meth:`throw` ran — its start record had not fired yet, or an
        earlier throw of the same instant was caught and it sleeps again —
        and that event must not resume it as well."""
        if self.is_alive:
            self._detach()
            self._resume(failer)

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        while True:
            try:
                if trigger._ok:
                    target = self.generator.send(trigger._value)
                else:
                    target = self.generator.throw(trigger._value)
            except StopIteration as stop:
                self.is_alive = False
                # _resume only ever runs from the dispatch loop, so the
                # completion can be delivered synchronously: waiters resume
                # here instead of after one more queue round-trip.
                self.succeed_now(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - process crash propagates
                self.is_alive = False
                self.fail(exc)
                return

            if not isinstance(target, Event):
                self.is_alive = False
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded {target!r}, expected an Event"
                    )
                )
                return

            if target._state == _PROCESSED:
                # Already done: resume immediately with its outcome.
                trigger = target
                continue
            target.callbacks.append(self._resume)
            self._waiting_on = target
            return


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        name = self.__class__.__name__
        super().__init__(sim, name=name)
        self.events: List[Event] = list(events)
        for ev in self.events:
            if not isinstance(ev, Event):
                raise SimulationError(f"{name} requires Events, got {ev!r}")
        self._pending_count = len(self.events)
        if not self.events:
            self.succeed({})
        # An already processed child reports here and now, in list order: a
        # failed one fails the condition whatever else is still pending.
        for ev in self.events:
            if ev._state == _PROCESSED:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _results(self) -> dict:
        return {e: e._value for e in self.events if e._state >= _TRIGGERED and e._ok}


class AnyOf(_Condition):
    """Triggers as soon as one child event succeeds (or any child fails)."""

    __slots__ = ()

    def _on_child(self, child: Event) -> None:
        if self._state != _PENDING:
            return
        if child._ok:
            self.succeed(self._results())
        else:
            self.fail(child._value)


class AllOf(_Condition):
    """Triggers once every child succeeds; fails fast on any child failure."""

    __slots__ = ()

    def _on_child(self, child: Event) -> None:
        if self._state != _PENDING:
            return
        if not child._ok:
            self.fail(child._value)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed(self._results())


class Simulator:
    """Owns the clock and the event queue.

    The simulator advances time only through :meth:`run` and
    :meth:`run_until_triggered`; events scheduled at the same instant are
    processed in FIFO order of scheduling (a monotonically increasing
    sequence number breaks ties), so the dispatch order is ascending
    ``(time, seq)``.
    """

    def __init__(self):
        self.now: float = 0.0
        self._seq = 0
        # The heap. Entries are (time, seq, obj) where obj is an Event, a
        # bare callable, or a list of callables (one fused
        # `call_later_batch` record, seqs consecutive from seq).
        self._queue: List[tuple] = []

    @property
    def _active(self) -> int:
        """Number of entries ever scheduled (diagnostics).

        Every schedule bumps ``_seq`` exactly once per event (a fused
        batch bumps it once per callable), so the FIFO tiebreaker doubles
        as the counter — one increment per entry instead of two.
        """
        return self._seq

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if not delay >= 0:
            raise SimulationError(f"invalid delay: {delay}")
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (self.now + delay, seq, event))

    # -- factories -------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` — one queue entry, no process.

        The cheap primitive behind high-volume completions (RDMA verbs);
        use processes for anything that needs to wait again afterwards.
        The callable goes on the queue bare — no Event, no callback list,
        no closure — and the drain invokes it directly.
        """
        if not delay >= 0:
            raise SimulationError(f"invalid delay: {delay}")
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (self.now + delay, seq, fn))

    def call_later_batch(self, delay: float, fns: Iterable[Callable[[], None]]) -> None:
        """Schedule a fused batch of bare callables at the same instant.

        Semantically identical to ``for fn in fns: call_later(delay, fn)``
        — each callable gets its own consecutive sequence number, so the
        dispatch order (and ``_active``) are exactly those of the unfused
        calls — but the whole burst costs one queue record. This is the
        delivery primitive for completion bursts (a NIC draining a CQ):
        the batch is pushed, popped and dispatched as a unit, which is
        where the headroom of the repo benchmark's
        ``sim.direct_batch_events_per_s`` over
        ``sim.direct_process_events_per_s`` comes from.
        """
        if not delay >= 0:
            raise SimulationError(f"invalid delay: {delay}")
        fns = list(fns)
        if not fns:
            return
        seq = self._seq + 1
        self._seq += len(fns)
        _heappush(self._queue, (self.now + delay, seq, fns))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds after ``delay`` simulated microseconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting now."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution -------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced exactly to ``until``
        even if the last event fires earlier.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        # A target nobody can trigger: the drain ends on the queue or the
        # horizon alone.
        self._drain(Event(self), _INF if until is None else until)
        if until is not None and self.now < until:
            self.now = until

    def run_until_triggered(self, event: Event, until: Optional[float] = None) -> None:
        """Run just until ``event`` triggers (or the queue/deadline ends).

        Preferred over ``run()`` when daemon processes (e.g. periodic
        monitors) keep the queue permanently non-empty. A fused batch
        record dispatches atomically; the target's state is re-checked
        between records.
        """
        self._drain(event, _INF if until is None else until)

    def _drain(self, target: Event, horizon: float) -> None:
        """Dispatch in exact ``(time, seq)`` order while ``target`` is
        pending, the queue is non-empty and the next record is due at or
        before ``horizon``.

        Peek, then pop: a record beyond the horizon (or behind a triggered
        target) is never removed, so a stopped drain leaves the queue
        exactly as the next one needs it. Entries scheduled during
        dispatch — same-time arrivals included — land in the heap behind
        every earlier sequence number. Every record moves the clock to its
        time and runs: no state is tested before an ``Event`` dispatches.
        """
        queue = self._queue
        while target._state == _PENDING and queue and queue[0][0] <= horizon:
            when, _seq, obj = _heappop(queue)
            cls = obj.__class__
            if cls is _FunctionType or cls is _MethodType:
                self.now = when
                obj()  # call_later closure or process start — the common cases
            elif cls is list:
                self.now = when
                for fn in obj:
                    fn()
            elif isinstance(obj, Event):
                self.now = when
                callbacks = obj.callbacks
                obj.callbacks = []
                obj._state = _PROCESSED
                for callback in callbacks:
                    callback(obj)
            else:
                self.now = when
                obj()  # bare call_later callable
