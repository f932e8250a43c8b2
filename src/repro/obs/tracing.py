"""Span-based distributed tracing on **simulated time**.

Every figure in the paper is a claim about where microseconds go: which
verb overlaps which, who waits for the k-th split, what the corruption
state machine costs. The tracer answers these questions per request
instead of per percentile: instrumented code opens :class:`Span`\\ s whose
start/end timestamps are the simulator clock (microseconds), parented
into trees that follow a request across machines and background
processes.

Design constraints driving the API:

* **Generator processes interleave.** There is no thread-local "current
  span" that survives a ``yield``, so context propagates *explicitly*:
  parent spans are passed into child processes and sub-calls (the
  ``parent=`` argument on the pool protocol, the ``span=`` argument on
  RDMA verbs). This is the same discipline real tracing systems use
  across async hops.
* **Tracing must be free when off.** ``Tracer.start_trace`` is the single
  sampling gate; with ``sample_every == 0`` it returns ``None`` after one
  integer compare and every instrumentation site degrades to a ``None``
  check. Phantom-payload cluster runs stay tractable by sampling
  1-in-N requests (deterministic under the seeded RNG).
* **Breakdowns must sum.** :class:`PhaseClock` marks *contiguous* phase
  boundaries under a root span: each ``mark(name)`` retroactively covers
  exactly ``[previous mark, now]``, so the phase durations of a request
  tile its end-to-end latency with zero gaps or overlaps — the property
  the Fig 11-style span-derived decomposition relies on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..sim import RandomSource

__all__ = ["Span", "Tracer", "PhaseClock", "NULL_PHASES", "request_span", "traced"]


class Span:
    """One named interval of simulated time, part of a trace tree.

    ``start_us``/``end_us`` are simulator microseconds. ``machine_id``
    says where the work happened (the Chrome exporter maps it to a
    process track). ``tags`` carry request-specific detail (page id,
    fan-out, per-verb latency parts).
    """

    __slots__ = (
        "tracer",
        "span_id",
        "trace_id",
        "parent_id",
        "name",
        "cat",
        "machine_id",
        "start_us",
        "end_us",
        "tags",
    )

    def __init__(
        self,
        tracer: Optional["Tracer"],
        span_id: int,
        trace_id: int,
        parent_id: Optional[int],
        name: str,
        cat: str,
        machine_id: Optional[int],
        start_us: float,
        tags: Optional[Dict[str, Any]] = None,
    ):
        self.tracer = tracer
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.machine_id = machine_id
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.tags: Dict[str, Any] = tags if tags is not None else {}

    # -- lifecycle ---------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end_us is not None

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            raise ValueError(f"span {self.name!r} has not finished")
        return self.end_us - self.start_us

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def child(
        self,
        name: str,
        cat: Optional[str] = None,
        machine_id: Optional[int] = None,
        tags: Optional[Dict[str, Any]] = None,
    ) -> "Span":
        """A child span starting now. The child may outlive this span
        (asynchronous parity writes, background verification)."""
        return self.tracer._new_span(
            name,
            cat=cat if cat is not None else self.cat,
            machine_id=machine_id if machine_id is not None else self.machine_id,
            tags=tags,
            parent=self,
        )

    def finish(self, end_us: Optional[float] = None) -> None:
        """End the span (idempotent); records it with the tracer."""
        if self.end_us is not None:
            return
        self.end_us = self.tracer.sim.now if end_us is None else end_us
        self.tracer._record(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        self.finish()

    def __repr__(self) -> str:
        end = f"{self.end_us:.3f}" if self.end_us is not None else "…"
        return (
            f"<Span {self.name} id={self.span_id} trace={self.trace_id} "
            f"[{self.start_us:.3f}, {end}]us>"
        )


class Tracer:
    """Creates spans against a simulator clock; owns sampling + storage.

    ``sample_every`` selects the fraction of root traces kept: ``0``
    disables tracing entirely (every ``start_trace`` returns ``None``),
    ``1`` traces everything, ``N > 1`` keeps roughly 1-in-N requests via
    the seeded RNG so runs are reproducible.
    """

    def __init__(
        self,
        sim,
        sample_every: int = 1,
        rng: Optional[RandomSource] = None,
        max_spans: int = 2_000_000,
    ):
        if sample_every < 0:
            raise ValueError(f"sample_every must be >= 0, got {sample_every}")
        self.sim = sim
        self.spans: List[Span] = []  # finished spans, in finish order
        self.dropped = 0
        self.max_spans = max_spans
        self._sample_every = int(sample_every)
        self._rng = rng if rng is not None else RandomSource(0, "tracer")
        self._next_id = 0

    # -- sampling ----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._sample_every > 0

    @property
    def sample_every(self) -> int:
        return self._sample_every

    def set_sampling(self, sample_every: int) -> None:
        if sample_every < 0:
            raise ValueError(f"sample_every must be >= 0, got {sample_every}")
        self._sample_every = int(sample_every)

    # -- span creation -----------------------------------------------------
    def start_trace(
        self,
        name: str,
        machine_id: Optional[int] = None,
        cat: str = "request",
        tags: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Root span of a new trace — THE sampling decision point.

        Returns ``None`` when tracing is disabled or this request lost
        the 1-in-N draw; instrumentation treats ``None`` as "not traced".
        """
        every = self._sample_every
        if every == 0:
            return None
        if every > 1 and not self._rng.bernoulli(1.0 / every):
            return None
        return self._new_span(name, cat=cat, machine_id=machine_id, tags=tags, parent=None)

    def start_span(
        self,
        name: str,
        machine_id: Optional[int] = None,
        cat: str = "background",
        tags: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Unsampled root span for rare, high-value events (slab
        regeneration, corruption recovery): traced whenever the tracer is
        enabled at all."""
        if self._sample_every == 0:
            return None
        return self._new_span(name, cat=cat, machine_id=machine_id, tags=tags, parent=None)

    def span_at(
        self,
        name: str,
        parent: Span,
        start_us: float,
        end_us: float,
        cat: str = "phase",
        tags: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """A retroactive, already-finished child span covering
        ``[start_us, end_us]`` — the primitive behind :class:`PhaseClock`."""
        span = self._new_span(
            name, cat=cat, machine_id=parent.machine_id, tags=tags,
            parent=parent, start_us=start_us,
        )
        span.finish(end_us)
        return span

    def phases(self, span: Optional[Span]) -> "PhaseClock":
        """A phase clock for ``span`` (a shared no-op when not traced)."""
        return PhaseClock(span) if span is not None else NULL_PHASES

    def _new_span(
        self,
        name: str,
        cat: str,
        machine_id: Optional[int],
        tags: Optional[Dict[str, Any]],
        parent: Optional[Span],
        start_us: Optional[float] = None,
    ) -> Span:
        self._next_id += 1
        span_id = self._next_id
        return Span(
            self,
            span_id=span_id,
            trace_id=parent.trace_id if parent is not None else span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            cat=cat,
            machine_id=machine_id,
            start_us=self.sim.now if start_us is None else start_us,
            tags=tags,
        )

    # -- storage -----------------------------------------------------------
    def _record(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    def finished_spans(self) -> List[Span]:
        return list(self.spans)

    def reset(self) -> None:
        """Drop all recorded spans (between experiment repetitions)."""
        self.spans.clear()
        self.dropped = 0


class _NullPhases:
    """No-op stand-in used when a request is not traced."""

    __slots__ = ()

    def mark(self, name: str, **tags) -> None:
        return None


NULL_PHASES = _NullPhases()


class PhaseClock:
    """Tiles a root span with contiguous phase child spans.

    ``mark(name)`` creates a child covering exactly ``[previous mark,
    now]`` (zero-width phases are skipped), so the sum of a request's
    phase durations equals its end-to-end latency — no double counting,
    no gaps. Call ``mark`` immediately after each ``yield``-bearing stage.

    The clock starts at *creation* time (== ``span.start_us`` when created
    where the span starts): a clock created mid-request (e.g. by a
    subclass stage) covers only time from that point on, so two clocks on
    one span can never produce overlapping phases.
    """

    __slots__ = ("span", "last")

    def __init__(self, span: Span):
        self.span = span
        self.last = span.tracer.sim.now

    def mark(self, name: str, **tags) -> Optional[Span]:
        now = self.span.tracer.sim.now
        if now <= self.last:
            return None
        child = self.span.tracer.span_at(
            name, self.span, self.last, now, tags=tags or None
        )
        self.last = now
        return child


def request_span(
    tracer: Tracer, name: str, machine_id: int, page_id: int, parent: Optional[Span] = None
) -> Optional[Span]:
    """Span of one pool request (``rm.read``, ``replication.write``, ...):
    adopted into ``parent``'s trace (a sampled span, e.g. a VMM fault) when
    one is given; otherwise the tracer's sampler decides."""
    if parent is not None:
        return parent.child(
            name, cat="request", machine_id=machine_id, tags={"page": page_id}
        )
    return tracer.start_trace(name, machine_id=machine_id, tags={"page": page_id})


def traced(gen, span: Optional[Span]):
    """Wrap a request generator so its span always finishes, tagging the
    outcome; ``gen`` itself when the request is untraced."""
    if span is None:
        return gen
    return _finishing(gen, span)


def _finishing(gen, span: Span):
    with span:  # tags the error type if ``gen`` raises, finishes either way
        result = yield from gen
        span.set_tag("outcome", "ok")
    return result
