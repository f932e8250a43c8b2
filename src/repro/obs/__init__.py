"""Observability: simulated-time tracing, metrics, health, dashboards.

The observability spine of the reproduction: a :class:`Tracer` producing
per-request span trees on the simulator clock, a
:class:`MetricsRegistry` unifying the counters/recorders/histograms that
used to be scattered per object, a :class:`ClusterSampler` +
:class:`HealthMonitor` pair turning cumulative metrics into windowed
rates and SLO verdicts, a :class:`FlightRecorder` ring for post-mortem
bundles, and exporters to JSON-lines, Chrome ``trace_event`` (Perfetto,
including counter tracks) and Prometheus text formats.

One :class:`Observability` bundle is created per cluster and threaded
through the fabric, Resilience Managers, Resource Monitors, pager, and
baselines, so ``python -m repro trace <scenario>`` can decompose any
request end to end and ``python -m repro top`` can render cluster
health. Tracing defaults to OFF (sampling 0) — it costs one branch per
request until enabled; sampling/health are opt-in via
:meth:`Observability.enable_monitoring`.
"""

from dataclasses import dataclass, field

from ..sim import Histogram, RandomSource
from .export import (
    chrome_trace,
    counter_events,
    prometheus_text,
    read_jsonl,
    span_from_dict,
    span_to_dict,
    write_chrome_trace,
    write_jsonl,
)
from .flight import FlightRecorder
from .health import HealthMonitor, SloRule, default_slo_rules
from .metrics import CounterGroup, MetricsRegistry, ScalarCounter
from .sampler import ClusterSampler
from .tracing import NULL_PHASES, PhaseClock, Span, Tracer, request_span, traced

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "PhaseClock",
    "NULL_PHASES",
    "request_span",
    "traced",
    "default_obs",
    "MetricsRegistry",
    "ScalarCounter",
    "CounterGroup",
    "Histogram",
    "ClusterSampler",
    "HealthMonitor",
    "SloRule",
    "default_slo_rules",
    "FlightRecorder",
    "chrome_trace",
    "counter_events",
    "prometheus_text",
    "read_jsonl",
    "span_from_dict",
    "span_to_dict",
    "write_chrome_trace",
    "write_jsonl",
]


def default_obs(owner, sim, tracer=None, metrics=None):
    """The ``(tracer, metrics)`` a component records into: explicit
    arguments win (isolated tests), else the cluster-wide bundle found on
    ``owner.obs``, else a disabled tracer and a private registry."""
    obs = getattr(owner, "obs", None)
    if tracer is None:
        tracer = obs.tracer if obs is not None else Tracer(sim, sample_every=0)
    if metrics is None:
        metrics = obs.metrics if obs is not None else MetricsRegistry()
    return tracer, metrics


@dataclass
class Observability:
    """The tracer + registry + flight-recorder bundle of one cluster."""

    tracer: Tracer
    metrics: MetricsRegistry
    flight: FlightRecorder = field(default_factory=FlightRecorder)
    sampler: "ClusterSampler" = field(default=None, repr=False)
    health: "HealthMonitor" = field(default=None, repr=False)

    @classmethod
    def create(cls, sim, sample_every: int = 0, seed: int = 0) -> "Observability":
        """A fresh bundle; tracing disabled unless ``sample_every > 0``."""
        return cls(
            tracer=Tracer(
                sim, sample_every=sample_every, rng=RandomSource(seed, "tracer")
            ),
            metrics=MetricsRegistry(),
        )

    def enable_monitoring(
        self,
        cluster,
        rms=(),
        *,
        period_us: float = 20_000.0,
        rules=None,
    ) -> "ClusterSampler":
        """Attach and start a sampler + health monitor on ``cluster``.

        Idempotent per bundle. The sampler is read-only with respect to
        the simulation (no RNG draws, no state mutation), so turning
        monitoring on never changes a seeded run's data-path outcome.
        """
        if self.sampler is None:
            self.sampler = ClusterSampler(
                cluster,
                rms=rms,
                period_us=period_us,
                registry=self.metrics,
                flight=self.flight,
            )
            self.health = HealthMonitor(
                rules, registry=self.metrics, flight=self.flight
            )
            self.sampler.add_listener(self.health.observe)
            self.sampler.start()
        return self.sampler

    def enable_tracing(self, sample_every: int = 1) -> None:
        """Turn on span collection mid-run (chaos runs trace everything so
        a violation's repro bundle can ship the full Perfetto timeline)."""
        self.tracer.set_sampling(sample_every)

    def export_trace(self, path: str) -> int:
        """Write every finished span as a Chrome/Perfetto trace; returns
        the exported event count. When monitoring is on, the sampler's
        time series ride along as Perfetto counter tracks."""
        counters = counter_events(self.metrics) if self.sampler is not None else ()
        return write_chrome_trace(
            self.tracer.finished_spans(), path, counters=counters
        )
