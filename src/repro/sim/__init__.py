"""Discrete-event simulation kernel (time unit: microseconds)."""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Resource, Store
from .rng import RandomSource
from .trace import (
    Counter,
    DistributionSummary,
    Histogram,
    LatencyRecorder,
    ThroughputWindow,
    TimeSeries,
    coefficient_of_variation,
    imbalance_ratio,
    summarize,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Resource",
    "Store",
    "RandomSource",
    "Counter",
    "DistributionSummary",
    "Histogram",
    "LatencyRecorder",
    "ThroughputWindow",
    "TimeSeries",
    "coefficient_of_variation",
    "imbalance_ratio",
    "summarize",
]
