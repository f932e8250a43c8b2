"""Cluster substrate: machines, slabs, SSDs, failure injection."""

from .builder import Cluster
from .disk import SSD, SSDConfig
from .failures import CorruptionInjector, FailureInjector, LocalMemoryPressure
from .machine import Machine
from .memory import (
    PhantomSplit,
    Slab,
    SlabState,
    corrupt_payload,
    payloads_equal,
    recoverable_versions,
)
from .slabtable import RackTopology, SlabTable, place_ranges

__all__ = [
    "Cluster",
    "SSD",
    "SSDConfig",
    "CorruptionInjector",
    "FailureInjector",
    "LocalMemoryPressure",
    "Machine",
    "PhantomSplit",
    "RackTopology",
    "Slab",
    "SlabState",
    "SlabTable",
    "corrupt_payload",
    "payloads_equal",
    "place_ranges",
    "recoverable_versions",
]
