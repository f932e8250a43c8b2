"""Hydra core: Resilience Manager, Resource Monitor, placement, config."""

from .address_space import AddressRange, RemoteAddressSpace, SlabHandle
from .config import DatapathConfig, HydraConfig
from .datapath import (
    completion_overhead_us,
    decode_latency_us,
    encode_latency_us,
    issue_overhead_us,
)
from .deployment import HydraDeployment, HydraNode
from .placement import BatchPlacer, PlacementError
from .resilience_manager import (
    HydraError,
    RemoteMemoryUnavailable,
    ResilienceManager,
)
from .resource_monitor import ResourceMonitor
from .rm_replica import (
    ControlPlane,
    MetadataReplica,
    ReplicatedMetadataStore,
)
from .rpc import RpcEndpoint, RpcError

__all__ = [
    "AddressRange",
    "RemoteAddressSpace",
    "SlabHandle",
    "DatapathConfig",
    "HydraConfig",
    "completion_overhead_us",
    "decode_latency_us",
    "encode_latency_us",
    "issue_overhead_us",
    "HydraDeployment",
    "HydraNode",
    "BatchPlacer",
    "PlacementError",
    "HydraError",
    "RemoteMemoryUnavailable",
    "ResilienceManager",
    "ResourceMonitor",
    "ControlPlane",
    "MetadataReplica",
    "ReplicatedMetadataStore",
    "RpcEndpoint",
    "RpcError",
]
