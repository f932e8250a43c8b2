"""Convenience builders: assemble cluster + backend(s) in one call.

These are the entry points examples and benchmarks use. A
:class:`HydraCluster` bundles the substrate cluster with a
:class:`~repro.core.HydraDeployment`; :func:`build_backend` constructs any
of the comparison backends on a raw cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baselines import (
    BaselineConfig,
    CompressedReplicationBackend,
    DirectRemoteMemory,
    ReplicationBackend,
    SSDBackupBackend,
    SwarmReplicationBackend,
)
from ..cluster import Cluster
from ..core import DatapathConfig, HydraConfig, HydraDeployment, ResilienceManager
from ..net import NetworkConfig
from ..sim import RandomSource

__all__ = ["HydraCluster", "build_hydra_cluster", "build_backend", "BACKEND_KINDS"]

BACKEND_KINDS = (
    "hydra",
    "replication",
    "swarm",
    "ssd_backup",
    "compressed",
    "direct",
)
_BASELINES = {
    "replication": ReplicationBackend,
    "swarm": SwarmReplicationBackend,
    "ssd_backup": SSDBackupBackend,
    "compressed": CompressedReplicationBackend,
    "direct": DirectRemoteMemory,
}


@dataclass
class HydraCluster:
    """A cluster with Hydra deployed on every machine."""

    cluster: Cluster
    deployment: HydraDeployment

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def obs(self):
        """The cluster-wide observability bundle (tracer + metrics)."""
        return self.cluster.obs

    def remote_memory(self, client: int) -> ResilienceManager:
        """The Resilience Manager (remote memory pool) of machine ``client``."""
        return self.deployment.manager(client)


def build_hydra_cluster(
    machines: int = 8,
    k: int = 8,
    r: int = 2,
    delta: int = 1,
    seed: int = 0,
    slab_size_bytes: int = 1 << 20,
    memory_per_machine: int = 1 << 30,
    payload_mode: str = "real",
    control_period_us: float = 100_000.0,
    with_ssd: bool = False,
    network: Optional[NetworkConfig] = None,
    datapath: Optional[DatapathConfig] = None,
    config: Optional[HydraConfig] = None,
    start_monitors: bool = True,
) -> HydraCluster:
    """One-call Hydra test cluster with laptop-scale defaults.

    Note the defaults shrink SlabSize to 1 MiB and machine memory to 1 GiB
    so unit-scale experiments stay fast; pass paper-scale values for the
    cluster benchmarks.
    """
    cluster = Cluster(
        machines=machines,
        memory_per_machine=memory_per_machine,
        network=network,
        with_ssd=with_ssd,
        seed=seed,
    )
    if config is None:
        config = HydraConfig(
            k=k,
            r=r,
            delta=delta,
            slab_size_bytes=slab_size_bytes,
            payload_mode=payload_mode,
            control_period_us=control_period_us,
            datapath=datapath or DatapathConfig(),
        )
    deployment = HydraDeployment(
        cluster, config, seed=seed, start_monitors=start_monitors
    )
    return HydraCluster(cluster=cluster, deployment=deployment)


def build_backend(
    kind: str,
    cluster: Cluster,
    client: int = 0,
    slab_size_bytes: int = 1 << 20,
    payload_mode: str = "real",
    rng: Optional[RandomSource] = None,
    **kwargs,
):
    """Construct a baseline backend of ``kind`` on an existing cluster.

    ``kind`` is one of ``replication``, ``swarm``, ``ssd_backup``,
    ``compressed`` or ``direct`` (for Hydra use
    :func:`build_hydra_cluster`).
    """
    if kind == "hydra":
        raise ValueError("use build_hydra_cluster() for the hydra backend")
    if kind not in _BASELINES:
        raise ValueError(f"unknown backend kind {kind!r}; choose from {BACKEND_KINDS}")
    config = BaselineConfig(slab_size_bytes=slab_size_bytes)
    rng = rng or RandomSource(client, f"{kind}{client}")
    return _BASELINES[kind](
        cluster, client, config, rng, payload_mode=payload_mode, **kwargs
    )


class NamespacedPool:
    """A page-namespace view of a shared backend.

    Several containers on one machine share its Resilience Manager; each
    container gets its own page-id window so streams never collide.
    """

    def __init__(self, backend, base_page: int):
        self.backend = backend
        self.sim = backend.sim
        self.base_page = base_page

    def write(self, page_id: int, data=None, parent=None):
        return self.backend.write(self.base_page + page_id, data, parent=parent)

    def read(self, page_id: int, parent=None):
        return self.backend.read(self.base_page + page_id, parent=parent)

    @property
    def name(self):
        return self.backend.name
