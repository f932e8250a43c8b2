"""Wiring: one Hydra node per machine, a deployment per cluster.

Matches Figure 3: every machine can host both a Resilience Manager
(consuming remote memory) and a Resource Monitor (donating local memory);
they share one RPC endpoint and work without central coordination.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..cluster import Cluster, Machine
from ..sim import RandomSource
from .config import HydraConfig
from .placement import BatchPlacer
from .resilience_manager import ResilienceManager
from .resource_monitor import ResourceMonitor
from .rm_replica import ControlPlane
from .rpc import RpcEndpoint

__all__ = ["HydraNode", "HydraDeployment"]


class HydraNode:
    """The Hydra components of a single machine."""

    def __init__(
        self,
        machine: Machine,
        config: HydraConfig,
        peer_provider: Callable[[], List[int]],
        rng: RandomSource,
        start_monitor: bool = True,
    ):
        self.machine = machine
        self.config = config
        self.endpoint = RpcEndpoint(machine.fabric, machine.id)
        placer = BatchPlacer(
            self.endpoint, peer_provider, config, rng.child("placer")
        )
        self.manager = ResilienceManager(
            machine.sim,
            machine.fabric,
            machine.id,
            config,
            self.endpoint,
            placer,
            rng.child("rm"),
        )
        self.monitor = ResourceMonitor(machine, config, self.endpoint, rng.child("monitor"))
        if start_monitor:
            self.monitor.start()


class HydraDeployment:
    """Hydra on every machine of a cluster.

    >>> cluster = Cluster(machines=8, seed=1)
    >>> hydra = HydraDeployment(cluster, HydraConfig(k=4, r=2, delta=1))
    >>> rm = hydra.manager(0)  # machine 0's Resilience Manager
    """

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[HydraConfig] = None,
        seed: int = 0,
        start_monitors: bool = True,
    ):
        self.cluster = cluster
        self.config = config or HydraConfig()
        rng = RandomSource(seed, "hydra")
        self.nodes: Dict[int, HydraNode] = {}
        for machine in cluster.machines:
            provider = self._peer_provider(machine.id)
            self.nodes[machine.id] = HydraNode(
                machine,
                self.config,
                provider,
                rng.child(f"node{machine.id}"),
                start_monitor=start_monitors,
            )
        # Survivable control plane (opt-in): replicate each RM's metadata
        # log across a peer set and arm deterministic failover.
        self.control_plane = None
        if self.config.metadata_replicas > 0 and len(cluster) > 1:
            self.control_plane = ControlPlane(self, cluster)

    def _peer_provider(self, machine_id: int) -> Callable[[], List[int]]:
        def peers() -> List[int]:
            return [m.id for m in self.cluster.machines if m.alive and m.id != machine_id]

        return peers

    def manager(self, machine_id: int) -> ResilienceManager:
        return self.nodes[machine_id].manager

    def monitor(self, machine_id: int) -> ResourceMonitor:
        return self.nodes[machine_id].monitor

    def node(self, machine_id: int) -> HydraNode:
        return self.nodes[machine_id]
