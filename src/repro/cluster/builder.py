"""Cluster assembly: simulator + fabric + machines in one call."""

from __future__ import annotations

from typing import List, Optional

from ..net import NetworkConfig, RdmaFabric
from ..obs import Observability
from ..sim import RandomSource, Simulator
from .disk import SSDConfig
from .machine import Machine

__all__ = ["Cluster"]


class Cluster:
    """A simulated cluster: one fabric plus ``n`` machines.

    Parameters
    ----------
    machines:
        Cluster size. The paper's testbed is 50.
    racks:
        Number of failure domains. Defaults to one rack per machine, the
        most permissive placement (every machine its own failure domain);
        pass fewer to exercise rack-aware placement constraints.
    memory_per_machine:
        DRAM per machine (paper: 64 GB).
    with_ssd:
        Attach a local SSD to every machine (the disk-backup baseline
        requires one).
    """

    def __init__(
        self,
        machines: int = 8,
        racks: Optional[int] = None,
        memory_per_machine: int = 64 << 30,
        network: Optional[NetworkConfig] = None,
        with_ssd: bool = False,
        ssd_config: Optional[SSDConfig] = None,
        seed: int = 0,
        sim: Optional[Simulator] = None,
    ):
        if machines < 1:
            raise ValueError(f"cluster needs at least one machine, got {machines}")
        self.sim = sim or Simulator()
        self.rng = RandomSource(seed, "cluster")
        self.obs = Observability.create(self.sim, seed=seed)
        self.fabric = RdmaFabric(
            self.sim, config=network, rng=self.rng.child("fabric"), obs=self.obs
        )
        rack_count = machines if racks is None else racks
        if rack_count < 1:
            raise ValueError(f"need at least one rack, got {racks}")
        disk = ssd_config or (SSDConfig() if with_ssd else None)
        self.machines: List[Machine] = [
            Machine(
                self.sim,
                self.fabric,
                machine_id=i,
                rack=i % rack_count,
                total_memory_bytes=memory_per_machine,
                ssd_config=disk,
            )
            for i in range(machines)
        ]

    def machine(self, machine_id: int) -> Machine:
        return self.machines[machine_id]

    def metadata_peers(self, machine_id: int, count: int) -> List[int]:
        """The ``count`` machine ids after ``machine_id`` in id order
        (wrapping) — the deterministic replica set for that machine's RM
        metadata domain (repro.core.rm_replica). Liveness is intentionally
        ignored: the set is fixed at deployment time, like a static
        placement of registered memory regions."""
        ids = sorted(m.id for m in self.machines)
        index = ids.index(machine_id)
        ring = [ids[(index + off) % len(ids)] for off in range(1, len(ids))]
        return ring[: max(count, 0)]

    def __len__(self) -> int:
        return len(self.machines)
