"""Background network flows — the congestion source of §2.2 scenario 3.

The paper's experiment "generate[s] RDMA flows on the remote machine
constantly sending 1 GB messages" (§7.3.1). A :class:`BackgroundFlow`
occupies a target NIC for the serialization time of each message, inflating
the latency of every verb that crosses that NIC while active.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import Process
from .rdma import RdmaFabric

__all__ = ["BackgroundFlow", "start_background_load"]


class BackgroundFlow:
    """A long-running bulk flow hammering one machine's NIC.

    Each iteration holds the NIC busy for ``message_bytes`` worth of
    serialization time, back to back: the flow is continuous, matching the
    paper's setup.
    """

    def __init__(
        self,
        fabric: RdmaFabric,
        target_id: int,
        message_bytes: int = 1 << 30,
        duration_us: Optional[float] = None,
    ):
        self.fabric = fabric
        self.sim = fabric.sim
        self.target_id = target_id
        self.message_bytes = message_bytes
        self.duration_us = duration_us
        self.active = False
        self._process: Optional[Process] = None

    def start(self) -> Process:
        if self._process is not None:
            raise RuntimeError("flow already started")
        self._process = self.sim.process(self._run(), name=f"bgflow->{self.target_id}")
        return self._process

    def _run(self):
        nic = self.fabric.nic(self.target_id)
        started = self.sim.now
        nic.background_flows += 1
        self.active = True
        try:
            transfer = self.fabric.config.transfer_us(self.message_bytes)
            while True:
                if (
                    self.duration_us is not None
                    and self.sim.now - started >= self.duration_us
                ):
                    return
                yield self.sim.timeout(transfer)
        finally:
            nic.background_flows -= 1
            self.active = False


def start_background_load(
    fabric: RdmaFabric,
    target_ids: List[int],
    flows_per_target: int = 1,
    duration_us: Optional[float] = None,
) -> List[BackgroundFlow]:
    """Start ``flows_per_target`` continuous bulk flows at each target."""
    flows = []
    for target in target_ids:
        for _ in range(flows_per_target):
            flow = BackgroundFlow(fabric, target, duration_us=duration_us)
            flow.start()
            flows.append(flow)
    return flows
