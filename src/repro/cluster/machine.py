"""The machine model: DRAM, hosted slabs, NIC, liveness, control inbox.

Each machine plays two roles simultaneously, exactly as in Figure 3 of the
paper: its *Resilience Manager* (client side, :mod:`repro.core`) consumes
remote memory, while its *Resource Monitor* (server side) donates local
memory as slabs. This class is the substrate both sit on.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..net import Nic, RdmaFabric, RemoteAccessError
from ..sim import Simulator, Store, TimeSeries
from .disk import SSD, SSDConfig
from .memory import Slab, SlabState

# States a one-sided verb may touch; module constant so the split access
# fast path skips rebuilding the tuple per verb.
_ACCESSIBLE_STATES = (SlabState.MAPPED, SlabState.REGENERATING)

__all__ = ["Machine"]


class Machine:
    """A cluster machine hosting local apps and donated memory slabs.

    Parameters
    ----------
    sim, fabric:
        The simulation kernel and the RDMA fabric to join.
    machine_id:
        Unique integer id.
    rack:
        Failure-domain label; slabs of one address range must land on
        distinct racks (§3.1, footnote on failure domains).
    total_memory_bytes:
        DRAM capacity.
    ssd_config:
        When given, the machine has a local SSD (needed by the disk-backup
        baseline).
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: RdmaFabric,
        machine_id: int,
        rack: int = 0,
        total_memory_bytes: int = 64 << 30,
        ssd_config: Optional[SSDConfig] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.id = machine_id
        self.rack = rack
        self.total_memory_bytes = total_memory_bytes
        self.nic = Nic(fabric.config, machine_id=machine_id, metrics=fabric.obs.metrics)
        self.alive = True
        self.ssd: Optional[SSD] = SSD(sim, ssd_config) if ssd_config else None

        self.local_app_bytes = 0  # DRAM consumed by this machine's own apps
        self.hosted_slabs: Dict[int, Slab] = {}
        self._slab_counter = 0
        # Incremental DRAM accounting: slab sizes are immutable after
        # allocate_slab, so the hosted total only moves on allocate,
        # release and crash — keeping free_bytes O(1) instead of a
        # sum() over every hosted slab on each control-loop tick.
        self._slab_bytes = 0

        self.inbox: Store = Store(sim)
        self._message_handlers: List[Callable[[int, Any], None]] = []
        self._failure_listeners: List[Callable[[int], None]] = []
        self.usage_series = TimeSeries(name=f"machine{machine_id}.memory")

        fabric.register(self)

    # -- memory accounting -------------------------------------------------
    @property
    def slab_bytes(self) -> int:
        """DRAM held by hosted slabs (any state — FREE slabs are allocated)."""
        return self._slab_bytes

    @property
    def used_bytes(self) -> int:
        return self.local_app_bytes + self.slab_bytes

    @property
    def free_bytes(self) -> int:
        return self.total_memory_bytes - self.used_bytes

    @property
    def memory_utilization(self) -> float:
        return self.used_bytes / self.total_memory_bytes

    def set_local_app_bytes(self, value: int) -> None:
        """Adjust the local-application working set (load driver hook)."""
        if value < 0:
            raise ValueError(f"negative local app memory: {value}")
        self.local_app_bytes = value

    # -- slab hosting --------------------------------------------------------
    def allocate_slab(self, size_bytes: int) -> Slab:
        """Carve a FREE slab out of local DRAM.

        Raises :class:`MemoryError` when the machine lacks headroom — the
        Resource Monitor is responsible for never over-allocating.
        """
        if size_bytes > self.free_bytes:
            raise MemoryError(
                f"machine {self.id}: cannot allocate {size_bytes} B slab "
                f"({self.free_bytes} B free)"
            )
        self._slab_counter += 1
        slab_id = self.id * 1_000_000 + self._slab_counter
        slab = Slab(slab_id=slab_id, host_id=self.id, size_bytes=size_bytes)
        self.hosted_slabs[slab_id] = slab
        self._slab_bytes += size_bytes
        return slab

    def release_slab(self, slab_id: int) -> None:
        """Drop a hosted slab entirely, returning its DRAM."""
        slab = self.hosted_slabs.pop(slab_id, None)
        if slab is not None:
            self._slab_bytes -= slab.size_bytes

    def free_slabs(self) -> List[Slab]:
        return [s for s in self.hosted_slabs.values() if s.state == SlabState.FREE]

    def mapped_slabs(self) -> List[Slab]:
        return [s for s in self.hosted_slabs.values() if s.state == SlabState.MAPPED]

    # -- one-sided access targets (called by the fabric at completion) ------
    def read_split(self, slab_id: int, page_id: int) -> Any:
        """Serve a one-sided READ. Missing pages read as ``None`` (garbage
        in real hardware); a missing/unmapped slab is an access fault."""
        slab = self.hosted_slabs.get(slab_id)
        if slab is None or slab.state not in _ACCESSIBLE_STATES:
            raise self._access_fault(slab_id, slab)
        slab.access_count += 1
        slab.last_access_us = self.sim.now
        return slab.pages.get(page_id)

    def write_split(self, slab_id: int, page_id: int, payload: Any) -> None:
        """Apply a one-sided WRITE. Writes to a regenerating slab fault
        (its memory region is revoked while being rebuilt, §4.4)."""
        slab = self.hosted_slabs.get(slab_id)
        if slab is None or slab.state not in _ACCESSIBLE_STATES:
            raise self._access_fault(slab_id, slab)
        if slab.writes_disabled:
            raise RemoteAccessError(
                f"slab {slab_id} on machine {self.id} has writes disabled"
            )
        slab.access_count += 1
        slab.last_access_us = self.sim.now
        slab.pages[page_id] = payload

    def _access_fault(self, slab_id: int, slab: Optional[Slab]) -> RemoteAccessError:
        if slab is None:
            return RemoteAccessError(f"no slab {slab_id} on machine {self.id}")
        return RemoteAccessError(
            f"slab {slab_id} on machine {self.id} is {slab.state.value}"
        )

    # -- control-plane messages ------------------------------------------------
    def deliver_message(self, src_id: int, message: Any) -> None:
        """SEND/RECV delivery point: dispatch to handlers or queue."""
        if self._message_handlers:
            for handler in self._message_handlers:
                handler(src_id, message)
        else:
            self.inbox.put((src_id, message))

    def add_message_handler(self, handler: Callable[[int, Any], None]) -> None:
        self._message_handlers.append(handler)

    # -- liveness ------------------------------------------------------------
    def fail(self) -> None:
        """Crash: DRAM contents (all hosted slabs) are lost; QPs break."""
        if not self.alive:
            return
        self.alive = False
        self.hosted_slabs.clear()
        self._slab_bytes = 0
        self.fabric.on_machine_failed(self.id)
        for listener in self._failure_listeners:
            listener(self.id)

    def recover(self) -> None:
        """Reboot with empty memory."""
        if self.alive:
            return
        self.alive = True
        self.local_app_bytes = 0
        self.fabric.on_machine_recovered(self.id)

    def on_failure(self, listener: Callable[[int], None]) -> None:
        self._failure_listeners.append(listener)

    def record_usage(self) -> None:
        """Append current memory usage to the machine's time series."""
        self.usage_series.record(self.sim.now, self.used_bytes)

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return (
            f"<Machine {self.id} rack={self.rack} {state} "
            f"used={self.used_bytes >> 20}MiB/{self.total_memory_bytes >> 20}MiB>"
        )
