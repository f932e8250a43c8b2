"""Shared machinery for the baseline remote-memory backends.

Every backend (Hydra's Resilience Manager included) exposes the same
*remote memory pool* protocol the VMM/VFS front-ends consume:

* ``write(page_id, data=None) -> Process`` — completes when the write
  returns to the application;
* ``read(page_id) -> Process`` — the process value is the page bytes
  (real mode) or ``None`` (phantom mode);
* ``read_latency`` / ``write_latency`` recorders and an ``events`` counter.

Baselines place remote memory at *page-group* granularity (a full slab of
contiguous pages per remote machine) using the coarse power-of-two-choices
that Infiniswap uses — deliberately coarser than Hydra's fine-grained
(k + r)-way batch placement, which is what Figure 17 measures.

Unlike Hydra, baselines bypass the Resource Monitor control plane and
allocate slabs directly on target machines (Infiniswap and Remote Regions
run their own daemons); memory accounting still goes through the shared
:class:`~repro.cluster.Machine` model so cluster-wide usage comparisons
are apples-to-apples.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..cluster import Cluster, Machine, PhantomSplit
from ..obs import MetricsRegistry, Span, Tracer, default_obs, request_span, traced
from ..sim import Event, RandomSource

__all__ = ["BaselineConfig", "GroupHandle", "BaselineBackend", "BackendError"]


# Machines sampled per slab copy: Infiniswap's coarse power of two choices.
_PLACEMENT_CHOICES = 2


class BackendError(Exception):
    """A baseline backend could not serve a request."""


@dataclass
class BaselineConfig:
    """Common baseline parameters.

    ``software_overhead_us`` models the host-side block-I/O stack cost
    (bio submission, interrupt, wakeup) that Infiniswap/Remote Regions pay
    per request and that Hydra's run-to-completion/in-place design removes
    — it is what makes a whole-page remote read slower end-to-end than
    Hydra's parallel split reads (Fig 10).
    """

    page_size: int = 4096
    slab_size_bytes: int = 1 << 30
    software_overhead_us: float = 2.2

    @property
    def pages_per_slab(self) -> int:
        return max(1, self.slab_size_bytes // self.page_size)


@dataclass
class GroupHandle:
    """One replica location of a page group."""

    machine_id: int
    slab_id: int
    available: bool = True


class BaselineBackend:
    """Base class: slab-group placement, verbs, checksums, failure hooks."""

    name = "baseline"

    def __init__(
        self,
        cluster: Cluster,
        client_id: int,
        config: Optional[BaselineConfig] = None,
        rng: Optional[RandomSource] = None,
        payload_mode: str = "real",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if payload_mode not in ("real", "phantom"):
            raise ValueError(f"unknown payload_mode {payload_mode!r}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.fabric = cluster.fabric
        self.client_id = client_id
        self.config = config or BaselineConfig()
        self.rng = rng or RandomSource(client_id, f"{self.name}{client_id}")
        self.payload_mode = payload_mode

        self.tracer, self.metrics = default_obs(cluster, self.sim, tracer, metrics)
        metrics = self.metrics

        self.groups: Dict[int, List[GroupHandle]] = {}
        self.versions: Dict[int, int] = {}
        self.checksums: Dict[int, int] = {}
        self.read_latency = metrics.latency(f"{self.name}.{client_id}.read")
        self.write_latency = metrics.latency(f"{self.name}.{client_id}.write")
        self.events = metrics.counter_group(f"{self.name}.{client_id}.events")
        self._watched: set = set()

    # -- protocol -----------------------------------------------------------
    @property
    def memory_overhead(self) -> float:
        raise NotImplementedError

    def write(self, page_id: int, data: Optional[bytes] = None, parent: Optional[Span] = None):
        span = request_span(self.tracer, f"{self.name}.write", self.client_id, page_id, parent)
        return self.sim.process(
            traced(self._write_process(page_id, data, span), span),
            name=f"{self.name}-write:{page_id}",
        )

    def read(self, page_id: int, parent: Optional[Span] = None):
        span = request_span(self.tracer, f"{self.name}.read", self.client_id, page_id, parent)
        return self.sim.process(
            traced(self._read_process(page_id, span), span),
            name=f"{self.name}-read:{page_id}",
        )

    def _write_process(self, page_id: int, data: Optional[bytes], span: Optional[Span] = None):
        raise NotImplementedError

    def _read_process(self, page_id: int, span: Optional[Span] = None):
        raise NotImplementedError

    # -- placement ------------------------------------------------------------
    def group_of(self, page_id: int) -> int:
        return page_id // self.config.pages_per_slab

    def _ensure_group(self, page_id: int, copies: int) -> List[GroupHandle]:
        """Place ``copies`` slabs for the page's group, coarse power of
        two choices per copy (distinct machines)."""
        group_id = self.group_of(page_id)
        handles = self.groups.get(group_id)
        if handles is not None:
            return handles
        handles = []
        used = {self.client_id}
        for _copy in range(copies):
            machine = self._pick_machine(exclude=used)
            slab = machine.allocate_slab(self.config.slab_size_bytes)
            slab.map_to(self.client_id, group_id, _copy)
            handles.append(GroupHandle(machine_id=machine.id, slab_id=slab.slab_id))
            used.add(machine.id)
            self._watch(machine.id)
        self.groups[group_id] = handles
        self.events.incr("groups_placed")
        return handles

    def _pick_machine(self, exclude: set) -> Machine:
        candidates = [
            m for m in self.cluster.machines if m.alive and m.id not in exclude
        ]
        if not candidates:
            raise BackendError("no machine available for placement")
        sample = self.rng.sample(candidates, min(_PLACEMENT_CHOICES, len(candidates)))
        viable = [m for m in sample if m.free_bytes >= self.config.slab_size_bytes]
        if not viable:
            viable = [
                m for m in candidates if m.free_bytes >= self.config.slab_size_bytes
            ]
            if not viable:
                raise BackendError("cluster out of donatable memory")
        return min(viable, key=lambda m: m.memory_utilization)

    def replace_handle(self, group_id: int, index: int) -> GroupHandle:
        """Re-place one replica of a group after its host died."""
        used = {h.machine_id for h in self.groups[group_id]} | {self.client_id}
        machine = self._pick_machine(exclude=used)
        slab = machine.allocate_slab(self.config.slab_size_bytes)
        slab.map_to(self.client_id, group_id, index)
        handle = GroupHandle(machine_id=machine.id, slab_id=slab.slab_id)
        self.groups[group_id][index] = handle
        self._watch(machine.id)
        return handle

    # -- verbs ------------------------------------------------------------------
    @property
    def wire_bytes(self) -> int:
        """Bytes one page moves on the wire."""
        return self.config.page_size

    def _post_page_write(
        self, handle: GroupHandle, offset: int, payload, span: Optional[Span] = None
    ) -> Event:
        machine = self.fabric.machine(handle.machine_id)
        qp = self.fabric.qp(self.client_id, handle.machine_id)
        # Each destination stores an independent copy: corruption of one
        # replica must never reach the others through shared references.
        stored = payload.copy() if isinstance(payload, np.ndarray) else payload
        return qp.post_write(
            self.wire_bytes,
            apply=lambda: machine.write_split(handle.slab_id, offset, stored),
            span=span,
        )

    def _post_page_read(
        self, handle: GroupHandle, offset: int, span: Optional[Span] = None
    ) -> Event:
        machine = self.fabric.machine(handle.machine_id)
        qp = self.fabric.qp(self.client_id, handle.machine_id)
        return qp.post_read(
            self.wire_bytes,
            fetch=lambda: machine.read_split(handle.slab_id, offset),
            span=span,
        )

    def page_offset(self, page_id: int) -> int:
        return page_id % self.config.pages_per_slab

    # -- payloads & integrity ------------------------------------------------
    def make_payload(self, data: Optional[bytes], version: int):
        if self.payload_mode == "real":
            if data is None or len(data) != self.config.page_size:
                raise BackendError(
                    f"real mode write needs {self.config.page_size} bytes"
                )
            return np.frombuffer(data, dtype=np.uint8).copy()
        return PhantomSplit(version=version)

    def record_integrity(self, page_id: int, data: Optional[bytes], version: int) -> None:
        self.versions[page_id] = version
        if self.payload_mode == "real" and data is not None:
            self.checksums[page_id] = zlib.crc32(data)

    def payload_ok(self, page_id: int, payload) -> bool:
        """Client-side integrity check (checksum / version match)."""
        if payload is None:
            return False
        if isinstance(payload, PhantomSplit):
            return not payload.corrupt and payload.version == self.versions.get(page_id)
        if isinstance(payload, np.ndarray):
            expected = self.checksums.get(page_id)
            return expected is None or zlib.crc32(payload.tobytes()) == expected
        return False

    def payload_to_bytes(self, payload) -> Optional[bytes]:
        if isinstance(payload, np.ndarray):
            return payload.tobytes()
        return None

    # -- failure tracking ---------------------------------------------------------
    def _watch(self, machine_id: int) -> None:
        if machine_id in self._watched:
            return
        self._watched.add(machine_id)
        qp = self.fabric.qp(self.client_id, machine_id)
        qp.on_disconnect(self._on_machine_down)

    def _on_machine_down(self, machine_id: int) -> None:
        self.events.incr("disconnects")
        for group_id, handles in self.groups.items():
            for index, handle in enumerate(handles):
                if handle.machine_id == machine_id and handle.available:
                    handle.available = False
                    self.on_handle_lost(group_id, index)

    def on_handle_lost(self, group_id: int, index: int) -> None:
        """Subclass hook: react to a lost replica (default: nothing)."""
