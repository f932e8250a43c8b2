"""Hydra configuration: coding parameters, data-path toggles, thresholds.

Defaults follow the paper's experimental setup (§7): k=8, r=2, Δ=1
(1.25x memory overhead), SlabSize = 1 GB, 25 % free-memory headroom,
ControlPeriod = 1 s, E' = 2 extra eviction choices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional
__all__ = ["DatapathConfig", "HydraConfig"]


@dataclass
class DatapathConfig:
    """The four §4.2 latency optimizations plus their cost constants.

    Each toggle corresponds to one bar group in Figure 11; turning one off
    re-introduces the overhead the optimization removes:

    * ``run_to_completion`` off -> every completion wait costs a context
      switch (``context_switch_us``), serialized across the splits awaited.
    * ``in_place_coding`` off -> each split is staged through an extra
      buffer, costing ``copy_per_split_us`` per split plus one buffer
      allocation (``buffer_alloc_us``) per I/O.
    * ``late_binding`` off -> reads fetch exactly k splits and must wait
      for all of them (stragglers land on the critical path).
    * ``async_encoding`` off -> writes encode before sending anything and
      wait for all (k + r) acks.

    Coding costs come from §4.1: 0.7 µs encode / 1.5 µs decode for the
    (8+2) code on a 4 KB page; they scale linearly with the parity count
    (encode) and the page size.
    """

    run_to_completion: bool = True
    in_place_coding: bool = True
    late_binding: bool = True
    async_encoding: bool = True

    encode_latency_us: float = 0.7
    decode_latency_us: float = 1.5
    context_switch_us: float = 1.4
    copy_per_split_us: float = 0.30
    buffer_alloc_us: float = 0.8
    request_setup_us: float = 0.25
    # Posting one RDMA verb (WQE build + doorbell) — the §4.1 overhead
    # that makes very large k deteriorate (Fig 12a's U-shape).
    post_per_split_us: float = 0.10

    def all_off(self) -> "DatapathConfig":
        """The unoptimized RS-over-RDMA datapath (Fig 1's 20 µs point)."""
        return replace(
            self,
            run_to_completion=False,
            in_place_coding=False,
            late_binding=False,
            async_encoding=False,
        )


@dataclass
class HydraConfig:
    """Top-level Hydra parameters.

    Attributes
    ----------
    k, r:
        Data and parity split counts. Every page becomes k + r splits
        stored on k + r distinct failure domains.
    delta:
        Extra parallel reads for straggler mitigation (§4.2.2). Δ=1 is
        the paper default.
    page_size:
        Bytes per page (4 KB).
    slab_size_bytes:
        SlabSize (§3.2). 1 GB in the paper; tests shrink it.
    control_period_us:
        Resource Monitor period (1 s in the paper).
    headroom_fraction:
        Free-memory headroom the monitor defends (25 %).
    eviction_batch / eviction_extra:
        E and E' of decentralized batch eviction — evict the E
        least-frequently-accessed of (E + E') sampled slabs.
    placement_choice_factor:
        Batch placement contacts factor x (k + r) machines and keeps the
        least-loaded k + r (§4.4; factor 2 in the paper).
    error_correction_limit:
        Per-machine error count after which reads involving that machine
        start with (k + 2Δ + 1) splits (§4.3 ErrorCorrectionLimit).
    slab_regeneration_limit:
        Per-machine error count after which the slab is regenerated
        (§4.3 SlabRegenerationLimit).
    payload_mode:
        "real" pushes actual bytes through the RS codec; "phantom" tracks
        versions/corruption flags only (large cluster runs).
    free_slab_target:
        FREE slabs each Resource Monitor tries to keep pre-allocated for
        instant mapping (Fig 7b 'proactive allocation').
    metadata_replicas:
        Peers replicating this RM's metadata log (``repro.core.rm_replica``).
        0 (the default) disables the survivable control plane entirely —
        no replica stores, no heartbeats, byte-identical behavior to the
        unreplicated RM.
    metadata_lease_timeout_us:
        Leader lease duration; a surviving metadata peer waits this long
        after losing the leader before taking over. ``None`` derives
        3 x ``control_period_us``.
    """

    k: int = 8
    r: int = 2
    delta: int = 1
    page_size: int = 4096
    slab_size_bytes: int = 1 << 30
    control_period_us: float = 1_000_000.0
    headroom_fraction: float = 0.25
    eviction_batch: int = 1
    eviction_extra: int = 2
    placement_choice_factor: int = 2
    error_correction_limit: int = 3
    slab_regeneration_limit: int = 8
    payload_mode: str = "real"
    free_slab_target: int = 1
    metadata_replicas: int = 0
    metadata_lease_timeout_us: Optional[float] = None
    datapath: DatapathConfig = field(default_factory=DatapathConfig)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.delta > self.r:
            raise ValueError(
                f"delta (extra reads) cannot exceed parity count r: "
                f"delta={self.delta}, r={self.r}"
            )
        if self.payload_mode not in ("real", "phantom"):
            raise ValueError(f"unknown payload_mode {self.payload_mode!r}")
        if not 0 <= self.headroom_fraction < 1:
            raise ValueError(f"headroom must be in [0, 1), got {self.headroom_fraction}")
        if self.metadata_replicas < 0:
            raise ValueError(
                f"metadata_replicas must be >= 0, got {self.metadata_replicas}"
            )
        if (
            self.metadata_lease_timeout_us is not None
            and self.metadata_lease_timeout_us <= 0
        ):
            raise ValueError(
                f"metadata_lease_timeout_us must be positive, "
                f"got {self.metadata_lease_timeout_us}"
            )
        # split_size sits on the per-split RDMA hot path (two lookups per
        # posted verb); precompute it once — k/page_size never change after
        # construction (the codec and placement are built from them).
        self._split_size = -(-self.page_size // self.k)

    @property
    def n(self) -> int:
        """Total splits per page."""
        return self.k + self.r

    @property
    def split_size(self) -> int:
        """Bytes per split (ceil of page_size / k)."""
        return self._split_size

    @property
    def pages_per_range(self) -> int:
        """Pages one address range holds: slab capacity in splits."""
        return max(1, self.slab_size_bytes // self.split_size)

    @property
    def memory_overhead(self) -> float:
        """1 + r/k — the Table 1 failure-tolerance overhead."""
        return 1.0 + self.r / self.k

    def read_fanout(self) -> int:
        """Splits requested on a normal read: k + Δ (late binding)."""
        if self.datapath.late_binding:
            return min(self.k + self.delta, self.n)
        return self.k

    def correction_fanout(self) -> int:
        """Splits needed to locate and correct Δ errors: k + 2Δ + 1."""
        return min(self.k + 2 * self.delta + 1, self.n)
