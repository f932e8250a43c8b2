"""Slab storage and split payloads.

A *slab* is the coarse-grained memory unit the Resource Monitor exposes to
remote Resilience Managers (§3.2): a fixed-size region that stores one
split per page for some address range. Slabs move through a small state
machine::

    FREE -> MAPPED -> (REGENERATING -> MAPPED) | FREE

REGENERATING is a freshly mapped replacement being rebuilt. A *lost* slab
(host crashed, evicted) has no state here: the host drops it and the
owning Resilience Manager marks its handle (``SlabHandle.available``).

Payloads come in two flavours:

* **real** — numpy uint8 arrays carrying actual erasure-coded bytes; used
  by correctness tests and small experiments;
* **phantom** — :class:`PhantomSplit` version/corruption markers; used by
  cluster-scale runs where carrying real bytes through millions of events
  would dominate runtime without changing any simulated timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..sim import RandomSource

__all__ = [
    "SlabState",
    "Slab",
    "PhantomSplit",
    "recoverable_versions",
    "corrupt_payload",
    "payloads_equal",
]


class SlabState(Enum):
    """Lifecycle of a slab on its host machine."""

    FREE = "free"  # allocated, not yet mapped by any Resilience Manager
    MAPPED = "mapped"  # serving splits for a remote address range
    REGENERATING = "regenerating"  # being rebuilt; writes disabled


@dataclass
class PhantomSplit:
    """A split payload without bytes: just enough state for resilience logic.

    ``version`` is the page write version the split encodes; a decode is
    valid only if the k splits it uses agree on the version. ``corrupt``
    models bit corruption the codec would detect via consistency checks.
    """

    version: int
    corrupt: bool = False


def recoverable_versions(payloads: Iterable[object], k: int) -> List[int]:
    """The versions a phantom page can be decoded at from ``payloads``:
    those with at least ``k`` intact splits of that one version (what a
    real RS decode would need). Anything that is not a clean
    :class:`PhantomSplit` counts toward none."""
    counts: Dict[int, int] = {}
    for payload in payloads:
        if isinstance(payload, PhantomSplit) and not payload.corrupt:
            counts[payload.version] = counts.get(payload.version, 0) + 1
    return [version for version, count in counts.items() if count >= k]


@dataclass
class Slab:
    """One slab of remote memory on a host machine.

    ``pages`` maps page index (within the owning address range) to that
    page's split payload at this slab's split position.
    """

    slab_id: int
    host_id: int
    size_bytes: int
    state: SlabState = SlabState.FREE
    owner_id: Optional[int] = None  # Resilience Manager (machine) id
    split_index: Optional[int] = None  # which of the k+r positions we hold
    range_id: Optional[int] = None  # owning address range
    writes_disabled: bool = False
    pages: Dict[int, object] = field(default_factory=dict)
    access_count: int = 0
    last_access_us: float = 0.0

    def map_to(self, owner_id: int, range_id: int, split_index: int) -> None:
        """Bind this slab to split position ``split_index`` of a range."""
        if self.state != SlabState.FREE:
            raise ValueError(f"slab {self.slab_id} is {self.state}, cannot map")
        self.state = SlabState.MAPPED
        self.owner_id = owner_id
        self.range_id = range_id
        self.split_index = split_index

    def unmap(self) -> None:
        """Return the slab to the free pool, dropping its contents."""
        self.state = SlabState.FREE
        self.owner_id = None
        self.range_id = None
        self.split_index = None
        self.writes_disabled = False
        self.pages.clear()
        self.access_count = 0

    def begin_regeneration(self) -> None:
        """Writes are disabled during rebuild; reads may continue (§4.4)."""
        self.state = SlabState.REGENERATING
        self.writes_disabled = True

    def finish_regeneration(self) -> None:
        self.state = SlabState.MAPPED
        self.writes_disabled = False

    @property
    def touched_pages(self) -> int:
        return len(self.pages)


def corrupt_payload(payload: object, rng: RandomSource) -> object:
    """Return a corrupted copy of a split payload (real or phantom)."""
    if isinstance(payload, PhantomSplit):
        return PhantomSplit(version=payload.version, corrupt=True)
    if isinstance(payload, np.ndarray):
        corrupted = payload.copy()
        index = rng.randint(0, len(corrupted) - 1)
        # XOR with a random non-zero byte guarantees the value changes.
        corrupted[index] ^= rng.randint(1, 255)
        return corrupted
    raise TypeError(f"cannot corrupt payload of type {type(payload).__name__}")


def payloads_equal(a: object, b: object) -> bool:
    """Equality across both payload flavours."""
    if isinstance(a, PhantomSplit) and isinstance(b, PhantomSplit):
        return a.version == b.version and a.corrupt == b.corrupt
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return False
