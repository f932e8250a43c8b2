"""Packed slab metadata and rack topology for rack-scale experiments.

The object model in :mod:`repro.cluster.machine` carries each slab as a
:class:`~repro.cluster.memory.Slab` dataclass plus dict entries — around
half a KiB of Python overhead per slab, fine at the 50-machine fixture
but ruinous at 1000 machines with per-(range, position) rows and
millions of resident page counters. This module keeps the same metadata
as parallel numpy arrays (struct of arrays):

====================  ========  =====================================
field                 dtype     meaning
====================  ========  =====================================
``state``             int8      FREE / MAPPED / UNAVAILABLE / REGEN
``host``              int32     hosting machine id
``owner``             int32     Resilience Manager machine id (-1 free)
``range_id``          int32     owning address range (-1 free)
``position``          int8      split index within the range's k+r
``pages``             int32     resident page-splits in this slab
====================  ========  =====================================

18 bytes per slab row, plus two int32 per-machine counters (free-slab
count, total hosted slabs). A 1000-machine sweep with 10 000 mapped
slabs and a million logical pages costs well under a megabyte of
metadata — the worked budget table lives in docs/SCALING.md.

:class:`RackTopology` maps machine ids to racks and pods and assigns
one of three interconnect latency classes to any (src, dst) pair:
intra-rack, inter-rack (same pod), inter-pod.

Everything here is deterministic: the placement helpers take an
explicit ``numpy.random.Generator`` and touch no global state, which is
what lets ``repro bench`` shard the rack-scale sweep across workers
byte-identically (tests/test_rack_scale.py pins this).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = [
    "STATE_FREE",
    "STATE_MAPPED",
    "STATE_UNAVAILABLE",
    "STATE_REGENERATING",
    "RackTopology",
    "SlabTable",
    "place_ranges",
]

STATE_FREE = 0
STATE_MAPPED = 1
STATE_UNAVAILABLE = 2
STATE_REGENERATING = 3

# One-way latency of each interconnect class (µs): intra-rack, inter-rack
# (same pod), inter-pod.
_CLASS_LATENCY_US = (1.2, 2.4, 4.8)


class RackTopology:
    """Machine → rack → pod layout with interconnect latency classes.

    Parameters mirror a folded-Clos datacenter: ``machines_per_rack``
    machines behind one ToR switch, ``racks_per_pod`` racks behind one
    aggregation layer. Latency classes (``_CLASS_LATENCY_US``) follow
    the usual ordering intra-rack < inter-rack < inter-pod.
    """

    def __init__(
        self,
        machines: int,
        machines_per_rack: int = 40,
        racks_per_pod: int = 8,
    ):
        if machines < 1:
            raise ValueError(f"machines must be >= 1, got {machines}")
        if machines_per_rack < 1 or racks_per_pod < 1:
            raise ValueError("machines_per_rack and racks_per_pod must be >= 1")
        self.machines = machines
        self.machines_per_rack = machines_per_rack
        self.racks_per_pod = racks_per_pod
        ids = np.arange(machines, dtype=np.int64)
        self.rack = (ids // machines_per_rack).astype(np.int32)
        self.pod = (self.rack // racks_per_pod).astype(np.int32)
        self.racks = int(self.rack[-1]) + 1
        self.pods = int(self.pod[-1]) + 1
        self.class_latency_us = np.array(_CLASS_LATENCY_US, dtype=np.float64)

    def latency_class(self, src, dst) -> np.ndarray:
        """0 = same rack, 1 = same pod, 2 = cross-pod (vectorized)."""
        src = np.asarray(src)
        dst = np.asarray(dst)
        same_rack = self.rack[src] == self.rack[dst]
        same_pod = self.pod[src] == self.pod[dst]
        return np.where(same_rack, 0, np.where(same_pod, 1, 2)).astype(np.int8)

    def latency_us(self, src, dst) -> np.ndarray:
        return self.class_latency_us[self.latency_class(src, dst)]

    def machines_in_rack(self, rack: int) -> np.ndarray:
        return np.flatnonzero(self.rack == rack)

    @property
    def nbytes(self) -> int:
        return int(self.rack.nbytes + self.pod.nbytes + self.class_latency_us.nbytes)

    def __repr__(self) -> str:
        return (
            f"<RackTopology {self.machines} machines, {self.racks} racks, "
            f"{self.pods} pods>"
        )


class SlabTable:
    """Struct-of-arrays slab metadata for ``machines`` hosts.

    Rows are append-only (``allocate``) and move through the same state
    machine as :class:`~repro.cluster.memory.Slab`; crashed hosts leave
    UNAVAILABLE tombstone rows, matching the object model where a dead
    machine's slabs are gone but ranges still reference the positions.
    """

    BYTES_PER_SLAB = 18  # int8 + int32 + int32 + int32 + int8 + int32

    def __init__(self, machines: int, capacity: int = 1024):
        if machines < 1:
            raise ValueError(f"machines must be >= 1, got {machines}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.machines = machines
        self._n = 0
        self.state = np.zeros(capacity, dtype=np.int8)
        self.host = np.full(capacity, -1, dtype=np.int32)
        self.owner = np.full(capacity, -1, dtype=np.int32)
        self.range_id = np.full(capacity, -1, dtype=np.int32)
        self.position = np.full(capacity, -1, dtype=np.int8)
        self.pages = np.zeros(capacity, dtype=np.int32)
        self.free_per_host = np.zeros(machines, dtype=np.int32)
        self.slabs_per_host = np.zeros(machines, dtype=np.int32)

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        return len(self.state)

    def _grow(self, need: int) -> None:
        new_cap = max(need, 2 * self.capacity)
        for name in ("state", "host", "owner", "range_id", "position", "pages"):
            old = getattr(self, name)
            grown = np.full(new_cap, -1, dtype=old.dtype)
            if name in ("state", "pages"):
                grown[:] = 0
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def allocate(self, hosts) -> np.ndarray:
        """Append FREE slab rows on ``hosts``; returns the new slab ids."""
        hosts = np.atleast_1d(np.asarray(hosts, dtype=np.int32))
        if hosts.size and (hosts.min() < 0 or hosts.max() >= self.machines):
            raise ValueError(f"host id out of range for {self.machines} machines")
        n = hosts.size
        if self._n + n > self.capacity:
            self._grow(self._n + n)
        ids = np.arange(self._n, self._n + n, dtype=np.int64)
        self.state[ids] = STATE_FREE
        self.host[ids] = hosts
        self._n += n
        np.add.at(self.free_per_host, hosts, 1)
        np.add.at(self.slabs_per_host, hosts, 1)
        return ids

    def map(self, ids, owners, ranges, positions) -> None:
        """FREE → MAPPED for a batch of slab ids."""
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        if not np.all(self.state[ids] == STATE_FREE):
            raise ValueError("map() requires FREE slabs")
        self.state[ids] = STATE_MAPPED
        self.owner[ids] = owners
        self.range_id[ids] = ranges
        self.position[ids] = positions
        np.add.at(self.free_per_host, self.host[ids], -1)

    def unmap(self, ids) -> None:
        """Back to the FREE pool, dropping contents (page counts)."""
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        self.state[ids] = STATE_FREE
        self.owner[ids] = -1
        self.range_id[ids] = -1
        self.position[ids] = -1
        self.pages[ids] = 0
        np.add.at(self.free_per_host, self.host[ids], 1)

    def fail_host(self, host: int) -> np.ndarray:
        """Crash ``host``: every hosted slab becomes an UNAVAILABLE
        tombstone (contents lost). Returns the affected slab ids."""
        live = self.state[: self._n]
        ids = np.flatnonzero(
            (self.host[: self._n] == host) & (live != STATE_UNAVAILABLE)
        ).astype(np.int64)
        freed = int(np.count_nonzero(self.state[ids] == STATE_FREE))
        self.state[ids] = STATE_UNAVAILABLE
        self.pages[ids] = 0
        self.free_per_host[host] -= freed
        self.slabs_per_host[host] = 0
        return ids

    # -- bulk views ------------------------------------------------------
    def mapped_ids(self) -> np.ndarray:
        return np.flatnonzero(self.state[: self._n] == STATE_MAPPED).astype(np.int64)

    def range_host_matrix(self, n_ranges: int, n_splits: int) -> np.ndarray:
        """(range, position) → host id matrix (-1 where unmapped)."""
        matrix = np.full((n_ranges, n_splits), -1, dtype=np.int32)
        ids = self.mapped_ids()
        matrix[self.range_id[ids], self.position[ids]] = self.host[ids]
        return matrix

    def mapped_load(self) -> np.ndarray:
        """Mapped-slab count per machine (the load-balance metric)."""
        ids = self.mapped_ids()
        return np.bincount(self.host[ids], minlength=self.machines).astype(np.int64)

    def page_load(self) -> np.ndarray:
        """Resident page-splits per machine."""
        ids = self.mapped_ids()
        return np.bincount(
            self.host[ids], weights=self.pages[ids], minlength=self.machines
        ).astype(np.int64)

    # -- memory model ----------------------------------------------------
    def field_nbytes(self) -> Dict[str, int]:
        fields = ("state", "host", "owner", "range_id", "position", "pages")
        out = {name: int(getattr(self, name).nbytes) for name in fields}
        out["free_per_host"] = int(self.free_per_host.nbytes)
        out["slabs_per_host"] = int(self.slabs_per_host.nbytes)
        return out

    @property
    def nbytes(self) -> int:
        return sum(self.field_nbytes().values())

    def __repr__(self) -> str:
        return (
            f"<SlabTable {self._n}/{self.capacity} slabs on "
            f"{self.machines} machines, {self.nbytes} B>"
        )


def place_ranges(
    table: SlabTable,
    topology: RackTopology,
    owners,
    n_splits: int,
    choices: int,
    rng: np.random.Generator,
    policy: str = "hydra",
    rack_distinct: Optional[bool] = None,
) -> np.ndarray:
    """Place one range per entry of ``owners``: allocate + map ``n_splits``
    slabs each and return the (ranges × n_splits) host matrix.

    Policies (§5.3 / Figure 9, generalized to k+r splits per range):

    * ``"random"`` — ``n_splits`` distinct machines uniformly at random;
    * ``"dchoices"`` — sample ``choices`` machines, keep the least-loaded
      ``n_splits`` (power of d choices, no rack awareness);
    * ``"hydra"`` — batch placement: sample ``choices`` machines, walk
      them least-loaded-first and keep at most one per rack (CodingSets-
      style failure-domain spreading); falls back to ignoring the rack
      constraint only when the sample cannot cover ``n_splits`` racks.

    Load is the mapped-slab count maintained incrementally in ``table``.
    Ties break by machine id via a stable argsort, so placement is a
    pure function of (table state, owners, rng stream).
    """
    owners = np.asarray(owners, dtype=np.int32)
    machines = table.machines
    if machines < n_splits:
        raise ValueError(f"{machines} machines cannot host {n_splits} splits")
    if policy not in ("random", "dchoices", "hydra"):
        raise ValueError(f"unknown placement policy {policy!r}")
    if rack_distinct is None:
        rack_distinct = policy == "hydra"
    choices = min(max(choices, n_splits), machines)
    load = np.zeros(machines, dtype=np.int64)
    ids = table.mapped_ids()
    if ids.size:
        np.add.at(load, table.host[ids], 1)
    hosts = np.empty((owners.size, n_splits), dtype=np.int32)
    positions = np.arange(n_splits, dtype=np.int8)
    for range_id, owner in enumerate(owners):
        if policy == "random":
            picked = rng.choice(machines, size=n_splits, replace=False)
        else:
            sampled = rng.choice(machines, size=choices, replace=False)
            order = np.argsort(load[sampled], kind="stable")
            candidates = sampled[order]
            if rack_distinct:
                racks = topology.rack[candidates]
                _unique, first = np.unique(racks, return_index=True)
                keep = candidates[np.sort(first)][:n_splits]
                if keep.size < n_splits:
                    # The sample spans too few racks; top up with the
                    # least-loaded remaining candidates regardless of rack.
                    rest = candidates[~np.isin(candidates, keep)]
                    keep = np.concatenate([keep, rest[: n_splits - keep.size]])
                picked = keep
            else:
                picked = candidates[:n_splits]
        picked = np.asarray(picked, dtype=np.int32)
        load[picked] += 1
        hosts[range_id] = picked
        slab_ids = table.allocate(picked)
        table.map(slab_ids, int(owner), range_id, positions)
    return hosts
