"""Bounded LRU cache for compiled coding plans.

Every ``ReedSolomonCode`` keeps per-erasure-pattern artifacts — decode
matrices, extras transforms, residual-ratio tables, rebuild rows. A
steady-state Resilience Manager sees a handful of patterns, but chaos
soaks churn through machine subsets and previously these four caches
grew without bound for the life of the codec. ``PlanCache`` is the
shared replacement: one ordered map over namespaced keys with
move-to-end on hit and eviction from the cold end.

Capacity comes from the constructor (codec argument) and defaults to
512 entries. Hit/miss/eviction totals are plain ints so the codec stays
usable standalone; call :meth:`bind_eviction_counter` to mirror
evictions into a live ``MetricsRegistry`` counter (the Resilience
Manager does this at construction).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

__all__ = ["PlanCache", "DEFAULT_PLAN_CACHE_CAPACITY"]


DEFAULT_PLAN_CACHE_CAPACITY = 512


class PlanCache:
    """An LRU mapping from plan keys to compiled plan objects."""

    def __init__(self, capacity: Optional[int] = None):
        if capacity is None:
            capacity = DEFAULT_PLAN_CACHE_CAPACITY
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._eviction_counters: list = []

    def bind_eviction_counter(self, counter) -> None:
        """Mirror future evictions into ``counter.value`` (a
        MetricsRegistry scalar counter). A shared cache may have several
        observers — every RM bound to it sees every eviction."""
        if counter not in self._eviction_counters:
            self._eviction_counters.append(counter)

    def get(self, key: Hashable):
        """The cached plan, refreshed to most-recently-used; None on miss."""
        entries = self._entries
        value = entries.get(key)
        if value is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert (or refresh) ``key``, evicting from the cold end."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            for counter in self._eviction_counters:
                counter.value += 1
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def snapshot(self) -> dict:
        """Counter snapshot for reports: size/capacity/hits/misses/evictions."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
