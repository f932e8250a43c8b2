"""Bounded LRU plan cache: eviction order, counters, codec integration.

The four unbounded per-pattern caches in ``ReedSolomonCode`` were
replaced by one shared :class:`PlanCache`; these tests pin the LRU
contract (capacity bound, move-to-end on hit, cold-end eviction), the
hit/miss/eviction counters and their MetricsRegistry mirror, and that a
capacity-starved codec still decodes correctly — plans are recompiled on
re-miss, never served stale.
"""

import numpy as np
import pytest

from repro.ec import PageCodec
from repro.ec.plancache import PlanCache
from repro.obs import MetricsRegistry


def test_capacity_bound_and_cold_end_eviction():
    cache = PlanCache(capacity=3)
    for key in ("a", "b", "c"):
        cache.put(key, key.upper())
    assert len(cache) == 3 and cache.evictions == 0

    cache.put("d", "D")  # evicts "a", the cold end
    assert len(cache) == 3
    assert "a" not in cache
    assert cache.get("a") is None
    assert cache.evictions == 1


def test_get_refreshes_lru_order():
    cache = PlanCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # "a" becomes most-recently-used
    cache.put("c", 3)  # so "b" is the one evicted
    assert "a" in cache and "c" in cache and "b" not in cache


def test_put_refreshes_existing_key_without_eviction():
    cache = PlanCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh, not insert
    assert len(cache) == 2 and cache.evictions == 0
    assert cache.get("a") == 10
    cache.put("c", 3)  # "b" is now the cold end
    assert "b" not in cache


def test_counters_and_snapshot():
    cache = PlanCache(capacity=1)
    assert cache.get("x") is None
    cache.put("x", 1)
    assert cache.get("x") == 1
    cache.put("y", 2)
    snap = cache.snapshot()
    assert snap == {
        "size": 1,
        "capacity": 1,
        "hits": 1,
        "misses": 1,
        "evictions": 1,
    }


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


def test_eviction_counter_mirrors_into_metrics_registry():
    metrics = MetricsRegistry()
    counter = metrics.counter("rm.0.ec.plan_evictions")
    cache = PlanCache(capacity=1)
    cache.bind_eviction_counter(counter)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert cache.evictions == 2
    assert counter.value == 2


def test_codec_replaces_evicted_plans_correctly():
    """A capacity-starved codec churns through more erasure patterns than
    the cache holds; every decode must still roundtrip (recompile on
    re-miss, never a stale or missing plan)."""
    codec = PageCodec(4, 2, page_size=256, plan_cache_capacity=2)
    page = bytes(range(256))
    splits = codec.encode(page)
    import itertools

    patterns = list(itertools.combinations(range(codec.n), codec.k))
    for _ in range(2):  # second sweep re-misses everything evicted
        for indices in patterns:
            decoded = codec.decode({i: splits[i] for i in indices})
            assert decoded == page
    cache = codec.code.plan_cache
    assert len(cache) <= cache.capacity == 2
    assert cache.evictions > 0


def test_codec_shares_one_cache_across_plan_kinds():
    """Decode plans, extras transforms and rebuild rows all land in the
    same bounded cache (namespaced keys)."""
    codec = PageCodec(3, 2, page_size=96, plan_cache_capacity=16)
    page = bytes(range(96))
    splits = codec.encode(page)
    assert codec.decode({i: splits[i] for i in (0, 2, 4)}) == page
    assert codec.verify({i: splits[i] for i in range(4)})
    kinds = {key[0] for key in codec.code.plan_cache._entries}
    assert len(kinds) >= 2  # more than one plan family in the shared map
