"""Unit tests for the LRU plan cache (single-threaded behaviour).

Concurrency is covered separately in ``test_planner_stress.py``; here the
LRU order, the counters, and the single-flight bookkeeping are checked
deterministically.
"""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.planner import GenerationStamp, PlanCache, PlanFingerprint


def _fp(digest: str, stamp: GenerationStamp = GenerationStamp(0, 0, 0)):
    return PlanFingerprint(digest=digest, generations=stamp)


def test_rejects_nonpositive_capacity():
    with pytest.raises(ValidationError):
        PlanCache(max_entries=0)


def test_get_counts_hits_and_misses():
    cache = PlanCache()
    fp = _fp("a")
    assert cache.get(fp) is None
    cache.put(fp, "plan-a")
    assert cache.get(fp) == "plan-a"
    stats = cache.stats
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.lookups == 2
    assert stats.hit_rate == 0.5


def test_get_hit_counts_only_hits():
    # A probe that saw the entry reads it with get_hit; an entry gone by
    # then is left to get_or_compute, so the lookup is counted once.
    cache = PlanCache(max_entries=2)
    assert cache.get_hit(_fp("a")) is None
    assert cache.stats.lookups == 0
    cache.put(_fp("a"), 1)
    cache.put(_fp("b"), 2)
    assert cache.get_hit(_fp("a")) == 1  # refresh "a": now "b" is LRU
    cache.put(_fp("c"), 3)
    assert _fp("b") not in cache and _fp("a") in cache
    assert cache.get_or_compute(_fp("b"), lambda: 2) == 2
    stats = cache.stats
    assert (stats.hits, stats.misses) == (1, 1)


def test_lru_evicts_least_recently_used():
    cache = PlanCache(max_entries=2)
    cache.put(_fp("a"), 1)
    cache.put(_fp("b"), 2)
    assert cache.get(_fp("a")) == 1  # refresh "a": now "b" is LRU
    cache.put(_fp("c"), 3)
    assert _fp("b") not in cache
    assert _fp("a") in cache
    assert _fp("c") in cache
    assert cache.stats.evictions == 1
    assert len(cache) == 2


def test_get_or_compute_computes_once():
    cache = PlanCache()
    calls = []

    def compute():
        calls.append(1)
        return "plan"

    fp = _fp("a")
    assert cache.get_or_compute(fp, compute) == "plan"
    assert cache.get_or_compute(fp, compute) == "plan"
    assert len(calls) == 1
    stats = cache.stats
    assert stats.misses == 1
    assert stats.hits == 1


def test_get_or_compute_propagates_and_recovers_from_failure():
    cache = PlanCache()
    fp = _fp("a")

    def boom():
        raise RuntimeError("planner blew up")

    with pytest.raises(RuntimeError):
        cache.get_or_compute(fp, boom)
    # A failed computation leaves no entry and no stuck in-flight marker.
    assert fp not in cache
    assert cache.get_or_compute(fp, lambda: "recovered") == "recovered"


def test_purge_stale_drops_only_old_generations():
    cache = PlanCache()
    old = GenerationStamp(0, 0, 0)
    new = GenerationStamp(1, 0, 0)
    cache.put(_fp("a", old), 1)
    cache.put(_fp("b", old), 2)
    cache.put(_fp("c", new), 3)
    assert cache.purge_stale(new) == 2
    assert len(cache) == 1
    assert _fp("c", new) in cache
    assert cache.stats.invalidations == 2


def test_clear_counts_as_invalidation():
    cache = PlanCache()
    cache.put(_fp("a"), 1)
    cache.put(_fp("b"), 2)
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.stats.invalidations == 2


def test_stats_snapshot_is_immutable_and_consistent():
    cache = PlanCache()
    cache.put(_fp("a"), 1)
    cache.get(_fp("a"))
    snapshot = cache.stats
    cache.get(_fp("a"))
    assert snapshot.hits == 1  # old snapshot unaffected
    assert cache.stats.hits == 2
    with pytest.raises(AttributeError):
        snapshot.hits = 99


def test_empty_cache_hit_rate_is_zero():
    assert PlanCache().stats.hit_rate == 0.0
