"""Unit tests for the LRU plan cache (single-threaded behaviour).

Concurrency is covered separately in ``test_planner_stress.py``; here the
LRU order, the counters, and the single-flight bookkeeping are checked
deterministically.
"""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.planner import PlanCache


def test_rejects_nonpositive_capacity():
    with pytest.raises(ValidationError):
        PlanCache(max_entries=0)


def test_get_counts_hits_and_misses():
    cache = PlanCache()
    assert cache.get_or_compute("a", lambda: "plan-a") == "plan-a"
    assert cache.get_or_compute("a", lambda: "other") == "plan-a"
    stats = cache.stats
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.lookups == 2
    assert stats.hit_rate == 0.5


def test_get_hit_counts_only_hits():
    # A probe that saw the entry reads it with get_hit; an entry gone by
    # then is left to get_or_compute, so the lookup is counted once.
    cache = PlanCache(max_entries=2)
    assert cache.get_hit("a") is None
    assert cache.stats.lookups == 0
    cache.get_or_compute("a", lambda: 1)
    cache.get_or_compute("b", lambda: 2)
    assert cache.get_hit("a") == 1  # refresh "a": now "b" is LRU
    cache.get_or_compute("c", lambda: 3)
    assert "b" not in cache and "a" in cache
    assert cache.get_hit("b") is None
    assert cache.get_or_compute("b", lambda: 2) == 2
    stats = cache.stats
    assert (stats.hits, stats.misses) == (1, 4)


def test_lru_evicts_least_recently_used():
    cache = PlanCache(max_entries=2)
    cache.get_or_compute("a", lambda: 1)
    cache.get_or_compute("b", lambda: 2)
    assert cache.get_hit("a") == 1  # refresh "a": now "b" is LRU
    cache.get_or_compute("c", lambda: 3)
    assert "b" not in cache
    assert "a" in cache
    assert "c" in cache
    assert cache.stats.evictions == 1
    assert len(cache) == 2


def test_get_or_compute_computes_once():
    cache = PlanCache()
    calls = []

    def compute():
        calls.append(1)
        return "plan"

    assert cache.get_or_compute("a", compute) == "plan"
    assert cache.get_or_compute("a", compute) == "plan"
    assert len(calls) == 1
    stats = cache.stats
    assert stats.misses == 1
    assert stats.hits == 1


def test_get_or_compute_propagates_and_recovers_from_failure():
    cache = PlanCache()

    def boom():
        raise RuntimeError("planner blew up")

    with pytest.raises(RuntimeError):
        cache.get_or_compute("a", boom)
    # A failed computation leaves no entry and no stuck in-flight marker.
    assert "a" not in cache
    assert cache.get_or_compute("a", lambda: "recovered") == "recovered"


def test_clear_counts_as_invalidation():
    cache = PlanCache()
    cache.get_or_compute("a", lambda: 1)
    cache.get_or_compute("b", lambda: 2)
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.stats.invalidations == 2


def test_stats_snapshot_is_immutable_and_consistent():
    cache = PlanCache()
    cache.get_or_compute("a", lambda: 1)
    cache.get_hit("a")
    snapshot = cache.stats
    cache.get_hit("a")
    assert snapshot.hits == 1  # old snapshot unaffected
    assert cache.stats.hits == 2
    with pytest.raises(AttributeError):
        snapshot.hits = 99


def test_empty_cache_hit_rate_is_zero():
    assert PlanCache().stats.hit_rate == 0.0
