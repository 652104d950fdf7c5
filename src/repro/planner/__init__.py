"""Plan caching and concurrent batch planning.

``fingerprint`` defines the canonical cache key, ``cache`` the thread-safe
single-flight LRU store, ``batch`` the concurrent planner, and ``workload``
the request-stream generators the benchmarks and stress tests share.

Two memoization layers compose here: :class:`PlanCache` stores whole
plans by request fingerprint, while the re-exported
:class:`~repro.core.optimizer.OptimizeMemo` (one per
:class:`BatchPlanner`) stores individual solved ``Optimize()``
relaxations, so even *distinct* requests over the same infrastructure
share work below the plan level.
"""

from repro.core.optimizer import OptimizeMemo, OptimizeMemoStats
from repro.planner.fingerprint import combine_fingerprints, fingerprint_request
from repro.planner.cache import CacheStats, PlanCache
from repro.planner.batch import BatchPlanner, PlanRequest
from repro.planner.workload import device_variants, synthetic_requests

__all__ = [
    "combine_fingerprints",
    "fingerprint_request",
    "CacheStats",
    "PlanCache",
    "BatchPlanner",
    "PlanRequest",
    "OptimizeMemo",
    "OptimizeMemoStats",
    "device_variants",
    "synthetic_requests",
]
