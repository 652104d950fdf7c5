"""Gateway observability: counters plus latency/satisfaction histograms.

Everything here is mutated only from the gateway's event loop, so no
locking is needed; a snapshot is therefore always internally consistent.
Export goes through :func:`repro.runtime.metrics.metrics_document`, the
same envelope the planner and simulator reports use — one schema for
every metrics surface in the repo.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.runtime.metrics import Histogram, metrics_document

__all__ = [
    "GatewayMetrics",
    "LATENCY_BUCKETS_MS",
    "SATISFACTION_BUCKETS",
]

#: End-to-end latency bucket upper bounds, in milliseconds.
LATENCY_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0,
                      800.0, 1600.0)
#: Planned-satisfaction bucket upper bounds (Equation 1 lies in [0, 1]).
SATISFACTION_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class GatewayMetrics:
    """Every counter the gateway maintains, plus the two histograms."""

    COUNTERS = (
        "received",          # plan requests that reached dispatch
        "planned",           # answered 200 (feasible or infeasible)
        "infeasible",        # subset of planned with success=false
        "shed_queue",        # 429: deadline queue full
        "shed_rate",         # 429: per-client token bucket empty
        "shed_busy",         # 429: planner pool saturated by abandoned work
        "expired",           # 504: deadline passed while queued
        "timeouts",          # 504: planning overran the deadline
        "invalid",           # 400: body failed decoding/validation
        "unplannable",       # 422: planner raised a typed repro error
        "rejected_draining", # 503: arrived during drain
        "errors",            # 500: unexpected exception (kept, never raised)
        "protocol_errors",   # 400: HTTP framing failures
        "reloads",           # successful hot catalog swaps
        "connections",       # connections accepted
        "shard_hits",        # hinted requests that landed on their shard owner
        "shard_misses",      # hinted requests that landed elsewhere (cold cache)
        "reports",           # outcome samples accepted into breakers
        "degraded",          # 200: degraded-mode passthrough answers
        "breaker_opens",     # local breaker transitions into OPEN
        "breaker_closes",    # local breaker transitions into CLOSED
        "quarantine_rebuilds",  # quarantine-set changes that flushed plans
        "groups",            # /plan-group requests answered 200
        "group_sessions",    # sessions covered by those groups
        "group_branches",    # feasible per-class branches across all groups
        "group_fallbacks",   # classes with no feasible branch (per-session fallback)
        "group_saved_bps",   # aggregate shared-bandwidth savings (bps, rounded)
        "policy_fast_path",  # 200: policy skip answered without the selector
        "policy_denied",     # 403: policy deny rule rejected the request
        "policy_tier_forced",  # requests planned through a forced hardware tier
    )

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {name: 0 for name in self.COUNTERS}
        self.latency_ms = Histogram(LATENCY_BUCKETS_MS)
        self.queue_wait_ms = Histogram(LATENCY_BUCKETS_MS)
        self.satisfaction = Histogram(SATISFACTION_BUCKETS)

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def snapshot(
        self,
        *,
        generation: int,
        uptime_s: float,
        queue_depth: int,
        inflight: int,
        draining: bool,
        cache: Optional[Mapping[str, Any]] = None,
        worker_id: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The ``/metrics`` document (repo-wide envelope, keys sorted)."""
        payload: Dict[str, Any] = {
            "counters": dict(self.counters),
            "latency_ms": self.latency_ms.to_dict(),
            "queue_wait_ms": self.queue_wait_ms.to_dict(),
            "satisfaction": self.satisfaction.to_dict(),
            "generation": generation,
            "uptime_s": round(uptime_s, 3),
            "queue_depth": queue_depth,
            "inflight": inflight,
            "draining": draining,
        }
        if cache is not None:
            payload["cache"] = dict(cache)
        if worker_id is not None:
            payload["worker_id"] = worker_id
        return metrics_document("gateway", payload)
