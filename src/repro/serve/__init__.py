"""``repro.serve`` — the asyncio planning gateway and its load generator.

The serving layer the paper's architecture implies but one-shot CLI runs
never exercised: an always-on daemon that admits JSON plan requests
under deadlines, sheds load it cannot serve in time, swaps catalogs
without a restart, and reports one metrics document.  ``repro serve
--workers N`` scales the same contract across a multi-process cluster
(:mod:`repro.serve.cluster`) with device-class shard affinity
(:mod:`repro.serve.sharding`).  See ``docs/SERVING.md`` for the
operational contract.
"""

from repro.runtime.metrics import Histogram
from repro.serve.admission import DeadlineQueue, RateLimiter, TokenBucket
from repro.serve.cluster import ClusterConfig, ClusterSupervisor
from repro.serve.gateway import GatewayConfig, PlanningGateway
from repro.serve.health import (
    BreakerState,
    CircuitBreaker,
    FailureDetector,
    HealthConfig,
    HealthRegistry,
)
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    RequestOutcome,
    run_loadgen,
)
from repro.serve.metrics import GatewayMetrics
from repro.serve.sharding import (
    SHARD_HINT_HEADER,
    WORKER_ID_HEADER,
    ShardRouter,
    device_shard_hint,
)

__all__ = [
    "DeadlineQueue",
    "RateLimiter",
    "TokenBucket",
    "ClusterConfig",
    "ClusterSupervisor",
    "GatewayConfig",
    "PlanningGateway",
    "BreakerState",
    "CircuitBreaker",
    "FailureDetector",
    "HealthConfig",
    "HealthRegistry",
    "LoadgenConfig",
    "LoadgenReport",
    "RequestOutcome",
    "run_loadgen",
    "GatewayMetrics",
    "Histogram",
    "SHARD_HINT_HEADER",
    "WORKER_ID_HEADER",
    "ShardRouter",
    "device_shard_hint",
]
