"""``repro.serve`` — the asyncio planning gateway, its cluster and load generator.

The serving layer the paper's architecture implies but one-shot CLI runs
never exercised: an always-on daemon that admits JSON plan requests
under deadlines, sheds load it cannot serve in time, swaps catalogs
without a restart, and reports one metrics document.  ``repro serve
--workers N`` scales the same contract across a multi-process cluster
(:mod:`repro.serve.cluster`) with device-class shard affinity
(:mod:`repro.serve.sharding`).  See ``docs/SERVING.md`` for the
operational contract.

The cluster supervisor (:mod:`repro.serve.cluster`) and the load
generator (:mod:`repro.serve.loadgen`) are not re-exported: they pull in
:mod:`multiprocessing` and the simulator, which a single-process daemon
never needs.  Import them by module.
"""

from repro.runtime.metrics import Histogram
from repro.serve.admission import DeadlineQueue, RateLimiter, TokenBucket
from repro.serve.gateway import GatewayConfig, PlanningGateway
from repro.serve.health import (
    BreakerState,
    CircuitBreaker,
    FailureDetector,
    HealthConfig,
    HealthRegistry,
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
    "GatewayConfig",
    "PlanningGateway",
    "BreakerState",
    "CircuitBreaker",
    "FailureDetector",
    "HealthConfig",
    "HealthRegistry",
    "GatewayMetrics",
    "Histogram",
    "SHARD_HINT_HEADER",
    "WORKER_ID_HEADER",
    "ShardRouter",
    "device_shard_hint",
]
