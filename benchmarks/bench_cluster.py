"""E20 — extension: multi-process cluster scaling and shard affinity.

Boots the real :class:`~repro.serve.cluster.ClusterSupervisor` (forked
workers, shared SO_REUSEPORT listeners, private plan caches) and pins
the two claims the cluster makes over the single-process gateway of E19:

- **scaling**: with per-process capacity fixed by the
  ``service_floor_ms`` knob (20 ms floor x 2 planning threads = 100
  plans/s per process, machine-independent), a 4-worker cluster serves
  at least **2.5x** the single-process request rate on the same seeded
  workload while the p99 of accepted requests stays inside the same
  deadline budget for both;
- **affinity determinism**: with ``--shard-affinity`` routing every
  device class to its ``shard_owner``, two same-seed campaigns against two
  freshly booted clusters reproduce the per-request outcome digest
  bit-for-bit and land the identical per-worker request distribution;
  the digest is written alone to ``cluster_digest.txt`` (CI diffs it at
  its size).

``CLUSTER_BENCH_REQUESTS`` scales the campaign down for CI smoke runs;
the default exercises the full 1200-request campaign at 400 req/s.
"""

from __future__ import annotations

import asyncio
import os

from repro.serve.cluster import ClusterConfig, ClusterSupervisor
from repro.serve.gateway import GatewayConfig, PlanningGateway
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from conftest import format_table

REQUESTS = int(os.environ.get("CLUSTER_BENCH_REQUESTS", "1200"))
DEADLINE_MS = 250.0
SEED = 0
DISTINCT = 16

#: Capacity pinned by configuration, not host speed: each process runs
#: 2 planning threads padded to 20 ms/plan -> 100 plans/s per process.
#: The floor is deliberately tall so the knob — not the host CPU — is
#: the bottleneck even on single-core CI runners, where five processes
#: (4 workers + the load generator) share one core.
FLOOR_MS = 20.0
THREADS = 2
WORKERS = 4
PER_PROCESS_RATE = THREADS * (1000.0 / FLOOR_MS)
#: Offered at 3x single-process capacity: the single-process run
#: saturates and sheds, while the 4-worker cluster still has a 25%
#: headroom margin so kernel connection-balancing jitter cannot push
#: individual workers onto the deadline boundary.
OFFERED_RATE_PER_S = 3.0 * PER_PROCESS_RATE

MIN_SPEEDUP = 2.5

SCENARIO = generate_scenario(
    SyntheticConfig(seed=7, n_services=12, n_formats=8, n_nodes=8)
)


def worker_gateway_config() -> GatewayConfig:
    # queue_depth bounds the worst admitted wait: 8 requests x 10 ms
    # effective service (20 ms floor / 2 threads) + one 20 ms slot is
    # ~100 ms — far enough inside the 250 ms budget that client-side
    # measurement overhead on a single-core runner cannot push accepted
    # requests over it, so the saturated single process sheds instead of
    # riding the deadline.
    return GatewayConfig(
        port=0, workers=THREADS, queue_depth=8,
        service_floor_ms=FLOOR_MS,
    )


def run_single_campaign(loadgen_config: LoadgenConfig):
    """One campaign against a fresh single-process gateway."""

    async def campaign():
        gateway = PlanningGateway(SCENARIO, worker_gateway_config())
        await gateway.start()
        try:
            config = LoadgenConfig(
                **{**loadgen_config.__dict__, "port": gateway.port}
            )
            return await run_loadgen(SCENARIO, config)
        finally:
            await gateway.drain()

    return asyncio.run(campaign())


def run_cluster_campaign(loadgen_config: LoadgenConfig, affinity: bool):
    """One campaign against a fresh 4-worker cluster, always drained."""

    async def campaign():
        supervisor = ClusterSupervisor(
            SCENARIO,
            gateway_config=worker_gateway_config(),
            cluster_config=ClusterConfig(workers=WORKERS, admin_port=0),
        )
        await supervisor.start()
        try:
            config = LoadgenConfig(
                **{
                    **loadgen_config.__dict__,
                    "port": supervisor.port,
                    "shard_affinity": affinity,
                    "admin_port": supervisor.admin_port if affinity else None,
                }
            )
            return await run_loadgen(SCENARIO, config)
        finally:
            await supervisor.drain()

    return asyncio.run(campaign())


def test_cluster_scaling_and_affinity_determinism(benchmark, save_artifact):
    saturating = LoadgenConfig(
        requests=REQUESTS, rate_per_s=OFFERED_RATE_PER_S, seed=SEED,
        deadline_ms=DEADLINE_MS, distinct=DISTINCT,
    )

    # ---- scaling regime --------------------------------------------------
    # Cluster first: forking is cleanest before any thread pool has run
    # in this process.  Kernel connection balancing spreads the load, so
    # no affinity here — this measures raw multi-process capacity.
    cluster = run_cluster_campaign(saturating, affinity=False)
    single = run_single_campaign(saturating)

    assert cluster.failed == 0, (
        f"{cluster.failed} requests got no explicit answer from the cluster"
    )
    assert single.failed == 0
    # Equal p99 budget on both sides: accepted requests meet the deadline
    # whether one process or four served them.
    cluster_p99 = cluster.latency_percentiles()["p99"]
    single_p99 = single.latency_percentiles()["p99"]
    assert cluster_p99 < DEADLINE_MS, (
        f"cluster accepted-request p99 {cluster_p99:.1f} ms breaches the "
        f"{DEADLINE_MS:.0f} ms deadline"
    )
    assert single_p99 < DEADLINE_MS, (
        f"single-process accepted-request p99 {single_p99:.1f} ms breaches "
        f"the {DEADLINE_MS:.0f} ms deadline"
    )
    # The single process saturates (sheds) at this offered rate; the
    # cluster rides through it with spare headroom.
    assert single.shed > 0, (
        "single process absorbed 4x its configured capacity — the floor "
        "knob is not pinning capacity"
    )
    assert cluster.completed > single.completed

    speedup = cluster.achieved_rate_per_s / max(single.achieved_rate_per_s, 1e-9)
    assert speedup >= MIN_SPEEDUP, (
        f"{WORKERS}-worker cluster served {cluster.achieved_rate_per_s:.0f} "
        f"req/s vs {single.achieved_rate_per_s:.0f} req/s single-process — "
        f"{speedup:.2f}x, below the {MIN_SPEEDUP:.1f}x floor"
    )

    # The cluster answer spread is honest: every answered request (200s
    # and explicit sheds alike) carried the identity of a real worker.
    spread = cluster.worker_distribution()
    assert sum(spread.values()) == REQUESTS - cluster.failed

    # ---- affinity determinism regime -------------------------------------
    # Sustained rate one process could almost absorb alone, so the shard
    # owners never shed and every outcome is deterministic.
    affinity_load = LoadgenConfig(
        requests=max(80, REQUESTS // 4), rate_per_s=PER_PROCESS_RATE,
        seed=SEED + 1, deadline_ms=DEADLINE_MS, distinct=DISTINCT,
    )
    first = run_cluster_campaign(affinity_load, affinity=True)
    second = run_cluster_campaign(affinity_load, affinity=True)

    assert first.failed == 0 and second.failed == 0
    assert first.completed == affinity_load.requests
    assert first.outcome_digest() == second.outcome_digest(), (
        "same-seed affinity campaigns diverged across fresh clusters"
    )
    assert first.worker_distribution() == second.worker_distribution()
    assert len(first.worker_distribution()) > 1, (
        "affinity routed every device class to one worker — "
        "shard_owner is broken"
    )

    # Timing harness: boot-to-drained cluster burst (fork, serve, merge).
    burst = LoadgenConfig(
        requests=min(200, REQUESTS), rate_per_s=PER_PROCESS_RATE, seed=SEED,
        deadline_ms=DEADLINE_MS, distinct=DISTINCT,
    )
    benchmark.pedantic(
        lambda: run_cluster_campaign(burst, affinity=True),
        rounds=3, iterations=1, warmup_rounds=0,
    )

    rows = [
        ("requests per regime", f"{REQUESTS}"),
        ("per-process capacity",
         f"{PER_PROCESS_RATE:.0f} req/s ({THREADS} threads x "
         f"{FLOOR_MS:.0f} ms floor)"),
        ("offered rate", f"{OFFERED_RATE_PER_S:.0f} req/s"),
        ("single served rate",
         f"{single.achieved_rate_per_s:.0f} req/s "
         f"(shed {single.shed}, expired {single.timeouts})"),
        (f"{WORKERS}-worker served rate",
         f"{cluster.achieved_rate_per_s:.0f} req/s "
         f"(shed {cluster.shed}, expired {cluster.timeouts})"),
        ("speedup", f"{speedup:.2f}x (floor {MIN_SPEEDUP:.1f}x)"),
        ("single / cluster p99",
         f"{single_p99:.1f} / {cluster_p99:.1f} ms "
         f"(budget {DEADLINE_MS:.0f} ms)"),
        ("cluster answer spread",
         "  ".join(f"{w}:{n}" for w, n in sorted(spread.items()))),
        ("affinity digest", first.outcome_digest()[:16]),
        ("affinity spread",
         "  ".join(
             f"{w}:{n}" for w, n in sorted(first.worker_distribution().items())
         )),
    ]
    save_artifact(
        "cluster.txt",
        f"E20 — {WORKERS}-worker cluster vs single process "
        f"(deadline {DEADLINE_MS:.0f} ms, seed {SEED})\n\n"
        + format_table(["metric", "value"], rows),
    )
    save_artifact(
        "cluster_digest.txt",
        f"E20 — same-seed affinity outcome digest ({affinity_load.requests} "
        f"requests, {WORKERS} workers, seed {SEED + 1})\n"
        f"{first.outcome_digest()}",
    )
