"""E19 — extension: serving gateway throughput, tail latency, shedding.

Drives the real asyncio planning gateway (real sockets, real HTTP/1.1)
through the seeded open-loop load generator and asserts the serving
SLOs from two regimes:

- **sustained**: at the target arrival rate every request is served with
  p99 end-to-end latency under the request deadline — no sheds, no
  timeouts, no failures — and a same-seed rerun against a fresh daemon
  reproduces the per-request outcome digest bit-for-bit, which is
  written alone to ``gateway_digest.txt`` (CI diffs it at its size);
- **overload**: at 2x the gateway's configured capacity (pinned by the
  ``service_floor_ms`` knob so the saturation point is machine-
  independent) the bounded deadline queue sheds explicitly with 429s
  while the p99 of *accepted* requests stays within the deadline and
  every request still gets an answer.

``GATEWAY_BENCH_REQUESTS`` / ``GATEWAY_BENCH_RATE`` scale the campaign
down for CI smoke runs; defaults exercise the full 500 req/s target.
"""

from __future__ import annotations

import asyncio
import os

from repro.serve.gateway import GatewayConfig, PlanningGateway
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from conftest import format_table

REQUESTS = int(os.environ.get("GATEWAY_BENCH_REQUESTS", "1500"))
RATE_PER_S = float(os.environ.get("GATEWAY_BENCH_RATE", "500"))
DEADLINE_MS = 250.0
SEED = 0

#: Overload regime: 2 workers padded to 5 ms/request -> ~400 plans/s of
#: configured capacity, loaded at 2x that.
FLOOR_MS = 5.0
FLOOR_WORKERS = 2
OVERLOAD_RATE_PER_S = 2.0 * FLOOR_WORKERS * (1000.0 / FLOOR_MS)

SCENARIO = generate_scenario(
    SyntheticConfig(seed=7, n_services=12, n_formats=8, n_nodes=8)
)


def run_campaign(gateway_config: GatewayConfig, loadgen_config: LoadgenConfig):
    """Boot a fresh gateway, fire one campaign, always drain."""

    async def campaign():
        gateway = PlanningGateway(SCENARIO, gateway_config)
        await gateway.start()
        try:
            config = LoadgenConfig(
                **{**loadgen_config.__dict__, "port": gateway.port}
            )
            return await run_loadgen(SCENARIO, config)
        finally:
            await gateway.drain()

    return asyncio.run(campaign())


def test_gateway_sustained_and_overload(benchmark, save_artifact):
    # ---- sustained regime ------------------------------------------------
    sustained_gateway = GatewayConfig(port=0, workers=4, queue_depth=256)
    sustained_load = LoadgenConfig(
        requests=REQUESTS, rate_per_s=RATE_PER_S, seed=SEED,
        deadline_ms=DEADLINE_MS, distinct=16,
    )
    report = run_campaign(sustained_gateway, sustained_load)
    latency = report.latency_percentiles()

    assert report.completed == REQUESTS, (
        f"only {report.completed}/{REQUESTS} served "
        f"(shed {report.shed}, timeouts {report.timeouts}, "
        f"failed {report.failed})"
    )
    assert report.failed == 0
    assert latency["p99"] < DEADLINE_MS, (
        f"p99 {latency['p99']:.1f} ms breaches the {DEADLINE_MS:.0f} ms "
        f"deadline at {RATE_PER_S:.0f} req/s"
    )
    assert report.achieved_rate_per_s >= 0.8 * RATE_PER_S

    # Determinism gate: same seed, fresh daemon, identical outcomes.
    replay = run_campaign(sustained_gateway, sustained_load)
    assert replay.outcome_digest() == report.outcome_digest()

    # ---- overload regime -------------------------------------------------
    overload_gateway = GatewayConfig(
        port=0, workers=FLOOR_WORKERS, queue_depth=32,
        service_floor_ms=FLOOR_MS,
    )
    overload_load = LoadgenConfig(
        requests=REQUESTS, rate_per_s=OVERLOAD_RATE_PER_S, seed=SEED,
        deadline_ms=DEADLINE_MS, distinct=16,
    )
    overload = run_campaign(overload_gateway, overload_load)
    overload_latency = overload.latency_percentiles()

    # Every request is answered; the excess is shed explicitly, and the
    # requests the gateway *did* accept still meet the deadline.
    assert overload.failed == 0, (
        f"{overload.failed} requests got no explicit answer under overload"
    )
    assert overload.shed > 0, "2x overload produced no 429 sheds"
    assert overload.completed > 0
    assert overload_latency["p99"] < DEADLINE_MS, (
        f"accepted-request p99 {overload_latency['p99']:.1f} ms breaches "
        f"the deadline under overload"
    )

    # Timing harness: steady repeat of a short sustained burst.
    burst = LoadgenConfig(
        requests=min(200, REQUESTS), rate_per_s=RATE_PER_S, seed=SEED,
        deadline_ms=DEADLINE_MS, distinct=16,
    )
    benchmark(lambda: run_campaign(sustained_gateway, burst))

    rows = [
        ("requests per regime", f"{REQUESTS}"),
        ("sustained offered rate", f"{RATE_PER_S:.0f} req/s"),
        ("sustained served rate", f"{report.achieved_rate_per_s:.0f} req/s"),
        ("sustained p50/p95/p99",
         f"{latency['p50']:.1f} / {latency['p95']:.1f} / "
         f"{latency['p99']:.1f} ms"),
        ("outcome digest", report.outcome_digest()[:16]),
        ("overload offered rate", f"{OVERLOAD_RATE_PER_S:.0f} req/s "
         f"(capacity ~{OVERLOAD_RATE_PER_S / 2:.0f})"),
        ("overload served / shed / expired",
         f"{overload.completed} / {overload.shed} / {overload.timeouts}"),
        ("overload accepted p99", f"{overload_latency['p99']:.1f} ms"),
    ]
    save_artifact(
        "gateway.txt",
        f"E19 — planning gateway under load (deadline {DEADLINE_MS:.0f} ms, "
        f"seed {SEED})\n\n" + format_table(["metric", "value"], rows),
    )
    save_artifact(
        "gateway_digest.txt",
        f"E19 — same-seed sustained outcome digest ({REQUESTS} requests "
        f"at {RATE_PER_S:.0f} req/s, seed {SEED})\n{report.outcome_digest()}",
    )
