"""E21 — extension: resilient serving under gray failure.

The paper's composition layer assumes reported QoS is honest; a gray-
failing service (drops a fraction of attempts while still advertising
itself) breaks that silently.  This experiment measures what the
failure detector + circuit breaker stack (``repro.serve.health``) buys
the gateway over an unprotected baseline:

- **Storm regime** — one backbone service drops 80% of attempts.  The
  unprotected gateway keeps routing through it and sustains the
  failure rate; the breaker-enabled gateway detects the failure from
  ``POST /report`` outcome feeds, quarantines the service, and the
  tail of the campaign recovers to >= 95% delivered success.  Both
  campaigns are seeded and serial, so the storm digest is bit-stable
  across same-seed runs.
- **Degraded regime** — every service quarantined at once (breaker-open
  storm).  The gateway must keep answering 200/degraded passthrough
  plans, and the accepted-request p99 must stay inside the 250 ms
  deadline: degradation is a fast path, not a slow one.
- **Recovery regime** — after the cooldown the breaker HALF_OPENs,
  successful probes close it, and full-quality plans resume.

Run directly:
    PYTHONPATH=src python -m pytest benchmarks/bench_resilient_serving.py -v
Scale with RESILIENT_BENCH_REQUESTS (default 400 per storm campaign).
The storm digest is also written alone to ``resilient_serving_digest.txt``
(CI diffs it at its size).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import time

from conftest import format_table

from repro.serve import GatewayConfig, HealthConfig, PlanningGateway
from repro.serve.http11 import read_response, render_request
from repro.serve.protocol import encode_payload
from repro.sim import percentile
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

REQUESTS = int(os.environ.get("RESILIENT_BENCH_REQUESTS", "400"))
SEED = 7
DEADLINE_MS = 250.0
FAILURE_RATE = 0.8
RECOVERY_FLOOR = 0.95

SCENARIO = generate_scenario(
    SyntheticConfig(seed=SEED, n_services=10, n_formats=6, n_nodes=6)
)
ALL_SERVICES = [d.service_id for d in SCENARIO.catalog]


async def _request(port: int, method: str, path: str, payload=None):
    body = encode_payload(payload) if payload is not None else b""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(render_request(method, path, body, keep_alive=False))
        await writer.drain()
        response = await asyncio.wait_for(read_response(reader), timeout=10.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    decoded = json.loads(response.body) if response.body else {}
    return response.status, decoded


def storm_health() -> HealthConfig:
    # Effectively infinite cooldown: transitions are purely sample-driven
    # (CLOSED -> OPEN only), so the storm trace depends on nothing but
    # the seeded failure rolls — that is what makes the digest bit-stable.
    return HealthConfig(min_samples=4, cooldown_s=1e9, seed=SEED)


def run_storm(protected: bool, requests: int, seed: int = SEED) -> dict:
    """Serial plan -> simulated delivery -> outcome report campaign.

    One backbone service silently drops FAILURE_RATE of the attempts
    that route through it.  Each request reports per-service outcomes
    back to the gateway, which is all the breaker ever sees.
    """
    import random

    rolls = random.Random(f"{seed}:gray-storm")

    async def campaign():
        config = GatewayConfig(
            port=0, workers=2,
            health=storm_health() if protected else None,
        )
        gateway = PlanningGateway(SCENARIO, config)
        await gateway.start()
        try:
            _, baseline = await _request(gateway.port, "POST", "/plan", {})
            victim = next(
                sid for sid in baseline["path"]
                if sid not in ("sender", "receiver")
            )
            records = []
            detected_at = None
            for index in range(requests):
                status, plan = await _request(
                    gateway.port, "POST", "/plan", {}
                )
                path = plan.get("path", [])
                hops = [s for s in path if s not in ("sender", "receiver")]
                # Gray failure: the victim drops the segment silently.
                failed = (
                    victim in hops and rolls.random() < FAILURE_RATE
                )
                delivered = status == 200 and not failed
                if detected_at is None and victim not in hops:
                    detected_at = index
                records.append(
                    (
                        index,
                        status,
                        plan.get("status", "error"),
                        bool(plan.get("degraded", False)),
                        tuple(path),
                        delivered,
                    )
                )
                if hops:
                    await _request(
                        gateway.port,
                        "POST",
                        "/report",
                        {
                            "client": "bench",
                            "outcomes": [
                                {
                                    "service": sid,
                                    "success": not (failed and sid == victim),
                                }
                                for sid in hops
                            ],
                        },
                    )
            _, health = await _request(gateway.port, "GET", "/health")
            return victim, records, detected_at, health
        finally:
            await gateway.drain()

    victim, records, detected_at, health = asyncio.run(campaign())
    tail = records[len(records) // 2:]
    digest = hashlib.sha256(
        json.dumps(records, separators=(",", ":")).encode()
    ).hexdigest()
    return {
        "victim": victim,
        "requests": len(records),
        "success_rate": sum(r[5] for r in records) / max(len(records), 1),
        "tail_success_rate": sum(r[5] for r in tail) / max(len(tail), 1),
        "detected_at": detected_at,
        "degraded": sum(1 for r in records if r[3]),
        "digest": digest,
        "health": health,
    }


def run_degraded_storm(requests: int) -> dict:
    """Quarantine every service, then hammer /plan: all answers must be
    degraded passthroughs and the p99 must stay inside the deadline."""

    async def campaign():
        gateway = PlanningGateway(
            SCENARIO, GatewayConfig(port=0, workers=2, health=storm_health())
        )
        await gateway.start()
        try:
            outcomes = []
            for sid in ALL_SERVICES:
                outcomes.extend(
                    {"service": sid, "success": False} for _ in range(8)
                )
            await _request(
                gateway.port, "POST", "/report",
                {"client": "bench", "outcomes": outcomes},
            )
            latencies, statuses = [], []
            for _ in range(requests):
                started = time.perf_counter()
                status, plan = await _request(
                    gateway.port, "POST", "/plan", {}
                )
                latencies.append((time.perf_counter() - started) * 1e3)
                statuses.append((status, plan.get("degraded", False)))
            ready = await _request(gateway.port, "GET", "/readyz")
            return latencies, statuses, ready
        finally:
            await gateway.drain()

    latencies, statuses, ready = asyncio.run(campaign())
    return {
        "requests": len(latencies),
        "all_degraded": all(s == (200, True) for s in statuses),
        "p50_ms": percentile(latencies, 50.0),
        "p99_ms": percentile(latencies, 99.0),
        "readyz": ready,
    }


def run_recovery() -> dict:
    """Open the victim's breaker, wait out the cooldown, feed successful
    probes, and confirm full-quality plans come back."""

    async def campaign():
        gateway = PlanningGateway(
            SCENARIO,
            GatewayConfig(
                port=0, workers=2,
                health=HealthConfig(
                    min_samples=4, cooldown_s=0.2,
                    cooldown_jitter=0.0, seed=SEED,
                ),
            ),
        )
        await gateway.start()
        try:
            _, baseline = await _request(gateway.port, "POST", "/plan", {})
            victim = next(
                sid for sid in baseline["path"]
                if sid not in ("sender", "receiver")
            )
            await _request(
                gateway.port, "POST", "/report",
                {
                    "client": "bench",
                    "outcomes": [
                        {"service": victim, "success": False}
                        for _ in range(8)
                    ],
                },
            )
            _, opened = await _request(gateway.port, "GET", "/health")
            await asyncio.sleep(0.5)
            probes = 0
            state = "open"
            for _ in range(30):
                await _request(
                    gateway.port, "POST", "/report",
                    {
                        "client": "bench",
                        "outcomes": [{"service": victim, "success": True}],
                    },
                )
                probes += 1
                _, health = await _request(gateway.port, "GET", "/health")
                state = health["services"][victim]["state"]
                if state == "closed":
                    break
                await asyncio.sleep(0.02)
            _, final = await _request(gateway.port, "POST", "/plan", {})
            return victim, opened, probes, state, final
        finally:
            await gateway.drain()

    victim, opened, probes, state, final = asyncio.run(campaign())
    return {
        "victim": victim,
        "opened": opened["services"][victim]["state"],
        "probes": probes,
        "state": state,
        "restored": final["status"] == "ok" and not final["degraded"],
    }


def test_breaker_restores_success_under_gray_failure(benchmark, save_artifact):
    # ---- storm regime ----------------------------------------------------
    protected = run_storm(protected=True, requests=REQUESTS)
    baseline = run_storm(protected=False, requests=REQUESTS)
    rerun = run_storm(protected=True, requests=REQUESTS)

    assert protected["victim"] == baseline["victim"]
    # Unprotected: the gateway keeps routing through the gray-failing
    # service forever, so delivered success hovers at ~1 - FAILURE_RATE.
    assert baseline["detected_at"] is None
    assert baseline["tail_success_rate"] < 0.5, (
        f"baseline tail success {baseline['tail_success_rate']:.2f} — the "
        "gray failure is not biting; the comparison is meaningless"
    )
    # Protected: the breaker opens within the sample window and the tail
    # of the campaign routes around the victim.
    assert protected["detected_at"] is not None
    assert protected["detected_at"] <= 40, (
        f"breaker needed {protected['detected_at']} requests to quarantine "
        "an 80%-failing service"
    )
    assert protected["health"]["open"] == [protected["victim"]]
    assert protected["tail_success_rate"] >= RECOVERY_FLOOR, (
        f"protected tail success {protected['tail_success_rate']:.2f} below "
        f"the {RECOVERY_FLOOR:.0%} recovery floor"
    )
    # Same seed, same storm, bit for bit.
    assert protected["digest"] == rerun["digest"], (
        "same-seed protected campaigns diverged"
    )

    # ---- degraded regime -------------------------------------------------
    degraded = run_degraded_storm(max(100, REQUESTS // 4))
    assert degraded["all_degraded"], (
        "breaker-open storm produced non-degraded or non-200 answers"
    )
    assert degraded["p99_ms"] < DEADLINE_MS, (
        f"degraded-mode p99 {degraded['p99_ms']:.1f} ms breaches the "
        f"{DEADLINE_MS:.0f} ms deadline — passthrough is not a fast path"
    )
    assert degraded["readyz"][0] == 503  # majority-open: not ready

    # ---- recovery regime -------------------------------------------------
    recovery = run_recovery()
    assert recovery["opened"] == "open"
    assert recovery["state"] == "closed"
    assert recovery["restored"], (
        "plans did not return to full quality after the breaker closed"
    )

    # Timing harness: one boot-to-drained protected storm burst.
    burst = max(60, REQUESTS // 4)
    benchmark.pedantic(
        lambda: run_storm(protected=True, requests=burst),
        rounds=3, iterations=1, warmup_rounds=0,
    )

    rows = [
        ("requests per storm", f"{protected['requests']}"),
        ("gray victim / failure rate",
         f"{protected['victim']} / {FAILURE_RATE:.0%}"),
        ("unprotected success (tail)",
         f"{baseline['tail_success_rate']:.1%} (never detects)"),
        ("protected success (tail)",
         f"{protected['tail_success_rate']:.1%} "
         f"(floor {RECOVERY_FLOOR:.0%})"),
        ("time to quarantine",
         f"{protected['detected_at']} requests"),
        ("storm digest", protected["digest"][:16] + "  (stable on rerun)"),
        ("degraded p50 / p99",
         f"{degraded['p50_ms']:.1f} / {degraded['p99_ms']:.1f} ms "
         f"(budget {DEADLINE_MS:.0f} ms)"),
        ("degraded answers", f"{degraded['requests']}/"
         f"{degraded['requests']} within deadline"),
        ("recovery probes to close", f"{recovery['probes']}"),
    ]
    save_artifact(
        "resilient_serving.txt",
        f"E21 — gray-failure storm: breaker-enabled gateway vs unprotected "
        f"baseline (deadline {DEADLINE_MS:.0f} ms, seed {SEED})\n\n"
        + format_table(["metric", "value"], rows),
    )
    save_artifact(
        "resilient_serving_digest.txt",
        f"E21 — same-seed protected storm digest ({protected['requests']} "
        f"requests, seed {SEED})\n{protected['digest']}",
    )
