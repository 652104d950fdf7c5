"""End-to-end tests for the gateway's health/resilience surface.

Boots real gateways on ephemeral ports (same idiom as
``test_gateway.py``: no pytest-asyncio, ``asyncio.run`` per test) and
drives the breaker lifecycle over the wire: ``POST /report`` outcome
feeds, quarantine overlays masking OPEN services out of planning,
degraded-mode passthrough answers, the ``/readyz`` majority-open rule,
and the loadgen's seeded retry schedule.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ValidationError
from repro.planner import device_variants
from repro.policy import DeviceIn, PolicyDocument, PolicyRule
from repro.profiles.device import DeviceProfile
from repro.profiles.serialization import profile_to_dict
from repro.serve import loadgen
from repro.serve.gateway import GatewayConfig, PlanningGateway
from repro.serve.health import HealthConfig
from repro.serve.http11 import read_response, render_request
from repro.serve.loadgen import (
    LoadgenConfig,
    RequestOutcome,
    _retry_schedule,
    run_loadgen,
)
from repro.serve.protocol import encode_payload
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

SCENARIO = generate_scenario(
    SyntheticConfig(seed=7, n_services=10, n_formats=6, n_nodes=6)
)
ALL_SERVICES = [d.service_id for d in SCENARIO.catalog]


def health_config(**overrides) -> HealthConfig:
    defaults = dict(min_samples=3, cooldown_s=300.0, seed=1)
    defaults.update(overrides)
    return HealthConfig(**defaults)


def gateway_config(**overrides) -> GatewayConfig:
    defaults = dict(port=0, workers=2, health=health_config())
    defaults.update(overrides)
    return GatewayConfig(**defaults)


async def request(port: int, method: str, path: str, payload=None):
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


def run_against_gateway(coro_factory, **config_overrides):
    async def scenario():
        gateway = PlanningGateway(SCENARIO, gateway_config(**config_overrides))
        await gateway.start()
        try:
            return await coro_factory(gateway)
        finally:
            await gateway.drain()

    return asyncio.run(scenario())


def failures(service_id: str, count: int = 8):
    return [{"service": service_id, "success": False}] * count


def successes(service_id: str, count: int = 8):
    return [{"service": service_id, "success": True}] * count


async def report(port: int, outcomes):
    return await request(
        port, "POST", "/report", {"client": "test", "outcomes": outcomes}
    )


class TestReportEndpoint:
    def test_disabled_health_answers_disabled(self):
        async def scenario(gateway):
            reported = await report(gateway.port, failures("S1"))
            health = await request(gateway.port, "GET", "/health")
            ready = await request(gateway.port, "GET", "/readyz")
            return reported, health, ready

        reported, health, ready = run_against_gateway(scenario, health=None)
        assert reported == (200, {"status": "disabled", "accepted": 0})
        assert health[1] == {"status": "disabled", "enabled": False}
        assert ready[0] == 200

    def test_accepts_catalog_services_and_ignores_strangers(self):
        async def scenario(gateway):
            status, payload = await report(
                gateway.port,
                failures("S1", 2) + [{"service": "ghost", "success": True}],
            )
            health = await request(gateway.port, "GET", "/health")
            return status, payload, health[1]

        status, payload, health = run_against_gateway(scenario)
        assert status == 200
        assert payload["accepted"] == 2
        assert payload["ignored"] == 1
        assert payload["open"] == []  # min_samples not reached yet
        assert health["enabled"] is True
        assert health["tracked"] == 1
        assert "ghost" not in health["services"]

    @pytest.mark.parametrize(
        "body",
        [
            {"outcomes": []},
            {"outcomes": "S1"},
            {"outcomes": [{"service": "S1"}]},
            {"outcomes": [{"service": "", "success": True}]},
            {"outcomes": [{"service": "S1", "success": "yes"}]},
            [],
        ],
    )
    def test_malformed_reports_are_400(self, body):
        async def scenario(gateway):
            return await request(gateway.port, "POST", "/report", body)

        status, payload = run_against_gateway(scenario)
        assert status == 400
        assert payload["status"] == "invalid"

    def test_report_get_is_405(self):
        async def scenario(gateway):
            return await request(gateway.port, "GET", "/report")

        status, _ = run_against_gateway(scenario)
        assert status == 405


class TestQuarantine:
    def test_open_breaker_masks_service_from_planning(self):
        async def scenario(gateway):
            _, baseline = await request(gateway.port, "POST", "/plan", {})
            victim = next(
                sid
                for sid in baseline["path"]
                if sid not in ("sender", "receiver")
            )
            await report(gateway.port, failures(victim))
            _, health = await request(gateway.port, "GET", "/health")
            _, replanned = await request(gateway.port, "POST", "/plan", {})
            metrics = (await request(gateway.port, "GET", "/metrics"))[1]
            return victim, baseline, health, replanned, metrics

        victim, baseline, health, replanned, metrics = run_against_gateway(
            scenario
        )
        assert baseline["status"] == "ok"
        assert baseline["degraded"] is False
        assert health["open"] == [victim]
        assert health["services"][victim]["state"] == "open"
        # The replanned answer routes around the quarantined service (or
        # degrades if nothing else is feasible); it never uses it.
        assert replanned["status"] in ("ok", "degraded")
        assert victim not in replanned["path"]
        assert metrics["metrics"]["counters"]["reports"] == 8
        assert metrics["metrics"]["counters"]["breaker_opens"] == 1
        assert metrics["metrics"]["counters"]["quarantine_rebuilds"] >= 1

    def test_quarantining_everything_degrades_not_500s(self):
        async def scenario(gateway):
            outcomes = []
            for sid in ALL_SERVICES:
                outcomes.extend(failures(sid))
            await report(gateway.port, outcomes)
            plan = await request(gateway.port, "POST", "/plan", {})
            metrics = (await request(gateway.port, "GET", "/metrics"))[1]
            return plan, metrics

        (status, payload), metrics = run_against_gateway(scenario)
        assert status == 200
        assert payload["status"] == "degraded"
        assert payload["degraded"] is True
        assert payload["success"] is True
        assert payload["path"] == ["sender", "receiver"]
        assert payload["satisfaction"] == 0.0
        assert payload["quarantined"] == sorted(ALL_SERVICES)
        assert metrics["metrics"]["counters"]["degraded"] == 1

    def test_spent_deadline_budget_answers_degraded(self):
        async def scenario(gateway):
            return await request(gateway.port, "POST", "/plan", {})

        # Budget >= the whole deadline: every request is "nearly spent".
        status, payload = run_against_gateway(
            scenario, degraded_budget_ms=10_000.0
        )
        assert status == 200
        assert payload["degraded"] is True
        assert payload["reason"] == "deadline budget nearly spent"

    def test_readyz_503_when_majority_of_breakers_open(self):
        async def scenario(gateway):
            await report(
                gateway.port,
                failures("S1") + failures("S2") + successes("S3"),
            )
            ready = await request(gateway.port, "GET", "/readyz")
            healthz = await request(gateway.port, "GET", "/healthz")
            return ready, healthz

        ready, healthz = run_against_gateway(scenario)
        assert ready[0] == 503
        assert ready[1]["status"] == "degraded"
        assert "2/3" in ready[1]["detail"]
        assert healthz[0] == 200  # liveness is not readiness

    def test_readyz_stays_ready_while_minority_open(self):
        async def scenario(gateway):
            await report(
                gateway.port,
                failures("S1") + successes("S2") + successes("S3"),
            )
            return await request(gateway.port, "GET", "/readyz")

        status, payload = run_against_gateway(scenario)
        assert status == 200
        assert payload["status"] == "ready"


class TestRecovery:
    def test_half_open_probes_close_the_breaker(self):
        async def scenario(gateway):
            _, baseline = await request(gateway.port, "POST", "/plan", {})
            victim = next(
                sid
                for sid in baseline["path"]
                if sid not in ("sender", "receiver")
            )
            await report(gateway.port, failures(victim))
            _, opened = await request(gateway.port, "GET", "/health")
            # Past the (jittered) cooldown the next report ticks the
            # breaker into HALF_OPEN; successes then close it.
            await asyncio.sleep(0.25)
            states = []
            for _ in range(10):
                await report(gateway.port, successes(victim, 1))
                _, health = await request(gateway.port, "GET", "/health")
                states.append(health["services"][victim]["state"])
                if states[-1] == "closed":
                    break
                await asyncio.sleep(0.02)
            _, final = await request(gateway.port, "POST", "/plan", {})
            return victim, opened, states, final

        victim, opened, states, final = run_against_gateway(
            scenario,
            health=health_config(cooldown_s=0.05, cooldown_jitter=0.0),
        )
        assert opened["services"][victim]["state"] == "open"
        assert states[-1] == "closed"
        assert "half_open" in states or states[-1] == "closed"
        assert final["status"] == "ok"
        assert final["degraded"] is False

    def test_reload_resets_overlay_but_keeps_breakers(self):
        async def scenario(gateway):
            await report(gateway.port, failures("S1"))
            status, payload = await request(
                gateway.port,
                "POST",
                "/admin/reload",
                {"synthetic": {"seed": 7, "n_services": 10,
                               "n_formats": 6, "n_nodes": 6}},
            )
            _, health = await request(gateway.port, "GET", "/health")
            _, plan = await request(gateway.port, "POST", "/plan", {})
            return (status, payload), health, plan

        reload_result, health, plan = run_against_gateway(scenario)
        assert reload_result[0] == 200
        assert health["open"] == ["S1"]  # breakers survive catalog swaps
        assert plan["status"] in ("ok", "degraded")
        assert "S1" not in plan["path"]


class TestLoadgenRetries:
    def test_schedule_is_a_pure_function_of_seed_and_index(self):
        config = LoadgenConfig(retries=4, seed=11)
        first = _retry_schedule(config, 3)
        second = _retry_schedule(config, 3)
        assert first == second
        assert len(first) == 4
        assert all(delay > 0 for delay in first)
        assert all(delay <= loadgen.RETRY_BACKOFF_MAX_S for delay in first)
        # Distinct requests back off on distinct jitter streams.
        assert _retry_schedule(config, 4) != first
        assert (
            _retry_schedule(LoadgenConfig(retries=4, seed=12), 3) != first
        )

    def test_attempts_and_retry_after_are_outside_the_digest(self):
        base = RequestOutcome(0, 200, "ok", True, ("sender",), 1.0, 5.0)
        retried = RequestOutcome(
            0, 200, "ok", True, ("sender",), 1.0, 9.0,
            attempts=3, retry_after_s=0.5,
        )
        assert base.digest_key() == retried.digest_key()

    def test_invalid_retry_settings_raise(self):
        with pytest.raises(ValidationError):
            asyncio.run(
                run_loadgen(SCENARIO, LoadgenConfig(retries=-1))
            )
        with pytest.raises(ValidationError):
            asyncio.run(
                run_loadgen(
                    SCENARIO,
                    LoadgenConfig(retries=1, retry_backoff_s=0.0),
                )
            )

    def test_retries_recover_shed_requests_against_rate_limit(
        self, monkeypatch
    ):
        monkeypatch.setattr(loadgen, "RETRY_BACKOFF_MAX_S", 0.2)

        async def scenario():
            gateway = PlanningGateway(
                SCENARIO,
                GatewayConfig(
                    port=0, workers=2, rate_per_s=30.0, burst=2.0
                ),
            )
            await gateway.start()
            try:
                base = dict(
                    port=gateway.port,
                    requests=12,
                    rate_per_s=400.0,
                    deadline_ms=2_000.0,
                    seed=5,
                )
                single = await run_loadgen(
                    SCENARIO, LoadgenConfig(**base)
                )
                retrying = await run_loadgen(
                    SCENARIO,
                    LoadgenConfig(
                        **base,
                        retries=3,
                        retry_backoff_s=0.02,
                    ),
                )
                return single, retrying
            finally:
                await gateway.drain()

        single, retrying = asyncio.run(scenario())
        # The burst of 12 at ~400/s against a bucket of 2 + 30/s refill
        # must shed without retries; with retries it recovers sheds.
        assert single.shed > 0
        assert single.retried == 0
        assert retrying.retried > 0
        assert retrying.retry_attempts >= retrying.retried
        assert retrying.completed > single.completed
        assert retrying.exhausted <= retrying.retried
        document = retrying.to_dict()["metrics"]
        assert document["retried"] == retrying.retried
        assert document["retry_attempts"] == retrying.retry_attempts
        assert document["exhausted"] == retrying.exhausted
        summary = retrying.summary()
        assert "retried" in summary


def _tiered_scenario():
    """Hardware tiers plus a ``force_tier hw`` rule for one device class."""
    scenario = generate_scenario(
        SyntheticConfig(seed=7, n_services=12, n_formats=8, n_nodes=8,
                        hw_tier_fraction=0.5)
    )
    scenario.policy = PolicyDocument(
        name="pin-hw",
        rules=(
            PolicyRule(rule_id="pinned", action="force_tier", tier="hw",
                       predicates=(DeviceIn(("pinned-device",)),)),
        ),
    )
    device = scenario.device
    pinned = DeviceProfile(
        device_id="pinned-device",
        decoders=list(device.decoders),
        max_resolution=device.max_resolution,
        max_color_depth=device.max_color_depth,
        max_frame_rate=device.max_frame_rate,
    )
    return scenario, pinned


class TestQuarantineAcrossAnswerKinds:
    """Tier-forced and group answers also plan around OPEN services and
    never reuse an answer cached before the breaker tripped."""

    def test_forced_tier_and_group_answers_mask_the_quarantine(self):
        scenario, pinned = _tiered_scenario()
        plan_body = {"device": profile_to_dict(pinned), "deadline_ms": 2000}
        group_body = {
            "receivers": [
                {"class_id": "pinned", "device": profile_to_dict(pinned)}
            ] + [
                {"class_id": f"class-{i}", "device": profile_to_dict(variant)}
                for i, variant in enumerate(device_variants(scenario.device, 2))
            ],
            "deadline_ms": 5000,
        }

        async def run():
            gateway = PlanningGateway(scenario, gateway_config())
            await gateway.start()
            try:
                port = gateway.port
                before = [
                    (await request(port, "POST", "/plan", plan_body))[1]
                    for _ in range(2)
                ]
                group_before = [
                    (await request(port, "POST", "/plan-group", group_body))[1]
                    for _ in range(2)
                ]
                victim = next(
                    sid for sid in before[0]["path"]
                    if sid not in ("sender", "receiver")
                )
                await report(port, failures(victim))
                health = (await request(port, "GET", "/health"))[1]
                after = [
                    (await request(port, "POST", "/plan", plan_body))[1]
                    for _ in range(2)
                ]
                group_after = [
                    (await request(port, "POST", "/plan-group", group_body))[1]
                    for _ in range(2)
                ]
                return victim, health, before, group_before, after, group_after
            finally:
                await gateway.drain()

        victim, health, before, group_before, after, group_after = asyncio.run(
            run()
        )
        # Before the trip: the forced-tier answer and the tree both route
        # through the victim, and both are cached.
        assert before[0]["forced_tier"] == "hw"
        assert scenario.catalog.get(victim).tier == "hw"
        assert [p["cache_hit"] for p in before] == [False, True]
        assert any(victim in b["path"] for b in group_before[0]["branches"])
        assert [g["cache_hit"] for g in group_before] == [False, True]
        assert health["open"] == [victim]
        # After the trip: neither answer uses the OPEN service, and
        # neither comes from the pre-trip cache.
        for payload in after:
            assert victim not in payload["path"]
            assert payload["status"] in ("ok", "degraded")
        assert after[0]["cache_hit"] is False
        if after[0]["status"] == "ok":
            assert after[0]["forced_tier"] == "hw"
            assert after[1]["cache_hit"] is True
        for payload in group_after:
            for branch in payload["branches"]:
                assert victim not in branch["path"]
        assert group_after[0]["cache_hit"] is False
        assert group_after[1]["cache_hit"] is True
        assert (
            group_after[0]["tree"]["digest"]
            != group_before[0]["tree"]["digest"]
        )
