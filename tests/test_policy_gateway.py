"""End-to-end tests for the policy pass at the serving gateway.

Boots a real gateway whose scenario embeds a policy document covering
all three actions, then exercises ``GET /policy``, the zero-hop
``policy_skip`` answers, 403 denials, tier-forced planning, hot policy
swaps over ``/admin/reload``, and the loadgen ``policy_mix`` report.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

from repro.planner import BatchPlanner
from repro.policy import (
    Decodes,
    DeviceIn,
    PolicyDocument,
    PolicyRule,
    policy_to_dict,
)
from repro.profiles.device import DeviceProfile
from repro.profiles.serialization import profile_to_dict
from repro.runtime.session import AdaptationSession
from repro.serve.gateway import GatewayConfig, PlanningGateway
from repro.serve.http11 import read_response, render_request
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.protocol import encode_payload
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


def _scenario():
    scenario = generate_scenario(
        SyntheticConfig(seed=7, n_services=12, n_formats=8, n_nodes=8,
                        hw_tier_fraction=0.5)
    )
    source = scenario.content.format_names()[0]
    scenario.policy = PolicyDocument(
        name="gateway-policy",
        rules=(
            PolicyRule(rule_id="banned", action="deny",
                       predicates=(DeviceIn(("banned-device",)),),
                       reason="device class is blocked"),
            PolicyRule(rule_id="pinned", action="force_tier", tier="hw",
                       predicates=(DeviceIn(("pinned-device",)),)),
            PolicyRule(rule_id="native", action="skip",
                       predicates=(Decodes(source),), tolerance=0.05),
        ),
    )
    return scenario, source


SCENARIO, SOURCE = _scenario()


def _device(device_id, decoders):
    return DeviceProfile(
        device_id=device_id,
        decoders=decoders,
        max_resolution=SCENARIO.device.max_resolution,
        max_color_depth=SCENARIO.device.max_color_depth,
        max_frame_rate=SCENARIO.device.max_frame_rate,
    )


COMPATIBLE = _device("compat-device",
                     [SOURCE] + list(SCENARIO.device.decoders))
BANNED = _device("banned-device", list(SCENARIO.device.decoders))
PINNED = _device("pinned-device", list(SCENARIO.device.decoders))


async def request(port, method, path, payload=None):
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


def run_against_gateway(coro_factory, scenario=None, **config_overrides):
    defaults = dict(port=0, workers=2)
    defaults.update(config_overrides)

    async def boot():
        gateway = PlanningGateway(
            scenario if scenario is not None else SCENARIO,
            GatewayConfig(**defaults),
        )
        await gateway.start()
        try:
            return await coro_factory(gateway)
        finally:
            await gateway.drain()

    return asyncio.run(boot())


class TestPolicyEndpoint:
    def test_get_policy_reports_document_and_stats(self):
        async def scenario(gateway):
            return await request(gateway.port, "GET", "/policy")

        status, payload = run_against_gateway(scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["policy"] == "gateway-policy"
        assert payload["policy_generation"] == 0
        assert payload["rules"] == 3
        assert payload["document"]["document"] == "repro-policy"
        assert [r["rule_id"] for r in payload["document"]["rules"]] == [
            "banned", "pinned", "native",
        ]

    def test_get_policy_without_a_document(self):
        plain = generate_scenario(
            SyntheticConfig(seed=7, n_services=10, n_formats=6, n_nodes=6)
        )

        async def scenario(gateway):
            return await request(gateway.port, "GET", "/policy")

        status, payload = run_against_gateway(scenario, scenario=plain)
        assert status == 200
        assert payload["policy"] is None
        assert payload["document"] is None


class TestPolicyPlanPaths:
    def test_skip_answers_zero_hop_with_trace_and_counter(self):
        async def scenario(gateway):
            body = {"device": profile_to_dict(COMPATIBLE)}
            first = await request(gateway.port, "POST", "/plan", body)
            second = await request(gateway.port, "POST", "/plan", body)
            metrics = await request(gateway.port, "GET", "/metrics")
            return first, second, metrics

        first, second, metrics = run_against_gateway(scenario)
        status, payload = first
        assert status == 200
        assert payload["status"] == "policy_skip"
        assert payload["success"] is True
        assert payload["path"] == ["sender", "receiver"]
        assert payload["formats"] == [SOURCE]
        assert payload["cost"] == 0.0
        assert payload["rule"] == "native"
        assert any("native" in line for line in payload["policy_trace"])
        assert payload["cache_hit"] is False
        assert second[1]["cache_hit"] is True
        counters = metrics[1]["metrics"]["counters"]
        assert counters["policy_fast_path"] == 2
        # Fast-path answers never run the selector, so they do not count
        # as planned (mirrors how degraded answers are counted).
        assert counters["planned"] == 0

    def test_deny_is_403_with_rule_and_reason(self):
        async def scenario(gateway):
            body = {"device": profile_to_dict(BANNED)}
            response = await request(gateway.port, "POST", "/plan", body)
            metrics = await request(gateway.port, "GET", "/metrics")
            return response, metrics

        (status, payload), metrics = run_against_gateway(scenario)
        assert status == 403
        assert payload["status"] == "denied"
        assert payload["rule"] == "banned"
        assert "blocked" in payload["detail"]
        assert metrics[1]["metrics"]["counters"]["policy_denied"] == 1

    def test_force_tier_plans_and_labels_the_answer(self):
        async def scenario(gateway):
            body = {"device": profile_to_dict(PINNED), "deadline_ms": 2000}
            response = await request(gateway.port, "POST", "/plan", body)
            metrics = await request(gateway.port, "GET", "/metrics")
            return response, metrics

        (status, payload), metrics = run_against_gateway(scenario)
        assert status == 200
        assert payload["status"] in ("ok", "infeasible")
        assert payload["policy_rule"] == "pinned"
        assert payload["forced_tier"] == "hw"
        counters = metrics[1]["metrics"]["counters"]
        assert counters["policy_tier_forced"] == 1
        assert counters["planned"] == 1  # tier-forced answers DO plan
        if payload["status"] == "ok":
            for service_id in payload["path"]:
                if service_id in ("sender", "receiver"):
                    continue
                assert SCENARIO.catalog.get(service_id).tier == "hw"

    def test_unmatched_device_takes_the_selector_path(self):
        async def scenario(gateway):
            return await request(gateway.port, "POST", "/plan", {})

        status, payload = run_against_gateway(scenario)
        assert status == 200
        assert payload["status"] == "ok"  # base device matches no rule


class TestAnsweredOnTheLoop:
    """Skips, denies and plan-cache hits never wait for a planning thread."""

    def test_only_selector_runs_reach_a_planning_thread(self, monkeypatch):
        selector_threads = []
        session_plan = AdaptationSession.plan

        def recording_plan(self, *args, **kwargs):
            selector_threads.append(threading.get_ident())
            return session_plan(self, *args, **kwargs)

        monkeypatch.setattr(AdaptationSession, "plan", recording_plan)

        async def scenario(gateway):
            submitted = []
            run_planning = gateway._run_planning

            def counting_run_planning(selector):
                submitted.append(selector)
                return run_planning(selector)

            gateway._run_planning = counting_run_planning
            compatible = {"device": profile_to_dict(COMPATIBLE)}
            answers = [
                await request(gateway.port, "POST", "/plan", {}),
                await request(gateway.port, "POST", "/plan", {}),
                await request(gateway.port, "POST", "/plan", compatible),
                await request(gateway.port, "POST", "/plan", compatible),
                await request(gateway.port, "POST", "/plan",
                              {"device": profile_to_dict(BANNED)}),
            ]
            metrics = await request(gateway.port, "GET", "/metrics")
            return threading.get_ident(), answers, len(submitted), metrics

        loop_thread, answers, submitted, metrics = run_against_gateway(
            scenario
        )
        miss, hit, skip, warm_skip, deny = answers
        assert miss[0] == hit[0] == skip[0] == warm_skip[0] == 200
        assert (miss[1]["cache_hit"], hit[1]["cache_hit"]) == (False, True)
        assert skip[1]["status"] == warm_skip[1]["status"] == "policy_skip"
        assert deny[0] == 403 and deny[1]["status"] == "denied"
        assert submitted == 1  # the one miss
        assert len(selector_threads) == 1
        assert loop_thread not in selector_threads
        counters = metrics[1]["metrics"]["counters"]
        assert counters["policy_denied"] == 1
        assert counters["policy_fast_path"] == 2

    def test_loop_answers_are_padded_to_the_service_floor(self):
        async def scenario(gateway):
            await request(gateway.port, "POST", "/plan", {})
            timed = []
            for body in ({}, {"device": profile_to_dict(COMPATIBLE)}):
                started = time.perf_counter()
                status, payload = await request(
                    gateway.port, "POST", "/plan", body
                )
                timed.append((status, payload, time.perf_counter() - started))
            return timed

        hit, skip = run_against_gateway(scenario, service_floor_ms=50.0)
        assert hit[0] == 200 and hit[1]["cache_hit"] is True
        assert skip[0] == 200 and skip[1]["status"] == "policy_skip"
        assert hit[2] >= 0.05
        assert skip[2] >= 0.05

    def test_probe_overrunning_the_deadline_releases_its_thread(
        self, monkeypatch
    ):
        # The probe runs on the loop, so a slow one can spend the whole
        # budget before the selector is submitted; the planning job is
        # then cancelled, possibly before any thread took it, and its
        # claim on the pool must still be given back.  Holding the pool's
        # one thread keeps the job queued, so the cancel always finds it
        # pending.
        slow = [True]
        probe = BatchPlanner.probe

        def slow_probe(self, *args, **kwargs):
            result = probe(self, *args, **kwargs)
            if callable(result) and slow[0]:
                time.sleep(0.1)
            return result

        monkeypatch.setattr(BatchPlanner, "probe", slow_probe)

        async def scenario(gateway):
            held = threading.Event()
            gateway._executor.submit(held.wait, 5.0)
            overrun = await request(gateway.port, "POST", "/plan",
                                    {"deadline_ms": 40})
            slow[0] = False
            held.set()
            for _ in range(200):
                with gateway._executor_lock:
                    if gateway._executor_outstanding == 0:
                        break
                await asyncio.sleep(0.01)
            with gateway._executor_lock:
                outstanding = gateway._executor_outstanding
            recovered = await request(gateway.port, "POST", "/plan",
                                      {"device": profile_to_dict(PINNED)})
            return overrun, outstanding, recovered

        overrun, outstanding, recovered = run_against_gateway(
            scenario, workers=1
        )
        assert overrun[0] == 504 and overrun[1]["status"] == "timeout"
        assert outstanding == 0
        assert recovered[0] == 200 and recovered[1]["cache_hit"] is False

    def test_saturated_pool_answers_hits_and_sheds_misses(self):
        async def scenario(gateway):
            await request(gateway.port, "POST", "/plan", {})
            with gateway._executor_lock:
                gateway._executor_outstanding = gateway.config.workers
            hit = await request(gateway.port, "POST", "/plan", {})
            skip = await request(gateway.port, "POST", "/plan",
                                 {"device": profile_to_dict(COMPATIBLE)})
            miss = await request(gateway.port, "POST", "/plan",
                                 {"device": profile_to_dict(PINNED)})
            with gateway._executor_lock:
                gateway._executor_outstanding = 0
            metrics = await request(gateway.port, "GET", "/metrics")
            return hit, skip, miss, metrics

        hit, skip, miss, metrics = run_against_gateway(scenario)
        assert hit[0] == 200 and hit[1]["cache_hit"] is True
        assert skip[0] == 200 and skip[1]["status"] == "policy_skip"
        assert miss[0] == 429 and miss[1]["status"] == "shed"
        assert metrics[1]["metrics"]["counters"]["shed_busy"] == 1


class TestHotPolicySwap:
    def test_reload_swaps_policy_without_flushing_plan_cache(self):
        async def scenario(gateway):
            # Prime both caches: one selector plan, one fast-path answer.
            await request(gateway.port, "POST", "/plan", {})
            await request(gateway.port, "POST", "/plan",
                          {"device": profile_to_dict(COMPATIBLE)})
            swap_body = policy_to_dict(PolicyDocument(name="tightened"))
            status, summary = await request(
                gateway.port, "POST", "/admin/reload", swap_body
            )
            after_policy = await request(gateway.port, "GET", "/policy")
            # The selector plan cache survives a policy-only swap...
            replan = await request(gateway.port, "POST", "/plan", {})
            # ...while the old fast-path answer is gone: the compatible
            # device now runs the selector (empty document).
            compat = await request(gateway.port, "POST", "/plan",
                                   {"device": profile_to_dict(COMPATIBLE)})
            metrics = await request(gateway.port, "GET", "/metrics")
            return status, summary, after_policy, replan, compat, metrics

        status, summary, after_policy, replan, compat, metrics = (
            run_against_gateway(scenario)
        )
        assert status == 200
        assert summary["status"] == "reloaded"
        assert summary["policy"] == "tightened"
        assert summary["policy_generation"] == 1
        assert summary["generation"] == 1  # scenario generation unchanged
        # Both primed decisions are cached (the base device caches a
        # "none" decision alongside the compatible device's "skip").
        assert summary["invalidated"] == 2
        assert after_policy[1]["policy"] == "tightened"
        assert replan[1]["cache_hit"] is True
        assert compat[1]["status"] == "ok"
        assert metrics[1]["metrics"]["counters"]["reloads"] == 1

    def test_swapping_the_same_rules_back_restores_fast_path(self):
        async def scenario(gateway):
            await request(gateway.port, "POST", "/admin/reload",
                          policy_to_dict(PolicyDocument(name="off")))
            off = await request(gateway.port, "POST", "/plan",
                                {"device": profile_to_dict(COMPATIBLE)})
            await request(gateway.port, "POST", "/admin/reload",
                          policy_to_dict(SCENARIO.policy))
            back = await request(gateway.port, "POST", "/plan",
                                 {"device": profile_to_dict(COMPATIBLE)})
            return off, back

        off, back = run_against_gateway(scenario)
        assert off[1]["status"] == "ok"
        assert back[1]["status"] == "policy_skip"

    def test_malformed_policy_body_is_400_and_keeps_the_old_policy(self):
        async def scenario(gateway):
            bad = {"document": "repro-policy", "version": 1, "name": "x",
                   "rules": [{"rule_id": "r", "action": "frobnicate"}]}
            status, payload = await request(
                gateway.port, "POST", "/admin/reload", bad
            )
            policy = await request(gateway.port, "GET", "/policy")
            return status, payload, policy

        status, payload, policy = run_against_gateway(scenario)
        assert status == 400
        assert payload["status"] == "invalid"
        assert "frobnicate" in payload["detail"]
        assert policy[1]["policy"] == "gateway-policy"


class TestLoadgenPolicyMix:
    def test_policy_mix_report_splits_latency_by_path(self):
        async def scenario(gateway):
            config = LoadgenConfig(
                port=gateway.port, requests=40, rate_per_s=400.0,
                seed=3, distinct=8, deadline_ms=2000.0, policy_mix=0.7,
            )
            return await run_loadgen(SCENARIO, config)

        report = run_against_gateway(scenario)
        assert report.completed == 40
        assert report.policy_fast_path > 0
        assert 0.0 < report.policy_fast_path_rate <= 1.0
        document = report.to_dict()
        policy_section = document["metrics"]["policy"]
        assert policy_section["mix"] == 0.7
        assert policy_section["fast_path"] == report.policy_fast_path
        assert set(policy_section["latency_ms"]) == {"fast_path", "selector"}
        assert "policy fast path" in report.summary()

    def test_same_seed_campaigns_share_a_digest(self):
        async def scenario(gateway):
            config = LoadgenConfig(
                port=gateway.port, requests=30, rate_per_s=400.0,
                seed=11, distinct=8, deadline_ms=2000.0, policy_mix=0.5,
            )
            first = await run_loadgen(SCENARIO, config)
            second = await run_loadgen(SCENARIO, config)
            return first, second

        first, second = run_against_gateway(scenario)
        assert first.outcome_digest() == second.outcome_digest()
