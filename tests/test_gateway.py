"""End-to-end tests for the asyncio planning gateway.

Each test boots a real :class:`~repro.serve.gateway.PlanningGateway` on an
ephemeral port inside ``asyncio.run`` (this repo has no pytest-asyncio)
and speaks actual HTTP/1.1 to it through the shared codec.  The load
tests use the ``service_floor_ms`` knob so saturation is a function of
configuration, not of how fast the host machine plans.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.profiles.serialization import profile_to_dict
from repro.serve import (
    GatewayConfig,
    LoadgenConfig,
    PlanningGateway,
    run_loadgen,
)
from repro.serve.health import HealthConfig
from repro.serve.http11 import read_response, render_request
from repro.serve.protocol import encode_payload
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

SCENARIO = generate_scenario(
    SyntheticConfig(seed=7, n_services=10, n_formats=6, n_nodes=6)
)


def gateway_config(**overrides) -> GatewayConfig:
    defaults = dict(port=0, workers=2)
    defaults.update(overrides)
    return GatewayConfig(**defaults)


async def request(
    port: int,
    method: str,
    path: str,
    payload=None,
    keep_alive: bool = False,
):
    """One raw round-trip; returns (status, decoded body, headers)."""
    body = encode_payload(payload) if payload is not None else b""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(render_request(method, path, body, keep_alive=keep_alive))
        await writer.drain()
        response = await asyncio.wait_for(read_response(reader), timeout=10.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    decoded = json.loads(response.body) if response.body else {}
    return response.status, decoded, response.headers


def run_against_gateway(coro_factory, **config_overrides):
    """Boot a gateway, run ``coro_factory(gateway)``, always drain."""

    async def scenario():
        gateway = PlanningGateway(SCENARIO, gateway_config(**config_overrides))
        await gateway.start()
        try:
            return await coro_factory(gateway)
        finally:
            await gateway.drain()

    return asyncio.run(scenario())


class TestPlanEndpoint:
    def test_plan_succeeds_and_caches(self):
        async def scenario(gateway):
            first = await request(gateway.port, "POST", "/plan", {})
            second = await request(gateway.port, "POST", "/plan", {})
            return first, second

        first, second = run_against_gateway(scenario)
        status, payload, _ = first
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["success"] is True
        assert payload["path"]
        assert payload["generation"] == 1
        assert payload["cache_hit"] is False
        assert second[1]["cache_hit"] is True

    def test_inline_device_profile_is_honored(self):
        async def scenario(gateway):
            body = {"device": profile_to_dict(SCENARIO.device),
                    "deadline_ms": 2000}
            return await request(gateway.port, "POST", "/plan", body)

        status, payload, _ = run_against_gateway(scenario)
        assert status == 200
        assert payload["status"] in ("ok", "infeasible")

    def test_malformed_body_is_400(self):
        async def scenario(gateway):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(render_request("POST", "/plan", b"not json",
                                        keep_alive=False))
            await writer.drain()
            response = await read_response(reader)
            writer.close()
            return response.status, json.loads(response.body)

        status, payload = run_against_gateway(scenario)
        assert status == 400
        assert payload["status"] == "invalid"

    def test_mistyped_nested_profile_fields_are_400(self):
        # Valid JSON whose nested profile fields carry the wrong types used
        # to escape decode_plan_request as AttributeError/TypeError and
        # kill the connection task without a response.
        async def scenario(gateway):
            bad = {
                "user": {
                    "profile": "user",
                    "user_id": "u",
                    "combiner": "minimum",
                    "preferences": [],
                },
                "content": None,
            }
            first = await request(gateway.port, "POST", "/plan", bad)
            bad_content = {
                "content": {"profile": "content", "content_id": "c",
                            "variants": 5}
            }
            second = await request(gateway.port, "POST", "/plan", bad_content)
            # The gateway must still serve after both rejections.
            after = await request(gateway.port, "POST", "/plan", {})
            metrics = await request(gateway.port, "GET", "/metrics")
            return first, second, after, metrics

        first, second, after, metrics = run_against_gateway(scenario)
        assert first[0] == second[0] == 400
        assert first[1]["status"] == second[1]["status"] == "invalid"
        assert after[0] == 200
        counters = metrics[1]["metrics"]["counters"]
        assert counters["invalid"] == 2
        assert counters["errors"] == 0

    def test_dispatch_crash_is_answered_500_not_dropped(self):
        # Anything the typed error paths miss must still produce a
        # response: the connection handler's catch-all meters it and
        # answers 500.
        async def scenario(gateway):
            original = gateway._dispatch

            async def exploding_dispatch(request):
                raise RuntimeError("forced failure")

            gateway._dispatch = exploding_dispatch
            crashed = await request(gateway.port, "GET", "/healthz")
            del gateway.__dict__["_dispatch"]
            assert gateway._dispatch.__func__ is original.__func__
            after = await request(gateway.port, "GET", "/healthz")
            metrics = await request(gateway.port, "GET", "/metrics")
            return crashed, after, metrics

        crashed, after, metrics = run_against_gateway(scenario)
        assert crashed[0] == 500
        assert crashed[1]["status"] == "error"
        assert "RuntimeError" in crashed[1]["detail"]
        assert after[0] == 200
        assert metrics[1]["metrics"]["counters"]["errors"] == 1

    def test_unknown_route_404_and_wrong_method_405(self):
        async def scenario(gateway):
            missing = await request(gateway.port, "GET", "/nope")
            wrong = await request(gateway.port, "GET", "/plan")
            return missing[0], wrong[0]

        assert run_against_gateway(scenario) == (404, 405)

    def test_http_garbage_gets_400_not_a_crash(self):
        async def scenario(gateway):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(b"COMPLETE GARBAGE\r\n\r\n")
            await writer.drain()
            response = await read_response(reader)
            writer.close()
            # The gateway must still serve after the bad connection.
            after = await request(gateway.port, "GET", "/healthz")
            return response.status, after[0]

        assert run_against_gateway(scenario) == (400, 200)

    def test_keep_alive_serves_multiple_requests(self):
        async def scenario(gateway):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            statuses = []
            for _ in range(3):
                writer.write(render_request("POST", "/plan",
                                            encode_payload({})))
                await writer.drain()
                response = await read_response(reader)
                statuses.append(response.status)
            writer.close()
            return statuses

        assert run_against_gateway(scenario) == [200, 200, 200]


class TestAdmission:
    def test_rate_limited_client_gets_429_with_retry_after(self):
        async def scenario(gateway):
            outcomes = []
            for _ in range(4):
                outcomes.append(
                    await request(gateway.port, "POST", "/plan",
                                  {"client": "greedy", "deadline_ms": 2000})
                )
            return outcomes

        outcomes = run_against_gateway(
            scenario, rate_per_s=0.001, burst=2, workers=1
        )
        statuses = [status for status, _, _ in outcomes]
        assert statuses[:2] == [200, 200]
        assert statuses[2] == statuses[3] == 429
        _, payload, headers = outcomes[2]
        assert payload["status"] == "rate_limited"
        assert float(headers["retry-after"]) > 0

    def test_queue_overflow_sheds_429(self):
        async def scenario(gateway):
            tasks = [
                asyncio.create_task(
                    request(gateway.port, "POST", "/plan",
                            {"deadline_ms": 2000})
                )
                for _ in range(10)
            ]
            return await asyncio.gather(*tasks)

        outcomes = run_against_gateway(
            scenario, workers=1, queue_depth=2, service_floor_ms=50.0
        )
        statuses = sorted(status for status, _, _ in outcomes)
        assert 429 in statuses  # some were shed at the bounded queue
        assert 200 in statuses  # and the gateway kept serving the rest
        shed = next(p for s, p, _ in outcomes if s == 429)
        assert shed["status"] == "shed"

    @pytest.mark.parametrize("path", ["/plan", "/plan-group"],
                             ids=["plan", "plan-group"])
    def test_saturated_planner_pool_sheds_instead_of_queueing(self, path):
        # A planning thread abandoned past its deadline cannot be
        # cancelled; while such work saturates the pool, new submissions
        # of either kind are shed (429 shed_busy) instead of queueing
        # invisibly inside the executor, and serving resumes once the
        # pool frees up.
        body = (
            {"receivers": TestPlanGroupEndpoint._receivers(2),
             "deadline_ms": 5000}
            if path == "/plan-group"
            else {}
        )

        async def scenario(gateway):
            with gateway._executor_lock:
                gateway._executor_outstanding = gateway.config.workers
            shed = await request(gateway.port, "POST", path,
                                 {"deadline_ms": 2000, **body})
            with gateway._executor_lock:
                gateway._executor_outstanding = 0
            recovered = await request(gateway.port, "POST", path, body)
            metrics = await request(gateway.port, "GET", "/metrics")
            return shed, recovered, metrics

        shed, recovered, metrics = run_against_gateway(scenario, workers=1)
        status, payload, headers = shed
        assert status == 429
        assert payload["status"] == "shed"
        assert float(headers["retry-after"]) > 0
        assert recovered[0] == 200
        assert metrics[1]["metrics"]["counters"]["shed_busy"] == 1

    def test_deadline_expiry_in_queue_is_504(self):
        async def scenario(gateway):
            tasks = [
                asyncio.create_task(
                    request(gateway.port, "POST", "/plan",
                            {"deadline_ms": 40})
                )
                for _ in range(8)
            ]
            return await asyncio.gather(*tasks)

        outcomes = run_against_gateway(
            scenario, workers=1, queue_depth=64, service_floor_ms=60.0
        )
        statuses = [status for status, _, _ in outcomes]
        assert 504 in statuses
        timed_out = next(p for s, p, _ in outcomes if s == 504)
        assert timed_out["status"] == "timeout"


class TestOperationalEndpoints:
    def test_healthz_readyz_metrics(self):
        async def scenario(gateway):
            await request(gateway.port, "POST", "/plan", {})
            health = await request(gateway.port, "GET", "/healthz")
            ready = await request(gateway.port, "GET", "/readyz")
            metrics = await request(gateway.port, "GET", "/metrics")
            return health, ready, metrics

        health, ready, metrics = run_against_gateway(scenario)
        assert health[0] == ready[0] == metrics[0] == 200
        assert health[1]["status"] == "alive"
        assert ready[1]["status"] == "ready"
        document = metrics[1]
        assert document["schema"] == "repro.metrics/1"
        assert document["section"] == "gateway"
        counters = document["metrics"]["counters"]
        assert counters["received"] == 1
        assert counters["planned"] == 1
        assert document["metrics"]["latency_ms"]["count"] == 1

    def test_metrics_counters_track_every_outcome_class(self):
        async def scenario(gateway):
            await request(gateway.port, "POST", "/plan", {})
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(render_request("POST", "/plan", b"broken",
                                        keep_alive=False))
            await writer.drain()
            await read_response(reader)
            writer.close()
            await request(gateway.port, "GET", "/nope")
            metrics = await request(gateway.port, "GET", "/metrics")
            return metrics[1]["metrics"]["counters"]

        counters = run_against_gateway(scenario)
        assert counters["planned"] == 1
        assert counters["invalid"] == 1
        assert counters["connections"] >= 3


class TestHotSwap:
    def test_reload_bumps_generation_and_clears_cache(self):
        async def scenario(gateway):
            before = await request(gateway.port, "POST", "/plan", {})
            reload_body = {
                "synthetic": {"seed": 11, "n_services": 6, "n_formats": 5,
                              "n_nodes": 4}
            }
            reloaded = await request(gateway.port, "POST", "/admin/reload",
                                     reload_body)
            after = await request(gateway.port, "POST", "/plan", {})
            metrics = await request(gateway.port, "GET", "/metrics")
            return before, reloaded, after, metrics

        before, reloaded, after, metrics = run_against_gateway(scenario)
        assert before[1]["generation"] == 1
        assert reloaded[0] == 200
        assert reloaded[1]["status"] == "reloaded"
        assert reloaded[1]["generation"] == 2
        assert reloaded[1]["invalidated"] >= 1
        # Plans after the swap come from the new world: generation 2 and a
        # cold cache (the old entry was for the old scenario anyway).
        assert after[1]["generation"] == 2
        assert after[1]["cache_hit"] is False
        assert metrics[1]["metrics"]["counters"]["reloads"] == 1

    def test_swap_scenario_api_is_atomic_per_request(self):
        replacement = generate_scenario(
            SyntheticConfig(seed=20, n_services=6, n_formats=5, n_nodes=4)
        )

        async def scenario(gateway):
            summary = gateway.swap_scenario(replacement)
            response = await request(gateway.port, "POST", "/plan", {})
            return summary, response

        summary, response = run_against_gateway(scenario)
        assert summary["generation"] == 2
        assert response[1]["generation"] == 2

    def test_reload_rejects_malformed_bodies(self):
        async def scenario(gateway):
            bad_json = await request(gateway.port, "POST", "/admin/reload",
                                     {"synthetic": {"seed": 1, "bogus": 2}})
            not_a_doc = await request(gateway.port, "POST", "/admin/reload",
                                      {"unrelated": True})
            still_up = await request(gateway.port, "POST", "/plan", {})
            return bad_json[0], not_a_doc[0], still_up[0]

        assert run_against_gateway(scenario) == (400, 400, 200)


class TestDrain:
    def test_drain_answers_everything_and_reports_metrics(self):
        async def scenario():
            gateway = PlanningGateway(SCENARIO, gateway_config())
            await gateway.start()
            port = gateway.port
            served = await request(port, "POST", "/plan", {})
            final = await gateway.drain()
            assert gateway.draining
            return served, final

        served, final = asyncio.run(scenario())
        assert served[0] == 200
        assert final["schema"] == "repro.metrics/1"
        assert final["metrics"]["draining"] is True
        assert final["metrics"]["counters"]["planned"] == 1
        assert final["metrics"]["queue_depth"] == 0

    def test_metrics_document_works_after_the_loop_exits(self):
        # Inspecting a gateway after asyncio.run returned must not touch
        # asyncio.get_event_loop() (warns/raises without a running loop);
        # uptime comes from the loop start() pinned.
        async def scenario():
            gateway = PlanningGateway(SCENARIO, gateway_config())
            await gateway.start()
            await request(gateway.port, "POST", "/plan", {})
            await gateway.drain()
            return gateway

        gateway = asyncio.run(scenario())
        document = gateway.metrics_document()
        assert document["schema"] == "repro.metrics/1"
        assert document["metrics"]["uptime_s"] >= 0.0
        assert document["metrics"]["counters"]["planned"] == 1
        # A never-started gateway reports zero uptime rather than raising.
        cold = PlanningGateway(SCENARIO, gateway_config())
        assert cold.metrics_document()["metrics"]["uptime_s"] == 0.0

    def test_draining_gateway_rejects_new_plans_503(self):
        async def scenario():
            gateway = PlanningGateway(SCENARIO, gateway_config())
            await gateway.start()
            port = gateway.port
            # Open a keep-alive connection before the listener closes.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            drain_task = asyncio.create_task(gateway.drain())
            await asyncio.sleep(0.05)  # listener now closed, draining set
            writer.write(render_request("POST", "/plan", encode_payload({})))
            await writer.drain()
            response = await read_response(reader)
            writer.close()
            await drain_task
            return response.status, json.loads(response.body)

        status, payload = asyncio.run(scenario())
        assert status == 503
        assert payload["status"] == "draining"

    def test_drain_closes_idle_keep_alive_connections(self):
        # From Python 3.12 on, Server.wait_closed() also waits for open
        # connections: drain must close an idle keep-alive client itself
        # instead of waiting for it to hang up.
        async def scenario():
            gateway = PlanningGateway(SCENARIO, gateway_config())
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            try:
                writer.write(render_request("GET", "/healthz"))
                await writer.drain()
                served = await read_response(reader)
                final = await asyncio.wait_for(gateway.drain(), timeout=10.0)
                closed = await asyncio.wait_for(reader.read(), timeout=5.0)
            finally:
                writer.close()
            return served, final, closed

        served, final, closed = asyncio.run(scenario())
        assert served.status == 200
        assert served.headers["connection"] == "keep-alive"
        assert final["metrics"]["draining"] is True
        assert closed == b""

    def test_drain_answers_queued_and_overrunning_requests_503(self):
        # One slot, an 800 ms service floor and a 0.1 s grace: the first
        # request is still planning when the grace ends, the other two
        # never left the queue.  Every one of them is answered.
        async def scenario():
            gateway = PlanningGateway(
                SCENARIO,
                gateway_config(
                    workers=1, service_floor_ms=800, drain_grace_s=0.1
                ),
            )
            await gateway.start()
            calls = [
                asyncio.create_task(
                    request(gateway.port, "POST", "/plan", {"deadline_ms": 5000})
                )
                for _ in range(3)
            ]
            for _ in range(200):
                metrics = gateway.metrics_document()["metrics"]
                if metrics["inflight"] == 1 and metrics["queue_depth"] == 2:
                    break
                await asyncio.sleep(0.01)
            final = await gateway.drain()
            answers = await asyncio.gather(*calls)
            return answers, final["metrics"]

        answers, metrics = asyncio.run(scenario())
        assert [status for status, _, _ in answers] == [503, 503, 503]
        assert all(payload["status"] == "draining" for _, payload, _ in answers)
        queued = [
            payload
            for _, payload, _ in answers
            if payload.get("detail") == "gateway drained before planning"
        ]
        assert len(queued) == 2
        assert metrics["counters"]["rejected_draining"] == 2
        assert metrics["queue_depth"] == 0
        assert metrics["inflight"] == 0

    def test_request_drain_unblocks_run(self):
        async def scenario():
            gateway = PlanningGateway(SCENARIO, gateway_config())
            run_task = asyncio.create_task(
                gateway.run(install_signals=False)
            )
            for _ in range(100):
                await asyncio.sleep(0.01)
                try:
                    gateway.port
                    break
                except Exception:
                    continue
            served = await request(gateway.port, "POST", "/plan", {})
            gateway.request_drain()
            final = await asyncio.wait_for(run_task, timeout=10.0)
            return served, final

        served, final = asyncio.run(scenario())
        assert served[0] == 200
        assert final["metrics"]["counters"]["planned"] == 1


class TestLoadgenDeterminism:
    LOADGEN = dict(requests=30, rate_per_s=300.0, seed=9, distinct=6)

    def run_campaign(self):
        async def scenario():
            gateway = PlanningGateway(SCENARIO, gateway_config())
            await gateway.start()
            try:
                return await run_loadgen(
                    SCENARIO, LoadgenConfig(port=gateway.port, **self.LOADGEN)
                )
            finally:
                await gateway.drain()

        return asyncio.run(scenario())

    def test_same_seed_fresh_daemons_identical_outcomes(self):
        first = self.run_campaign()
        second = self.run_campaign()
        assert first.outcome_digest() == second.outcome_digest()
        assert [o.digest_key() for o in first.outcomes] == [
            o.digest_key() for o in second.outcomes
        ]

    def test_report_accounting_is_consistent(self):
        report = self.run_campaign()
        assert report.requests == 30
        assert report.completed == 30
        assert report.failed == 0
        assert report.client_failures == 0
        percentiles = report.latency_percentiles()
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]
        document = report.to_dict()
        assert document["schema"] == "repro.metrics/1"
        assert document["section"] == "loadgen"
        assert document["metrics"]["outcome_digest"] == report.outcome_digest()
        assert "outcome digest:" in report.summary()

    def test_different_seed_changes_the_arrival_process(self):
        # Outcomes may coincide, but the request bodies/offsets are a pure
        # function of the seed — verify the campaign plumbing honors it.
        base = self.run_campaign()
        assert base.rate_per_s == 300.0
        assert base.seed == 9

    def test_standalone_gateway_reports_no_worker_distribution(self):
        report = self.run_campaign()
        assert report.worker_distribution() == {}
        assert "per worker" not in report.summary()


class TestLoadgenGroupMode:
    GROUP = dict(
        requests=12, rate_per_s=300.0, seed=9, distinct=8, group_size=4,
        deadline_ms=5000.0,
    )

    def run_campaign(self, **overrides):
        options = dict(self.GROUP)
        options.update(overrides)

        async def scenario():
            gateway = PlanningGateway(SCENARIO, gateway_config())
            await gateway.start()
            try:
                return await run_loadgen(
                    SCENARIO, LoadgenConfig(port=gateway.port, **options)
                )
            finally:
                await gateway.drain()

        return asyncio.run(scenario())

    def test_group_campaign_serves_and_reports(self):
        report = self.run_campaign()
        assert report.completed == 12
        assert report.group_size == 4
        served = [o for o in report.outcomes if o.status == 200]
        assert all(len(o.class_satisfactions) == 4 for o in served)
        percentiles = report.class_satisfaction_percentiles()
        assert percentiles["p10"] <= percentiles["p50"] <= percentiles["p95"]
        document = report.to_dict()
        group = document["metrics"]["group"]
        assert group["size"] == 4
        assert group["saved_bps_total"] >= 0.0
        assert "class satisfaction:" in report.summary()
        assert "bandwidth saved:" in report.summary()

    def test_same_seed_identical_group_outcomes(self):
        first = self.run_campaign()
        second = self.run_campaign()
        assert first.outcome_digest() == second.outcome_digest()

    def test_group_size_cannot_exceed_distinct(self):
        with pytest.raises(Exception) as excinfo:
            self.run_campaign(group_size=16)
        assert "cannot exceed distinct" in str(excinfo.value)

    def test_per_session_reports_omit_the_group_block(self):
        report = self.run_campaign(group_size=0)
        assert "group" not in report.to_dict()["metrics"]
        assert "class satisfaction" not in report.summary()


class TestWorkerIdentity:
    """A gateway configured as a cluster member stamps and meters."""

    def test_worker_id_header_on_every_response_class(self):
        async def scenario(gateway):
            plan = await request(gateway.port, "POST", "/plan", {})
            metrics = await request(gateway.port, "GET", "/metrics")
            missing = await request(gateway.port, "GET", "/nope")
            return plan, metrics, missing

        responses = run_against_gateway(
            scenario, worker_id=3, cluster_size=4
        )
        for status, _, headers in responses:
            assert headers["x-worker-id"] == "3"

    def test_standalone_gateway_adds_no_identity(self):
        async def scenario(gateway):
            return await request(gateway.port, "POST", "/plan", {})

        _, _, headers = run_against_gateway(scenario)
        assert "x-worker-id" not in headers

    def test_protocol_error_response_carries_identity(self):
        async def scenario(gateway):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(b"BOGUS\r\n\r\n")
            await writer.drain()
            response = await read_response(reader)
            writer.close()
            return response

        response = run_against_gateway(scenario, worker_id=1, cluster_size=2)
        assert response.status == 400
        assert response.headers["x-worker-id"] == "1"

    def test_hinted_requests_meter_hits_and_misses(self):
        from repro.serve import ShardRouter

        router = ShardRouter.for_cluster(2)
        owned = next(
            f"hint-{i}" for i in range(100) if router.route(f"hint-{i}") == 0
        )
        foreign = next(
            f"hint-{i}" for i in range(100) if router.route(f"hint-{i}") == 1
        )

        async def scenario(gateway):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            for hint in (owned, owned, foreign):
                writer.write(
                    render_request(
                        "POST", "/plan", encode_payload({}),
                        headers={"x-shard-hint": hint},
                    )
                )
                await writer.drain()
                await read_response(reader)
            writer.close()
            return gateway.metrics.counters

        counters = run_against_gateway(scenario, worker_id=0, cluster_size=2)
        assert counters["shard_hits"] == 2
        assert counters["shard_misses"] == 1

    def test_unhinted_requests_meter_nothing(self):
        async def scenario(gateway):
            await request(gateway.port, "POST", "/plan", {})
            return gateway.metrics.counters

        counters = run_against_gateway(scenario, worker_id=0, cluster_size=2)
        assert counters["shard_hits"] == 0
        assert counters["shard_misses"] == 0

    def test_private_port_serves_the_same_dispatch(self):
        async def scenario(gateway):
            assert gateway.private_port is not None
            assert gateway.private_port != gateway.port
            plan = await request(gateway.private_port, "POST", "/plan", {})
            metrics = await request(gateway.private_port, "GET", "/metrics")
            return plan, metrics

        plan, metrics = run_against_gateway(scenario, worker_id=0, cluster_size=2)
        assert plan[0] == 200
        assert metrics[0] == 200
        assert metrics[1]["metrics"]["worker_id"] == 0


class TestPlanGroupEndpoint:
    """``POST /plan-group``: shared adaptation trees over the wire."""

    @staticmethod
    def _receivers(n, sessions=1):
        from repro.planner import device_variants

        return [
            {
                "class_id": f"class-{i}",
                "device": profile_to_dict(variant),
                "sessions": sessions,
            }
            for i, variant in enumerate(
                device_variants(SCENARIO.device, n)
            )
        ]

    def test_group_plans_and_caches(self):
        async def scenario(gateway):
            body = {"receivers": self._receivers(4, sessions=5),
                    "deadline_ms": 5000}
            first = await request(gateway.port, "POST", "/plan-group", body)
            second = await request(gateway.port, "POST", "/plan-group", body)
            return first, second, dict(gateway.metrics.counters)

        first, second, counters = run_against_gateway(scenario)
        status, payload, _ = first
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["success"] is True
        assert payload["degraded"] is False
        assert payload["classes"] == 4
        assert payload["sessions"] == 20
        assert len(payload["branches"]) == 4
        assert payload["fallbacks"] == []
        assert payload["tree"]["edges"] >= 1
        assert payload["cache_hit"] is False
        assert second[1]["cache_hit"] is True
        assert second[1]["tree"]["digest"] == payload["tree"]["digest"]
        assert counters["groups"] == 2
        assert counters["group_sessions"] == 40
        assert counters["group_branches"] == 8
        assert counters["group_fallbacks"] == 0

    def test_duplicate_receivers_are_400(self):
        async def scenario(gateway):
            receivers = self._receivers(2)
            dup = {"receivers": receivers + [receivers[0]]}
            return await request(gateway.port, "POST", "/plan-group", dup)

        status, payload, _ = run_against_gateway(scenario)
        assert status == 400
        assert payload["status"] == "invalid"
        assert "duplicate receiver class" in payload["detail"]

    def test_missing_and_empty_receivers_are_400(self):
        async def scenario(gateway):
            missing = await request(gateway.port, "POST", "/plan-group", {})
            empty = await request(
                gateway.port, "POST", "/plan-group", {"receivers": []}
            )
            return missing, empty

        missing, empty = run_against_gateway(scenario)
        assert missing[0] == 400
        assert "receivers" in missing[1]["detail"]
        assert empty[0] == 400

    def test_top_level_device_is_400(self):
        async def scenario(gateway):
            body = {
                "receivers": self._receivers(2),
                "device": profile_to_dict(SCENARIO.device),
            }
            return await request(gateway.port, "POST", "/plan-group", body)

        status, payload, _ = run_against_gateway(scenario)
        assert status == 400
        assert "receivers" in payload["detail"]

    def test_get_is_405(self):
        async def scenario(gateway):
            return await request(gateway.port, "GET", "/plan-group")

        status, _, _ = run_against_gateway(scenario)
        assert status == 405

    def test_infeasible_class_is_a_fallback_not_an_error(self):
        async def scenario(gateway):
            receivers = self._receivers(2)
            receivers.append({
                "class_id": "zz-brick",
                "device": {
                    "profile": "device",
                    "device_id": "brick",
                    "decoders": ["no-such-codec"],
                },
            })
            return await request(
                gateway.port, "POST", "/plan-group",
                {"receivers": receivers, "deadline_ms": 5000},
            )

        status, payload, _ = run_against_gateway(scenario)
        assert status == 200
        assert payload["success"] is True
        assert len(payload["branches"]) == 2
        assert [f["class_id"] for f in payload["fallbacks"]] == ["zz-brick"]
        assert payload["fallbacks"][0]["reason"]

    def test_hot_swap_invalidates_group_trees(self):
        async def scenario(gateway):
            body = {"receivers": self._receivers(3), "deadline_ms": 5000}
            first = await request(gateway.port, "POST", "/plan-group", body)
            gateway.swap_scenario(SCENARIO)
            second = await request(gateway.port, "POST", "/plan-group", body)
            return first, second

        first, second = run_against_gateway(scenario)
        assert first[1]["generation"] == 1
        assert second[1]["generation"] == 2
        assert second[1]["cache_hit"] is False

    def test_overrun_under_health_is_504_never_degraded(self):
        # Under health a /plan overrun degrades to a passthrough; a class
        # set has no passthrough, so a /plan-group overrun stays a 504.
        async def scenario(gateway):
            group = gateway._state.group
            plan = group.plan_with_cache_info

            def slow_plan(group_request, view=None):
                time.sleep(0.3)
                return plan(group_request, view)

            group.plan_with_cache_info = slow_plan
            answer = await request(
                gateway.port, "POST", "/plan-group",
                {"receivers": self._receivers(2), "deadline_ms": 100},
            )
            return answer, dict(gateway.metrics.counters)

        (status, payload, _), counters = run_against_gateway(
            scenario, health=HealthConfig()
        )
        assert status == 504
        assert payload["status"] == "timeout"
        assert counters["timeouts"] == 1
        assert counters.get("degraded", 0) == 0
