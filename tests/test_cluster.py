"""Lifecycle tests for the multi-process gateway cluster.

Each test forks a real 2-worker cluster inside ``asyncio.run`` (this
repo has no pytest-asyncio) and exercises the supervisor's contract over
actual sockets and pipes: merged metrics, reload fan-out, crash
restarts, drain completeness, and shard-affinity routing.  Request
volumes are kept small — the point is the process choreography, not
throughput (that's ``benchmarks/bench_cluster.py``).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from collections import Counter

import pytest

from repro.errors import GatewayError
from repro.policy import DeviceIn, PolicyDocument, PolicyRule, policy_to_dict
from repro.profiles.device import DeviceProfile
from repro.profiles.serialization import profile_to_dict
from repro.serve import cluster
from repro.serve.cluster import ClusterConfig, ClusterSupervisor
from repro.serve.gateway import GatewayConfig
from repro.serve.health import HealthConfig
from repro.serve.http11 import read_response, render_request
from repro.serve.loadgen import LoadgenConfig, _request_bodies, run_loadgen
from repro.serve.protocol import encode_payload
from repro.serve.sharding import shard_owner
from repro.workloads.io import save_scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

SCENARIO = generate_scenario(
    SyntheticConfig(seed=7, n_services=10, n_formats=6, n_nodes=6)
)


async def request(port, method, path, payload=None, headers=None):
    """One raw round-trip; returns (status, decoded body, headers)."""
    body = encode_payload(payload) if payload is not None else b""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            render_request(method, path, body, headers=headers,
                           keep_alive=False)
        )
        await writer.drain()
        response = await asyncio.wait_for(read_response(reader), timeout=15.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    decoded = json.loads(response.body) if response.body else {}
    return response.status, decoded, response.headers


def run_with_cluster(
    coro_factory, workers=2, scenario_path=None, **gateway_overrides
):
    """Boot a cluster, run ``coro_factory(supervisor)``, always drain."""
    gateway_defaults = dict(port=0, workers=2)
    gateway_defaults.update(gateway_overrides)

    async def scenario():
        supervisor = ClusterSupervisor(
            SCENARIO,
            gateway_config=GatewayConfig(**gateway_defaults),
            cluster_config=ClusterConfig(workers=workers, admin_port=0),
            scenario_path=scenario_path,
        )
        await supervisor.start()
        try:
            return await coro_factory(supervisor)
        finally:
            await supervisor.drain()

    return asyncio.run(scenario())


async def worker_entries(supervisor):
    _, document, _ = await request(supervisor.admin_port, "GET", "/cluster")
    return {entry["worker_id"]: entry for entry in document["workers"]}


class TestTopology:
    def test_every_worker_serves_its_private_port(self):
        async def scenario(supervisor):
            entries = await worker_entries(supervisor)
            assert set(entries) == {0, 1}
            for worker_id, entry in entries.items():
                assert entry["alive"] and entry["ready"]
                assert entry["port"] == supervisor.port
                status, payload, headers = await request(
                    entry["private_port"], "POST", "/plan", {}
                )
                assert status == 200
                assert payload["status"] == "ok"
                assert headers["x-worker-id"] == str(worker_id)

        run_with_cluster(scenario)

    def test_shared_port_answers_with_worker_identity(self):
        async def scenario(supervisor):
            seen = set()
            for _ in range(8):
                status, _, headers = await request(
                    supervisor.port, "POST", "/plan", {}
                )
                assert status == 200
                seen.add(headers.get("x-worker-id"))
            # The kernel decides the spread; every answer must carry a
            # valid identity even if one worker took the whole burst.
            assert seen <= {"0", "1"} and seen

        run_with_cluster(scenario)

    def test_readyz_and_healthz(self):
        async def scenario(supervisor):
            status, payload, _ = await request(
                supervisor.admin_port, "GET", "/readyz"
            )
            assert (status, payload["status"]) == (200, "ready")
            status, payload, _ = await request(
                supervisor.admin_port, "GET", "/healthz"
            )
            assert (status, payload["alive"]) == (200, 2)

        run_with_cluster(scenario)

    def test_rejects_zero_workers(self):
        with pytest.raises(GatewayError):
            ClusterSupervisor(
                SCENARIO, cluster_config=ClusterConfig(workers=0)
            )

    def test_boot_failure_aborts_cleanly(self):
        # Occupy a port, then point the admin server at it: start() must
        # raise, terminate the already-forked workers, and leave no
        # callback crashing on the loop afterwards (the sentinel readers
        # fire after the abort has already detached the control pipes).
        import socket as socket_module

        async def scenario():
            blocker = socket_module.socket()
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            loop = asyncio.get_running_loop()
            crashes = []
            loop.set_exception_handler(
                lambda _loop, context: crashes.append(context)
            )
            supervisor = ClusterSupervisor(
                SCENARIO,
                gateway_config=GatewayConfig(port=0, workers=2),
                cluster_config=ClusterConfig(
                    workers=2, admin_port=blocker.getsockname()[1]
                ),
            )
            try:
                with pytest.raises(OSError):
                    await supervisor.start()
                # Let the pending sentinel-reader callbacks run.
                await asyncio.sleep(0.3)
            finally:
                blocker.close()
                loop.set_exception_handler(None)
            assert crashes == []
            for handle in supervisor._handles.values():
                assert not handle.alive
                assert handle.process is None or not handle.process.is_alive()

        asyncio.run(scenario())


class TestMergedMetrics:
    def test_counters_sum_and_histograms_merge_across_workers(self):
        async def scenario(supervisor):
            entries = await worker_entries(supervisor)
            for entry in entries.values():
                for _ in range(3):
                    await request(entry["private_port"], "POST", "/plan", {})
            status, document, _ = await request(
                supervisor.admin_port, "GET", "/metrics"
            )
            assert status == 200
            assert document["section"] == "cluster"
            metrics = document["metrics"]
            assert metrics["scraped"] == 2
            assert metrics["counters"]["received"] == 6
            assert metrics["counters"]["planned"] == 6
            assert metrics["latency_ms"]["count"] == 6
            assert metrics["worker_restarts"] == 0
            assert metrics["generations"] == {"0": 1, "1": 1}
            # Each worker cached its (identical) fingerprint privately:
            # one miss per worker, the rest hits — shared-nothing caches.
            assert metrics["cache"]["misses"] == 2
            assert metrics["cache"]["hits"] == 4

        run_with_cluster(scenario)

    def test_final_drain_document_merges_every_worker(self):
        async def scenario(supervisor):
            for _ in range(4):
                await request(supervisor.port, "POST", "/plan", {})
            final = await supervisor.drain()
            assert final["section"] == "cluster"
            assert final["metrics"]["counters"]["received"] == 4
            assert final["metrics"]["alive"] == 0
            assert final["metrics"]["draining"] is True
            return final

        run_with_cluster(scenario)


class TestReloadFanout:
    def test_admin_reload_reaches_every_worker(self):
        async def scenario(supervisor):
            body = {"synthetic": {"seed": 9, "n_services": 8,
                                  "n_formats": 5, "n_nodes": 5}}
            status, summary, _ = await request(
                supervisor.admin_port, "POST", "/admin/reload", body
            )
            assert status == 200
            assert summary["status"] == "reloaded"
            assert summary["generations"] == {"0": 2, "1": 2}
            entries = await worker_entries(supervisor)
            assert {e["generation"] for e in entries.values()} == {2}
            # The new world actually serves.
            status, payload, _ = await request(
                supervisor.port, "POST", "/plan", {}
            )
            assert status == 200
            assert payload["generation"] == 2

        run_with_cluster(scenario)

    def test_policy_reload_converges_without_a_scenario_generation(self):
        document = PolicyDocument(
            name="fleet-policy",
            rules=(
                PolicyRule(rule_id="blocked", action="deny",
                           predicates=(DeviceIn(("banned-device",)),),
                           reason="blocked fleet-wide"),
            ),
        )
        banned = DeviceProfile(
            device_id="banned-device",
            decoders=list(SCENARIO.device.decoders),
            max_resolution=SCENARIO.device.max_resolution,
            max_color_depth=SCENARIO.device.max_color_depth,
            max_frame_rate=SCENARIO.device.max_frame_rate,
        )

        async def scenario(supervisor):
            status, summary, _ = await request(
                supervisor.admin_port, "POST", "/admin/reload",
                policy_to_dict(document),
            )
            assert status == 200
            assert summary["status"] == "reloaded"
            # A policy-only swap does not mint a scenario generation.
            assert summary["generations"] == {"0": 1, "1": 1}
            entries = await worker_entries(supervisor)
            for entry in entries.values():
                _, payload, _ = await request(
                    entry["private_port"], "GET", "/policy"
                )
                assert payload["policy"] == "fleet-policy"
                assert payload["policy_generation"] == 1
                # The swapped rules actually gate planning everywhere.
                status, denied, _ = await request(
                    entry["private_port"], "POST", "/plan",
                    {"device": profile_to_dict(banned)},
                )
                assert status == 403
                assert denied["rule"] == "blocked"

        run_with_cluster(scenario)

    def test_malformed_reload_is_one_400_and_no_fanout(self):
        async def scenario(supervisor):
            status, payload, _ = await request(
                supervisor.admin_port, "POST", "/admin/reload",
                {"synthetic": {"seed": "seven"}},
            )
            assert status == 400
            assert payload["status"] == "invalid"
            entries = await worker_entries(supervisor)
            assert {e["generation"] for e in entries.values()} == {1}

        run_with_cluster(scenario)

    def test_sighup_style_path_reload_reaches_every_worker(self, tmp_path):
        path = str(tmp_path / "world.json")
        save_scenario(SCENARIO, path)

        async def scenario(supervisor):
            # The SIGHUP handler's body, minus the signal delivery (the
            # CI smoke exercises the real signal through the CLI).
            await supervisor._broadcast_reload_path()
            entries = await worker_entries(supervisor)
            assert {e["generation"] for e in entries.values()} == {2}

        run_with_cluster(scenario, scenario_path=path)


class TestCrashRecovery:
    def test_killed_worker_restarts_and_is_counted(self):
        async def scenario(supervisor):
            entries = await worker_entries(supervisor)
            victim = entries[0]
            os.kill(victim["pid"], signal.SIGKILL)
            deadline = asyncio.get_running_loop().time() + 15.0
            while asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.05)
                entries = await worker_entries(supervisor)
                replacement = entries[0]
                if (
                    replacement["alive"]
                    and replacement["ready"]
                    and replacement["pid"] != victim["pid"]
                ):
                    break
            else:
                raise AssertionError("worker 0 never came back")
            assert replacement["restarts"] == 1
            assert supervisor.worker_restarts == 1
            status, document, _ = await request(
                supervisor.admin_port, "GET", "/metrics"
            )
            assert document["metrics"]["worker_restarts"] == 1
            # The replacement serves on a fresh private port.
            status, _, headers = await request(
                replacement["private_port"], "POST", "/plan", {}
            )
            assert status == 200
            assert headers["x-worker-id"] == "0"

        run_with_cluster(scenario)

    def test_restarts_stop_once_draining(self):
        async def scenario(supervisor):
            final = await supervisor.drain()
            assert final["metrics"]["worker_restarts"] == 0
            await asyncio.sleep(0.3)
            assert supervisor.worker_restarts == 0

        run_with_cluster(scenario)


class TestDrain:
    def test_inflight_request_is_answered_during_drain(self):
        async def scenario(supervisor):
            inflight = asyncio.create_task(
                request(supervisor.port, "POST", "/plan",
                        {"deadline_ms": 5000})
            )
            await asyncio.sleep(0.1)
            final = await supervisor.drain()
            status, payload, _ = await inflight
            assert status == 200
            assert payload["status"] == "ok"
            assert final["metrics"]["counters"]["planned"] == 1

        run_with_cluster(scenario, service_floor_ms=300.0)


class TestShardAffinity:
    def test_affinity_distribution_matches_the_ring(self):
        """Each affinity-routed request lands on its ``shard_owner``."""

        async def scenario(supervisor):
            config = LoadgenConfig(
                port=supervisor.port,
                requests=60,
                rate_per_s=500.0,
                seed=3,
                distinct=8,
                deadline_ms=2000.0,
                shard_affinity=True,
                admin_port=supervisor.admin_port,
            )
            report = await run_loadgen(SCENARIO, config)
            assert report.failed == 0
            assert report.completed == 60
            hints = [hint for _, hint in _request_bodies(SCENARIO, config)]
            predicted = dict(
                Counter(str(shard_owner(hint, supervisor.workers))
                        for hint in hints)
            )
            assert report.worker_distribution() == predicted
            # Every hinted request landed on its shard owner.
            status, document, _ = await request(
                supervisor.admin_port, "GET", "/metrics"
            )
            counters = document["metrics"]["counters"]
            assert counters["shard_hits"] == 60
            assert counters["shard_misses"] == 0
            return report

        run_with_cluster(scenario)

    def test_same_seed_affinity_runs_have_identical_digests(self):
        async def scenario(supervisor):
            config = LoadgenConfig(
                port=supervisor.port,
                requests=40,
                rate_per_s=500.0,
                seed=11,
                distinct=8,
                deadline_ms=2000.0,
                shard_affinity=True,
                admin_port=supervisor.admin_port,
            )
            first = await run_loadgen(SCENARIO, config)
            second = await run_loadgen(SCENARIO, config)
            assert first.failed == 0 and second.failed == 0
            assert first.outcome_digest() == second.outcome_digest()
            assert (
                first.worker_distribution() == second.worker_distribution()
            )

        run_with_cluster(scenario)

    def test_hints_without_affinity_are_metered_not_required(self):
        async def scenario(supervisor):
            # A hinted request on the shared port lands wherever the
            # kernel sends it; the worker meters hit or miss but always
            # answers correctly.
            status, payload, _ = await request(
                supervisor.port, "POST", "/plan", {},
                headers={"x-shard-hint": "some-device-class"},
            )
            assert status == 200
            assert payload["status"] == "ok"
            _, document, _ = await request(
                supervisor.admin_port, "GET", "/metrics"
            )
            counters = document["metrics"]["counters"]
            assert counters["shard_hits"] + counters["shard_misses"] == 1

        run_with_cluster(scenario)


class TestHealthPropagation:
    HEALTH = HealthConfig(min_samples=3, cooldown_s=300.0, seed=1)

    async def _poll_open(self, port, victim, path="/health"):
        document = {}
        deadline = asyncio.get_running_loop().time() + 15.0
        while asyncio.get_running_loop().time() < deadline:
            _, document, _ = await request(port, "GET", path)
            if victim in document.get("open", []):
                return document
            await asyncio.sleep(0.05)
        raise AssertionError(f"{victim} never opened at port {port}")

    def test_one_worker_report_converges_cluster_wide(self):
        async def scenario(supervisor):
            entries = await worker_entries(supervisor)
            victim = "S1"
            status, payload, _ = await request(
                entries[0]["private_port"], "POST", "/report",
                {"client": "t",
                 "outcomes": [{"service": victim, "success": False}] * 8},
            )
            assert status == 200
            assert payload["open"] == [victim]
            # The parent's merged view converges over the control pipe...
            parent = await self._poll_open(supervisor.admin_port, victim)
            assert parent["open"] == [victim]
            assert parent["services"][victim]["state"] == "open"
            assert parent["services"][victim]["worker_id"] == 0
            # ...and the relay reaches the worker that never saw a
            # failure, which now plans around the quarantined service.
            peer = await self._poll_open(entries[1]["private_port"], victim)
            assert peer["services"][victim]["state"] == "open"
            status, plan, _ = await request(
                entries[1]["private_port"], "POST", "/plan", {}
            )
            assert status == 200
            assert plan["status"] in ("ok", "degraded")
            assert victim not in plan["path"]
            # Every tracked breaker is OPEN, so the parent tells load
            # balancers to route around the whole cluster.
            status, ready, _ = await request(
                supervisor.admin_port, "GET", "/readyz"
            )
            assert status == 503
            assert ready["status"] == "degraded"

        run_with_cluster(scenario, health=self.HEALTH)

    def test_restarted_worker_receives_replayed_quarantine(self):
        async def scenario(supervisor):
            entries = await worker_entries(supervisor)
            victim = "S2"
            await request(
                entries[0]["private_port"], "POST", "/report",
                {"client": "t",
                 "outcomes": [{"service": victim, "success": False}] * 8},
            )
            await self._poll_open(supervisor.admin_port, victim)
            old_pid = entries[1]["pid"]
            os.kill(old_pid, signal.SIGKILL)
            deadline = asyncio.get_running_loop().time() + 15.0
            while asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.05)
                entries = await worker_entries(supervisor)
                replacement = entries[1]
                if (
                    replacement["alive"]
                    and replacement["ready"]
                    and replacement["pid"] != old_pid
                ):
                    break
            else:
                raise AssertionError("worker 1 never came back")
            # The replacement booted with empty breakers; the replay on
            # "ready" must hand it the cluster's quarantine view.
            replayed = await self._poll_open(
                replacement["private_port"], victim
            )
            assert replayed["services"][victim]["state"] == "open"

        run_with_cluster(scenario, health=self.HEALTH)


class TestReloadTimeout:
    def test_sigstopped_worker_times_out_instead_of_stalling(
        self, monkeypatch
    ):
        async def scenario(supervisor):
            entries = await worker_entries(supervisor)
            victim_pid = entries[0]["pid"]
            body = {"synthetic": {"seed": 9, "n_services": 8,
                                  "n_formats": 5, "n_nodes": 5}}
            os.kill(victim_pid, signal.SIGSTOP)
            reload_task = asyncio.create_task(
                request(supervisor.admin_port, "POST", "/admin/reload",
                        body)
            )
            # While the fan-out hangs on the stopped worker, the parent
            # stays responsive and reports itself not-ready.
            await asyncio.sleep(0.3)
            ready_status, ready, _ = await request(
                supervisor.admin_port, "GET", "/readyz"
            )
            status, summary, _ = await reload_task
            assert ready_status == 503
            assert ready["status"] == "reloading"
            assert status == 500
            assert summary["status"] == "partial"
            by_worker = {
                entry["worker_id"]: entry for entry in summary["workers"]
            }
            assert by_worker[0]["status"] == "timeout"
            assert "no acknowledgement" in by_worker[0]["detail"]
            assert by_worker[1]["status"] == "ok"
            # After the partial reload the fan-out window is closed
            # again; the healthy worker serves the new generation.
            status, plan, _ = await request(
                entries[1]["private_port"], "POST", "/plan", {}
            )
            assert status == 200
            assert plan["generation"] == 2
            # The victim stays SIGSTOPped: drain (in the harness
            # ``finally``) must still complete via SIGKILL escalation.

        monkeypatch.setattr(cluster, "RELOAD_TIMEOUT_S", 1.0)
        monkeypatch.setattr(cluster, "DRAIN_MARGIN_S", 0.3)
        run_with_cluster(scenario, drain_grace_s=0.2)
