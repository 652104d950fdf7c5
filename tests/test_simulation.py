"""End-to-end tests for the multi-session fault-injection simulator."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.graph import CatalogView
from repro.errors import UnknownNodeError, ValidationError
from repro.sim import (
    FlashCrowd,
    LinkDegradation,
    PoissonArrivals,
    RegionalOutage,
    ServiceCrash,
    SimulationConfig,
    SimulationRun,
    SimWorld,
    UniformArrivals,
    build_scenario,
    percentile,
    run_simulation,
    scenario_names,
)
from repro.sim.report import ABORTED, COMPLETED, REJECTED, TRUNCATED
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


@pytest.fixture(scope="module")
def small_scenario():
    return generate_scenario(
        SyntheticConfig(seed=5, n_services=12, n_formats=8, n_nodes=8, extra_links=6)
    )


@pytest.fixture(scope="module")
def chain_scenario():
    """No extra decoders: every feasible chain runs through the backbone."""
    return generate_scenario(
        SyntheticConfig(
            seed=5,
            n_services=12,
            n_formats=8,
            n_nodes=8,
            extra_links=6,
            extra_decoders=0,
        )
    )


def small_config(small_scenario, **overrides):
    defaults = dict(
        scenario=small_scenario,
        name="test",
        seed=11,
        sessions=12,
        arrivals=UniformArrivals(over_s=20.0),
        session_duration_s=10.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestDeterminism:
    def test_same_seed_same_digest_and_report(self, small_scenario):
        first = run_simulation(small_config(small_scenario))
        second = run_simulation(small_config(small_scenario))
        assert first.trace_digest == second.trace_digest
        assert first.to_dict() == second.to_dict()
        assert first.to_json() == second.to_json()

    def test_different_seed_different_trace(self, small_scenario):
        a = run_simulation(
            small_config(small_scenario, arrivals=PoissonArrivals(0.5), seed=1)
        )
        b = run_simulation(
            small_config(small_scenario, arrivals=PoissonArrivals(0.5), seed=2)
        )
        assert a.trace_digest != b.trace_digest

    def test_named_scenarios_deterministic(self):
        for name in scenario_names():
            r1 = run_simulation(build_scenario(name, seed=3, sessions=10))
            r2 = run_simulation(build_scenario(name, seed=3, sessions=10))
            assert r1.trace_digest == r2.trace_digest, name

    def test_faults_change_the_trace(self):
        with_faults = run_simulation(
            build_scenario("failover-storm", seed=3, sessions=10)
        )
        without = run_simulation(
            build_scenario("failover-storm", seed=3, sessions=10, faults=False)
        )
        assert with_faults.trace_digest != without.trace_digest


#: Trace digests of every campaign at ``seed=7, sessions=40``.  At this
#: size the runs exercise all three planning masks: crashed services in
#: ``failover-storm``, breaker quarantine in ``gray-failure`` and
#: ``force_tier`` rules in ``policy-mix``.  Any change to how planning
#: masks the catalog must leave every digest bit-identical.
PINNED_CAMPAIGN_DIGESTS = {
    "steady": "d2c6df4653661441db3d59a4e4bc183136072f02781edb836f64d8e59b874f09",
    "flash-crowd": "d092f00afa8c4eff7db4391bc9b380f7efb397e58446ec13b1557ab37ea4df98",
    "failover-storm": "73c1681f23426b9d96bfd70cf23dd9fccb4e14deac047deb4adb770818d8deeb",
    "link-churn": "5bdceebfe7fbec99e221aaed56791ae433bfd1ffaae5de717e9477946250f659",
    "gray-failure": "e4432eff77a272df7076751f0e183e5260159af50b7484fbd5e6332d4ae065e8",
    "live-event": "ea4a6e2bde8c37316edb4bb1e0d5c0db6c90a72a5d30668c969ed19065287e21",
    "policy-mix": "af78c4987e72992c4954ec46f53369775f44832a790181b45a4fcb2d7b4e9c91",
}


def test_pinned_campaign_digests_cover_every_scenario():
    assert sorted(PINNED_CAMPAIGN_DIGESTS) == sorted(scenario_names())


@pytest.mark.parametrize("name", sorted(PINNED_CAMPAIGN_DIGESTS))
def test_campaign_digest_pinned(name):
    report = run_simulation(build_scenario(name, seed=7, sessions=40))
    assert report.trace_digest == PINNED_CAMPAIGN_DIGESTS[name]


class TestSteadyState:
    def test_uncontended_sessions_complete(self, small_scenario):
        report = run_simulation(small_config(small_scenario, sessions=6))
        assert report.sessions == 6
        assert report.completed + report.rejected == 6
        assert report.completed >= 1
        for outcome in report.outcomes:
            if outcome.state == COMPLETED:
                assert outcome.mean_satisfaction > 0.0
                assert outcome.stall_s == 0.0

    def test_outcomes_sorted_by_session_id(self, small_scenario):
        report = run_simulation(small_config(small_scenario))
        ids = [o.session_id for o in report.outcomes]
        assert ids == sorted(ids)

    def test_contention_rejects_at_admission(self, small_scenario):
        # Cram everyone into the same instant: capacity runs out and the
        # ledger-aware admission path must reject the overflow, not crash.
        report = run_simulation(
            small_config(
                small_scenario,
                sessions=60,
                arrivals=UniformArrivals(over_s=0.0),
            )
        )
        assert report.sessions == 60
        assert report.rejected > 0
        assert report.admitted + report.rejected == 60


class TestFaults:
    def test_service_crash_interrupts_and_recovers(self, chain_scenario):
        # Crash every backbone service mid-stream: every chain runs
        # through them (the device only decodes the backbone's output), so
        # live sessions must interrupt, replan or stall, and the run must
        # finish without an exception.
        backbone = [
            d.service_id
            for d in chain_scenario.catalog
            if d.service_id.startswith("S")
        ]
        faults = tuple(
            ServiceCrash(sid, start_s=4.0, downtime_s=6.0) for sid in backbone
        )
        report = run_simulation(
            small_config(
                chain_scenario,
                sessions=8,
                arrivals=UniformArrivals(over_s=2.0),
                session_duration_s=20.0,
                faults=faults,
            )
        )
        assert report.sessions == 8
        interruptions = sum(o.interruptions for o in report.outcomes)
        assert interruptions > 0
        # Once the services recover, sessions that lasted long enough
        # rejoin and finish.
        assert report.total_replans > 0 or report.total_failed_replans > 0

    def test_no_feasible_alternative_degrades_gracefully(self, small_scenario):
        """Mid-stream total outage with no alternative: sessions must end
        as aborted/abandoned/rejected with recorded events — never an
        uncaught exception."""
        nodes = [
            n
            for n in small_scenario.topology.node_ids()
            if n not in (small_scenario.sender_node, small_scenario.receiver_node)
        ]
        faults = (RegionalOutage(nodes=nodes, start_s=3.0, duration_s=60.0),)
        report = run_simulation(
            small_config(
                small_scenario,
                sessions=6,
                arrivals=UniformArrivals(over_s=1.0),
                session_duration_s=15.0,
                faults=faults,
            )
        )
        assert report.sessions == 6
        for outcome in report.outcomes:
            assert outcome.state in (
                COMPLETED,
                ABORTED,
                REJECTED,
                TRUNCATED,
                "abandoned",
            )
        # The dead middle of the network shows up as failures, not crashes.
        assert (
            report.total_failed_replans
            + report.abandoned_count
            + report.aborted
            + report.rejected
            > 0
        )

    def test_link_degradation_restores(self, small_scenario):
        world_probe = SimWorld(small_scenario)
        link = small_scenario.topology.links()[0]
        config = small_config(
            small_scenario,
            sessions=4,
            faults=(
                LinkDegradation(
                    link.a, link.b, start_s=2.0, duration_s=5.0, factor=0.0
                ),
            ),
        )
        run = SimulationRun(config)
        run.execute()
        # After the fault window the overlay must be clean again.
        assert run.world.effective_capacity(link) == link.bandwidth_bps
        assert world_probe.effective_capacity(link) == link.bandwidth_bps

    def test_flash_crowd_adds_sessions(self, small_scenario):
        report = run_simulation(
            small_config(
                small_scenario,
                sessions=5,
                faults=(FlashCrowd(start_s=5.0, sessions=7, over_s=2.0),),
            )
        )
        assert report.sessions == 12

    def test_fault_validation(self):
        with pytest.raises(ValidationError):
            LinkDegradation("a", "b", start_s=0.0, duration_s=0.0)
        with pytest.raises(ValidationError):
            LinkDegradation("a", "b", start_s=0.0, duration_s=1.0, factor=2.0)
        with pytest.raises(ValidationError):
            ServiceCrash("S1", start_s=0.0, downtime_s=-1.0)
        with pytest.raises(ValidationError):
            RegionalOutage(nodes=[], start_s=0.0, duration_s=1.0)
        with pytest.raises(ValidationError):
            FlashCrowd(start_s=0.0, sessions=0)


class TestWorldResidual:
    def test_plan_cache_hits_until_the_ledger_moves(self, small_scenario):
        world = SimWorld(small_scenario)
        request = small_scenario.request()

        def fresh():
            # Memo-free, cache-free planning on the live residual.
            return small_scenario.session(
                record_trace=False,
                view=CatalogView(topology=world.ledger.residual_topology()),
            ).plan()

        first = world.plan(request)
        assert first is not None
        assert world.plan(request) is first  # unchanged world: a hit
        leases = world.reserve_plan(first, request)
        assert leases is not None
        assert any(len(lease.route) > 1 for lease in leases)  # booked a link
        booked = world.plan(request)
        assert booked is not None and booked is not first  # a miss
        assert world.plan(request) is booked
        assert booked.result == fresh().result
        world.release(leases)
        released = world.plan(request)
        assert released is not None
        assert released is not booked and released is not first
        assert released.result == fresh().result
        assert released.result == first.result

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, -0.5])
    def test_link_factor_must_be_finite_and_non_negative(
        self, small_scenario, factor
    ):
        world = SimWorld(small_scenario)
        link = small_scenario.topology.links()[0]
        with pytest.raises(ValidationError):
            world.set_link_factor(link.a, link.b, factor)
        assert world.effective_capacity(link) == link.bandwidth_bps
        assert world.generation == 0
        residual = world.ledger.residual_topology().get_link(link.a, link.b)
        assert residual.bandwidth_bps == link.bandwidth_bps

    def test_unknown_node_raises_on_fail_and_restore(self, small_scenario):
        world = SimWorld(small_scenario)
        with pytest.raises(UnknownNodeError):
            world.fail_node("ghost")
        with pytest.raises(UnknownNodeError):
            world.restore_node("ghost")
        assert world.generation == 0

    def test_squeezed_link_refuses_new_plans_but_takes_the_old_chain_back(
        self, small_scenario
    ):
        world = SimWorld(small_scenario)
        request = small_scenario.request()
        plan = world.plan(request)
        leases = world.reserve_plan(plan, request)
        assert leases is not None
        load = max(lease.bandwidth_bps for lease in leases)
        # Squeeze every link out of the sender below the chain's load:
        # any route a new plan could take now crosses a squeezed link.
        sender = small_scenario.sender_node
        for peer in small_scenario.topology.neighbors(sender):
            nominal = small_scenario.topology.get_link(sender, peer).bandwidth_bps
            world.set_link_factor(sender, peer, 0.5 * load / nominal)
        world.release(leases)
        assert world.reserve_plan(plan, request) is None
        assert len(world.ledger) == 0
        # The ledger validates against nominal capacity, so the released
        # chain can be taken back, at a degraded supply.
        taken = [
            world.ledger.reserve(
                list(lease.route), lease.bandwidth_bps
            )
            for lease in leases
        ]
        assert len(world.ledger) == len(leases)
        assert (
            min(world.ledger.supply_fraction(lease.route) for lease in leases)
            < 1.0
        )
        for reservation in taken:
            world.ledger.release(reservation)


class TestHorizonAndBounds:
    def test_horizon_truncates_live_sessions(self, small_scenario):
        report = run_simulation(
            small_config(
                small_scenario,
                sessions=6,
                arrivals=UniformArrivals(over_s=2.0),
                session_duration_s=30.0,
                horizon_s=8.0,
            )
        )
        truncated = [o for o in report.outcomes if o.state == TRUNCATED]
        assert truncated
        assert report.horizon_s <= 8.0 + 1e-6

    def test_trace_ring_buffer_still_digests(self, small_scenario):
        bounded = run_simulation(
            small_config(small_scenario, trace_capacity=4)
        )
        unbounded = run_simulation(small_config(small_scenario))
        assert bounded.trace_dropped > 0
        assert bounded.trace_digest == unbounded.trace_digest
        assert bounded.trace_events == unbounded.trace_events


class TestReportExports:
    def test_json_round_trip(self, small_scenario):
        report = run_simulation(small_config(small_scenario))
        payload = json.loads(report.to_json())
        assert payload["scenario"] == "test"
        assert payload["fleet"]["sessions"] == report.sessions
        assert len(payload["sessions"]) == report.sessions
        slim = json.loads(report.to_json(include_sessions=False))
        assert "sessions" not in slim

    def test_markdown_contains_fleet_metrics(self, small_scenario):
        report = run_simulation(small_config(small_scenario))
        text = report.to_markdown()
        assert "| sessions |" in text
        assert report.trace_digest in text

    def test_percentile(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 0.0)


class TestConfigValidation:
    def test_bad_configs_raise(self, small_scenario):
        with pytest.raises(ValidationError):
            SimulationConfig(scenario=small_scenario, sessions=-1)
        with pytest.raises(ValidationError):
            SimulationConfig(scenario=small_scenario, device_classes=0)
        with pytest.raises(ValidationError):
            SimulationConfig(scenario=small_scenario, session_duration_s=0.0)

    def test_unknown_scenario_name(self):
        with pytest.raises(ValidationError):
            build_scenario("no-such-campaign")

    def test_scenario_registry(self):
        assert scenario_names() == sorted(
            ["steady", "flash-crowd", "failover-storm", "link-churn",
             "gray-failure", "live-event", "policy-mix"]
        )

    def test_live_event_maximizes_device_heterogeneity(self):
        config = build_scenario("live-event", seed=3, sessions=12)
        assert config.device_classes == 32
        # The flash crowd carries most of the audience.
        crowd = [f for f in config.faults if type(f).__name__ == "FlashCrowd"]
        assert len(crowd) == 1
        assert crowd[0].sessions == 9
        without = build_scenario("live-event", seed=3, sessions=12,
                                 faults=False)
        assert without.faults == ()
