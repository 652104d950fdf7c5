"""Unit and integration tests for the runtime layer."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import NoPathError, PipelineError, ValidationError
from repro.network.bandwidth import RandomWalkBandwidth, SinusoidalBandwidth
from repro.network.placement import ENDPOINT_IDS
from repro.runtime.events import Event, EventLog
from repro.runtime.session import AdaptationSession
from repro.workloads.paper import figure6_scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


class TestEventLog:
    def test_record_and_read(self):
        log = EventLog()
        log.record(0.0, "setup", "graph built")
        log.record(1.5, "pipeline", "first frame")
        assert len(log) == 2
        assert log[0].category == "setup"
        assert log.last().message == "first frame"

    def test_time_must_not_go_backwards(self):
        log = EventLog()
        log.record(2.0, "a", "x")
        with pytest.raises(ValidationError):
            log.record(1.0, "a", "y")

    def test_category_required(self):
        with pytest.raises(ValidationError):
            EventLog().record(0.0, "", "x")

    def test_in_category(self):
        log = EventLog()
        log.record(0.0, "a", "1")
        log.record(1.0, "b", "2")
        log.record(2.0, "a", "3")
        assert [e.message for e in log.in_category("a")] == ["1", "3"]

    def test_render(self):
        log = EventLog()
        log.record(0.25, "pipeline", "hello")
        assert "pipeline" in log.render()
        assert "hello" in log.render()

    def test_empty_last_is_none(self):
        assert EventLog().last() is None


class TestEventLogRingBuffer:
    def test_unbounded_by_default(self):
        log = EventLog()
        assert log.capacity is None
        for i in range(100):
            log.record(float(i), "tick", str(i))
        assert len(log) == 100
        assert log.dropped == 0

    def test_bounded_log_drops_oldest(self):
        log = EventLog(capacity=3)
        assert log.capacity == 3
        for i in range(5):
            log.record(float(i), "tick", str(i))
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.message for e in log] == ["2", "3", "4"]
        assert log.last().message == "4"

    def test_bounded_log_under_capacity_drops_nothing(self):
        log = EventLog(capacity=10)
        log.record(0.0, "a", "x")
        log.record(1.0, "a", "y")
        assert len(log) == 2
        assert log.dropped == 0

    def test_monotone_time_enforced_across_drops(self):
        # The floor is the last *recorded* time, not the oldest retained.
        log = EventLog(capacity=1)
        log.record(5.0, "a", "x")
        log.record(6.0, "a", "y")
        with pytest.raises(ValidationError):
            log.record(5.5, "a", "z")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValidationError):
            EventLog(capacity=0)
        with pytest.raises(ValidationError):
            EventLog(capacity=-3)

    def test_in_category_sees_only_retained(self):
        log = EventLog(capacity=2)
        log.record(0.0, "a", "1")
        log.record(1.0, "b", "2")
        log.record(2.0, "a", "3")
        assert [e.message for e in log.in_category("a")] == ["3"]


class TestSessionPlanning:
    def test_plan_reproduces_selector_result(self, fig6):
        plan = fig6.session(prune=False).plan()
        assert plan.success
        assert plan.result.path == ("sender", "T7", "receiver")
        assert plan.result.satisfaction == pytest.approx(19.75 / 30.0, abs=1e-6)

    def test_pruned_plan_same_outcome(self, fig6):
        pruned_plan = fig6.session(prune=True).plan()
        full_plan = fig6.session(prune=False).plan()
        assert pruned_plan.result.path == full_plan.result.path
        assert pruned_plan.result.satisfaction == pytest.approx(
            full_plan.result.satisfaction
        )
        assert pruned_plan.pruning.vertices_removed > 0

    def test_chain_materialization(self, fig6):
        plan = fig6.session().plan()
        chain = plan.chain()
        assert chain.service_ids() == ["sender", "T7", "receiver"]

    def test_failed_plan_raises_on_chain(self):
        scenario = figure6_scenario(budget=0.0)  # nothing is affordable
        plan = scenario.session().plan()
        assert not plan.success
        with pytest.raises(NoPathError):
            plan.chain()


class TestDelivery:
    def test_steady_delivery_without_fluctuation(self, fig6):
        session = fig6.session()
        plan = session.plan()
        report = session.deliver(plan, duration_s=10.0)
        assert report.path == ("sender", "T7", "receiver")
        assert report.frames_sent == 200  # round(19.75) = 20 per second x 10
        assert report.loss_fraction == 0.0
        assert report.average_frame_rate == pytest.approx(19.8, abs=0.3)
        assert report.satisfaction == pytest.approx(19.75 / 30.0, abs=1e-6)
        assert report.startup_latency_s > 0.0
        assert report.total_cost == pytest.approx(1.0)

    def test_delivery_scores_for_the_planned_peer(self, fig6):
        from repro.core.parameters import FRAME_RATE
        from repro.core.satisfaction import LinearSatisfaction
        from repro.profiles.user import UserProfile

        user = UserProfile(
            user_id="peer-user",
            satisfaction_functions={FRAME_RATE: LinearSatisfaction(0.0, 30.0)},
            budget=fig6.user.budget,
            peer_overrides={"bob": {FRAME_RATE: LinearSatisfaction(0.0, 60.0)}},
        )
        request = dataclasses.replace(fig6.request(), user=user, peer="bob")
        session = AdaptationSession(
            fig6.registry, fig6.parameters, fig6.catalog, fig6.placement, request
        )
        plan = session.plan()
        report = session.deliver(plan, duration_s=10.0)
        # The peer's 60 fps ideal halves the default model's score.
        assert plan.result.satisfaction != pytest.approx(
            user.satisfaction().score(plan.result.configuration)
        )
        assert report.satisfaction == pytest.approx(plan.result.satisfaction)

    def test_fluctuation_degrades_delivery(self, fig6):
        session = fig6.session()
        plan = session.plan()
        calm = session.deliver(plan, duration_s=20.0)
        stormy = session.deliver(
            plan,
            duration_s=20.0,
            fluctuation=SinusoidalBandwidth(amplitude=0.5, period_s=7.0),
        )
        assert stormy.frames_delivered < calm.frames_delivered
        assert stormy.frame_rate_jitter >= calm.frame_rate_jitter

    def test_delivery_deterministic_per_seed(self, fig6):
        session = fig6.session()
        plan = session.plan()
        model = RandomWalkBandwidth(seed=5, step=0.2, floor=0.4)
        a = session.deliver(plan, duration_s=10.0, fluctuation=model, seed=9)
        model_b = RandomWalkBandwidth(seed=5, step=0.2, floor=0.4)
        b = session.deliver(plan, duration_s=10.0, fluctuation=model_b, seed=9)
        assert a.frames_delivered == b.frames_delivered
        assert a.average_frame_rate == b.average_frame_rate

    def test_deliver_requires_success(self):
        scenario = figure6_scenario(budget=0.0)
        session = scenario.session()
        plan = session.plan()
        with pytest.raises(NoPathError):
            session.deliver(plan)

    def test_invalid_duration_rejected(self, fig6):
        session = fig6.session()
        plan = session.plan()
        with pytest.raises(PipelineError):
            session.deliver(plan, duration_s=0.0)

    def test_report_summary_renders(self, fig6):
        session = fig6.session()
        report = session.deliver(session.plan(), duration_s=5.0)
        text = report.summary()
        assert "satisfaction" in text
        assert "sender,T7,receiver" in text

    def test_events_capture_pipeline_story(self, fig6):
        from repro.runtime.events import EventLog

        session = fig6.session()
        plan = session.plan()
        log = EventLog()
        session.deliver(plan, duration_s=5.0, events=log)
        categories = {event.category for event in log}
        assert "pipeline" in categories
        assert len(log) >= 3

    def test_delivery_leaves_the_shared_placement_alone(self):
        """Endpoints map to each session's own nodes: delivering never
        writes the shared placement, so a later session from another
        sender host streams exactly as it would on a fresh scenario."""

        def deliver_from(scenario, sender_node):
            session = dataclasses.replace(
                scenario, sender_node=sender_node
            ).session()
            return session.deliver(session.plan(), duration_s=10.0)

        scenario = figure6_scenario()
        generation = scenario.placement.generation
        senders = ("ns", "nr", "n1")
        reports = [deliver_from(scenario, node) for node in senders]
        assert scenario.placement.generation == generation
        for node, report in zip(senders, reports):
            assert report == deliver_from(figure6_scenario(), node)
        assert [round(r.startup_latency_s * 1000, 1) for r in reports] == [
            116.2,
            179.0,
            121.2,
        ]


class TestSessionOnSynthetic:
    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_plan_and_deliver_runs_end_to_end(self, seed):
        scenario = generate_scenario(SyntheticConfig(seed=seed, n_services=15))
        session = scenario.session()
        plan = session.plan()
        assert plan.success  # the backbone guarantees feasibility
        report = session.deliver(plan, duration_s=5.0)
        assert report.frames_sent >= report.frames_delivered
        assert report.satisfaction == pytest.approx(
            plan.result.satisfaction, abs=1e-9
        )

    def test_loss_reduces_delivery(self):
        """Synthetic topologies have lossy links; delivery reflects it."""
        scenario = generate_scenario(
            SyntheticConfig(seed=1, n_services=15)
        )
        session = scenario.session()
        plan = session.plan()
        report = session.deliver(plan, duration_s=30.0, seed=4)
        if plan.result.path != ENDPOINT_IDS:
            # Some hop crosses a lossy link with probability ~1 over 30 s.
            assert 0.0 <= report.loss_fraction < 0.5
