"""Tests for mid-session re-planning (the adaptive extension)."""

from __future__ import annotations

import pytest

from repro.errors import NoPathError, ValidationError
from repro.network.bandwidth import ConstantBandwidth, FluctuationModel
from repro.network.topology import Link
from repro.runtime.replanning import AdaptiveSession, ReplanReport, StreamSegment
from repro.workloads.paper import figure6_scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


class StepDrop(FluctuationModel):
    """Full bandwidth until ``at_s``, then ``drop_to`` on selected links."""

    def __init__(self, at_s: float, drop_to: float, endpoints=None) -> None:
        self.at_s = at_s
        self.drop_to = drop_to
        self.endpoints = endpoints  # None = every link

    def _affects(self, link: Link) -> bool:
        if self.endpoints is None:
            return True
        return set(link.endpoints()) in self.endpoints

    def factor(self, link: Link, time_s: float) -> float:
        if time_s >= self.at_s and self._affects(link):
            return self.drop_to
        return 1.0


class TestAdaptiveSessionBasics:
    def test_constant_bandwidth_never_replans(self, fig6):
        session = AdaptiveSession(fig6, ConstantBandwidth())
        report = session.run(duration_s=10.0)
        assert report.replans == 0
        assert len(report.segments) == 1
        assert report.segments[0].path == ("sender", "T7", "receiver")
        assert report.average_observed_satisfaction() == pytest.approx(
            19.75 / 30.0, abs=1e-6
        )

    def test_validation(self, fig6):
        with pytest.raises(ValidationError):
            AdaptiveSession(fig6, ConstantBandwidth(), replan_threshold=0.0)
        session = AdaptiveSession(fig6, ConstantBandwidth())
        with pytest.raises(ValidationError):
            session.run(duration_s=0.0)

    def test_infeasible_start_raises(self):
        scenario = figure6_scenario(budget=0.0)
        session = AdaptiveSession(scenario, ConstantBandwidth())
        with pytest.raises(NoPathError):
            session.run(duration_s=5.0)


class TestReplanOnDrop:
    def test_t7_link_collapse_triggers_switch(self, fig6):
        """When T7's host degrades at t=5 (both its links collapse), the
        session re-plans onto the next best chain (via T8)."""
        drop = StepDrop(at_s=5.0, drop_to=0.05, endpoints=[{"n7", "nr"}, {"ns", "n7"}])
        session = AdaptiveSession(fig6, drop, replan_threshold=0.9)
        report = session.run(duration_s=12.0)
        assert report.replans == 1
        chains = report.chains_used()
        assert chains[0] == ("sender", "T7", "receiver")
        assert chains[1] == ("sender", "T8", "receiver")
        # The switch happened at the first check after the drop.
        assert report.segments[0].end_s == pytest.approx(5.0)

    def test_switch_restores_satisfaction(self, fig6):
        drop = StepDrop(at_s=5.0, drop_to=0.05, endpoints=[{"n7", "nr"}, {"ns", "n7"}])
        adaptive = AdaptiveSession(fig6, drop, replan_threshold=0.9)
        report = adaptive.run(duration_s=20.0)
        final = report.segments[-1]
        # The T8 chain delivers 16 fps -> 0.533 under the unchanged links.
        assert final.planned_satisfaction == pytest.approx(16.0 / 30.0, abs=1e-6)

        # Without re-planning, the observed satisfaction stays collapsed.
        stuck = AdaptiveSession(fig6, drop, replan_threshold=0.01)
        stuck_report = stuck.run(duration_s=20.0)
        assert stuck_report.replans == 0
        assert (
            report.average_observed_satisfaction()
            > stuck_report.average_observed_satisfaction()
        )

    def test_global_collapse_has_nothing_better(self, fig6):
        """If every link degrades equally there is nothing better to
        switch to — the replan attempts fail and the session stays on the
        (still best) original chain, recording the degraded reality."""
        drop = StepDrop(at_s=3.0, drop_to=0.5)  # everything halves
        session = AdaptiveSession(fig6, drop, replan_threshold=0.9)
        report = session.run(duration_s=8.0)
        assert report.failed_replans >= 1
        assert report.replans == 0
        final = report.segments[-1]
        assert final.path == ("sender", "T7", "receiver")
        # The time-weighted observation reflects the halved bandwidth.
        assert report.average_observed_satisfaction() < 19.75 / 30.0 - 0.05

    def test_events_tell_the_story(self, fig6):
        drop = StepDrop(at_s=5.0, drop_to=0.05, endpoints=[{"n7", "nr"}, {"ns", "n7"}])
        session = AdaptiveSession(fig6, drop, replan_threshold=0.9)
        report = session.run(duration_s=8.0)
        categories = [event.category for event in report.events]
        assert categories[0] == "plan"
        assert "degraded" in categories
        assert "replan" in categories
        assert categories[-1] == "done"


class TestNoFeasibleAlternative:
    def test_total_link_death_never_raises(self, fig6):
        """Every link dies mid-stream and nothing is feasible: the session
        must keep running, record the failures, and finish degraded — an
        uncaught exception here would kill a live deployment loop."""
        drop = StepDrop(at_s=3.0, drop_to=0.0)
        session = AdaptiveSession(fig6, drop, replan_threshold=0.9)
        report = session.run(duration_s=8.0)  # must not raise
        assert report.replans == 0
        assert report.failed_replans >= 5
        # Still on the original chain, but observing the dead network.
        assert report.segments[-1].path == ("sender", "T7", "receiver")
        assert report.average_observed_satisfaction() < 0.3
        categories = [event.category for event in report.events]
        assert "degraded" in categories
        assert "replan-failed" in categories
        assert categories[-1] == "done"

    def test_total_link_death_on_synthetic(self):
        scenario = generate_scenario(SyntheticConfig(seed=4, n_services=15))
        drop = StepDrop(at_s=2.0, drop_to=0.0)
        session = AdaptiveSession(scenario, drop, replan_threshold=0.9)
        report = session.run(duration_s=6.0)  # must not raise
        assert report.failed_replans >= 1
        assert report.segments[-1].end_s == pytest.approx(6.0)


class TestSnapshot:
    def test_snapshot_scales_bandwidths(self, fig6):
        drop = StepDrop(at_s=0.0, drop_to=0.25)
        session = AdaptiveSession(fig6, drop)
        snapshot = session.snapshot_topology(1.0)
        original = fig6.topology
        for link in original.links():
            scaled = snapshot.get_link(link.a, link.b)
            assert scaled.bandwidth_bps == pytest.approx(link.bandwidth_bps * 0.25)
            assert scaled.delay_ms == link.delay_ms

    def test_plan_at_uses_snapshot(self, fig6):
        drop = StepDrop(at_s=0.0, drop_to=0.05, endpoints=[{"n7", "nr"}, {"ns", "n7"}])
        session = AdaptiveSession(fig6, drop)
        result = session.plan_at(1.0)
        # With T7's host degraded from the start, the plan goes straight
        # to T8.
        assert result.path == ("sender", "T8", "receiver")


class TestReportAccounting:
    def test_segments_cover_the_session(self, fig6):
        drop = StepDrop(at_s=4.0, drop_to=0.05, endpoints=[{"n7", "nr"}, {"ns", "n7"}])
        session = AdaptiveSession(fig6, drop, replan_threshold=0.9)
        duration = 10.0
        report = session.run(duration_s=duration)
        assert report.segments[0].start_s == 0.0
        assert report.segments[-1].end_s == pytest.approx(duration)
        for earlier, later in zip(report.segments, report.segments[1:]):
            assert earlier.end_s == pytest.approx(later.start_s)

    def test_average_of_empty_report_is_zero(self):
        assert ReplanReport().average_observed_satisfaction() == 0.0

    def test_on_synthetic_scenarios(self):
        scenario = generate_scenario(SyntheticConfig(seed=4, n_services=15))
        drop = StepDrop(at_s=3.0, drop_to=0.3)
        session = AdaptiveSession(scenario, drop, replan_threshold=0.85)
        report = session.run(duration_s=8.0)
        assert report.segments
        assert report.segments[-1].end_s == pytest.approx(8.0)
