"""Mid-session re-planning under fluctuating bandwidth.

The paper's network profile exists because "it is necessary ... to
dynamically adapt the multimedia content to the fluctuating network
resources" (Section 3) — but the selection algorithm itself plans against a
snapshot.  This module closes that loop, as the framework's deployment
story implies:

- an :class:`AdaptiveSession` streams a planned chain while periodically
  *observing* the bandwidth its hops actually get (via the fluctuation
  model);
- when the observed deliverable satisfaction falls below a threshold
  fraction of the plan, it re-snapshots the topology at current bandwidth
  levels, re-plans through an
  :class:`~repro.runtime.session.AdaptationSession` over that
  snapshot, and switches chains if the new plan is better;
- the whole history lands in a :class:`ReplanReport` timeline.

Everything is deterministic for a fixed fluctuation model, so the E13
bench and the tests can assert exact switch points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.graph import CatalogView
from repro.core.parameters import FRAME_RATE
from repro.core.selection import SelectionResult
from repro.errors import NoPathError, ValidationError
from repro.network.bandwidth import BandwidthEstimator, FluctuationModel
from repro.network.topology import NetworkTopology
from repro.runtime.events import EventLog
from repro.workloads.scenario import Scenario

__all__ = ["ReplanReport", "StreamSegment", "AdaptiveSession"]


@dataclass(frozen=True)
class StreamSegment:
    """One stretch of the session streamed over a single chain."""

    start_s: float
    end_s: float
    path: Tuple[str, ...]
    planned_satisfaction: float
    observed_satisfaction: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class ReplanReport:
    """Outcome of one adaptive session."""

    segments: List[StreamSegment] = field(default_factory=list)
    replans: int = 0
    failed_replans: int = 0
    events: EventLog = field(default_factory=EventLog)

    def average_observed_satisfaction(self) -> float:
        """Time-weighted mean of the observed satisfaction."""
        total = sum(s.duration_s for s in self.segments)
        if total <= 0:
            return 0.0
        return sum(s.observed_satisfaction * s.duration_s for s in self.segments) / total

    def chains_used(self) -> List[Tuple[str, ...]]:
        """Distinct chains in order of first use."""
        seen: List[Tuple[str, ...]] = []
        for segment in self.segments:
            if segment.path not in seen:
                seen.append(segment.path)
        return seen


class AdaptiveSession:
    """Streams a scenario with periodic observation and re-planning."""

    def __init__(
        self,
        scenario: Scenario,
        fluctuation: FluctuationModel,
        check_interval_s: float = 1.0,
        replan_threshold: float = 0.8,
    ) -> None:
        if check_interval_s <= 0:
            raise ValidationError("check interval must be positive")
        if not 0.0 < replan_threshold <= 1.0:
            raise ValidationError("replan threshold must lie in (0, 1]")
        self._scenario = scenario
        self._fluctuation = fluctuation
        self._estimator = BandwidthEstimator(scenario.topology, fluctuation)
        self._interval = check_interval_s
        self._threshold = replan_threshold

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe_satisfaction(self, result: SelectionResult, time_s: float) -> float:
        """Satisfaction deliverable over the chain at instant ``time_s``.

        Re-evaluates every hop's bandwidth under the fluctuation model and
        caps the planned frame rate by the tightest hop (the other
        parameters are not bandwidth-elastic mid-stream).
        """
        scenario = self._scenario
        config = result.configuration
        if config is None:
            return 0.0
        planned_fps = config.get_value(FRAME_RATE, 0.0) or 0.0
        achievable = planned_fps
        for source, target, fmt_name in zip(
            result.path, result.path[1:], result.formats
        ):
            bandwidth = self._estimator.available_bandwidth(
                scenario.placement.node_for(
                    source, scenario.sender_node, scenario.receiver_node
                ),
                scenario.placement.node_for(
                    target, scenario.sender_node, scenario.receiver_node
                ),
                time_s,
            )
            fmt = scenario.registry.get(fmt_name)
            per_frame = config.with_value(FRAME_RATE, 1.0).required_bandwidth(fmt)
            if per_frame > 0:
                achievable = min(achievable, bandwidth / per_frame)
        observed = config.with_value(FRAME_RATE, min(planned_fps, achievable))
        return scenario.user.satisfaction().score(observed)

    # ------------------------------------------------------------------
    # Re-planning
    # ------------------------------------------------------------------
    def snapshot_topology(self, time_s: float) -> NetworkTopology:
        """A copy of the topology with instantaneous link bandwidths."""
        snapshot = self._scenario.topology.copy()
        for link in snapshot.links():
            factor = self._fluctuation.factor(link, time_s)
            snapshot.set_bandwidth(link.a, link.b, link.bandwidth_bps * factor)
        return snapshot

    def plan_at(self, time_s: float) -> SelectionResult:
        """Plan the scenario against the instant's bandwidths."""
        return self._scenario.session(
            record_trace=False,
            view=CatalogView(topology=self.snapshot_topology(time_s)),
        ).plan().result

    # ------------------------------------------------------------------
    # The adaptive loop
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> ReplanReport:
        """Stream for ``duration_s`` with observation every interval."""
        if duration_s <= 0:
            raise ValidationError("duration must be positive")
        report = ReplanReport()
        current = self.plan_at(0.0)
        if not current.success:
            raise NoPathError("no feasible chain even at session start")
        report.events.record(
            0.0, "plan", f"initial chain {','.join(current.path)} "
            f"(S={current.satisfaction:.3f})"
        )
        segment_start = 0.0
        segment_scores: List[float] = [current.satisfaction]

        time_s = self._interval
        while time_s <= duration_s + 1e-9:
            observed = self.observe_satisfaction(current, time_s)
            floor = self._threshold * current.satisfaction
            if observed + 1e-12 < floor:
                report.events.record(
                    time_s,
                    "degraded",
                    f"observed S={observed:.3f} < floor {floor:.3f}",
                )
                replanned = self.plan_at(time_s)
                if replanned.success and (
                    replanned.satisfaction > observed + 1e-9
                ):
                    report.segments.append(
                        StreamSegment(
                            start_s=segment_start,
                            end_s=time_s,
                            path=current.path,
                            planned_satisfaction=current.satisfaction,
                            observed_satisfaction=(
                                sum(segment_scores) / len(segment_scores)
                            ),
                        )
                    )
                    switched = replanned.path != current.path
                    current = replanned
                    segment_start = time_s
                    segment_scores = [replanned.satisfaction]
                    report.replans += 1
                    report.events.record(
                        time_s,
                        "replan",
                        f"{'switched to' if switched else 'kept'} "
                        f"{','.join(current.path)} (S={current.satisfaction:.3f})",
                    )
                else:
                    report.failed_replans += 1
                    segment_scores.append(observed)
                    report.events.record(
                        time_s, "replan-failed", "no better chain available"
                    )
            else:
                segment_scores.append(observed)
            time_s += self._interval

        report.segments.append(
            StreamSegment(
                start_s=segment_start,
                end_s=duration_s,
                path=current.path,
                planned_satisfaction=current.satisfaction,
                observed_satisfaction=sum(segment_scores) / len(segment_scores),
            )
        )
        report.events.record(duration_s, "done", f"{report.replans} replans")
        return report
