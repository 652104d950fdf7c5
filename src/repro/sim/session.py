"""One simulated adaptive session: admit, stream, replan, finish.

A :class:`SimSession` is the event-driven counterpart of
:class:`~repro.runtime.replanning.AdaptiveSession`: instead of stepping a
private loop over its own copy of the network, it lives on the shared
:class:`~repro.sim.world.SimWorld` with hundreds of concurrent peers and
advances only when the simulator fires one of its events:

- **arrival** — plan against the effective residual infrastructure and
  reserve the chain's bandwidth, or be rejected;
- **segment ticks** — every :data:`SEGMENT_S` virtual seconds, observe the
  satisfaction the current chain actually delivers under the fault
  overlay, accumulate QoE, and trigger a replan when delivery falls below
  the replan floor (or the chain breaks outright — a crashed service or a
  dead route);
- **finish** — at the session's end, release reservations and emit a
  :class:`~repro.sim.report.SessionOutcome`.

Failure is data, never an exception: a session that cannot replan stalls,
retries on later ticks, and — after :data:`ABANDON_AFTER_STALLS` consecutive
stalled segments — abandons, exactly the degradation taxonomy the report
aggregates.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.configuration import Configuration
from repro.core.parameters import FRAME_RATE
from repro.network.placement import ENDPOINT_IDS
from repro.network.reservations import Reservation
from repro.planner.batch import PlanRequest
from repro.runtime.session import SessionPlan
from repro.sim.engine import Simulator
from repro.sim.report import (
    ABANDONED,
    ABORTED,
    COMPLETED,
    REJECTED,
    TRUNCATED,
    SessionOutcome,
)
from repro.sim.world import SimWorld

__all__ = ["SimSession"]

#: Virtual seconds between a session's segment ticks.
SEGMENT_S = 2.0
#: Fraction of the planned satisfaction below which a tick replans.
REPLAN_THRESHOLD = 0.8
#: Observed satisfaction at or below which a segment counts as stalled.
STALL_SATISFACTION = 0.01
#: Consecutive stalled segments before a viewer walks away.
ABANDON_AFTER_STALLS = 3
#: Satisfaction an arrival's plan must reach to be admitted.
ADMISSION_FLOOR = 0.0


class SimSession:
    """State machine for one session over the shared world."""

    def __init__(
        self,
        session_id: int,
        request: PlanRequest,
        arrival_s: float,
        duration_s: float,
        sim: Simulator,
        world: SimWorld,
        on_done: Callable[[SessionOutcome], None],
    ) -> None:
        self.session_id = session_id
        self._request = request
        self._arrival_s = arrival_s
        self._end_s = arrival_s + duration_s
        self._sim = sim
        self._world = world
        self._on_done = on_done
        self._satisfaction = request.user.satisfaction(request.peer)

        # Streaming state
        self._leases: List[Reservation] = []
        self._services: Tuple[str, ...] = ()
        self._config: Optional[Configuration] = None
        self._planned_fps = 0.0
        self._current_planned_sat = 0.0

        # QoE accounting
        self._admitted = False
        self._initial_satisfaction = 0.0
        self._last_check = arrival_s
        self._weighted_satisfaction = 0.0
        self._observed_s = 0.0
        self._stall_s = 0.0
        self._degraded_s = 0.0
        self._replans = 0
        self._failed_replans = 0
        self._interruptions = 0
        self._consecutive_stalls = 0
        self._final_state: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle events (wired onto the simulator by the runner)
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._final_state is not None

    @property
    def started(self) -> bool:
        return self._admitted or self._final_state is not None

    def on_arrival(self) -> None:
        admission = self._world.admit(
            self._request,
            ADMISSION_FLOOR,
            label=f"session-{self.session_id}",
        )
        if not admission.admitted:
            self._sim.record(
                "reject", f"session {self.session_id}: {admission.rejection}"
            )
            self._finalize(REJECTED)
            return
        plan = admission.plan
        self._admitted = True
        self._initial_satisfaction = plan.result.satisfaction
        self._adopt(plan, admission.leases)
        self._sim.record(
            "admit",
            f"session {self.session_id}: {','.join(plan.result.path)} "
            f"(S={plan.result.satisfaction:.3f})",
        )
        self._last_check = self._sim.now
        self._schedule_tick()

    def on_tick(self) -> None:
        if self.done:
            return
        now = self._sim.now
        interval = now - self._last_check
        self._last_check = now

        if self._leases:
            fraction = self._delivery_fraction()
            # Gray-failure roll is gated on monitoring so runs without a
            # gray overlay or health registry keep bit-identical traces.
            gray_failed = (
                self._world.attempt_chain(self._services)
                if self._world.monitoring
                else None
            )
            observed = (
                0.0 if gray_failed is not None else self._observe(fraction)
            )
            self._integrate(observed, interval)
            floor = REPLAN_THRESHOLD * self._current_planned_sat
            if fraction <= 0.0:
                self._interruptions += 1
                self._sim.record(
                    "interrupt",
                    f"session {self.session_id}: chain broken "
                    f"({','.join(self._services) or 'direct'})",
                )
                self._world.release(self._leases)
                self._leases = []
                self._try_acquire()
            elif gray_failed is not None:
                self._sim.record(
                    "gray-loss",
                    f"session {self.session_id}: {gray_failed} "
                    "dropped the segment",
                )
                self._try_switch(0.0)
            elif observed + 1e-12 < floor:
                self._sim.record(
                    "degraded",
                    f"session {self.session_id}: S={observed:.3f} "
                    f"< floor {floor:.3f}",
                )
                self._try_switch(observed)
        else:
            # Stalled with no chain: dead air, retry admission.
            self._integrate(0.0, interval)
            self._try_acquire()

        if self._consecutive_stalls >= ABANDON_AFTER_STALLS:
            if self._leases:
                self._world.release(self._leases)
                self._leases = []
            self._sim.record(
                "abandon",
                f"session {self.session_id}: "
                f"{self._consecutive_stalls} stalled segments",
            )
            self._finalize(ABANDONED)
            return

        if now >= self._end_s - 1e-9:
            self._finish()
        else:
            self._schedule_tick()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def _delivery_fraction(self) -> float:
        """Fraction of the planned rate the chain gets right now (0 = dead)."""
        if any(self._world.service_is_down(sid) for sid in self._services):
            return 0.0
        fraction = 1.0
        ledger = self._world.ledger
        for lease in self._leases:
            fraction = min(fraction, ledger.supply_fraction(lease.route))
            if fraction <= 0.0:
                return 0.0
        return fraction

    def _observe(self, fraction: float) -> float:
        """Satisfaction of the planned configuration at ``fraction`` rate."""
        if fraction <= 0.0 or self._config is None:
            return 0.0
        if fraction >= 1.0 or self._planned_fps <= 0.0:
            config = self._config
        else:
            config = self._config.with_value(
                FRAME_RATE, self._planned_fps * fraction
            )
        return self._satisfaction.score(config)

    def _integrate(self, observed: float, interval: float) -> None:
        if interval <= 0:
            return
        self._weighted_satisfaction += observed * interval
        self._observed_s += interval
        if observed <= STALL_SATISFACTION:
            self._stall_s += interval
            self._consecutive_stalls += 1
        else:
            self._consecutive_stalls = 0
            if observed + 1e-12 < REPLAN_THRESHOLD * self._current_planned_sat:
                self._degraded_s += interval

    # ------------------------------------------------------------------
    # Replanning
    # ------------------------------------------------------------------
    def _adopt(self, plan: SessionPlan, leases: List[Reservation]) -> None:
        self._leases = leases
        self._services = tuple(
            sid for sid in plan.result.path if sid not in ENDPOINT_IDS
        )
        self._config = plan.result.configuration
        self._planned_fps = (
            self._config.get_value(FRAME_RATE, 0.0) or 0.0
            if self._config is not None
            else 0.0
        )
        self._current_planned_sat = plan.result.satisfaction

    def _try_acquire(self) -> None:
        """Plan and reserve from nothing (post-interrupt or stalled)."""
        admission = self._world.admit(
            self._request, label=f"session-{self.session_id}"
        )
        if admission.admitted:
            plan = admission.plan
            self._adopt(plan, admission.leases)
            self._replans += 1
            self._sim.record(
                "replan",
                f"session {self.session_id}: rejoined via "
                f"{','.join(plan.result.path)} "
                f"(S={plan.result.satisfaction:.3f})",
            )
        else:
            self._failed_replans += 1
            self._sim.record(
                "replan-failed",
                f"session {self.session_id}: no feasible chain",
            )

    def _try_switch(self, observed: float) -> None:
        """Replan while still holding the current (degraded) chain.

        The candidate is planned *before* releasing the old chain — the
        session's own reservations count against the candidate, which is
        pessimistic but never leaves the session chainless when no better
        chain exists.
        """
        candidate = self._world.plan(self._request)
        if candidate is None or candidate.result.satisfaction <= observed + 1e-9:
            self._failed_replans += 1
            self._sim.record(
                "replan-failed",
                f"session {self.session_id}: no better chain",
            )
            return
        old_leases = self._leases
        self._world.release(old_leases)
        self._leases = []
        new_leases = self._world.reserve_plan(
            candidate, self._request, label=f"session-{self.session_id}"
        )
        if new_leases is None:
            # Take the old chain back (guaranteed: its bandwidth was just
            # freed and the ledger validates against nominal capacity).
            self._leases = [
                self._world.ledger.reserve(
                    lease.route, lease.bandwidth_bps, label=lease.label
                )
                for lease in old_leases
            ]
            self._failed_replans += 1
            self._sim.record(
                "replan-failed",
                f"session {self.session_id}: candidate unreservable, "
                "kept old chain",
            )
            return
        held = self._services
        self._adopt(candidate, new_leases)
        switched = self._services != held
        self._replans += 1
        self._sim.record(
            "replan",
            f"session {self.session_id}: "
            f"{'switched to' if switched else 'kept'} "
            f"{','.join(candidate.result.path)} "
            f"(S={candidate.result.satisfaction:.3f})",
        )

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def _finish(self) -> None:
        if self._leases:
            self._world.release(self._leases)
            self._leases = []
            self._sim.record(
                "complete", f"session {self.session_id}: finished"
            )
            self._finalize(COMPLETED)
        else:
            self._sim.record(
                "abort",
                f"session {self.session_id}: ended without a chain",
            )
            self._finalize(ABORTED)

    def truncate(self) -> None:
        """Force-finalize a still-live session at the horizon."""
        if self.done:
            return
        if self._leases:
            self._world.release(self._leases)
            self._leases = []
        self._finalize(TRUNCATED)

    def _finalize(self, state: str) -> None:
        self._final_state = state
        mean = (
            self._weighted_satisfaction / self._observed_s
            if self._observed_s > 0
            else 0.0
        )
        self._on_done(
            SessionOutcome(
                session_id=self.session_id,
                device_id=self._request.device.device_id,
                arrival_s=self._arrival_s,
                end_s=self._sim.now,
                state=state,
                admitted=self._admitted,
                planned_satisfaction=self._initial_satisfaction,
                mean_satisfaction=mean,
                stall_s=self._stall_s,
                degraded_s=self._degraded_s,
                replans=self._replans,
                failed_replans=self._failed_replans,
                interruptions=self._interruptions,
                abandoned=state == ABANDONED,
            )
        )

    def _schedule_tick(self) -> None:
        next_tick = min(self._end_s, self._sim.now + SEGMENT_S)
        self._sim.schedule_at(next_tick, self.on_tick, kind="segment")
