"""Orchestration: configure, populate, and execute one simulation run.

:func:`run_simulation` is the subsystem's front door: give it a
:class:`SimulationConfig` (a base scenario, an arrival process, a fault
schedule, and a seed) and it returns a
:class:`~repro.sim.report.SimReport`.  The run is deterministic end to
end: arrivals and session durations come from ``random.Random`` instances
seeded from the config seed plus a purpose tag, faults are installed
before the clock starts, and the event loop itself is single-threaded
virtual time.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ValidationError
from repro.planner.batch import PlanRequest
from repro.planner.workload import device_variants
from repro.sim.arrivals import ArrivalProcess, UniformArrivals
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector
from repro.sim.report import SessionOutcome, SimReport, outcomes_sorted
from repro.sim.session import SimSession
from repro.sim.world import SimWorld
from repro.serve.health import HealthConfig, HealthRegistry
from repro.workloads.scenario import Scenario

__all__ = ["SimulationConfig", "SimulationRun", "run_simulation"]

#: Fractional half-width of the per-session duration jitter.
DURATION_JITTER = 0.25


@dataclass
class SimulationConfig:
    """Everything one simulation run depends on."""

    scenario: Scenario
    name: str = "sim"
    seed: int = 0
    #: Organic arrivals (flash crowds add more on top).
    sessions: int = 100
    #: Distinct device classes the arrivals cycle through.
    device_classes: int = 8
    arrivals: ArrivalProcess = field(
        default_factory=lambda: UniformArrivals(over_s=60.0)
    )
    #: Mean session length; per-session lengths jitter around it by
    #: :data:`DURATION_JITTER`.
    session_duration_s: float = 30.0
    faults: Tuple[FaultInjector, ...] = ()
    #: Attach a per-service failure detector + circuit breaker registry;
    #: quarantined (OPEN) services are masked out of the planning view
    #: until HALF_OPEN probes recover them.
    health: Optional[HealthConfig] = None
    #: Hard virtual-time stop; ``None`` runs until the event heap drains.
    horizon_s: Optional[float] = None
    #: Ring-buffer bound for the trace (None = unbounded).
    trace_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sessions < 0:
            raise ValidationError("session count must be >= 0")
        if self.device_classes < 1:
            raise ValidationError("need at least one device class")
        if self.session_duration_s <= 0:
            raise ValidationError("session duration must be positive")


class SimulationRun:
    """One populated simulator: sessions scheduled, faults installed."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.sim = Simulator(trace_capacity=config.trace_capacity)
        self.world = SimWorld(config.scenario, seed=config.seed)
        self.world.bind_clock(lambda: self.sim.now)
        self.health: Optional[HealthRegistry] = None
        if config.health is not None:
            self.health = HealthRegistry(config.health)
            self.world.attach_health(self.health)
        self.outcomes: List[SessionOutcome] = []
        self._sessions: List[SimSession] = []
        self._session_ids = itertools.count(1)
        self._request_index = itertools.count()
        self._variants = device_variants(
            config.scenario.device, config.device_classes
        )
        self._duration_rng = random.Random(f"{config.seed}:durations")

        arrival_rng = random.Random(f"{config.seed}:arrivals")
        for at_s in config.arrivals.times(config.sessions, arrival_rng):
            self.add_session(at_s)
        for fault in config.faults:
            fault.install(self)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def _next_request(self) -> PlanRequest:
        index = next(self._request_index)
        return self.config.scenario.request(
            self._variants[index % len(self._variants)]
        )

    def _next_duration(self) -> float:
        return self.config.session_duration_s * (
            1.0 + DURATION_JITTER * (2.0 * self._duration_rng.random() - 1.0)
        )

    def add_session(self, at_s: float) -> SimSession:
        """Create one session and schedule its arrival.

        Called during construction for organic arrivals and by
        :class:`~repro.sim.faults.FlashCrowd` for burst arrivals; the
        shared request/duration streams keep the whole population
        deterministic regardless of who adds the session.
        """
        session = SimSession(
            session_id=next(self._session_ids),
            request=self._next_request(),
            arrival_s=at_s,
            duration_s=self._next_duration(),
            sim=self.sim,
            world=self.world,
            on_done=self.outcomes.append,
        )
        self._sessions.append(session)
        self.sim.schedule_at(at_s, session.on_arrival, kind="arrival")
        return session

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self) -> SimReport:
        config = self.config
        self.sim.run(until_s=config.horizon_s)
        # Sessions cut off by the horizon finalize as
        # truncated; sessions whose arrival never fired are simply absent.
        for session in self._sessions:
            if session.started and not session.done:
                session.truncate()
        return SimReport(
            scenario=config.name,
            seed=config.seed,
            horizon_s=self.sim.now,
            events_processed=self.sim.events_processed,
            trace_events=self.sim.trace_records,
            trace_dropped=self.sim.trace.dropped,
            trace_digest=self.sim.trace_digest(),
            outcomes=outcomes_sorted(self.outcomes),
            health=self.health.summary() if self.health is not None else None,
        )


def run_simulation(config: SimulationConfig) -> SimReport:
    """Populate and execute one run; the one-call entry point."""
    return SimulationRun(config).execute()
