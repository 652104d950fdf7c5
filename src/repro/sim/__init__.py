"""repro.sim — deterministic discrete-event testbed with fault injection.

The simulator runs hundreds to thousands of concurrent adaptation
sessions over one shared topology and bandwidth ledger, entirely in
virtual time (no wall clock anywhere), driving admission, segment
delivery, and replanning through the existing planner stack.  Same
scenario + same seed = bit-identical event trace and report; see
``docs/ALGORITHM.md`` §8 for the event model and fault taxonomy.
"""

from repro.sim.arrivals import ArrivalProcess, PoissonArrivals, UniformArrivals
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultInjector,
    FlashCrowd,
    GrayFailure,
    LinkDegradation,
    RegionalOutage,
    ServiceCrash,
)
from repro.sim.report import SessionOutcome, SimReport, percentile
from repro.sim.runner import SimulationConfig, SimulationRun, run_simulation
from repro.sim.scenarios import SCENARIOS, build_scenario, scenario_names
from repro.sim.session import SimSession
from repro.sim.world import SimWorld

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "UniformArrivals",
    "Simulator",
    "FaultInjector",
    "FlashCrowd",
    "GrayFailure",
    "LinkDegradation",
    "RegionalOutage",
    "ServiceCrash",
    "SessionOutcome",
    "SimReport",
    "percentile",
    "SimulationConfig",
    "SimulationRun",
    "run_simulation",
    "SCENARIOS",
    "build_scenario",
    "scenario_names",
    "SimSession",
    "SimWorld",
]
