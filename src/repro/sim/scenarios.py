"""Named simulation scenarios: reproducible stress campaigns.

Each preset pairs a synthetic base scenario with an arrival process and a
fault schedule whose targets are derived *from the generated scenario
itself* (the backbone services, the widest sender-to-receiver route), so
any seed yields a coherent campaign:

- ``steady`` — uniform arrivals, no faults; the admission-control and
  capacity baseline;
- ``flash-crowd`` — Poisson background load plus a burst of extra
  arrivals compressed into a few seconds mid-run;
- ``failover-storm`` — the backbone adaptation services crash in a
  staggered wave while the main route degrades, forcing mass replanning;
- ``link-churn`` — the links of the primary route ramp down and recover
  on overlapping windows, so capacity keeps shifting under live sessions;
- ``gray-failure`` — one backbone service silently drops 80% of its
  attempts while reading as healthy; a per-service failure detector and
  circuit breaker (see ``docs/RESILIENCE.md``) must notice from outcomes
  alone, quarantine it, and recover it once HALF_OPEN probes succeed;
- ``live-event`` — one stream, maximal device heterogeneity (32 receiver
  classes) and a flash crowd dumping most of the audience into a few
  seconds: the group-planning workload (``docs/ALGORITHM.md`` §9) where
  shared adaptation trees pay off most;
- ``policy-mix`` — a mostly-compatible audience: 70% of the device
  classes decode the source format natively and a policy ``skip`` rule
  answers them without the selector (``docs/ALGORITHM.md`` §10), one
  class is forced onto the hardware service tier, and the rest take the
  full selector path.

``build_scenario(name, ...)`` is the CLI entry point; ``SCENARIOS`` maps
names to builders.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.network.placement import ENDPOINT_IDS
from repro.policy.document import PolicyDocument, PolicyRule
from repro.policy.predicates import DeviceIn, FormatIn
from repro.profiles.device import DeviceProfile
from repro.sim.arrivals import PoissonArrivals, UniformArrivals
from repro.serve.health import HealthConfig
from repro.sim.faults import (
    FaultInjector,
    FlashCrowd,
    GrayFailure,
    LinkDegradation,
    RegionalOutage,
    ServiceCrash,
)
from repro.sim.runner import SimulationConfig
from repro.workloads.scenario import Scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

__all__ = ["SCENARIOS", "build_scenario", "scenario_names"]

#: Builders take (seed, sessions, enable_faults) and return a config.
ScenarioBuilder = Callable[[int, int, bool], SimulationConfig]


def _base(seed: int) -> Scenario:
    """The shared synthetic world every preset runs on."""
    return generate_scenario(
        SyntheticConfig(
            seed=seed,
            n_services=24,
            n_formats=10,
            n_nodes=12,
            extra_links=10,
            backbone_hops=3,
        )
    )


def _primary_route(scenario: Scenario) -> List[str]:
    route = scenario.topology.widest_path(
        scenario.sender_node, scenario.receiver_node
    )
    if route is None or len(route) < 2:  # pragma: no cover - generator
        raise ValidationError("scenario topology is disconnected")
    return route


def _backbone_services(scenario: Scenario) -> List[str]:
    return sorted(
        descriptor.service_id
        for descriptor in scenario.catalog
        if descriptor.service_id.startswith("S")
    )


def _steady(seed: int, sessions: int, faults: bool) -> SimulationConfig:
    scenario = _base(seed)
    return SimulationConfig(
        scenario=scenario,
        name="steady",
        seed=seed,
        sessions=sessions,
        arrivals=UniformArrivals(over_s=60.0),
        session_duration_s=30.0,
        faults=(),
    )


def _flash_crowd(seed: int, sessions: int, faults: bool) -> SimulationConfig:
    scenario = _base(seed)
    burst = max(1, sessions // 2)
    schedule: Tuple[FaultInjector, ...] = (
        (FlashCrowd(start_s=30.0, sessions=burst, over_s=5.0),)
        if faults
        else ()
    )
    return SimulationConfig(
        scenario=scenario,
        name="flash-crowd",
        seed=seed,
        sessions=sessions,
        arrivals=PoissonArrivals(rate_per_s=max(0.5, sessions / 60.0)),
        session_duration_s=25.0,
        faults=schedule,
    )


def _failover_storm(seed: int, sessions: int, faults: bool) -> SimulationConfig:
    scenario = _base(seed)
    schedule: List[FaultInjector] = []
    if faults:
        # The backbone services crash in a staggered wave...
        for index, service_id in enumerate(_backbone_services(scenario)):
            schedule.append(
                ServiceCrash(
                    service_id=service_id,
                    start_s=20.0 + 6.0 * index,
                    downtime_s=12.0,
                )
            )
        # ...while the primary route's first link collapses, and a
        # mid-route node blacks out entirely (the correlated case).
        route = _primary_route(scenario)
        schedule.append(
            LinkDegradation(
                route[0],
                route[1],
                start_s=24.0,
                duration_s=16.0,
                factor=0.1,
                ramp_steps=4,
                ramp_s=4.0,
            )
        )
        if len(route) > 2:
            schedule.append(
                RegionalOutage(
                    nodes=(route[len(route) // 2],),
                    start_s=32.0,
                    duration_s=10.0,
                )
            )
    return SimulationConfig(
        scenario=scenario,
        name="failover-storm",
        seed=seed,
        sessions=sessions,
        arrivals=UniformArrivals(over_s=50.0),
        session_duration_s=35.0,
        faults=tuple(schedule),
    )


def _link_churn(seed: int, sessions: int, faults: bool) -> SimulationConfig:
    scenario = _base(seed)
    schedule: List[FaultInjector] = []
    if faults:
        route = _primary_route(scenario)
        hops = list(zip(route, route[1:]))
        for index, (a, b) in enumerate(hops):
            schedule.append(
                LinkDegradation(
                    a,
                    b,
                    start_s=15.0 + 8.0 * index,
                    duration_s=14.0,
                    factor=0.25,
                    ramp_steps=3,
                    ramp_s=3.0,
                )
            )
    return SimulationConfig(
        scenario=scenario,
        name="link-churn",
        seed=seed,
        sessions=sessions,
        arrivals=UniformArrivals(over_s=55.0),
        session_duration_s=30.0,
        faults=tuple(schedule),
    )


def _gray_target(scenario: Scenario) -> str:
    """The service a gray failure hits: the baseline chain's first hop.

    Picking a service on the scenario's own best path guarantees the
    fault sits in the blast radius of real sessions; a scenario whose
    best chain is a direct passthrough falls back to the first backbone
    service.
    """
    result = scenario.select(record_trace=False)
    intermediaries = [sid for sid in result.path if sid not in ENDPOINT_IDS]
    if intermediaries:
        return intermediaries[0]
    backbone = _backbone_services(scenario)
    if not backbone:  # pragma: no cover - generator always places some
        raise ValidationError("scenario has no services to gray-fail")
    return backbone[0]


def _gray_failure(seed: int, sessions: int, faults: bool) -> SimulationConfig:
    scenario = _base(seed)
    schedule: Tuple[FaultInjector, ...] = (
        (
            GrayFailure(
                service_id=_gray_target(scenario),
                start_s=12.0,
                duration_s=24.0,
                failure_rate=0.8,
            ),
        )
        if faults
        else ()
    )
    return SimulationConfig(
        scenario=scenario,
        name="gray-failure",
        seed=seed,
        sessions=sessions,
        arrivals=UniformArrivals(over_s=55.0),
        session_duration_s=30.0,
        faults=schedule,
        # Detector tuned for segment-granularity outcomes: a handful of
        # bad segments opens the breaker, and the 6s cooldown lets
        # HALF_OPEN probes retry within the fault window's tail.
        health=HealthConfig(seed=seed, cooldown_s=6.0, min_samples=4),
    )


def _live_event(seed: int, sessions: int, faults: bool) -> SimulationConfig:
    scenario = _base(seed)
    # Most of the audience lands inside a few seconds of "kickoff";
    # the organic Poisson trickle is just the early arrivals.
    burst = max(1, (sessions * 3) // 4)
    schedule: Tuple[FaultInjector, ...] = (
        (FlashCrowd(start_s=20.0, sessions=burst, over_s=4.0),)
        if faults
        else ()
    )
    return SimulationConfig(
        scenario=scenario,
        name="live-event",
        seed=seed,
        sessions=sessions,
        arrivals=PoissonArrivals(rate_per_s=max(0.5, sessions / 80.0)),
        session_duration_s=40.0,
        faults=schedule,
        # Every handset model tunes into the same stream: the widest
        # class spread any preset uses, so grouped planning has real
        # prefixes to share.
        device_classes=32,
    )


def _policy_mix(seed: int, sessions: int, faults: bool) -> SimulationConfig:
    """The skewed "mostly-compatible" audience the policy fast path serves.

    The base device is rebuilt to decode the source format natively, so
    its zero-hop answer is genuinely sound; the skip rule then names 7 of
    the 10 device classes (the runner derives class ``i`` as
    ``<device_id>-v<i>``), one class is forced onto the hardware tier,
    and the remaining two take the ordinary selector path.
    """
    scenario = _base_with_hw_tiers(seed)
    source_format = scenario.content.format_names()[0]
    decoders = [source_format] + [
        name for name in scenario.device.decoders if name != source_format
    ]
    device = DeviceProfile(
        device_id=scenario.device.device_id,
        decoders=decoders,
        max_resolution=scenario.device.max_resolution,
        max_color_depth=scenario.device.max_color_depth,
        max_frame_rate=scenario.device.max_frame_rate,
        max_audio_kbps=scenario.device.max_audio_kbps,
        cpu_mips=scenario.device.cpu_mips,
        memory_mb=scenario.device.memory_mb,
        vendor=scenario.device.vendor,
        model=scenario.device.model,
        attributes=scenario.device.attributes,
    )
    scenario.device = device
    classes = 10
    compatible = tuple(
        f"{device.device_id}-v{i}" for i in range(int(classes * 0.7))
    )
    scenario.policy = PolicyDocument(
        name=f"policy-mix-{seed}",
        description="skip the compatible majority, pin one class to hw",
        rules=(
            PolicyRule(
                rule_id="skip-compatible",
                action="skip",
                predicates=(
                    DeviceIn(compatible),
                    FormatIn((source_format,)),
                ),
                tolerance=0.05,
            ),
            PolicyRule(
                rule_id="hw-class",
                action="force_tier",
                predicates=(DeviceIn((f"{device.device_id}-v7",)),),
                tier="hw",
            ),
        ),
    )
    return SimulationConfig(
        scenario=scenario,
        name="policy-mix",
        seed=seed,
        sessions=sessions,
        arrivals=UniformArrivals(over_s=60.0),
        session_duration_s=30.0,
        faults=(),
        device_classes=classes,
    )


def _base_with_hw_tiers(seed: int) -> Scenario:
    """The shared world plus hardware-tier siblings for half the catalog."""
    return generate_scenario(
        SyntheticConfig(
            seed=seed,
            n_services=24,
            n_formats=10,
            n_nodes=12,
            extra_links=10,
            backbone_hops=3,
            hw_tier_fraction=0.5,
        )
    )


SCENARIOS: Dict[str, ScenarioBuilder] = {
    "steady": _steady,
    "flash-crowd": _flash_crowd,
    "failover-storm": _failover_storm,
    "link-churn": _link_churn,
    "gray-failure": _gray_failure,
    "live-event": _live_event,
    "policy-mix": _policy_mix,
}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def build_scenario(
    name: str,
    seed: int = 0,
    sessions: int = 200,
    faults: bool = True,
    horizon_s: Optional[float] = None,
    trace_capacity: Optional[int] = None,
) -> SimulationConfig:
    """Build one named campaign, optionally overriding run bounds."""
    if name not in SCENARIOS:
        raise ValidationError(
            f"unknown scenario {name!r}; choose from {', '.join(scenario_names())}"
        )
    if sessions < 1:
        raise ValidationError("session count must be >= 1")
    config = SCENARIOS[name](seed, sessions, faults)
    if horizon_s is not None:
        config.horizon_s = horizon_s
    if trace_capacity is not None:
        config.trace_capacity = trace_capacity
    return config
