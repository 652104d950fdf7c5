"""Shared mutable world state for a simulation run.

A :class:`SimWorld` owns everything the concurrent sessions contend over:

- the **base scenario** (registry, parameters, catalog, topology,
  placement) — never mutated;
- the **fault overlay**: per-link capacity factors, downed nodes, and
  crashed services, mutated by :mod:`repro.sim.faults` injectors as the
  virtual clock advances;
- the **bandwidth ledger**: every admitted session's reservations, so
  later admissions plan against what is actually left;
- its planner's one :class:`~repro.core.optimizer.OptimizeMemo`, so the
  thousands of plans and replans a run performs reuse each other's solved
  relaxations exactly as a :class:`~repro.planner.batch.BatchPlanner`
  batch would.

Planning goes through one :class:`BatchPlanner` over the base scenario
for the whole run.  Each call carries a
:class:`~repro.core.graph.CatalogView`: the ledger's *live residual*
topology (base capacity x fault factor, minus reservations, updated in
place by every booking and fault) plus the crashed and quarantined
services to mask.  The plan fingerprint keys on the view's content, so a
burst of arrivals against unchanged state shares cached plans.  A new
view is made only when the fault, ledger or health generation (or the
quarantine set) moves, and each one clears the plan cache to reclaim the
entries of the past state.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.configuration import fits_within
from repro.core.graph import CatalogView
from repro.errors import ReproError, ValidationError
from repro.network.placement import ENDPOINT_IDS
from repro.network.reservations import BandwidthLedger, Reservation
from repro.network.topology import Link, link_key
from repro.planner.batch import BatchPlanner, PlanRequest
from repro.planner.cache import PlanCache
from repro.policy.engine import PolicyEngine
from repro.runtime.session import SessionPlan
from repro.serve.health import HealthRegistry
from repro.workloads.scenario import Scenario

__all__ = ["Admission", "SimWorld"]


@dataclass(frozen=True)
class Admission:
    """One arrival's admission: its plan and leases, or why it was refused.

    The leases are one ledger :class:`Reservation` per chain hop, in chain
    order.
    """

    plan: Optional[SessionPlan]
    leases: List[Reservation]
    #: ``None`` when admitted, else the reason the arrival was rejected.
    rejection: Optional[str] = None

    @property
    def admitted(self) -> bool:
        return self.rejection is None


class SimWorld:
    """Fault overlay + reservations + residual planning over one scenario."""

    def __init__(self, scenario: Scenario, seed: int = 0) -> None:
        self.scenario = scenario
        self.ledger = BandwidthLedger(scenario.topology)
        self._factors: Dict[Tuple[str, str], float] = {}
        self._down_nodes: Set[str] = set()
        self._down_services: Set[str] = set()
        self._generation = 0
        self._view: Optional[CatalogView] = None
        self._view_key: Optional[Tuple[int, int, int, frozenset]] = None
        # Gray-failure overlay: services that silently drop a fraction of
        # attempts without touching the fault generation — only a health
        # registry (if attached) can learn about them through outcomes.
        self._gray_rng = random.Random(f"{seed}:gray")
        self._gray_rates: Dict[str, float] = {}
        self._health: Optional[HealthRegistry] = None
        self._clock: Callable[[], float] = lambda: 0.0
        # One policy engine for the whole run (when the scenario carries a
        # policy document): its decision cache spans view changes,
        # mirroring how the gateway keeps one engine across reloads.
        self._planner = BatchPlanner.for_scenario(
            scenario,
            cache=PlanCache(max_entries=256),
            policy_engine=(
                PolicyEngine(scenario.policy)
                if scenario.policy is not None
                else None
            ),
        )

    @property
    def generation(self) -> int:
        """Monotonic fault-overlay mutation counter."""
        return self._generation

    # ------------------------------------------------------------------
    # Fault overlay mutation (called by FaultInjectors)
    # ------------------------------------------------------------------
    def set_link_factor(self, a: str, b: str, factor: float) -> None:
        """Scale one link's capacity; 0 kills it, 1 restores nominal."""
        link = self.scenario.topology.get_link(a, b)
        if not math.isfinite(factor) or factor < 0:
            raise ValidationError("link factor must be finite and >= 0")
        key = link_key(a, b)
        if factor == 1.0:
            self._factors.pop(key, None)
        else:
            self._factors[key] = factor
        self.ledger.set_capacity(a, b, self.effective_capacity(link))
        self._generation += 1

    def fail_node(self, node_id: str) -> None:
        self.scenario.topology.get_node(node_id)
        self._down_nodes.add(node_id)
        self._push_capacities(node_id)

    def restore_node(self, node_id: str) -> None:
        self.scenario.topology.get_node(node_id)
        self._down_nodes.discard(node_id)
        self._push_capacities(node_id)

    def _push_capacities(self, node_id: str) -> None:
        """Hand the ledger the effective capacity of a node's links."""
        topology = self.scenario.topology
        for peer in topology.neighbors(node_id):
            link = topology.get_link(node_id, peer)
            self.ledger.set_capacity(node_id, peer, self.effective_capacity(link))
        self._generation += 1

    def crash_service(self, service_id: str) -> None:
        self.scenario.catalog.get(service_id)
        self._down_services.add(service_id)
        self._generation += 1

    def recover_service(self, service_id: str) -> None:
        self._down_services.discard(service_id)
        self._generation += 1

    def service_is_down(self, service_id: str) -> bool:
        """Down explicitly, or stranded on a downed node."""
        if service_id in self._down_services:
            return True
        placement = self.scenario.placement
        return (
            placement.is_placed(service_id)
            and placement.node_of(service_id) in self._down_nodes
        )

    # ------------------------------------------------------------------
    # Gray failures + health monitoring
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Use ``clock`` (virtual time) for health-registry timestamps."""
        self._clock = clock

    def attach_health(self, registry: HealthRegistry) -> None:
        """Route per-attempt outcomes into ``registry``'s breakers."""
        self._health = registry

    @property
    def health(self) -> Optional[HealthRegistry]:
        return self._health

    @property
    def monitoring(self) -> bool:
        """Is per-attempt outcome accounting active this run?"""
        return bool(self._gray_rates) or self._health is not None

    def set_gray_failure(self, service_id: str, rate: float) -> None:
        """Make ``service_id`` silently fail ``rate`` of its attempts.

        Deliberately does *not* bump the fault generation: a gray failure
        is invisible to the planner's liveness filter — only outcome
        reports (and the breaker they feed) can surface it.
        """
        self.scenario.catalog.get(service_id)
        if not 0.0 < rate <= 1.0:
            raise ValidationError("gray failure rate must be in (0, 1]")
        self._gray_rates[service_id] = rate

    def clear_gray_failure(self, service_id: str) -> None:
        self._gray_rates.pop(service_id, None)

    def attempt_chain(self, services: Sequence[str]) -> Optional[str]:
        """Roll one delivery attempt across ``services``.

        Every service on the chain rolls against its gray-failure rate
        (endpoints never fail), and every outcome is reported to the
        attached health registry at the current virtual time.  Returns
        the first service that failed, or ``None`` on a clean pass.
        """
        now = self._clock()
        failed: Optional[str] = None
        for service_id in services:
            if service_id in ENDPOINT_IDS:
                continue
            rate = self._gray_rates.get(service_id, 0.0)
            ok = rate <= 0.0 or self._gray_rng.random() >= rate
            if self._health is not None:
                self._health.report(service_id, ok, now)
            if not ok and failed is None:
                failed = service_id
        return failed

    # ------------------------------------------------------------------
    # Effective capacity
    # ------------------------------------------------------------------
    def effective_capacity(self, link: Link) -> float:
        """Nominal capacity through the fault overlay (0 on downed ends).

        Every overlay change pushes this into the ledger
        (:meth:`~repro.network.reservations.BandwidthLedger.set_capacity`),
        so the ledger holds each link's current capacity and answers the
        fair-share query
        (:meth:`~repro.network.reservations.BandwidthLedger.supply_fraction`).
        """
        if link.a in self._down_nodes or link.b in self._down_nodes:
            return 0.0
        return link.bandwidth_bps * self._factors.get(
            link_key(link.a, link.b), 1.0
        )

    # ------------------------------------------------------------------
    # Planning on the live residual
    # ------------------------------------------------------------------
    def _snapshot_view(self) -> CatalogView:
        """The view for the current (fault, ledger, health) state.

        Remade lazily whenever a generation or the quarantine set moves;
        each new view clears the plan cache, which only reclaims memory
        (the fingerprint keys on the view's content).  The shared
        optimize memo carries solved relaxations across views.
        """
        quarantined: frozenset = frozenset()
        health_generation = 0
        if self._health is not None:
            quarantined = self._health.quarantined(self._clock())
            health_generation = self._health.generation
        key = (
            self._generation,
            self.ledger.generation,
            health_generation,
            quarantined,
        )
        if self._view_key != key:
            self._view = CatalogView(
                excluded=frozenset(
                    descriptor.service_id
                    for descriptor in self.scenario.catalog
                    if self.service_is_down(descriptor.service_id)
                )
                | quarantined,
                topology=self.ledger.residual_topology(),
            )
            self._view_key = key
            self._planner.cache.clear()
        return self._view

    def plan(self, request: PlanRequest) -> Optional[SessionPlan]:
        """Plan one session against the current effective residual state.

        Returns ``None`` for *any* infeasibility — including construction
        errors on a heavily degraded snapshot and policy ``deny`` rules
        (``PolicyDeniedError`` is a ``ReproError``) — so callers treat
        "cannot plan" uniformly instead of unwinding exceptions
        mid-simulation.
        """
        try:
            plan = self._planner.plan(request, self._snapshot_view())
        except ReproError:
            return None
        if not plan.success:
            return None
        return plan

    # ------------------------------------------------------------------
    # Reservations
    # ------------------------------------------------------------------
    def admit(
        self, request: PlanRequest, floor: float = 0.0, label: str = ""
    ) -> Admission:
        """Admit one arrival: plan on the residual, apply ``floor``, reserve.

        A rejected arrival books nothing; an admitted one holds the leases
        :meth:`release` returns on teardown.
        """
        plan = self.plan(request)
        if plan is None:
            return Admission(None, [], "no feasible chain")
        if plan.result.satisfaction < floor:
            return Admission(plan, [], "below floor")
        leases = self.reserve_plan(plan, request, label=label)
        if leases is None:
            return Admission(plan, [], "chain unreservable")
        return Admission(plan, leases)

    def reserve_plan(
        self, plan: SessionPlan, request: PlanRequest, label: str = ""
    ) -> Optional[List[Reservation]]:
        """Reserve every hop of a successful plan; all-or-nothing.

        Each hop routes along the live residual topology's
        :meth:`~repro.network.topology.NetworkTopology.hop_route` (the
        residual already holds the hops before it) and must fit entirely;
        on any failure the hops already taken are rolled back and ``None``
        is returned.
        """
        config = plan.result.configuration
        assert config is not None  # guaranteed by plan.success
        placement = self.scenario.placement
        residual = self.ledger.residual_topology()
        leases: List[Reservation] = []
        for source, target, fmt_name in zip(
            plan.result.path, plan.result.path[1:], plan.result.formats
        ):
            route = residual.hop_route(
                placement.node_for(
                    source, request.sender_node, request.receiver_node
                ),
                placement.node_for(
                    target, request.sender_node, request.receiver_node
                ),
            )
            requirement = config.required_bandwidth(
                self.scenario.registry.get(fmt_name)
            )
            if route is None or not self._fits(route, requirement):
                self.release(leases)
                return None
            try:
                leases.append(
                    self.ledger.reserve(
                        route, requirement, label=label or f"{source}->{target}"
                    )
                )
            except ValidationError:
                self.release(leases)
                return None
        return leases

    def _fits(self, route: Tuple[str, ...], requirement: float) -> bool:
        """Does the route's live residual carry the requirement?

        The ledger validates against nominal capacity, so this extra check
        keeps fault-squeezed links from being over-committed at admission.
        """
        residual = self.ledger.residual_topology()
        return fits_within(requirement, residual.path_bottleneck(route))

    def release(self, leases: List[Reservation]) -> None:
        """Return every lease's bandwidth to the ledger."""
        for lease in leases:
            self.ledger.release(lease)
