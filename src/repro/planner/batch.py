"""Concurrent batch planning over a shared plan cache.

The paper sizes its architecture for a proxy serving *many* clients at
once; planning every arriving session from scratch wastes exactly the work
the cache in :mod:`repro.planner.cache` memoizes.  :class:`BatchPlanner`
pairs the two:

- :meth:`BatchPlanner.plan` fingerprints one request against the current
  infrastructure content and serves it from the cache (single-flight
  on misses).  It is :meth:`BatchPlanner.probe` (policy pass, fingerprint,
  cache probe: an answer or the selector work left) followed by that
  work, so a caller can run the two steps on different threads;
- :meth:`BatchPlanner.plan_batch` fans a whole arrival batch out over a
  :class:`~concurrent.futures.ThreadPoolExecutor`, preserving input order
  in the returned plans.

Planning here is read-only with respect to the infrastructure.  To plan
against reserved capacity, pass a :class:`~repro.core.graph.CatalogView`
over the ledger's residual topology
(:meth:`~repro.network.reservations.BandwidthLedger.residual_topology`):
the fingerprint keys on that topology's content, so every booking changes
the key.  Admission (reserving bandwidth) is the caller's:
:class:`~repro.sim.world.SimWorld` plans through such a view and then
books the plan hop by hop.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.graph import CatalogView
from repro.core.optimizer import OptimizeMemo
from repro.core.parameters import ParameterSet
from repro.formats.registry import FormatRegistry
from repro.network.placement import ServicePlacement
from repro.planner.cache import PlanCache
from repro.policy.engine import PolicyDecision, PolicyEngine, PolicyPlan
from repro.planner.fingerprint import fingerprint_request
from repro.runtime.session import AdaptationSession, PlanRequest, SessionPlan
from repro.services.catalog import ServiceCatalog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.workloads.scenario import Scenario

__all__ = ["PlanAnswer", "PlanRequest", "BatchPlanner"]

#: One planning answer: ``(plan, cache_hit, decision)``.
PlanAnswer = Tuple[
    Union[SessionPlan, PolicyPlan], bool, Optional[PolicyDecision]
]


class BatchPlanner:
    """Plans many sessions concurrently through one shared cache."""

    def __init__(
        self,
        registry: FormatRegistry,
        parameters: ParameterSet,
        catalog: ServiceCatalog,
        placement: ServicePlacement,
        cache: Optional[PlanCache] = None,
        max_workers: Optional[int] = None,
        optimize_memo: Optional[OptimizeMemo] = None,
        policy_engine: Optional[PolicyEngine] = None,
    ) -> None:
        self._registry = registry
        self._parameters = parameters
        self._catalog = catalog
        self._placement = placement
        self._cache = cache if cache is not None else PlanCache()
        self._max_workers = max_workers
        # One optimize() memo shared by every planned session: distinct
        # sessions over the same infrastructure repeat the same
        # (upstream, caps, format) relaxations, so solved ceilings and
        # bisections transfer across the whole batch.
        self._optimize_memo = (
            optimize_memo if optimize_memo is not None else OptimizeMemo()
        )
        # Policy pass ahead of the selector (repro.policy).  Fast-path
        # answers live in the engine's own cache namespace; tier-forced
        # requests plan through a view that masks the other tiers.
        self._policy_engine = policy_engine

    @classmethod
    def for_scenario(cls, scenario: "Scenario", **kwargs) -> "BatchPlanner":
        """A planner over a scenario's registry/parameters/catalog/placement."""
        return cls(
            registry=scenario.registry,
            parameters=scenario.parameters,
            catalog=scenario.catalog,
            placement=scenario.placement,
            **kwargs,
        )

    @property
    def cache(self) -> PlanCache:
        return self._cache

    @property
    def registry(self) -> FormatRegistry:
        """The format registry plans resolve against (group planner needs it)."""
        return self._registry

    @property
    def placement(self) -> ServicePlacement:
        """The service placement (group reservation maps services to nodes)."""
        return self._placement

    @property
    def optimize_memo(self) -> OptimizeMemo:
        """The shared optimize() memo (stats feed :class:`PlannerReport`)."""
        return self._optimize_memo

    @property
    def policy_engine(self) -> Optional[PolicyEngine]:
        return self._policy_engine

    # ------------------------------------------------------------------
    # Single-request planning
    # ------------------------------------------------------------------
    def fingerprint(
        self, request: PlanRequest, view: Optional[CatalogView] = None
    ) -> str:
        return fingerprint_request(request, self._catalog, self._placement, view)

    def plan_uncached(self, request: PlanRequest) -> SessionPlan:
        """Plan one session from scratch (no cache lookup or insert).

        Deliberately bypasses the shared optimize() memo as well: this is
        the from-scratch baseline the batch-planner bench measures against,
        so it must pay full planning cost every time.
        """
        return self._plan_fresh(request, optimize_memo=None)

    def _plan_fresh(
        self,
        request: PlanRequest,
        optimize_memo: Optional[OptimizeMemo],
        view: Optional[CatalogView] = None,
    ) -> SessionPlan:
        return AdaptationSession(
            self._registry,
            self._parameters,
            self._catalog,
            self._placement,
            request,
            # Batch plans carry no trace: a full SelectionTrace per plan is
            # the single largest allocation on the hot path, and the trace
            # is observability only (it never changes the plan).
            record_trace=False,
            optimize_memo=optimize_memo,
            view=view,
        ).plan()

    def plan(
        self, request: PlanRequest, view: Optional[CatalogView] = None
    ) -> Union[SessionPlan, PolicyPlan]:
        """Plan one session through the policy pass and the cache.

        Cache misses compute with the planner's shared optimize() memo, so
        even distinct fingerprints reuse each other's solved relaxations.
        A policy ``skip`` answers without touching the selector at all; a
        ``deny`` raises :class:`~repro.errors.PolicyDeniedError`.
        """
        plan, _hit, _decision = self.plan_with_policy_info(request, view)
        return plan

    def plan_with_policy_info(
        self, request: PlanRequest, view: Optional[CatalogView] = None
    ) -> PlanAnswer:
        """Policy-aware planning: ``(plan, cache_hit, decision)``.

        :meth:`probe`, then the selector work it leaves (if any) on the
        calling thread.
        """
        answer = self.probe(request, view)
        return answer() if callable(answer) else answer

    def probe(
        self, request: PlanRequest, view: Optional[CatalogView] = None
    ) -> Union[PlanAnswer, Callable[[], PlanAnswer]]:
        """Everything short of the selector: an answer, or the work left.

        The policy engine (when configured) is consulted *before* any
        fingerprinting or cache work.  A ``deny`` raises
        :class:`~repro.errors.PolicyDeniedError`; a ``skip`` answers with
        the engine's zero-hop :class:`PolicyPlan`, its hit flag the
        engine's decision cache.  Otherwise the request is fingerprinted
        over ``view`` (for ``force_tier`` with every transcoder of another
        tier masked as well) and probed in the plan cache, and a hit is
        answered here.  A miss returns one callable that runs the cache's
        single-flight compute and answers ``(plan, False, decision)``:
        the serving gateway answers on its event loop and sends only that
        callable to a planning thread.  ``decision`` is ``None`` when no
        rule fired.  The hit flag can only be pessimistic: a concurrent
        leader may insert between probe and compute, and an entry evicted
        after the probe is computed (and counted) as a miss.
        """
        decision: Optional[PolicyDecision] = None
        if self._policy_engine is not None:
            evaluated = self._policy_engine.evaluate(request)
            evaluated.raise_if_denied()
            if evaluated.kind == "skip":
                return evaluated.plan, evaluated.cached, evaluated
            if evaluated.kind == "force_tier":
                decision = evaluated
                view = self._tier_view(evaluated.tier, view)
        fingerprint = self.fingerprint(request, view)
        if fingerprint in self._cache:
            plan = self._cache.get_hit(fingerprint)
            if plan is not None:
                return plan, True, decision

        def select() -> PlanAnswer:
            plan = self._cache.get_or_compute(
                fingerprint,
                lambda: self._plan_fresh(request, self._optimize_memo, view),
            )
            return plan, False, decision

        return select

    def _tier_view(self, tier: str, view: Optional[CatalogView]) -> CatalogView:
        """``view`` with every transcoder outside ``tier`` masked too."""
        view = view or CatalogView()
        other_tiers = frozenset(
            descriptor.service_id
            for descriptor in self._catalog.transcoders()
            if descriptor.tier != tier
        )
        return CatalogView(view.excluded | other_tiers, view.topology)

    # ------------------------------------------------------------------
    # Batch planning
    # ------------------------------------------------------------------
    def plan_batch(
        self,
        requests: Sequence[PlanRequest],
        use_cache: bool = True,
    ) -> List[SessionPlan]:
        """Plan a batch concurrently; plans come back in request order.

        With ``use_cache=False`` every request is planned from scratch — the
        uncached baseline the benchmark compares against.
        """
        if not requests:
            return []
        planner = self.plan if use_cache else self.plan_uncached
        workers = self._max_workers or min(8, len(requests))
        if workers <= 1:
            return [planner(request) for request in requests]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(planner, requests))
