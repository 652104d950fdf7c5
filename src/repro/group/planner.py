"""The group planner: one shared tree per (content, receiver-class-set).

:class:`GroupPlanner` sits on top of the existing per-session machinery —
the heap selector via :class:`~repro.planner.batch.BatchPlanner`, the
shared :class:`~repro.core.optimizer.OptimizeMemo`, the per-session
:class:`~repro.planner.cache.PlanCache` — and adds exactly two things:

1. a *trie merge* of the per-class standalone-optimal chains into a
   :class:`~repro.group.tree.SharedAdaptationTree` (prefix sharing, see
   ``docs/ALGORITHM.md`` §9);
2. a **tree cache**: whole group plans memoized under a combined
   fingerprint (:func:`repro.planner.combine_fingerprints`) so a
   repeated group against an unchanged world costs one dict lookup.

Work therefore scales with the number of *distinct receiver classes*, not
with the number of sessions: 1000 sessions in 32 classes cost 32 selector
runs (often fewer, through the per-session plan cache) and one tree
merge, and bandwidth is reserved once per tree edge via
:meth:`~repro.network.reservations.BandwidthLedger.reserve_group` — the
sublinearity the E22 benchmark (``bench_group_planner.py``) gates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.graph import CatalogView
from repro.errors import ValidationError
from repro.group.request import GroupRequest
from repro.group.tree import SharedAdaptationTree, build_shared_tree
from repro.network.reservations import (
    BandwidthLedger,
    EdgeDemand,
    Reservation,
)
from repro.planner.batch import BatchPlanner, PlanRequest
from repro.planner.cache import PlanCache
from repro.planner.fingerprint import combine_fingerprints
from repro.runtime.session import SessionPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.workloads.scenario import Scenario

__all__ = ["GroupPlan", "GroupPlanner"]


@dataclass(frozen=True)
class GroupPlan:
    """One planned group: the shared tree plus roll-up accounting."""

    tree: SharedAdaptationTree
    #: Receiver classes in the request (feasible branches + fallbacks).
    class_count: int
    #: Live sessions across every class.
    total_sessions: int

    @property
    def success(self) -> bool:
        """At least one class got its standalone-optimal branch."""
        return bool(self.tree.branches)

    @property
    def fallback_count(self) -> int:
        return len(self.tree.fallbacks)

    def optimize_calls(self) -> int:
        """Optimize() invocations spent across the planned branches."""
        return sum(
            branch.result.stats.optimize_calls
            for branch in self.tree.branches
            if branch.result.stats is not None
        )

    def satisfaction_by_class(self) -> Dict[str, float]:
        return {
            branch.class_id: branch.satisfaction
            for branch in self.tree.branches
        }


class GroupPlanner:
    """Plans shared adaptation trees through a content-keyed tree cache."""

    def __init__(self, batch: BatchPlanner) -> None:
        self._batch = batch
        self._tree_cache = PlanCache(max_entries=256)

    @classmethod
    def for_scenario(cls, scenario: "Scenario") -> "GroupPlanner":
        """A group planner over a fresh batch planner for ``scenario``."""
        return cls(BatchPlanner.for_scenario(scenario))

    @property
    def batch(self) -> BatchPlanner:
        return self._batch

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def _plan_request(self, request: GroupRequest, receiver) -> PlanRequest:
        return PlanRequest(
            content=request.content,
            device=receiver.device,
            user=request.user,
            sender_node=request.sender_node,
            receiver_node=request.receiver_node,
            context=request.context,
        )

    def fingerprint(
        self, request: GroupRequest, view: Optional[CatalogView] = None
    ) -> str:
        """The tree-cache key: the combined per-class fingerprints.

        Receiver order is canonicalized (sorted by class_id), so the same
        class set in any order hits the same tree.  Each member
        fingerprint covers the infrastructure content and the ``view``,
        so any catalog / topology / placement / reservation change, and
        any other view, misses and recomputes.
        """
        parts = tuple(
            (
                receiver.class_id,
                receiver.sessions,
                self._batch.fingerprint(
                    self._plan_request(request, receiver), view
                ),
            )
            for receiver in sorted(
                request.receivers, key=lambda r: r.class_id
            )
        )
        return combine_fingerprints(parts)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _build(
        self,
        request: GroupRequest,
        use_cache: bool,
        view: Optional[CatalogView] = None,
    ) -> GroupPlan:
        results = {}
        sessions = {}
        for receiver in request.receivers:
            plan_request = self._plan_request(request, receiver)
            plan: SessionPlan = (
                self._batch.plan(plan_request, view)
                if use_cache
                else self._batch.plan_uncached(plan_request)
            )
            results[receiver.class_id] = plan.result
            sessions[receiver.class_id] = receiver.sessions
        tree = build_shared_tree(results, sessions, self._batch.registry)
        return GroupPlan(
            tree=tree,
            class_count=len(request.receivers),
            total_sessions=request.total_sessions,
        )

    def plan_uncached(self, request: GroupRequest) -> GroupPlan:
        """Plan the group from scratch: no tree cache, no plan cache, no
        memo — the honest from-zero cost of one tree."""
        return self._build(request, use_cache=False)

    def plan(
        self, request: GroupRequest, view: Optional[CatalogView] = None
    ) -> GroupPlan:
        """Plan one group through the tree cache (single-flight on miss).

        Misses plan each distinct class through the batch planner's
        per-session cache and shared optimize memo, then merge once.
        ``view`` masks services out of every class's graph.
        """
        plan, _hit = self.plan_with_cache_info(request, view)
        return plan

    def plan_with_cache_info(
        self, request: GroupRequest, view: Optional[CatalogView] = None
    ) -> Tuple[GroupPlan, bool]:
        """Like :meth:`plan`, also reporting whether the tree was cached."""
        fingerprint = self.fingerprint(request, view)
        hit = fingerprint in self._tree_cache
        plan = self._tree_cache.get_or_compute(
            fingerprint, lambda: self._build(request, use_cache=True, view=view)
        )
        return plan, hit

    # ------------------------------------------------------------------
    # Reservation
    # ------------------------------------------------------------------
    def reserve(
        self,
        plan: GroupPlan,
        ledger: BandwidthLedger,
        sender_node: str,
        receiver_node: str,
        label: str = "group",
    ) -> List[Reservation]:
        """Reserve the tree's bandwidth: once per edge, all-or-nothing.

        Each tree edge maps to a node route exactly as per-session
        admission maps a chain hop
        (:meth:`~repro.network.placement.ServicePlacement.node_for`, then
        the residual's
        :meth:`~repro.network.topology.NetworkTopology.hop_route`); the
        whole set then goes through
        :meth:`BandwidthLedger.reserve_group`, so a mid-tree capacity
        failure releases every edge already held.  Every route is chosen
        on the ledger's live residual topology before the group claims
        anything, so all see the same residuals; the claim itself
        re-validates cumulatively.
        """
        if not plan.tree.edges:
            raise ValidationError("group plan has no tree edges to reserve")
        placement = self._batch.placement
        residual = ledger.residual_topology()
        demands: List[EdgeDemand] = []
        for edge in plan.tree.edges:
            source_node = placement.node_for(edge.source, sender_node, receiver_node)
            target_node = placement.node_for(edge.target, sender_node, receiver_node)
            route = residual.hop_route(source_node, target_node)
            if route is None:
                raise ValidationError(
                    f"no route {source_node} -> {target_node} for tree "
                    f"edge {edge.source}->{edge.target}"
                )
            demands.append(
                EdgeDemand(
                    route=route,
                    bandwidth_bps=edge.bandwidth_bps,
                    label=f"{label}:{edge.source}->{edge.target}@{edge.depth}",
                )
            )
        return ledger.reserve_group(demands, label=label)
