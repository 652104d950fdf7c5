"""Adaptation sessions: the whole framework in one call.

An :class:`AdaptationSession` wires the paper's full pipeline together:

1. take one :class:`PlanRequest` (the user, content, context and device
   profiles plus the sender and receiver nodes) against the shared
   network and intermediaries (catalog + placement);
2. construct the adaptation graph (Section 4.2);
3. prune it (Section 4's optimization pass);
4. run the QoS path-selection algorithm (Section 4.4);
5. optionally stream the selected chain and report delivery metrics.

This is the class downstream users touch first; the examples are built on
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.graph import AdaptationGraphBuilder, CatalogView
from repro.core.parameters import ParameterSet
from repro.core.pruning import GraphPruner, PruningReport
from repro.core.selection import (
    QoSPathSelector,
    SelectionResult,
    build_chain,
)
from repro.errors import NoPathError
from repro.formats.registry import FormatRegistry
from repro.network.bandwidth import BandwidthEstimator, FluctuationModel
from repro.network.placement import ServicePlacement
from repro.profiles.content import ContentProfile
from repro.profiles.context import ContextProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.user import UserProfile
from repro.runtime.events import EventLog
from repro.runtime.metrics import DeliveryReport
from repro.runtime.pipeline import DeliveryPipeline
from repro.services.catalog import ServiceCatalog
from repro.services.chains import AdaptationChain
from repro.services.descriptor import ServiceDescriptor

__all__ = ["PlanRequest", "SessionPlan", "AdaptationSession"]


@dataclass(frozen=True)
class PlanRequest:
    """One session to plan: profiles plus endpoints."""

    content: ContentProfile
    device: DeviceProfile
    user: UserProfile
    sender_node: str
    receiver_node: str
    context: Optional[ContextProfile] = None
    peer: Optional[str] = None


@dataclass(frozen=True)
class SessionPlan:
    """What the planning phase keeps: the selector's answer and the
    pruning counts, plus the service descriptors along ``result.path``
    (sender and receiver included; empty on FAILURE) that :meth:`chain`
    needs.

    The adaptation graph is scaffolding for one selector run and is not
    kept: a cached or held plan costs its chain, not its graph.
    """

    pruning: PruningReport
    result: SelectionResult
    services: Tuple[ServiceDescriptor, ...]

    @property
    def success(self) -> bool:
        return self.result.success

    def chain(self) -> AdaptationChain:
        """The selected chain as an executable object (success only)."""
        return build_chain(self.services, self.result)


class AdaptationSession:
    """One content-delivery session for one user on one device."""

    def __init__(
        self,
        registry: FormatRegistry,
        parameters: ParameterSet,
        catalog: ServiceCatalog,
        placement: ServicePlacement,
        request: PlanRequest,
        *,
        prune: bool = True,
        record_trace: bool = True,
        optimize_memo=None,
        view: Optional[CatalogView] = None,
    ) -> None:
        self._registry = registry
        self._parameters = parameters
        self._catalog = catalog
        self._placement = placement
        self._request = request
        self._prune = prune
        self._record_trace = record_trace
        #: Optional shared :class:`~repro.core.optimizer.OptimizeMemo`;
        #: lets a batch planner reuse solved relaxations across sessions.
        self._optimize_memo = optimize_memo
        #: Optional :class:`~repro.core.graph.CatalogView` to plan through.
        self._view = view

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self) -> SessionPlan:
        """Run graph construction, pruning, and path selection.

        Always plans afresh; memoizing plans is
        :class:`~repro.planner.batch.BatchPlanner`'s job.
        """
        request = self._request
        builder = AdaptationGraphBuilder(self._catalog, self._placement)
        graph = builder.build(
            content=request.content,
            device=request.device,
            sender_node=request.sender_node,
            receiver_node=request.receiver_node,
            context_caps=(
                request.context.parameter_caps()
                if request.context is not None
                else None
            ),
            view=self._view,
        )
        if self._prune:
            graph, report = GraphPruner().prune(graph)
        else:
            report = PruningReport(
                vertices_before=len(graph),
                vertices_after=len(graph),
                edges_before=graph.edge_count(),
                edges_after=graph.edge_count(),
            )
        selector = QoSPathSelector.for_user(
            graph=graph,
            registry=self._registry,
            parameters=self._parameters,
            user=request.user,
            peer=request.peer,
            record_trace=self._record_trace,
            optimize_memo=self._optimize_memo,
        )
        result = selector.run()
        return SessionPlan(
            pruning=report,
            result=result,
            services=graph.services_along(result.path),
        )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliver(
        self,
        plan: SessionPlan,
        duration_s: float = 30.0,
        fluctuation: Optional[FluctuationModel] = None,
        seed: int = 0,
        events: Optional[EventLog] = None,
    ) -> DeliveryReport:
        """Stream the planned chain and report what the receiver saw."""
        if not plan.success:
            raise NoPathError(plan.result.failure_reason)
        configuration = plan.result.configuration
        if configuration is None:
            raise NoPathError("plan carries no delivered configuration")
        pipeline = DeliveryPipeline(
            placement=self._placement,
            registry=self._registry,
            estimator=BandwidthEstimator(self._placement.topology, fluctuation),
            seed=seed,
        )
        return pipeline.stream(
            chain=plan.chain(),
            configuration=configuration,
            score=self._request.user.satisfaction(self._request.peer).score,
            sender_node=self._request.sender_node,
            receiver_node=self._request.receiver_node,
            duration_s=duration_s,
            events=events,
        )
