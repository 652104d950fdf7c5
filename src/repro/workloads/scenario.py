"""The scenario bundle: everything one delivery session needs.

A :class:`Scenario` gathers the pieces the paper's pipeline consumes — the
format registry, the QoS parameter set, the service catalog with placement
on a topology, and the profiles — and offers shortcuts to build the graph,
run the selector, or open a full runtime session.  Both the paper scenarios
and the synthetic generator produce this type, so tests, examples, and
benches share one vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.graph import (
    AdaptationGraph,
    AdaptationGraphBuilder,
    CatalogView,
)
from repro.core.parameters import ParameterSet
from repro.core.selection import QoSPathSelector, SelectionResult, TieBreakPolicy
from repro.formats.registry import FormatRegistry
from repro.network.placement import ServicePlacement
from repro.network.topology import NetworkTopology
from repro.policy.document import PolicyDocument
from repro.profiles.content import ContentProfile
from repro.profiles.context import ContextProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.user import UserProfile
from repro.runtime.session import AdaptationSession, PlanRequest
from repro.services.catalog import ServiceCatalog

__all__ = ["Scenario"]


@dataclass
class Scenario:
    """A complete, self-consistent content-adaptation scenario."""

    name: str
    registry: FormatRegistry
    parameters: ParameterSet
    catalog: ServiceCatalog
    topology: NetworkTopology
    placement: ServicePlacement
    content: ContentProfile
    device: DeviceProfile
    user: UserProfile
    sender_node: str
    receiver_node: str
    context: Optional[ContextProfile] = None
    description: str = ""
    #: Optional pre-planning policy evaluated before the selector
    #: (see :mod:`repro.policy`); ``None`` means every request plans.
    policy: Optional[PolicyDocument] = None

    # ------------------------------------------------------------------
    # Shortcuts
    # ------------------------------------------------------------------
    def build_graph(self) -> AdaptationGraph:
        """Construct the (unpruned) adaptation graph for this scenario."""
        builder = AdaptationGraphBuilder(self.catalog, self.placement)
        return builder.build(
            content=self.content,
            device=self.device,
            sender_node=self.sender_node,
            receiver_node=self.receiver_node,
            context_caps=(
                self.context.parameter_caps() if self.context is not None else None
            ),
        )

    def selector(
        self,
        graph: Optional[AdaptationGraph] = None,
        tie_break: TieBreakPolicy = TieBreakPolicy.PAPER,
        record_trace: bool = True,
    ) -> QoSPathSelector:
        """A ready-to-run selector over this scenario's graph."""
        return QoSPathSelector.for_user(
            graph=graph if graph is not None else self.build_graph(),
            registry=self.registry,
            parameters=self.parameters,
            user=self.user,
            tie_break=tie_break,
            record_trace=record_trace,
        )

    def select(self, **kwargs) -> SelectionResult:
        """Build the graph and run the selector in one step."""
        return self.selector(**kwargs).run()

    def request(self, device: Optional[DeviceProfile] = None) -> PlanRequest:
        """This scenario's planning request, optionally for another device."""
        return PlanRequest(
            content=self.content,
            device=device if device is not None else self.device,
            user=self.user,
            sender_node=self.sender_node,
            receiver_node=self.receiver_node,
            context=self.context,
        )

    def session(
        self,
        prune: bool = True,
        record_trace: bool = True,
        view: Optional[CatalogView] = None,
    ) -> AdaptationSession:
        """A full runtime session over this scenario's request."""
        return AdaptationSession(
            self.registry,
            self.parameters,
            self.catalog,
            self.placement,
            self.request(),
            prune=prune,
            record_trace=record_trace,
            view=view,
        )
