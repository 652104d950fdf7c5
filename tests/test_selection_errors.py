"""Error paths of graph construction and path selection.

The failure modes the happy-path tests never visit: infeasible budgets,
delay bounds nothing can meet, receivers no service chain can reach,
malformed graphs, and lookups of unknown vertices.  Each asserts the
*specific* exception type from :mod:`repro.errors`.
"""

from __future__ import annotations

import pytest

from repro.core.graph import AdaptationGraph, AdaptationGraphBuilder, Vertex
from repro.core.pruning import GraphPruner
from repro.core.selection import QoSPathSelector, build_chain
from repro.errors import (
    GraphConstructionError,
    NoPathError,
    UnknownServiceError,
)
from repro.profiles.device import DeviceProfile
from repro.profiles.user import UserProfile
from repro.core.satisfaction import LinearSatisfaction
from repro.core.parameters import FRAME_RATE
from repro.services.descriptor import ServiceDescriptor, ServiceKind


def _user(**overrides) -> UserProfile:
    kwargs = dict(
        user_id="edge-case-user",
        satisfaction_functions={FRAME_RATE: LinearSatisfaction(0.0, 30.0)},
    )
    kwargs.update(overrides)
    return UserProfile(**kwargs)


def _select(scenario, graph, user):
    return QoSPathSelector.for_user(
        graph, scenario.registry, scenario.parameters, user
    )


# ----------------------------------------------------------------------
# Selection failures (Figure 4's Step 3 exit)
# ----------------------------------------------------------------------


def test_zero_budget_fails_selection(fig6):
    # Every chain in Figure 6 costs money, so budget 0 starves the
    # candidate set before the receiver settles.
    graph = fig6.build_graph()
    result = _select(fig6, graph, _user(budget=0.0)).run()
    assert not result.success
    assert result.configuration is None
    assert "candidate set exhausted" in result.failure_reason


def test_unmeetable_delay_bound_fails_selection(fig6):
    graph = fig6.build_graph()
    result = _select(fig6, graph, _user(max_delay_ms=1e-6)).run()
    assert not result.success
    assert "candidate set exhausted" in result.failure_reason


def test_undecodable_receiver_is_unreachable(fig6):
    # A device that only decodes a format no catalog service produces.
    device = DeviceProfile(device_id="alien", decoders=["no-such-format"])
    graph = AdaptationGraphBuilder(fig6.catalog, fig6.placement).build(
        content=fig6.content,
        device=device,
        sender_node=fig6.sender_node,
        receiver_node=fig6.receiver_node,
    )
    result = _select(fig6, graph, _user()).run()
    assert not result.success
    assert "candidate set exhausted" in result.failure_reason


def test_pruning_an_unreachable_graph_keeps_only_endpoints(fig6):
    device = DeviceProfile(device_id="alien", decoders=["no-such-format"])
    graph = AdaptationGraphBuilder(fig6.catalog, fig6.placement).build(
        content=fig6.content,
        device=device,
        sender_node=fig6.sender_node,
        receiver_node=fig6.receiver_node,
    )
    pruned, report = GraphPruner().prune(graph)
    # Endpoints always survive; everything else is dead weight here.
    assert pruned.vertex_ids() == ["sender", "receiver"] or set(
        pruned.vertex_ids()
    ) == {"sender", "receiver"}
    assert pruned.edge_count() == 0
    assert report.vertices_after == 2
    result = _select(fig6, pruned, _user()).run()
    assert not result.success
    assert result.rounds_run == 0


def test_build_chain_on_failure_raises_no_path(fig6):
    graph = fig6.build_graph()
    result = _select(fig6, graph, _user(budget=0.0)).run()
    assert not result.success
    with pytest.raises(NoPathError):
        build_chain(graph, result)


# ----------------------------------------------------------------------
# Graph construction errors
# ----------------------------------------------------------------------


def test_unknown_sender_node_raises(fig6):
    builder = AdaptationGraphBuilder(fig6.catalog, fig6.placement)
    with pytest.raises(GraphConstructionError):
        builder.build(
            content=fig6.content,
            device=fig6.device,
            sender_node="no-such-node",
            receiver_node=fig6.receiver_node,
        )


def test_unknown_receiver_node_raises(fig6):
    builder = AdaptationGraphBuilder(fig6.catalog, fig6.placement)
    with pytest.raises(GraphConstructionError):
        builder.build(
            content=fig6.content,
            device=fig6.device,
            sender_node=fig6.sender_node,
            receiver_node="no-such-node",
        )


def test_endpoint_id_colliding_with_catalog_service_raises(fig6):
    builder = AdaptationGraphBuilder(fig6.catalog, fig6.placement)
    colliding_id = fig6.catalog.ids()[0]
    with pytest.raises(GraphConstructionError):
        builder.build(
            content=fig6.content,
            device=fig6.device,
            sender_node=fig6.sender_node,
            receiver_node=fig6.receiver_node,
            sender_id=colliding_id,
        )


def _pseudo_vertex(service_id: str, kind: ServiceKind) -> Vertex:
    return Vertex(
        service=ServiceDescriptor(
            service_id=service_id,
            input_formats=("f",) if kind is not ServiceKind.SENDER else (),
            output_formats=("f",) if kind is not ServiceKind.RECEIVER else (),
            kind=kind,
        ),
        node_id="n",
    )


def test_duplicate_vertex_raises():
    sender = _pseudo_vertex("sender", ServiceKind.SENDER)
    receiver = _pseudo_vertex("receiver", ServiceKind.RECEIVER)
    with pytest.raises(GraphConstructionError):
        AdaptationGraph([sender, sender, receiver], [], "sender", "receiver")


def test_missing_endpoint_vertex_raises():
    sender = _pseudo_vertex("sender", ServiceKind.SENDER)
    with pytest.raises(GraphConstructionError):
        AdaptationGraph([sender], [], "sender", "receiver")


# ----------------------------------------------------------------------
# Unknown-vertex lookups
# ----------------------------------------------------------------------


def test_unknown_vertex_lookups_raise(fig6):
    graph = fig6.build_graph()
    with pytest.raises(UnknownServiceError):
        graph.vertex("no-such-service")
    with pytest.raises(UnknownServiceError):
        graph.out_edges("no-such-service")
    with pytest.raises(UnknownServiceError):
        graph.in_edges("no-such-service")


def test_unknown_catalog_lookups_raise(fig6):
    with pytest.raises(UnknownServiceError):
        fig6.catalog.get("no-such-service")
