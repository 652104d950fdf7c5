"""End-to-end integration tests across all subsystems.

Each test exercises a full slice of the framework the way a downstream
application would: discovery feeds profiles, profiles feed graph
construction, selection plans a chain, transcoders execute it, and the
pipeline streams it.
"""

from __future__ import annotations

import pytest

from repro.core.configuration import Configuration
from repro.core.parameters import (
    COLOR_DEPTH,
    FRAME_RATE,
    RESOLUTION,
    ContinuousDomain,
    DiscreteDomain,
    Parameter,
    ParameterSet,
)
from repro.core.satisfaction import LinearSatisfaction
from repro.core.selection import QoSPathSelector, build_chain
from repro.discovery.slp import DirectoryAgent, ServiceAgent, UserAgent
from repro.core.graph import AdaptationGraphBuilder
from repro.formats.format import MediaFormat, MediaType
from repro.formats.registry import FormatRegistry
from repro.formats.variants import ContentVariant
from repro.network.topology import NetworkTopology
from repro.profiles.content import ContentProfile
from repro.profiles.context import ContextProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.intermediary import merge_intermediaries
from repro.profiles.serialization import profile_from_dict, profile_to_dict
from repro.profiles.user import UserProfile
from repro.runtime.session import AdaptationSession
from repro.services.descriptor import ServiceDescriptor
from repro.workloads.paper import figure6_scenario
from repro.workloads.scenario import Scenario


def test_discovery_to_delivery_round_trip():
    """SLP advertisement -> intermediary profiles -> graph -> chain ->
    executed transcoding, in one flow."""
    raw_bits = 76800.0 * 24.0
    registry = FormatRegistry()
    registry.define("mpeg2", compression_ratio=20.0)
    registry.define("h263", compression_ratio=80.0)

    topology = NetworkTopology()
    for node in ("origin", "proxy", "phone"):
        topology.node(node)
    topology.link("origin", "proxy", 8e6, delay_ms=5.0)
    topology.link("proxy", "phone", 1e6, delay_ms=20.0)

    # The proxy advertises one mpeg2 -> h263 transcoder over SLP.
    directory = DirectoryAgent()
    agent = ServiceAgent("proxy", directory)
    agent.register(
        ServiceDescriptor(
            service_id="mobile-transcoder",
            input_formats=("mpeg2",),
            output_formats=("h263",),
            output_caps={FRAME_RATE: 24.0},
            cost=0.5,
        )
    )
    reply = UserAgent("phone-user", directory).find(output_format="h263")
    assert reply.urls == ["service:transcoder:mobile-transcoder@proxy"]

    profiles = directory.registry.intermediary_profiles(topology)
    catalog, placement = merge_intermediaries(profiles, topology)

    content = ContentProfile(
        content_id="news",
        variants=[
            ContentVariant(
                format=registry.get("mpeg2"),
                configuration=Configuration(
                    {FRAME_RATE: 30.0, RESOLUTION: 76800.0, COLOR_DEPTH: 24.0}
                ),
                title="evening news",
            )
        ],
    )
    device = DeviceProfile(
        device_id="phone", decoders=["h263"], max_frame_rate=20.0
    )
    parameters = ParameterSet(
        [
            Parameter(FRAME_RATE, "fps", ContinuousDomain(0.0, 60.0)),
            Parameter(RESOLUTION, "pixels", DiscreteDomain([76800.0])),
            Parameter(COLOR_DEPTH, "bits", DiscreteDomain([24.0])),
        ]
    )
    graph = AdaptationGraphBuilder(catalog, placement).build(
        content, device, "origin", "phone"
    )
    user = UserProfile(
        user_id="viewer",
        satisfaction_functions={FRAME_RATE: LinearSatisfaction(0.0, 30.0)},
        budget=10.0,
    )
    result = QoSPathSelector.for_user(graph, registry, parameters, user).run()
    assert result.success
    assert result.path == ("sender", "mobile-transcoder", "receiver")
    # Device cap (20 fps) binds before the transcoder cap (24).
    assert result.delivered_frame_rate == pytest.approx(20.0)

    # Execute the chain with the synthetic transcoders.
    chain = build_chain(graph.services_along(result.path), result)
    delivered = chain.execute(content.variant_for("mpeg2"), registry)
    assert delivered.format.name == "h263"
    assert delivered.configuration[FRAME_RATE] <= 24.0


def test_context_profile_changes_the_plan(fig6):
    """A driving context kills video, collapsing satisfaction to zero."""
    quiet_plan = fig6.session(prune=False).plan()
    driving = Scenario(
        name="fig6-driving",
        registry=fig6.registry,
        parameters=fig6.parameters,
        catalog=fig6.catalog,
        topology=fig6.topology,
        placement=fig6.placement,
        content=fig6.content,
        device=fig6.device,
        user=fig6.user,
        sender_node=fig6.sender_node,
        receiver_node=fig6.receiver_node,
        context=ContextProfile(activity="driving"),
    )
    driving_plan = driving.session(prune=False).plan()
    assert quiet_plan.result.satisfaction > 0.6
    assert driving_plan.result.satisfaction == 0.0


def test_profiles_survive_serialization_into_a_working_session(fig6):
    """Serialize the user/device/content profiles, rebuild them, and get
    the identical selection result."""
    user = profile_from_dict(profile_to_dict(fig6.user))
    device = profile_from_dict(profile_to_dict(fig6.device))
    content = profile_from_dict(profile_to_dict(fig6.content), fig6.registry)
    rebuilt = Scenario(
        name="fig6-rebuilt",
        registry=fig6.registry,
        parameters=fig6.parameters,
        catalog=fig6.catalog,
        topology=fig6.topology,
        placement=fig6.placement,
        content=content,
        device=device,
        user=user,
        sender_node=fig6.sender_node,
        receiver_node=fig6.receiver_node,
    )
    original = fig6.select()
    replayed = rebuilt.select()
    assert replayed.path == original.path
    assert replayed.satisfaction == pytest.approx(original.satisfaction)


def test_chain_execution_agrees_with_planned_configuration(fig6):
    """Running the synthetic transcoders over the selected chain delivers
    at least the planned quality (the plan is bandwidth-limited, the
    executable transcoders only enforce caps)."""
    plan = fig6.session(prune=False).plan()
    chain = plan.chain()
    source = fig6.content.variant_for("F0")
    delivered = chain.execute(source, fig6.registry)
    planned = plan.result.configuration
    assert delivered.configuration[FRAME_RATE] >= planned[FRAME_RATE] - 1e-9
    assert delivered.format.name == plan.result.formats[-1]


def test_peer_specific_preferences_change_satisfaction(fig6):
    """The paper's 'CD quality for clients, telephone quality for
    colleagues' example, at the selection level."""
    demanding = UserProfile(
        user_id="rep",
        satisfaction_functions={FRAME_RATE: LinearSatisfaction(0.0, 30.0)},
        peer_overrides={
            "client": {FRAME_RATE: LinearSatisfaction(0.0, 60.0)}
        },
        budget=100.0,
    )
    graph = fig6.build_graph()
    colleague = QoSPathSelector.for_user(
        graph, fig6.registry, fig6.parameters, demanding
    ).run()
    client = QoSPathSelector.for_user(
        graph, fig6.registry, fig6.parameters, demanding, peer="client"
    ).run()
    # Same delivered stream, judged more harshly against the client ideal.
    assert client.delivered_frame_rate == pytest.approx(
        colleague.delivered_frame_rate
    )
    assert client.satisfaction < colleague.satisfaction
