"""Unit tests for adaptation-graph construction (Section 4.2)."""

from __future__ import annotations

import math

import pytest

from repro.core.configuration import Configuration
from repro.core.graph import (
    AdaptationGraph,
    AdaptationGraphBuilder,
    CatalogView,
    Edge,
    Vertex,
)
from repro.core.parameters import FRAME_RATE
from repro.core.pruning import GraphPruner, PruningReport
from repro.errors import GraphConstructionError, UnknownNodeError, UnknownServiceError
from repro.formats.format import MediaFormat
from repro.formats.variants import ContentVariant
from repro.network.placement import ServicePlacement
from repro.network.topology import NetworkTopology
from repro.profiles.content import ContentProfile
from repro.profiles.device import DeviceProfile
from repro.services.catalog import ServiceCatalog, service_sort_key
from repro.services.descriptor import ServiceDescriptor
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


def simple_world(
    heavy_service: bool = False,
    context_caps=None,
    view=None,
):
    """sender --F0--> T1 --F1--> receiver, plus a dead-end T2."""
    topology = NetworkTopology()
    topology.node("ns")
    topology.node("n1", memory_mb=32.0 if heavy_service else 1024.0)
    topology.node("n2")
    topology.node("nr")
    topology.link("ns", "n1", 5e6)
    topology.link("ns", "n2", 1e6)
    topology.link("n1", "nr", 3e6)

    catalog = ServiceCatalog(
        [
            ServiceDescriptor(
                service_id="T1",
                input_formats=("F0",),
                output_formats=("F1",),
                memory_mb=64.0,
                cost=1.0,
            ),
            ServiceDescriptor(
                service_id="T2",
                input_formats=("F0",),
                output_formats=("F9",),  # nobody consumes F9
                cost=1.0,
            ),
        ]
    )
    placement = ServicePlacement(topology, {"T1": "n1", "T2": "n2"})
    content = ContentProfile(
        content_id="c",
        variants=[
            ContentVariant(
                format=MediaFormat(name="F0", compression_ratio=10.0),
                configuration=Configuration({FRAME_RATE: 30.0}),
            )
        ],
    )
    device = DeviceProfile(device_id="d", decoders=["F1"], max_frame_rate=25.0)
    builder = AdaptationGraphBuilder(catalog, placement)
    graph = builder.build(
        content=content,
        device=device,
        sender_node="ns",
        receiver_node="nr",
        context_caps=context_caps,
        view=view,
    )
    return graph


class TestConstruction:
    def test_endpoint_vertices_exist(self):
        graph = simple_world()
        assert graph.sender.is_sender
        assert graph.receiver.is_receiver
        assert graph.sender_id == "sender"
        assert graph.receiver_id == "receiver"

    def test_sender_carries_variant_configurations(self):
        graph = simple_world()
        assert "F0" in graph.sender.source_configurations
        assert graph.sender.source_configurations["F0"][FRAME_RATE] == 30.0

    def test_edges_follow_format_matches(self):
        graph = simple_world()
        edge_views = {(e.source, e.target, e.format_name) for e in graph.edges()}
        assert ("sender", "T1", "F0") in edge_views
        assert ("sender", "T2", "F0") in edge_views
        assert ("T1", "receiver", "F1") in edge_views
        # T2's F9 output matches nobody.
        assert not any(e.format_name == "F9" for e in graph.edges())

    def test_edge_bandwidth_from_topology(self):
        graph = simple_world()
        edge = next(e for e in graph.edges() if e.target == "T1")
        assert edge.bandwidth_bps == 5e6

    def test_multi_hop_edge_sums_its_route(self):
        topology = NetworkTopology()
        for node_id in ("ns", "hop", "n1", "nr"):
            topology.node(node_id)
        topology.link("ns", "hop", 5e6, delay_ms=2.5, cost=0.1)
        topology.link("hop", "n1", 4e6, delay_ms=7.0, cost=0.2)
        topology.link("n1", "nr", 3e6, delay_ms=1.0, cost=0.3)
        catalog = ServiceCatalog(
            [
                ServiceDescriptor(
                    service_id="T1", input_formats=("F0",), output_formats=("F1",)
                )
            ]
        )
        placement = ServicePlacement(topology, {"T1": "n1"})
        content = ContentProfile(
            content_id="c",
            variants=[
                ContentVariant(
                    format=MediaFormat(name="F0"),
                    configuration=Configuration({FRAME_RATE: 1.0}),
                )
            ],
        )
        device = DeviceProfile(device_id="d", decoders=["F1"])
        graph = AdaptationGraphBuilder(catalog, placement).build(
            content, device, "ns", "nr"
        )
        (edge,) = graph.out_edges("sender")
        route = ["ns", "hop", "n1"]
        assert (edge.bandwidth_bps, edge.transmission_cost, edge.delay_ms) == (
            4e6,
            topology.path_cost(route),
            topology.path_delay_ms(route),
        )
        assert edge.transmission_cost == pytest.approx(0.3)
        assert edge.delay_ms == 9.5
        (edge,) = graph.in_edges("receiver")
        assert (edge.bandwidth_bps, edge.transmission_cost, edge.delay_ms) == (
            3e6,
            0.3,
            1.0,
        )

    def test_receiver_caps_include_device_limits(self):
        graph = simple_world()
        assert graph.receiver.service.output_caps[FRAME_RATE] == 25.0

    def test_context_caps_tighten_receiver(self):
        graph = simple_world(context_caps={FRAME_RATE: 10.0})
        assert graph.receiver.service.output_caps[FRAME_RATE] == 10.0

    def test_context_caps_cannot_loosen(self):
        graph = simple_world(context_caps={FRAME_RATE: 99.0})
        assert graph.receiver.service.output_caps[FRAME_RATE] == 25.0

    def test_resource_check_excludes_oversized_services(self):
        graph = simple_world(heavy_service=True)  # n1 has 32 MB, T1 needs 64
        assert "T1" not in graph

    def test_view_topology_missing_a_service_host_rejected(self):
        partial = NetworkTopology()
        for node_id in ("ns", "n2", "nr"):  # T1's host n1 is missing
            partial.node(node_id)
        with pytest.raises(UnknownNodeError) as raised:
            simple_world(view=CatalogView(topology=partial))
        assert raised.value.node_id == "n1"

    def test_unknown_endpoint_node_rejected(self):
        topology = NetworkTopology()
        topology.node("ns")
        catalog = ServiceCatalog()
        placement = ServicePlacement(topology)
        builder = AdaptationGraphBuilder(catalog, placement)
        content = ContentProfile(
            content_id="c",
            variants=[
                ContentVariant(
                    format=MediaFormat(name="F0"),
                    configuration=Configuration({FRAME_RATE: 1.0}),
                )
            ],
        )
        device = DeviceProfile(device_id="d", decoders=["F0"])
        with pytest.raises(GraphConstructionError):
            builder.build(content, device, "ns", "ghost")

    def test_co_located_services_get_unlimited_bandwidth(self):
        topology = NetworkTopology()
        topology.node("ns")
        topology.node("shared")
        topology.node("nr")
        topology.link("ns", "shared", 1e6)
        topology.link("shared", "nr", 1e6)
        catalog = ServiceCatalog(
            [
                ServiceDescriptor(
                    service_id="A", input_formats=("F0",), output_formats=("F1",)
                ),
                ServiceDescriptor(
                    service_id="B", input_formats=("F1",), output_formats=("F2",)
                ),
            ]
        )
        placement = ServicePlacement(topology, {"A": "shared", "B": "shared"})
        content = ContentProfile(
            content_id="c",
            variants=[
                ContentVariant(
                    format=MediaFormat(name="F0"),
                    configuration=Configuration({FRAME_RATE: 1.0}),
                )
            ],
        )
        device = DeviceProfile(device_id="d", decoders=["F2"])
        graph = AdaptationGraphBuilder(catalog, placement).build(
            content, device, "ns", "nr"
        )
        edge = next(e for e in graph.edges() if (e.source, e.target) == ("A", "B"))
        assert math.isinf(edge.bandwidth_bps)


class TestGraphQueries:
    def test_vertex_lookup(self):
        graph = simple_world()
        assert graph.vertex("T1").service_id == "T1"
        with pytest.raises(UnknownServiceError):
            graph.vertex("nope")

    def test_vertices_in_natural_order(self):
        graph = simple_world()
        ids = graph.vertex_ids()
        assert ids.index("T1") < ids.index("T2")

    def test_out_edges_sorted(self):
        graph = simple_world()
        targets = [e.target for e in graph.out_edges("sender")]
        assert targets == sorted(targets, key=lambda t: int(t[1:]))

    def test_in_edges(self):
        graph = simple_world()
        sources = [e.source for e in graph.in_edges("receiver")]
        assert sources == ["T1"]

    def test_successors_deduplicated(self):
        graph = simple_world()
        assert graph.successors("sender") == ["T1", "T2"]

    def test_reachability_sets(self):
        graph = simple_world()
        assert "T2" in graph.reachable_from_sender()
        assert "T2" not in graph.co_reachable_to_receiver()
        assert "T1" in graph.co_reachable_to_receiver()

    def test_len_and_contains(self):
        graph = simple_world()
        assert len(graph) == 4
        assert "T1" in graph and "zzz" not in graph

    def test_adjacency_cached_at_freeze_time(self):
        # out_edges/in_edges no longer re-sort per call: repeated queries
        # return the same frozen tuple, in the seed's (id, format) order.
        graph = simple_world()
        for service_id in graph.vertex_ids():
            out_first = graph.out_edges(service_id)
            assert graph.out_edges(service_id) is out_first
            assert list(out_first) == sorted(
                out_first, key=lambda e: (service_sort_key(e.target), e.format_name)
            )
            in_first = graph.in_edges(service_id)
            assert graph.in_edges(service_id) is in_first
            assert list(in_first) == sorted(
                in_first, key=lambda e: (service_sort_key(e.source), e.format_name)
            )
        with pytest.raises(UnknownServiceError):
            graph.out_edges("ghost")
        with pytest.raises(UnknownServiceError):
            graph.in_edges("ghost")

    def test_vertex_rank_matches_natural_order(self):
        graph = simple_world()
        rank = graph.vertex_rank()
        ids = graph.vertex_ids()
        assert [ids[rank[v]] for v in ids] == ids
        assert sorted(ids, key=rank.__getitem__) == ids

    def test_edges_ignore_vertex_insertion_order(self):
        # The builder passes the endpoints first; a re-frozen graph passes
        # vertices in natural order.  Both list their edges alike.
        graph = simple_world()
        refrozen = AdaptationGraph(
            graph.vertices(),
            list(reversed(graph.edges())),
            graph.sender_id,
            graph.receiver_id,
        )
        assert refrozen.edges() == graph.edges()
        sources = [edge.source for edge in graph.edges()]
        assert sources == sorted(sources, key=service_sort_key)

    def test_prune_returns_a_graph_with_nothing_to_remove_as_is(self):
        scenario = generate_scenario(
            SyntheticConfig(seed=1, n_services=12, n_formats=6, n_nodes=6)
        )
        graph = scenario.build_graph()
        refrozen = AdaptationGraph(
            graph.vertices(), graph.edges(), graph.sender_id, graph.receiver_id
        )
        pruned, report = GraphPruner().prune(graph)
        assert pruned is graph
        vertices, edges = len(graph), graph.edge_count()
        assert report == PruningReport(vertices, vertices, edges, edges)
        assert pruned.vertex_ids() == refrozen.vertex_ids()
        assert pruned.edges() == refrozen.edges()
        for service_id in pruned.vertex_ids():
            assert pruned.out_edges(service_id) == refrozen.out_edges(service_id)
            assert pruned.in_edges(service_id) == refrozen.in_edges(service_id)


class TestPathEnumeration:
    def test_simple_world_has_one_path(self):
        graph = simple_world()
        paths = list(graph.enumerate_paths())
        assert len(paths) == 1
        assert [e.target for e in paths[0]] == ["T1", "receiver"]

    def test_figure3_paths_all_distinct_format(self, fig3):
        graph = fig3.build_graph()
        for path in graph.enumerate_paths():
            formats = [e.format_name for e in path]
            assert len(formats) == len(set(formats))
            services = [e.target for e in path]
            assert len(services) == len(set(services))

    def test_max_paths_bounds_enumeration(self, fig3):
        graph = fig3.build_graph()
        total = len(list(graph.enumerate_paths()))
        assert total > 2
        bounded = len(list(graph.enumerate_paths(max_paths=2)))
        assert bounded == 2

    def test_max_hops_bounds_depth(self, fig3):
        graph = fig3.build_graph()
        for path in graph.enumerate_paths(max_hops=3):
            assert len(path) <= 3

    def test_duplicate_vertex_rejected(self):
        vertex = Vertex(
            service=ServiceDescriptor(
                service_id="X", input_formats=("a",), output_formats=("b",)
            ),
            node_id="n",
        )
        sender = Vertex(
            service=ContentProfile(
                "c",
                [
                    ContentVariant(
                        format=MediaFormat(name="a"),
                        configuration=Configuration({FRAME_RATE: 1.0}),
                    )
                ],
            ).sender_descriptor(),
            node_id="n",
        )
        receiver = Vertex(
            service=DeviceProfile("d", ["b"]).receiver_descriptor(),
            node_id="n",
        )
        with pytest.raises(GraphConstructionError):
            AdaptationGraph(
                [sender, receiver, vertex, vertex], [], "sender", "receiver"
            )

    def test_missing_endpoint_rejected(self):
        with pytest.raises(GraphConstructionError):
            AdaptationGraph([], [], "sender", "receiver")

    def test_edge_to_unknown_vertex_rejected(self):
        sender = Vertex(
            service=ContentProfile(
                "c",
                [
                    ContentVariant(
                        format=MediaFormat(name="a"),
                        configuration=Configuration({FRAME_RATE: 1.0}),
                    )
                ],
            ).sender_descriptor(),
            node_id="n",
        )
        receiver = Vertex(
            service=DeviceProfile("d", ["b"]).receiver_descriptor(),
            node_id="n",
        )
        bad_edge = Edge("sender", "ghost", "a", 1e6)
        with pytest.raises(GraphConstructionError):
            AdaptationGraph([sender, receiver], [bad_edge], "sender", "receiver")
