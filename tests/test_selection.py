"""Unit tests for the QoS path-selection algorithm (Figure 4)."""

from __future__ import annotations

import math

import pytest

from repro.core.configuration import Configuration
from repro.core.graph import AdaptationGraphBuilder
from repro.core.parameters import (
    COLOR_DEPTH,
    FRAME_RATE,
    RESOLUTION,
    ContinuousDomain,
    DiscreteDomain,
    Parameter,
    ParameterSet,
)
from repro.core.satisfaction import (
    CombinedSatisfaction,
    HarmonicCombiner,
    LinearSatisfaction,
)
from repro.core.selection import QoSPathSelector, TieBreakPolicy, build_chain
from repro.errors import NoPathError
from repro.formats.format import MediaFormat
from repro.formats.registry import FormatRegistry
from repro.formats.variants import ContentVariant
from repro.network.placement import ServicePlacement
from repro.network.topology import NetworkTopology
from repro.profiles.content import ContentProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.user import UserProfile
from repro.services.catalog import ServiceCatalog
from repro.services.descriptor import ServiceDescriptor


def pinned_parameters():
    return ParameterSet(
        [
            Parameter(FRAME_RATE, "fps", ContinuousDomain(0.0, 60.0)),
            Parameter(RESOLUTION, "pixels", DiscreteDomain([1000.0])),
            Parameter(COLOR_DEPTH, "bits", DiscreteDomain([24.0])),
        ]
    )


def fps_satisfaction():
    return CombinedSatisfaction(
        functions={FRAME_RATE: LinearSatisfaction(0.0, 30.0)},
        combiner=HarmonicCombiner(),
    )


def tiny_world(
    t1_cost: float = 1.0,
    t2_cost: float = 1.0,
    t1_bw_fps: float = 25.0,
    t2_bw_fps: float = 15.0,
    decoders=("F1", "F2"),
):
    """Two parallel one-hop routes: T1 (good) and T2 (worse).

    The routes are differentiated by *format frame size* (as in the
    Figure 6 scenario), not by link bandwidth — in a connected topology the
    widest-path routing would otherwise detour around a narrow direct link.
    All links share one bandwidth; T1's output format F1 fits
    ``t1_bw_fps`` frames per second through it, T2's F2 only ``t2_bw_fps``.
    """
    raw_bits = 1000.0 * 24.0
    wide = 100.0 * raw_bits / 10.0  # carries 100 fps of the source format
    registry = FormatRegistry()
    registry.define("F0", compression_ratio=10.0)
    registry.define("F1", compression_ratio=raw_bits / (wide / t1_bw_fps))
    registry.define("F2", compression_ratio=raw_bits / (wide / t2_bw_fps))
    topology = NetworkTopology()
    for node in ("ns", "n1", "n2", "nr"):
        topology.node(node)
    topology.link("ns", "n1", wide)
    topology.link("ns", "n2", wide)
    topology.link("n1", "nr", wide)
    topology.link("n2", "nr", wide)
    catalog = ServiceCatalog(
        [
            ServiceDescriptor(
                service_id="T1",
                input_formats=("F0",),
                output_formats=("F1",),
                cost=t1_cost,
            ),
            ServiceDescriptor(
                service_id="T2",
                input_formats=("F0",),
                output_formats=("F2",),
                cost=t2_cost,
            ),
        ]
    )
    placement = ServicePlacement(topology, {"T1": "n1", "T2": "n2"})
    content = ContentProfile(
        content_id="c",
        variants=[
            ContentVariant(
                format=registry.get("F0"),
                configuration=Configuration(
                    {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0}
                ),
            )
        ],
    )
    device = DeviceProfile(device_id="d", decoders=list(decoders))
    graph = AdaptationGraphBuilder(catalog, placement).build(
        content, device, "ns", "nr"
    )
    return registry, graph


class TestBasicSelection:
    def test_picks_the_better_route(self):
        registry, graph = tiny_world()
        selector = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        )
        result = selector.run()
        assert result.success
        assert result.path == ("sender", "T1", "receiver")
        assert result.satisfaction == pytest.approx(25.0 / 30.0)
        assert result.formats == ("F0", "F1")

    def test_delivered_frame_rate_exposed(self):
        registry, graph = tiny_world()
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        ).run()
        assert result.delivered_frame_rate == pytest.approx(25.0)

    def test_trace_records_every_round(self):
        registry, graph = tiny_world()
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        ).run()
        assert result.trace is not None
        assert len(result.trace) == result.rounds_run
        assert result.trace.rounds[0].considered_set == ("sender",)
        assert result.trace.rounds[-1].selected == "receiver"

    def test_trace_can_be_disabled(self):
        registry, graph = tiny_world()
        result = QoSPathSelector(
            graph,
            registry,
            pinned_parameters(),
            fps_satisfaction(),
            record_trace=False,
        ).run()
        assert result.trace is None

    def test_settled_satisfactions_non_increasing(self):
        registry, graph = tiny_world()
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        ).run()
        values = [r.satisfaction for r in result.trace.rounds]
        assert values == sorted(values, reverse=True)

    def test_accumulated_cost(self):
        registry, graph = tiny_world(t1_cost=2.5)
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        ).run()
        assert result.accumulated_cost == pytest.approx(2.5)

    def test_build_chain_from_result(self):
        registry, graph = tiny_world()
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        ).run()
        chain = build_chain(graph, result)
        assert chain.service_ids() == ["sender", "T1", "receiver"]
        assert chain.formats() == ["F0", "F1"]


class TestFailure:
    def test_no_decodable_format_terminates_failure(self):
        registry, graph = tiny_world(decoders=("F9",))
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        ).run()
        assert not result.success
        assert result.path == ()
        assert "exhausted" in result.failure_reason

    def test_build_chain_rejects_failure(self):
        registry, graph = tiny_world(decoders=("F9",))
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        ).run()
        with pytest.raises(NoPathError):
            build_chain(graph, result)

    def test_failure_still_settles_transcoders(self):
        registry, graph = tiny_world(decoders=("F9",))
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        ).run()
        assert result.rounds_run == 2  # T1 and T2 settle, then CS empties


class TestBudget:
    def test_generous_budget_ignores_cost(self):
        registry, graph = tiny_world(t1_cost=5.0, t2_cost=1.0)
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction(), budget=100.0
        ).run()
        assert "T1" in result.path

    def test_tight_budget_reroutes(self):
        registry, graph = tiny_world(t1_cost=5.0, t2_cost=1.0)
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction(), budget=2.0
        ).run()
        assert result.success
        assert "T2" in result.path
        assert result.satisfaction == pytest.approx(15.0 / 30.0)

    def test_impossible_budget_fails(self):
        registry, graph = tiny_world(t1_cost=5.0, t2_cost=5.0)
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction(), budget=1.0
        ).run()
        assert not result.success

    def test_accumulated_cost_within_budget(self):
        registry, graph = tiny_world(t1_cost=1.5, t2_cost=1.0)
        budget = 2.0
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction(), budget=budget
        ).run()
        assert result.success
        assert result.accumulated_cost <= budget


class TestDistinctFormatRule:
    def test_format_loop_never_selected(self):
        """A back-and-forth converter pair (F0 -> F1 -> F0) offers a path
        that repeats F0; the selector must deliver over the direct edge
        instead and never report a repeated format."""
        frame_bits = 2400.0
        registry = FormatRegistry()
        registry.define("F0", compression_ratio=10.0)
        registry.define("F1", compression_ratio=10.0)
        topology = NetworkTopology()
        for node in ("ns", "n1", "n2", "nr"):
            topology.node(node)
        topology.link("ns", "n1", 30 * frame_bits)
        topology.link("n1", "n2", 30 * frame_bits)
        topology.link("n2", "nr", 30 * frame_bits)
        catalog = ServiceCatalog(
            [
                ServiceDescriptor(
                    service_id="AB", input_formats=("F0",), output_formats=("F1",)
                ),
                ServiceDescriptor(
                    service_id="BA", input_formats=("F1",), output_formats=("F0",)
                ),
            ]
        )
        placement = ServicePlacement(topology, {"AB": "n1", "BA": "n2"})
        content = ContentProfile(
            content_id="c",
            variants=[
                ContentVariant(
                    format=registry.get("F0"),
                    configuration=Configuration(
                        {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0}
                    ),
                )
            ],
        )
        device = DeviceProfile(device_id="d", decoders=["F0"])
        graph = AdaptationGraphBuilder(catalog, placement).build(
            content, device, "ns", "nr"
        )
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        ).run()
        assert result.success
        assert result.path == ("sender", "receiver")
        assert len(set(result.formats)) == len(result.formats)

    def test_enumeration_never_repeats_formats(self, fig6):
        graph = fig6.build_graph()
        for edges in graph.enumerate_paths():
            formats = [e.format_name for e in edges]
            assert len(formats) == len(set(formats))


class TestTieBreakPolicies:
    def _tied_world(self):
        """T1 and T2 reach identical satisfaction."""
        return tiny_world(t1_bw_fps=20.0, t2_bw_fps=20.0)

    def test_all_policies_agree_on_satisfaction(self):
        registry, graph = self._tied_world()
        results = {}
        for policy in TieBreakPolicy:
            result = QoSPathSelector(
                graph,
                registry,
                pinned_parameters(),
                fps_satisfaction(),
                tie_break=policy,
            ).run()
            results[policy] = result
            assert result.satisfaction == pytest.approx(20.0 / 30.0)

    def test_ascending_and_descending_differ(self):
        registry, graph = self._tied_world()
        ascending = QoSPathSelector(
            graph,
            registry,
            pinned_parameters(),
            fps_satisfaction(),
            tie_break=TieBreakPolicy.ASCENDING_ID,
        ).run()
        descending = QoSPathSelector(
            graph,
            registry,
            pinned_parameters(),
            fps_satisfaction(),
            tie_break=TieBreakPolicy.DESCENDING_ID,
        ).run()
        # The first settled transcoder differs; the receiver's best parent
        # can come from either, but the settle ORDER must differ.
        assert ascending.trace.selected_sequence()[0] == "T1"
        assert descending.trace.selected_sequence()[0] == "T2"

    def test_paper_policy_prefers_transcoder_over_receiver_on_tie(self):
        registry, graph = self._tied_world()
        result = QoSPathSelector(
            graph,
            registry,
            pinned_parameters(),
            fps_satisfaction(),
            tie_break=TieBreakPolicy.PAPER,
        ).run()
        sequence = result.trace.selected_sequence()
        assert sequence[-1] == "receiver"


class TestForUserFactory:
    def test_for_user_wires_budget_and_preferences(self):
        registry, graph = tiny_world(t1_cost=5.0, t2_cost=1.0)
        user = UserProfile(
            user_id="u",
            satisfaction_functions={FRAME_RATE: LinearSatisfaction(0, 30)},
            budget=2.0,
        )
        result = QoSPathSelector.for_user(
            graph, registry, pinned_parameters(), user
        ).run()
        assert "T2" in result.path  # the budget bit

    def test_describe(self):
        registry, graph = tiny_world()
        result = QoSPathSelector(
            graph, registry, pinned_parameters(), fps_satisfaction()
        ).run()
        text = result.describe()
        assert "sender,T1,receiver" in text
        assert "satisfaction" in text
