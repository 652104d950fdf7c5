"""Property-based tests (hypothesis): the reachability-only pruner.

:meth:`~repro.core.pruning.GraphPruner.prune` keeps only the reachability
reduction.  The dead-edge and dominated-parallel-edge passes it dropped
could not fire on builder output, and this suite pins why, then checks
the result against the three-pass pruner kept in
``tests/reference_pruning.py``.  Over the paper's Figure 3/6 scenarios,
the introduction's scenarios and generated ones, planned through
:class:`~repro.core.graph.CatalogView`s that mask services and carry a
ledger's residual topology with links squeezed (down to zero) or
partly reserved:

- builder output never holds an edge with bandwidth <= 0, nor two edges
  with the same (source, target, format);
- the pruned graph has the reference's vertex ids and ``edges()`` (equal
  edges, in the same order), the same :class:`PruningReport`, and is the
  input object exactly when the reference's is.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import AdaptationGraph, AdaptationGraphBuilder, CatalogView
from repro.core.pruning import GraphPruner
from repro.network.reservations import BandwidthLedger
from repro.workloads.intro import html_to_wml_scenario, jpeg_to_gif_scenario
from repro.workloads.paper import figure3_scenario, figure6_scenario
from repro.workloads.scenario import Scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from tests.reference_pruning import ReferencePruner

NAMED = {
    "figure6": figure6_scenario,
    "figure6-without-t7": lambda: figure6_scenario(include_t7=False),
    "figure3": figure3_scenario,
    "jpeg-to-gif": jpeg_to_gif_scenario,
    "jpeg-to-gif-monolith": lambda: jpeg_to_gif_scenario(include_monolith=True),
    "html-to-wml": html_to_wml_scenario,
}

#: Capacity multipliers a squeezed link can get (0 kills it).
FACTORS = [0.0, 0.0, 0.01, 0.3, 1.0]


@functools.lru_cache(maxsize=None)
def _named(name: str) -> Scenario:
    return NAMED[name]()


@functools.lru_cache(maxsize=None)
def _synthetic(seed: int, n_services: int) -> Scenario:
    return generate_scenario(
        SyntheticConfig(seed=seed, n_services=n_services, n_formats=8, n_nodes=7)
    )


def _build(scenario: Scenario, view: CatalogView = None) -> AdaptationGraph:
    return AdaptationGraphBuilder(scenario.catalog, scenario.placement).build(
        content=scenario.content,
        device=scenario.device,
        sender_node=scenario.sender_node,
        receiver_node=scenario.receiver_node,
        context_caps=(
            scenario.context.parameter_caps()
            if scenario.context is not None
            else None
        ),
        view=view,
    )


def _assert_builder_invariants(graph: AdaptationGraph) -> None:
    edges = graph.edges()
    assert all(edge.bandwidth_bps > 0.0 for edge in edges)
    keys = [(edge.source, edge.target, edge.format_name) for edge in edges]
    assert len(keys) == len(set(keys))


def _assert_prunes_like_the_reference(graph: AdaptationGraph) -> None:
    pruned, report = GraphPruner().prune(graph)
    expected, expected_report = ReferencePruner().prune(graph)
    assert pruned.vertex_ids() == expected.vertex_ids()
    assert pruned.edges() == expected.edges()
    assert report == expected_report
    assert (pruned is graph) == (expected is graph)
    assert pruned.sender_id == graph.sender_id
    assert pruned.receiver_id == graph.receiver_id


@st.composite
def scenarios(draw) -> Scenario:
    if draw(st.booleans()):
        return _named(draw(st.sampled_from(sorted(NAMED))))
    return _synthetic(
        draw(st.integers(min_value=0, max_value=40)),
        draw(st.sampled_from([6, 12, 20])),
    )


@st.composite
def views(draw, scenario: Scenario):
    """A view masking some transcoders, over a squeezed residual or none."""
    transcoders = [d.service_id for d in scenario.catalog.transcoders()]
    excluded = frozenset(
        draw(st.lists(st.sampled_from(transcoders), max_size=4))
        if transcoders
        else ()
    )
    if not draw(st.booleans()):
        return CatalogView(excluded=excluded)
    ledger = BandwidthLedger(scenario.topology)
    links = scenario.topology.links()
    for index, factor in draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(links) - 1),
                st.sampled_from(FACTORS),
            ),
            max_size=4,
        )
    ):
        link = links[index]
        ledger.set_capacity(link.a, link.b, link.bandwidth_bps * factor)
    for index, share in draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(links) - 1),
                st.sampled_from([0.5, 1.0]),
            ),
            max_size=2,
        )
    ):
        link = links[index]
        ledger.reserve([link.a, link.b], ledger.residual(link.a, link.b) * share)
    return CatalogView(excluded=excluded, topology=ledger.residual_topology())


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_scenarios_prune_like_the_reference(name):
    graph = _build(_named(name))
    _assert_builder_invariants(graph)
    _assert_prunes_like_the_reference(graph)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_views_prune_like_the_reference(data):
    scenario = data.draw(scenarios())
    graph = _build(scenario, data.draw(views(scenario)))
    _assert_builder_invariants(graph)
    _assert_prunes_like_the_reference(graph)
