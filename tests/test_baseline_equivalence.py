"""The classic baselines' one best-first search equals the three old loops.

:func:`repro.core.baselines._best_first_path` replaced a FIFO
breadth-first search (fewest hops) and two Dijkstra loops (widest,
cheapest), and :class:`~repro.core.baselines.PathSelectorBase` absorbed
the exhaustive selector's own ``run``.  The contract: every
:class:`SelectionResult` is bit-identical (``==`` and ``repr``) to the
copies kept in :mod:`tests.reference_baselines`.

Hypothesis draws synthetic scenarios and Figure 6, each seen through
:class:`~repro.core.graph.CatalogView` masks and scaled topologies, and
graphs whose edges are re-labeled from a few bandwidth and cost levels
(zero bandwidth included) so widths, costs and hop counts tie often.  A
fixed grid shrinks ``_MAX_SEARCH_STATES`` so the cap cuts the searches.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import baselines
from repro.core.baselines import (
    CheapestPathSelector,
    ExhaustiveSelector,
    FewestHopsSelector,
    WidestPathSelector,
)
from repro.core.graph import AdaptationGraph, AdaptationGraphBuilder, CatalogView
from repro.workloads.paper import figure6_scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from tests.reference_baselines import (
    ReferenceCheapestPathSelector,
    ReferenceExhaustiveSelector,
    ReferenceFewestHopsSelector,
    ReferenceWidestPathSelector,
)

SEARCH_PAIRS = [
    (FewestHopsSelector, ReferenceFewestHopsSelector),
    (WidestPathSelector, ReferenceWidestPathSelector),
    (CheapestPathSelector, ReferenceCheapestPathSelector),
]

#: ``max_service_cost=0.5`` gives every service the same cost, so cheapest
#: paths tie whenever their transmission costs do.
scenario_configs = st.builds(
    SyntheticConfig,
    seed=st.integers(min_value=0, max_value=10_000),
    n_services=st.integers(min_value=4, max_value=16),
    n_formats=st.integers(min_value=5, max_value=10),
    n_nodes=st.integers(min_value=3, max_value=8),
    backbone_hops=st.integers(min_value=1, max_value=3),
    preference_mode=st.sampled_from(["single", "rich"]),
    max_service_cost=st.sampled_from([4.0, 0.5]),
)

scales = st.sampled_from([None, 0.05, 0.5, 1.5, 4.0])
bandwidth_levels = st.lists(
    st.sampled_from([0.0, 1e5, 2e6, 5e6, math.inf]), min_size=1, max_size=3
)
cost_levels = st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=1, max_size=2)
budgets = st.sampled_from([math.inf, 3.0])


def _graph(scenario, excluded=frozenset(), scale=None):
    topology = None
    if scale is not None:
        topology = scenario.topology.copy()
        for link in topology.links():
            topology.set_bandwidth(link.a, link.b, link.bandwidth_bps * scale)
    return AdaptationGraphBuilder(scenario.catalog, scenario.placement).build(
        content=scenario.content,
        device=scenario.device,
        sender_node=scenario.sender_node,
        receiver_node=scenario.receiver_node,
        context_caps=(
            scenario.context.parameter_caps() if scenario.context is not None else None
        ),
        view=CatalogView(excluded=frozenset(excluded), topology=topology),
    )


def _relabeled(graph, bandwidths, costs):
    """The same graph with each edge's bandwidth and cost cycled from levels."""
    edges = [
        dataclasses.replace(
            edge,
            bandwidth_bps=bandwidths[i % len(bandwidths)],
            transmission_cost=costs[i % len(costs)],
        )
        for i, edge in enumerate(graph.edges())
    ]
    return AdaptationGraph(graph.vertices(), edges, graph.sender_id, graph.receiver_id)


def _run(selector_cls, scenario, graph, budget, **kwargs):
    selector = selector_cls(
        graph,
        scenario.registry,
        scenario.parameters,
        scenario.user.satisfaction(),
        budget,
        **kwargs,
    )
    return selector, selector.run()


def _assert_identical(production, reference):
    assert production == reference
    assert repr(production) == repr(reference)


def _assert_searches_match(scenario, graph, budget):
    for production_cls, reference_cls in SEARCH_PAIRS:
        _, production = _run(production_cls, scenario, graph, budget)
        _, reference = _run(reference_cls, scenario, graph, budget)
        _assert_identical(production, reference)


def _draw_graph(scenario, data):
    transcoders = sorted(s.service_id for s in scenario.catalog.transcoders())
    excluded = data.draw(st.sets(st.sampled_from(transcoders), max_size=3))
    graph = _graph(scenario, excluded, data.draw(scales))
    if data.draw(st.booleans()):
        graph = _relabeled(graph, data.draw(bandwidth_levels), data.draw(cost_levels))
    return graph


@settings(max_examples=100, deadline=None)
@given(config=scenario_configs, budget=budgets, data=st.data())
def test_searches_match_reference_on_synthetic_scenarios(config, budget, data):
    scenario = generate_scenario(config)
    _assert_searches_match(scenario, _draw_graph(scenario, data), budget)


@settings(max_examples=30, deadline=None)
@given(budget=budgets, data=st.data())
def test_searches_match_reference_on_figure6(budget, data):
    scenario = figure6_scenario()
    _assert_searches_match(scenario, _draw_graph(scenario, data), budget)


@settings(max_examples=20, deadline=None)
@given(
    config=scenario_configs,
    max_paths=st.sampled_from([1, 7, 2_000]),
    data=st.data(),
)
def test_exhaustive_matches_reference(config, max_paths, data):
    scenario = generate_scenario(config)
    graph = _draw_graph(scenario, data)
    production, result = _run(
        ExhaustiveSelector, scenario, graph, math.inf, max_paths=max_paths
    )
    reference, expected = _run(
        ReferenceExhaustiveSelector, scenario, graph, math.inf, max_paths=max_paths
    )
    _assert_identical(result, expected)
    assert production.paths_examined == reference.paths_examined
    assert production.hit_enumeration_bound == reference.hit_enumeration_bound


@pytest.mark.parametrize("seed", range(8))
def test_state_cap_cuts_both_searches_alike(monkeypatch, seed):
    scenario = generate_scenario(
        SyntheticConfig(seed=seed, n_services=16, n_formats=8, n_nodes=5)
    )
    graph = _graph(scenario)
    uncapped = {
        cls: _run(cls, scenario, graph, math.inf)[1] for cls, _ in SEARCH_PAIRS
    }
    cut = 0
    for cap in (1, 2, 3, 5, 8, 13, 21, 34):
        monkeypatch.setattr(baselines, "_MAX_SEARCH_STATES", cap)
        for production_cls, reference_cls in SEARCH_PAIRS:
            _, production = _run(production_cls, scenario, graph, math.inf)
            _, reference = _run(reference_cls, scenario, graph, math.inf)
            _assert_identical(production, reference)
            cut += production != uncapped[production_cls]
    # The small caps must change some answers, or the cap went untested.
    assert cut > 0
