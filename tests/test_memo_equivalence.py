"""A memo warmed at other bandwidths never changes a selector result.

:class:`~repro.core.optimizer.OptimizeMemo` keys its entries without the
link bandwidth and serves the ceiling answer to every bandwidth that
carries it.  The simulator leans on that: every booking moves the
residual bandwidths, so one shared memo sees the same relaxation at many
bandwidths.  This suite warms a memo on graphs built through
:class:`~repro.core.graph.CatalogView`\\ s whose links carry scaled
bandwidths, then plans the nominal graph with it and asserts the result
is bit-identical to the memo-free seed selector in
:mod:`tests.reference_selector`, under every :class:`TieBreakPolicy`.

It also pins the invariant Step 10's reverse walk relies on: every hop of
a winning path is an edge of the graph, in the reported format.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import AdaptationGraphBuilder, CatalogView
from repro.core.optimizer import OptimizeMemo
from repro.core.selection import QoSPathSelector
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from tests.reference_selector import SeedReferenceSelector
from tests.test_selector_equivalence import ALL_POLICIES, _run, scenario_configs

#: Link scale factors: squeezed links force below-ceiling solves, wide ones
#: store ceilings that the nominal graph must only reuse where they fit.
scales = st.lists(
    st.sampled_from([0.05, 0.2, 0.5, 0.9, 0.999999999, 1.000000001, 1.5, 4.0]),
    min_size=1,
    max_size=3,
)


def _graph(scenario, scale=None):
    view = None
    if scale is not None:
        topology = scenario.topology.copy()
        for link in topology.links():
            topology.set_bandwidth(link.a, link.b, link.bandwidth_bps * scale)
        view = CatalogView(topology=topology)
    return AdaptationGraphBuilder(scenario.catalog, scenario.placement).build(
        content=scenario.content,
        device=scenario.device,
        sender_node=scenario.sender_node,
        receiver_node=scenario.receiver_node,
        view=view,
    )


def _assert_path_is_graph_edges(graph, result):
    if not result.success:
        return
    assert len(result.formats) == len(result.path) - 1
    for source, target, fmt in zip(result.path, result.path[1:], result.formats):
        assert any(
            edge.target == target and edge.format_name == fmt
            for edge in graph.out_edges(source)
        ), (source, target, fmt)


@settings(max_examples=25, deadline=None)
@given(config=scenario_configs, factors=scales, data=st.data())
def test_memo_warmed_on_scaled_views_matches_seed_reference(config, factors, data):
    policy = data.draw(st.sampled_from(ALL_POLICIES))
    scenario = generate_scenario(config)
    memo = OptimizeMemo()
    for scale in factors:
        scaled = _graph(scenario, scale)
        warmed = _run(QoSPathSelector, scenario, scaled, policy, memo=memo)
        assert warmed == _run(SeedReferenceSelector, scenario, scaled, policy)
    graph = _graph(scenario)
    production = _run(QoSPathSelector, scenario, graph, policy, memo=memo)
    reference = _run(SeedReferenceSelector, scenario, graph, policy)
    assert production == reference
    assert production.configuration == reference.configuration
    assert production.satisfaction == reference.satisfaction
    stats = memo.stats
    assert stats.entries == len(memo) <= memo.max_entries


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_policy_grid_with_scaled_warm_memo(policy, seed):
    """Deterministic grid: memo warmed at half and double bandwidth."""
    scenario = generate_scenario(
        SyntheticConfig(
            seed=seed, n_services=24, n_formats=8, n_nodes=6,
            preference_mode="rich",
        )
    )
    memo = OptimizeMemo()
    calls = hits = 0
    for scale in (0.5, 2.0, None):
        graph = _graph(scenario, scale)
        production = _run(QoSPathSelector, scenario, graph, policy, memo=memo)
        assert production == _run(SeedReferenceSelector, scenario, graph, policy)
        _assert_path_is_graph_edges(graph, production)
        calls += production.stats.optimize_calls
        hits += production.stats.optimize_memo_hits
    stats = memo.stats
    assert stats.hits + stats.misses == calls
    assert stats.hits == hits


@settings(max_examples=30, deadline=None)
@given(config=scenario_configs, data=st.data())
def test_every_hop_of_a_winning_path_is_a_graph_edge(config, data):
    policy = data.draw(st.sampled_from(ALL_POLICIES))
    scenario = generate_scenario(config)
    graph = scenario.build_graph()
    result = _run(QoSPathSelector, scenario, graph, policy, memo=OptimizeMemo())
    _assert_path_is_graph_edges(graph, result)
