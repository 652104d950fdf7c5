"""Property-based tests (hypothesis) on widest-path routing.

Graph construction prices every edge with the widest path between its
two hosts (Section 4.3).  One widest-path tree per producer host
(:meth:`~repro.network.topology.NetworkTopology.widest_routes`) must
answer exactly what one query per host pair answered:

- on random topologies (ties common, zero-bandwidth links, isolated
  nodes), every tree entry equals the bottleneck, cost and delay summed
  over :meth:`widest_path`'s route, under float ``==``, and is missing
  exactly when that route is;
- :meth:`widest_path` returns the per-pair reference's route;
- on the paper, intro and synthetic scenarios, each crossed with random
  catalog views, the builder emits the same edges in the same adjacency
  order as the per-pair reference builder.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.graph import AdaptationGraphBuilder, CatalogView
from repro.errors import ReproError
from repro.network.topology import NetworkTopology
from repro.workloads.intro import html_to_wml_scenario, jpeg_to_gif_scenario
from repro.workloads.paper import figure6_scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from tests.reference_routing import (
    ReferenceGraphBuilder,
    reference_adjacency,
    reference_widest_path,
)
from tests.test_planner_properties import _scaled_topology

# Few distinct widths so equal-bottleneck ties are common; costs and
# delays whose sums round differently in different orders.
BANDWIDTHS = [0.0, 1e6, 1e6, 2e6, 5e6, float("inf")]
COSTS = [0.1, 0.2, 0.3, 0.7, 1.0, 2.5]
DELAYS = [0.1, 0.3, 1.5, 3.3, 10.0]


@st.composite
def topologies(draw):
    """2–12 nodes, each pair linked or not; some nodes stay isolated."""
    size = draw(st.integers(min_value=2, max_value=12))
    names = [f"n{i}" for i in draw(st.permutations(range(size)))]
    topology = NetworkTopology()
    for name in names:
        topology.node(name)
    pairs = list(itertools.combinations(names, 2))
    linked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * size))
    for a, b in linked:
        topology.link(
            a,
            b,
            draw(st.sampled_from(BANDWIDTHS)),
            delay_ms=draw(st.sampled_from(DELAYS)),
            cost=draw(st.sampled_from(COSTS)),
        )
    return topology


@given(topology=topologies())
@settings(max_examples=200, deadline=None)
def test_routes_price_the_widest_path_to_every_target(topology):
    for source in topology.node_ids():
        routes = topology.widest_routes(source)
        for target in topology.node_ids():
            path = topology.widest_path(source, target)
            if path is None:
                assert target not in routes
                continue
            expected = (
                topology.path_bottleneck(path),
                topology.path_cost(path),
                topology.path_delay_ms(path),
            )
            assert routes[target] == expected


@given(topology=topologies())
@settings(max_examples=200, deadline=None)
def test_widest_path_equals_per_pair_reference(topology):
    for source, target in itertools.product(topology.node_ids(), repeat=2):
        assert topology.widest_path(source, target) == reference_widest_path(
            topology, source, target
        )


# ----------------------------------------------------------------------
# Graph construction: one tree per host equals one query per host pair
# ----------------------------------------------------------------------
_SCENARIOS = {
    "figure6": figure6_scenario,
    "jpeg-to-gif": lambda: jpeg_to_gif_scenario(include_monolith=True),
    "html-to-wml": html_to_wml_scenario,
    **{
        f"synthetic-{seed}": (
            lambda seed=seed: generate_scenario(
                SyntheticConfig(seed=seed, n_services=14, n_formats=6, n_nodes=10)
            )
        )
        for seed in range(4)
    },
}
_BUILT = {}


def _scenario(name):
    if name not in _BUILT:
        _BUILT[name] = _SCENARIOS[name]()
    return _BUILT[name]


def _build(builder, scenario, view):
    try:
        return builder.build(
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
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))


@given(
    name=st.sampled_from(sorted(_SCENARIOS)),
    factor=st.sampled_from([None, 1.0, 0.3, 0.01, 0.0]),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_build_equals_per_pair_reference_build(name, factor, data):
    scenario = _scenario(name)
    excluded = frozenset(data.draw(st.sets(st.sampled_from(scenario.catalog.ids()))))
    view = CatalogView(
        excluded=excluded, topology=_scaled_topology(scenario.topology, factor)
    )
    args = (scenario.catalog, scenario.placement)
    reference = ReferenceGraphBuilder(*args)
    expected = _build(reference, scenario, view)
    graph = _build(AdaptationGraphBuilder(*args), scenario, view)
    if isinstance(expected, tuple):
        assert graph == expected
        return
    out_edges, in_edges, ordered_ids = reference_adjacency(
        reference.last_vertex_ids, reference.last_edges
    )
    assert graph.vertex_ids() == ordered_ids == expected.vertex_ids()
    for vertex_id in ordered_ids:
        # repr pins every field's type and bits, not just float equality.
        for got, want in (
            (graph.out_edges(vertex_id), out_edges[vertex_id]),
            (graph.in_edges(vertex_id), in_edges[vertex_id]),
        ):
            assert got == want
            assert [repr(edge) for edge in got] == [repr(edge) for edge in want]
