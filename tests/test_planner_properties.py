"""Property-based tests (hypothesis) on the plan cache.

The cache's contract, checked over generated scenarios and mutations:

- a cache hit returns a plan equal to one computed fresh (same selected
  path, formats, configuration, satisfaction, cost);
- with no intervening change of content, the second call is a hit (same
  object);
- *any* catalog / topology / placement change between two calls, or a
  reservation under a request planned on the ledger's residual, changes
  the fingerprint and forces a recompute;
- planning through a :class:`~repro.core.graph.CatalogView` (masked
  services, a forced tier, a residual topology) gives the same plan as a
  planner over a physically filtered catalog and placement, and view
  fingerprints are equal exactly when the views are.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.graph import CatalogView
from repro.errors import ReproError
from repro.network.placement import ServicePlacement
from repro.network.reservations import BandwidthLedger
from repro.network.topology import NetworkTopology
from repro.planner import BatchPlanner, PlanCache
from repro.policy import PolicyDocument, PolicyEngine, PolicyRule
from repro.services.catalog import ServiceCatalog
from repro.services.descriptor import ServiceDescriptor
from repro.workloads.intro import html_to_wml_scenario, jpeg_to_gif_scenario
from repro.workloads.paper import figure6_scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

MUTATIONS = [
    "none",
    "catalog-add",
    "catalog-remove",
    "topology-node",
    "topology-link",
    "placement",
    "reserve",
]


def _scenario(seed: int):
    return generate_scenario(
        SyntheticConfig(seed=seed, n_services=10, n_formats=6, n_nodes=6)
    )


def _mutate(scenario, ledger: BandwidthLedger, kind: str) -> None:
    if kind == "none":
        return
    if kind == "catalog-add":
        scenario.catalog.add(
            ServiceDescriptor(
                service_id="late-service",
                input_formats=(scenario.registry.names()[0],),
                output_formats=(scenario.registry.names()[-1],),
            )
        )
    elif kind == "catalog-remove":
        scenario.catalog.remove(scenario.catalog.ids()[-1])
    elif kind == "topology-node":
        scenario.topology.node("late-node")
    elif kind == "topology-link":
        scenario.topology.node("late-node")
        scenario.topology.link(scenario.sender_node, "late-node", 1e6)
    elif kind == "placement":
        service_id = scenario.catalog.ids()[0]
        scenario.placement.place(
            service_id, scenario.placement.node_of(service_id)
        )
    elif kind == "reserve":
        link = scenario.topology.links()[0]
        ledger.reserve([link.a, link.b], 1.0)
    else:  # pragma: no cover - guards against typo'd parametrization
        raise AssertionError(kind)


def _plan_fields(plan):
    result = plan.result
    return (
        result.success,
        result.path,
        result.formats,
        result.configuration,
        result.satisfaction,
        result.accumulated_cost,
    )


@given(seed=st.integers(min_value=0, max_value=150))
@settings(max_examples=25, deadline=None)
def test_cached_plan_equals_fresh_plan(seed):
    scenario = _scenario(seed)
    planner = BatchPlanner.for_scenario(scenario, cache=PlanCache())
    request = scenario.request()
    cached = planner.plan(request)
    fresh = planner.plan_uncached(request)
    assert _plan_fields(cached) == _plan_fields(fresh)


@given(
    seed=st.integers(min_value=0, max_value=150),
    mutation=st.sampled_from(MUTATIONS),
)
@settings(max_examples=40, deadline=None)
def test_mutation_between_calls_forces_recompute(seed, mutation):
    scenario = _scenario(seed)
    ledger = BandwidthLedger(scenario.topology)
    cache = PlanCache()
    planner = BatchPlanner.for_scenario(scenario, cache=cache)
    request = scenario.request()
    # Reservations reach planning only through a view on the residual.
    view = (
        CatalogView(topology=ledger.residual_topology())
        if mutation == "reserve"
        else None
    )

    first_fp = planner.fingerprint(request, view)
    first = planner.plan(request, view)
    _mutate(scenario, ledger, mutation)
    second_fp = planner.fingerprint(request, view)
    second = planner.plan(request, view)

    if mutation in ("none", "placement"):
        # Re-placing a service on its own node leaves the content alone.
        assert second_fp == first_fp
        assert second is first  # a genuine hit: the very same object
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
    else:
        assert second_fp != first_fp
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
    # Hit or recompute, the plan matches a from-scratch, memo-free run of
    # the mutated world.
    fresh = planner._plan_fresh(request, optimize_memo=None, view=view)
    assert _plan_fields(second) == _plan_fields(fresh)


# ----------------------------------------------------------------------
# Catalog views: masking through ``view=`` equals planning over a copy
# ----------------------------------------------------------------------
_VIEW_SCENARIOS = {
    "figure6": figure6_scenario,
    "jpeg-to-gif": lambda: jpeg_to_gif_scenario(include_monolith=True),
    "html-to-wml": html_to_wml_scenario,
    **{
        f"synthetic-{seed}": (
            lambda seed=seed: generate_scenario(
                SyntheticConfig(
                    seed=seed,
                    n_services=12,
                    n_formats=6,
                    n_nodes=6,
                    hw_tier_fraction=0.5,
                )
            )
        )
        for seed in range(4)
    },
}
_BUILT = {}


def _view_scenario(name):
    if name not in _BUILT:
        _BUILT[name] = _VIEW_SCENARIOS[name]()
    return _BUILT[name]


def _scaled_topology(topology, factor):
    """A copy of ``topology`` with every link's bandwidth scaled."""
    if factor is None:
        return None
    copy = NetworkTopology()
    for node in topology.nodes():
        copy.add_node(node)
    for link in topology.links():
        copy.add_link(
            dataclasses.replace(link, bandwidth_bps=link.bandwidth_bps * factor)
        )
    return copy


def _force_tier(tier):
    if tier is None:
        return None
    return PolicyEngine(
        PolicyDocument(
            name="pin",
            rules=(PolicyRule(rule_id="pin", action="force_tier", tier=tier),),
        )
    )


def _reference_planner(scenario, excluded, tier, topology):
    """The pre-view construction: a planner over a filtered copy."""
    catalog = ServiceCatalog(
        descriptor
        for descriptor in scenario.catalog
        if descriptor.service_id not in excluded
        and (tier is None or not descriptor.is_transcoder or descriptor.tier == tier)
    )
    mapping = {
        service_id: node_id
        for service_id, node_id in scenario.placement.as_dict().items()
        if service_id in catalog
    }
    placement = ServicePlacement(
        topology if topology is not None else scenario.placement.topology,
        mapping,
    )
    return BatchPlanner(
        registry=scenario.registry,
        parameters=scenario.parameters,
        catalog=catalog,
        placement=placement,
        cache=PlanCache(),
    )


def _outcome(plan_call):
    try:
        return _plan_fields(plan_call())
    except ReproError as exc:
        return ("error", type(exc).__name__)


@given(
    name=st.sampled_from(sorted(_VIEW_SCENARIOS)),
    tier=st.sampled_from([None, "sw", "hw"]),
    factor=st.sampled_from([None, 1.0, 0.3, 0.01]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_view_plans_equal_filtered_catalog_plans(name, tier, factor, data):
    scenario = _view_scenario(name)
    excluded = frozenset(data.draw(st.sets(st.sampled_from(scenario.catalog.ids()))))
    topology = _scaled_topology(scenario.topology, factor)
    view = CatalogView(excluded=excluded, topology=topology)
    planner = BatchPlanner.for_scenario(
        scenario, cache=PlanCache(), policy_engine=_force_tier(tier)
    )
    reference = _reference_planner(scenario, excluded, tier, topology)
    request = scenario.request()

    viewed = _outcome(lambda: planner.plan(request, view))
    assert viewed == _outcome(lambda: reference.plan(request))
    # A second call is served from the one shared cache, unchanged.
    assert _outcome(lambda: planner.plan(request, view)) == viewed


@given(
    name=st.sampled_from(sorted(_VIEW_SCENARIOS)),
    factors=st.tuples(
        st.sampled_from([None, 0.5, 0.25]), st.sampled_from([None, 0.5, 0.25])
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_view_fingerprints_separate_exactly_the_unequal_views(name, factors, data):
    scenario = _view_scenario(name)
    ids = st.sampled_from(scenario.catalog.ids())
    masks = (frozenset(data.draw(st.sets(ids))), frozenset(data.draw(st.sets(ids))))
    # Equal factors build equal-content topologies from distinct objects.
    views = [
        CatalogView(excluded=mask, topology=_scaled_topology(scenario.topology, f))
        for mask, f in zip(masks, factors)
    ]
    planner = BatchPlanner.for_scenario(scenario, cache=PlanCache())
    request = scenario.request()
    same = masks[0] == masks[1] and factors[0] == factors[1]
    first, second = (planner.fingerprint(request, view) for view in views)
    assert (first == second) == same
    if not masks[0] and factors[0] is None:
        # The identity view keys exactly like no view at all.
        assert first == planner.fingerprint(request)
