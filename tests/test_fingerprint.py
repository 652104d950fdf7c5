"""Canonical fingerprints and the hashability they are built on.

Two requirements back the plan cache (ISSUE: plan-cache key integrity):

- equal profiles against equal infrastructure yield equal fingerprints
  (so cache hits happen at all);
- mutating *any* field of *any* input — profile attribute, catalog entry,
  topology link, placement, reservation — yields a different fingerprint
  (so stale plans are unreachable).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.satisfaction import (
    HarmonicCombiner,
    LinearSatisfaction,
    MinimumCombiner,
)
from repro.formats.format import MediaFormat, MediaType
from repro.formats.variants import ContentVariant
from repro.core.configuration import Configuration
from repro.core.parameters import COLOR_DEPTH, FRAME_RATE, RESOLUTION
from repro.planner import PlanCache, fingerprint_request
from repro.profiles.context import ContextProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.user import AdaptationPolicy, UserProfile
from repro.services.descriptor import ServiceDescriptor
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


def _fingerprint(scenario, view=None, **overrides):
    request = replace(scenario.request(), **overrides)
    return fingerprint_request(request, scenario.catalog, scenario.placement, view)


def _user(**overrides) -> UserProfile:
    kwargs = dict(
        user_id="u1",
        satisfaction_functions={FRAME_RATE: LinearSatisfaction(0.0, 30.0)},
        combiner=HarmonicCombiner(),
        budget=100.0,
        policies=(AdaptationPolicy(FRAME_RATE, priority=0),),
        display_name="User One",
        max_delay_ms=500.0,
    )
    kwargs.update(overrides)
    return UserProfile(**kwargs)


def _device(**overrides) -> DeviceProfile:
    kwargs = dict(
        device_id="d1",
        decoders=["mpeg1", "mpeg4"],
        max_frame_rate=30.0,
        max_resolution=307200.0,
        cpu_mips=400.0,
        vendor="acme",
    )
    kwargs.update(overrides)
    return DeviceProfile(**kwargs)


# ----------------------------------------------------------------------
# Equal inputs => equal fingerprints
# ----------------------------------------------------------------------


def test_same_scenario_same_fingerprint():
    scenario = generate_scenario(SyntheticConfig(seed=3, n_services=10))
    assert _fingerprint(scenario) == _fingerprint(scenario)
    assert _fingerprint(scenario).digest == _fingerprint(scenario).digest


def test_identically_generated_scenarios_share_digests():
    a = generate_scenario(SyntheticConfig(seed=5, n_services=10))
    b = generate_scenario(SyntheticConfig(seed=5, n_services=10))
    # The stamp counters match too: both worlds were built the same way.
    assert _fingerprint(a) == _fingerprint(b)


def test_equal_profiles_are_equal_and_hash_alike():
    assert _user() == _user()
    assert hash(_user()) == hash(_user())
    assert _device() == _device()
    assert hash(_device()) == hash(_device())
    context = ContextProfile(location="office", activity="meeting")
    assert context == ContextProfile(location="office", activity="meeting")
    assert hash(context) == hash(ContextProfile(location="office", activity="meeting"))


def test_fingerprint_usable_as_dict_key():
    scenario = generate_scenario(SyntheticConfig(seed=3, n_services=10))
    cache = PlanCache()
    fingerprint = _fingerprint(scenario)
    cache.put(fingerprint, "plan")
    assert cache.get(_fingerprint(scenario)) == "plan"


# ----------------------------------------------------------------------
# Any mutated field => different fingerprint
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "override",
    [
        {"user_id": "u2"},
        {"display_name": "Someone Else"},
        {"budget": 99.0},
        {"max_delay_ms": 400.0},
        {"combiner": MinimumCombiner()},
        {"satisfaction_functions": {FRAME_RATE: LinearSatisfaction(0.0, 25.0)}},
        {"policies": ()},
        {
            "peer_overrides": {
                "bob": {FRAME_RATE: LinearSatisfaction(0.0, 10.0)}
            }
        },
    ],
)
def test_any_mutated_user_field_changes_key(override):
    assert _user().cache_key() != _user(**override).cache_key()
    assert _user() != _user(**override)


@pytest.mark.parametrize(
    "override",
    [
        {"device_id": "d2"},
        {"decoders": ["mpeg1"]},
        {"max_frame_rate": 25.0},
        {"max_resolution": None},
        {"max_color_depth": 8.0},
        {"max_audio_kbps": 64.0},
        {"cpu_mips": 200.0},
        {"memory_mb": 128.0},
        {"vendor": "other"},
        {"model": "x200"},
        {"attributes": {"touch": "yes"}},
    ],
)
def test_any_mutated_device_field_changes_key(override):
    assert _device().cache_key() != _device(**override).cache_key()
    assert _device() != _device(**override)


def test_mutated_request_profiles_change_fingerprint():
    scenario = generate_scenario(SyntheticConfig(seed=3, n_services=10))
    base = _fingerprint(scenario)
    other_device = DeviceProfile(
        device_id=scenario.device.device_id + "-x",
        decoders=scenario.device.decoders,
    )
    assert _fingerprint(scenario, device=other_device) != base
    assert _fingerprint(scenario, peer="bob") != base
    assert (
        _fingerprint(scenario, context=ContextProfile(location="train")) != base
    )


def test_catalog_mutation_changes_fingerprint():
    scenario = generate_scenario(SyntheticConfig(seed=3, n_services=10))
    base = _fingerprint(scenario)
    service_id = scenario.catalog.ids()[0]
    descriptor = scenario.catalog.get(service_id)
    scenario.catalog.remove(service_id)
    after_remove = _fingerprint(scenario)
    assert after_remove != base
    scenario.catalog.add(descriptor)
    # Same content as the start, but the generation counter moved on.
    assert _fingerprint(scenario) != base
    assert _fingerprint(scenario) != after_remove


def test_topology_mutation_changes_fingerprint():
    scenario = generate_scenario(SyntheticConfig(seed=3, n_services=10))
    base = _fingerprint(scenario)
    scenario.topology.node("late-proxy")
    with_node = _fingerprint(scenario)
    assert with_node != base
    scenario.topology.link(scenario.sender_node, "late-proxy", 1e6)
    assert _fingerprint(scenario) != with_node


def test_placement_mutation_changes_fingerprint():
    scenario = generate_scenario(SyntheticConfig(seed=3, n_services=10))
    base = _fingerprint(scenario)
    service_id = scenario.catalog.ids()[0]
    scenario.placement.place(service_id, scenario.placement.node_of(service_id))
    # Re-placing onto the same node is a no-op in content, but the plan
    # cache must still treat the world as moved.
    assert _fingerprint(scenario) != base


def test_reservation_changes_fingerprint_of_residual_view_request():
    from repro.core.graph import CatalogView
    from repro.network.reservations import BandwidthLedger

    scenario = generate_scenario(SyntheticConfig(seed=3, n_services=10))
    ledger = BandwidthLedger(scenario.topology)
    view = CatalogView(topology=ledger.residual_topology())
    base = _fingerprint(scenario, view=view)
    # An untouched residual carries the base topology's content.
    assert base == _fingerprint(scenario, view=view) == _fingerprint(scenario)
    link = scenario.topology.links()[0]
    reservation = ledger.reserve([link.a, link.b], 1.0)
    booked = _fingerprint(scenario, view=view)
    assert booked != base
    assert _fingerprint(scenario) == base  # the base topology is untouched
    ledger.release(reservation)
    # Release restores the residual's content, and with it the key: the
    # plan of that state is the plan of the unbooked world.
    assert _fingerprint(scenario, view=view) == base


def test_variant_assignment_order_changes_fingerprint():
    """The optimizer breaks degrade-order ties by assignment order, so the
    same variant values assigned in another order key another plan."""
    from repro.planner import BatchPlanner
    from repro.profiles.content import ContentProfile
    from repro.workloads.paper import figure6_scenario

    scenario = figure6_scenario()
    [variant] = scenario.content.variants
    values = variant.configuration.as_dict()
    assert list(values) == [FRAME_RATE, RESOLUTION, COLOR_DEPTH]
    reordered = ContentVariant(
        format=variant.format,
        configuration=Configuration(
            {name: values[name] for name in (FRAME_RATE, COLOR_DEPTH, RESOLUTION)}
        ),
        title=variant.title,
    )
    # Equal values: the variants compare and hash alike ...
    assert reordered == variant
    assert hash(reordered) == hash(variant)
    # ... but key apart.
    assert reordered.cache_key() != variant.cache_key()

    def request(content):
        return replace(scenario.request(), content=content)

    content = scenario.content
    planner = BatchPlanner.for_scenario(scenario)
    same = ContentProfile(
        content_id=content.content_id, variants=[variant], title=content.title
    )
    other = ContentProfile(
        content_id=content.content_id, variants=[reordered], title=content.title
    )
    assert planner.fingerprint(request(same)) == planner.fingerprint(
        request(content)
    )
    assert planner.fingerprint(request(other)) != planner.fingerprint(
        request(content)
    )


# ----------------------------------------------------------------------
# Hashability of the building blocks
# ----------------------------------------------------------------------


def test_formats_variants_descriptors_hash_with_mappings():
    fmt = MediaFormat(
        name="v",
        media_type=MediaType.VIDEO,
        codec="c",
        compression_ratio=10.0,
        attributes={"profile": "main"},
    )
    assert fmt in {fmt}
    variant = ContentVariant(
        format=fmt,
        configuration=Configuration({FRAME_RATE: 30.0}),
        metadata={"lang": "en"},
    )
    assert variant in {variant}
    descriptor = ServiceDescriptor(
        service_id="t1",
        input_formats=("a",),
        output_formats=("b",),
        output_caps={FRAME_RATE: 15.0},
    )
    assert descriptor in {descriptor}
    assert len({descriptor, descriptor}) == 1


def test_profiles_usable_in_sets():
    profiles = {
        _user(),
        _user(),
        _device(),
        _device(),
        ContextProfile(location="office"),
        ContextProfile(location="office"),
    }
    assert len(profiles) == 3
