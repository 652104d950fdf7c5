"""Unit and property tests for ``repro.group`` (shared adaptation trees).

The load-bearing property (docs/ALGORITHM.md §9): every feasible class's
tree branch is *exactly* that class's standalone-optimal chain — same
path, formats, configuration, satisfaction — and every infeasible class
is an explicit fallback.  Prefix sharing may only merge identical chain
prefixes; it must never trade per-class quality for sharing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.group import (
    GroupPlanner,
    GroupReceiver,
    GroupRequest,
    build_shared_tree,
)
from repro.network.reservations import BandwidthLedger
from repro.planner import BatchPlanner, device_variants
from repro.profiles.device import DeviceProfile
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


def _scenario(seed: int = 7):
    return generate_scenario(
        SyntheticConfig(seed=seed, n_services=10, n_formats=6, n_nodes=6)
    )


def _receivers(scenario, n_classes: int, sessions_each: int = 3):
    return tuple(
        GroupReceiver(
            class_id=f"class-{index}", device=device, sessions=sessions_each
        )
        for index, device in enumerate(
            device_variants(scenario.device, n_classes)
        )
    )


def _request(scenario, receivers) -> GroupRequest:
    return GroupRequest(
        content=scenario.content,
        user=scenario.user,
        sender_node=scenario.sender_node,
        receiver_node=scenario.receiver_node,
        receivers=receivers,
        context=scenario.context,
    )


def _standalone(scenario, planner: BatchPlanner, receiver):
    return planner.plan_uncached(scenario.request(receiver.device)).result


def _brick(device_id: str = "brick") -> DeviceProfile:
    """A device no catalog can serve: its only decoder matches nothing."""
    return DeviceProfile(device_id=device_id, decoders=("no-such-codec",))


# ----------------------------------------------------------------------
# Request vocabulary
# ----------------------------------------------------------------------
class TestGroupRequest:
    def test_rejects_empty_receiver_set(self):
        scenario = _scenario()
        with pytest.raises(ValidationError):
            _request(scenario, ())

    def test_rejects_duplicate_class_ids(self):
        scenario = _scenario()
        variants = device_variants(scenario.device, 2)
        with pytest.raises(ValidationError, match="class"):
            _request(
                scenario,
                (
                    GroupReceiver(class_id="dup", device=variants[0]),
                    GroupReceiver(class_id="dup", device=variants[1]),
                ),
            )

    def test_rejects_duplicate_devices(self):
        scenario = _scenario()
        with pytest.raises(ValidationError, match="device"):
            _request(
                scenario,
                (
                    GroupReceiver(class_id="a", device=scenario.device),
                    GroupReceiver(class_id="b", device=scenario.device),
                ),
            )

    def test_rejects_nonpositive_sessions(self):
        scenario = _scenario()
        with pytest.raises(ValidationError):
            GroupReceiver(
                class_id="a", device=scenario.device, sessions=0
            )

    def test_total_sessions_sums_classes(self):
        scenario = _scenario()
        request = _request(scenario, _receivers(scenario, 4, sessions_each=5))
        assert request.total_sessions == 20


# ----------------------------------------------------------------------
# Tree structure
# ----------------------------------------------------------------------
class TestSharedTree:
    def test_identical_chains_share_every_edge(self):
        """Classes with byte-identical chains collapse to one leaf."""
        scenario = _scenario()
        planner = BatchPlanner.for_scenario(scenario)
        # Variants 0 and 8 have the same frame cap (i % 8), hence the
        # same configuration and chain.
        variants = device_variants(scenario.device, 9)
        request = _request(
            scenario,
            (
                GroupReceiver(class_id="a", device=variants[0]),
                GroupReceiver(class_id="b", device=variants[8]),
            ),
        )
        results = {
            r.class_id: _standalone(scenario, planner, r)
            for r in request.receivers
        }
        assert all(result.success for result in results.values())
        tree = build_shared_tree(
            results, {"a": 1, "b": 1}, planner.registry
        )
        assert tree.branch_count == 1
        assert tree.shared_edge_count == len(tree.edges)
        for edge in tree.edges:
            assert edge.classes == ("a", "b")

    def test_divergent_configurations_do_not_share(self):
        """Different delivered configurations must keep separate leaves."""
        scenario = _scenario()
        planner = BatchPlanner.for_scenario(scenario)
        variants = device_variants(scenario.device, 4)
        request = _request(
            scenario,
            tuple(
                GroupReceiver(class_id=f"c{i}", device=v)
                for i, v in enumerate(variants)
            ),
        )
        results = {
            r.class_id: _standalone(scenario, planner, r)
            for r in request.receivers
        }
        sessions = {r.class_id: 1 for r in request.receivers}
        tree = build_shared_tree(results, sessions, planner.registry)
        distinct_configs = {
            tuple(sorted(result.configuration.as_dict().items()))
            for result in results.values()
            if result.success
        }
        assert tree.branch_count == len(distinct_configs)

    def test_bandwidth_accounting(self):
        """tree <= per-session; savings is exactly the difference."""
        scenario = _scenario()
        planner = GroupPlanner.for_scenario(scenario)
        request = _request(scenario, _receivers(scenario, 6, sessions_each=4))
        tree = planner.plan(request).tree
        per_session = tree.per_session_bandwidth_bps()
        tree_bps = tree.tree_bandwidth_bps()
        assert tree_bps <= per_session
        assert tree.saved_bandwidth_bps() == pytest.approx(
            per_session - tree_bps
        )

    def test_digest_is_deterministic_and_sensitive(self):
        scenario = _scenario()
        planner = GroupPlanner.for_scenario(scenario)
        small = _request(scenario, _receivers(scenario, 3))
        large = _request(scenario, _receivers(scenario, 4))
        again = GroupPlanner.for_scenario(_scenario())
        assert (
            planner.plan(small).tree.digest()
            == again.plan(small).tree.digest()
        )
        assert (
            planner.plan(small).tree.digest()
            != planner.plan(large).tree.digest()
        )

    def test_all_infeasible_group_has_no_branches(self):
        scenario = _scenario()
        planner = GroupPlanner.for_scenario(scenario)
        request = _request(
            scenario, (GroupReceiver(class_id="x", device=_brick()),)
        )
        plan = planner.plan(request)
        assert not plan.success
        assert plan.tree.branches == ()
        assert [class_id for class_id, _ in plan.tree.fallbacks] == ["x"]
        assert plan.tree.tree_bandwidth_bps() == 0.0


# ----------------------------------------------------------------------
# The satisfaction-equivalence property (ISSUE acceptance gate)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=40),
    n_classes=st.integers(min_value=1, max_value=12),
    sessions_each=st.integers(min_value=1, max_value=9),
    add_brick=st.booleans(),
)
def test_branches_equal_standalone_optimal(
    seed, n_classes, sessions_each, add_brick
):
    """Every branch == its class's standalone optimum; the rest fall back.

    Whenever prefix sharing holds (i.e. the class is feasible at all),
    the branch must be satisfaction-equivalent — in fact chain-identical
    — to planning that class alone; infeasible classes surface as
    explicit fallbacks carrying a reason, never as silently degraded
    branches.
    """
    scenario = _scenario(seed)
    receivers = list(_receivers(scenario, n_classes, sessions_each))
    if add_brick:
        receivers.append(GroupReceiver(class_id="zz-brick", device=_brick()))
    request = _request(scenario, tuple(receivers))

    planner = GroupPlanner.for_scenario(scenario)
    plan = planner.plan(request)
    baseline = BatchPlanner.for_scenario(scenario)

    branches = {branch.class_id: branch for branch in plan.tree.branches}
    fallbacks = dict(plan.tree.fallbacks)
    for receiver in request.receivers:
        standalone = _standalone(scenario, baseline, receiver)
        if standalone.success:
            branch = branches[receiver.class_id]
            assert branch.result.path == standalone.path
            assert branch.result.formats == standalone.formats
            assert branch.satisfaction == standalone.satisfaction
            assert branch.sessions == receiver.sessions
            assert receiver.class_id not in fallbacks
        else:
            assert receiver.class_id in fallbacks
            assert fallbacks[receiver.class_id]
            assert receiver.class_id not in branches
    assert set(branches) | set(fallbacks) == {
        receiver.class_id for receiver in request.receivers
    }


# ----------------------------------------------------------------------
# Tree cache and fingerprints
# ----------------------------------------------------------------------
class TestGroupPlannerCache:
    def test_repeat_group_hits_tree_cache(self):
        scenario = _scenario()
        planner = GroupPlanner.for_scenario(scenario)
        request = _request(scenario, _receivers(scenario, 4))
        first, hit_first = planner.plan_with_cache_info(request)
        second, hit_second = planner.plan_with_cache_info(request)
        assert not hit_first
        assert hit_second
        assert second is first

    def test_receiver_order_is_canonicalized(self):
        scenario = _scenario()
        planner = GroupPlanner.for_scenario(scenario)
        receivers = _receivers(scenario, 3)
        forward = _request(scenario, receivers)
        backward = _request(scenario, tuple(reversed(receivers)))
        assert (
            planner.fingerprint(forward).digest
            == planner.fingerprint(backward).digest
        )
        planner.plan(forward)
        _, hit = planner.plan_with_cache_info(backward)
        assert hit

    def test_session_count_changes_the_fingerprint(self):
        scenario = _scenario()
        planner = GroupPlanner.for_scenario(scenario)
        light = _request(scenario, _receivers(scenario, 3, sessions_each=1))
        heavy = _request(scenario, _receivers(scenario, 3, sessions_each=5))
        assert (
            planner.fingerprint(light).digest
            != planner.fingerprint(heavy).digest
        )

    def test_world_mutation_invalidates_the_tree(self):
        scenario = _scenario()
        planner = GroupPlanner.for_scenario(scenario)
        request = _request(scenario, _receivers(scenario, 3))
        planner.plan(request)
        scenario.catalog.remove(scenario.catalog.ids()[-1])
        _, hit = planner.plan_with_cache_info(request)
        assert not hit

    def test_plan_uncached_matches_cached(self):
        scenario = _scenario()
        planner = GroupPlanner.for_scenario(scenario)
        request = _request(scenario, _receivers(scenario, 5))
        assert (
            planner.plan(request).tree.digest()
            == planner.plan_uncached(request).tree.digest()
        )


# ----------------------------------------------------------------------
# Tree reservation
# ----------------------------------------------------------------------
class TestGroupReservation:
    def test_reserves_once_per_edge_and_releases_clean(self):
        scenario = _scenario()
        ledger = BandwidthLedger(scenario.topology)
        planner = GroupPlanner.for_scenario(scenario)
        request = _request(scenario, _receivers(scenario, 2, sessions_each=4))
        plan = planner.plan(request)
        taken = planner.reserve(
            plan, ledger, request.sender_node, request.receiver_node
        )
        assert len(taken) == len(plan.tree.edges)
        for reservation in taken:
            ledger.release(reservation)
        assert len(ledger) == 0

    def test_reserving_an_empty_tree_is_an_error(self):
        scenario = _scenario()
        ledger = BandwidthLedger(scenario.topology)
        planner = GroupPlanner.for_scenario(scenario)
        request = _request(
            scenario, (GroupReceiver(class_id="x", device=_brick()),)
        )
        plan = planner.plan(request)
        with pytest.raises(ValidationError):
            planner.reserve(
                plan, ledger, request.sender_node, request.receiver_node
            )
