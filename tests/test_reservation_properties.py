"""Property-based tests for the bandwidth ledger (conservation laws)."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.network.reservations import BandwidthLedger
from repro.network.topology import NetworkTopology

LINK_CAPACITY = 10e6
CHAIN_LENGTH = 5


def fresh_ledger() -> BandwidthLedger:
    """A ledger over the chain ``hop0 -- hop1 -- ... -- hop4``."""
    topology = NetworkTopology()
    for index in range(CHAIN_LENGTH):
        topology.node(f"hop{index}")
    for index in range(CHAIN_LENGTH - 1):
        topology.link(
            f"hop{index}", f"hop{index + 1}", LINK_CAPACITY, delay_ms=5.0
        )
    return BandwidthLedger(topology)


route_strategy = st.tuples(
    st.integers(min_value=0, max_value=CHAIN_LENGTH - 2),
    st.integers(min_value=1, max_value=CHAIN_LENGTH - 1),
).map(
    lambda pair: [
        f"hop{i}"
        for i in range(min(pair[0], pair[1] - 1), max(pair[0] + 1, pair[1]) + 1)
    ]
)

demand_strategy = st.floats(
    min_value=1.0, max_value=LINK_CAPACITY, allow_nan=False
)


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(
        st.tuples(route_strategy, demand_strategy), min_size=1, max_size=20
    )
)
def test_reserve_release_conserves_capacity(operations):
    """After releasing everything, every link is back to full capacity."""
    ledger = fresh_ledger()
    taken = []
    for route, demand in operations:
        try:
            taken.append(ledger.reserve(route, demand))
        except ValidationError:
            pass  # over-subscription rejections reserve nothing
    for reservation in taken:
        ledger.release(reservation)
    for i in range(CHAIN_LENGTH - 1):
        assert math.isclose(
            ledger.residual(f"hop{i}", f"hop{i + 1}"),
            LINK_CAPACITY,
            rel_tol=1e-9,
        )
    assert len(ledger) == 0


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(
        st.tuples(route_strategy, demand_strategy), min_size=1, max_size=20
    )
)
def test_residuals_never_negative_and_sum_consistent(operations):
    """Residual = capacity - sum of active reservations crossing the
    link, and never below zero."""
    ledger = fresh_ledger()
    for route, demand in operations:
        try:
            ledger.reserve(route, demand)
        except ValidationError:
            pass
    for i in range(CHAIN_LENGTH - 1):
        a, b = f"hop{i}", f"hop{i + 1}"
        key = (a, b)
        expected_load = sum(
            r.bandwidth_bps
            for r in ledger.active_reservations()
            if key in r.links() or (b, a) in r.links()
        )
        residual = ledger.residual(a, b)
        assert residual >= -1e-6
        assert math.isclose(
            residual, max(0.0, LINK_CAPACITY - expected_load), rel_tol=1e-9
        )


@settings(max_examples=40, deadline=None)
@given(
    operations=st.lists(
        st.tuples(route_strategy, demand_strategy), min_size=1, max_size=16
    )
)
def test_residual_topology_matches_residuals(operations):
    ledger = fresh_ledger()
    for route, demand in operations:
        try:
            ledger.reserve(route, demand)
        except ValidationError:
            pass
    residual = ledger.residual_topology()
    for link in residual.links():
        assert math.isclose(
            link.bandwidth_bps,
            ledger.residual(link.a, link.b),
            rel_tol=1e-9,
        )


# ----------------------------------------------------------------------
# Group (tree) reservations: all-or-nothing semantics
# ----------------------------------------------------------------------

def _demands(operations):
    from repro.network.reservations import EdgeDemand

    return [
        EdgeDemand(route=tuple(route), bandwidth_bps=demand)
        for route, demand in operations
    ]


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(
        st.tuples(route_strategy, demand_strategy), min_size=1, max_size=12
    )
)
def test_reserve_group_is_all_or_nothing(operations):
    """A failing group leaks nothing: either every edge is held or none.

    The same demand list is attempted as one group; when any edge
    over-subscribes a link mid-list, the edges already taken must be
    released — every link's residual reads exactly as if the group had
    never been attempted.
    """
    ledger = fresh_ledger()
    try:
        taken = ledger.reserve_group(_demands(operations))
    except ValidationError:
        # Rolled back: the ledger is empty and every link pristine.
        assert len(ledger) == 0
        for i in range(CHAIN_LENGTH - 1):
            assert math.isclose(
                ledger.residual(f"hop{i}", f"hop{i + 1}"),
                LINK_CAPACITY,
                rel_tol=1e-9,
            )
    else:
        # Committed whole: one reservation per demanded edge.
        assert len(taken) == len(operations)
        assert len(ledger) == len(operations)


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(
        st.tuples(route_strategy, demand_strategy), min_size=1, max_size=12
    )
)
def test_reserve_group_release_conserves_capacity(operations):
    """Group reserve followed by release restores full capacity."""
    ledger = fresh_ledger()
    try:
        taken = ledger.reserve_group(_demands(operations))
    except ValidationError:
        taken = []
    for reservation in taken:
        ledger.release(reservation)
    assert len(ledger) == 0
    for i in range(CHAIN_LENGTH - 1):
        assert math.isclose(
            ledger.residual(f"hop{i}", f"hop{i + 1}"),
            LINK_CAPACITY,
            rel_tol=1e-9,
        )


@settings(max_examples=40, deadline=None)
@given(
    held=st.lists(
        st.tuples(route_strategy, demand_strategy), min_size=1, max_size=6
    ),
    attempted=st.lists(
        st.tuples(route_strategy, demand_strategy), min_size=1, max_size=8
    ),
)
def test_failed_group_leaves_prior_reservations_intact(held, attempted):
    """A rolled-back group must not disturb unrelated held reservations."""
    ledger = fresh_ledger()
    prior = []
    for route, demand in held:
        try:
            prior.append(ledger.reserve(route, demand * 0.1))
        except ValidationError:
            pass
    residuals_before = {
        (f"hop{i}", f"hop{i + 1}"): ledger.residual(f"hop{i}", f"hop{i + 1}")
        for i in range(CHAIN_LENGTH - 1)
    }
    try:
        taken = ledger.reserve_group(_demands(attempted))
    except ValidationError:
        taken = None
    if taken is None:
        assert len(ledger) == len(prior)
        for (a, b), residual in residuals_before.items():
            assert math.isclose(ledger.residual(a, b), residual, rel_tol=1e-9)
    else:
        assert len(ledger) == len(prior) + len(attempted)


def test_reserve_group_rejects_empty_demand_list():
    ledger = fresh_ledger()
    try:
        ledger.reserve_group([])
    except ValidationError:
        pass
    else:  # pragma: no cover - failure mode
        raise AssertionError("empty group reservation must be rejected")
    assert len(ledger) == 0
