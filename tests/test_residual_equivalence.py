"""Property-based tests (hypothesis): one live residual topology.

The bandwidth ledger keeps a single residual topology up to date in
place; the simulator plans, routes and checks fits against it.  Driven
through random sequences of bookings (``reserve_plan``, group claims),
releases and faults (link factors, node failures and restores), after
every step:

- the live residual equals the per-move rebuild kept in
  ``tests/reference_residual.py`` under ``==``: every link field, the
  node order and every node's neighbor order;
- it is the same object on every call;
- any step that changed the world raised the ledger's and the residual's
  ``generation`` strictly;
- a fingerprint whose view holds the live residual equals one whose view
  holds the fresh rebuild, and it changed exactly when the residual's
  content did, so the fingerprint's per-(object, generation) key memo
  never serves a stale key for the live object.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.graph import CatalogView
from repro.errors import ValidationError
from repro.network.reservations import EdgeDemand
from repro.planner.batch import PlanRequest
from repro.planner.fingerprint import fingerprint_request
from repro.sim.world import SimWorld
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from tests.reference_residual import reference_residual

SCENARIO = generate_scenario(
    SyntheticConfig(seed=5, n_services=12, n_formats=8, n_nodes=8, extra_links=6)
)
LINKS = SCENARIO.topology.links()
NODES = SCENARIO.topology.node_ids()
RECEIVERS = [node for node in NODES if node != SCENARIO.sender_node]
FACTORS = [0.0, 0.05, 0.3, 0.5, 1.0]
SHARES = [0.05, 0.2, 0.45]

steps = st.one_of(
    st.tuples(st.just("plan"), st.integers(0, len(RECEIVERS) - 1)),
    st.tuples(st.just("release"), st.integers(0, 30)),
    st.tuples(
        st.just("group"),
        st.lists(st.integers(0, len(LINKS) - 1), min_size=1, max_size=3),
        st.sampled_from(SHARES),
    ),
    st.tuples(
        st.just("factor"),
        st.integers(0, len(LINKS) - 1),
        st.sampled_from(FACTORS),
    ),
    st.tuples(st.just("fail"), st.integers(0, len(NODES) - 1)),
    st.tuples(st.just("restore"), st.integers(0, len(NODES) - 1)),
)


def _request(receiver: str) -> PlanRequest:
    return replace(SCENARIO.request(), receiver_node=receiver)


def _digest(topology) -> str:
    return fingerprint_request(
        SCENARIO.request(),
        SCENARIO.catalog,
        SCENARIO.placement,
        CatalogView(topology=topology),
    ).digest


def _apply(world: SimWorld, held: list, step: tuple) -> bool:
    """Run one step; return whether it must have changed the world."""
    kind = step[0]
    if kind == "plan":
        request = _request(RECEIVERS[step[1]])
        plan = world.plan(request)
        leases = world.reserve_plan(plan, request) if plan is not None else None
        if leases is None:
            return False
        held.append(lambda: world.release(leases))
        return True
    if kind == "release":
        if not held:
            return False
        held.pop(step[1] % len(held))()
        return True
    if kind == "group":
        demands = [
            EdgeDemand(
                route=(LINKS[i].a, LINKS[i].b),
                bandwidth_bps=LINKS[i].bandwidth_bps * step[2],
            )
            for i in step[1]
        ]
        try:
            taken = world.ledger.reserve_group(demands, label="prop")
        except ValidationError:
            return False
        held.append(lambda: [world.ledger.release(r) for r in taken])
        return True
    if kind == "factor":
        link = LINKS[step[1]]
        world.set_link_factor(link.a, link.b, step[2])
    elif kind == "fail":
        world.fail_node(NODES[step[1]])
    else:
        world.restore_node(NODES[step[1]])
    return True


def _assert_equal(live, reference) -> None:
    assert live.nodes() == reference.nodes()
    assert live.links() == reference.links()
    for node_id in reference.node_ids():
        assert live.neighbors(node_id) == reference.neighbors(node_id)


@given(sequence=st.lists(steps, min_size=1, max_size=14))
@settings(max_examples=60, deadline=None)
def test_live_residual_matches_the_rebuild_after_every_step(sequence):
    world = SimWorld(SCENARIO)
    live = world.ledger.residual_topology()
    _assert_equal(live, reference_residual(world))
    held: list = []
    links = live.links()
    digest = _digest(live)
    for step in sequence:
        ledger_generation, live_generation = world.ledger.generation, live.generation
        changed = _apply(world, held, step)
        assert world.ledger.residual_topology() is live
        reference = reference_residual(world)
        _assert_equal(live, reference)
        if changed:
            assert world.ledger.generation > ledger_generation
            assert live.generation > live_generation
        else:
            assert world.ledger.generation >= ledger_generation
            assert live.generation >= live_generation
        new_digest = _digest(live)
        assert new_digest == _digest(reference)
        assert (new_digest != digest) == (reference.links() != links)
        links, digest = reference.links(), new_digest
    for release in held:
        release()
    assert len(world.ledger) == 0
    _assert_equal(live, reference_residual(world))
