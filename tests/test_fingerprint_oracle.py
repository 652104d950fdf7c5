"""Plan fingerprints against the full-tuple oracle.

Production fingerprints hash one memoized digest per infrastructure
component (catalog, topology, placement) in place of the component's
content key.  :mod:`tests.reference_fingerprint` keeps the combined
full-tuple key, built fresh on every call.  The property checked here:
two requests get equal production digests exactly when their reference
keys are equal.

Two worlds start as identical copies of one generated scenario, and every
step applies the same kind of mutation to both with independently drawn
arguments, so their generation stamps stay in lockstep while their content
may or may not part.  That way each component's digest is the only thing
that can tell the worlds apart: dropping any one of them from the key
makes two unequal reference keys share a digest.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.graph import CatalogView
from repro.core.parameters import FRAME_RATE
from repro.core.satisfaction import LinearSatisfaction
from repro.network.reservations import BandwidthLedger
from repro.planner import PlanRequest, fingerprint_request
from repro.profiles.device import DeviceProfile
from repro.profiles.user import UserProfile
from repro.services.descriptor import ServiceDescriptor
from repro.workloads.synthetic import SyntheticConfig, generate_scenario
from tests.reference_fingerprint import reference_key

STEPS = [
    "catalog-add",
    "catalog-remove",
    "topology-node",
    "topology-link",
    "placement",
    "book",
    "release",
    "capacity",
    "exclude",
    "user",
    "device",
]

#: Request knobs each world is fingerprinted under at every step.
KNOBS = [
    {},
    {"peer": "bob"},
]


class _World:
    """One generated scenario, its ledger and the request state over it."""

    def __init__(self, seed: int) -> None:
        self.scenario = generate_scenario(
            SyntheticConfig(seed=seed, n_services=8, n_formats=5, n_nodes=5)
        )
        self.ledger = BandwidthLedger(self.scenario.topology)
        self.bookings = []
        self.excluded = frozenset()
        self.user = self.scenario.user
        self.device = self.scenario.device

    def apply(self, kind: str, step: int, pick: int) -> None:
        """Apply one mutation of ``kind``; ``pick`` chooses its arguments."""
        scenario = self.scenario
        formats = scenario.registry.names()
        nodes = sorted(node.node_id for node in scenario.topology.nodes())
        links = sorted(
            (link.a, link.b) for link in self.ledger.residual_topology().links()
        )
        ids = scenario.catalog.ids()
        if kind == "catalog-add":
            scenario.catalog.add(
                ServiceDescriptor(
                    service_id=f"late-{step}",
                    input_formats=(formats[pick % len(formats)],),
                    output_formats=(formats[-1],),
                )
            )
        elif kind == "catalog-remove":
            if len(ids) > 1:
                scenario.catalog.remove(ids[pick % len(ids)])
        elif kind == "topology-node":
            scenario.topology.node(f"late-{step}-{pick % 2}")
        elif kind == "topology-link":
            scenario.topology.node(f"late-{step}")
            scenario.topology.link(
                nodes[pick % len(nodes)], f"late-{step}", 1e6 * (1 + pick % 2)
            )
        elif kind == "placement":
            scenario.placement.place(ids[pick % len(ids)], nodes[pick % len(nodes)])
        elif kind == "book":
            a, b = links[pick % len(links)]
            self.bookings.append(self.ledger.reserve([a, b], 1e3 * (1 + pick % 2)))
        elif kind == "release":
            if self.bookings:
                self.ledger.release(self.bookings.pop())
        elif kind == "capacity":
            a, b = links[pick % len(links)]
            nominal = scenario.topology.get_link(a, b).bandwidth_bps
            self.ledger.set_capacity(a, b, nominal * (pick % 3) / 2)
        elif kind == "exclude":
            self.excluded = frozenset(
                service_id
                for index, service_id in enumerate(ids)
                if (pick >> index) & 1
            )
        elif kind == "user":
            self.user = UserProfile(
                user_id=f"viewer-{pick % 2}",
                satisfaction_functions={
                    FRAME_RATE: LinearSatisfaction(0.0, 10.0 * (1 + pick % 3))
                },
                budget=scenario.user.budget,
            )
        elif kind == "device":
            decoders = scenario.device.decoders
            self.device = DeviceProfile(
                device_id=scenario.device.device_id,
                decoders=decoders[: 1 + pick % len(decoders)],
            )
        else:  # pragma: no cover - guards against a typo'd step list
            raise AssertionError(kind)

    def requests(self):
        """Every (view, knobs) request this world fingerprints per step."""
        scenario = self.scenario
        views = [
            None,
            CatalogView(excluded=self.excluded),
            CatalogView(
                excluded=self.excluded, topology=self.ledger.residual_topology()
            ),
        ]
        for view in views:
            for knobs in KNOBS:
                yield dict(
                    user=self.user,
                    content=scenario.content,
                    device=self.device,
                    sender_node=scenario.sender_node,
                    receiver_node=scenario.receiver_node,
                    catalog=scenario.catalog,
                    placement=scenario.placement,
                    context=scenario.context,
                    view=view,
                    **knobs,
                )


@given(
    seed=st.integers(min_value=0, max_value=60),
    steps=st.lists(
        st.tuples(
            st.sampled_from(STEPS),
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=0, max_value=63),
        ),
        max_size=8,
    ),
)
@settings(max_examples=60, deadline=None)
def test_digests_equal_exactly_when_reference_keys_are(seed, steps):
    worlds = (_World(seed), _World(seed))
    digests_of = {}
    keys_of = {}

    def observe() -> None:
        for world in worlds:
            for request in world.requests():
                key = reference_key(**request)
                digest = fingerprint_request(
                    PlanRequest(
                        content=request["content"],
                        device=request["device"],
                        user=request["user"],
                        sender_node=request["sender_node"],
                        receiver_node=request["receiver_node"],
                        context=request["context"],
                        peer=request.get("peer"),
                    ),
                    request["catalog"],
                    request["placement"],
                    request["view"],
                ).digest
                digests_of.setdefault(key, set()).add(digest)
                keys_of.setdefault(digest, set()).add(key)

    observe()
    for step, (kind, first_pick, second_pick) in enumerate(steps):
        for world, pick in zip(worlds, (first_pick, second_pick)):
            world.apply(kind, step, pick)
        observe()

    assert all(len(digests) == 1 for digests in digests_of.values())
    assert all(len(keys) == 1 for keys in keys_of.values())
