"""Unit tests for the network substrate: topology, bandwidth, placement."""

from __future__ import annotations

import math

import pytest

from repro.errors import PlacementError, UnknownNodeError, ValidationError
from repro.network.bandwidth import (
    BandwidthEstimator,
    ConstantBandwidth,
    RandomWalkBandwidth,
    SinusoidalBandwidth,
)
from repro.network.placement import ServicePlacement
from repro.network.topology import Link, NetworkNode, NetworkTopology


def diamond_topology() -> NetworkTopology:
    """a -- b -- d and a -- c -- d; the b-route is wide, the c-route cheap."""
    topology = NetworkTopology()
    for node_id in ("a", "b", "c", "d"):
        topology.node(node_id)
    topology.link("a", "b", 10e6, delay_ms=10.0, cost=2.0)
    topology.link("b", "d", 8e6, delay_ms=10.0, cost=2.0)
    topology.link("a", "c", 2e6, delay_ms=1.0, cost=0.1)
    topology.link("c", "d", 2e6, delay_ms=1.0, cost=0.1)
    return topology


class TestTopologyConstruction:
    def test_add_node_and_lookup(self):
        topology = NetworkTopology()
        node = topology.node("a", cpu_mips=100.0)
        assert topology.get_node("a") is node
        assert "a" in topology
        assert len(topology) == 1

    def test_duplicate_node_same_definition_ok(self):
        topology = NetworkTopology()
        topology.add_node(NetworkNode("a"))
        topology.add_node(NetworkNode("a"))
        assert len(topology) == 1

    def test_duplicate_node_different_definition_rejected(self):
        topology = NetworkTopology()
        topology.node("a", cpu_mips=1.0)
        with pytest.raises(ValidationError):
            topology.node("a", cpu_mips=2.0)

    def test_link_requires_known_nodes(self):
        topology = NetworkTopology()
        topology.node("a")
        with pytest.raises(UnknownNodeError):
            topology.link("a", "ghost", 1e6)

    def test_self_link_rejected(self):
        with pytest.raises(ValidationError):
            Link("a", "a", 1e6)

    def test_duplicate_link_rejected(self):
        topology = diamond_topology()
        with pytest.raises(ValidationError):
            topology.link("b", "a", 1e6)

    def test_link_lookup_is_direction_free(self):
        topology = diamond_topology()
        assert topology.get_link("a", "b") is topology.get_link("b", "a")
        assert topology.has_link("d", "b")
        assert not topology.has_link("a", "d")

    def test_link_validation(self):
        with pytest.raises(ValidationError):
            Link("a", "b", -1.0)
        with pytest.raises(ValidationError):
            Link("a", "b", 1.0, loss_rate=1.5)
        with pytest.raises(ValidationError):
            Link("a", "b", 1.0, delay_ms=-1.0)

    def test_link_other_endpoint(self):
        link = Link("a", "b", 1e6)
        assert link.other("a") == "b"
        assert link.other("b") == "a"
        with pytest.raises(UnknownNodeError):
            link.other("z")

    def test_neighbors(self):
        topology = diamond_topology()
        assert sorted(topology.neighbors("a")) == ["b", "c"]
        with pytest.raises(UnknownNodeError):
            topology.neighbors("ghost")


class TestInPlaceUpdates:
    def test_set_bandwidth_replaces_one_link(self):
        topology = diamond_topology()
        before = topology.get_link("a", "b")
        generation = topology.generation
        updated = topology.set_bandwidth("b", "a", 1e6)
        assert topology.generation == generation + 1
        assert topology.get_link("a", "b") is updated
        assert updated == Link("a", "b", 1e6, delay_ms=10.0, cost=2.0)
        assert before.bandwidth_bps == 10e6  # links stay immutable
        assert [link.endpoints() for link in topology.links()] == [
            ("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"),
        ]
        assert topology.widest_path("a", "d") == ["a", "c", "d"]

    def test_set_bandwidth_unknown_link_raises(self):
        topology = diamond_topology()
        generation = topology.generation
        with pytest.raises(UnknownNodeError):
            topology.set_bandwidth("a", "d", 1e6)
        with pytest.raises(UnknownNodeError):
            topology.set_bandwidth("a", "ghost", 1e6)
        assert topology.generation == generation

    def test_set_bandwidth_rejects_negative(self):
        topology = diamond_topology()
        generation = topology.generation
        with pytest.raises(ValidationError):
            topology.set_bandwidth("a", "b", -1.0)
        assert topology.get_link("a", "b").bandwidth_bps == 10e6
        assert topology.generation == generation

    def test_copy_is_equal_and_independent(self):
        topology = diamond_topology()
        clone = topology.copy()
        assert clone.nodes() == topology.nodes()
        assert clone.links() == topology.links()
        for node_id in topology.node_ids():
            assert clone.neighbors(node_id) == topology.neighbors(node_id)
        clone.set_bandwidth("a", "b", 1.0)
        clone.node("e")
        clone.link("d", "e", 1e6)
        assert topology.get_link("a", "b").bandwidth_bps == 10e6
        assert "e" not in topology
        assert topology.neighbors("d") == ["b", "c"]
        topology.set_bandwidth("c", "d", 5.0)
        assert clone.get_link("c", "d").bandwidth_bps == 2e6


class TestRouting:
    def test_widest_path_prefers_fat_route(self):
        topology = diamond_topology()
        assert topology.widest_path("a", "d") == ["a", "b", "d"]
        assert topology.available_bandwidth("a", "d") == 8e6

    def test_same_node_bandwidth_unlimited(self):
        topology = diamond_topology()
        assert math.isinf(topology.available_bandwidth("a", "a"))

    def test_disconnected_bandwidth_zero(self):
        topology = diamond_topology()
        topology.node("island")
        assert topology.widest_path("a", "island") is None
        assert topology.available_bandwidth("a", "island") == 0.0

    def test_hop_route(self):
        topology = diamond_topology()
        topology.node("island")
        assert topology.hop_route("a", "d") == ("a", "b", "d")
        assert topology.hop_route("b", "b") == ("b",)
        assert topology.hop_route("a", "island") is None

    def test_unknown_node_raises(self):
        with pytest.raises(UnknownNodeError):
            diamond_topology().widest_path("a", "ghost")

    def test_unknown_source_checked_before_target(self):
        with pytest.raises(UnknownNodeError) as raised:
            diamond_topology().widest_path("ghost-source", "ghost-target")
        assert raised.value.node_id == "ghost-source"

    def test_trivial_query_on_unknown_node_raises(self):
        with pytest.raises(UnknownNodeError) as raised:
            diamond_topology().widest_path("ghost", "ghost")
        assert raised.value.node_id == "ghost"

    def test_widest_routes_price_every_reachable_node(self):
        topology = diamond_topology()
        topology.node("island")
        routes = topology.widest_routes("a")
        assert routes["a"] == (math.inf, 0.0, 0.0)
        assert routes["d"] == (8e6, 4.0, 20.0)  # the wide b-route, not c's
        assert routes["c"] == (2e6, 0.1, 1.0)
        assert "island" not in routes
        with pytest.raises(UnknownNodeError):
            topology.widest_routes("ghost")

    def test_shortest_path_hops(self):
        topology = diamond_topology()
        path = topology.shortest_path("a", "d")
        assert len(path) == 3  # either route is two hops

    def test_shortest_path_delay_prefers_c_route(self):
        topology = diamond_topology()
        assert topology.shortest_path("a", "d", weight="delay") == ["a", "c", "d"]

    def test_shortest_path_cost_prefers_c_route(self):
        topology = diamond_topology()
        assert topology.shortest_path("a", "d", weight="cost") == ["a", "c", "d"]

    def test_shortest_path_unknown_weight(self):
        with pytest.raises(ValidationError):
            diamond_topology().shortest_path("a", "d", weight="karma")

    def test_path_aggregates(self):
        topology = diamond_topology()
        path = ["a", "c", "d"]
        assert topology.path_delay_ms(path) == pytest.approx(2.0)
        assert topology.path_cost(path) == pytest.approx(0.2)
        assert topology.path_bottleneck(path) == 2e6

    def test_path_loss_combines_independently(self):
        topology = NetworkTopology()
        for n in ("a", "b", "c"):
            topology.node(n)
        topology.link("a", "b", 1e6, loss_rate=0.1)
        topology.link("b", "c", 1e6, loss_rate=0.1)
        assert topology.path_loss_rate(["a", "b", "c"]) == pytest.approx(0.19)

    def test_trivial_path_metrics(self):
        topology = diamond_topology()
        assert topology.path_bottleneck(["a"]) == math.inf
        assert topology.path_delay_ms(["a"]) == 0.0


class TestFluctuationModels:
    def _link(self):
        return Link("a", "b", 10e6)

    def test_constant_is_identity(self):
        model = ConstantBandwidth()
        assert model.factor(self._link(), 0.0) == 1.0
        assert model.factor(self._link(), 1e6) == 1.0

    def test_sinusoidal_stays_in_band(self):
        model = SinusoidalBandwidth(amplitude=0.4, period_s=10.0)
        for t in range(100):
            factor = model.factor(self._link(), float(t))
            assert 0.6 <= factor <= 1.0

    def test_sinusoidal_validation(self):
        with pytest.raises(ValidationError):
            SinusoidalBandwidth(amplitude=1.0)
        with pytest.raises(ValidationError):
            SinusoidalBandwidth(period_s=0.0)

    def test_random_walk_deterministic_per_seed(self):
        a = RandomWalkBandwidth(seed=42)
        b = RandomWalkBandwidth(seed=42)
        series_a = [a.factor(self._link(), float(t)) for t in range(20)]
        series_b = [b.factor(self._link(), float(t)) for t in range(20)]
        assert series_a == series_b

    def test_random_walk_differs_across_seeds(self):
        a = RandomWalkBandwidth(seed=1)
        b = RandomWalkBandwidth(seed=2)
        series_a = [a.factor(self._link(), float(t)) for t in range(20)]
        series_b = [b.factor(self._link(), float(t)) for t in range(20)]
        assert series_a != series_b

    def test_random_walk_respects_floor(self):
        model = RandomWalkBandwidth(seed=0, step=0.5, floor=0.3)
        for t in range(200):
            factor = model.factor(self._link(), float(t))
            assert 0.3 <= factor <= 1.0

    def test_random_walk_query_order_independent(self):
        forward = RandomWalkBandwidth(seed=9)
        series_forward = [forward.factor(self._link(), float(t)) for t in range(10)]
        backward = RandomWalkBandwidth(seed=9)
        series_backward = [
            backward.factor(self._link(), float(t)) for t in reversed(range(10))
        ]
        assert series_forward == list(reversed(series_backward))


class TestBandwidthEstimator:
    def test_constant_model_matches_topology(self):
        topology = diamond_topology()
        estimator = BandwidthEstimator(topology)
        assert estimator.available_bandwidth("a", "d") == topology.available_bandwidth(
            "a", "d"
        )

    def test_fluctuation_reduces_bandwidth(self):
        topology = diamond_topology()
        estimator = BandwidthEstimator(
            topology, SinusoidalBandwidth(amplitude=0.5, period_s=7.0)
        )
        static = topology.available_bandwidth("a", "d")
        samples = [estimator.available_bandwidth("a", "d", t) for t in range(20)]
        assert all(s <= static for s in samples)
        assert min(samples) < static  # it actually dips

    def test_series_shape(self):
        estimator = BandwidthEstimator(diamond_topology())
        series = estimator.series("a", "d", duration_s=5.0, interval_s=1.0)
        assert len(series) == 6
        assert series[0][0] == 0.0

    def test_same_node_unlimited(self):
        estimator = BandwidthEstimator(diamond_topology())
        assert math.isinf(estimator.available_bandwidth("a", "a"))


class TestServicePlacement:
    def _placement(self):
        topology = diamond_topology()
        return ServicePlacement(topology, {"T1": "b", "T2": "c"})

    def test_place_and_lookup(self):
        placement = self._placement()
        assert placement.node_of("T1") == "b"
        assert placement.is_placed("T2")
        assert not placement.is_placed("T9")

    def test_unknown_node_rejected(self):
        with pytest.raises(PlacementError):
            self._placement().place("T3", "ghost")

    def test_unplaced_lookup_raises(self):
        with pytest.raises(PlacementError):
            self._placement().node_of("T9")

    def test_node_for_maps_endpoints_to_the_session(self):
        placement = self._placement()
        assert placement.node_for("sender", "a", "d") == "a"
        assert placement.node_for("receiver", "a", "d") == "d"
        assert placement.node_for("T1", "a", "d") == "b"
        with pytest.raises(PlacementError):
            placement.node_for("T9", "a", "d")
        assert not placement.is_placed("sender")

    def test_co_location_and_bandwidth(self):
        """Services sharing a host have unlimited bandwidth between them."""
        placement = self._placement()
        placement.place("T3", "b")
        topology = placement.topology
        assert placement.node_of("T1") == placement.node_of("T3")
        assert math.isinf(
            topology.available_bandwidth(
                placement.node_of("T1"), placement.node_of("T3")
            )
        )
        assert (
            topology.available_bandwidth(
                placement.node_of("T1"), placement.node_of("T2")
            )
            > 0
        )

