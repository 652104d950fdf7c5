"""Unit tests for the discovery layer (registry + SLP agents)."""

from __future__ import annotations

import pytest

from repro.discovery.advertisement import Advertisement
from repro.discovery.registry import DiscoveryRegistry, ServiceQuery
from repro.discovery.slp import DirectoryAgent, ServiceAgent, SrvRqst, UserAgent
from repro.errors import DiscoveryError
from repro.network.topology import NetworkTopology
from repro.services.descriptor import ServiceDescriptor, ServiceKind


def service(service_id="T1", inputs=("F1",), outputs=("F2",), cost=1.0, provider=""):
    return ServiceDescriptor(
        service_id=service_id,
        input_formats=inputs,
        output_formats=outputs,
        cost=cost,
        provider=provider,
    )


class TestAdvertisement:
    def test_validation(self):
        with pytest.raises(DiscoveryError):
            Advertisement(service(), node_id="")
        with pytest.raises(DiscoveryError):
            Advertisement(service(), node_id="n", ttl=0.0)

    def test_only_transcoders(self):
        sender = ServiceDescriptor(
            service_id="s", output_formats=("F1",), kind=ServiceKind.SENDER
        )
        with pytest.raises(DiscoveryError):
            Advertisement(sender, node_id="n")

    def test_expiry(self):
        ad = Advertisement(service(), node_id="n", ttl=10.0, registered_at=5.0)
        assert ad.expires_at() == 15.0
        assert not ad.is_expired(14.9)
        assert ad.is_expired(15.0)

    def test_renewed(self):
        ad = Advertisement(service(), node_id="n", ttl=10.0)
        renewed = ad.renewed(100.0)
        assert renewed.registered_at == 100.0
        assert renewed.ttl == 10.0


class TestDiscoveryRegistry:
    def test_advertise_and_query_all(self):
        registry = DiscoveryRegistry()
        registry.advertise(service("T2"), "n2")
        registry.advertise(service("T1"), "n1")
        ads = registry.query()
        assert [a.service_id for a in ads] == ["T1", "T2"]  # natural order
        assert len(registry) == 2

    def test_query_by_formats(self):
        registry = DiscoveryRegistry()
        registry.advertise(service("T1", inputs=("F1",), outputs=("F2",)), "n1")
        registry.advertise(service("T2", inputs=("F2",), outputs=("F3",)), "n1")
        hits = registry.query(ServiceQuery(input_format="F2"))
        assert [a.service_id for a in hits] == ["T2"]
        hits = registry.query(ServiceQuery(output_format="F2"))
        assert [a.service_id for a in hits] == ["T1"]

    def test_query_by_cost_and_node(self):
        registry = DiscoveryRegistry()
        registry.advertise(service("T1", cost=1.0), "n1")
        registry.advertise(service("T2", cost=5.0), "n2")
        assert [a.service_id for a in registry.query(ServiceQuery(max_cost=2.0))] == ["T1"]
        assert [a.service_id for a in registry.query(ServiceQuery(node_id="n2"))] == ["T2"]

    def test_ttl_expiry_on_clock_advance(self):
        registry = DiscoveryRegistry()
        registry.advertise(service("T1"), "n1", ttl=10.0)
        registry.advance(9.0)
        assert "T1" in registry
        registry.advance(1.0)
        assert "T1" not in registry

    def test_renew_extends_life(self):
        registry = DiscoveryRegistry()
        registry.advertise(service("T1"), "n1", ttl=10.0)
        registry.advance(8.0)
        registry.renew("T1")
        registry.advance(8.0)
        assert "T1" in registry

    def test_renew_unknown_raises(self):
        with pytest.raises(DiscoveryError):
            DiscoveryRegistry().renew("ghost")

    def test_clock_cannot_go_backwards(self):
        with pytest.raises(DiscoveryError):
            DiscoveryRegistry().advance(-1.0)

    def test_conflicting_node_rejected(self):
        registry = DiscoveryRegistry()
        registry.advertise(service("T1"), "n1")
        with pytest.raises(DiscoveryError):
            registry.advertise(service("T1"), "n2")

    def test_deregister(self):
        registry = DiscoveryRegistry()
        registry.advertise(service("T1"), "n1")
        registry.deregister("T1")
        assert "T1" not in registry
        with pytest.raises(DiscoveryError):
            registry.deregister("T1")

    def test_intermediary_profiles_group_by_node(self):
        registry = DiscoveryRegistry()
        registry.advertise(service("T1"), "n1")
        registry.advertise(service("T2"), "n1")
        registry.advertise(service("T3"), "n2")
        profiles = registry.intermediary_profiles()
        assert [p.node_id for p in profiles] == ["n1", "n2"]
        assert profiles[0].service_ids() == ["T1", "T2"]

    def test_intermediary_profiles_report_topology_resources(self):
        topology = NetworkTopology()
        topology.node("n1", cpu_mips=321.0, memory_mb=77.0)
        registry = DiscoveryRegistry()
        registry.advertise(service("T1"), "n1")
        profile = registry.intermediary_profiles(topology)[0]
        assert profile.available_cpu_mips == 321.0
        assert profile.available_memory_mb == 77.0


class TestSlpAgents:
    def test_register_and_find(self):
        directory = DirectoryAgent()
        agent = ServiceAgent("n1", directory)
        agent.register(service("T1", inputs=("F1",), outputs=("F2",)))
        reply = UserAgent("alice", directory).find(input_format="F1")
        assert reply.urls == ["service:transcoder:T1@n1"]
        assert len(reply) == 1

    def test_heartbeat_renews(self):
        directory = DirectoryAgent()
        agent = ServiceAgent("n1", directory)
        agent.register(service("T1"), ttl=10.0)
        directory.registry.advance(8.0)
        assert agent.heartbeat() == 1
        directory.registry.advance(8.0)
        assert "T1" in directory.registry

    def test_heartbeat_drops_expired(self):
        directory = DirectoryAgent()
        agent = ServiceAgent("n1", directory)
        agent.register(service("T1"), ttl=5.0)
        directory.registry.advance(6.0)  # expired before any heartbeat
        assert agent.heartbeat() == 0
        # The expired advertisement left the agent's list as well: the
        # agent no longer claims T1, so withdrawing it fails the ownership
        # check rather than reaching the registry.
        with pytest.raises(DiscoveryError, match="does not own"):
            agent.withdraw("T1")

    def test_withdraw(self):
        directory = DirectoryAgent()
        agent = ServiceAgent("n1", directory)
        agent.register(service("T1"))
        agent.withdraw("T1")
        assert "T1" not in directory.registry
        with pytest.raises(DiscoveryError):
            agent.withdraw("T1")

    def test_find_with_no_matches(self):
        directory = DirectoryAgent()
        reply = UserAgent("bob", directory).find(input_format="F404")
        assert reply.urls == []

    def test_agent_requires_node(self):
        with pytest.raises(DiscoveryError):
            ServiceAgent("", DirectoryAgent())

    def test_discovery_to_graph_pipeline(self):
        """Advertisements end up as intermediary profiles usable by the
        graph builder glue (merge_intermediaries)."""
        from repro.profiles.intermediary import merge_intermediaries

        topology = NetworkTopology()
        topology.node("n1")
        topology.node("n2")
        directory = DirectoryAgent()
        ServiceAgent("n1", directory).register(service("T1"))
        ServiceAgent("n2", directory).register(service("T2"))
        profiles = directory.registry.intermediary_profiles(topology)
        catalog, placement = merge_intermediaries(profiles, topology)
        assert catalog.ids() == ["T1", "T2"]
        assert placement.node_of("T2") == "n2"
