"""An SLP-flavored message layer over the discovery registry.

The Service Location Protocol (RFC 2608, the paper's reference [26])
structures discovery as three agent roles: *service agents* advertise on
behalf of services, a *directory agent* aggregates advertisements, and
*user agents* locate services with ``SrvRqst`` messages answered by
``SrvRply``.  This module reproduces that message flow in process — enough
to drive the discovery-based examples and to test churn (agents
re-registering, TTLs lapsing) without sockets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.discovery.advertisement import Advertisement
from repro.discovery.registry import DiscoveryRegistry, ServiceQuery
from repro.errors import DiscoveryError
from repro.services.descriptor import ServiceDescriptor

__all__ = ["SrvRqst", "SrvRply", "ServiceAgent", "DirectoryAgent", "UserAgent"]

#: Seconds an advertisement lives when :meth:`ServiceAgent.register` is
#: given no ``ttl``.
DEFAULT_TTL_S = 300.0


@dataclass(frozen=True)
class SrvRqst:
    """A service request: "find me transcoders matching this predicate"."""

    query: ServiceQuery
    requester: str = ""


@dataclass(frozen=True)
class SrvRply:
    """The directory agent's reply: matching service URLs.

    SLP replies carry service URLs; ours are structured as
    ``service:transcoder:<id>@<node>`` strings plus the resolved
    advertisements for programmatic use.
    """

    urls: Sequence[str]
    advertisements: Sequence[Advertisement]

    def __len__(self) -> int:
        return len(self.urls)


class DirectoryAgent:
    """Wraps a :class:`DiscoveryRegistry` in the SLP message vocabulary."""

    def __init__(self, registry: Optional[DiscoveryRegistry] = None) -> None:
        self.registry = registry if registry is not None else DiscoveryRegistry()

    def handle_registration(
        self, descriptor: ServiceDescriptor, node_id: str, ttl: float
    ) -> Advertisement:
        return self.registry.advertise(descriptor, node_id, ttl)

    def handle_request(self, request: SrvRqst) -> SrvRply:
        advertisements = self.registry.query(request.query)
        urls = [
            f"service:transcoder:{ad.service_id}@{ad.node_id}"
            for ad in advertisements
        ]
        return SrvRply(urls=urls, advertisements=advertisements)


class ServiceAgent:
    """Advertises one node's services and keeps them alive."""

    def __init__(self, node_id: str, directory: DirectoryAgent) -> None:
        if not node_id:
            raise DiscoveryError("a service agent needs a node id")
        self.node_id = node_id
        self._directory = directory
        self._registered: List[str] = []

    def register(
        self, descriptor: ServiceDescriptor, ttl: Optional[float] = None
    ) -> Advertisement:
        advertisement = self._directory.handle_registration(
            descriptor, self.node_id, ttl if ttl is not None else DEFAULT_TTL_S
        )
        if descriptor.service_id not in self._registered:
            self._registered.append(descriptor.service_id)
        return advertisement

    def heartbeat(self) -> int:
        """Renew every advertisement this agent owns; returns how many.

        Advertisements that already expired are silently dropped from this
        agent's list — exactly the behaviour that makes churn visible to
        user agents.
        """
        renewed = 0
        survivors = []
        for service_id in self._registered:
            if service_id in self._directory.registry:
                self._directory.registry.renew(service_id)
                survivors.append(service_id)
                renewed += 1
        self._registered = survivors
        return renewed

    def withdraw(self, service_id: str) -> None:
        if service_id not in self._registered:
            raise DiscoveryError(
                f"agent at {self.node_id!r} does not own {service_id!r}"
            )
        self._directory.registry.deregister(service_id)
        self._registered.remove(service_id)


class UserAgent:
    """Issues service requests on behalf of a client."""

    def __init__(self, name: str, directory: DirectoryAgent) -> None:
        self.name = name
        self._directory = directory

    def find(
        self,
        input_format: Optional[str] = None,
        output_format: Optional[str] = None,
        max_cost: Optional[float] = None,
    ) -> SrvRply:
        request = SrvRqst(
            query=ServiceQuery(
                input_format=input_format,
                output_format=output_format,
                max_cost=max_cost,
            ),
            requester=self.name,
        )
        return self._directory.handle_request(request)
