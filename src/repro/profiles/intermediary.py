"""The intermediary profile: what one proxy node offers.

Section 3: "the profile of an intermediary would usually include a
description of all the adaptation services that an intermediary can
provide ... [and] information about the available resources at the
intermediary (such as CPU cycles, memory) to carry out the services."

An :class:`IntermediaryProfile` therefore couples a network node id with the
service descriptors hosted there and the node's spare resources.  A set of
intermediary profiles is exactly what graph construction consumes: it
determines both the intermediate vertices (the services) and their
placement (which host, hence which bandwidths apply).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.errors import ValidationError
from repro.network.placement import ServicePlacement
from repro.network.topology import NetworkTopology
from repro.services.catalog import ServiceCatalog
from repro.services.descriptor import ServiceDescriptor, ServiceKind

__all__ = ["IntermediaryProfile", "merge_intermediaries"]


class IntermediaryProfile:
    """Services and spare resources advertised by one intermediary node."""

    def __init__(
        self,
        node_id: str,
        services: Sequence[ServiceDescriptor],
        available_cpu_mips: float = 1000.0,
        available_memory_mb: float = 1024.0,
        operator: str = "",
    ) -> None:
        if not node_id:
            raise ValidationError("node_id must be non-empty")
        if available_cpu_mips < 0 or available_memory_mb < 0:
            raise ValidationError(f"{node_id}: resources must be >= 0")
        for descriptor in services:
            if descriptor.kind is not ServiceKind.TRANSCODER:
                raise ValidationError(
                    f"{node_id}: intermediaries host transcoders, not "
                    f"{descriptor.kind.value} ({descriptor.service_id!r})"
                )
        ids = [d.service_id for d in services]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"{node_id}: duplicate hosted service ids")
        self.node_id = node_id
        self.services: List[ServiceDescriptor] = list(services)
        self.available_cpu_mips = available_cpu_mips
        self.available_memory_mb = available_memory_mb
        self.operator = operator

    def service_ids(self) -> List[str]:
        return [d.service_id for d in self.services]

    def hosts(self, service_id: str) -> bool:
        return any(d.service_id == service_id for d in self.services)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntermediaryProfile({self.node_id!r}, "
            f"services={self.service_ids()})"
        )


def merge_intermediaries(
    profiles: Iterable[IntermediaryProfile],
    topology: NetworkTopology,
) -> tuple:
    """Fold intermediary profiles into (catalog, placement).

    This is the glue step before graph construction: the union of all
    advertised services becomes the service catalog, and each service is
    placed on its advertiser's node.  A service id advertised by two
    intermediaries is rejected — replicate services under distinct ids
    (``T3@nodeA``, ``T3@nodeB``), as the synthetic workload generator does.
    """
    catalog = ServiceCatalog()
    placement = ServicePlacement(topology)
    seen_nodes: Dict[str, str] = {}
    for profile in profiles:
        for descriptor in profile.services:
            owner = seen_nodes.get(descriptor.service_id)
            if owner is not None:
                raise ValidationError(
                    f"service {descriptor.service_id!r} advertised by both "
                    f"{owner!r} and {profile.node_id!r}; replicate under "
                    f"distinct ids instead"
                )
            seen_nodes[descriptor.service_id] = profile.node_id
            catalog.add(descriptor)
            placement.place(descriptor.service_id, profile.node_id)
    return catalog, placement
