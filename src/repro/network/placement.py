"""Service placement: which network node hosts which service.

The intermediary profile (Section 3) couples services to the hosts that run
them; Section 4.3 makes the host assignment matter to the algorithm, since
the bandwidth between two services is the bandwidth between their hosts
(and unlimited when they share a host).  :class:`ServicePlacement` is that
mapping, with resource-feasibility checks against node capacities.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import PlacementError, UnknownServiceError
from repro.network.topology import NetworkTopology
from repro.services.descriptor import ServiceDescriptor

__all__ = ["ENDPOINT_IDS", "ServicePlacement"]

#: Service ids the graph builder gives a session's sender and receiver.
#: They are per-session, so no placement holds them.
ENDPOINT_IDS = ("sender", "receiver")


class ServicePlacement:
    """A mutable mapping of service ids to node ids."""

    def __init__(
        self,
        topology: NetworkTopology,
        assignments: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._topology = topology
        self._node_of: Dict[str, str] = {}
        self._generation = 0
        if assignments:
            for service_id, node_id in assignments.items():
                self.place(service_id, node_id)

    @property
    def topology(self) -> NetworkTopology:
        return self._topology

    @property
    def generation(self) -> int:
        """Monotonic mutation counter (bumped on place / unplace)."""
        return self._generation

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def place(self, service_id: str, node_id: str) -> None:
        """Assign a service to a node (re-placing is allowed)."""
        if node_id not in self._topology:
            raise PlacementError(
                f"cannot place {service_id!r}: node {node_id!r} not in topology"
            )
        self._node_of[service_id] = node_id
        self._generation += 1

    def unplace(self, service_id: str) -> None:
        if service_id not in self._node_of:
            raise UnknownServiceError(service_id)
        del self._node_of[service_id]
        self._generation += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node_of(self, service_id: str) -> str:
        """The node hosting ``service_id``; raises when unplaced."""
        try:
            return self._node_of[service_id]
        except KeyError:
            raise PlacementError(f"service {service_id!r} is not placed") from None

    def node_for(
        self, service_id: str, sender_node: str, receiver_node: str
    ) -> str:
        """The host of one chain service within one session.

        The endpoint ids go to the session's own nodes; every other id
        goes through the placement (raising when unplaced).  Admission,
        group reservation, re-planning and the delivery pipeline all map
        a hop's services to hosts through this one method.
        """
        if service_id == ENDPOINT_IDS[0]:
            return sender_node
        if service_id == ENDPOINT_IDS[1]:
            return receiver_node
        return self.node_of(service_id)

    def is_placed(self, service_id: str) -> bool:
        return service_id in self._node_of

    def services_at(self, node_id: str) -> List[str]:
        """All service ids hosted on ``node_id``."""
        return [s for s, n in self._node_of.items() if n == node_id]

    def co_located(self, service_a: str, service_b: str) -> bool:
        """Whether two services share a host (unlimited bandwidth)."""
        return self.node_of(service_a) == self.node_of(service_b)

    def bandwidth_between(self, service_a: str, service_b: str) -> float:
        """``Bandwidth_AvailableBetween`` lifted to the service level."""
        return self._topology.available_bandwidth(
            self.node_of(service_a), self.node_of(service_b)
        )

    def __len__(self) -> int:
        return len(self._node_of)

    def __contains__(self, service_id: object) -> bool:
        return service_id in self._node_of

    def as_dict(self) -> Dict[str, str]:
        return dict(self._node_of)

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def validate_resources(
        self,
        descriptors: Iterable[ServiceDescriptor],
        reference_input_bps: float = 1e6,
    ) -> List[str]:
        """Check every node can run the services placed on it.

        Memory is additive; CPU demand is evaluated at a reference input
        rate (placement happens before configurations are chosen).  Returns
        a list of human-readable violations — empty means feasible.
        """
        by_id = {d.service_id: d for d in descriptors}
        violations: List[str] = []
        usage: Dict[str, Tuple[float, float]] = {}
        for service_id, node_id in self._node_of.items():
            descriptor = by_id.get(service_id)
            if descriptor is None:
                continue  # Pseudo-services (sender/receiver) have no demand.
            cpu, mem = usage.get(node_id, (0.0, 0.0))
            usage[node_id] = (
                cpu + descriptor.cpu_required(reference_input_bps),
                mem + descriptor.memory_mb,
            )
        for node_id, (cpu, mem) in usage.items():
            node = self._topology.get_node(node_id)
            if cpu > node.cpu_mips:
                violations.append(
                    f"node {node_id}: CPU demand {cpu:.1f} MIPS exceeds "
                    f"capacity {node.cpu_mips:.1f}"
                )
            if mem > node.memory_mb:
                violations.append(
                    f"node {node_id}: memory demand {mem:.1f} MB exceeds "
                    f"capacity {node.memory_mb:.1f}"
                )
        return violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServicePlacement({self._node_of})"
