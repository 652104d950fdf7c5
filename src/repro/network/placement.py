"""Service placement: which network node hosts which service.

The intermediary profile (Section 3) couples services to the hosts that run
them; Section 4.3 makes the host assignment matter to the algorithm, since
the bandwidth between two services is the bandwidth between their hosts
(and unlimited when they share a host).  :class:`ServicePlacement` is that
mapping; the graph builder checks each host's capacity when it admits a
service as a vertex.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.errors import PlacementError, UnknownServiceError
from repro.network.topology import NetworkTopology

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

    def __len__(self) -> int:
        return len(self._node_of)

    def __contains__(self, service_id: object) -> bool:
        return service_id in self._node_of

    def as_dict(self) -> Dict[str, str]:
        return dict(self._node_of)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServicePlacement({self._node_of})"
