"""Construction of the directed adaptation graph (Section 4.2).

Graph elements, exactly as the paper defines them:

- **Vertices** represent trans-coding services (plus the sender, "a special
  case vertex with only output links", and the receiver, "another special
  vertex with only input links").  Each vertex carries the computation and
  memory requirements of its service and the network node hosting it.
- **Edges** "represent the network connecting two vertices, where the input
  link of one vertex matches the output link of another vertex".  Each edge
  carries the format it transports, the available bandwidth between the two
  hosts (Section 4.3), and the transmission cost.

Acyclicity: the paper keeps the graph acyclic by "continuously verif[ying]
that all the formats along any path are distinct".  The *static* service
digraph built here may contain directed cycles (T1 → T2 → T1 on different
formats); the distinct-format rule is enforced on *paths* — during
selection, enumeration, and chain validation — which is what makes every
traversal acyclic.  :meth:`AdaptationGraph.enumerate_paths` implements that
rule and is the reference the property tests check against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.configuration import Configuration
from repro.errors import GraphConstructionError, UnknownServiceError
from repro.network.placement import ENDPOINT_IDS, ServicePlacement
from repro.network.topology import NetworkTopology
from repro.profiles.content import ContentProfile
from repro.profiles.device import DeviceProfile
from repro.services.catalog import ServiceCatalog, service_sort_key
from repro.services.descriptor import ServiceDescriptor, ServiceKind

__all__ = ["Vertex", "Edge", "AdaptationGraph", "AdaptationGraphBuilder", "CatalogView"]

#: Input rate at which a host's CPU is checked against a service's need.
REFERENCE_INPUT_BPS = 1e6


@dataclass(frozen=True)
class CatalogView:
    """Which part of the shared world one planning call may use.

    The paper builds each session's graph from "the list of available
    trans-coding services" (Section 4.2).  A view says what *available*
    means for one call without copying the catalog or placement:

    - ``excluded`` masks service ids (crashed, quarantined, or outside a
      forced hardware tier) out of the graph;
    - ``topology`` replaces ``placement.topology`` as the source of node
      resources and link bandwidth (typically a ledger's live residual
      topology, read as it stands when the call runs); ``None`` plans
      against the placement's own topology.

    Plan fingerprints hash both fields, so one plan cache serves every
    view without collisions.
    """

    excluded: frozenset = frozenset()
    topology: Optional[NetworkTopology] = None


@dataclass(frozen=True)
class Vertex:
    """One vertex of the adaptation graph.

    ``source_configurations`` is populated only on the sender vertex: one
    configuration per output link, taken from the content profile's
    variants (the quality each stored variant was encoded at).
    """

    service: ServiceDescriptor
    node_id: str
    source_configurations: Mapping[str, Configuration] = field(default_factory=dict)

    @property
    def service_id(self) -> str:
        return self.service.service_id

    @property
    def is_sender(self) -> bool:
        return self.service.is_sender

    @property
    def is_receiver(self) -> bool:
        return self.service.is_receiver

    def __str__(self) -> str:
        return self.service_id


@dataclass(frozen=True)
class Edge:
    """One directed, format-labeled edge of the adaptation graph.

    ``delay_ms`` is the one-way propagation delay of the network route
    realizing the edge (Section 3's network profile lists maximum delay
    among the measured characteristics; delay-sensitive users bound it).
    """

    source: str
    target: str
    format_name: str
    bandwidth_bps: float
    transmission_cost: float = 0.0
    delay_ms: float = 0.0

    def __str__(self) -> str:
        return f"{self.source} --{self.format_name}--> {self.target}"


class AdaptationGraph:
    """The directed graph the QoS selection algorithm runs on."""

    def __init__(
        self,
        vertices: Sequence[Vertex],
        edges: Sequence[Edge],
        sender_id: str,
        receiver_id: str,
    ) -> None:
        self._vertices: Dict[str, Vertex] = {}
        for vertex in vertices:
            if vertex.service_id in self._vertices:
                raise GraphConstructionError(
                    f"duplicate vertex {vertex.service_id!r}"
                )
            self._vertices[vertex.service_id] = vertex
        for endpoint_id, role in ((sender_id, "sender"), (receiver_id, "receiver")):
            if endpoint_id not in self._vertices:
                raise GraphConstructionError(f"{role} vertex {endpoint_id!r} missing")
        self.sender_id = sender_id
        self.receiver_id = receiver_id
        out_lists: Dict[str, List[Edge]] = {v: [] for v in self._vertices}
        in_lists: Dict[str, List[Edge]] = {v: [] for v in self._vertices}
        for edge in edges:
            if edge.source not in self._vertices:
                raise GraphConstructionError(f"edge from unknown vertex {edge.source!r}")
            if edge.target not in self._vertices:
                raise GraphConstructionError(f"edge to unknown vertex {edge.target!r}")
            out_lists[edge.source].append(edge)
            in_lists[edge.target].append(edge)
        # The graph is frozen after construction, so the adjacency order the
        # selectors rely on is computed exactly once here instead of on
        # every out_edges()/in_edges() call (the seed re-sorted per call),
        # from one sort key per vertex rather than one per edge.
        sort_key = {v: service_sort_key(v) for v in self._vertices}
        self._out_edges: Dict[str, Tuple[Edge, ...]] = {
            v: tuple(sorted(es, key=lambda e: (sort_key[e.target], e.format_name)))
            for v, es in out_lists.items()
        }
        self._in_edges: Dict[str, Tuple[Edge, ...]] = {
            v: tuple(sorted(es, key=lambda e: (sort_key[e.source], e.format_name)))
            for v, es in in_lists.items()
        }
        self._ordered_ids: Tuple[str, ...] = tuple(
            sorted(self._vertices, key=sort_key.__getitem__)
        )
        #: Natural-order rank per vertex id; selectors use it to turn the
        #: string-keyed tie-break orderings into cheap integer comparisons.
        self._vertex_rank: Dict[str, int] = {
            service_id: rank for rank, service_id in enumerate(self._ordered_ids)
        }

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def sender(self) -> Vertex:
        return self._vertices[self.sender_id]

    @property
    def receiver(self) -> Vertex:
        return self._vertices[self.receiver_id]

    def vertex(self, service_id: str) -> Vertex:
        try:
            return self._vertices[service_id]
        except KeyError:
            raise UnknownServiceError(service_id) from None

    def services_along(self, path: Sequence[str]) -> Tuple[ServiceDescriptor, ...]:
        """The service descriptors of ``path``'s vertices, in path order."""
        return tuple(self.vertex(service_id).service for service_id in path)

    def vertices(self) -> List[Vertex]:
        """All vertices in natural service-id order."""
        return [self._vertices[service_id] for service_id in self._ordered_ids]

    def vertex_ids(self) -> List[str]:
        return list(self._ordered_ids)

    def vertex_rank(self) -> Mapping[str, int]:
        """Natural-order rank per vertex id (``T2`` < ``T10``), frozen at
        construction.  Shared by the heap selectors' tie-break keys."""
        return self._vertex_rank

    def edges(self) -> List[Edge]:
        """All edges, by source in natural order, then as :meth:`out_edges`.

        The order depends only on the graph's content, not on the order
        its vertices were passed in.
        """
        return [
            edge for source in self._ordered_ids for edge in self._out_edges[source]
        ]

    def out_edges(self, service_id: str) -> Tuple[Edge, ...]:
        """Outgoing edges, ordered by target id then format name.

        The tuple is built once at construction time; callers share it, so
        repeated calls are O(1) and always return the identical ordering.
        """
        try:
            return self._out_edges[service_id]
        except KeyError:
            raise UnknownServiceError(service_id) from None

    def in_edges(self, service_id: str) -> Tuple[Edge, ...]:
        """Incoming edges, ordered by source id then format name (cached)."""
        try:
            return self._in_edges[service_id]
        except KeyError:
            raise UnknownServiceError(service_id) from None

    def successors(self, service_id: str) -> List[str]:
        """Distinct successor ids in natural order (the paper's
        ``neighbor(Ti)``)."""
        # Out-edges are already sorted by target, so de-duping in order
        # preserves the natural ordering without a fresh sort.
        return list(dict.fromkeys(e.target for e in self._out_edges[service_id]))

    def __contains__(self, service_id: object) -> bool:
        return service_id in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._out_edges.values())

    # ------------------------------------------------------------------
    # Path enumeration under the distinct-format rule
    # ------------------------------------------------------------------
    def enumerate_paths(
        self,
        max_paths: Optional[int] = None,
        max_hops: Optional[int] = None,
    ) -> Iterator[List[Edge]]:
        """Yield every sender→receiver path with pairwise-distinct formats.

        Paths are edge sequences.  ``max_paths`` bounds the yield count and
        ``max_hops`` the path length (both optional) so callers can keep
        exhaustive enumeration tractable on large graphs.  Vertices never
        repeat along a path (a repeated service would re-encounter one of
        its formats anyway in all but degenerate cap configurations, and the
        paper's chains are service-distinct).
        """
        yielded = 0
        stack: List[Tuple[str, List[Edge], Set[str], Set[str]]] = [
            (self.sender_id, [], {self.sender_id}, set())
        ]
        while stack:
            current, path, visited, formats = stack.pop()
            if current == self.receiver_id:
                yield list(path)
                yielded += 1
                if max_paths is not None and yielded >= max_paths:
                    return
                continue
            if max_hops is not None and len(path) >= max_hops:
                continue
            # Reverse order keeps DFS exploring in natural order.
            for edge in reversed(self.out_edges(current)):
                if edge.target in visited:
                    continue
                if edge.format_name in formats:
                    continue
                stack.append(
                    (
                        edge.target,
                        path + [edge],
                        visited | {edge.target},
                        formats | {edge.format_name},
                    )
                )

    def reachable_from_sender(self) -> Set[str]:
        """Vertices reachable from the sender, ignoring format rules."""
        return self._flood(self.sender_id, self._out_edges, forward=True)

    def co_reachable_to_receiver(self) -> Set[str]:
        """Vertices from which the receiver is reachable."""
        return self._flood(self.receiver_id, self._in_edges, forward=False)

    def _flood(
        self,
        start: str,
        adjacency: Mapping[str, Sequence[Edge]],
        forward: bool,
    ) -> Set[str]:
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for edge in adjacency[current]:
                neighbor = edge.target if forward else edge.source
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdaptationGraph(vertices={len(self._vertices)}, "
            f"edges={self.edge_count()})"
        )


class AdaptationGraphBuilder:
    """Builds the adaptation graph from profiles + catalog (Section 4.2).

    "To construct the adaptation graph, we start with the sender node, and
    then connect the outgoing edges of the sender with all the input edges
    of all other vertices that have the same format.  The same process is
    repeated for all vertices."
    """

    def __init__(
        self,
        catalog: ServiceCatalog,
        placement: ServicePlacement,
    ) -> None:
        self._catalog = catalog
        self._placement = placement

    def build(
        self,
        content: ContentProfile,
        device: DeviceProfile,
        sender_node: str,
        receiver_node: str,
        sender_id: str = ENDPOINT_IDS[0],
        receiver_id: str = ENDPOINT_IDS[1],
        context_caps: Optional[Mapping[str, float]] = None,
        view: Optional[CatalogView] = None,
    ) -> AdaptationGraph:
        """Construct the graph for one delivery session.

        ``context_caps`` (from the context profile) merge into the
        receiver's rendering caps — the context can only tighten them.
        ``view`` masks services out and may swap in a residual topology.
        """
        excluded = view.excluded if view is not None else frozenset()
        topology = self._placement.topology
        if view is not None and view.topology is not None:
            topology = view.topology
        if sender_node not in topology:
            raise GraphConstructionError(f"sender node {sender_node!r} not in topology")
        if receiver_node not in topology:
            raise GraphConstructionError(
                f"receiver node {receiver_node!r} not in topology"
            )

        sender_descriptor = content.sender_descriptor(sender_id)
        receiver_caps = device.rendering_caps()
        for name, cap in (context_caps or {}).items():
            receiver_caps[name] = min(cap, receiver_caps.get(name, math.inf))
        receiver_descriptor = ServiceDescriptor(
            service_id=receiver_id,
            input_formats=tuple(device.decoders),
            output_caps=receiver_caps,
            kind=ServiceKind.RECEIVER,
            description=f"rendering device {device.device_id!r}",
        )

        vertices: List[Vertex] = [
            Vertex(
                service=sender_descriptor,
                node_id=sender_node,
                source_configurations={
                    variant.format.name: variant.configuration
                    for variant in content.variants
                },
            ),
            Vertex(service=receiver_descriptor, node_id=receiver_node),
        ]
        for descriptor in self._catalog.transcoders():
            if descriptor.service_id in excluded:
                continue
            if descriptor.service_id in (sender_id, receiver_id):
                raise GraphConstructionError(
                    f"catalog service id {descriptor.service_id!r} collides "
                    f"with an endpoint id"
                )
            if not self._placement.is_placed(descriptor.service_id):
                continue  # Unplaced services cannot carry traffic.
            if not self._host_can_run(descriptor, topology):
                continue
            vertices.append(
                Vertex(
                    service=descriptor,
                    node_id=self._placement.node_of(descriptor.service_id),
                )
            )

        edges = self._connect(vertices, topology)
        return AdaptationGraph(vertices, edges, sender_id, receiver_id)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _host_can_run(
        self, descriptor: ServiceDescriptor, topology: NetworkTopology
    ) -> bool:
        node = topology.get_node(self._placement.node_of(descriptor.service_id))
        return (
            descriptor.cpu_required(REFERENCE_INPUT_BPS) <= node.cpu_mips
            and descriptor.memory_mb <= node.memory_mb
        )

    def _connect(
        self, vertices: Sequence[Vertex], topology: NetworkTopology
    ) -> List[Edge]:
        """Create one edge per (producer, consumer, shared format) triple."""
        edges: List[Edge] = []
        # One widest-path tree per producer host prices every consumer
        # host at once; quadratic vertex pairs share few hosts.
        routes_from: Dict[str, Dict[str, Tuple[float, float, float]]] = {}

        consumers_of: Dict[str, List[Tuple[str, str]]] = {}
        for vertex in vertices:
            for fmt in vertex.service.input_formats:
                consumers_of.setdefault(fmt, []).append(
                    (vertex.service_id, vertex.node_id)
                )

        for producer in vertices:
            producer_id, host = producer.service_id, producer.node_id
            for fmt in producer.service.output_formats:
                for consumer_id, consumer_host in consumers_of.get(fmt, ()):
                    if consumer_id == producer_id:
                        continue
                    if host not in routes_from:
                        routes_from[host] = topology.widest_routes(host)
                    route = routes_from[host].get(consumer_host)
                    if route is None or route[0] <= 0.0:
                        continue  # Disconnected hosts cannot form an edge.
                    bandwidth, cost, delay = route
                    edges.append(
                        Edge(
                            source=producer_id,
                            target=consumer_id,
                            format_name=fmt,
                            bandwidth_bps=bandwidth,
                            transmission_cost=cost,
                            delay_ms=delay,
                        )
                    )
        return edges
