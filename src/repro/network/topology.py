"""Network topology: nodes, links, and the routing queries the algorithms use.

The topology is an undirected multigraph-free graph (at most one link per
node pair) whose links carry *available bandwidth* (bits/second), one-way
propagation delay (milliseconds), a loss rate, and an optional per-use
transmission cost.  Three queries matter to the rest of the system:

- :meth:`NetworkTopology.available_bandwidth` — the bandwidth available
  between the hosts of two services, defined as the *bottleneck of the
  widest path* between their nodes.  Services on the same node see
  unlimited bandwidth (Section 4.3).
- :meth:`NetworkTopology.widest_path` — the path realizing that bottleneck
  (a max-bottleneck Dijkstra); :meth:`NetworkTopology.widest_routes` runs
  the same Dijkstra to completion and prices every route from one host.
- :meth:`NetworkTopology.shortest_path` — fewest-hops / least-delay routing
  for the baselines and the runtime pipeline's latency model.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import UnknownNodeError, ValidationError

__all__ = ["NetworkNode", "Link", "NetworkTopology", "link_key"]

#: Bandwidth reported between two services hosted on the same node.
UNLIMITED_BANDWIDTH = math.inf


@dataclass(frozen=True)
class NetworkNode:
    """One host in the topology (content server, proxy, or client device).

    ``cpu_mips`` and ``memory_mb`` bound which services placement may put
    here (Section 3: the intermediary profile includes "the available
    resources at the intermediary (such as CPU cycles, memory)").
    """

    node_id: str
    cpu_mips: float = 1000.0
    memory_mb: float = 1024.0
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValidationError("node_id must be non-empty")
        if self.cpu_mips < 0 or self.memory_mb < 0:
            raise ValidationError(f"{self.node_id}: resources must be >= 0")

    def __str__(self) -> str:
        return self.node_id


@dataclass(frozen=True)
class Link:
    """An undirected link between two nodes.

    ``bandwidth_bps`` is the *available* bandwidth the QoS algorithm may
    budget against (the paper assumes this has been measured and published
    in the network profile).  ``cost`` is the monetary transmission cost of
    sending one stream over the link, which feeds the accumulated-cost
    bookkeeping of the selection algorithm (Figure 4, Step 6).
    """

    a: str
    b: str
    bandwidth_bps: float
    delay_ms: float = 1.0
    loss_rate: float = 0.0
    cost: float = 0.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValidationError(f"self-link at node {self.a!r}")
        if self.bandwidth_bps < 0:
            raise ValidationError("bandwidth must be >= 0")
        if self.delay_ms < 0:
            raise ValidationError("delay must be >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValidationError("loss rate must lie in [0, 1)")
        if self.cost < 0:
            raise ValidationError("link cost must be >= 0")

    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def other(self, node_id: str) -> str:
        """The endpoint that is not ``node_id``."""
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        raise UnknownNodeError(node_id)


def link_key(a: str, b: str) -> Tuple[str, str]:
    """The order-free key of the link between ``a`` and ``b``."""
    return (a, b) if a <= b else (b, a)


class NetworkTopology:
    """Mutable collection of nodes and links with routing queries."""

    def __init__(self) -> None:
        self._nodes: Dict[str, NetworkNode] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotonic mutation counter (bumped by every add and set_bandwidth).

        Plan fingerprints hash the topology's content, not this counter; a
        bump only tells the fingerprint's digest memo to re-digest it.
        """
        return self._generation

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NetworkNode) -> NetworkNode:
        existing = self._nodes.get(node.node_id)
        if existing is not None and existing != node:
            raise ValidationError(f"node {node.node_id!r} already exists")
        self._nodes[node.node_id] = node
        self._adjacency.setdefault(node.node_id, [])
        self._generation += 1
        return node

    def node(
        self,
        node_id: str,
        cpu_mips: float = 1000.0,
        memory_mb: float = 1024.0,
    ) -> NetworkNode:
        """Create-and-add convenience wrapper around :meth:`add_node`."""
        return self.add_node(NetworkNode(node_id, cpu_mips, memory_mb))

    def add_link(self, link: Link) -> Link:
        for endpoint in link.endpoints():
            if endpoint not in self._nodes:
                raise UnknownNodeError(endpoint)
        key = link_key(link.a, link.b)
        if key in self._links:
            raise ValidationError(f"link {key} already exists")
        self._links[key] = link
        self._adjacency[link.a].append(link.b)
        self._adjacency[link.b].append(link.a)
        self._generation += 1
        return link

    def link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float,
        delay_ms: float = 1.0,
        loss_rate: float = 0.0,
        cost: float = 0.0,
    ) -> Link:
        """Create-and-add convenience wrapper around :meth:`add_link`."""
        return self.add_link(Link(a, b, bandwidth_bps, delay_ms, loss_rate, cost))

    def set_bandwidth(self, a: str, b: str, bandwidth_bps: float) -> Link:
        """Replace one link's bandwidth in place; every other field stays."""
        link = replace(self.get_link(a, b), bandwidth_bps=bandwidth_bps)
        self._links[link_key(a, b)] = link
        self._generation += 1
        return link

    def copy(self) -> "NetworkTopology":
        """An independent topology with the same nodes, links and order."""
        clone = NetworkTopology()
        clone._nodes = dict(self._nodes)
        clone._links = dict(self._links)
        clone._adjacency = {
            node: list(peers) for node, peers in self._adjacency.items()
        }
        clone._generation = self._generation
        return clone

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get_node(self, node_id: str) -> NetworkNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def get_link(self, a: str, b: str) -> Link:
        try:
            return self._links[link_key(a, b)]
        except KeyError:
            raise UnknownNodeError(f"{a}--{b}") from None

    def has_link(self, a: str, b: str) -> bool:
        return link_key(a, b) in self._links

    def nodes(self) -> List[NetworkNode]:
        return list(self._nodes.values())

    def node_ids(self) -> List[str]:
        return list(self._nodes)

    def links(self) -> List[Link]:
        return list(self._links.values())

    def neighbors(self, node_id: str) -> List[str]:
        if node_id not in self._nodes:
            raise UnknownNodeError(node_id)
        return list(self._adjacency[node_id])

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Routing queries
    # ------------------------------------------------------------------
    def widest_path(self, source: str, target: str) -> Optional[List[str]]:
        """The max-bottleneck path from ``source`` to ``target``.

        Returns the node sequence, or ``None`` when the nodes are
        disconnected.  ``source == target`` yields the trivial path.
        """
        if source not in self._nodes:
            raise UnknownNodeError(source)
        if target not in self._nodes:
            raise UnknownNodeError(target)
        if source == target:
            return [source]
        best, parent, _ = self._widest_tree(source, target)
        if target not in best:
            return None
        return self._unwind(parent, source, target)

    def hop_route(self, source: str, target: str) -> Optional[Tuple[str, ...]]:
        """The route one chain hop streams along, between two hosts.

        ``(source,)`` when the services share a host (unlimited bandwidth,
        Section 4.3), the widest path otherwise, ``None`` when the hosts
        are disconnected.  Admission, group reservation, re-planning and
        the delivery pipeline all route a hop through this one query.
        """
        path = self.widest_path(source, target)
        return None if path is None else tuple(path)

    def widest_routes(self, source: str) -> Dict[str, Tuple[float, float, float]]:
        """``(bottleneck, cost, delay_ms)`` of the widest path from ``source``
        to every node it reaches (itself: ``(inf, 0.0, 0.0)``).

        A settled node's parent never changes, so one full Dijkstra run
        yields exactly the routes :meth:`widest_path` returns.  Cost and
        delay ``sum`` each route's link figures in path order, as
        :meth:`path_cost` and :meth:`path_delay_ms` do, so the floats agree
        even where ``sum`` compensates rounding (Python 3.12 on).
        """
        if source not in self._nodes:
            raise UnknownNodeError(source)
        best, parent, settled = self._widest_tree(source)
        terms = {source: ((), ())}  # per node: its route's costs, delays
        routes = {source: (UNLIMITED_BANDWIDTH, 0.0, 0.0)}
        for node in list(settled)[1:]:
            hop = self._links[link_key(parent[node], node)]
            costs, delays = terms[parent[node]]
            terms[node] = costs, delays = costs + (hop.cost,), delays + (hop.delay_ms,)
            routes[node] = (best[node], sum(costs), sum(delays))
        return routes

    def _widest_tree(
        self, source: str, target: Optional[str] = None
    ) -> Tuple[Dict[str, float], Dict[str, str], Dict[str, None]]:
        """Max-bottleneck Dijkstra from ``source`` until ``target`` settles
        (or to completion): best bottlenecks, parent tree, and the settled
        nodes in settle order."""
        links = self._links
        best: Dict[str, float] = {source: math.inf}
        parent: Dict[str, str] = {}
        settled: Dict[str, None] = {}
        # heapq is a min-heap, so push negated bottlenecks.
        heap: List[Tuple[float, str]] = [(-math.inf, source)]
        while heap:
            neg_width, current = heapq.heappop(heap)
            if current in settled:
                continue
            settled[current] = None
            if current == target:
                break
            width = -neg_width
            for neighbor in self._adjacency[current]:
                if neighbor in settled:
                    continue
                key = (current, neighbor) if current < neighbor else (neighbor, current)
                bandwidth = links[key].bandwidth_bps
                # min(width, bandwidth), without the builtin call
                candidate = bandwidth if bandwidth < width else width
                if candidate > best.get(neighbor, -1.0):
                    best[neighbor] = candidate
                    parent[neighbor] = current
                    heapq.heappush(heap, (-candidate, neighbor))
        return best, parent, settled

    def available_bandwidth(self, source: str, target: str) -> float:
        """``Bandwidth_AvailableBetween`` (Equation 2's right-hand side).

        The bottleneck bandwidth of the widest path between the two nodes;
        infinite when they are the same node; 0.0 when disconnected.
        """
        path = self.widest_path(source, target)
        if path is None:
            return 0.0
        return self.path_bottleneck(path)

    def path_bottleneck(self, path: Sequence[str]) -> float:
        """Minimum link bandwidth along a node sequence."""
        if len(path) < 2:
            return UNLIMITED_BANDWIDTH
        return min(
            self.get_link(a, b).bandwidth_bps for a, b in zip(path, path[1:])
        )

    def shortest_path(
        self,
        source: str,
        target: str,
        weight: str = "hops",
    ) -> Optional[List[str]]:
        """Least-cost path under ``weight`` ∈ {"hops", "delay", "cost"}."""
        if source not in self._nodes:
            raise UnknownNodeError(source)
        if target not in self._nodes:
            raise UnknownNodeError(target)
        if weight not in ("hops", "delay", "cost"):
            raise ValidationError(f"unknown weight kind: {weight!r}")
        if source == target:
            return [source]
        distance: Dict[str, float] = {source: 0.0}
        parent: Dict[str, str] = {}
        heap: List[Tuple[float, str]] = [(0.0, source)]
        visited = set()
        while heap:
            dist, current = heapq.heappop(heap)
            if current in visited:
                continue
            visited.add(current)
            if current == target:
                break
            for neighbor in self._adjacency[current]:
                if neighbor in visited:
                    continue
                link = self.get_link(current, neighbor)
                if weight == "hops":
                    step = 1.0
                elif weight == "delay":
                    step = link.delay_ms
                else:
                    step = link.cost
                candidate = dist + step
                if candidate < distance.get(neighbor, math.inf):
                    distance[neighbor] = candidate
                    parent[neighbor] = current
                    heapq.heappush(heap, (candidate, neighbor))
        if target not in distance:
            return None
        return self._unwind(parent, source, target)

    def path_delay_ms(self, path: Sequence[str]) -> float:
        """Total one-way propagation delay along a node sequence."""
        return sum(self.get_link(a, b).delay_ms for a, b in zip(path, path[1:]))

    def path_cost(self, path: Sequence[str]) -> float:
        """Total transmission cost along a node sequence."""
        return sum(self.get_link(a, b).cost for a, b in zip(path, path[1:]))

    def path_loss_rate(self, path: Sequence[str]) -> float:
        """End-to-end loss rate along a node sequence (independent links)."""
        survival = 1.0
        for a, b in zip(path, path[1:]):
            survival *= 1.0 - self.get_link(a, b).loss_rate
        return 1.0 - survival

    @staticmethod
    def _unwind(parent: Mapping[str, str], source: str, target: str) -> List[str]:
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkTopology(nodes={len(self._nodes)}, links={len(self._links)})"
