"""Per-pair widest-path routing, kept as the equivalence oracle.

Before :meth:`~repro.network.topology.NetworkTopology.widest_routes`, the
graph builder asked one early-stopping max-bottleneck Dijkstra per host
pair and walked each returned path three times (bottleneck, cost,
delay).  This module keeps that construction verbatim:

- :func:`reference_widest_path` is the per-pair Dijkstra;
- :class:`ReferenceGraphBuilder` is the builder whose ``_connect`` prices
  every (producer host, consumer host) pair through it;
- :func:`reference_adjacency` is the frozen graph's adjacency order with
  one ``service_sort_key`` call per edge.

The routing property suite asserts that production routing and graph
construction are bit-identical to these.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.graph import AdaptationGraphBuilder, Edge, Vertex
from repro.errors import UnknownNodeError
from repro.network.topology import NetworkTopology
from repro.services.catalog import service_sort_key

__all__ = ["reference_widest_path", "ReferenceGraphBuilder", "reference_adjacency"]


def reference_widest_path(
    topology: NetworkTopology, source: str, target: str
) -> Optional[List[str]]:
    """The max-bottleneck path from ``source`` to ``target``, one query."""
    if source not in topology:
        raise UnknownNodeError(source)
    if target not in topology:
        raise UnknownNodeError(target)
    if source == target:
        return [source]
    best: Dict[str, float] = {source: math.inf}
    parent: Dict[str, str] = {}
    heap: List[Tuple[float, str]] = [(-math.inf, source)]
    visited = set()
    while heap:
        neg_width, current = heapq.heappop(heap)
        if current in visited:
            continue
        visited.add(current)
        if current == target:
            break
        width = -neg_width
        for neighbor in topology.neighbors(current):
            if neighbor in visited:
                continue
            link = topology.get_link(current, neighbor)
            candidate = min(width, link.bandwidth_bps)
            if candidate > best.get(neighbor, -1.0):
                best[neighbor] = candidate
                parent[neighbor] = current
                heapq.heappush(heap, (-candidate, neighbor))
    if target not in best:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class ReferenceGraphBuilder(AdaptationGraphBuilder):
    """The graph builder with per-host-pair routing.

    Each build records its vertex ids (insertion order) and its edge list
    in ``last_vertex_ids`` and ``last_edges`` for :func:`reference_adjacency`.
    """

    last_vertex_ids: List[str]
    last_edges: List[Edge]

    def _connect(
        self, vertices: Sequence[Vertex], topology: NetworkTopology
    ) -> List[Edge]:
        edges: List[Edge] = []
        self.last_vertex_ids = [vertex.service_id for vertex in vertices]
        self.last_edges = edges
        bandwidth_cache: Dict[Tuple[str, str], Tuple[float, float, float]] = {}

        def between(a: str, b: str) -> Tuple[float, float, float]:
            key = (a, b)
            hit = bandwidth_cache.get(key)
            if hit is not None:
                return hit
            if a == b:
                result = (math.inf, 0.0, 0.0)
            else:
                path = reference_widest_path(topology, a, b)
                if path is None:
                    result = (0.0, 0.0, 0.0)
                else:
                    result = (
                        topology.path_bottleneck(path),
                        topology.path_cost(path),
                        topology.path_delay_ms(path),
                    )
            bandwidth_cache[key] = result
            return result

        consumers_of: Dict[str, List[Vertex]] = {}
        for vertex in vertices:
            for fmt in vertex.service.input_formats:
                consumers_of.setdefault(fmt, []).append(vertex)

        for producer in vertices:
            for fmt in producer.service.output_formats:
                for consumer in consumers_of.get(fmt, ()):
                    if consumer.service_id == producer.service_id:
                        continue
                    bandwidth, cost, delay = between(
                        producer.node_id, consumer.node_id
                    )
                    if bandwidth <= 0.0:
                        continue
                    edges.append(
                        Edge(
                            source=producer.service_id,
                            target=consumer.service_id,
                            format_name=fmt,
                            bandwidth_bps=bandwidth,
                            transmission_cost=cost,
                            delay_ms=delay,
                        )
                    )
        return edges


def reference_adjacency(
    vertex_ids: Sequence[str], edges: Sequence[Edge]
) -> Tuple[Dict[str, Tuple[Edge, ...]], Dict[str, Tuple[Edge, ...]], List[str]]:
    """Out-edges, in-edges and ordered ids, sorted one key call per edge."""
    out_edges = {
        v: tuple(
            sorted(
                (e for e in edges if e.source == v),
                key=lambda e: (service_sort_key(e.target), e.format_name),
            )
        )
        for v in vertex_ids
    }
    in_edges = {
        v: tuple(
            sorted(
                (e for e in edges if e.target == v),
                key=lambda e: (service_sort_key(e.source), e.format_name),
            )
        )
        for v in vertex_ids
    }
    return out_edges, in_edges, sorted(vertex_ids, key=service_sort_key)
