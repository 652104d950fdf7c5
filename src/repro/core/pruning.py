"""Graph optimization: removing the extra edges and vertices (Section 4).

The paper applies "some optimization techniques on the graph to remove the
extra edges in the graph" before running the selection algorithm.  We
implement three safe reductions:

1. **Reachability pruning** — drop every vertex the sender cannot reach and
   every vertex from which the receiver is unreachable (and all their
   edges).  Such vertices can never appear on a delivered chain.
2. **Dead-edge pruning** — drop edges whose bandwidth is zero: no
   configuration can cross them (Equation 2 would always fail).
3. **Dominated-parallel-edge pruning** — between the same ordered vertex
   pair, keep only one edge per format; if the builder ever produced
   duplicates, the one with the higher bandwidth and lower cost dominates.
   (Edges in *different* formats are never merged — the distinct-format
   rule makes the format part of the path's identity.)

All reductions are *satisfaction-preserving*: the optimal chain in the
pruned graph equals the optimal chain in the original, which the property
tests verify by comparing exhaustive search results before and after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.graph import AdaptationGraph, Edge

__all__ = ["PruningReport", "GraphPruner"]


@dataclass(frozen=True)
class PruningReport:
    """What one pruning pass removed."""

    vertices_before: int
    vertices_after: int
    edges_before: int
    edges_after: int

    @property
    def vertices_removed(self) -> int:
        return self.vertices_before - self.vertices_after

    @property
    def edges_removed(self) -> int:
        return self.edges_before - self.edges_after

    def summary(self) -> str:
        return (
            f"pruned {self.vertices_removed} of {self.vertices_before} vertices, "
            f"{self.edges_removed} of {self.edges_before} edges"
        )


class GraphPruner:
    """Applies the Section-4 graph reductions."""

    def prune(self, graph: AdaptationGraph) -> Tuple[AdaptationGraph, PruningReport]:
        """Return the reduced graph plus a report of what was removed.

        A graph with nothing to remove comes back as the same object.
        """
        vertices_before = len(graph)
        edges_before = graph.edge_count()

        keep = graph.reachable_from_sender() & graph.co_reachable_to_receiver()
        # The endpoints always survive: even a disconnected scenario keeps a
        # well-formed (if edgeless) graph, which the selector reports as
        # FAILURE rather than crashing.
        keep.add(graph.sender_id)
        keep.add(graph.receiver_id)

        best_edge: Dict[Tuple[str, str, str], Edge] = {}
        for edge in graph.edges():
            if edge.source not in keep or edge.target not in keep:
                continue
            if edge.bandwidth_bps <= 0.0:
                continue
            key = (edge.source, edge.target, edge.format_name)
            incumbent = best_edge.get(key)
            if incumbent is None or self._dominates(edge, incumbent):
                best_edge[key] = edge

        if len(keep) == vertices_before and len(best_edge) == edges_before:
            # Every vertex and edge survives: re-freezing would only
            # rebuild an equal graph.
            report = PruningReport(
                vertices_before, vertices_before, edges_before, edges_before
            )
            return graph, report

        surviving_vertices = [v for v in graph.vertices() if v.service_id in keep]
        surviving_edges = list(best_edge.values())
        pruned = AdaptationGraph(
            surviving_vertices,
            surviving_edges,
            graph.sender_id,
            graph.receiver_id,
        )
        report = PruningReport(
            vertices_before=vertices_before,
            vertices_after=len(pruned),
            edges_before=edges_before,
            edges_after=pruned.edge_count(),
        )
        return pruned, report

    @staticmethod
    def _dominates(challenger: Edge, incumbent: Edge) -> bool:
        """Prefer more bandwidth; break ties toward lower cost."""
        if challenger.bandwidth_bps != incumbent.bandwidth_bps:
            return challenger.bandwidth_bps > incumbent.bandwidth_bps
        return challenger.transmission_cost < incumbent.transmission_cost
