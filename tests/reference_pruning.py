"""The three-pass graph pruner, kept as the equivalence oracle.

Before the pruner shrank to reachability alone, it ran three reductions:
reachability, dropping edges whose bandwidth is zero, and keeping one
edge per (source, target, format) — the widest, then the cheapest.  The
builder never emits a zero-bandwidth edge (``_connect`` skips routes
with no bandwidth) nor two edges in the same format between one pair
(``ServiceDescriptor`` rejects a format listed twice), so the last two
could not fire on builder output.  :class:`ReferencePruner` keeps the
three-pass code verbatim; the pruning equivalence suite asserts that
:meth:`repro.core.pruning.GraphPruner.prune` returns the same graph and
report on builder output.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.graph import AdaptationGraph, Edge
from repro.core.pruning import PruningReport

__all__ = ["ReferencePruner"]


class ReferencePruner:
    """The Section-4 reductions as three passes."""

    def prune(self, graph: AdaptationGraph) -> Tuple[AdaptationGraph, PruningReport]:
        vertices_before = len(graph)
        edges_before = graph.edge_count()

        keep = graph.reachable_from_sender() & graph.co_reachable_to_receiver()
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
