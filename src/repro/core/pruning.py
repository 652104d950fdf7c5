"""Graph optimization: removing the extra edges and vertices (Section 4).

The paper applies "some optimization techniques on the graph to remove the
extra edges in the graph" before running the selection algorithm.  One
reduction can remove anything from builder output: **reachability
pruning** drops every vertex the sender cannot reach and every vertex
from which the receiver is unreachable (and all their edges).  Such
vertices can never appear on a delivered chain, so the optimal chain in
the pruned graph equals the optimal chain in the original.

The builder (:class:`~repro.core.graph.AdaptationGraphBuilder`) guarantees
two properties, so no further edge reduction can remove anything:

- no edge has bandwidth ≤ 0: ``_connect`` skips every route without
  bandwidth;
- no two edges share (source, target, format): ``_connect`` makes one
  edge per (producer, consumer, shared format) triple, and
  :class:`~repro.services.descriptor.ServiceDescriptor` (endpoints
  included) rejects a format listed twice.

``tests/test_pruning_equivalence.py`` pins both invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.graph import AdaptationGraph

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
    """Applies the Section-4 reachability reduction."""

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

        if len(keep) == vertices_before:
            # Every vertex, and so every edge, survives: re-freezing would
            # only rebuild an equal graph.
            report = PruningReport(
                vertices_before, vertices_before, edges_before, edges_before
            )
            return graph, report

        pruned = AdaptationGraph(
            [v for v in graph.vertices() if v.service_id in keep],
            [e for e in graph.edges() if e.source in keep and e.target in keep],
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
