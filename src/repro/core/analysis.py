"""Structural analysis of adaptation graphs.

Operators deploying the framework want to know *why* a graph behaves the
way it does: which formats do the heavy lifting, which services can never
carry traffic, where the bandwidth bottlenecks sit, how rich the path
diversity is.  :class:`GraphAnalysis` computes those views; the examples
and benches print them, and capacity-planning tests assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.graph import AdaptationGraph, Edge

__all__ = ["DegreeStats", "GraphAnalysis"]


@dataclass(frozen=True)
class DegreeStats:
    """Degree summary over the graph's transcoder vertices."""

    min_in: int
    max_in: int
    min_out: int
    max_out: int
    mean_in: float
    mean_out: float


class GraphAnalysis:
    """Read-only analytics over one adaptation graph."""

    def __init__(self, graph: AdaptationGraph) -> None:
        self._graph = graph

    # ------------------------------------------------------------------
    # Formats
    # ------------------------------------------------------------------
    def format_usage(self) -> Dict[str, int]:
        """How many edges carry each format, descending."""
        counts: Dict[str, int] = {}
        for edge in self._graph.edges():
            counts[edge.format_name] = counts.get(edge.format_name, 0) + 1
        return dict(
            sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        )

    # ------------------------------------------------------------------
    # Services
    # ------------------------------------------------------------------
    def dead_services(self) -> List[str]:
        """Transcoders that can never sit on a sender→receiver chain."""
        graph = self._graph
        alive = graph.reachable_from_sender() & graph.co_reachable_to_receiver()
        return [
            v.service_id
            for v in graph.vertices()
            if v.service.is_transcoder and v.service_id not in alive
        ]

    def degree_stats(self) -> Optional[DegreeStats]:
        """In/out-degree summary over transcoders (None when there are
        none)."""
        graph = self._graph
        ins: List[int] = []
        outs: List[int] = []
        for vertex in graph.vertices():
            if not vertex.service.is_transcoder:
                continue
            ins.append(len(graph.in_edges(vertex.service_id)))
            outs.append(len(graph.out_edges(vertex.service_id)))
        if not ins:
            return None
        return DegreeStats(
            min_in=min(ins),
            max_in=max(ins),
            min_out=min(outs),
            max_out=max(outs),
            mean_in=sum(ins) / len(ins),
            mean_out=sum(outs) / len(outs),
        )

    # ------------------------------------------------------------------
    # Paths and bottlenecks
    # ------------------------------------------------------------------
    def path_count(self, max_paths: int = 100_000) -> int:
        """Number of distinct-format sender→receiver paths (bounded)."""
        return sum(1 for _ in self._graph.enumerate_paths(max_paths=max_paths))

    def widest_chain(self) -> Optional[Tuple[List[Edge], float]]:
        """The chain with the best bottleneck bandwidth, and that
        bottleneck.

        A max-bottleneck search at the *chain* level (not the raw network):
        the answer bounds how much quality any selection can ever push
        through this graph.
        """
        best: Optional[Tuple[List[Edge], float]] = None
        for path in self._graph.enumerate_paths(max_paths=100_000):
            bottleneck = min(edge.bandwidth_bps for edge in path)
            if best is None or bottleneck > best[1]:
                best = (path, bottleneck)
        return best

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A human-readable report of all the above."""
        graph = self._graph
        lines = [
            f"vertices:        {len(graph)} "
            f"({sum(1 for v in graph.vertices() if v.service.is_transcoder)} transcoders)",
            f"edges:           {graph.edge_count()}",
            f"paths:           {self.path_count()} (distinct-format)",
        ]
        stats = self.degree_stats()
        if stats is not None:
            lines.append(
                f"degree:          in {stats.min_in}..{stats.max_in} "
                f"(mean {stats.mean_in:.1f}), out {stats.min_out}.."
                f"{stats.max_out} (mean {stats.mean_out:.1f})"
            )
        dead = self.dead_services()
        lines.append(f"dead services:   {', '.join(dead) if dead else '(none)'}")
        usage = self.format_usage()
        busiest = ", ".join(f"{fmt} x{count}" for fmt, count in list(usage.items())[:5])
        lines.append(f"busiest formats: {busiest}")
        widest = self.widest_chain()
        if widest is not None:
            path, bottleneck = widest
            chain = " -> ".join([path[0].source] + [e.target for e in path])
            lines.append(
                f"widest chain:    {chain} (bottleneck "
                f"{bottleneck / 1e6:.2f} Mbit/s)"
            )
        return "\n".join(lines)
