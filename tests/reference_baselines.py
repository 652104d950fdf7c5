"""The classic baselines as three separate searches, kept as the oracle.

Before :mod:`repro.core.baselines` ran every classic criterion through
one best-first search, each baseline carried its own loop over
(vertex, formats-used) states:

- :class:`ReferenceFewestHopsSelector` is the FIFO breadth-first search;
- :class:`ReferenceWidestPathSelector` is the max-bottleneck Dijkstra;
- :class:`ReferenceCheapestPathSelector` is the min-cost Dijkstra;
- :class:`ReferenceExhaustiveSelector` is the enumerate-and-keep-best
  loop that overrode ``run()``.

:class:`ReferenceSelectorBase.run` is the single-path evaluate step they
shared.  The baseline equivalence suite asserts that production results
are bit-identical to these.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.core import baselines
from repro.core.baselines import _FAILURE, _edges_to_result, evaluate_path
from repro.core.graph import Edge
from repro.core.selection import LazySettleHeap, SelectionResult
from repro.services.catalog import service_sort_key

__all__ = [
    "ReferenceSelectorBase",
    "ReferenceExhaustiveSelector",
    "ReferenceFewestHopsSelector",
    "ReferenceWidestPathSelector",
    "ReferenceCheapestPathSelector",
]


def _state_cap() -> int:
    # Read at search time so a test that shrinks the production cap
    # shrinks this one too.
    return baselines._MAX_SEARCH_STATES


class ReferenceSelectorBase(baselines.PathSelectorBase):
    """The one-path ``run`` every single-path baseline shared."""

    def run(self) -> SelectionResult:
        edges = self._find_path()
        if edges is None:
            return _FAILURE
        evaluation = evaluate_path(
            self._graph,
            edges,
            self._registry,
            self._optimizer,
            self._budget,
            self._max_delay_ms,
        )
        if evaluation is None:
            return _FAILURE
        return _edges_to_result(edges, evaluation)

    def _find_path(self) -> Optional[List[Edge]]:
        raise NotImplementedError


class ReferenceExhaustiveSelector(ReferenceSelectorBase):
    """Enumerate all distinct-format paths; keep the best-evaluating one."""

    def __init__(self, *args, max_paths: int = 200_000, max_hops: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._max_paths = max_paths
        self._max_hops = max_hops
        self.paths_examined = 0
        self.hit_enumeration_bound = False

    def run(self) -> SelectionResult:
        best: Optional[Tuple[float, int, Tuple[Tuple[str, float], ...], List[Edge], Tuple]] = None
        self.paths_examined = 0
        count = 0
        for edges in self._graph.enumerate_paths(
            max_paths=self._max_paths, max_hops=self._max_hops
        ):
            count += 1
            evaluation = evaluate_path(
                self._graph,
                edges,
                self._registry,
                self._optimizer,
                self._budget,
                self._max_delay_ms,
            )
            if evaluation is None:
                continue
            _, satisfaction, _ = evaluation
            order_key = tuple(service_sort_key(e.target) for e in edges)
            candidate = (-satisfaction, len(edges), order_key)
            if best is None or candidate < best[0]:
                best = (candidate, edges, evaluation)
        self.paths_examined = count
        self.hit_enumeration_bound = count >= self._max_paths
        if best is None:
            return _FAILURE
        return _edges_to_result(best[1], best[2])


class ReferenceFewestHopsSelector(ReferenceSelectorBase):
    """Breadth-first fewest-hops path over (vertex, formats-used) states."""

    def _find_path(self) -> Optional[List[Edge]]:
        graph = self._graph
        start = (graph.sender_id, frozenset())
        queue: List[Tuple[str, frozenset]] = [start]
        parents: Dict[Tuple[str, frozenset], Tuple[Tuple[str, frozenset], Edge]] = {}
        seen: Set[Tuple[str, frozenset]] = {start}
        head = 0
        while head < len(queue):
            vertex_id, formats = queue[head]
            head += 1
            if vertex_id == graph.receiver_id:
                return self._unwind(parents, (vertex_id, formats))
            for edge in graph.out_edges(vertex_id):
                if edge.format_name in formats:
                    continue
                state = (edge.target, formats | {edge.format_name})
                if state in seen:
                    continue
                if len(seen) >= _state_cap():
                    continue
                seen.add(state)
                parents[state] = ((vertex_id, formats), edge)
                queue.append(state)
        return None

    @staticmethod
    def _unwind(parents, state) -> List[Edge]:
        edges: List[Edge] = []
        while state in parents:
            state, edge = parents[state]
            edges.append(edge)
        edges.reverse()
        return edges


class ReferenceWidestPathSelector(ReferenceSelectorBase):
    """Max-bottleneck Dijkstra over (vertex, formats-used) states."""

    def _find_path(self) -> Optional[List[Edge]]:
        graph = self._graph
        start = (graph.sender_id, frozenset())
        best: Dict[Tuple[str, frozenset], float] = {start: math.inf}
        parents: Dict[Tuple[str, frozenset], Tuple[Tuple[str, frozenset], Edge]] = {}
        heap = LazySettleHeap()
        heap.push(-math.inf, start)
        done: Set[Tuple[str, frozenset]] = set()
        while True:
            popped = heap.pop_current(lambda state: state not in done)
            if popped is None:
                return None
            neg_width, state = popped
            done.add(state)
            vertex_id, formats = state
            if vertex_id == graph.receiver_id:
                return ReferenceFewestHopsSelector._unwind(parents, state)
            width = -neg_width
            for edge in graph.out_edges(vertex_id):
                if edge.format_name in formats:
                    continue
                next_state = (edge.target, formats | {edge.format_name})
                if next_state in done:
                    continue
                candidate = min(width, edge.bandwidth_bps)
                if candidate > best.get(next_state, -1.0):
                    if next_state not in best and len(best) >= _state_cap():
                        continue
                    best[next_state] = candidate
                    parents[next_state] = (state, edge)
                    heap.push(-candidate, next_state)


class ReferenceCheapestPathSelector(ReferenceSelectorBase):
    """Min accumulated (service + transmission) cost Dijkstra."""

    def _find_path(self) -> Optional[List[Edge]]:
        graph = self._graph
        start = (graph.sender_id, frozenset())
        distance: Dict[Tuple[str, frozenset], float] = {start: 0.0}
        parents: Dict[Tuple[str, frozenset], Tuple[Tuple[str, frozenset], Edge]] = {}
        heap = LazySettleHeap()
        heap.push(0.0, start)
        done: Set[Tuple[str, frozenset]] = set()
        while True:
            popped = heap.pop_current(lambda state: state not in done)
            if popped is None:
                return None
            cost, state = popped
            done.add(state)
            vertex_id, formats = state
            if vertex_id == graph.receiver_id:
                return ReferenceFewestHopsSelector._unwind(parents, state)
            for edge in graph.out_edges(vertex_id):
                if edge.format_name in formats:
                    continue
                next_state = (edge.target, formats | {edge.format_name})
                if next_state in done:
                    continue
                step = graph.vertex(edge.target).service.cost + edge.transmission_cost
                candidate = cost + step
                if candidate < distance.get(next_state, math.inf):
                    if next_state not in distance and len(distance) >= _state_cap():
                        continue
                    distance[next_state] = candidate
                    parents[next_state] = (state, edge)
                    heap.push(candidate, next_state)
