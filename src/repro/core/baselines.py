"""Baseline path-selection algorithms.

The paper argues its greedy satisfaction-driven expansion is the right
criterion, "except that the optimization criterion is the user's
satisfaction, and not the available bandwidth or the number of hops"
(Section 4.4).  These baselines make that comparison concrete:

- :class:`ExhaustiveSelector` — enumerate every distinct-format path and
  keep the best; the optimal reference for experiment E5 (Figure 5) and the
  correctness oracle in the property tests.
- :class:`FewestHopsSelector` — classic shortest path (hop count).
- :class:`WidestPathSelector` — classic max-bottleneck-bandwidth path.
- :class:`CheapestPathSelector` — minimize accumulated monetary cost.
- :class:`RandomPathSelector` — seeded random walk; the sanity floor.

The three classic criteria are one best-first search over (vertex,
formats-used) states that differ only in the key each edge adds.

All baselines share :func:`evaluate_path`, which computes the best
deliverable configuration *for a fixed path* by greedy per-hop
maximization — optimal on a fixed path because quality only moves downward
and every parameter can always be reduced further at later hops.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.configuration import Configuration
from repro.core.graph import AdaptationGraph, Edge
from repro.core.optimizer import ConfigurationOptimizer, OptimizationConstraints
from repro.core.parameters import ParameterSet
from repro.core.satisfaction import CombinedSatisfaction
from repro.core.selection import LazySettleHeap, SelectionResult
from repro.formats.registry import FormatRegistry
from repro.services.catalog import service_sort_key

__all__ = [
    "evaluate_path",
    "PathSelectorBase",
    "ExhaustiveSelector",
    "FewestHopsSelector",
    "WidestPathSelector",
    "CheapestPathSelector",
    "RandomPathSelector",
]


def evaluate_path(
    graph: AdaptationGraph,
    edges: Sequence[Edge],
    registry: FormatRegistry,
    optimizer: ConfigurationOptimizer,
    budget: float = math.inf,
    max_delay_ms: float = math.inf,
) -> Optional[Tuple[Configuration, float, float]]:
    """Best deliverable (configuration, satisfaction, cost) along a fixed
    path.

    Returns ``None`` when the path is infeasible: its accumulated cost
    exceeds the budget, its accumulated delay exceeds the bound, the
    sender has no variant in the first edge's format, or some hop's
    bandwidth cannot carry any configuration.
    """
    if not edges:
        return None
    if sum(edge.delay_ms for edge in edges) > max_delay_ms:
        return None
    sender = graph.vertex(edges[0].source)
    upstream = sender.source_configurations.get(edges[0].format_name)
    if upstream is None:
        return None
    total_cost = 0.0
    for edge in edges:
        vertex = graph.vertex(edge.target)
        total_cost += vertex.service.cost + edge.transmission_cost
        if total_cost > budget:
            return None
        choice = optimizer.optimize(
            OptimizationConstraints(
                upstream=upstream,
                caps=vertex.service.output_caps,
                fmt=registry.get(edge.format_name),
                bandwidth_bps=edge.bandwidth_bps,
            )
        )
        if choice is None:
            return None
        upstream = choice.configuration
    final = optimizer.evaluate(upstream)
    return upstream, final, total_cost


def _edges_to_result(
    edges: Sequence[Edge],
    evaluation: Tuple[Configuration, float, float],
) -> SelectionResult:
    configuration, satisfaction, cost = evaluation
    path = (edges[0].source,) + tuple(edge.target for edge in edges)
    return SelectionResult(
        success=True,
        path=path,
        formats=tuple(edge.format_name for edge in edges),
        configuration=configuration,
        satisfaction=satisfaction,
        accumulated_cost=cost,
        accumulated_delay_ms=sum(edge.delay_ms for edge in edges),
        rounds_run=0,
        trace=None,
    )


_FAILURE = SelectionResult(
    success=False,
    path=(),
    formats=(),
    configuration=None,
    satisfaction=0.0,
    accumulated_cost=0.0,
    rounds_run=0,
    trace=None,
    failure_reason="no feasible sender-to-receiver path",
)


class PathSelectorBase:
    """Common wiring for the baselines.

    :meth:`run` evaluates every candidate path the selector offers and
    keeps the best by (satisfaction, fewer hops, smaller service order).
    Single-path selectors offer the one path their ``_find_path`` returns;
    :class:`ExhaustiveSelector` offers every enumerated path.
    """

    def __init__(
        self,
        graph: AdaptationGraph,
        registry: FormatRegistry,
        parameters: ParameterSet,
        satisfaction: CombinedSatisfaction,
        budget: float = math.inf,
        degrade_order: Optional[Sequence[str]] = None,
        max_delay_ms: float = math.inf,
    ) -> None:
        self._graph = graph
        self._registry = registry
        self._budget = budget
        self._max_delay_ms = max_delay_ms
        self._optimizer = ConfigurationOptimizer(parameters, satisfaction, degrade_order)

    def run(self) -> SelectionResult:
        best = None
        for edges in self._candidate_paths():
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
            order_key = tuple(service_sort_key(e.target) for e in edges)
            candidate = (-evaluation[1], len(edges), order_key)
            if best is None or candidate < best[0]:
                best = (candidate, edges, evaluation)
        if best is None:
            return _FAILURE
        return _edges_to_result(best[1], best[2])

    def _candidate_paths(self) -> Iterable[Sequence[Edge]]:
        edges = self._find_path()
        return () if edges is None else (edges,)


class ExhaustiveSelector(PathSelectorBase):
    """Enumerate all distinct-format paths; keep the best-evaluating one.

    ``max_paths`` / ``max_hops`` keep enumeration tractable on large random
    graphs (silently bounding the search — the scalability bench logs when
    the bound was hit).  Ties in satisfaction break toward fewer hops, then
    lexicographically smaller paths, making the result deterministic.
    """

    def __init__(self, *args, max_paths: int = 200_000, max_hops: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._max_paths = max_paths
        self._max_hops = max_hops
        self.paths_examined = 0
        self.hit_enumeration_bound = False

    def _candidate_paths(self) -> Iterable[Sequence[Edge]]:
        self.paths_examined = 0
        for edges in self._graph.enumerate_paths(
            max_paths=self._max_paths, max_hops=self._max_hops
        ):
            self.paths_examined += 1
            yield edges
        self.hit_enumeration_bound = self.paths_examined >= self._max_paths


#: Cap on labeled (vertex, formats-used) states in the classic baselines.
#: The distinct-format rule makes the exact state space exponential in the
#: format count; past this bound the search keeps only the states labeled
#: first (hence, for unit hop keys, the shortest) — ample for every
#: scenario family we generate, and a documented approximation beyond.
_MAX_SEARCH_STATES = 200_000


def _best_first_path(
    graph: AdaptationGraph, start_key: Any, extend: Callable[[Any, Edge], Any]
) -> Optional[List[Edge]]:
    """The sender-to-receiver edges of the minimal-key distinct-format path.

    A label-setting search over (vertex, formats-used) states: the sender
    starts at ``start_key`` and each edge maps its tail's key to
    ``extend(key, edge)``.  States settle in key order, equal keys in push
    order; a labeled state keeps its first parent unless a strictly
    smaller key reaches it; at most ``_MAX_SEARCH_STATES`` states get a
    label.  With unit hop keys the push order is a FIFO queue's, so this
    is breadth-first search.
    """
    start = (graph.sender_id, frozenset())
    keys: Dict[Tuple[str, frozenset], Any] = {start: start_key}
    parents: Dict[Tuple[str, frozenset], Tuple[Tuple[str, frozenset], Edge]] = {}
    heap = LazySettleHeap()
    heap.push(start_key, start)
    done: Set[Tuple[str, frozenset]] = set()
    while True:
        popped = heap.pop_current(lambda state: state not in done)
        if popped is None:
            return None
        key, state = popped
        done.add(state)
        vertex_id, formats = state
        if vertex_id == graph.receiver_id:
            edges: List[Edge] = []
            while state in parents:
                state, edge = parents[state]
                edges.append(edge)
            edges.reverse()
            return edges
        for edge in graph.out_edges(vertex_id):
            if edge.format_name in formats:
                continue
            next_state = (edge.target, formats | {edge.format_name})
            if next_state in done:
                continue
            candidate = extend(key, edge)
            if candidate < keys.get(next_state, math.inf):
                if next_state not in keys and len(keys) >= _MAX_SEARCH_STATES:
                    continue
                keys[next_state] = candidate
                parents[next_state] = (state, edge)
                heap.push(candidate, next_state)


class FewestHopsSelector(PathSelectorBase):
    """Fewest-hops path, respecting the distinct-format rule.

    The best-first search with unit hop keys is breadth-first search over
    (vertex, formats-used) states, so it finds a true fewest-hops
    distinct-format path; the state cap can only cut paths longer than
    the ones already labeled.
    """

    def _find_path(self) -> Optional[List[Edge]]:
        return _best_first_path(self._graph, 0, lambda hops, edge: hops + 1)


class WidestPathSelector(PathSelectorBase):
    """Max-bottleneck-bandwidth path over the adaptation graph's edges.

    The best-first search keyed by the negated bottleneck; the classic
    "grab the fattest pipe" heuristic the paper contrasts with.
    """

    def _find_path(self) -> Optional[List[Edge]]:
        return _best_first_path(
            self._graph,
            -math.inf,
            lambda key, edge: -min(-key, edge.bandwidth_bps),
        )


class CheapestPathSelector(PathSelectorBase):
    """Minimize accumulated monetary cost (service + transmission)."""

    def _find_path(self) -> Optional[List[Edge]]:
        graph = self._graph
        return _best_first_path(
            graph,
            0.0,
            lambda cost, edge: cost
            + (graph.vertex(edge.target).service.cost + edge.transmission_cost),
        )


class RandomPathSelector(PathSelectorBase):
    """Seeded random walk to the receiver; retries a bounded number of
    times.

    The sanity floor in comparisons — any informed strategy should beat
    it.  Deterministic for a fixed seed.
    """

    #: Random walks tried before the selector reports failure.
    MAX_ATTEMPTS = 64

    def __init__(self, *args, seed: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rng = random.Random(seed)

    def _find_path(self) -> Optional[List[Edge]]:
        graph = self._graph
        for _ in range(self.MAX_ATTEMPTS):
            edges: List[Edge] = []
            visited = {graph.sender_id}
            formats: Set[str] = set()
            current = graph.sender_id
            while current != graph.receiver_id:
                options = [
                    e
                    for e in graph.out_edges(current)
                    if e.target not in visited and e.format_name not in formats
                ]
                if not options:
                    break
                edge = self._rng.choice(options)
                edges.append(edge)
                visited.add(edge.target)
                formats.add(edge.format_name)
                current = edge.target
            if current == graph.receiver_id and edges:
                return edges
        return None
