"""The QoS path-selection algorithm (Section 4.4, Figure 4).

The algorithm maintains two sets: ``VT``, the already considered
trans-coding services (initially just the sender), and ``CS``, the candidate
services reachable over one edge from ``VT``.  Each round it

1. computes, for every candidate ``Ti`` with settled parent ``Tprev``, the
   configuration maximizing the user's satisfaction subject to the
   bandwidth available between ``Ti`` and ``Tprev`` and the remaining
   budget (the ``Optimize`` call — :mod:`repro.core.optimizer`);
2. settles the candidate with the highest satisfaction (Step 4), recording
   its parent and accumulated cost (Step 6);
3. terminates with success when the receiver is settled (Step 7) or with
   FAILURE when ``CS`` empties first (Step 3);
4. otherwise inserts the settled service's neighbors into ``CS`` (Step 8).

Because transcoders can only reduce quality, the satisfaction of settled
candidates is non-increasing over rounds and the first time the receiver is
settled it carries the maximum achievable satisfaction — the Figure 5
optimality argument, which the property tests check against exhaustive
search.

The paper never needs a tie-break (Table 1's underlying satisfactions are
strictly decreasing), but real scenarios do; :class:`TieBreakPolicy`
provides deterministic options, ablated in benchmark E8/E13.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.configuration import Configuration
from repro.core.graph import AdaptationGraph, Edge
from repro.core.optimizer import (
    ConfigurationOptimizer,
    OptimizationConstraints,
    OptimizedChoice,
    OptimizeMemo,
    caps_key,
)
from repro.core.parameters import FRAME_RATE, ParameterSet
from repro.core.satisfaction import CombinedSatisfaction
from repro.core.trace import SelectionRound, SelectionTrace
from repro.errors import NoPathError
from repro.formats.format import MediaFormat
from repro.formats.registry import FormatRegistry
from repro.profiles.user import UserProfile
from repro.services.chains import AdaptationChain, ChainHop
from repro.services.descriptor import ServiceDescriptor

__all__ = [
    "TieBreakPolicy",
    "LazySettleHeap",
    "SelectionStats",
    "SelectionResult",
    "QoSPathSelector",
    "build_chain",
]


class LazySettleHeap:
    """A counter-tied binary min-heap with lazy deletion.

    The settle loops in :class:`QoSPathSelector` and the Dijkstra-shaped
    baselines all share the same access pattern: push (key, payload) pairs,
    repeatedly extract the minimum *live* payload, and never pay to delete
    a superseded or already-settled one — those stay in the heap and are
    skipped at pop time via the caller's ``is_current`` predicate.  The
    monotone counter tie-breaks exactly-equal keys by push order, which
    also guarantees payloads themselves are never compared.

    Counters (``pushes`` / ``settled_pops`` / ``stale_pops``) feed the
    hot-path benchmark and :class:`SelectionStats`.
    """

    __slots__ = ("_heap", "_counter", "pushes", "settled_pops", "stale_pops")

    def __init__(self) -> None:
        self._heap: List[Tuple] = []
        self._counter = 0
        self.pushes = 0
        self.settled_pops = 0
        self.stale_pops = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, key, payload) -> None:
        heapq.heappush(self._heap, (key, self._counter, payload))
        self._counter += 1
        self.pushes += 1

    def pop_current(self, is_current: Callable) -> Optional[Tuple]:
        """The minimal (key, payload) with ``is_current(payload)`` true.

        Stale entries encountered on the way are dropped.  Returns ``None``
        when no live payload remains.
        """
        while self._heap:
            key, _, payload = heapq.heappop(self._heap)
            if is_current(payload):
                self.settled_pops += 1
                return key, payload
            self.stale_pops += 1
        return None


class TieBreakPolicy(enum.Enum):
    """How to order candidates whose satisfactions tie exactly.

    - ``PAPER``: transcoders before the receiver, most recently updated
      first, then descending service id — the ordering consistent with how
      Table 1 lists its rounds.
    - ``ASCENDING_ID`` / ``DESCENDING_ID``: by natural service-id order.
    - ``INSERTION_ORDER``: first entered into CS wins.

    Every policy yields the same *final* satisfaction (ties are equal by
    definition); they differ in which equally good path gets reported and
    in how many rounds run before the receiver settles.
    """

    PAPER = "paper"
    ASCENDING_ID = "ascending-id"
    DESCENDING_ID = "descending-id"
    INSERTION_ORDER = "insertion-order"


@dataclass
class _Entry:
    """Bookkeeping for one service, candidate or settled."""

    service_id: str
    parent_id: Optional[str]
    via_format: Optional[str]
    choice: Optional[OptimizedChoice]
    accumulated_cost: float
    accumulated_delay_ms: float
    path: Tuple[str, ...]
    formats_on_path: frozenset
    insertion_index: int
    insertion_round: int
    update_round: int

    @property
    def satisfaction(self) -> float:
        return self.choice.satisfaction if self.choice is not None else 1.0


@dataclass(frozen=True)
class SelectionStats:
    """Where one selector run spent its planning effort.

    ``optimize_calls`` counts every ``Optimize(...)`` invocation of the run
    (memo hits included); ``dominance_skips`` counts relaxations pruned
    before ``Optimize`` because the incumbent candidate already matched the
    parent's satisfaction ceiling.  The heap counters describe the settle
    loop itself.
    """

    rounds: int
    optimize_calls: int
    optimize_memo_hits: int
    dominance_skips: int
    heap_pushes: int
    heap_settled_pops: int
    heap_stale_pops: int

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of optimize() calls served from the memo."""
        if self.optimize_calls == 0:
            return 0.0
        return self.optimize_memo_hits / self.optimize_calls


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selector run.

    ``success`` mirrors Figure 4's two exits: True when the receiver was
    settled (Step 10 printed the reverse path), False when CS emptied
    first (Step 3's ``TERMINATE(FAILURE)``).

    ``stats`` is observability only — it never participates in equality,
    so results from differently-instrumented selectors still compare
    bit-identical on everything the paper's algorithm defines.
    """

    success: bool
    path: Tuple[str, ...]
    formats: Tuple[str, ...]
    configuration: Optional[Configuration]
    satisfaction: float
    accumulated_cost: float
    rounds_run: int
    trace: Optional[SelectionTrace]
    failure_reason: str = ""
    accumulated_delay_ms: float = 0.0
    stats: Optional[SelectionStats] = field(default=None, compare=False)

    @property
    def delivered_frame_rate(self) -> Optional[float]:
        if self.configuration is None:
            return None
        return self.configuration.get_value(FRAME_RATE)

    def describe(self) -> str:
        if not self.success:
            text = f"FAILURE after {self.rounds_run} rounds: {self.failure_reason}"
        else:
            text = (
                f"path {','.join(self.path)} | satisfaction "
                f"{self.satisfaction:.4f} | cost {self.accumulated_cost:.2f}"
            )
        if self.stats is not None:
            text += (
                f" | rounds {self.stats.rounds}"
                f" | optimize {self.stats.optimize_calls}"
                f" ({self.stats.memo_hit_rate * 100:.0f}% memoized)"
            )
        return text


class QoSPathSelector:
    """Runs the Figure 4 algorithm over an adaptation graph.

    The settle loop is heap-based: candidates live in a
    :class:`LazySettleHeap` under a composite key that encodes satisfaction
    first and the configured :class:`TieBreakPolicy` second, so Step 4 is
    ``O(log |CS|)`` instead of the seed implementation's three full sorts
    of ``CS`` per round.  Results are bit-identical to the linear-scan
    seed selector for all four policies — the equivalence property suite
    (``tests/test_selector_equivalence.py``) pins that.
    """

    #: Subclass hook: the equivalence reference disables the pre-filter to
    #: reproduce the seed's exact work profile (results are identical
    #: either way; the filter only skips provably rejected relaxations).
    _use_dominance_filter = True

    def __init__(
        self,
        graph: AdaptationGraph,
        registry: FormatRegistry,
        parameters: ParameterSet,
        satisfaction: CombinedSatisfaction,
        budget: float = math.inf,
        degrade_order: Optional[Sequence[str]] = None,
        tie_break: TieBreakPolicy = TieBreakPolicy.PAPER,
        record_trace: bool = True,
        max_delay_ms: float = math.inf,
        optimize_memo: Optional[OptimizeMemo] = None,
    ) -> None:
        self._graph = graph
        self._registry = registry
        self._budget = budget
        self._max_delay_ms = max_delay_ms
        self._tie_break = tie_break
        self._record_trace = record_trace
        self._optimizer = ConfigurationOptimizer(
            parameters, satisfaction, degrade_order, memo=optimize_memo
        )

    @classmethod
    def for_user(
        cls,
        graph: AdaptationGraph,
        registry: FormatRegistry,
        parameters: ParameterSet,
        user: UserProfile,
        peer: Optional[str] = None,
        tie_break: TieBreakPolicy = TieBreakPolicy.PAPER,
        record_trace: bool = True,
        optimize_memo: Optional[OptimizeMemo] = None,
    ) -> "QoSPathSelector":
        """Build a selector straight from a user profile."""
        satisfaction = user.satisfaction(peer)
        return cls(
            graph=graph,
            registry=registry,
            parameters=parameters,
            satisfaction=satisfaction,
            budget=user.budget,
            degrade_order=user.degrade_order(parameters.names()),
            tie_break=tie_break,
            record_trace=record_trace,
            max_delay_ms=user.max_delay_ms,
            optimize_memo=optimize_memo,
        )

    # ------------------------------------------------------------------
    # The algorithm
    # ------------------------------------------------------------------
    def run(self) -> SelectionResult:
        graph = self._graph
        trace = SelectionTrace() if self._record_trace else None
        optimizer = self._optimizer
        calls_before = optimizer.optimize_calls
        memo_hits_before = optimizer.memo_hits

        # Step 1: VT = {sender}; CS = neighbor(sender).
        settled: Dict[str, _Entry] = {}
        settled_order: List[str] = []
        candidates: Dict[str, _Entry] = {}
        insertion_counter = 0
        dominance_skips = 0
        heap = LazySettleHeap()
        heap_key = self._heap_key_fn()
        use_dominance = self._use_dominance_filter
        # The memo key's caps part per target and each format with its key
        # part, built once per run rather than on every Optimize() call.
        caps_keys: Dict[str, Tuple] = {}
        formats: Dict[str, Tuple[MediaFormat, Tuple]] = {}

        sender_entry = _Entry(
            service_id=graph.sender_id,
            parent_id=None,
            via_format=None,
            choice=None,
            accumulated_cost=0.0,
            accumulated_delay_ms=0.0,
            path=(graph.sender_id,),
            formats_on_path=frozenset(),
            insertion_index=-1,
            insertion_round=0,
            update_round=0,
        )
        settled[graph.sender_id] = sender_entry
        settled_order.append(graph.sender_id)

        def consider(edge: Edge, current_round: int) -> None:
            nonlocal insertion_counter, dominance_skips
            if edge.target in settled:
                return
            parent = settled[edge.source]
            if edge.format_name in parent.formats_on_path:
                return  # Distinct-format rule (Section 4.2).
            if edge.target in parent.path:
                return  # No repeated services along a path.
            incumbent = candidates.get(edge.target)
            if (
                use_dominance
                and incumbent is not None
                and parent.satisfaction <= incumbent.satisfaction
            ):
                # Dominance pre-filter: quality only degrades along a path,
                # so no relaxation through this parent can exceed the
                # parent's own satisfaction.  With the incumbent already at
                # or above that ceiling, Optimize() could at best tie — and
                # ties never replace — so the call is skipped outright.
                dominance_skips += 1
                return
            target_vertex = graph.vertex(edge.target)
            upstream = self._upstream_configuration(parent, edge)
            if upstream is None:
                return
            cost = (
                parent.accumulated_cost
                + target_vertex.service.cost
                + edge.transmission_cost
            )
            if cost > self._budget:
                return  # Remaining-budget constraint (Figure 4, Step 2).
            delay = parent.accumulated_delay_ms + edge.delay_ms
            if delay > self._max_delay_ms:
                return  # The user's end-to-end delay bound (Section 3).
            caps = target_vertex.service.output_caps
            target_caps_key = caps_keys.get(edge.target)
            if target_caps_key is None:
                target_caps_key = caps_keys[edge.target] = caps_key(caps)
            fmt_entry = formats.get(edge.format_name)
            if fmt_entry is None:
                fmt = self._registry.get(edge.format_name)
                fmt_entry = formats[edge.format_name] = (fmt, fmt.cache_key())
            fmt, fmt_key = fmt_entry
            choice = optimizer.optimize(
                OptimizationConstraints(
                    upstream=upstream,
                    caps=caps,
                    fmt=fmt,
                    bandwidth_bps=edge.bandwidth_bps,
                ),
                (target_caps_key, fmt_key),
            )
            if choice is None:
                return  # Equation 2 cannot be met on this edge at all.
            if incumbent is not None and choice.satisfaction <= incumbent.satisfaction:
                return
            if incumbent is None:
                insertion_index = insertion_counter
                insertion_round = current_round
                insertion_counter += 1
            else:
                insertion_index = incumbent.insertion_index
                insertion_round = incumbent.insertion_round
            entry = _Entry(
                service_id=edge.target,
                parent_id=edge.source,
                via_format=edge.format_name,
                choice=choice,
                accumulated_cost=cost,
                accumulated_delay_ms=delay,
                path=parent.path + (edge.target,),
                formats_on_path=parent.formats_on_path | {edge.format_name},
                insertion_index=insertion_index,
                insertion_round=insertion_round,
                update_round=current_round,
            )
            candidates[edge.target] = entry
            # Lazy deletion: the superseded incumbent stays in the heap and
            # is recognized as stale (identity mismatch) when popped.
            heap.push(heap_key(entry), entry)

        for edge in self._relaxation_edges(graph.sender_id):
            consider(edge, current_round=0)

        rounds_run = 0
        while candidates:
            rounds_run += 1
            # Step 4: settle the candidate with the highest satisfaction.
            selected = self._select_candidate(candidates, heap)
            if trace is not None:
                trace.append(
                    SelectionRound(
                        number=rounds_run,
                        considered_set=tuple(settled_order),
                        candidate_set=self._candidate_snapshot(candidates),
                        selected=selected.service_id,
                        path=selected.path,
                        frame_rate=(
                            selected.choice.configuration.get_value(FRAME_RATE)
                            if selected.choice is not None
                            else None
                        ),
                        satisfaction=selected.satisfaction,
                    )
                )
            del candidates[selected.service_id]
            settled[selected.service_id] = selected
            settled_order.append(selected.service_id)

            # Step 7: the receiver terminates the search.
            if selected.service_id == graph.receiver_id:
                stats = SelectionStats(
                    rounds=rounds_run,
                    optimize_calls=optimizer.optimize_calls - calls_before,
                    optimize_memo_hits=optimizer.memo_hits - memo_hits_before,
                    dominance_skips=dominance_skips,
                    heap_pushes=heap.pushes,
                    heap_settled_pops=heap.settled_pops,
                    heap_stale_pops=heap.stale_pops,
                )
                return self._success(selected, settled, rounds_run, trace, stats)

            # Step 8: fold the settled service's neighbors into CS.
            for edge in self._relaxation_edges(selected.service_id):
                consider(edge, current_round=rounds_run)

        # Step 3: CS empty and the receiver was never reached.
        return SelectionResult(
            success=False,
            path=(),
            formats=(),
            configuration=None,
            satisfaction=0.0,
            accumulated_cost=0.0,
            rounds_run=rounds_run,
            trace=trace,
            failure_reason="candidate set exhausted before reaching the receiver",
            stats=SelectionStats(
                rounds=rounds_run,
                optimize_calls=optimizer.optimize_calls - calls_before,
                optimize_memo_hits=optimizer.memo_hits - memo_hits_before,
                dominance_skips=dominance_skips,
                heap_pushes=heap.pushes,
                heap_settled_pops=heap.settled_pops,
                heap_stale_pops=heap.stale_pops,
            ),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _upstream_configuration(
        self, parent: _Entry, edge: Edge
    ) -> Optional[Configuration]:
        """The quality ceiling arriving at ``edge``'s target.

        For regular parents this is the configuration the parent achieved;
        for the sender it is the stored variant encoded in the edge's
        format (one sender output link per variant, Section 4.2).
        """
        if parent.choice is not None:
            return parent.choice.configuration
        vertex = self._graph.vertex(parent.service_id)
        return vertex.source_configurations.get(edge.format_name)

    def _candidate_snapshot(self, candidates: Dict[str, _Entry]) -> Tuple[str, ...]:
        """CS in insertion order, receiver pinned last (Table 1's layout)."""
        ordered = sorted(candidates.values(), key=lambda e: e.insertion_index)
        names = [e.service_id for e in ordered if e.service_id != self._graph.receiver_id]
        if self._graph.receiver_id in candidates:
            names.append(self._graph.receiver_id)
        return tuple(names)

    def _relaxation_edges(self, service_id: str) -> Iterable[Edge]:
        """The just-settled vertex's out-edges, in relaxation order.

        The graph caches the sorted adjacency at freeze time; the seed
        implementation re-sorted per settle, which the test-only reference
        selector reproduces by overriding this hook.
        """
        return self._graph.out_edges(service_id)

    def _heap_key_fn(self) -> Callable[[_Entry], Tuple]:
        """The composite heap key for the configured tie-break policy.

        The seed ``_pick()`` pre-sorted ``CS`` most-preferred-first for the
        policy, then took ``max`` by satisfaction (keeping the *first* of
        equals) — i.e. it settled the entry minimizing
        ``(-satisfaction, policy order)``.  The keys below encode exactly
        that ordering, with the policy's string comparisons replaced by the
        graph's frozen integer ranks:

        - ``PAPER`` sorts by id descending, then update-round descending,
          then receiver-last; successive stable sorts make the *last* key
          primary, so ascending order is
          ``(is_receiver, -update_round, -rank)``.
        - ``ASCENDING_ID`` / ``DESCENDING_ID`` are ``rank`` / ``-rank``.
        - ``INSERTION_ORDER`` is the first-entered index, preserved across
          in-place candidate improvements.
        """
        policy = self._tie_break
        rank = self._graph.vertex_rank()
        receiver_id = self._graph.receiver_id
        if policy is TieBreakPolicy.PAPER:
            return lambda e: (
                -e.satisfaction,
                e.service_id == receiver_id,
                -e.update_round,
                -rank[e.service_id],
            )
        if policy is TieBreakPolicy.ASCENDING_ID:
            return lambda e: (-e.satisfaction, rank[e.service_id])
        if policy is TieBreakPolicy.DESCENDING_ID:
            return lambda e: (-e.satisfaction, -rank[e.service_id])
        return lambda e: (-e.satisfaction, e.insertion_index)

    def _select_candidate(
        self, candidates: Dict[str, _Entry], heap: LazySettleHeap
    ) -> _Entry:
        """Step 4 in ``O(log |CS|)``: pop the minimal live heap entry.

        Every live candidate sits in the heap under its latest key, so the
        first pop surviving the staleness check (identity against the
        candidate map) is exactly the entry the seed's scan-and-sort pick
        would have chosen.  Callers guarantee ``candidates`` is non-empty.
        """
        popped = heap.pop_current(
            lambda entry: candidates.get(entry.service_id) is entry
        )
        assert popped is not None, "live candidates must be present in the heap"
        return popped[1]

    @staticmethod
    def _success(
        receiver_entry: _Entry,
        settled: Dict[str, _Entry],
        rounds_run: int,
        trace: Optional[SelectionTrace],
        stats: Optional[SelectionStats] = None,
    ) -> SelectionResult:
        # Step 10: print the reverse path by following the "previous" links
        # from the receiver.  consider() only extends *settled* entries
        # (``path = parent.path + (target,)``), and a settled entry never
        # changes, so every parent's path is exactly its child's path minus
        # the last hop: the walk below retraces ``receiver_entry.path``.
        via: List[str] = []
        current = receiver_entry
        while current.parent_id is not None:
            via.append(current.via_format)  # type: ignore[arg-type]
            current = settled[current.parent_id]
        via.reverse()
        return SelectionResult(
            success=True,
            path=receiver_entry.path,
            formats=tuple(via),
            configuration=(
                receiver_entry.choice.configuration
                if receiver_entry.choice is not None
                else None
            ),
            satisfaction=receiver_entry.satisfaction,
            accumulated_cost=receiver_entry.accumulated_cost,
            accumulated_delay_ms=receiver_entry.accumulated_delay_ms,
            rounds_run=rounds_run,
            trace=trace,
            stats=stats,
        )


def build_chain(
    services: Sequence[ServiceDescriptor], result: SelectionResult
) -> AdaptationChain:
    """Materialize a selector result as an executable adaptation chain.

    ``services`` are the descriptors along ``result.path``
    (:meth:`~repro.core.graph.AdaptationGraph.services_along`), sender
    first.
    """
    if not result.success:
        raise NoPathError("cannot build a chain from a FAILURE result")
    hops = [ChainHop(services[0], None)]
    hops.extend(
        ChainHop(service, fmt)
        for service, fmt in zip(services[1:], result.formats)
    )
    return AdaptationChain(hops)
