"""A thread-safe LRU plan cache with single-flight computation.

The cache memoizes fully planned sessions by request fingerprint
(:func:`~repro.planner.fingerprint.fingerprint_request`).  Three
properties matter for serving heavy concurrent traffic:

- **LRU bound** — at most ``max_entries`` plans are retained; the least
  recently used entry is evicted first.  A plan holds its selector
  result and the descriptors along its path, not the adaptation graph
  it was selected on (:class:`~repro.runtime.session.SessionPlan`), so
  an entry costs a couple of KB rather than the tens of KB of a graph.
- **Single-flight** — when many threads miss on the same fingerprint
  simultaneously, exactly one computes the plan; the rest wait on an event
  and then read the freshly inserted entry.  This removes the thundering
  herd that would otherwise recompute one popular plan N times.
- **Content keys** — a fingerprint covers everything planning reads from
  the request and the infrastructure, so a plan is served only for a
  request whose inputs equal the ones it was computed from.  An entry
  for a world that moved on is simply never asked for again and ages out
  of the LRU; :meth:`clear` reclaims such entries eagerly.

All statistics are maintained under the same lock as the entry map, so a
snapshot taken via :attr:`stats` is internally consistent.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import ValidationError

__all__ = ["CacheStats", "PlanCache"]


@dataclass(frozen=True)
class CacheStats:
    """One consistent snapshot of cache counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none ran)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class PlanCache:
    """LRU cache of planned sessions keyed by request fingerprint.

    A fingerprint covers neither the planner's format registry nor its
    parameter set, so a cache may outlive a planner (serve the next one
    after a scenario swap) only if it is cleared when the registry or
    parameter set changes.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValidationError("PlanCache needs max_entries >= 1")
        self._max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._inflight: Dict[str, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    @property
    def max_entries(self) -> int:
        return self._max_entries

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get_hit(self, fingerprint: str) -> Optional[Any]:
        """The cached plan counted as a hit, or ``None`` counting nothing.

        For a caller that probed with ``in`` and leaves a miss to
        :meth:`get_or_compute`: an entry evicted in between is then one
        lookup, counted there as a miss.
        """
        with self._lock:
            if fingerprint in self._entries:
                return self._hit(fingerprint)
            return None

    def get_or_compute(
        self,
        fingerprint: str,
        compute: Callable[[], Any],
    ) -> Any:
        """Return the cached plan, computing it at most once per miss.

        Concurrent callers with the same fingerprint coalesce: one leader
        runs ``compute()`` while followers wait and then read the inserted
        entry.  A leader failure releases the followers, and the first of
        them retries as the new leader (the exception propagates only to
        the leader that hit it).
        """
        while True:
            with self._lock:
                if fingerprint in self._entries:
                    return self._hit(fingerprint)
                event = self._inflight.get(fingerprint)
                if event is None:
                    event = threading.Event()
                    self._inflight[fingerprint] = event
                    self._misses += 1
                    is_leader = True
                else:
                    is_leader = False
            if not is_leader:
                event.wait()
                continue  # Re-check: the leader inserted (or failed).
            try:
                plan = compute()
            except BaseException:
                with self._lock:
                    del self._inflight[fingerprint]
                event.set()
                raise
            with self._lock:
                self._entries[fingerprint] = plan
                self._entries.move_to_end(fingerprint)
                del self._inflight[fingerprint]
                self._evict_overflow()
            event.set()
            return plan

    def clear(self) -> int:
        """Drop everything; returns how many entries were invalidated."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._invalidations += dropped
            return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                entries=len(self._entries),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def _hit(self, fingerprint: str) -> Any:
        # Caller holds the lock and has seen ``fingerprint`` in the map.
        self._entries.move_to_end(fingerprint)
        self._hits += 1
        return self._entries[fingerprint]

    def _evict_overflow(self) -> None:
        # Caller holds the lock.
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self.stats
        return (
            f"PlanCache(entries={snapshot.entries}/{self._max_entries}, "
            f"hits={snapshot.hits}, misses={snapshot.misses})"
        )
