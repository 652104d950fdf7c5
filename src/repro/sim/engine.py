"""The deterministic discrete-event core: virtual clock + event heap.

Everything in :mod:`repro.sim` runs on this engine.  There is no wall
clock anywhere: time is a float of *virtual seconds* that only advances
when the next event is popped off a binary heap.  Determinism is the
design invariant —

- heap entries are ordered by ``(time, priority, sequence)``, where the
  sequence number is a monotone counter, so two events at the same instant
  always fire in scheduling order;
- callbacks receive no randomness from the engine; stochastic processes
  (arrivals, faults) bring their own explicitly seeded
  :class:`random.Random`;
- the engine keeps a running SHA-256 over every trace line it records, so
  two runs can be compared by digest even when the backing
  :class:`~repro.runtime.events.EventLog` is a bounded ring buffer that
  has long since dropped the early events.

The engine is deliberately tiny: scheduling, the run loop, and tracing.
Domain behaviour (sessions, faults, admission) lives in the neighbouring
modules and is injected as plain callables.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import ValidationError
from repro.runtime.events import Event, EventLog

__all__ = ["Simulator"]

#: One heap entry: (time, priority, sequence, kind, action).
_Entry = Tuple[float, int, int, str, Callable[[], None]]


class Simulator:
    """A seedless, wall-clock-free discrete-event executor."""

    def __init__(self, trace_capacity: Optional[int] = None) -> None:
        self._now = 0.0
        self._heap: List[_Entry] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        #: Structured narrative of the run; bounded when ``trace_capacity``
        #: is given (the digest still covers every event ever recorded).
        self.trace = EventLog(capacity=trace_capacity)
        self._digest = hashlib.sha256()
        self._trace_records = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Events still waiting on the heap."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time_s: float,
        action: Callable[[], None],
        kind: str = "event",
        priority: int = 0,
    ) -> None:
        """Enqueue ``action`` to fire at absolute virtual time ``time_s``.

        Lower ``priority`` fires first among events at the same instant;
        ties beyond that resolve in scheduling order.  Scheduling into the
        past is a programming error and raises.
        """
        if time_s < self._now - 1e-12:
            raise ValidationError(
                f"cannot schedule {kind!r} at {time_s}; clock is at {self._now}"
            )
        heapq.heappush(
            self._heap,
            (time_s, priority, next(self._sequence), kind, action),
        )

    def schedule(
        self,
        delay_s: float,
        action: Callable[[], None],
        kind: str = "event",
        priority: int = 0,
    ) -> None:
        """Enqueue ``action`` to fire ``delay_s`` virtual seconds from now."""
        if delay_s < 0:
            raise ValidationError("delay must be >= 0")
        self.schedule_at(self._now + delay_s, action, kind=kind, priority=priority)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def record(self, category: str, message: str) -> Event:
        """Record a trace event at the current virtual time.

        The rendered line is folded into the running digest before the
        ring buffer gets a chance to drop it.
        """
        event = self.trace.record(self._now, category, message)
        self._digest.update(str(event).encode("utf-8"))
        self._digest.update(b"\n")
        self._trace_records += 1
        return event

    def trace_digest(self) -> str:
        """SHA-256 over every trace line recorded so far (hex)."""
        return self._digest.copy().hexdigest()

    @property
    def trace_records(self) -> int:
        """Total trace events recorded (including ring-buffer drops)."""
        return self._trace_records

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run(self, until_s: Optional[float] = None) -> int:
        """Pop and execute events until the heap drains.

        ``until_s`` stops the clock after the last event at or before that
        time (later events stay queued).  Returns how many events this
        call processed.
        """
        processed = 0
        while self._heap:
            if until_s is not None and self._heap[0][0] > until_s + 1e-9:
                break
            time_s, _priority, _seq, _kind, action = heapq.heappop(self._heap)
            # Heap order guarantees monotone time.
            self._now = time_s
            action()
            self._events_processed += 1
            processed += 1
        return processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}s, pending={len(self._heap)}, "
            f"processed={self._events_processed})"
        )
