"""Admission machinery for the planning gateway.

Two mechanisms stand between an arriving request and its planning run:

- :class:`RateLimiter` — per-client token buckets.  A client that bursts
  past its refill rate is told to back off (429 + ``Retry-After``) before
  its request ever touches the queue, so one greedy client cannot starve
  the fleet.
- :class:`DeadlineQueue` — the planning slots and a bounded
  earliest-deadline-first line of requests waiting for one.  ``enter``
  refuses (returns ``None``) when the line is full: that is the
  load-shedding decision, taken in O(1) at arrival rather than after the
  request has aged in an unbounded backlog.  A freed slot goes to the
  waiter whose deadline expires soonest, so under pressure the gateway
  spends its planning budget where it can still make the deadline.

Both are deliberately clock-injected (``now`` is always a parameter or a
callable) so tests drive them deterministically without sleeping.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import List, Optional, Tuple

import asyncio

from repro.errors import ValidationError

__all__ = ["TokenBucket", "RateLimiter", "DeadlineQueue"]

#: Most clients a :class:`RateLimiter` keeps a bucket for.
MAX_CLIENTS = 10_000


class TokenBucket:
    """The classic token bucket: ``rate_per_s`` refill, ``burst`` capacity."""

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ValidationError("token bucket rate must be positive")
        if burst < 1:
            raise ValidationError("token bucket burst must be >= 1")
        self._rate = rate_per_s
        self._burst = float(burst)
        self._tokens = float(burst)
        self._updated_at: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._updated_at is not None and now > self._updated_at:
            self._tokens = min(
                self._burst, self._tokens + (now - self._updated_at) * self._rate
            )
        self._updated_at = now

    def try_acquire(self, now: float) -> bool:
        """Take one token if available; refills lazily from elapsed time."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after_s(self, now: float) -> float:
        """Seconds until one token will be available (0.0 if already is)."""
        self._refill(now)
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self._rate


class RateLimiter:
    """Per-client token buckets with a bounded client table.

    :data:`MAX_CLIENTS` caps memory: when a new client would overflow the
    table, the least recently seen client's bucket is dropped (it will be
    recreated, full, on its next request — a deliberate bias towards
    admitting rather than stalling rare clients).
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s < 0:
            raise ValidationError(
                "rate limiter rate_per_s must be >= 0 (0 disables limiting)"
            )
        if rate_per_s > 0:
            # Buckets are built lazily per client; validate the parameters
            # now so a misconfigured daemon fails at start, not on the
            # first request.
            TokenBucket(rate_per_s, burst)
        self._rate = rate_per_s
        self._burst = burst
        #: Buckets in least-recently-seen-first order.
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self._rate > 0

    def check(self, client: str, now: float) -> Tuple[bool, float]:
        """``(admitted, retry_after_s)`` for one request from ``client``."""
        if not self.enabled:
            return True, 0.0
        bucket = self._buckets.get(client)
        if bucket is None:
            if len(self._buckets) >= MAX_CLIENTS:
                self._buckets.popitem(last=False)
            bucket = TokenBucket(self._rate, self._burst)
            self._buckets[client] = bucket
        else:
            self._buckets.move_to_end(client)
        if bucket.try_acquire(now):
            return True, 0.0
        return False, bucket.retry_after_s(now)


class DeadlineQueue:
    """Planning slots for one asyncio loop, granted earliest deadline first.

    ``slots`` requests plan at once; up to ``maxsize`` more wait for a
    slot.  :meth:`enter` never blocks: a full waiting line is a shed
    signal, not a place to wait.  :meth:`leave` hands the freed slot to
    the waiter whose deadline expires soonest, and :meth:`drain_pending`
    turns every waiter away at shutdown so each can still be answered
    (503) instead of silently dropped.
    """

    def __init__(self, maxsize: int, slots: int) -> None:
        if maxsize < 1:
            raise ValidationError("DeadlineQueue needs maxsize >= 1")
        if slots < 1:
            raise ValidationError("DeadlineQueue needs slots >= 1")
        self._maxsize = maxsize
        self._free = slots
        self._heap: List[Tuple[float, int, "asyncio.Future[bool]"]] = []
        self._seq = 0

    def __len__(self) -> int:
        """Waiters still in line (a cancelled one until :meth:`leave`
        skips it)."""
        return len(self._heap)

    def enter(self, deadline: float) -> "Optional[asyncio.Future[bool]]":
        """A future that completes ``True`` once a slot is granted;
        ``None`` means the waiting line is full and the caller must shed.

        A caller whose await is cancelled after the grant still holds the
        slot and must :meth:`leave`.
        """
        ticket = asyncio.get_running_loop().create_future()
        if self._free:
            self._free -= 1
            ticket.set_result(True)
            return ticket
        if len(self._heap) >= self._maxsize:
            return None
        heapq.heappush(self._heap, (deadline, self._seq, ticket))
        self._seq += 1
        return ticket

    def leave(self) -> None:
        """Give a slot back: the earliest-deadline live waiter takes it."""
        while self._heap:
            _, _, ticket = heapq.heappop(self._heap)
            if not ticket.done():
                ticket.set_result(True)
                return
        self._free += 1

    def drain_pending(self) -> None:
        """Complete every waiter ``False`` (shutdown path)."""
        for _, _, ticket in self._heap:
            if not ticket.done():
                ticket.set_result(False)
        self._heap.clear()
