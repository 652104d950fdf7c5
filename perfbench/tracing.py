"""Out-of-tree span recording for traced benchmark runs.

A :class:`Tracer` wraps the callables that mark each layer's boundary
(at the module attribute a caller looks them up from, or on the class for
methods) and keeps one span per call in memory:
``(name, start_ns, end_ns, busy_ns, span_id, parent_id, request_id, data)``.

- ``parent_id`` is the enclosing traced call in the same thread or asyncio
  task, carried in a :class:`contextvars.ContextVar`.
- ``request_id`` groups the spans of one planning request.  A *root* span
  (the gateway dispatch, a simulator run) opens a request; spans called
  under it inherit the id.  Where a request hops to a planning thread the
  id is re-attached through the request's device object, which the wire
  decoder creates fresh for every request.
- ``busy_ns`` equals the wall duration for synchronous calls.  For the
  HTTP reader, a coroutine that mostly waits on the socket, it counts only
  the time the coroutine actually ran.
- ``data`` carries per-call facts (cache hit, skip, optimize counts, ...)
  so ratios are measured where the work happens.

Spans are written out once, at the end (:meth:`Tracer.dump`).  Clocks are
``time.perf_counter_ns``: ``CLOCK_MONOTONIC`` on Linux, so spans recorded
in the gateway subprocess line up with the client's timed window.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "current_request_id", "load_spans"]

#: (enclosing span id, request id) of the running thread or task.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(0, 0)
)

Span = Tuple[str, int, int, int, int, int, int, Optional[Tuple]]


def current_request_id() -> int:
    """The request id of the running thread or task (0 outside a request)."""
    return _CURRENT.get()[1]


class _BusyTimed:
    """Await a coroutine while summing the time it runs between suspensions."""

    __slots__ = ("coro", "busy_ns")

    def __init__(self, coro) -> None:
        self.coro = coro
        self.busy_ns = 0

    def __await__(self):
        coro = self.coro
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            started = perf_counter_ns()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                self.busy_ns += perf_counter_ns() - started
                return stop.value
            except BaseException:
                self.busy_ns += perf_counter_ns() - started
                raise
            self.busy_ns += perf_counter_ns() - started
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # re-thrown into the coroutine
                value, error = None, exc


class Tracer:
    """Records spans around wrapped layer callables; see the module docs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._installed: List[Tuple[Any, str, Any]] = []
        # id(device object) -> request id, for the hop onto planning threads.
        self._requests: Dict[int, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Request correlation
    # ------------------------------------------------------------------
    def bind(self, key: object, request_id: int) -> None:
        with self._lock:
            self._requests[id(key)] = request_id

    def unbind(self, key: object) -> None:
        with self._lock:
            self._requests.pop(id(key), None)

    def request_of(self, key: object) -> int:
        with self._lock:
            return self._requests.get(id(key), 0)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def sync(
        self,
        fn: Callable,
        name: str,
        root: bool = False,
        data: Optional[Callable[[tuple, Any], Tuple]] = None,
        request_key: Optional[Callable[[tuple], object]] = None,
    ) -> Callable:
        """Wrap a plain callable.

        ``root`` opens a new request id; ``request_key`` names an object
        whose bound request id applies when none is inherited; ``data``
        maps ``(args, result)`` of a call that returned to the span's data
        tuple.
        """
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, request_id = _CURRENT.get()
            span_id = next(ids)
            if root:
                request_id = span_id
            elif request_id == 0 and request_key is not None:
                request_id = self.request_of(request_key(args))
            token = _CURRENT.set((span_id, request_id))
            started = perf_counter_ns()
            facts = None
            try:
                result = fn(*args, **kwargs)
                if data is not None:
                    facts = data(args, result)
                return result
            finally:
                ended = perf_counter_ns()
                _CURRENT.reset(token)
                spans.append(
                    (name, started, ended, ended - started, span_id, parent,
                     request_id, facts)
                )

        return wrapper

    def coroutine(self, fn: Callable, name: str, root: bool = False,
                  busy: bool = False) -> Callable:
        """Wrap a coroutine function; ``busy`` records run time only."""
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent, request_id = _CURRENT.get()
            span_id = next(ids)
            if root:
                request_id = span_id
            token = _CURRENT.set((span_id, request_id))
            timed = _BusyTimed(fn(*args, **kwargs)) if busy else None
            started = perf_counter_ns()
            try:
                if timed is not None:
                    return await timed
                return await fn(*args, **kwargs)
            finally:
                ended = perf_counter_ns()
                _CURRENT.reset(token)
                spans.append(
                    (
                        name,
                        started,
                        ended,
                        timed.busy_ns if timed is not None else ended - started,
                        span_id,
                        parent,
                        request_id,
                        None,
                    )
                )

        return wrapper

    def within_request(self, fn: Callable,
                       request_key: Callable[[tuple], object]) -> Callable:
        """Run a coroutine function under the request bound to its key.

        Records no span: it only re-attaches the request id where work
        moves from the connection task to a queue worker task.
        """

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            key = request_key(args)
            token = _CURRENT.set((0, self.request_of(key)))
            try:
                return await fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                self.unbind(key)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def patch(self, target: Any, attribute: str, wrapper: Callable) -> None:
        """Replace ``target.attribute``; :meth:`uninstall` restores it."""
        self._installed.append((target, attribute, vars(target)[attribute]))
        setattr(target, attribute, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            target, attribute, original = self._installed.pop()
            setattr(target, attribute, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path: str) -> List[Span]:
    """Spans written by :meth:`Tracer.dump` (data tuples come back as lists)."""
    with open(path, encoding="utf-8") as handle:
        return [
            tuple(span[:7]) + (tuple(span[7]) if span[7] is not None else None,)
            for span in json.load(handle)
        ]
