"""The asyncio planning gateway.

One :class:`PlanningGateway` is the always-on intermediary the paper
assumes (Sections 4.2–4.4): clients POST plan requests, the gateway
admits them through a per-client rate limiter and the planning slots of
a :class:`~repro.serve.admission.DeadlineQueue` (granted earliest
deadline first; a full waiting line sheds), and plans each one on the
connection task that read it: the probe of the shared
:class:`~repro.planner.batch.BatchPlanner` (policy pass + plan cache)
runs on the event loop and only selector runs (shared optimize memo) go
to a thread pool.  Every outcome — served, shed, expired, timed out — is
metered and answered.  Nothing in the admission or planning path lets
an exception escape unhandled: failure is a response, not a crash.

Lifecycle: :meth:`run` starts the listener, installs SIGTERM/SIGINT
drain handlers (and SIGHUP reload when serving from a scenario file),
and blocks until a drain completes.  Draining stops accepting, answers
everything planning or waiting for a slot, flushes the final metrics
document, and returns it.

Hot swap: :meth:`swap_scenario` atomically replaces the serving world
(scenario + planner) under a bumped generation counter and clears the
plan cache; requests already planning finish against the old world, new
arrivals only ever see the new one.
"""

from __future__ import annotations

import asyncio
import contextvars
import signal
import socket
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Mapping, Optional, Set, Tuple

from repro.errors import (
    GatewayError,
    GatewayProtocolError,
    PolicyDeniedError,
    ReproError,
)
from repro.core.graph import CatalogView
from repro.group import GroupPlanner, GroupRequest
from repro.planner.batch import BatchPlanner, PlanRequest
from repro.planner.cache import PlanCache
from repro.policy.document import PolicyDocument
from repro.policy.engine import PolicyEngine
from repro.policy.serialization import policy_to_dict
from repro.serve.admission import DeadlineQueue, RateLimiter
from repro.serve.health import (
    BreakerState,
    HealthConfig,
    HealthRegistry,
    TransitionRecord,
    open_majority,
)
from repro.serve.http11 import HttpRequest, read_request, render_response
from repro.serve.metrics import GatewayMetrics
from repro.serve.protocol import (
    GroupPlanEnvelope,
    decode_group_plan_request,
    decode_outcome_report,
    decode_plan_request,
    decode_reload_scenario,
    degraded_response_payload,
    encode_payload,
    error_payload,
    group_response_payload,
    plan_response_payload,
    policy_skip_payload,
)
from repro.serve.sharding import (
    SHARD_HINT_HEADER,
    WORKER_ID_HEADER,
    ShardRouter,
)
from repro.workloads.io import load_scenario
from repro.workloads.scenario import Scenario

__all__ = ["GatewayConfig", "PlanningGateway"]

#: What every request handler returns: ``(status, payload, headers)``.
_Answer = Tuple[int, Dict[str, Any], Dict[str, str]]

#: Upper bound a request's ``deadline_ms`` may ask for.
_MAX_DEADLINE_MS = 10_000.0
#: ``Retry-After`` seconds suggested on queue and planner-pool sheds.
_SHED_RETRY_AFTER_S = 0.5


@dataclass(frozen=True)
class GatewayConfig:
    """Every serving knob in one place (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests); :attr:`PlanningGateway.port`
    #: reports the bound one.
    port: int = 8077
    #: Requests that may wait for a planning slot; arrivals past it are shed.
    queue_depth: int = 256
    #: Planning slots (requests planning at once) == planning threads in
    #: the pool.  A planning call that overruns its deadline is answered
    #: 504 and gives its slot back, but its thread cannot be cancelled and
    #: keeps running; while such abandoned work saturates the pool, new
    #: submissions are shed (429, ``shed_busy``) rather than queued
    #: invisibly inside the executor.
    workers: int = 4
    #: Deadline applied when a request does not carry ``deadline_ms``.
    default_deadline_ms: float = 250.0
    #: Per-client token bucket refill rate; 0 disables rate limiting.
    rate_per_s: float = 0.0
    #: Per-client burst capacity.
    burst: float = 50.0
    #: Plan-cache capacity shared across all workers.
    cache_size: int = 4096
    #: Grace period for in-flight work at drain.
    drain_grace_s: float = 5.0
    #: Test/bench knob: pad each successfully planned request to at least
    #: this service time, making saturation reproducible on any machine.
    service_floor_ms: float = 0.0
    #: This gateway's identity inside a worker cluster.  When set, the
    #: public listener binds with ``SO_REUSEPORT`` so sibling workers
    #: share the port, a second listener on an ephemeral per-worker
    #: private port runs the same dispatch (the cluster supervisor
    #: scrapes ``/metrics`` there and affinity-aware clients route hinted
    #: requests to it, bypassing the kernel's shared-port balancing),
    #: every response carries an ``x-worker-id`` header and hinted
    #: requests are metered as shard hits/misses.  ``None`` means
    #: standalone.
    worker_id: Optional[int] = None
    #: Total workers in the cluster this gateway belongs to (sizes the
    #: shard ring used for hit/miss accounting); 1 means standalone.
    cluster_size: int = 1
    #: When set, enables the per-service failure detector and circuit
    #: breakers (:mod:`repro.serve.health`): ``POST /report`` feeds
    #: outcomes, OPEN services are masked from planning through a
    #: quarantine view, and infeasibility caused by quarantine (or a
    #: nearly spent deadline) answers a degraded passthrough instead of
    #: an error.  ``None`` keeps the classic fail-open behavior.
    health: Optional[HealthConfig] = None
    #: With health enabled: if the remaining deadline budget once a
    #: planning slot is granted is at or below this, answer degraded immediately rather than
    #: gamble on a planning run that would likely 504.
    degraded_budget_ms: float = 25.0


@dataclass
class _GatewayState:
    """The swap unit: one serving world under one generation number."""

    scenario: Scenario
    planner: BatchPlanner
    #: Group planner over ``planner``; its tree cache dies with the state.
    group: GroupPlanner
    generation: int


@dataclass
class _QueuedRequest:
    """One admitted request holding a planning slot."""

    envelope: Any


def _new_state(
    scenario: Scenario,
    cache: PlanCache,
    generation: int,
    policy_engine: Optional[PolicyEngine] = None,
) -> _GatewayState:
    planner = BatchPlanner.for_scenario(
        scenario, cache=cache, policy_engine=policy_engine
    )
    return _GatewayState(
        scenario=scenario,
        planner=planner,
        group=GroupPlanner(planner),
        generation=generation,
    )


def bind_reuseport(host: str, port: int) -> socket.socket:
    """A bound, not yet listening, ``SO_REUSEPORT`` socket.

    Cluster workers listen on one each to share ``(host, port)``; the
    supervisor holds one that never listens to reserve the port.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    dispatch: Callable[[HttpRequest], Awaitable[_Answer]],
    extra_headers: Mapping[str, str],
    bump: Callable[[str], None],
    idle: Set[asyncio.StreamWriter],
    draining: Callable[[], bool],
) -> None:
    """Serve one HTTP/1.1 keep-alive connection until either side ends it.

    The one connection loop of the gateway listeners and the cluster
    admin listener.  ``dispatch`` answers a request with ``(status,
    payload, headers)``; ``extra_headers`` ride on every response;
    ``bump`` meters ``connections``, ``protocol_errors`` and ``errors``.
    While the loop waits for the next request its writer sits in
    ``idle``, so an owner that stops serving can close idle keep-alive
    connections without cutting an answer in flight.  Once
    ``draining()`` holds, every response closes its connection.
    """
    bump("connections")
    try:
        while True:
            idle.add(writer)
            try:
                request = await read_request(reader)
            except GatewayProtocolError as exc:
                bump("protocol_errors")
                code = "too_large" if exc.status == 413 else "invalid"
                writer.write(
                    render_response(
                        exc.status,
                        encode_payload(error_payload(code, str(exc))),
                        headers=extra_headers,
                        keep_alive=False,
                    )
                )
                await writer.drain()
                break
            if request is None:
                break
            idle.discard(writer)
            try:
                status, payload, headers = await dispatch(request)
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:
                # Dispatch must never kill the connection task: anything
                # the typed 400/422 paths missed is metered and answered
                # 500 so the client always gets a response.
                bump("errors")
                status = 500
                payload = error_payload("error", f"{type(exc).__name__}: {exc}")
                headers = {}
            keep_alive = request.keep_alive and not draining() and status != 500
            if extra_headers:
                headers = {**headers, **extra_headers}
            writer.write(
                render_response(
                    status,
                    encode_payload(payload),
                    headers=headers,
                    keep_alive=keep_alive,
                )
            )
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        idle.discard(writer)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


async def wait_for_drain(
    drain_requested: asyncio.Event,
    request_drain: Callable[[], None],
    reload: Optional[Callable[[], Awaitable[None]]],
    install_signals: bool,
) -> None:
    """Wait until a drain is requested, with the serving signals wired.

    The one signal wiring of the gateway and the cluster supervisor:
    SIGTERM/SIGINT call ``request_drain``; SIGHUP runs ``reload`` as a
    task when one is given (serving from a scenario file).  The handlers
    are removed once the wait ends.
    """
    loop = asyncio.get_running_loop()
    handlers: Dict[int, Callable[[], Any]] = {}
    if install_signals:
        handlers = {signal.SIGTERM: request_drain, signal.SIGINT: request_drain}
        if reload is not None:
            handlers[signal.SIGHUP] = lambda: loop.create_task(reload())
    for signum, handler in handlers.items():
        loop.add_signal_handler(signum, handler)
    try:
        await drain_requested.wait()
    finally:
        for signum in handlers:
            loop.remove_signal_handler(signum)


class PlanningGateway:
    """The serving daemon; see the module docstring for the architecture."""

    def __init__(
        self,
        scenario: Scenario,
        config: Optional[GatewayConfig] = None,
        scenario_path: Optional[str] = None,
    ) -> None:
        self._config = config if config is not None else GatewayConfig()
        if self._config.cluster_size < 1:
            raise GatewayError(
                f"cluster_size must be >= 1, got {self._config.cluster_size}"
            )
        self._cache = PlanCache(max_entries=self._config.cache_size)
        # One policy engine for the gateway's lifetime: its generation
        # counter stays monotonic across scenario swaps and policy-only
        # reloads, and its decision cache is the fast-path namespace
        # (cleared on policy swaps, untouched by selector-cache events).
        self._policy = PolicyEngine(
            scenario.policy, cache_size=self._config.cache_size
        )
        self._state = _new_state(
            scenario, self._cache, generation=1, policy_engine=self._policy
        )
        self._scenario_path = scenario_path
        self._queue = DeadlineQueue(
            self._config.queue_depth, self._config.workers
        )
        self._limiter = RateLimiter(self._config.rate_per_s, self._config.burst)
        self._metrics = GatewayMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=self._config.workers, thread_name_prefix="planner"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._private_server: Optional[asyncio.AbstractServer] = None
        self._private_port_bound: Optional[int] = None
        self._router = (
            ShardRouter.for_cluster(self._config.cluster_size)
            if self._config.cluster_size > 1
            else None
        )
        self._connections: Set[asyncio.Task] = set()
        #: Connection tasks planning on a granted slot (the ``inflight``
        #: count); a drain whose grace runs out cancels them, and each
        #: answers 503.
        self._planning: Set[asyncio.Task] = set()
        #: Writers of connections parked between requests.
        self._idle_writers: Set[asyncio.StreamWriter] = set()
        #: Every response a cluster worker writes carries ``x-worker-id``
        #: so clients can attribute requests to the process that served
        #: them; a standalone gateway adds nothing.
        self._identity_headers: Dict[str, str] = (
            {WORKER_ID_HEADER: str(self._config.worker_id)}
            if self._config.worker_id is not None
            else {}
        )
        self._draining = False
        self._port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_at: Optional[float] = None
        self._drain_requested: Optional[asyncio.Event] = None
        # Planning threads abandoned by a deadline timeout keep running
        # (a thread cannot be cancelled); this counts every job submitted
        # but not yet finished so _plan_one can refuse to queue behind
        # abandoned work.  Incremented on the event loop, decremented by
        # the job's done-callback (on the planning thread, or on the loop
        # for a job cancelled before it ran) — hence the lock.
        self._executor_lock = threading.Lock()
        self._executor_outstanding = 0
        # Service health: breakers feed the quarantine view, whose masked
        # ids are part of every plan fingerprint; a quarantine change
        # clears the plan cache only to reclaim the old set's entries.
        self._health: Optional[HealthRegistry] = (
            HealthRegistry(
                self._config.health, on_transition=self._on_breaker_transition
            )
            if self._config.health is not None
            else None
        )
        self._active_quarantine: frozenset = frozenset()
        #: Cluster hook: a worker process forwards local breaker
        #: transitions to its supervisor through this callable.
        self.on_health_transition: Optional[Any] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> GatewayConfig:
        return self._config

    @property
    def port(self) -> int:
        if self._port is None:
            raise GatewayError("gateway not started")
        return self._port

    @property
    def private_port(self) -> Optional[int]:
        """The bound per-worker private port (``None`` when standalone)."""
        return self._private_port_bound

    @property
    def worker_id(self) -> Optional[int]:
        return self._config.worker_id

    @property
    def generation(self) -> int:
        return self._state.generation

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def metrics(self) -> GatewayMetrics:
        return self._metrics

    def metrics_document(self) -> Dict[str, Any]:
        """The current ``/metrics`` payload (repo-wide envelope).

        Uses the loop :meth:`start` ran on (``loop.time()`` is just the
        monotonic clock, valid even after the loop closes), so inspecting
        a gateway after ``asyncio.run`` returns neither warns nor mixes
        clocks from different loops.
        """
        stats = self._cache.stats
        return self._metrics.snapshot(
            generation=self._state.generation,
            uptime_s=(
                self._loop.time() - self._started_at
                if self._loop is not None and self._started_at is not None
                else 0.0
            ),
            queue_depth=len(self._queue),
            inflight=len(self._planning),
            draining=self._draining,
            cache={
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations,
                "entries": stats.entries,
            },
            worker_id=self._config.worker_id,
        )

    # ------------------------------------------------------------------
    # Service health
    # ------------------------------------------------------------------
    @property
    def health(self) -> Optional[HealthRegistry]:
        return self._health

    def _health_now(self) -> float:
        return self._loop.time() if self._loop is not None else 0.0

    def _on_breaker_transition(self, record: TransitionRecord) -> None:
        if record.new == BreakerState.OPEN.value:
            self._metrics.bump("breaker_opens")
        elif record.new == BreakerState.CLOSED.value:
            self._metrics.bump("breaker_closes")
        if self.on_health_transition is not None:
            self.on_health_transition(record)

    def apply_remote_health(
        self, service_id: str, state: str, reason: str = "remote"
    ) -> None:
        """Converge this worker's breaker on a cluster peer's verdict."""
        if self._health is None or not service_id:
            return
        try:
            self._health.apply_remote(
                service_id, state, self._health_now(), reason=reason
            )
        except ReproError:
            # An unknown state string from a peer is dropped, not fatal.
            pass

    def health_document(self) -> Dict[str, Any]:
        """The ``GET /health`` payload: per-service breaker states."""
        if self._health is None:
            return {"status": "disabled", "enabled": False}
        document: Dict[str, Any] = {"status": "ok", "enabled": True}
        document.update(self._health.snapshot(self._health_now()))
        return document

    def _quarantine_view(self) -> Optional[CatalogView]:
        """The view that masks OPEN services (``None`` when none are).

        Tracks the quarantine set.  The view's masked ids are part of the
        plan fingerprint, so a plan computed before a breaker tripped is
        never served after it; the flush on each change only reclaims the
        old set's entries.  Policy still applies under quarantine: a zero-hop skip needs
        no services, and a forced tier masks whatever the view leaves.
        """
        quarantined = self._health.quarantined(self._health_now())
        if quarantined != self._active_quarantine:
            self._active_quarantine = quarantined
            self._cache.clear()
            self._metrics.bump("quarantine_rebuilds")
        return CatalogView(excluded=quarantined) if quarantined else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener(s).

        A cluster worker (``config.worker_id`` set) binds its own
        ``SO_REUSEPORT`` socket to the shared ``(host, port)``, letting
        the kernel spread accepts across sibling workers, and brings up a
        second listener on an ephemeral port running the same dispatch —
        the per-worker address used for metrics scraping and
        shard-affinity routing.
        """
        if self._server is not None:
            raise GatewayError("gateway already started")
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._started_at = loop.time()
        self._drain_requested = asyncio.Event()
        if self._config.worker_id is not None:
            self._server = await asyncio.start_server(
                self._on_connection,
                sock=bind_reuseport(self._config.host, self._config.port),
            )
            self._private_server = await asyncio.start_server(
                self._on_connection, host=self._config.host, port=0
            )
            self._private_port_bound = (
                self._private_server.sockets[0].getsockname()[1]
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection,
                host=self._config.host,
                port=self._config.port,
            )
        self._port = self._server.sockets[0].getsockname()[1]

    def request_drain(self) -> None:
        """Ask :meth:`run` to drain; safe to call from a signal handler."""
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def run(
        self,
        install_signals: bool = True,
        on_ready: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Serve until a drain is requested; returns the final metrics.

        ``on_ready`` (a callable taking this gateway) fires once the
        listener is bound — the CLI uses it to announce the port.
        """
        await self.start()
        if on_ready is not None:
            on_ready(self)
        await wait_for_drain(
            self._drain_requested,
            self.request_drain,
            self._reload_from_path if self._scenario_path is not None else None,
            install_signals,
        )
        return await self.drain()

    async def drain(self) -> Dict[str, Any]:
        """Stop accepting, finish in-flight work, answer the rest, flush.

        Requests still waiting for a planning slot or still planning when
        ``drain_grace_s`` ends are answered 503 rather than dropped: the
        waiters are turned away, and the connection tasks that plan are
        cancelled and answer.  The returned document is the flushed final
        metrics snapshot.
        """
        self._draining = True
        servers = [
            server
            for server in (self._server, self._private_server)
            if server is not None
        ]
        for server in servers:
            server.close()
        loop = asyncio.get_running_loop()
        grace_ends = loop.time() + self._config.drain_grace_s
        while (len(self._queue) or self._planning) and loop.time() < grace_ends:
            await asyncio.sleep(0.01)
        self._queue.drain_pending()
        for task in self._planning:
            task.cancel()
        # Give connection handlers a moment to write those answers, then
        # close idle keep-alive connections and sever whatever is still
        # open.
        deadline = loop.time() + 1.0
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._idle_writers):
            writer.close()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        # From Python 3.12 on this also waits for every open connection,
        # so it must come after they are closed.
        for server in servers:
            await server.wait_closed()
        self._executor.shutdown(wait=False)
        return self.metrics_document()

    # ------------------------------------------------------------------
    # Hot catalog / scenario swap
    # ------------------------------------------------------------------
    def swap_scenario(self, scenario: Scenario) -> Dict[str, Any]:
        """Atomically install a new serving world.

        The state reference flips in one assignment on the event loop, so
        a request observes either the old world or the new one, never a
        mix.  The generation counter bumps and the plan cache is cleared.
        The clear is load-bearing: a fingerprint covers the catalog,
        topology and placement content but neither the format registry nor
        the parameter set, so a swap that changes only those would
        otherwise serve the old world's plans.
        """
        self._state = _new_state(
            scenario,
            self._cache,
            generation=self._state.generation + 1,
            policy_engine=self._policy,
        )
        invalidated = self._cache.clear()
        # The active policy follows the active scenario: a full swap
        # installs the new scenario's policy (possibly none), replacing
        # any earlier policy-only hot swap.
        self._policy.swap(scenario.policy)
        self._metrics.bump("reloads")
        return {
            "status": "reloaded",
            "scenario": scenario.name,
            "generation": self._state.generation,
            "invalidated": invalidated,
            "policy": (
                scenario.policy.name if scenario.policy is not None else None
            ),
            "policy_generation": self._policy.generation,
        }

    async def _reload_from_path(self) -> None:
        """SIGHUP handler: re-read the scenario file the daemon came from."""
        loop = asyncio.get_running_loop()
        try:
            scenario = await loop.run_in_executor(
                None, load_scenario, self._scenario_path
            )
        except (OSError, ReproError):
            self._metrics.bump("errors")
            return
        self.swap_scenario(scenario)

    async def reload_from_body(self, body: bytes) -> Dict[str, Any]:
        """Decode one ``/admin/reload`` body and hot-swap to it.

        The decode/build runs off-loop (scenario construction can be
        expensive); the swap itself is the same atomic flip as
        :meth:`swap_scenario`.  Raises
        :class:`~repro.errors.ValidationError` on malformed bodies — the
        HTTP endpoint maps that to a 400, the cluster worker's control
        pipe meters it as an error.
        """
        loop = asyncio.get_running_loop()
        decoded = await loop.run_in_executor(
            None, decode_reload_scenario, body
        )
        if isinstance(decoded, PolicyDocument):
            return self.swap_policy(decoded)
        return self.swap_scenario(decoded)

    def swap_policy(self, document: Optional[PolicyDocument]) -> Dict[str, Any]:
        """Hot-swap only the policy document.

        Bumps the policy generation and clears only the fast-path
        decision cache; the selector's plan cache (and its hit streaks)
        survive untouched, and the scenario generation does not move.
        """
        invalidated = self._policy.swap(document)
        self._metrics.bump("reloads")
        return {
            "status": "reloaded",
            "policy": document.name if document is not None else None,
            "generation": self._state.generation,
            "policy_generation": self._policy.generation,
            "invalidated": invalidated,
        }

    def policy_document(self) -> Dict[str, Any]:
        """The ``GET /policy`` payload: active document plus engine stats."""
        payload: Dict[str, Any] = {"status": "ok"}
        payload.update(self._policy.stats())
        document = self._policy.document
        payload["document"] = (
            policy_to_dict(document) if document is not None else None
        )
        return payload

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            serve_connection(
                reader,
                writer,
                self._dispatch,
                self._identity_headers,
                self._metrics.bump,
                self._idle_writers,
                lambda: self._draining,
            )
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _dispatch(self, request: HttpRequest) -> _Answer:
        route = (request.method, request.path)
        if route == ("POST", "/plan"):
            return await self._admit_plan(request, decode_plan_request)
        if route == ("POST", "/plan-group"):
            return await self._admit_plan(request, decode_group_plan_request)
        if route == ("POST", "/admin/reload"):
            return await self._handle_reload(request)
        if route == ("POST", "/report"):
            return self._handle_report(request)
        if route == ("GET", "/health"):
            return 200, self.health_document(), {}
        if route == ("GET", "/healthz"):
            return 200, {"status": "alive", "generation": self.generation}, {}
        if route == ("GET", "/readyz"):
            if self._draining:
                return 503, error_payload("draining"), {}
            if self._health is not None:
                detail = open_majority(
                    self._health.states(self._health_now()).values()
                )
                if detail is not None:
                    return 503, error_payload("degraded", detail), {}
            return 200, {"status": "ready", "generation": self.generation}, {}
        if route == ("GET", "/metrics"):
            return 200, self.metrics_document(), {}
        if route == ("GET", "/policy"):
            return 200, self.policy_document(), {}
        if request.path in ("/plan", "/plan-group", "/admin/reload",
                            "/healthz", "/readyz", "/metrics", "/report",
                            "/health", "/policy"):
            return 405, error_payload("invalid", "method not allowed"), {}
        return 404, error_payload("invalid", f"no route {request.path!r}"), {}

    def _handle_report(self, request: HttpRequest) -> _Answer:
        """``POST /report``: feed per-service session outcomes to breakers."""
        if self._health is None:
            return 200, {"status": "disabled", "accepted": 0}, {}
        try:
            _client, samples = decode_outcome_report(request.body)
        except ReproError as exc:
            self._metrics.bump("invalid")
            return 400, error_payload("invalid", str(exc)), {}
        now = self._health_now()
        catalog = self._state.scenario.catalog
        accepted = 0
        ignored = 0
        for service_id, success in samples:
            # Unknown services (stale clients, old catalog generations)
            # are counted but never grow the breaker table unboundedly.
            if service_id in catalog:
                self._health.report(service_id, success, now)
                accepted += 1
            else:
                ignored += 1
        if accepted:
            self._metrics.bump("reports", accepted)
        return (
            200,
            {
                "status": "ok",
                "accepted": accepted,
                "ignored": ignored,
                "open": sorted(self._health.quarantined(now)),
            },
            {},
        )

    async def _handle_reload(self, request: HttpRequest) -> _Answer:
        if self._draining:
            return 503, error_payload("draining"), {}
        try:
            summary = await self.reload_from_body(request.body)
        except ReproError as exc:
            self._metrics.bump("invalid")
            return 400, error_payload("invalid", str(exc)), {}
        return 200, summary, {}

    async def _admit_plan(self, request: HttpRequest, decode: Any) -> _Answer:
        """Admit one ``/plan`` or ``/plan-group`` request, plan it, answer.

        Both kinds share the limiter, the planning slots and their sheds;
        only ``decode`` differs here, and :meth:`_plan_one` plans both on
        this task, the one that read the request.  A drain turns away a
        request still waiting for its slot and cancels one still
        planning; either way it is answered 503.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        if self._draining:
            self._metrics.bump("rejected_draining")
            return 503, error_payload("draining"), {}
        try:
            envelope = decode(
                request.body,
                self._state.scenario.registry,
                _MAX_DEADLINE_MS,
            )
        except ReproError as exc:
            self._metrics.bump("invalid")
            return 400, error_payload("invalid", str(exc)), {}
        self._metrics.bump("received")
        hint = request.headers.get(SHARD_HINT_HEADER)
        if hint and self._router is not None and self._config.worker_id is not None:
            if self._router.route(hint) == self._config.worker_id:
                self._metrics.bump("shard_hits")
            else:
                self._metrics.bump("shard_misses")

        admitted, retry_after = self._limiter.check(envelope.client, now)
        if not admitted:
            self._metrics.bump("shed_rate")
            return (
                429,
                error_payload("rate_limited", f"client {envelope.client!r}"),
                {"retry-after": f"{retry_after:.3f}"},
            )

        deadline_ms = (
            envelope.deadline_ms
            if envelope.deadline_ms is not None
            else self._config.default_deadline_ms
        )
        deadline = now + deadline_ms / 1000.0
        ticket = self._queue.enter(deadline)
        if ticket is None:
            self._metrics.bump("shed_queue")
            return (
                429,
                error_payload("shed", "deadline queue full"),
                {"retry-after": f"{_SHED_RETRY_AFTER_S:.3f}"},
            )
        task = asyncio.current_task()
        try:
            if not await ticket:
                self._metrics.bump("rejected_draining")
                answer: _Answer = (
                    503,
                    error_payload("draining", "gateway drained before planning"),
                    {},
                )
            else:
                self._planning.add(task)
                answer = await self._plan_granted(loop, envelope, now, deadline)
        except asyncio.CancelledError:
            if not self._draining:
                raise
            # Drain cut this request's planning short: answer it.  The
            # cancel is spent, so take it back where Python counts them
            # (3.11 on).
            uncancel = getattr(task, "uncancel", None)
            if uncancel is not None:
                uncancel()
            answer = (
                503, error_payload("draining", "gateway drained while planning"), {}
            )
        finally:
            self._planning.discard(task)
            # A ticket cancelled while waiting was never granted; one
            # granted (even if this task was cancelled before it resumed)
            # holds a slot until here.
            if not ticket.cancelled() and ticket.result():
                self._queue.leave()
        self._metrics.latency_ms.observe((loop.time() - now) * 1000.0)
        return answer

    async def _plan_granted(
        self,
        loop: asyncio.AbstractEventLoop,
        envelope: Any,
        arrived: float,
        deadline: float,
    ) -> _Answer:
        """Plan a request that holds its slot.

        An expired deadline answers 504 and a typed planning failure 422;
        anything else reaches :func:`serve_connection`, which answers 500.
        """
        granted = loop.time()
        queue_ms = (granted - arrived) * 1000.0
        self._metrics.queue_wait_ms.observe(queue_ms)
        if granted >= deadline:
            self._metrics.bump("expired")
            return (
                504,
                error_payload(
                    "timeout",
                    "deadline expired while queued",
                    queue_ms=round(queue_ms, 3),
                ),
                {},
            )
        try:
            return await self._plan_one(
                loop, _QueuedRequest(envelope), deadline, queue_ms
            )
        except ReproError as exc:
            self._metrics.bump("unplannable")
            return 422, error_payload("unplannable", str(exc)), {}

    def _claim_planning_thread(self) -> bool:
        """Count one more planning job, unless every thread is taken.

        Every planning thread busy — when a request holds a slot to
        submit with — means threads abandoned past their deadline
        (``asyncio.wait_for`` cannot cancel a running thread).  Submitting would queue behind
        work nobody is waiting for and burn the request's deadline
        invisibly; the caller sheds explicitly instead, so the executor
        queue never grows.
        """
        with self._executor_lock:
            if self._executor_outstanding >= self._config.workers:
                return False
            self._executor_outstanding += 1
            return True

    def _run_planning(self, selector: Callable[[], Tuple]) -> Future:
        """Submit ``selector`` to a planning thread; pairs the increment
        in :meth:`_claim_planning_thread`.

        The thread runs in a copy of the caller's context (as
        :func:`asyncio.to_thread` does), so context variables follow the
        work.  The decrement is a done-callback on the job's future, not
        on the awaiting side: a deadline timeout abandons the await
        while a running thread keeps going, so the job is outstanding
        until the thread ends; a job cancelled before a thread took it
        never runs, and its future still completes and releases it.
        """
        future = self._executor.submit(contextvars.copy_context().run, selector)
        future.add_done_callback(self._release_planning_thread)
        return future

    def _release_planning_thread(self, _job: Future) -> None:
        with self._executor_lock:
            self._executor_outstanding -= 1

    def _planning_kind(self, state: _GatewayState, envelope: Any) -> Tuple:
        """What differs between planning a ``/plan`` and a ``/plan-group``.

        Returns ``(probe, request, per_session, answer)``: the step that
        runs on the event loop (``probe(request, view)`` returns the
        planned result, or the selector work left as one callable for a
        planning thread; a group probe always defers the whole tree), the
        request it plans (envelope fields over the scenario's defaults),
        whether the answer is per-session, and the hook that shapes a
        planned result.  Only per-session answers degrade (under health,
        an overrun or a plan broken by quarantine becomes a zero-hop
        passthrough) or carry a ``403`` policy verdict.
        A passthrough means nothing for a class set, so a group overrun is
        an honest 504 and any group planner failure, a deny included, a
        typed 422; classes the masked catalog cannot serve surface as
        per-class fallbacks inside a 200.
        """
        scenario = state.scenario
        common = dict(
            content=envelope.content or scenario.content,
            user=envelope.user or scenario.user,
            sender_node=envelope.sender or scenario.sender_node,
            receiver_node=envelope.receiver or scenario.receiver_node,
            context=(
                envelope.context
                if envelope.context is not None
                else scenario.context
            ),
        )
        if isinstance(envelope, GroupPlanEnvelope):
            request = GroupRequest(receivers=envelope.receivers, **common)

            def defer_group(request, view):
                return lambda: state.group.plan_with_cache_info(request, view)

            return defer_group, request, False, self._answer_group
        request = PlanRequest(device=envelope.device or scenario.device, **common)
        return state.planner.probe, request, True, self._answer_plan

    def _degraded(
        self,
        state: _GatewayState,
        reason: str,
        queue_ms: float,
        plan_ms: float = 0.0,
    ) -> _Answer:
        """A zero-hop passthrough instead of a 5xx (health mode)."""
        self._metrics.bump("degraded")
        payload = degraded_response_payload(
            reason=reason,
            generation=state.generation,
            queue_ms=queue_ms,
            plan_ms=plan_ms,
            quarantined=sorted(self._active_quarantine),
        )
        return 200, payload, {}

    async def _plan_one(
        self,
        loop: asyncio.AbstractEventLoop,
        item: _QueuedRequest,
        deadline: float,
        queue_ms: float,
    ) -> _Answer:
        """Plan one admitted request of either kind.

        The probe runs on the event loop, so a policy skip, a deny or a
        plan-cache hit is answered without a thread hop.  Only the
        selector work it leaves goes to a planning thread: the
        executor-saturation shed and the deadline overrun (504, or
        degraded under health) apply to selector runs alone.  The
        degraded-budget check, the quarantine view and the service-floor
        padding apply to every answer; :meth:`_planning_kind` supplies
        the rest.
        """
        state = self._state
        health_on = self._health is not None
        probe, request, per_session, answer = self._planning_kind(
            state, item.envelope
        )
        if (
            health_on
            and per_session
            and (deadline - loop.time()) * 1000.0
            <= self._config.degraded_budget_ms
        ):
            # The budget is nearly spent: a planning run would most
            # likely 504.  Ship the source variant unadapted instead.
            return self._degraded(state, "deadline budget nearly spent", queue_ms)
        view = self._quarantine_view() if health_on else None
        started = loop.time()
        try:
            result = probe(request, view)
            if callable(result):
                if not self._claim_planning_thread():
                    self._metrics.bump("shed_busy")
                    return (
                        429,
                        error_payload(
                            "shed", "planner pool saturated by overrunning work"
                        ),
                        {"retry-after": f"{_SHED_RETRY_AFTER_S:.3f}"},
                    )
                result = await asyncio.wait_for(
                    asyncio.wrap_future(self._run_planning(result)),
                    timeout=deadline - loop.time(),
                )
        except asyncio.TimeoutError:
            self._metrics.bump("timeouts")
            if health_on and per_session:
                return self._degraded(
                    state,
                    "planning overran the deadline",
                    queue_ms,
                    plan_ms=(loop.time() - started) * 1000.0,
                )
            return (
                504, error_payload("timeout", "planning overran the deadline"), {}
            )
        except PolicyDeniedError as exc:
            # A deny is an explicit policy verdict, never degraded over:
            # this arm must sit before the generic ReproError handler.
            if not per_session:
                raise
            self._metrics.bump("policy_denied")
            return 403, error_payload("denied", str(exc), rule=exc.rule_id), {}
        except ReproError:
            if per_session and view is not None:
                # The masked catalog is what broke planning; that is a
                # quality event, not a client error.
                return self._degraded(
                    state,
                    "quarantine left no plannable catalog",
                    queue_ms,
                    plan_ms=(loop.time() - started) * 1000.0,
                )
            raise
        plan_ms = (loop.time() - started) * 1000.0
        floor_s = self._config.service_floor_ms / 1000.0
        if floor_s > 0:
            pad = floor_s - (loop.time() - started)
            if pad > 0:
                await asyncio.sleep(pad)
        return answer(state, result, view, queue_ms, plan_ms)

    def _answer_plan(
        self,
        state: _GatewayState,
        result: Tuple,
        view: Optional[CatalogView],
        queue_ms: float,
        plan_ms: float,
    ) -> _Answer:
        """Shape a ``/plan`` result: policy skip, degraded, or planned."""
        plan, cache_hit, decision = result
        if decision is not None and decision.kind == "skip":
            # Zero-hop fast path: the selector never ran.  Metered apart
            # from "planned" (like degraded answers) so the counter split
            # mirrors the path split.
            self._metrics.bump("policy_fast_path")
            self._metrics.satisfaction.observe(plan.result.satisfaction)
            payload = policy_skip_payload(
                plan,
                cache_hit=cache_hit,
                generation=state.generation,
                policy_generation=self._policy.generation,
                queue_ms=queue_ms,
                plan_ms=plan_ms,
            )
            return 200, payload, {}
        if not plan.success and view is not None:
            # Feasible at full quality before the breaker trip, not
            # under quarantine: degrade rather than answer infeasible.
            return self._degraded(
                state,
                "no feasible full-quality path outside quarantine",
                queue_ms,
                plan_ms=plan_ms,
            )
        self._metrics.bump("planned")
        if plan.success:
            self._metrics.satisfaction.observe(plan.result.satisfaction)
        else:
            self._metrics.bump("infeasible")
        payload = plan_response_payload(
            plan,
            cache_hit=cache_hit,
            generation=state.generation,
            queue_ms=queue_ms,
            plan_ms=plan_ms,
        )
        if decision is not None and decision.kind == "force_tier":
            self._metrics.bump("policy_tier_forced")
            payload["policy_rule"] = decision.rule_id
            payload["forced_tier"] = decision.tier
        return 200, payload, {}

    def _answer_group(
        self,
        state: _GatewayState,
        result: Tuple,
        view: Optional[CatalogView],
        queue_ms: float,
        plan_ms: float,
    ) -> _Answer:
        """Shape a ``/plan-group`` result: one shared tree, never degraded."""
        plan, cache_hit = result
        self._metrics.bump("groups")
        self._metrics.bump("group_sessions", plan.total_sessions)
        self._metrics.bump("group_branches", len(plan.tree.branches))
        self._metrics.bump("group_fallbacks", plan.fallback_count)
        self._metrics.bump(
            "group_saved_bps", int(round(plan.tree.saved_bandwidth_bps()))
        )
        for branch in plan.tree.branches:
            self._metrics.satisfaction.observe(branch.satisfaction)
        payload = group_response_payload(
            plan,
            cache_hit=cache_hit,
            generation=state.generation,
            queue_ms=queue_ms,
            plan_ms=plan_ms,
        )
        return 200, payload, {}
