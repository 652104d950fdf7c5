"""The multi-process gateway cluster: one supervisor, N forked workers.

A single :class:`~repro.serve.gateway.PlanningGateway` tops out at one
event loop and one GIL-bound planner pool.  The cluster scales the same
serving contract across processes: a parent :class:`ClusterSupervisor`
forks ``N`` worker processes, each running its *own* gateway — private
:class:`~repro.planner.batch.BatchPlanner`, private thread pool, private
:class:`~repro.planner.cache.PlanCache` — all accepting from one shared
``(host, port)``.

Socket sharing uses ``SO_REUSEPORT`` (a cluster refuses to start on a
platform without it): the parent binds an *anchor* socket (bound, never
listening — it reserves the port and surfaces bind conflicts early
without joining the kernel's reuseport lookup group), and every worker
binds its own listening socket to the same address, letting the kernel
spread accepted connections across them.

Each worker additionally listens on a private ephemeral port running the
same dispatch.  The supervisor scrapes per-worker ``/metrics`` there,
and shard-affinity-aware clients (``repro loadgen --shard-affinity``)
route hinted requests straight to the owning worker's private port —
the shared port remains the hint-less, kernel-balanced path.

Control is a pipe per worker, not shared memory: the parent fans out
``drain`` / ``reload_body`` / ``reload_path`` messages; workers answer
``ready`` / ``reloaded`` / ``reload_error`` / ``drained``.  A worker
that dies is restarted with exponential backoff (``worker_restarts`` in
the merged metrics); a drain stops restarts, lets every worker answer
its in-flight work, and merges the final per-worker metrics documents —
counters summed, histograms merged bucket-exactly via
:func:`repro.runtime.metrics.merge_histogram_dicts`.

Nothing here is a module-level singleton: every worker builds its full
serving state explicitly from the pickled-by-fork configuration, so two
clusters in one test process never share a cache or a planner.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import socket
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import (
    GatewayError,
    GatewayProtocolError,
    ReproError,
)
from repro.runtime.metrics import (
    Histogram,
    merge_histogram_dicts,
    metrics_document,
)
from repro.serve.gateway import (
    GatewayConfig,
    PlanningGateway,
    bind_reuseport,
    serve_connection,
    wait_for_drain,
)
from repro.serve.health import open_majority
from repro.serve.http11 import read_response, render_request
from repro.serve.metrics import LATENCY_BUCKETS_MS, SATISFACTION_BUCKETS
from repro.serve.protocol import decode_reload_scenario, error_payload
from repro.serve.sharding import ShardRouter
from repro.workloads.io import load_scenario
from repro.workloads.scenario import Scenario

__all__ = ["ClusterConfig", "ClusterSupervisor"]

#: Per-scrape timeout when the supervisor fetches a worker's /metrics.
_SCRAPE_TIMEOUT_S = 2.0
#: First restart delay after a worker death; doubles per consecutive
#: death up to ``_RESTART_BACKOFF_MAX_S``, and resets when a replacement
#: reports ready.
_RESTART_BACKOFF_S = 0.1
#: Cap on the doubling restart delay of a crash-looping worker.
_RESTART_BACKOFF_MAX_S = 2.0
#: Per-worker bound on a reload acknowledgement: a worker that has not
#: answered by then is reported with status ``timeout`` instead of
#: stalling the whole fan-out (e.g. a SIGSTOP'd process).
RELOAD_TIMEOUT_S = 30.0
#: Extra wait past the workers' own ``drain_grace_s`` before the
#: supervisor terminates (then kills) stragglers at drain.
DRAIN_MARGIN_S = 5.0
#: How long :meth:`ClusterSupervisor.start` waits for every worker's
#: ``ready`` message before declaring the boot failed.
_READY_TIMEOUT_S = 15.0


@dataclass(frozen=True)
class ClusterConfig:
    """Supervisor-level knobs (per-worker knobs live in GatewayConfig)."""

    #: Worker processes to fork.  The CLI routes ``--workers 1`` around
    #: the supervisor entirely; the class itself accepts any count >= 1.
    workers: int = 2
    #: Where the parent's admin/metrics server binds (0 = ephemeral).
    admin_host: str = "127.0.0.1"
    admin_port: int = 8078


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------
def _worker_main(
    config: GatewayConfig,
    scenario: Scenario,
    scenario_path: Optional[str],
    conn: Any,
) -> None:
    """Child-process entry: run one gateway until drained.

    Forked from inside the parent's running event loop, so the first job
    is shedding the asyncio signal plumbing copied from the parent: its
    wakeup fd would otherwise receive this child's signals, and the
    parent's handlers are meaningless here.
    """
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, signal.SIG_DFL)
    try:
        asyncio.run(_worker_async(config, scenario, scenario_path, conn))
    except (KeyboardInterrupt, BrokenPipeError):  # pragma: no cover
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


async def _worker_async(
    config: GatewayConfig,
    scenario: Scenario,
    scenario_path: Optional[str],
    conn: Any,
) -> None:
    gateway = PlanningGateway(scenario, config)
    loop = asyncio.get_running_loop()

    # Local breaker transitions flow up to the supervisor, which fans
    # them out to the sibling workers — every worker converges on one
    # cluster-wide quarantine view regardless of which one saw the
    # failing outcomes.
    def on_health_transition(record: Any) -> None:
        _send_safe(
            conn,
            (
                "health",
                {
                    "service": record.service_id,
                    "state": record.new,
                    "reason": record.reason,
                },
            ),
        )

    gateway.on_health_transition = on_health_transition

    def on_control() -> None:
        try:
            message, payload = conn.recv()
        except (EOFError, OSError):
            # Parent is gone; nothing to serve for.
            try:
                loop.remove_reader(conn.fileno())
            except (OSError, ValueError):
                pass
            gateway.request_drain()
            return
        if message == "drain":
            gateway.request_drain()
        elif message == "reload_body":
            loop.create_task(_child_reload_body(gateway, conn, payload))
        elif message == "reload_path":
            loop.create_task(_child_reload_path(gateway, conn, scenario_path))
        elif message == "health_apply" and isinstance(payload, Mapping):
            gateway.apply_remote_health(
                str(payload.get("service", "")),
                str(payload.get("state", "")),
                reason=str(payload.get("reason", "cluster")),
            )

    def on_ready(gw: PlanningGateway) -> None:
        loop.add_reader(conn.fileno(), on_control)
        _send_safe(
            conn,
            (
                "ready",
                {
                    "worker_id": gw.worker_id,
                    "pid": os.getpid(),
                    "port": gw.port,
                    "private_port": gw.private_port,
                    "generation": gw.generation,
                },
            ),
        )

    final = await gateway.run(install_signals=True, on_ready=on_ready)
    try:
        loop.remove_reader(conn.fileno())
    except (OSError, ValueError):
        pass
    _send_safe(conn, ("drained", final))


async def _child_reload_body(
    gateway: PlanningGateway, conn: Any, body: bytes
) -> None:
    try:
        summary = await gateway.reload_from_body(body)
    except ReproError as exc:
        _send_safe(conn, ("reload_error", str(exc)))
        return
    _send_safe(conn, ("reloaded", summary))


async def _child_reload_path(
    gateway: PlanningGateway, conn: Any, scenario_path: Optional[str]
) -> None:
    if scenario_path is None:
        _send_safe(conn, ("reload_error", "no scenario file to reload from"))
        return
    loop = asyncio.get_running_loop()
    try:
        scenario = await loop.run_in_executor(None, load_scenario, scenario_path)
    except (OSError, ReproError) as exc:
        _send_safe(conn, ("reload_error", str(exc)))
        return
    _send_safe(conn, ("reloaded", gateway.swap_scenario(scenario)))


def _send_safe(conn: Any, message: Tuple[str, Any]) -> None:
    """Send on a control pipe whose peer may have died; losing it is fine."""
    try:
        conn.send(message)
    except (OSError, ValueError, BrokenPipeError):
        pass


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker slot (survives restarts)."""

    worker_id: int
    process: Any = None
    conn: Any = None
    ready: "asyncio.Event" = field(default_factory=asyncio.Event)
    pid: Optional[int] = None
    port: Optional[int] = None
    private_port: Optional[int] = None
    generation: int = 0
    restarts: int = 0
    backoff_s: float = 0.0
    alive: bool = False
    final_metrics: Optional[Dict[str, Any]] = None
    pending_reload: Optional["asyncio.Future"] = None


class ClusterSupervisor:
    """Forks, feeds, restarts, and drains a cluster of gateway workers."""

    def __init__(
        self,
        scenario: Scenario,
        gateway_config: Optional[GatewayConfig] = None,
        cluster_config: Optional[ClusterConfig] = None,
        scenario_path: Optional[str] = None,
    ) -> None:
        self._scenario = scenario
        self._gateway_config = (
            gateway_config if gateway_config is not None else GatewayConfig()
        )
        self._cluster = (
            cluster_config if cluster_config is not None else ClusterConfig()
        )
        if self._cluster.workers < 1:
            raise GatewayError(
                f"cluster needs at least one worker, got {self._cluster.workers}"
            )
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - all POSIX platforms fork
            raise GatewayError(
                "cluster mode requires the 'fork' process start method"
            ) from None
        if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
            raise GatewayError("cluster mode requires SO_REUSEPORT")
        self._scenario_path = scenario_path
        self._router = ShardRouter.for_cluster(self._cluster.workers)
        self._handles: Dict[int, _WorkerHandle] = {
            worker_id: _WorkerHandle(worker_id=worker_id)
            for worker_id in range(self._cluster.workers)
        }
        self._anchor: Optional[socket.socket] = None
        self._admin_server: Optional[asyncio.AbstractServer] = None
        #: Writers of admin connections parked between requests.
        self._admin_idle: Set[asyncio.StreamWriter] = set()
        self._admin_port_bound: Optional[int] = None
        self._port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_at: Optional[float] = None
        self._draining = False
        self._drain_requested: Optional[asyncio.Event] = None
        self._worker_restarts = 0
        self._reload_lock: Optional[asyncio.Lock] = None
        #: Reload fan-outs currently awaiting worker acknowledgements;
        #: /readyz answers 503 while this is non-zero.
        self._reload_inflight = 0
        #: Latest breaker verdict per service, as reported by workers —
        #: the merged view GET /health serves without scraping.
        self._health_view: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._port is None:
            raise GatewayError("cluster not started")
        return self._port

    @property
    def admin_port(self) -> int:
        if self._admin_port_bound is None:
            raise GatewayError("cluster not started")
        return self._admin_port_bound

    @property
    def workers(self) -> int:
        return self._cluster.workers

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def worker_restarts(self) -> int:
        return self._worker_restarts

    def generations(self) -> Dict[int, int]:
        """The serving generation each worker last reported."""
        return {
            handle.worker_id: handle.generation
            for handle in self._handles.values()
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Reserve the shared port, fork every worker, bind the admin server."""
        if self._loop is not None:
            raise GatewayError("cluster already started")
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._started_at = loop.time()
        self._drain_requested = asyncio.Event()
        self._reload_lock = asyncio.Lock()
        # Bound but never listening: reserves the port without joining
        # the kernel's reuseport group, so no connection is ever routed to
        # the never-accepting parent.
        self._anchor = bind_reuseport(
            self._gateway_config.host, self._gateway_config.port
        )
        self._port = self._anchor.getsockname()[1]
        try:
            for worker_id in range(self._cluster.workers):
                self._spawn_worker(worker_id)
            self._admin_server = await asyncio.start_server(
                self._on_admin_connection,
                host=self._cluster.admin_host,
                port=self._cluster.admin_port,
            )
            self._admin_port_bound = (
                self._admin_server.sockets[0].getsockname()[1]
            )
            await self._await_ready()
        except BaseException:
            await self._abort()
            raise

    def request_drain(self) -> None:
        """Ask :meth:`run` to drain; safe to call from a signal handler."""
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def run(
        self,
        install_signals: bool = True,
        on_ready: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Serve until a drain is requested; returns the merged final metrics.

        Mirrors :meth:`PlanningGateway.run`: SIGTERM/SIGINT request a
        drain, SIGHUP (when serving from a scenario file) fans a
        ``reload_path`` out to every worker.
        """
        await self.start()
        if on_ready is not None:
            on_ready(self)
        await wait_for_drain(
            self._drain_requested,
            self.request_drain,
            self._broadcast_reload_path if self._scenario_path is not None else None,
            install_signals,
        )
        return await self.drain()

    async def drain(self) -> Dict[str, Any]:
        """Fan out drain, wait for every worker to exit, merge final metrics.

        No restart fires once draining starts.  Workers that outlive the
        grace window (their own ``drain_grace_s`` plus
        :data:`DRAIN_MARGIN_S`) are terminated, and workers that survive
        even SIGTERM (stopped or wedged processes) are killed — a hung
        worker bounds, never blocks, the parent's exit.  Every worker
        that completed its drain contributes its final metrics document
        to the merge.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        for handle in self._handles.values():
            if handle.alive and handle.conn is not None:
                _send_safe(handle.conn, ("drain", None))
        deadline = (
            loop.time()
            + self._gateway_config.drain_grace_s
            + DRAIN_MARGIN_S
        )
        while self._alive_count() and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for handle in self._handles.values():
            if handle.alive and handle.process is not None:
                handle.process.terminate()
        deadline = loop.time() + 2.0
        while self._alive_count() and loop.time() < deadline:
            await asyncio.sleep(0.02)
        # SIGTERM never reaches a SIGSTOP'd process's handlers; SIGKILL
        # does.  Anything still alive here is beyond graceful shutdown.
        for handle in self._handles.values():
            if handle.alive and handle.process is not None:
                handle.process.kill()
        deadline = loop.time() + 2.0
        while self._alive_count() and loop.time() < deadline:
            await asyncio.sleep(0.02)
        final = self._merge_documents(
            [
                handle.final_metrics
                for handle in self._handles.values()
                if handle.final_metrics is not None
            ]
        )
        await self._close_admin()
        self._close_anchor()
        return final

    async def _abort(self) -> None:
        """Tear down a partially started cluster (boot failure path)."""
        self._draining = True
        for handle in self._handles.values():
            if handle.process is not None and handle.process.is_alive():
                handle.process.terminate()
        for handle in self._handles.values():
            if handle.process is not None:
                handle.process.join(timeout=2.0)
                self._detach_worker(handle)
                handle.alive = False
        await self._close_admin()
        self._close_anchor()

    async def _close_admin(self) -> None:
        if self._admin_server is not None:
            self._admin_server.close()
            # From Python 3.12 on wait_closed() also waits for every open
            # connection: close the idle ones, busy ones close after
            # answering (the supervisor is draining).
            for writer in list(self._admin_idle):
                writer.close()
            await self._admin_server.wait_closed()
            self._admin_server = None

    def _close_anchor(self) -> None:
        if self._anchor is not None:
            self._anchor.close()
            self._anchor = None

    def _alive_count(self) -> int:
        return sum(1 for handle in self._handles.values() if handle.alive)

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------
    def _spawn_worker(self, worker_id: int) -> None:
        handle = self._handles[worker_id]
        parent_conn, child_conn = self._ctx.Pipe()
        config = replace(
            self._gateway_config,
            port=self._port,
            worker_id=worker_id,
            cluster_size=self._cluster.workers,
        )
        process = self._ctx.Process(
            target=_worker_main,
            args=(config, self._scenario, self._scenario_path, child_conn),
            name=f"repro-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.ready = asyncio.Event()
        handle.pid = process.pid
        handle.alive = True
        loop = asyncio.get_running_loop()
        loop.add_reader(
            parent_conn.fileno(), self._on_worker_message, worker_id
        )
        loop.add_reader(process.sentinel, self._on_worker_exit, worker_id)

    async def _await_ready(self) -> None:
        waits = [
            handle.ready.wait() for handle in self._handles.values()
        ]
        try:
            await asyncio.wait_for(
                asyncio.gather(*waits), timeout=_READY_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            missing = sorted(
                handle.worker_id
                for handle in self._handles.values()
                if not handle.ready.is_set()
            )
            raise GatewayError(
                f"workers {missing} failed to report ready within "
                f"{_READY_TIMEOUT_S:g}s"
            ) from None

    def _on_worker_message(self, worker_id: int) -> None:
        handle = self._handles[worker_id]
        try:
            message, payload = handle.conn.recv()
        except (EOFError, OSError):
            self._remove_reader(handle.conn.fileno())
            return
        self._apply_worker_message(handle, message, payload)

    def _apply_worker_message(
        self, handle: _WorkerHandle, message: str, payload: Any
    ) -> None:
        if message == "ready":
            handle.pid = payload.get("pid", handle.pid)
            handle.port = payload.get("port")
            handle.private_port = payload.get("private_port")
            handle.generation = payload.get("generation", handle.generation)
            handle.backoff_s = 0.0
            handle.ready.set()
            # A restarted worker boots with empty breakers; replay the
            # cluster view so it converges without re-learning failures.
            for service_id, entry in self._health_view.items():
                _send_safe(
                    handle.conn,
                    (
                        "health_apply",
                        {
                            "service": service_id,
                            "state": entry["state"],
                            "reason": "replay",
                        },
                    ),
                )
        elif message == "health":
            self._on_worker_health(handle, payload)
        elif message == "reloaded":
            if isinstance(payload, Mapping):
                handle.generation = payload.get(
                    "generation", handle.generation
                )
            self._resolve_reload(handle, ("ok", payload))
        elif message == "reload_error":
            self._resolve_reload(handle, ("error", payload))
        elif message == "drained":
            handle.final_metrics = payload

    def _on_worker_health(self, handle: _WorkerHandle, payload: Any) -> None:
        """One worker's breaker transition: record it, fan it out.

        The reporting worker already applied the transition locally; the
        supervisor updates its merged view and relays to every *other*
        live worker.  Receivers apply it with their callback suppressed,
        so a relay can never echo back — no broadcast loops.
        """
        if not isinstance(payload, Mapping):
            return
        service = payload.get("service")
        state = payload.get("state")
        if not isinstance(service, str) or not service:
            return
        if not isinstance(state, str) or not state:
            return
        self._health_view[service] = {
            "state": state,
            "worker_id": handle.worker_id,
            "reason": str(payload.get("reason", "")),
        }
        for other in self._handles.values():
            if (
                other.worker_id != handle.worker_id
                and other.alive
                and other.conn is not None
            ):
                _send_safe(other.conn, ("health_apply", dict(payload)))

    def health_document(self) -> Dict[str, Any]:
        """The parent ``GET /health``: latest verdict per service."""
        open_services = sorted(
            service
            for service, entry in self._health_view.items()
            if entry["state"] == "open"
        )
        return {
            "status": "ok",
            "workers": self._cluster.workers,
            "tracked": len(self._health_view),
            "open": open_services,
            "services": {
                service: dict(entry)
                for service, entry in sorted(self._health_view.items())
            },
        }

    @staticmethod
    def _resolve_reload(handle: _WorkerHandle, result: Tuple[str, Any]) -> None:
        future = handle.pending_reload
        if future is not None and not future.done():
            future.set_result(result)

    def _on_worker_exit(self, worker_id: int) -> None:
        handle = self._handles[worker_id]
        process = handle.process
        self._remove_reader(process.sentinel)
        if handle.conn is None:
            # Already detached — an abort or drain tore the worker down
            # before the sentinel callback got its turn on the loop.
            handle.alive = False
            return
        # The final messages (typically "drained") may still sit in the
        # pipe when the sentinel fires; drain them before detaching.
        try:
            while handle.conn.poll():
                message, payload = handle.conn.recv()
                self._apply_worker_message(handle, message, payload)
        except (EOFError, OSError):
            pass
        self._detach_worker(handle)
        process.join()
        handle.alive = False
        handle.ready = asyncio.Event()
        self._resolve_reload(handle, ("error", "worker exited during reload"))
        if self._draining:
            return
        # Any exit outside a drain — crash or not — is unexpected;
        # restart with backoff so a crash loop cannot spin the CPU.
        self._worker_restarts += 1
        handle.restarts += 1
        delay = handle.backoff_s
        handle.backoff_s = min(
            max(handle.backoff_s * 2.0, _RESTART_BACKOFF_S),
            _RESTART_BACKOFF_MAX_S,
        )
        asyncio.get_running_loop().create_task(
            self._restart_worker(worker_id, delay)
        )

    def _detach_worker(self, handle: _WorkerHandle) -> None:
        if handle.conn is not None:
            self._remove_reader(handle.conn.fileno())
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None

    async def _restart_worker(self, worker_id: int, delay: float) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        if self._draining:
            return
        self._spawn_worker(worker_id)

    def _remove_reader(self, fd: int) -> None:
        if self._loop is None:
            return
        try:
            self._loop.remove_reader(fd)
        except (OSError, ValueError):
            pass

    # ------------------------------------------------------------------
    # Admin server
    # ------------------------------------------------------------------
    def _on_admin_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Awaitable[None]:
        return serve_connection(
            reader,
            writer,
            self._dispatch_admin,
            {},
            lambda _counter: None,
            self._admin_idle,
            lambda: self._draining,
        )

    async def _dispatch_admin(
        self, request: Any
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        route = (request.method, request.path)
        if route == ("GET", "/metrics"):
            return 200, await self.merged_metrics(), {}
        if route == ("GET", "/cluster"):
            return 200, self.cluster_document(), {}
        if route == ("GET", "/health"):
            return 200, self.health_document(), {}
        if route == ("GET", "/healthz"):
            return 200, {"status": "alive", "alive": self._alive_count()}, {}
        if route == ("GET", "/readyz"):
            if self._draining:
                return 503, error_payload("draining"), {}
            if self._reload_inflight:
                return 503, error_payload("reloading", "reload fan-out in flight"), {}
            if not all(
                handle.ready.is_set() for handle in self._handles.values()
            ):
                return 503, error_payload("starting"), {}
            detail = open_majority(
                entry["state"] for entry in self._health_view.values()
            )
            if detail is not None:
                return 503, error_payload("degraded", detail), {}
            return 200, {"status": "ready", "workers": self._cluster.workers}, {}
        if route == ("POST", "/admin/reload"):
            return await self._handle_reload(request.body)
        if request.path in ("/metrics", "/cluster", "/health", "/healthz",
                            "/readyz", "/admin/reload"):
            return 405, error_payload("invalid", "method not allowed"), {}
        return 404, error_payload("invalid", f"no route {request.path!r}"), {}

    async def _handle_reload(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        if self._draining:
            return 503, error_payload("draining"), {}
        # Validate before broadcasting so a malformed body is one 400 and
        # zero worker round-trips.  This runs inline: the parent must stay
        # thread-free (forked restarts would inherit executor threads),
        # and admin reloads are rare enough to absorb the decode cost.
        try:
            decode_reload_scenario(body)
        except ReproError as exc:
            return 400, error_payload("invalid", str(exc)), {}
        results = await self._broadcast_reload(("reload_body", bytes(body)))
        workers = [
            {"worker_id": worker_id, "status": status, "detail": detail}
            for worker_id, (status, detail) in sorted(results.items())
        ]
        failed = [entry for entry in workers if entry["status"] != "ok"]
        summary: Dict[str, Any] = {
            "status": "reloaded" if not failed else "partial",
            "workers": workers,
            "generations": {
                str(worker_id): generation
                for worker_id, generation in sorted(self.generations().items())
            },
        }
        return (200 if not failed else 500), summary, {}

    async def _broadcast_reload_path(self) -> None:
        await self._broadcast_reload(("reload_path", None))

    async def _broadcast_reload(
        self, message: Tuple[str, Any]
    ) -> Dict[int, Tuple[str, Any]]:
        """Send one reload to every live worker and collect the acks.

        Serialized under a lock so concurrent reloads cannot interleave
        their acknowledgement futures; a worker that dies mid-reload
        resolves its future via :meth:`_on_worker_exit`.  Each worker's
        acknowledgement is bounded by :data:`RELOAD_TIMEOUT_S` — a hung
        worker (stopped, livelocked) is reported as ``timeout`` instead
        of stalling the parent indefinitely.  ``/readyz`` answers 503
        for the whole fan-out window.
        """
        loop = asyncio.get_running_loop()
        self._reload_inflight += 1
        try:
            async with self._reload_lock:
                futures: Dict[int, "asyncio.Future"] = {}
                for handle in self._handles.values():
                    if not handle.alive or handle.conn is None:
                        continue
                    future = loop.create_future()
                    handle.pending_reload = future
                    futures[handle.worker_id] = future
                    try:
                        handle.conn.send(message)
                    except (OSError, ValueError):
                        self._resolve_reload(
                            handle, ("error", "worker unreachable")
                        )
                if futures:
                    # One wait bounds every worker: the sends all went
                    # out before it started, so the shared window is a
                    # per-worker acknowledgement budget.
                    await asyncio.wait(
                        futures.values(),
                        timeout=RELOAD_TIMEOUT_S,
                    )
                results: Dict[int, Tuple[str, Any]] = {}
                for worker_id, future in futures.items():
                    if future.done():
                        results[worker_id] = future.result()
                    else:
                        future.cancel()
                        results[worker_id] = (
                            "timeout",
                            f"no acknowledgement within "
                            f"{RELOAD_TIMEOUT_S:g}s",
                        )
                    self._handles[worker_id].pending_reload = None
                return results
        finally:
            self._reload_inflight -= 1

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    async def _scrape_worker(
        self, handle: _WorkerHandle
    ) -> Optional[Dict[str, Any]]:
        """Fetch one worker's /metrics over its private port; None if down."""
        if handle.private_port is None:
            return None
        try:
            return await asyncio.wait_for(
                self._fetch_metrics(handle.private_port),
                timeout=_SCRAPE_TIMEOUT_S,
            )
        except (
            OSError,
            asyncio.TimeoutError,
            GatewayProtocolError,
            json.JSONDecodeError,
            UnicodeDecodeError,
        ):
            return None

    async def _fetch_metrics(self, port: int) -> Optional[Dict[str, Any]]:
        reader, writer = await asyncio.open_connection(
            self._gateway_config.host, port
        )
        try:
            writer.write(render_request("GET", "/metrics", keep_alive=False))
            await writer.drain()
            response = await read_response(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
        if response.status != 200:
            return None
        document = json.loads(response.body.decode("utf-8"))
        return document if isinstance(document, dict) else None

    async def merged_metrics(self) -> Dict[str, Any]:
        """The cluster-wide /metrics document: live scrapes merged.

        A worker that cannot be scraped (restarting, mid-crash)
        contributes its last drained document if it sent one, otherwise
        nothing; ``scraped`` in the payload says how many workers the
        merge actually covers, so a partial view is never silent.
        """
        scrapes = await asyncio.gather(
            *(
                self._scrape_worker(handle)
                for handle in self._handles.values()
                if handle.alive
            )
        )
        documents = [doc for doc in scrapes if doc is not None]
        documents.extend(
            handle.final_metrics
            for handle in self._handles.values()
            if not handle.alive and handle.final_metrics is not None
        )
        return self._merge_documents(documents)

    def _merge_documents(
        self, documents: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        payloads = [
            document["metrics"]
            for document in documents
            if isinstance(document, Mapping)
            and isinstance(document.get("metrics"), Mapping)
        ]
        counters: Dict[str, int] = {}
        cache: Dict[str, int] = {}
        queue_depth = 0
        inflight = 0
        for payload in payloads:
            for name, value in (payload.get("counters") or {}).items():
                if isinstance(value, int):
                    counters[name] = counters.get(name, 0) + value
            for name, value in (payload.get("cache") or {}).items():
                if isinstance(value, int):
                    cache[name] = cache.get(name, 0) + value
            queue_depth += payload.get("queue_depth", 0) or 0
            inflight += payload.get("inflight", 0) or 0
        histograms: Dict[str, Dict[str, Any]] = {}
        for name, bounds in (
            ("latency_ms", LATENCY_BUCKETS_MS),
            ("queue_wait_ms", LATENCY_BUCKETS_MS),
            ("satisfaction", SATISFACTION_BUCKETS),
        ):
            exported = [
                payload[name]
                for payload in payloads
                if isinstance(payload.get(name), Mapping)
            ]
            histograms[name] = (
                merge_histogram_dicts(exported)
                if exported
                else Histogram(bounds).to_dict()
            )
        generations = {
            str(payload["worker_id"]): payload.get("generation", 0)
            for payload in payloads
            if "worker_id" in payload
        }
        uptime_s = (
            self._loop.time() - self._started_at
            if self._loop is not None and self._started_at is not None
            else 0.0
        )
        merged: Dict[str, Any] = {
            "workers": self._cluster.workers,
            "alive": self._alive_count(),
            "scraped": len(payloads),
            "worker_restarts": self._worker_restarts,
            "counters": counters,
            "cache": cache,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "generations": generations,
            "draining": self._draining,
            "uptime_s": round(uptime_s, 3),
        }
        merged.update(histograms)
        return metrics_document("cluster", merged)

    def cluster_document(self) -> Dict[str, Any]:
        """The /cluster topology document affinity-aware clients consume."""
        return {
            "status": "draining" if self._draining else "serving",
            "host": self._gateway_config.host,
            "port": self.port,
            "admin_port": self.admin_port,
            "ring": self._router.to_dict(),
            "workers": [
                {
                    "worker_id": handle.worker_id,
                    "pid": handle.pid,
                    "alive": handle.alive,
                    "ready": handle.ready.is_set(),
                    "port": handle.port,
                    "private_port": handle.private_port,
                    "generation": handle.generation,
                    "restarts": handle.restarts,
                }
                for handle in sorted(
                    self._handles.values(), key=lambda h: h.worker_id
                )
            ],
        }

