"""A seeded open-loop load generator for the planning gateway.

Open-loop means arrival times are fixed up front — a Poisson process from
:mod:`repro.sim.arrivals` driven by one injected ``random.Random(seed)``
— and requests fire at those instants regardless of how fast the gateway
answers, exactly the regime that exposes queueing collapse (a closed-loop
client would politely slow down and hide it).

Determinism: the request *sequence* (arrival offsets, device-class
round-robin, request bodies) is a pure function of the seed, and against
a fresh unloaded daemon the per-request outcome sequence — status,
success, selected path, satisfaction — is too.  :meth:`LoadgenReport.
outcome_digest` hashes that sequence (latencies excluded: wall-clock is
not reproducible) so two runs can be compared with one string.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import GatewayProtocolError, ValidationError
from repro.planner.workload import device_variants
from repro.profiles.device import DeviceProfile
from repro.profiles.serialization import profile_to_dict
from repro.runtime.metrics import metrics_document
from repro.serve.http11 import read_response, render_request
from repro.serve.protocol import encode_payload
from repro.serve.sharding import (
    SHARD_HINT_HEADER,
    WORKER_ID_HEADER,
    device_shard_hint,
    shard_owner,
)
from repro.sim.arrivals import PoissonArrivals
from repro.sim.report import percentile
from repro.workloads.scenario import Scenario

__all__ = ["LoadgenConfig", "RequestOutcome", "LoadgenReport", "run_loadgen"]

#: The ``client`` every request body names (the gateway's rate-limit key).
_CLIENT = "loadgen"
#: Cap on any single retry delay; a server ``Retry-After`` is honored up
#: to this cap.
RETRY_BACKOFF_MAX_S = 2.0


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation campaign."""

    host: str = "127.0.0.1"
    port: int = 8077
    requests: int = 500
    rate_per_s: float = 200.0
    seed: int = 0
    #: Distinct device classes cycled round-robin over the stream.
    distinct: int = 16
    #: Deadline carried by every request (``None`` = server default).
    deadline_ms: Optional[float] = 250.0
    #: Client-side cap on waiting for any single response.
    timeout_s: float = 10.0
    #: Route each request to the worker owning its device-class shard
    #: (cluster mode): fetch the topology from the supervisor's admin
    #: port and send hinted requests to per-worker private ports instead
    #: of the kernel-balanced shared port.
    shard_affinity: bool = False
    #: The cluster supervisor's admin port (required for affinity).
    admin_port: Optional[int] = None
    #: Opt-in retries per request on explicit backpressure (429) and
    #: client-side transport failures.  0 preserves the classic
    #: single-shot behavior.  The backoff schedule is a pure function of
    #: ``(seed, request index)``, so the outcome digest stays
    #: reproducible run to run.
    retries: int = 0
    #: Base delay of the seeded jittered exponential backoff.
    retry_backoff_s: float = 0.05
    #: When > 0, each request is a ``POST /plan-group`` batching this
    #: many consecutive device classes as one receiver-class set (one
    #: session per class); 0 keeps the classic per-session ``/plan``
    #: stream.  Must not exceed ``distinct`` (receiver devices within a
    #: group must be unique).
    group_size: int = 0
    #: When > 0, this fraction of requests carries a *compatible* device
    #: (one that decodes the content's source format natively), so a
    #: gateway policy with a ``decodes``-gated ``skip`` rule answers them
    #: on the zero-hop fast path.  Which requests are compatible is a
    #: pure function of the seed; the report then splits latency by path
    #: and reports the observed fast-path hit rate.  0 disables the mix.
    policy_mix: float = 0.0


@dataclass(frozen=True)
class RequestOutcome:
    """What one request experienced, in arrival order."""

    index: int
    #: HTTP status, or 0 when the request failed client-side.
    status: int
    #: The server's ``status`` discriminator (``ok``, ``shed``, ...) or
    #: ``client_error`` / ``client_timeout``.
    outcome: str
    success: bool
    path: Tuple[str, ...]
    satisfaction: float
    latency_ms: float
    #: The ``x-worker-id`` the answering process stamped on the response
    #: ("" standalone or on client-side failures).
    worker: str = ""
    #: Attempts this outcome took (1 = first try; > 1 means retried).
    attempts: int = 1
    #: The server's ``Retry-After`` suggestion in seconds (0 when none);
    #: plumbing for the retry loop, excluded from the digest.
    retry_after_s: float = 0.0
    #: Group mode: per-class branch satisfactions of a ``/plan-group``
    #: answer (empty for per-session requests and non-200 outcomes).
    class_satisfactions: Tuple[float, ...] = ()
    #: Group mode: shared-bandwidth savings the answered tree reported.
    saved_bps: float = 0.0

    def digest_key(self) -> Tuple:
        """The deterministic slice of this outcome (no wall-clock).

        The worker id is deliberately excluded: without affinity the
        kernel's connection balancing decides which worker answers, so
        including it would make same-seed digests diverge run to run.
        Attempt counts are excluded too: whether a retry was *needed*
        depends on server-side timing, while the final outcome of a
        seeded schedule is what two runs must agree on.
        """
        return (
            self.index,
            self.status,
            self.outcome,
            self.success,
            self.path,
            self.satisfaction,
            self.class_satisfactions,
            round(self.saved_bps, 3),
        )


@dataclass(frozen=True)
class LoadgenReport:
    """Aggregate outcome of one campaign."""

    requests: int
    rate_per_s: float
    seed: int
    elapsed_s: float
    outcomes: Tuple[RequestOutcome, ...] = field(default_factory=tuple)
    #: Receiver classes per request in group mode (0 = per-session runs).
    group_size: int = 0
    #: The campaign's compatible-device fraction (0 = no policy mix).
    policy_mix: float = 0.0

    def by_outcome(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.outcome] = counts.get(outcome.outcome, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def completed(self) -> int:
        """Requests the gateway answered 200 (feasible or not)."""
        return sum(1 for o in self.outcomes if o.status == 200)

    @property
    def shed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == 429)

    @property
    def timeouts(self) -> int:
        return sum(1 for o in self.outcomes if o.status == 504)

    @property
    def client_failures(self) -> int:
        return sum(1 for o in self.outcomes if o.status == 0)

    @property
    def failed(self) -> int:
        """Everything that is neither served nor an explicit shed/timeout."""
        return sum(
            1 for o in self.outcomes if o.status not in (200, 429, 504)
        )

    @property
    def retried(self) -> int:
        """Requests that needed more than one attempt."""
        return sum(1 for o in self.outcomes if o.attempts > 1)

    @property
    def retry_attempts(self) -> int:
        """Total extra attempts spent across the campaign."""
        return sum(o.attempts - 1 for o in self.outcomes)

    @property
    def exhausted(self) -> int:
        """Requests still failing retryably after the full retry budget.

        The retry loop only stops early on a non-retryable outcome, so a
        final 429 or client-side failure after >1 attempt means the
        budget ran dry.
        """
        return sum(
            1
            for o in self.outcomes
            if o.attempts > 1 and (o.status == 429 or o.status == 0)
        )

    @property
    def achieved_rate_per_s(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s

    def latency_percentiles(self) -> Dict[str, float]:
        served = [o.latency_ms for o in self.outcomes if o.status == 200]
        return {
            "p50": percentile(served, 50.0),
            "p95": percentile(served, 95.0),
            "p99": percentile(served, 99.0),
        }

    def class_satisfaction_percentiles(self) -> Dict[str, float]:
        """Per-class branch satisfaction spread across every served group.

        Each answered ``/plan-group`` contributes one sample per feasible
        class branch, so the distribution weights classes, not groups.
        Empty (all zeros) outside group mode.
        """
        samples = [
            satisfaction
            for o in self.outcomes
            if o.status == 200
            for satisfaction in o.class_satisfactions
        ]
        return {
            "p10": percentile(samples, 10.0),
            "p50": percentile(samples, 50.0),
            "p95": percentile(samples, 95.0),
        }

    @property
    def saved_bps_total(self) -> float:
        """Shared-bandwidth savings summed over every served group."""
        return sum(o.saved_bps for o in self.outcomes if o.status == 200)

    @property
    def policy_fast_path(self) -> int:
        """Served requests the gateway answered on the policy fast path."""
        return sum(
            1
            for o in self.outcomes
            if o.status == 200 and o.outcome == "policy_skip"
        )

    @property
    def policy_denied(self) -> int:
        """Requests a policy ``deny`` rule rejected (403)."""
        return sum(1 for o in self.outcomes if o.status == 403)

    @property
    def policy_fast_path_rate(self) -> float:
        """Fast-path answers over all served (200) requests."""
        if self.completed == 0:
            return 0.0
        return self.policy_fast_path / self.completed

    def policy_latency_split(self) -> Dict[str, Dict[str, float]]:
        """p50/p99 latency split by answering path (fast vs selector).

        Only served (200) requests contribute; the selector bucket also
        covers tier-forced answers, which do run the selector.
        """
        fast = [
            o.latency_ms
            for o in self.outcomes
            if o.status == 200 and o.outcome == "policy_skip"
        ]
        selector = [
            o.latency_ms
            for o in self.outcomes
            if o.status == 200 and o.outcome != "policy_skip"
        ]
        return {
            "fast_path": {
                "p50": percentile(fast, 50.0),
                "p99": percentile(fast, 99.0),
            },
            "selector": {
                "p50": percentile(selector, 50.0),
                "p99": percentile(selector, 99.0),
            },
        }

    def worker_distribution(self) -> Dict[str, int]:
        """How many answered requests each worker served (cluster honesty).

        Built from the ``x-worker-id`` response header, i.e. from which
        process *actually* answered — not from where the client intended
        to send the request — so an affinity run that silently fell back
        to the shared port would show up here as a spread, not a no-op.
        Empty when no response carried a worker id (standalone gateway).
        """
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.worker:
                counts[outcome.worker] = counts.get(outcome.worker, 0) + 1
        return dict(sorted(counts.items()))

    def outcome_digest(self) -> str:
        """SHA-256 over the deterministic per-request outcome sequence."""
        keys = tuple(
            o.digest_key() for o in sorted(self.outcomes, key=lambda o: o.index)
        )
        return hashlib.sha256(repr(keys).encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict:
        latency = self.latency_percentiles()
        payload = {
            "requests": self.requests,
            "rate_per_s": self.rate_per_s,
            "seed": self.seed,
            "elapsed_s": round(self.elapsed_s, 6),
            "achieved_rate_per_s": round(self.achieved_rate_per_s, 3),
            "completed": self.completed,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "client_failures": self.client_failures,
            "failed": self.failed,
            "retried": self.retried,
            "retry_attempts": self.retry_attempts,
            "exhausted": self.exhausted,
            "by_outcome": self.by_outcome(),
            "latency_ms": {k: round(v, 3) for k, v in latency.items()},
            "outcome_digest": self.outcome_digest(),
            "worker_distribution": self.worker_distribution(),
        }
        if self.group_size > 0:
            satisfaction = self.class_satisfaction_percentiles()
            payload["group"] = {
                "size": self.group_size,
                "class_satisfaction": {
                    k: round(v, 6) for k, v in satisfaction.items()
                },
                "saved_bps_total": round(self.saved_bps_total, 3),
            }
        if self.policy_mix > 0:
            split = self.policy_latency_split()
            payload["policy"] = {
                "mix": self.policy_mix,
                "fast_path": self.policy_fast_path,
                "fast_path_rate": round(self.policy_fast_path_rate, 6),
                "denied": self.policy_denied,
                "latency_ms": {
                    path: {k: round(v, 3) for k, v in buckets.items()}
                    for path, buckets in split.items()
                },
            }
        return metrics_document("loadgen", payload)

    def summary(self) -> str:
        latency = self.latency_percentiles()
        shed_rate = self.shed / self.requests if self.requests else 0.0
        timeout_rate = self.timeouts / self.requests if self.requests else 0.0
        lines = [
            f"requests:          {self.requests} at {self.rate_per_s:.0f}/s "
            f"(seed {self.seed})",
            f"elapsed:           {self.elapsed_s:.2f}s "
            f"({self.achieved_rate_per_s:.0f} served/s)",
            f"served:            {self.completed}",
            f"latency ms:        p50 {latency['p50']:.1f}  "
            f"p95 {latency['p95']:.1f}  p99 {latency['p99']:.1f}",
            f"shed:              {self.shed} ({shed_rate * 100:.1f}%)",
            f"timeouts:          {self.timeouts} ({timeout_rate * 100:.1f}%)",
            f"failed:            {self.failed} "
            f"({self.client_failures} client-side)",
            f"outcome digest:    {self.outcome_digest()}",
        ]
        if self.retried:
            lines.insert(
                -1,
                f"retried:           {self.retried} "
                f"({self.retry_attempts} extra attempts, "
                f"{self.exhausted} exhausted)",
            )
        distribution = self.worker_distribution()
        if distribution:
            spread = "  ".join(
                f"{worker}:{count}" for worker, count in distribution.items()
            )
            lines.append(f"per worker:        {spread}")
        if self.group_size > 0:
            satisfaction = self.class_satisfaction_percentiles()
            lines.append(
                f"class satisfaction: p10 {satisfaction['p10']:.3f}  "
                f"p50 {satisfaction['p50']:.3f}  "
                f"p95 {satisfaction['p95']:.3f} "
                f"({self.group_size} classes/group)"
            )
            lines.append(
                f"bandwidth saved:   {self.saved_bps_total / 1e6:.2f} Mbps "
                f"across served groups"
            )
        if self.policy_mix > 0:
            split = self.policy_latency_split()
            lines.append(
                f"policy fast path:  {self.policy_fast_path} "
                f"({self.policy_fast_path_rate * 100:.1f}% of served, "
                f"{self.policy_mix * 100:.0f}% compatible mix, "
                f"{self.policy_denied} denied)"
            )
            lines.append(
                f"latency by path:   fast p50 "
                f"{split['fast_path']['p50']:.1f} "
                f"p99 {split['fast_path']['p99']:.1f}  |  selector p50 "
                f"{split['selector']['p50']:.1f} "
                f"p99 {split['selector']['p99']:.1f}"
            )
        return "\n".join(lines)


def _request_bodies(
    scenario: Scenario, config: LoadgenConfig
) -> List[Tuple[bytes, str]]:
    """Pre-serialized (body, shard hint) pairs, deterministic in the seed.

    The hint rides along even without ``--shard-affinity``: it costs one
    header and lets cluster workers meter how traffic would have sharded
    (``shard_hits`` / ``shard_misses``).

    Group mode (``group_size > 0``) emits ``/plan-group`` bodies instead:
    request ``i`` batches ``group_size`` consecutive device classes
    (window start rotating with ``i``) as one receiver-class set, one
    session per class, hinted by the window's first device.
    """
    variants = device_variants(scenario.device, config.distinct)
    if config.group_size > 0:
        bodies: List[Tuple[bytes, str]] = []
        for i in range(config.requests):
            start = (i * config.group_size) % len(variants)
            window = [
                variants[(start + offset) % len(variants)]
                for offset in range(config.group_size)
            ]
            payload: Dict = {
                "client": _CLIENT,
                "receivers": [
                    {
                        "class_id": variant.device_id,
                        "device": profile_to_dict(variant),
                        "sessions": 1,
                    }
                    for variant in window
                ],
            }
            if config.deadline_ms is not None:
                payload["deadline_ms"] = config.deadline_ms
            bodies.append(
                (encode_payload(payload), device_shard_hint(window[0]))
            )
        return bodies
    def body_for(variant: DeviceProfile) -> Tuple[bytes, str]:
        payload = {
            "client": _CLIENT,
            "device": profile_to_dict(variant),
        }
        if config.deadline_ms is not None:
            payload["deadline_ms"] = config.deadline_ms
        return (encode_payload(payload), device_shard_hint(variant))

    variant_bodies = [body_for(variant) for variant in variants]
    if config.policy_mix <= 0:
        return [
            variant_bodies[i % len(variant_bodies)]
            for i in range(config.requests)
        ]
    # Policy mix: a seeded fraction of the stream swaps in *compatible*
    # sibling devices (same class shape, but decoding the source format
    # natively and identifying as ``<id>-compat``), so a gateway policy
    # gated on ``decodes`` answers exactly those on the fast path.
    source_format = scenario.content.format_names()[0]
    compatible_bodies = [
        body_for(
            DeviceProfile(
                device_id=f"{variant.device_id}-compat",
                decoders=[source_format]
                + [d for d in variant.decoders if d != source_format],
                max_resolution=variant.max_resolution,
                max_color_depth=variant.max_color_depth,
                max_frame_rate=variant.max_frame_rate,
                max_audio_kbps=variant.max_audio_kbps,
                cpu_mips=variant.cpu_mips,
                memory_mb=variant.memory_mb,
                vendor=variant.vendor,
                model=variant.model,
                attributes=variant.attributes,
            )
        )
        for variant in variants
    ]
    mix_rng = random.Random(f"{config.seed}:policy-mix")
    return [
        (compatible_bodies if mix_rng.random() < config.policy_mix
         else variant_bodies)[i % len(variants)]
        for i in range(config.requests)
    ]


async def _fetch_cluster_document(host: str, admin_port: int) -> Dict:
    reader, writer = await asyncio.open_connection(host, admin_port)
    try:
        writer.write(render_request("GET", "/cluster", keep_alive=False))
        await writer.drain()
        response = await read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    if response.status != 200:
        raise ValidationError(
            f"/cluster answered {response.status} on admin port {admin_port}"
        )
    try:
        document = json.loads(response.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"/cluster body is not JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ValidationError("/cluster body must be a JSON object")
    return document


def _worker_ports(document: Dict) -> Tuple[int, Dict[int, int]]:
    """The worker count and worker id → private port map of /cluster.

    The worker ids must be ints covering ``0..N-1`` exactly: they are the
    range :func:`~repro.serve.sharding.shard_owner` maps hints onto, so a
    document that breaks this would route hints to workers that do not
    own them.  A worker without a private port (mid-restart) is left out
    of the map.
    """
    entries = document.get("workers")
    if not isinstance(entries, list) or not entries:
        raise ValidationError("/cluster 'workers' must be a non-empty list")
    worker_ids: List[int] = []
    ports: Dict[int, int] = {}
    for entry in entries:
        worker_id = entry.get("worker_id") if isinstance(entry, dict) else None
        if not isinstance(worker_id, int) or isinstance(worker_id, bool):
            raise ValidationError(
                f"/cluster worker ids must be ints, got {worker_id!r}"
            )
        worker_ids.append(worker_id)
        private_port = entry.get("private_port")
        if isinstance(private_port, int):
            ports[worker_id] = private_port
    if sorted(worker_ids) != list(range(len(worker_ids))):
        raise ValidationError(
            f"/cluster worker ids must be 0..{len(worker_ids) - 1}, "
            f"got {sorted(worker_ids)}"
        )
    if not ports:
        raise ValidationError(
            "cluster reports no worker private ports; is it still starting?"
        )
    return len(worker_ids), ports


async def _resolve_affinity(
    config: LoadgenConfig,
) -> Tuple[int, Dict[int, int]]:
    """The worker count and private ports behind ``--shard-affinity``."""
    if config.admin_port is None:
        raise ValidationError(
            "shard affinity needs the cluster admin port (--admin-port)"
        )
    document = await _fetch_cluster_document(config.host, config.admin_port)
    return _worker_ports(document)


async def _fire_one(
    config: LoadgenConfig,
    index: int,
    body: bytes,
    hint: str,
    port: int,
) -> RequestOutcome:
    loop = asyncio.get_running_loop()
    started = loop.time()
    try:
        reader, writer = await asyncio.open_connection(config.host, port)
        try:
            writer.write(
                render_request(
                    "POST",
                    "/plan-group" if config.group_size > 0 else "/plan",
                    body,
                    headers={SHARD_HINT_HEADER: hint},
                    keep_alive=False,
                )
            )
            await writer.drain()
            response = await asyncio.wait_for(
                read_response(reader), timeout=config.timeout_s
            )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    except asyncio.TimeoutError:
        return RequestOutcome(
            index, 0, "client_timeout", False, (), 0.0,
            (loop.time() - started) * 1000.0,
        )
    except (ConnectionError, OSError, GatewayProtocolError) as exc:
        return RequestOutcome(
            index, 0, f"client_error:{type(exc).__name__}", False, (), 0.0,
            (loop.time() - started) * 1000.0,
        )
    latency_ms = (loop.time() - started) * 1000.0
    try:
        payload = json.loads(response.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        payload = {}
    outcome = payload.get("status", "unknown")
    success = bool(payload.get("success", False))
    path = tuple(payload.get("path", ()))
    satisfaction = float(payload.get("satisfaction", 0.0))
    # Group answers carry per-class branches instead of one path.
    class_satisfactions: Tuple[float, ...] = ()
    saved_bps = 0.0
    branches = payload.get("branches")
    if isinstance(branches, list):
        class_satisfactions = tuple(
            float(branch.get("satisfaction", 0.0))
            for branch in branches
            if isinstance(branch, dict)
        )
        bandwidth = payload.get("bandwidth")
        if isinstance(bandwidth, dict):
            try:
                saved_bps = float(bandwidth.get("saved_bps", 0.0))
            except (TypeError, ValueError):
                saved_bps = 0.0
    try:
        retry_after_s = float(response.headers.get("retry-after", 0.0))
    except (TypeError, ValueError):
        retry_after_s = 0.0
    return RequestOutcome(
        index, response.status, outcome, success, path, satisfaction,
        latency_ms, worker=response.headers.get(WORKER_ID_HEADER, ""),
        retry_after_s=max(0.0, retry_after_s),
        class_satisfactions=class_satisfactions,
        saved_bps=saved_bps,
    )


def _retry_schedule(config: LoadgenConfig, index: int) -> List[float]:
    """Jittered exponential backoff delays — a pure function of the seed.

    Each request gets its own stream keyed ``(seed, index)``; attempt
    ``k`` waits ``base * 2^k`` scaled by a jitter factor in [0.5, 1.5),
    capped at :data:`RETRY_BACKOFF_MAX_S`.
    """
    rng = random.Random(f"{config.seed}:retry:{index}")
    return [
        min(
            RETRY_BACKOFF_MAX_S,
            config.retry_backoff_s * (2.0 ** attempt) * (0.5 + rng.random()),
        )
        for attempt in range(config.retries)
    ]


def _retryable(outcome: RequestOutcome) -> bool:
    # Explicit backpressure (429) and transport failures are worth
    # retrying; 503 (draining) and 504 (deadline already spent) are not.
    return outcome.status == 429 or outcome.status == 0


async def _fire_with_retries(
    config: LoadgenConfig,
    index: int,
    body: bytes,
    hint: str,
    port: int,
) -> RequestOutcome:
    outcome = await _fire_one(config, index, body, hint, port)
    if config.retries < 1:
        return outcome
    schedule = _retry_schedule(config, index)
    attempts = 1
    for delay in schedule:
        if not _retryable(outcome):
            break
        # Honor the server's Retry-After when it is longer than the
        # scheduled backoff, up to the same cap.
        await asyncio.sleep(
            max(delay, min(outcome.retry_after_s, RETRY_BACKOFF_MAX_S))
        )
        outcome = await _fire_one(config, index, body, hint, port)
        attempts += 1
    return replace(outcome, attempts=attempts)


async def run_loadgen(
    scenario: Scenario, config: LoadgenConfig
) -> LoadgenReport:
    """Fire one campaign and gather every outcome (never raises per-request)."""
    if config.requests < 1:
        raise ValidationError("loadgen needs requests >= 1")
    if config.retries < 0:
        raise ValidationError("retries must be >= 0")
    if config.retries and config.retry_backoff_s <= 0:
        raise ValidationError("retry backoff delay must be positive")
    if config.group_size < 0:
        raise ValidationError("group_size must be >= 0")
    if config.group_size > config.distinct:
        raise ValidationError(
            f"group_size ({config.group_size}) cannot exceed distinct "
            f"device classes ({config.distinct}): receivers in one group "
            "must carry unique devices"
        )
    if not 0.0 <= config.policy_mix <= 1.0:
        raise ValidationError("policy_mix must lie in [0, 1]")
    if config.policy_mix > 0 and config.group_size > 0:
        raise ValidationError(
            "policy_mix applies to per-session /plan streams; "
            "it cannot combine with group mode"
        )
    bodies = _request_bodies(scenario, config)
    workers = 0
    worker_ports: Dict[int, int] = {}
    if config.shard_affinity:
        workers, worker_ports = await _resolve_affinity(config)
    rng = random.Random(config.seed)
    offsets = PoissonArrivals(config.rate_per_s).times(config.requests, rng)
    loop = asyncio.get_running_loop()
    start = loop.time()
    wall_start = time.perf_counter()

    def target_port(hint: str) -> int:
        if not workers:
            return config.port
        # A worker missing its private port (mid-restart) falls back to
        # the shared port: affinity is advisory, delivery is not.
        return worker_ports.get(shard_owner(hint, workers), config.port)

    async def timed_fire(index: int) -> RequestOutcome:
        delay = start + offsets[index] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        body, hint = bodies[index]
        return await _fire_with_retries(
            config, index, body, hint, target_port(hint)
        )

    outcomes = await asyncio.gather(
        *(timed_fire(i) for i in range(config.requests))
    )
    elapsed = time.perf_counter() - wall_start
    return LoadgenReport(
        requests=config.requests,
        rate_per_s=config.rate_per_s,
        seed=config.seed,
        elapsed_s=elapsed,
        outcomes=tuple(sorted(outcomes, key=lambda o: o.index)),
        group_size=config.group_size,
        policy_mix=config.policy_mix,
    )
