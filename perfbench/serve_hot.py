"""``serve-hot``: a real ``repro serve`` daemon answering from warm caches.

The daemon is a subprocess with one worker process and two planning
threads, started through :mod:`perfbench.launch`.  This process is the one
client: a closed loop over two keep-alive connections, because callers
wait for their plan before streaming.  Client and daemon share one CPU
(:func:`~perfbench.common.pin_to_one_cpu`); the daemon takes about three
quarters of it, and each run prints the two shares.  The world is a small
synthetic catalog with hardware tiers and an embedded policy: a ``skip``
rule gated on ``decodes(source)`` and a ``force_tier hw`` rule for one
device class.  The seeded stream cycles over 32 device classes, and each
request comes from the source-compatible sibling of its class with
probability 1/2.

Set-up sends every distinct body once, so in the timed phase the selector
does no work and all time goes to serving overhead: the HTTP codec, wire
decode, the policy pass, fingerprinting, the cache probe, encode and the
queue/executor hand-off.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random
import resource
import select
import signal
import subprocess
import sys
import tempfile
from time import perf_counter, perf_counter_ns
from typing import Dict, Iterator, List, Optional, Set, Tuple

from perfbench.common import (
    MISS_LATENCY_MS,
    CheckFailed,
    OpLog,
    Phase,
    Sizing,
    peak_rss_mb_of,
)
from perfbench.tracing import load_spans

from repro.errors import GatewayProtocolError
from repro.planner.batch import BatchPlanner, PlanRequest
from repro.planner.workload import device_variants
from repro.policy.document import PolicyDocument, PolicyRule
from repro.policy.engine import PolicyEngine
from repro.policy.predicates import Decodes, DeviceIn
from repro.profiles.device import DeviceProfile
from repro.profiles.serialization import profile_to_dict
from repro.serve.http11 import read_response, render_request
from repro.serve.protocol import encode_payload
from repro.services.catalog import ServiceCatalog
from repro.workloads.io import save_scenario
from repro.workloads.scenario import Scenario
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

BENCH_DIR = pathlib.Path(__file__).resolve().parent
#: Scratch files (scenario, daemon stderr, spans) stay inside the checkout.
WORK_ROOT = BENCH_DIR.parent / ".perfbench_work"
DEVICE_CLASSES = 32
CONNECTIONS = 2
CLIENT_TIMEOUT_S = MISS_LATENCY_MS / 1e3
READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0
#: The world is fixed; ``--seed`` drives the request stream.
WORLD = SyntheticConfig(
    seed=23, n_services=24, n_formats=10, n_nodes=12, hw_tier_fraction=0.5
)
FORCED_CLASS = 7

# Answer as compared: (HTTP status, payload status, path, satisfaction).
Answer = Tuple[int, Optional[str], Tuple[str, ...], Optional[float]]


def world() -> Scenario:
    scenario = generate_scenario(WORLD)
    source = scenario.content.format_names()[0]
    scenario.policy = PolicyDocument(
        name="perfbench-serve-hot",
        rules=(
            PolicyRule(
                rule_id="skip-native",
                action="skip",
                predicates=(Decodes(source),),
                tolerance=0.05,
            ),
            PolicyRule(
                rule_id="hw-class",
                action="force_tier",
                predicates=(
                    DeviceIn((f"{scenario.device.device_id}-v{FORCED_CLASS}",)),
                ),
                tier="hw",
            ),
        ),
    )
    return scenario


def devices(scenario: Scenario) -> List[DeviceProfile]:
    """The distinct devices: class ``i`` at ``2i``, its compatible sibling at ``2i + 1``."""
    source = scenario.content.format_names()[0]
    out: List[DeviceProfile] = []
    for variant in device_variants(scenario.device, DEVICE_CLASSES):
        out.append(variant)
        out.append(
            DeviceProfile(
                device_id=f"{variant.device_id}-compat",
                decoders=[source] + [d for d in variant.decoders if d != source],
                max_resolution=variant.max_resolution,
                max_color_depth=variant.max_color_depth,
                max_frame_rate=variant.max_frame_rate,
                model=variant.model,
            )
        )
    return out


def stream(seed: int) -> Iterator[int]:
    """Seeded indices into :func:`devices`: cycle the classes, coin-flip the sibling."""
    rng = random.Random(f"{seed}:serve-hot")
    index = 0
    while True:
        yield 2 * (index % DEVICE_CLASSES) + (1 if rng.random() < 0.5 else 0)
        index += 1


def body(device: DeviceProfile) -> bytes:
    return encode_payload({"client": "perfbench", "device": profile_to_dict(device)})


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess, started through the launcher."""

    def __init__(self, scenario_path: pathlib.Path, work: pathlib.Path,
                 spans_path: Optional[pathlib.Path]) -> None:
        command = [sys.executable, str(BENCH_DIR / "launch.py")]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        command += [
            "--", "serve", "--scenario", str(scenario_path), "--port", "0",
            "--workers", "1", "--threads", "2", "--deadline-ms", "1000",
        ]
        self.spans_path = spans_path
        self._stderr_path = work / "daemon.stderr"
        with open(self._stderr_path, "w", encoding="utf-8") as stderr:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, text=True
            )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        deadline = perf_counter() + READY_TIMEOUT_S
        while perf_counter() < deadline:
            readable, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if readable:
                line = self.proc.stdout.readline()
                if "listening on" in line:
                    address = line.split("listening on", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
                if not line:
                    break
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise CheckFailed(f"serve-hot: daemon never became ready\n{self.stderr()}")

    def cpu_s(self) -> float:
        """CPU seconds (user + system) the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stderr(self) -> str:
        return self._stderr_path.read_text(encoding="utf-8")[-4000:]

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
class _Sequence:
    """The seeded stream, materialised as far as any connection has read."""

    def __init__(self, seed: int) -> None:
        self._source = stream(seed)
        self._items: List[int] = []

    def __getitem__(self, position: int) -> int:
        while position >= len(self._items):
            self._items.append(next(self._source))
        return self._items[position]


async def _connection(
    port: int,
    bodies: List[bytes],
    sequence: _Sequence,
    offset: int,
    log: OpLog,
    answers: Dict[int, Set[Answer]],
    satisfaction_at: Dict[int, float],
    sizing: Sizing,
    deadline: float,
) -> None:
    reader = writer = None
    sent = 0
    try:
        while True:
            # Positions interleave across connections, so a position counts
            # the answers attempted before it; stopping on positions keeps
            # the quality prefix and fixed-size passes exact.
            position = offset + CONNECTIONS * sent
            if sizing.done(position, perf_counter() >= deadline):
                return
            index = sequence[position]
            sent += 1
            started = perf_counter()
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(render_request("POST", "/plan", bodies[index]))
                await writer.drain()
                response = await asyncio.wait_for(
                    read_response(reader), timeout=CLIENT_TIMEOUT_S
                )
            except (asyncio.TimeoutError, ConnectionError, OSError,
                    GatewayProtocolError):
                log.failed((perf_counter() - started) * 1e3)
                if writer is not None:
                    await _close(writer)
                reader = writer = None
                continue
            latency_ms = (perf_counter() - started) * 1e3
            if response.status != 200:
                log.failed(latency_ms)
                continue
            log.ok(latency_ms)
            payload = json.loads(response.body)
            satisfaction = payload.get("satisfaction")
            answers.setdefault(index, set()).add(
                (200, payload.get("status"), tuple(payload.get("path", ())),
                 satisfaction)
            )
            if position < sizing.quality_ops and payload.get("success"):
                satisfaction_at[position] = satisfaction
    finally:
        if writer is not None:
            await _close(writer)


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _drive(port: int, bodies: List[bytes], seed: int, sizing: Sizing):
    log = OpLog()
    answers: Dict[int, Set[Answer]] = {}
    satisfaction_at: Dict[int, float] = {}
    sequence = _Sequence(seed)
    window_start = perf_counter_ns()
    deadline = perf_counter() + sizing.seconds
    await asyncio.gather(*(
        _connection(port, bodies, sequence, offset, log, answers,
                    satisfaction_at, sizing, deadline)
        for offset in range(CONNECTIONS)
    ))
    window_end = perf_counter_ns()
    log.elapsed_s = (window_end - window_start) / 1e9
    log.quality = [satisfaction_at[p] for p in sorted(satisfaction_at)]
    return log, answers, (window_start, window_end)


async def _warm_up(port: int, bodies: List[bytes]) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for payload in bodies:
            writer.write(render_request("POST", "/plan", payload))
            await writer.drain()
            response = await asyncio.wait_for(
                read_response(reader), timeout=CLIENT_TIMEOUT_S * 10
            )
            if response.status != 200:
                raise CheckFailed(
                    f"serve-hot: warm-up answered {response.status}: "
                    f"{response.body[:200]!r}"
                )
    finally:
        await _close(writer)


# ----------------------------------------------------------------------
# Reference answers
# ----------------------------------------------------------------------
def reference_answers(scenario: Scenario, distinct: List[DeviceProfile],
                      indices) -> Dict[int, Answer]:
    """In-process answers: the policy decision, else ``plan_uncached``."""
    engine = PolicyEngine(scenario.policy)
    planner = BatchPlanner.for_scenario(scenario, max_workers=1)
    tier_planners: Dict[str, BatchPlanner] = {}
    expected: Dict[int, Answer] = {}
    for index in indices:
        request = PlanRequest(
            content=scenario.content,
            device=distinct[index],
            user=scenario.user,
            sender_node=scenario.sender_node,
            receiver_node=scenario.receiver_node,
            context=scenario.context,
        )
        decision = engine.evaluate(request)
        if decision.kind == "skip":
            result = decision.plan.result
            expected[index] = (200, "policy_skip", ("sender", "receiver"),
                               round(result.satisfaction, 6))
            continue
        chosen = planner
        if decision.kind == "force_tier":
            chosen = tier_planners.get(decision.tier)
            if chosen is None:
                chosen = BatchPlanner(
                    registry=scenario.registry,
                    parameters=scenario.parameters,
                    catalog=ServiceCatalog(
                        d for d in scenario.catalog
                        if not d.is_transcoder or d.tier == decision.tier
                    ),
                    placement=scenario.placement,
                    max_workers=1,
                )
                tier_planners[decision.tier] = chosen
        plan = chosen.plan_uncached(request)
        if plan.success:
            expected[index] = (200, "ok", tuple(plan.result.path),
                               round(plan.result.satisfaction, 6))
        else:
            expected[index] = (200, "infeasible", (), None)
    return expected


def _own_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# The phase
# ----------------------------------------------------------------------
def measure(seed: int, sizing: Sizing, traced: bool) -> Phase:
    """One timed phase; scratch files live under the checkout's work dir."""
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
            return _measure(seed, sizing, traced, pathlib.Path(work))
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


def _measure(seed: int, sizing: Sizing, traced: bool, work: pathlib.Path) -> Phase:
    setup_s: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for attempt in range(sizing.setups):
            if daemon is not None:
                daemon.stop()
            started = perf_counter()
            scenario = world()
            scenario_path = work / "scenario.json"
            save_scenario(scenario, scenario_path)
            distinct = devices(scenario)
            bodies = [body(device) for device in distinct]
            last = attempt == sizing.setups - 1
            daemon = Daemon(
                scenario_path, work,
                work / "spans.json" if traced and last else None,
            )
            asyncio.run(_warm_up(daemon.port, bodies))
            setup_s.append(perf_counter() - started)

        daemon_cpu_s = daemon.cpu_s()
        client_cpu_s = _own_cpu_s()
        log, answers, window = asyncio.run(
            _drive(daemon.port, bodies, seed, sizing)
        )
        daemon_cpu_s = daemon.cpu_s() - daemon_cpu_s
        client_cpu_s = _own_cpu_s() - client_cpu_s
        peak = peak_rss_mb_of(daemon.proc.pid)
    finally:
        code = daemon.stop() if daemon is not None else 0
    if code != 0:
        raise CheckFailed(f"serve-hot: daemon exited {code}\n{daemon.stderr()}")
    spans = load_spans(str(daemon.spans_path)) if traced else []

    expected = reference_answers(scenario, distinct, sorted(answers))
    for index, seen in sorted(answers.items()):
        if seen != {expected[index]}:
            raise CheckFailed(
                f"serve-hot: device {distinct[index].device_id} answered "
                f"{sorted(seen)}, reference {expected[index]}"
            )
    skipped = sum(1 for index in answers if expected[index][1] == "policy_skip")
    return Phase(
        log=log,
        setup_s=setup_s,
        peak_rss_mb=peak,
        spans=spans,
        windows=[window],
        notes=[
            f"serve-hot: {len(answers)} distinct bodies ({skipped} policy skips) "
            f"matched their in-process reference",
            f"serve-hot CPU per wall second of the timed phase: daemon "
            f"{daemon_cpu_s / log.elapsed_s:.2f}, client "
            f"{client_cpu_s / log.elapsed_s:.2f}",
        ],
    )
