"""Layer boundaries: what a traced run wraps and the per-layer metrics.

:func:`install` wraps one callable per layer boundary; :func:`layer_metrics`
turns the recorded spans into the ``per_layer`` metrics of
``BENCHMARK.json``.  Span names are the layer names of ``src/repro``.

Operations: every workload counts one *planning answer* as one operation,
so ``*_ms_per_op`` is a layer's total time in the timed phase divided by
the answers completed there, on every workload alike.

:data:`LAYER_MAP` records, for each per-layer metric, the end-to-end
metrics and the gated workload it should move.  It is written down before
any optimisation so a later change can be held to it.  The ``core``
layers show on ``sim-failover``, where every answer builds, prunes and
selects on a fresh snapshot.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from perfbench.tracing import Span, Tracer, current_request_id

__all__ = ["LAYER_MAP", "PER_LAYER_UNITS", "install", "layer_metrics"]

#: metric -> (end-to-end metrics it should move, workload where it shows).
LAYER_MAP: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "serve.http11.ms_per_op": (("latency_p50_ms", "throughput_ops"), "serve-hot"),
    "serve.protocol.decode_ms_per_op": (("latency_p50_ms", "throughput_ops"), "serve-hot"),
    "serve.protocol.encode_ms_per_op": (("latency_p50_ms", "throughput_ops"), "serve-hot"),
    "serve.gateway.self_ms_per_op": (("latency_p50_ms", "throughput_ops"), "serve-hot"),
    "policy.engine.ms_per_op": (("latency_p50_ms",), "serve-hot"),
    "policy.engine.skip_ratio": (("latency_p50_ms",), "serve-hot"),
    "planner.fingerprint.ms_per_op": (("latency_p50_ms",), "serve-hot"),
    "planner.cache.probe_ms_per_op": (("latency_p50_ms",), "serve-hot"),
    "planner.cache.hit_ratio": (("throughput_ops", "latency_p50_ms"), "sim-failover"),
    "planner.rebuilds": (("throughput_ops", "latency_p50_ms"), "sim-failover"),
    "core.graph.builds": (("throughput_ops", "latency_p50_ms", "latency_p99_ms"), "sim-failover"),
    "core.graph.ms_per_build": (("throughput_ops", "latency_p50_ms", "latency_p99_ms"), "sim-failover"),
    "core.pruning.ms_per_prune": (("throughput_ops", "latency_p50_ms", "latency_p99_ms"), "sim-failover"),
    "core.selection.ms_per_run": (("throughput_ops", "latency_p50_ms", "latency_p99_ms"), "sim-failover"),
    "core.selection.optimize_calls_per_run": (("throughput_ops", "latency_p50_ms", "latency_p99_ms"), "sim-failover"),
    "core.optimizer.memo_hit_ratio": (("throughput_ops", "latency_p50_ms", "latency_p99_ms"), "sim-failover"),
    "sim.world.ms_per_plan": (("throughput_ops",), "sim-failover"),
    "sim.engine.events_per_s": (("throughput_ops",), "sim-failover"),
    "sim.engine.self_ms_per_event": (("throughput_ops",), "sim-failover"),
    "network.reservations.ms_per_reserve": (("throughput_ops",), "sim-failover"),
    "network.reservations.reject_ratio": (("throughput_ops",), "sim-failover"),
    "trace.overhead_ratio": (("throughput_ops",), "every workload"),
}

PER_LAYER_UNITS: Dict[str, str] = {
    name: (
        "count" if name in ("planner.rebuilds", "core.graph.builds",
                            "core.selection.optimize_calls_per_run")
        else "1/s" if name.endswith("_per_s")
        else "ratio" if name.endswith("ratio")
        else "ms"
    )
    for name in LAYER_MAP
}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; :meth:`Tracer.uninstall` undoes it.

    Free functions are wrapped in the module that calls them (the gateway
    looks its codec and protocol helpers up in its own namespace); methods
    are wrapped on their class.  The gateway has no public callable at a
    request boundary, so its dispatch coroutine (the request root) and its
    per-request planning coroutine (where work moves to a queue worker
    task) are wrapped by name.
    """
    from repro.core.graph import AdaptationGraphBuilder
    from repro.core.pruning import GraphPruner
    from repro.core.selection import QoSPathSelector
    from repro.network.reservations import BandwidthLedger
    from repro.planner.batch import BatchPlanner
    from repro.planner.cache import PlanCache
    from repro.policy.engine import PolicyEngine
    from repro.runtime.session import AdaptationSession
    from repro.serve import gateway
    from repro.serve.gateway import PlanningGateway
    from repro.sim.engine import Simulator
    from repro.sim.world import SimWorld

    t = tracer
    t.patch(gateway, "read_request",
            t.coroutine(gateway.read_request, "serve.http11", busy=True))
    t.patch(gateway, "render_response",
            t.sync(gateway.render_response, "serve.http11"))

    decode = t.sync(gateway.decode_plan_request, "serve.protocol.decode")

    def decode_and_bind(body, registry, max_deadline_ms):
        envelope = decode(body, registry, max_deadline_ms)
        if envelope.device is not None:
            t.bind(envelope.device, current_request_id())
        return envelope

    t.patch(gateway, "decode_plan_request", decode_and_bind)
    for name in ("encode_payload", "plan_response_payload", "policy_skip_payload"):
        t.patch(gateway, name,
                t.sync(getattr(gateway, name), "serve.protocol.encode"))
    t.patch(PlanningGateway, "_dispatch",
            t.coroutine(PlanningGateway._dispatch, "serve.gateway", root=True))
    t.patch(PlanningGateway, "_plan_one", t.within_request(
        PlanningGateway._plan_one,
        request_key=lambda args: getattr(args[2].envelope, "device", None),
    ))

    t.patch(BatchPlanner, "__init__",
            t.sync(BatchPlanner.__init__, "planner.rebuild"))
    t.patch(BatchPlanner, "plan_with_policy_info", t.sync(
        BatchPlanner.plan_with_policy_info, "planner.plan",
        request_key=lambda args: args[1].device,
    ))
    t.patch(BatchPlanner, "fingerprint",
            t.sync(BatchPlanner.fingerprint, "planner.fingerprint"))
    t.patch(PlanCache, "__contains__", t.sync(
        PlanCache.__contains__, "planner.cache.probe",
        data=lambda args, hit: (1 if hit else 0,),
    ))
    t.patch(PlanCache, "get_or_compute",
            t.sync(PlanCache.get_or_compute, "planner.cache.lookup"))
    t.patch(AdaptationSession, "plan",
            t.sync(AdaptationSession.plan, "planner.compute"))
    t.patch(PolicyEngine, "evaluate", t.sync(
        PolicyEngine.evaluate, "policy.engine",
        data=lambda args, decision: (1 if decision.kind == "skip" else 0,),
    ))

    t.patch(AdaptationGraphBuilder, "build",
            t.sync(AdaptationGraphBuilder.build, "core.graph"))
    t.patch(GraphPruner, "prune", t.sync(GraphPruner.prune, "core.pruning"))
    t.patch(QoSPathSelector, "run", t.sync(
        QoSPathSelector.run, "core.selection",
        data=lambda args, result: (
            (result.stats.optimize_calls, result.stats.optimize_memo_hits)
            if result.stats is not None else (0, 0)
        ),
    ))

    t.patch(SimWorld, "plan", t.sync(SimWorld.plan, "sim.world"))
    t.patch(SimWorld, "reserve_plan", t.sync(
        SimWorld.reserve_plan, "sim.world.reserve",
        data=lambda args, leases: (1 if leases is None else 0,),
    ))
    t.patch(BandwidthLedger, "reserve",
            t.sync(BandwidthLedger.reserve, "network.reservations"))
    t.patch(Simulator, "run", t.sync(
        Simulator.run, "sim.engine", root=True,
        data=lambda args, processed: (processed,),
    ))


def _covered_ns(interval: Tuple[int, int], children: Iterable[Tuple[int, int]]) -> int:
    """Nanoseconds of ``interval`` covered by the union of ``children``."""
    low, high = interval
    covered = 0
    reach = low
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _self_ns(roots: List[Span], spans: List[Span]) -> int:
    """Root durations minus the part of them any same-request span covers."""
    by_request: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    root_ids = {span[4] for span in roots}
    for span in spans:
        if span[6] and span[4] not in root_ids:
            by_request[span[6]].append((span[1], span[2]))
    return sum(
        (root[2] - root[1])
        - _covered_ns((root[1], root[2]), by_request.get(root[6], ()))
        for root in roots
    )


def layer_metrics(
    spans: Sequence[Span],
    ops: int,
    windows: Sequence[Tuple[int, int]],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric from the spans recorded in ``windows``.

    A layer the workload bypasses has no spans and reports 0.
    """
    windows = sorted(windows)
    starts = [low for low, _high in windows]

    def in_window(span: Span) -> bool:
        index = bisect.bisect_right(starts, span[1]) - 1
        return index >= 0 and span[2] <= windows[index][1]

    inside = [span for span in spans if in_window(span)]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in inside:
        by_name[span[0]].append(span)

    def total_ms(name: str) -> float:
        return sum(span[3] for span in by_name[name]) / 1e6

    def calls(name: str) -> int:
        return len(by_name[name])

    def summed(name: str, field: int = 0) -> int:
        return sum(span[7][field] for span in by_name[name])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    lookups = {span[4] for span in by_name["planner.cache.lookup"]}
    computed_under_lookup_ms = sum(
        span[3] for span in by_name["planner.compute"] if span[5] in lookups
    ) / 1e6
    events = summed("sim.engine")
    engine_s = total_ms("sim.engine") / 1e3
    return {
        "serve.http11.ms_per_op": ratio(total_ms("serve.http11"), ops),
        "serve.protocol.decode_ms_per_op": ratio(total_ms("serve.protocol.decode"), ops),
        "serve.protocol.encode_ms_per_op": ratio(total_ms("serve.protocol.encode"), ops),
        "serve.gateway.self_ms_per_op": ratio(
            _self_ns(by_name["serve.gateway"], inside) / 1e6, ops
        ),
        "policy.engine.ms_per_op": ratio(total_ms("policy.engine"), ops),
        "policy.engine.skip_ratio": ratio(summed("policy.engine"), calls("policy.engine")),
        "planner.fingerprint.ms_per_op": ratio(total_ms("planner.fingerprint"), ops),
        "planner.cache.probe_ms_per_op": ratio(
            total_ms("planner.cache.probe")
            + total_ms("planner.cache.lookup")
            - computed_under_lookup_ms,
            ops,
        ),
        "planner.cache.hit_ratio": ratio(
            summed("planner.cache.probe"), calls("planner.cache.probe")
        ),
        "planner.rebuilds": float(calls("planner.rebuild")),
        "core.graph.builds": float(calls("core.graph")),
        "core.graph.ms_per_build": ratio(total_ms("core.graph"), calls("core.graph")),
        "core.pruning.ms_per_prune": ratio(total_ms("core.pruning"), calls("core.pruning")),
        "core.selection.ms_per_run": ratio(
            total_ms("core.selection"), calls("core.selection")
        ),
        "core.selection.optimize_calls_per_run": ratio(
            summed("core.selection", 0), calls("core.selection")
        ),
        "core.optimizer.memo_hit_ratio": ratio(
            summed("core.selection", 1), summed("core.selection", 0)
        ),
        "sim.world.ms_per_plan": ratio(total_ms("sim.world"), calls("sim.world")),
        "sim.engine.events_per_s": ratio(events, engine_s),
        "sim.engine.self_ms_per_event": ratio(
            _self_ns(by_name["sim.engine"], inside) / 1e6, events
        ),
        "network.reservations.ms_per_reserve": ratio(
            total_ms("network.reservations"), calls("network.reservations")
        ),
        "network.reservations.reject_ratio": ratio(
            summed("sim.world.reserve"), calls("sim.world.reserve")
        ),
        "trace.overhead_ratio": overhead_ratio,
    }
