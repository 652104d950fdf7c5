"""``sim-failover``: the ``failover-storm`` campaign, executed back to back.

The planner and cache layers run here under writes: every admission books
the bandwidth ledger and every fault moves a generation, so the snapshot
planner and its plan cache are rebuilt constantly, unlike ``serve-hot``'s
read-only hits.  One operation is one ``SimWorld.plan`` answer; a call
that returns ``None`` is a failed operation.

One execution runs 80 sessions.  With more, the storm leaves the small
world without capacity and plans start returning ``None`` (about 40% of
them at 2000 sessions), and the benchmark runs only workloads on which no
operation fails.  Executions repeat, each from a fresh ``build_scenario``
+ ``SimulationRun``, until the phase has its time and its answers.
Execution ``k`` draws arrivals and session lengths from its own seed,
derived from ``--seed`` and ``k``, so a run averages over many arrival
patterns.  Execution 0 is executed once more after the timed phase and
must reproduce its trace digest; that digest is printed, and its answers
give ``mean_satisfaction``.
"""

from __future__ import annotations

import gc
from time import perf_counter, perf_counter_ns
from typing import List

from perfbench.common import CheckFailed, OpLog, Phase, Sizing, peak_rss_mb_self
from perfbench.layers import install
from perfbench.tracing import Tracer

from repro.sim.runner import SimulationConfig, SimulationRun
from repro.sim.scenarios import build_scenario
from repro.sim.world import SimWorld

#: The campaign's world is fixed; ``--seed`` drives arrivals and durations.
WORLD_SEED = 0
SESSIONS = 80


def campaign(seed: int, execution: int) -> SimulationConfig:
    config = build_scenario("failover-storm", seed=WORLD_SEED, sessions=SESSIONS)
    config.seed = seed * 1_000_000 + execution
    return config


def measure(seed: int, sizing: Sizing, traced: bool) -> Phase:
    log = OpLog()
    setup_s: List[float] = []
    windows = []
    answers: List[float] = []
    tracer = Tracer() if traced else None
    original_plan = None
    try:
        if tracer is not None:
            install(tracer)
        original_plan = vars(SimWorld)["plan"]

        def timed_plan(world, request):
            started = perf_counter()
            plan = original_plan(world, request)
            latency_ms = (perf_counter() - started) * 1e3
            if plan is None:
                log.failed(latency_ms)
            else:
                log.ok(latency_ms)
                answers.append(plan.result.satisfaction)
            return plan

        SimWorld.plan = timed_plan
        first_digest = ""
        while not sizing.done(log.attempted, log.elapsed_s >= sizing.seconds):
            # The previous execution's garbage is not this set-up's cost.
            gc.collect()
            started = perf_counter()
            run = SimulationRun(campaign(seed, len(windows)))
            setup_s.append(perf_counter() - started)
            window_start = perf_counter_ns()
            report = run.execute()
            window_end = perf_counter_ns()
            windows.append((window_start, window_end))
            log.elapsed_s += (window_end - window_start) / 1e9
            if not first_digest:
                first_digest = report.trace_digest
                log.quality = list(answers)
    finally:
        if original_plan is not None:
            SimWorld.plan = original_plan
        if tracer is not None:
            tracer.uninstall()
    peak = peak_rss_mb_self()
    repeat = SimulationRun(campaign(seed, 0)).execute().trace_digest
    if repeat != first_digest:
        raise CheckFailed(
            f"sim-failover: seed {seed} execution 0 produced trace digest "
            f"{first_digest}, then {repeat}"
        )
    return Phase(
        log=log,
        setup_s=setup_s,
        peak_rss_mb=peak,
        spans=tracer.spans if tracer is not None else [],
        windows=windows,
        notes=[
            f"sim-failover: {len(windows)} executions of {SESSIONS} sessions",
            f"sim trace digest: {first_digest}",
        ],
    )
