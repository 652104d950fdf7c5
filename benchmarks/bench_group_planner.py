"""E22 — extension: shared adaptation trees for multicast group planning.

One live stream, 1000 sessions spread over 32 receiver device classes —
the live-event workload ``repro.group`` exists for.  Per-session planning
pays optimize calls and reserved bandwidth once *per session*; grouped
planning pays once per distinct class (optimize) and once per tree edge
(bandwidth), so both aggregates must be sublinear in the session count.

Asserted floors, not just reported numbers:

- aggregate reserved bandwidth and optimize-call slopes (per added
  session) at most half the per-session baseline's slopes;
- every feasible class's branch satisfaction equal to its standalone
  uncached optimum (prefix sharing never trades quality);
- same-seed tree digests bit-identical across two from-scratch builds.

``GROUP_BENCH_SESSIONS`` scales the workload down for CI smoke runs.
"""

from __future__ import annotations

import os
import time

from repro.group import GroupPlanner, GroupReceiver, GroupRequest
from repro.planner import BatchPlanner, device_variants
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from conftest import format_table

N_SESSIONS = int(os.environ.get("GROUP_BENCH_SESSIONS", "1000"))
N_CLASSES = min(32, N_SESSIONS)
MAX_SLOPE_RATIO = 0.5


def _scenario():
    return generate_scenario(
        SyntheticConfig(seed=7, n_services=12, n_formats=8, n_nodes=8)
    )


def _receivers(scenario, sessions):
    variants = device_variants(scenario.device, N_CLASSES)
    base, extra = divmod(sessions, N_CLASSES)
    return tuple(
        GroupReceiver(
            class_id=f"class-{index}",
            device=device,
            sessions=base + (1 if index < extra else 0),
        )
        for index, device in enumerate(variants)
    )


def _group_request(scenario, sessions):
    return GroupRequest(
        content=scenario.content,
        user=scenario.user,
        sender_node=scenario.sender_node,
        receiver_node=scenario.receiver_node,
        receivers=_receivers(scenario, sessions),
        context=scenario.context,
    )



def _chain_bps(planner, result):
    return sum(
        result.configuration.required_bandwidth(planner.registry.get(name))
        for name in result.formats
    )


def _baseline(scenario, request):
    """Per-session planning: every session from scratch, reserved alone."""
    planner = BatchPlanner.for_scenario(scenario)
    reserved_bps = 0.0
    optimize_calls = 0
    satisfaction = {}
    for receiver in request.receivers:
        session = planner.plan_uncached(scenario.request(receiver.device))
        result = session.result
        if not result.success:
            continue
        satisfaction[receiver.class_id] = result.satisfaction
        per_chain = _chain_bps(planner, result)
        reserved_bps += per_chain * receiver.sessions
        if result.stats is not None:
            optimize_calls += result.stats.optimize_calls * receiver.sessions
    return reserved_bps, optimize_calls, satisfaction


def _grouped(scenario, sessions):
    """One shared tree from a cold planner; returns its aggregates."""
    planner = GroupPlanner.for_scenario(scenario)
    plan = planner.plan(_group_request(scenario, sessions))
    return (
        plan.tree.tree_bandwidth_bps(),
        plan.optimize_calls(),
        plan,
        planner,
    )


def test_group_planner_sublinear(benchmark, save_artifact):
    scenario = _scenario()
    half = max(N_CLASSES, N_SESSIONS // 2)
    request = _group_request(scenario, N_SESSIONS)

    start = time.perf_counter()
    base_bps, base_calls, base_satisfaction = _baseline(scenario, request)
    baseline_s = time.perf_counter() - start

    start = time.perf_counter()
    bps_half, calls_half, _, _ = _grouped(scenario, half)
    bps_full, calls_full, plan, planner = _grouped(scenario, N_SESSIONS)
    grouped_s = (time.perf_counter() - start) / 2.0

    # Steady state: a repeated group against an unchanged world is one
    # tree-cache lookup.
    benchmark(lambda: planner.plan(request))

    # Slopes per added session: the baseline pays linearly, the grouped
    # plan must pay at most half of that per session (it actually pays
    # ~nothing: work scales with classes, bandwidth with tree edges).
    added = N_SESSIONS - half
    base_bps_slope = base_bps / N_SESSIONS
    base_calls_slope = base_calls / N_SESSIONS
    bps_slope = (bps_full - bps_half) / added if added else 0.0
    calls_slope = (calls_full - calls_half) / added if added else 0.0

    rows = [
        (
            "per-session",
            f"{base_calls}",
            f"{base_bps / 1e6:.2f}",
            f"{base_bps_slope / 1e3:.2f}",
            f"{baseline_s * 1000:.1f}",
        ),
        (
            "grouped",
            f"{calls_full}",
            f"{bps_full / 1e6:.2f}",
            f"{bps_slope / 1e3:.2f}",
            f"{grouped_s * 1000:.1f}",
        ),
    ]
    save_artifact(
        "group_planner.txt",
        f"E22 — shared adaptation trees ({N_SESSIONS} sessions, "
        f"{N_CLASSES} receiver classes)\n"
        f"tree: {len(plan.tree.edges)} edges, {plan.tree.branch_count} "
        f"leaves, {plan.tree.shared_edge_count} shared; "
        f"saved {plan.tree.saved_bandwidth_bps() / 1e6:.2f} Mbps\n\n"
        + format_table(
            ["mode", "optimize calls", "reserved Mbps",
             "slope (kbps/session)", "time (ms)"],
            rows,
        ),
    )

    # Every class the baseline can serve gets a branch at the exact same
    # satisfaction; classes it cannot serve are explicit fallbacks.
    grouped_satisfaction = plan.satisfaction_by_class()
    assert set(grouped_satisfaction) == set(base_satisfaction)
    for class_id, expected in base_satisfaction.items():
        assert grouped_satisfaction[class_id] == expected, (
            f"{class_id}: branch satisfaction "
            f"{grouped_satisfaction[class_id]} != standalone {expected}"
        )
    fallback_ids = {class_id for class_id, _reason in plan.tree.fallbacks}
    assert fallback_ids == {
        receiver.class_id
        for receiver in request.receivers
        if receiver.class_id not in base_satisfaction
    }

    # Sublinearity floors (the ISSUE's acceptance gate).
    assert bps_slope <= MAX_SLOPE_RATIO * base_bps_slope, (
        f"grouped bandwidth slope {bps_slope:.1f} bps/session exceeds "
        f"{MAX_SLOPE_RATIO}x baseline {base_bps_slope:.1f}"
    )
    assert calls_slope <= MAX_SLOPE_RATIO * base_calls_slope, (
        f"grouped optimize-call slope {calls_slope:.3f}/session exceeds "
        f"{MAX_SLOPE_RATIO}x baseline {base_calls_slope:.3f}"
    )
    # Aggregate totals too, not just slopes: one tree must cost less than
    # half of what per-session planning pays at this scale.
    assert bps_full <= MAX_SLOPE_RATIO * base_bps
    assert calls_full <= MAX_SLOPE_RATIO * base_calls


def test_group_digest_deterministic(save_artifact):
    """Two from-scratch builds of the same seed agree bit for bit."""
    digests = []
    for _ in range(2):
        scenario = _scenario()
        planner = GroupPlanner.for_scenario(scenario)
        plan = planner.plan(_group_request(scenario, N_SESSIONS))
        digests.append(plan.tree.digest())
    assert digests[0] == digests[1]
    save_artifact(
        "group_planner_digest.txt",
        f"E22 — same-seed tree digest ({N_SESSIONS} sessions, "
        f"{N_CLASSES} classes)\n{digests[0]}\n",
    )
