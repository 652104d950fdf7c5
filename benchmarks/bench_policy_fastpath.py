"""E23 — extension: policy fast path vs selector path.

A skewed "mostly-compatible" audience: 70% of the device classes decode
the source format natively, and a one-rule policy (``skip`` gated on
``decodes``) answers them with a zero-hop plan before the selector runs.
The bench times every request individually, splits the latency
distribution by answering path (skip, plan-cache hit, selector run), and
asserts the acceptance criteria:

- fast-path p50 <= 0.1x the selector-run p50 on the same stream;
- fast-path throughput >= 5x selector-run throughput;
- two same-seed runs produce bit-identical outcome digests (the policy
  pass must not perturb determinism), written alone to the timing-free
  ``policy_fastpath_digest.txt``.

``POLICY_BENCH_REQUESTS`` scales the stream (CI runs a reduced size).
"""

from __future__ import annotations

import hashlib
import os
import time

from repro.planner.batch import BatchPlanner, PlanRequest
from repro.planner.workload import device_variants
from repro.policy.document import PolicyDocument, PolicyRule
from repro.policy.engine import PolicyEngine
from repro.policy.predicates import Decodes
from repro.profiles.device import DeviceProfile
from repro.sim.report import percentile
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from conftest import format_table

SEED = 23
N_REQUESTS = int(os.environ.get("POLICY_BENCH_REQUESTS", "400"))
N_CLASSES = 40
COMPATIBLE_PER_TEN = 7  # 70% of classes decode the source natively
MAX_P50_RATIO = 0.1
MIN_THROUGHPUT_RATIO = 5.0


def _workload():
    """(planner, requests): the skewed stream over a policy-armed planner."""
    scenario = generate_scenario(
        SyntheticConfig(
            seed=SEED,
            n_services=24,
            n_formats=10,
            n_nodes=12,
            hw_tier_fraction=0.5,
        )
    )
    source = scenario.content.format_names()[0]
    policy = PolicyDocument(
        name="bench-fastpath",
        rules=(
            PolicyRule(
                rule_id="skip-native",
                action="skip",
                predicates=(Decodes(source),),
                tolerance=0.05,
            ),
        ),
    )
    variants = device_variants(scenario.device, N_CLASSES)
    devices = []
    for index, variant in enumerate(variants):
        if index % 10 < COMPATIBLE_PER_TEN:
            devices.append(
                DeviceProfile(
                    device_id=f"{variant.device_id}-compat",
                    decoders=[source] + list(variant.decoders),
                    max_resolution=variant.max_resolution,
                    max_color_depth=variant.max_color_depth,
                    max_frame_rate=variant.max_frame_rate,
                )
            )
        else:
            devices.append(variant)
    requests = [
        PlanRequest(
            content=scenario.content,
            device=devices[index % N_CLASSES],
            user=scenario.user,
            sender_node=scenario.sender_node,
            receiver_node=scenario.receiver_node,
        )
        for index in range(N_REQUESTS)
    ]
    planner = BatchPlanner.for_scenario(
        scenario, policy_engine=PolicyEngine(policy), max_workers=1
    )
    return planner, requests


def _run_once():
    """One cold pass: per-request latencies split by path, plus a digest.

    Answers split three ways: policy skips, plan-cache hits, and selector
    runs.  A warm cache hit costs tens of microseconds, so filing hits
    under "selector" would gate the skip path against the cache.
    """
    planner, requests = _workload()
    fast_us, hit_us, selector_us, keys = [], [], [], []
    for index, request in enumerate(requests):
        start = time.perf_counter()
        plan, hit, decision = planner.plan_with_policy_info(request)
        elapsed_us = (time.perf_counter() - start) * 1e6
        on_fast_path = decision is not None and decision.kind == "skip"
        if on_fast_path:
            fast_us.append(elapsed_us)
        else:
            (hit_us if hit else selector_us).append(elapsed_us)
        keys.append(
            (
                index,
                "skip" if on_fast_path else "selector",
                tuple(plan.result.formats),
                round(plan.result.satisfaction, 9),
            )
        )
    digest = hashlib.sha256(repr(tuple(keys)).encode("utf-8")).hexdigest()
    return fast_us, hit_us, selector_us, digest


def _row(label, samples_us):
    rate = len(samples_us) / (sum(samples_us) / 1e6)
    return (
        label,
        len(samples_us),
        f"{percentile(samples_us, 50.0):.1f}",
        f"{percentile(samples_us, 99.0):.1f}",
        f"{rate:.0f}",
    )


def test_policy_fastpath(benchmark, save_artifact):
    fast_us, hit_us, selector_us, digest = _run_once()
    _fast2, _hit2, _selector2, digest2 = _run_once()
    assert digest == digest2, "same-seed runs must agree bit for bit"
    assert fast_us and hit_us and selector_us, (
        "the stream must exercise every path"
    )

    fast_p50 = percentile(fast_us, 50.0)
    selector_p50 = percentile(selector_us, 50.0)
    fast_rate = len(fast_us) / (sum(fast_us) / 1e6)
    selector_rate = len(selector_us) / (sum(selector_us) / 1e6)

    # Steady state (warm caches on both paths) is what the harness times.
    planner, requests = _workload()
    for request in requests:
        planner.plan_with_policy_info(request)
    benchmark(
        lambda: [planner.plan_with_policy_info(r) for r in requests]
    )

    rows = [
        _row("fast path (skip)", fast_us),
        _row("plan-cache hit", hit_us),
        _row("selector run", selector_us),
    ]
    header = (
        f"({N_REQUESTS} requests, {N_CLASSES} device classes, "
        f"{COMPATIBLE_PER_TEN * 10}% compatible, seed {SEED})"
    )
    save_artifact(
        "policy_fastpath.txt",
        f"E23 — policy fast path {header}\n\n"
        + format_table(
            ["path", "requests", "p50 (us)", "p99 (us)", "req/s"], rows
        )
        + f"\n\nskip vs selector run p50 ratio: "
        f"{fast_p50 / selector_p50:.3f} (floor {MAX_P50_RATIO})\n"
        f"skip vs selector run throughput ratio: "
        f"{fast_rate / selector_rate:.1f}x (floor {MIN_THROUGHPUT_RATIO}x)\n"
        f"outcome digest: {digest}",
    )
    save_artifact(
        "policy_fastpath_digest.txt",
        f"E23 — same-seed outcome digest {header}\n{digest}",
    )

    assert fast_p50 <= MAX_P50_RATIO * selector_p50, (
        f"fast-path p50 {fast_p50:.1f}us exceeds "
        f"{MAX_P50_RATIO}x selector-run p50 {selector_p50:.1f}us"
    )
    assert fast_rate >= MIN_THROUGHPUT_RATIO * selector_rate, (
        f"fast-path throughput {fast_rate:.0f}/s is below "
        f"{MIN_THROUGHPUT_RATIO}x selector-run throughput "
        f"{selector_rate:.0f}/s"
    )
