"""Integration tests: batch planner, runtime wiring, and the CLI."""

from __future__ import annotations

import io
import random
import threading

import pytest

from repro.cli import main
from repro.core.graph import CatalogView
from repro.errors import PolicyDeniedError
from repro.planner import BatchPlanner, PlanCache, synthetic_requests
from repro.planner.workload import device_variants
from repro.policy import Decodes, DeviceIn, PolicyDocument, PolicyEngine, PolicyRule
from repro.profiles.device import DeviceProfile
from repro.runtime.metrics import PlannerReport
from repro.runtime.session import AdaptationSession
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from tests.reference_planning import reference_plan_with_policy_info


def _scenario(seed=7):
    return generate_scenario(
        SyntheticConfig(seed=seed, n_services=12, n_formats=8, n_nodes=8)
    )


# ----------------------------------------------------------------------
# BatchPlanner
# ----------------------------------------------------------------------


def test_batch_counts_misses_once_per_device_class():
    scenario = _scenario()
    planner = BatchPlanner.for_scenario(scenario, cache=PlanCache())
    requests = synthetic_requests(scenario, 60, 12)
    plans = planner.plan_batch(requests)
    assert len(plans) == 60
    assert all(plan.success for plan in plans)
    stats = planner.cache.stats
    assert stats.misses == 12
    assert stats.hits == 48


def test_batch_preserves_request_order():
    scenario = _scenario()
    planner = BatchPlanner.for_scenario(scenario, cache=PlanCache())
    requests = synthetic_requests(scenario, 30, 6)
    plans = planner.plan_batch(requests)
    for i, plan in enumerate(plans):
        # Round-robin workload: request i uses device class i % 6.
        assert plan.result == plans[i % 6].result


def test_batch_purges_stale_entries_after_mutation():
    scenario = _scenario()
    cache = PlanCache()
    planner = BatchPlanner.for_scenario(scenario, cache=cache)
    requests = synthetic_requests(scenario, 20, 4)
    planner.plan_batch(requests)
    assert len(cache) == 4
    scenario.topology.node("late-node")  # world moves on
    planner.plan_batch(requests)
    stats = cache.stats
    assert stats.invalidations == 4  # old generation purged up front
    assert stats.misses == 8  # recomputed once per class, per epoch
    assert len(cache) == 4


def test_uncached_batch_touches_no_cache():
    scenario = _scenario()
    cache = PlanCache()
    planner = BatchPlanner.for_scenario(scenario, cache=cache)
    plans = planner.plan_batch(synthetic_requests(scenario, 10, 5), use_cache=False)
    assert len(plans) == 10
    assert cache.stats.lookups == 0
    assert len(cache) == 0


def test_empty_batch_is_a_noop():
    planner = BatchPlanner.for_scenario(_scenario(), cache=PlanCache())
    assert planner.plan_batch([]) == []


def test_batch_traces_default_off_with_explicit_opt_in():
    scenario = _scenario()
    requests = synthetic_requests(scenario, 8, 4)
    silent = BatchPlanner.for_scenario(scenario, cache=PlanCache())
    plans = silent.plan_batch(requests)
    assert all(plan.result.trace is None for plan in plans)

    def session_plan(request, record_trace):
        return AdaptationSession(
            scenario.registry,
            scenario.parameters,
            scenario.catalog,
            scenario.placement,
            request,
            record_trace=record_trace,
        ).plan()

    def bare(result):
        return result.__class__(**{**result.__dict__, "trace": None, "stats": None})

    # A trace is opted into per session, and it never changes the plan:
    # everything the algorithm defines (path, formats, configuration,
    # satisfaction, cost, rounds) matches; only the trace observability
    # (and the memo-dependent stats) differ.
    for request, batch_plan in zip(requests, plans):
        traced = session_plan(request, record_trace=True)
        untraced = session_plan(request, record_trace=False)
        assert traced.result.trace is not None
        assert untraced.result.trace is None
        assert bare(traced.result) == bare(untraced.result)
        assert bare(traced.result) == bare(batch_plan.result)


def test_batch_shares_one_optimize_memo():
    scenario = _scenario()
    planner = BatchPlanner.for_scenario(scenario, cache=PlanCache())
    planner.plan_batch(synthetic_requests(scenario, 24, 8))
    memo_stats = planner.optimize_memo.stats
    # Eight distinct device classes over one infrastructure: later cache
    # misses replay relaxations solved by earlier ones.
    assert memo_stats.lookups > 0
    assert memo_stats.hits > 0
    assert memo_stats.entries <= memo_stats.misses


def test_plan_uncached_bypasses_optimize_memo():
    scenario = _scenario()
    planner = BatchPlanner.for_scenario(scenario, cache=PlanCache())
    planner.plan_batch(synthetic_requests(scenario, 10, 5), use_cache=False)
    # The from-scratch baseline must pay full cost: no memo traffic.
    assert planner.optimize_memo.stats.lookups == 0


def test_memoized_batch_equals_uncached_batch():
    scenario = _scenario()
    requests = synthetic_requests(scenario, 12, 6)
    planner = BatchPlanner.for_scenario(scenario, cache=PlanCache())
    cached = planner.plan_batch(requests)
    uncached = planner.plan_batch(requests, use_cache=False)
    for a, b in zip(cached, uncached):
        assert a.result == b.result


# ----------------------------------------------------------------------
# Probe, then finish
# ----------------------------------------------------------------------


def _policy_world():
    """A tiered scenario whose policy denies, forces a tier and skips."""
    scenario = generate_scenario(
        SyntheticConfig(seed=7, n_services=12, n_formats=8, n_nodes=8,
                        hw_tier_fraction=0.5)
    )
    source = scenario.content.format_names()[0]
    pinned = f"{scenario.device.device_id}-v0"
    scenario.policy = PolicyDocument(
        name="split",
        rules=(
            PolicyRule(rule_id="banned", action="deny",
                       predicates=(DeviceIn(("banned",)),)),
            PolicyRule(rule_id="pinned", action="force_tier", tier="hw",
                       predicates=(DeviceIn((pinned,)),)),
            PolicyRule(rule_id="native", action="skip",
                       predicates=(Decodes(source),), tolerance=0.05),
        ),
    )
    devices = []
    for variant in device_variants(scenario.device, 6):
        devices.append(variant)
        devices.append(DeviceProfile(
            device_id=f"{variant.device_id}-compat",
            decoders=[source] + list(variant.decoders),
            max_resolution=variant.max_resolution,
            max_color_depth=variant.max_color_depth,
            max_frame_rate=variant.max_frame_rate,
        ))
    devices.append(DeviceProfile(
        device_id="banned", decoders=list(scenario.device.decoders)
    ))
    return scenario, devices


def _policy_planner(scenario, cache_size=4):
    # A small cache so the stream evicts and misses again.
    return BatchPlanner.for_scenario(
        scenario,
        cache=PlanCache(max_entries=cache_size),
        policy_engine=PolicyEngine(scenario.policy),
        max_workers=1,
    )


def _answer_or_denial(plan_call, planner, request, view):
    try:
        plan, hit, decision = plan_call(planner, request, view)
    except PolicyDeniedError as exc:
        return "denied", exc.rule_id
    return plan.result, plan.result.stats, hit, decision


def test_probe_then_finish_matches_one_step_planning():
    # Skip, deny, force_tier, hit and miss over plain and masked views:
    # the split answers, and counts, exactly as one-step planning did.
    scenario, devices = _policy_world()
    first_transcoder = scenario.catalog.transcoders()[0].service_id
    masked = CatalogView(excluded=frozenset({first_transcoder}))
    rng = random.Random(11)
    stream = [
        (
            scenario.request(rng.choice(devices)),
            masked if rng.random() < 0.25 else None,
        )
        for _ in range(120)
    ]
    split = _policy_planner(scenario)
    one_step = _policy_planner(scenario)
    answers = []
    for request, view in stream:
        expected = _answer_or_denial(
            reference_plan_with_policy_info, one_step, request, view
        )
        got = _answer_or_denial(
            BatchPlanner.plan_with_policy_info, split, request, view
        )
        assert got == expected
        answers.append(got)
    assert split.cache.stats == one_step.cache.stats
    assert split.policy_engine.stats() == one_step.policy_engine.stats()

    def path(answer):
        if answer[0] == "denied":
            return "deny"
        _result, _stats, hit, decision = answer
        if decision is not None:
            return decision.kind
        return "hit" if hit else "miss"

    paths = {path(answer) for answer in answers}
    assert paths == {"deny", "skip", "force_tier", "hit", "miss"}
    assert split.cache.stats.evictions > 0


def test_probe_answers_hits_and_leaves_misses_to_the_caller():
    scenario, devices = _policy_world()
    planner = _policy_planner(scenario)
    request = scenario.request(devices[2])
    select = planner.probe(request)
    assert callable(select)
    assert planner.cache.stats.lookups == 0  # nothing counted until it runs
    plan, hit, decision = select()
    assert (hit, decision) == (False, None)
    assert planner.probe(request) == (plan, True, None)
    assert (planner.cache.stats.hits, planner.cache.stats.misses) == (1, 1)
    with pytest.raises(PolicyDeniedError):
        planner.probe(scenario.request(devices[-1]))


class _EvictAfterProbe(PlanCache):
    """Evicts everything right after a probe finds an entry."""

    def __contains__(self, fingerprint):
        found = super().__contains__(fingerprint)
        if found:
            self.clear()
        return found


def test_entry_evicted_after_the_probe_computes_on_the_calling_thread(
    monkeypatch,
):
    scenario, devices = _policy_world()
    planner = BatchPlanner.for_scenario(
        scenario, cache=_EvictAfterProbe(),
        policy_engine=PolicyEngine(scenario.policy), max_workers=1,
    )
    request = scenario.request(devices[2])
    first, _hit, _decision = planner.plan_with_policy_info(request)
    computed_on = []
    session_plan = AdaptationSession.plan

    def recording_plan(self, *args, **kwargs):
        computed_on.append(threading.get_ident())
        return session_plan(self, *args, **kwargs)

    monkeypatch.setattr(AdaptationSession, "plan", recording_plan)
    select = planner.probe(request)  # sees the entry, then loses it
    assert callable(select)
    assert computed_on == []  # not computed inline in the probe
    answers = []
    thread = threading.Thread(target=lambda: answers.append(select()))
    thread.start()
    thread.join()
    assert computed_on == [thread.ident]
    plan, hit, decision = answers[0]
    assert (plan.result, hit, decision) == (first.result, False, None)
    stats = planner.cache.stats
    assert (stats.hits, stats.misses) == (0, 2)  # one miss per lookup


# ----------------------------------------------------------------------
# Runtime wiring
# ----------------------------------------------------------------------


def test_planner_report_summary_and_rates():
    report = PlannerReport(
        sessions=100,
        successes=98,
        cache_hits=80,
        cache_misses=20,
        invalidations=3,
        evictions=1,
        elapsed_s=0.5,
    )
    assert report.hit_rate == 0.8
    assert report.throughput_per_s == 200.0
    text = report.summary()
    assert "100" in text
    assert "80.0% hit rate" in text
    zero = PlannerReport(0, 0, 0, 0, 0, 0, 0.0)
    assert zero.hit_rate == 0.0
    assert zero.throughput_per_s == 0.0
    assert zero.optimize_memo_hit_rate == 0.0


def test_planner_report_surfaces_optimize_counters():
    report = PlannerReport(
        sessions=10,
        successes=10,
        cache_hits=5,
        cache_misses=5,
        invalidations=0,
        evictions=0,
        elapsed_s=0.1,
        optimize_calls=400,
        optimize_memo_hits=300,
        settle_rounds=57,
    )
    assert report.optimize_memo_hit_rate == 0.75
    text = report.summary()
    assert "optimize calls:    400 (75.0% memoized)" in text
    assert "settle rounds:     57" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_plan_batch_runs_and_reports():
    out = io.StringIO()
    code = main(
        ["plan-batch", "--sessions", "40", "--distinct", "8", "--seed", "7"],
        out=out,
    )
    assert code == 0
    text = out.getvalue()
    assert "40 sessions" in text
    assert "cache hits:        32" in text
    assert "cache misses:      8" in text


def test_cli_plan_batch_compare_prints_speedup():
    out = io.StringIO()
    code = main(
        [
            "plan-batch",
            "--sessions", "30",
            "--distinct", "6",
            "--compare",
            "--workers", "4",
        ],
        out=out,
    )
    assert code == 0
    text = out.getvalue()
    assert "uncached:" in text
    assert "speedup:" in text
