"""Concurrency stress tests: shared cache and shared reservation table.

Many threads hammer one :class:`PlanCache` and one
:class:`BandwidthLedger`; afterwards the books must balance exactly:

- cache: lookups = hits + misses, misses = distinct fingerprints
  (single-flight: no duplicate computation), and every caller of the same
  fingerprint got the *same* plan object (no torn entries);
- ledger: per-link reserved bandwidth equals the sum over active
  reservations, no link exceeds capacity, and releasing everything drains
  the table to zero;
- optimize memo: every ``Optimize()`` call of every plan is exactly one
  memo hit or miss, the memo never exceeds its bound, and its answers
  leave every plan equal to the memo-free one.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.graph import CatalogView
from repro.core.optimizer import OptimizeMemo
from repro.errors import ValidationError
from repro.network.reservations import BandwidthLedger
from repro.planner import BatchPlanner, PlanCache, synthetic_requests
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

N_THREADS = 16


def _scenario(seed=7):
    return generate_scenario(
        SyntheticConfig(seed=seed, n_services=12, n_formats=8, n_nodes=8)
    )


def test_concurrent_cache_is_single_flight_and_untorn():
    scenario = _scenario()
    cache = PlanCache(max_entries=256)
    planner = BatchPlanner.for_scenario(scenario, cache=cache)
    n_distinct = 8
    requests = synthetic_requests(scenario, 25 * N_THREADS, n_distinct)
    barrier = threading.Barrier(N_THREADS)
    per_thread = len(requests) // N_THREADS

    def worker(thread_index):
        barrier.wait()  # maximize contention on the first misses
        chunk = requests[thread_index * per_thread:(thread_index + 1) * per_thread]
        return [(planner.fingerprint(r), planner.plan(r)) for r in chunk]

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        results = list(pool.map(worker, range(N_THREADS)))

    by_fingerprint = {}
    total = 0
    for chunk in results:
        for fingerprint, plan in chunk:
            total += 1
            by_fingerprint.setdefault(fingerprint, []).append(plan)
    assert total == len(requests)
    assert len(by_fingerprint) == n_distinct
    # No torn entries: every caller of a fingerprint saw one object.
    for plans in by_fingerprint.values():
        assert all(plan is plans[0] for plan in plans)
        assert plans[0].success
    stats = cache.stats
    # planner.plan() accounts one hit or miss per call; single-flight
    # means exactly one miss (one computation) per distinct fingerprint.
    assert stats.hits + stats.misses == total
    assert stats.misses == n_distinct
    assert stats.entries == n_distinct


def test_concurrent_shared_memo_counts_every_call_and_stays_bounded():
    scenario = _scenario(seed=9)
    memo = OptimizeMemo(max_entries=24)
    planner = BatchPlanner.for_scenario(
        scenario, cache=PlanCache(), optimize_memo=memo
    )
    requests = synthetic_requests(scenario, 4, 4)

    def scaled_view(thread_index):
        # Each thread plans on its own bandwidths, so the threads share
        # memo keys at different bandwidths (some above, some below the
        # ceilings) and no two plans share a cache fingerprint.
        topology = scenario.topology.copy()
        scale = 0.25 + 0.125 * thread_index
        for link in topology.links():
            topology.set_bandwidth(link.a, link.b, link.bandwidth_bps * scale)
        return CatalogView(topology=topology)

    views = [scaled_view(i) for i in range(N_THREADS)]
    barrier = threading.Barrier(N_THREADS)

    def worker(thread_index):
        barrier.wait()
        plans = []
        for request in requests:
            plans.append(planner.plan(request, views[thread_index]))
            assert len(memo) <= memo.max_entries
        return plans

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        results = list(pool.map(worker, range(N_THREADS)))

    plans = [plan for chunk in results for plan in chunk]
    assert len({id(plan) for plan in plans}) == len(plans)  # all computed
    stats = memo.stats
    calls = sum(plan.result.stats.optimize_calls for plan in plans)
    hits = sum(plan.result.stats.optimize_memo_hits for plan in plans)
    assert calls > 0 and hits > 0
    assert stats.hits + stats.misses == calls
    assert stats.hits == hits
    assert stats.entries == len(memo) <= memo.max_entries

    memo_free = BatchPlanner.for_scenario(scenario, optimize_memo=None)
    for thread_index, chunk in enumerate(results):
        for request, plan in zip(requests, chunk):
            fresh = memo_free._plan_fresh(
                request, optimize_memo=None, view=views[thread_index]
            )
            assert plan.result == fresh.result


def _hop_demands(scenario, request, plan):
    """``(route, bandwidth)`` per streaming hop of a planned chain."""
    result = plan.result
    nodes = {"sender": request.sender_node, "receiver": request.receiver_node}

    def node_of(service_id):
        return nodes.get(service_id) or scenario.placement.node_of(service_id)

    demands = []
    for source, target, fmt_name in zip(
        result.path, result.path[1:], result.formats
    ):
        a, b = node_of(source), node_of(target)
        route = [a] if a == b else scenario.topology.widest_path(a, b)
        fmt = scenario.registry.get(fmt_name)
        demands.append((route, result.configuration.required_bandwidth(fmt)))
    return demands


def test_concurrent_admission_never_oversubscribes_links():
    scenario = _scenario(seed=11)
    ledger = BandwidthLedger(scenario.topology)
    planner = BatchPlanner.for_scenario(scenario)
    requests = synthetic_requests(scenario, 4, 4)
    chains = [
        _hop_demands(scenario, request, plan)
        for request, plan in zip(requests, planner.plan_batch(requests))
        if plan.success
    ]
    assert any(len(route) > 1 for chain in chains for route, _ in chain)

    def admit(attempt):
        # All-or-nothing per chain: a hop the ledger refuses rolls the
        # chain's earlier hops back.
        taken = []
        for route, bandwidth in chains[attempt % len(chains)]:
            try:
                taken.append(ledger.reserve(route, bandwidth))
            except ValidationError:
                for reservation in taken:
                    ledger.release(reservation)
                return None
        return taken

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        admitted = [s for s in pool.map(admit, range(3 * N_THREADS)) if s]

    assert admitted, "stress scenario admitted nothing; rebalance the config"
    assert len(admitted) < 3 * N_THREADS, "nothing contended; shrink the links"
    assert len(ledger) == sum(len(session) for session in admitted)

    # Per-link accounting: reserved == sum of active claims, and no claim
    # pushed a link past its capacity (the 1e-9 slack absorbs exact fits).
    expected = {}
    for session in admitted:
        for reservation in session:
            for link_key in reservation.links():
                expected[link_key] = (
                    expected.get(link_key, 0.0) + reservation.bandwidth_bps
                )
    for (a, b), demand in expected.items():
        assert abs(ledger.reserved_on(a, b) - demand) < 1e-6
        capacity = scenario.topology.get_link(a, b).bandwidth_bps
        assert demand <= capacity * (1.0 + 1e-6)

    # Duplicate-reservation check: every reservation id is unique.
    ids = [r.reservation_id for session in admitted for r in session]
    assert len(ids) == len(set(ids))

    for session in admitted:
        for reservation in session:
            ledger.release(reservation)
    assert len(ledger) == 0
    for a, b in expected:
        assert ledger.reserved_on(a, b) == 0.0
    assert ledger.residual_topology().links() == scenario.topology.links()


def test_concurrent_reserve_release_keeps_ledger_consistent():
    scenario = _scenario(seed=3)
    ledger = BandwidthLedger(scenario.topology)
    link = scenario.topology.links()[0]
    route = [link.a, link.b]
    slice_bps = link.bandwidth_bps / (4 * N_THREADS)
    failures = []

    def churn(_):
        local = []
        for _ in range(20):
            try:
                local.append(ledger.reserve(route, slice_bps))
            except Exception as exc:  # over-capacity under contention is legal
                failures.append(exc)
            if len(local) >= 2:
                ledger.release(local.pop(0))
        for reservation in local:
            ledger.release(reservation)

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(churn, range(N_THREADS)))

    # Whatever interleaving happened, full release drains the link.
    assert len(ledger) == 0
    assert ledger.reserved_on(link.a, link.b) == 0.0
    assert ledger.residual(link.a, link.b) == link.bandwidth_bps
    live = ledger.residual_topology().get_link(link.a, link.b)
    assert live.bandwidth_bps == link.bandwidth_bps


def test_deterministic_plans_across_thread_counts():
    scenario = _scenario(seed=5)
    requests = synthetic_requests(scenario, 24, 6)

    def run(workers):
        planner = BatchPlanner.for_scenario(
            scenario, cache=PlanCache(), max_workers=workers
        )
        return [
            (
                plan.result.path,
                plan.result.formats,
                plan.result.satisfaction,
            )
            for plan in planner.plan_batch(requests)
        ]

    assert run(1) == run(4) == run(16)
