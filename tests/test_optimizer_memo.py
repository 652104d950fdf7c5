"""Unit tests for the bounded Optimize() memo and its wiring."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.configuration import FIT_SLACK, Configuration
from repro.core.optimizer import (
    ConfigurationOptimizer,
    OptimizationConstraints,
    OptimizeMemo,
)
from repro.core.parameters import (
    COLOR_DEPTH,
    FRAME_RATE,
    RESOLUTION,
    standard_parameters,
)
from repro.core.satisfaction import (
    CombinedSatisfaction,
    HarmonicCombiner,
    LinearSatisfaction,
)
from repro.errors import ValidationError
from repro.formats.format import MediaFormat


def make_optimizer(memo=None, ideal=30.0, degrade_order=None):
    satisfaction = CombinedSatisfaction(
        {FRAME_RATE: LinearSatisfaction(5.0, ideal)}, HarmonicCombiner()
    )
    return ConfigurationOptimizer(
        standard_parameters(), satisfaction, degrade_order, memo=memo
    )


def make_constraints(bandwidth_bps=2e6, frame_rate=30.0):
    return OptimizationConstraints(
        upstream=Configuration(
            {FRAME_RATE: frame_rate, RESOLUTION: 307_200.0, COLOR_DEPTH: 24.0}
        ),
        caps={FRAME_RATE: 60.0, RESOLUTION: 307_200.0, COLOR_DEPTH: 24.0},
        fmt=MediaFormat(name="memo-fmt", compression_ratio=50.0),
        bandwidth_bps=bandwidth_bps,
    )


class TestOptimizeMemo:
    def test_repeated_call_hits_and_returns_equal_choice(self):
        memo = OptimizeMemo()
        optimizer = make_optimizer(memo=memo)
        first = optimizer.optimize(make_constraints())
        second = optimizer.optimize(make_constraints())
        assert first == second
        assert optimizer.optimize_calls == 2
        assert optimizer.memo_hits == 1
        assert memo.stats.hits == 1 and memo.stats.misses == 1

    def test_memo_shared_across_optimizers_with_same_context(self):
        memo = OptimizeMemo()
        make_optimizer(memo=memo).optimize(make_constraints())
        other = make_optimizer(memo=memo)
        other.optimize(make_constraints())
        assert other.memo_hits == 1

    def test_different_context_never_collides(self):
        # Same constraints, different satisfaction function: the context
        # fingerprint must separate the entries.
        memo = OptimizeMemo()
        a = make_optimizer(memo=memo, ideal=30.0).optimize(make_constraints(5e5))
        b = make_optimizer(memo=memo, ideal=60.0).optimize(make_constraints(5e5))
        assert memo.stats.misses == 2 and memo.stats.hits == 0
        assert a is not None and b is not None
        assert a.satisfaction != b.satisfaction

    def test_degrade_order_is_part_of_the_context(self):
        memo = OptimizeMemo()
        make_optimizer(memo=memo, degrade_order=[RESOLUTION]).optimize(
            make_constraints()
        )
        other = make_optimizer(memo=memo, degrade_order=[COLOR_DEPTH])
        other.optimize(make_constraints())
        assert other.memo_hits == 0

    def test_none_result_is_memoized(self):
        # A resolution cap below the smallest discrete domain value leaves
        # no feasible configuration: optimize() returns None, and the
        # second call must hit the memo without recomputing.
        infeasible = OptimizationConstraints(
            upstream=Configuration(
                {FRAME_RATE: 30.0, RESOLUTION: 307_200.0, COLOR_DEPTH: 24.0}
            ),
            caps={RESOLUTION: 1.0},
            fmt=MediaFormat(name="memo-fmt", compression_ratio=50.0),
            bandwidth_bps=2e6,
        )
        memo = OptimizeMemo()
        optimizer = make_optimizer(memo=memo)
        assert optimizer.optimize(infeasible) is None
        assert optimizer.optimize(infeasible) is None
        assert optimizer.memo_hits == 1

    def test_lru_eviction_is_bounded(self):
        memo = OptimizeMemo(max_entries=2)
        optimizer = make_optimizer(memo=memo)
        for rate in (10.0, 20.0, 30.0):
            optimizer.optimize(make_constraints(frame_rate=rate))
        assert len(memo) == 2
        assert memo.stats.evictions == 1
        # The oldest entry (rate=10) was evicted: re-solving it misses.
        optimizer.optimize(make_constraints(frame_rate=10.0))
        assert optimizer.memo_hits == 0

    def test_clear_empties_entries(self):
        memo = OptimizeMemo()
        optimizer = make_optimizer(memo=memo)
        optimizer.optimize(make_constraints())
        memo.clear()
        assert len(memo) == 0
        optimizer.optimize(make_constraints())
        assert optimizer.memo_hits == 0

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValidationError):
            OptimizeMemo(max_entries=0)

    def test_no_memo_counts_calls_without_hits(self):
        optimizer = make_optimizer()
        optimizer.optimize(make_constraints())
        optimizer.optimize(make_constraints())
        assert optimizer.optimize_calls == 2
        assert optimizer.memo_hits == 0

    def test_memoized_equals_fresh(self):
        memo = OptimizeMemo()
        for bandwidth in (1e4, 1e5, 5e5, 2e6):
            fresh = make_optimizer().optimize(make_constraints(bandwidth))
            memoized = make_optimizer(memo=memo).optimize(
                make_constraints(bandwidth)
            )
            assert fresh == memoized

    def test_stats_hit_rate(self):
        memo = OptimizeMemo()
        assert memo.stats.hit_rate == 0.0
        optimizer = make_optimizer(memo=memo)
        optimizer.optimize(make_constraints())
        optimizer.optimize(make_constraints())
        optimizer.optimize(make_constraints())
        assert memo.stats.hit_rate == pytest.approx(2 / 3)


# ----------------------------------------------------------------------
# One entry per (context, upstream, caps, format): the bandwidth is not
# part of the key, so every bandwidth that carries the ceiling is a hit.
# ----------------------------------------------------------------------
def make_rich_optimizer(memo=None):
    satisfaction = CombinedSatisfaction(
        {
            FRAME_RATE: LinearSatisfaction(5.0, 30.0),
            RESOLUTION: LinearSatisfaction(10_000.0, 307_200.0),
        },
        HarmonicCombiner(),
    )
    return ConfigurationOptimizer(
        standard_parameters(), satisfaction, [COLOR_DEPTH, RESOLUTION], memo=memo
    )


def ceiling_requirement(factory, constraints_at):
    """The bandwidth the ceiling configuration needs (memo-free)."""
    ceiling = factory().optimize(constraints_at(math.inf))
    assert ceiling is not None
    return ceiling.required_bandwidth_bps


def boundary_bandwidths(required):
    """Bandwidths around the Equation 2 boundary of ``required``."""
    edge = required / FIT_SLACK
    points = {
        edge,
        math.nextafter(edge, 0.0),
        math.nextafter(edge, math.inf),
        required,
        math.nextafter(required, 0.0),
        math.nextafter(required, math.inf),
        required * 2.0,
    }
    # Below the ceiling: partial solves, down to links nothing fits.
    points.update(required * f for f in (0.9, 0.5, 0.25, 0.1, 0.01, 1e-4, 1e-6))
    return sorted(points)


FACTORIES = {
    "single": (make_optimizer, make_constraints),
    "rich": (
        make_rich_optimizer,
        lambda bw: make_constraints(bandwidth_bps=bw, frame_rate=25.0),
    ),
}


class TestCeilingKeyedMemo:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_warmed_at_other_bandwidths_equals_memo_free(self, name, order):
        factory, constraints_at = FACTORIES[name]
        bandwidths = boundary_bandwidths(
            ceiling_requirement(factory, constraints_at)
        )
        warm = list(bandwidths)
        if order == "descending":
            warm.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(warm)
        for skip in range(len(bandwidths)):
            memo = OptimizeMemo()
            warmer = factory(memo=memo)
            for bandwidth in warm:
                if bandwidth != bandwidths[skip]:
                    warmer.optimize(constraints_at(bandwidth))
            probe = bandwidths[skip]
            fresh = factory().optimize(constraints_at(probe))
            memoized = factory(memo=memo).optimize(constraints_at(probe))
            assert memoized == fresh, probe
            assert (memoized is None) == (fresh is None), probe

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_every_bandwidth_that_carries_the_ceiling_is_a_hit(self, name):
        factory, constraints_at = FACTORIES[name]
        ceiling = factory().optimize(constraints_at(math.inf))
        required = ceiling.required_bandwidth_bps
        bandwidths = boundary_bandwidths(required)
        # The slack matters: some bandwidth below the requirement carries it.
        assert any(b < required <= b * FIT_SLACK for b in bandwidths)
        memo = OptimizeMemo()
        factory(memo=memo).optimize(constraints_at(math.inf))
        assert len(memo) == 1
        for bandwidth in bandwidths:
            carries = required <= bandwidth * FIT_SLACK
            fresh = factory().optimize(constraints_at(bandwidth))
            if carries:
                assert fresh == ceiling
            probe = factory(memo=memo)
            assert probe.optimize(constraints_at(bandwidth)) == fresh
            assert probe.memo_hits == int(carries), bandwidth

    def test_ceiling_bandwidths_share_one_entry(self):
        memo = OptimizeMemo()
        optimizer = make_optimizer(memo=memo)
        required = ceiling_requirement(make_optimizer, make_constraints)
        for factor in (1.0, 1.5, 2.0, 10.0, 1e6):
            optimizer.optimize(make_constraints(required * factor))
        assert len(memo) == 1
        assert memo.stats.misses == 1 and memo.stats.hits == 4

    def test_none_ceiling_answers_every_bandwidth(self):
        infeasible = lambda bw: OptimizationConstraints(  # noqa: E731
            upstream=Configuration(
                {FRAME_RATE: 30.0, RESOLUTION: 307_200.0, COLOR_DEPTH: 24.0}
            ),
            caps={RESOLUTION: 1.0},
            fmt=MediaFormat(name="memo-fmt", compression_ratio=50.0),
            bandwidth_bps=bw,
        )
        memo = OptimizeMemo()
        optimizer = make_optimizer(memo=memo)
        for bandwidth in (1.0, 1e6, math.inf):
            assert optimizer.optimize(infeasible(bandwidth)) is None
        assert optimizer.memo_hits == 2 and len(memo) == 1

    def test_below_ceiling_answers_count_towards_the_bound(self):
        memo = OptimizeMemo(max_entries=3)
        optimizer = make_optimizer(memo=memo)
        required = ceiling_requirement(make_optimizer, make_constraints)
        for factor in (0.9, 0.8, 0.7):
            optimizer.optimize(make_constraints(required * factor))
        assert len(memo) == 3 and memo.stats.evictions == 0
        optimizer.optimize(make_constraints(required * 0.6))
        # Four answers below one ceiling weigh 4 > 3: the entry goes.
        assert len(memo) == 0 and memo.stats.evictions == 1
        assert memo.stats.hits + memo.stats.misses == optimizer.optimize_calls


@settings(max_examples=60, deadline=None)
@given(
    max_entries=st.integers(min_value=1, max_value=6),
    calls=st.lists(
        st.tuples(
            st.sampled_from([10.0, 20.0, 30.0]),  # upstream frame rate
            st.sampled_from([1e-3, 0.1, 0.5, 0.8, 1.0 / FIT_SLACK, 1.0, 3.0]),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_memo_accounting_and_answers_under_any_call_sequence(max_entries, calls):
    """``hits + misses == calls``, the bound holds after every call, and
    every answer equals the memo-free optimizer's."""
    memo = OptimizeMemo(max_entries=max_entries)
    optimizer = make_rich_optimizer(memo=memo)
    fresh = make_rich_optimizer()
    ceilings = {}
    for rate, factor in calls:
        if rate not in ceilings:
            ceilings[rate] = fresh.optimize(
                make_constraints(math.inf, frame_rate=rate)
            ).required_bandwidth_bps
        constraints = make_constraints(ceilings[rate] * factor, frame_rate=rate)
        assert optimizer.optimize(constraints) == fresh.optimize(constraints)
        assert len(memo) <= max_entries
        stats = memo.stats
        assert stats.hits + stats.misses == optimizer.optimize_calls
        assert stats.hits == optimizer.memo_hits
        assert stats.entries == len(memo)


def test_upstream_assignment_order_is_part_of_the_key():
    """Phase 1 reduces tied free parameters in the upstream's assignment
    order, so a memo warmed by one order must not answer for another."""
    values = {FRAME_RATE: 30.0, RESOLUTION: 307_200.0, COLOR_DEPTH: 24.0}
    fmt = MediaFormat(name="memo-fmt", compression_ratio=50.0)

    def constraints(order):
        return OptimizationConstraints(
            upstream=Configuration({name: values[name] for name in order}),
            caps={},
            fmt=fmt,
            bandwidth_bps=1e6,
        )

    forward = constraints([FRAME_RATE, RESOLUTION, COLOR_DEPTH])
    swapped = constraints([FRAME_RATE, COLOR_DEPTH, RESOLUTION])
    fresh = make_optimizer().optimize(swapped)
    assert fresh != make_optimizer().optimize(forward)
    memo = OptimizeMemo()
    make_optimizer(memo=memo).optimize(forward)
    assert make_optimizer(memo=memo).optimize(swapped) == fresh
    assert memo.stats.hits == 0
