"""Property-based tests (hypothesis) on the circuit-breaker state machine.

The breaker guards the serving path, so its invariants are checked
adversarially rather than by example:

- only the four legal transitions ever appear in a trace, no matter what
  outcome/time stream drives the breaker (in particular CLOSED ->
  HALF_OPEN and OPEN -> CLOSED never occur);
- HALF_OPEN reaches a verdict (CLOSED or OPEN) within
  ``PROBES_TO_CLOSE`` outcomes: it closes iff every probe succeeds;
- an open threshold above the alternation supremum keeps adversarial
  alternating outcome streams from ever flapping the breaker at the
  defaults;
- a fixed seed yields a bit-identical transition trace (including the
  jittered cooldown instants), which is what the sim's determinism gate
  and the E21 benchmark digests rely on;
- ``apply_remote`` always converges on the peer's verdict by walking
  legal intermediate states.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.serve import health
from repro.serve.health import (
    BreakerState,
    CircuitBreaker,
    HealthConfig,
    HealthRegistry,
)

LEGAL = {
    ("closed", "open"),
    ("open", "half_open"),
    ("half_open", "closed"),
    ("half_open", "open"),
}

#: Outcome streams: (success, seconds since the previous report).
outcome_streams = st.lists(
    st.tuples(
        st.booleans(),
        st.floats(
            min_value=0.0,
            max_value=30.0,
            allow_nan=False,
            allow_infinity=False,
        ),
    ),
    max_size=200,
)


def drive(breaker: CircuitBreaker, stream) -> float:
    now = 0.0
    for success, dt in stream:
        now += dt
        breaker.report(success, now)
    return now


class TestLegalTransitionsOnly:
    @given(stream=outcome_streams, seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_any_stream_yields_only_legal_transitions(self, stream, seed):
        trace = []
        breaker = CircuitBreaker(
            "svc",
            HealthConfig(min_samples=2, cooldown_s=0.5, seed=seed),
            trace.append,
        )
        drive(breaker, stream)  # raises RuntimeError on an illegal jump
        for record in trace:
            assert (record.old, record.new) in LEGAL
        # The two forbidden edges, stated explicitly:
        assert ("closed", "half_open") not in {
            (r.old, r.new) for r in trace
        }
        assert ("open", "closed") not in {(r.old, r.new) for r in trace}

    @given(stream=outcome_streams)
    @settings(max_examples=100, deadline=None)
    def test_registry_quarantine_is_exactly_the_open_set(self, stream):
        registry = HealthRegistry(HealthConfig(min_samples=2, cooldown_s=0.5))
        now = 0.0
        for index, (success, dt) in enumerate(stream):
            now += dt
            registry.report(f"svc{index % 3}", success, now)
            open_set = registry.quarantined(now)
            states = registry.states()
            assert open_set == frozenset(
                sid
                for sid, state in states.items()
                if state is BreakerState.OPEN
            )


class TestHalfOpenVerdict:
    @given(
        open_threshold=st.floats(0.4, 0.99),
        outcomes=st.lists(
            st.booleans(),
            min_size=health.PROBES_TO_CLOSE,
            max_size=health.PROBES_TO_CLOSE,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_half_open_settles_within_probes_to_close_reports(
        self, open_threshold, outcomes, seed
    ):
        config = HealthConfig(
            open_threshold=open_threshold,
            min_samples=1,
            cooldown_s=1.0,
            cooldown_jitter=0.0,
            seed=seed,
        )
        trace = []
        breaker = CircuitBreaker("svc", config, trace.append)
        now = 0.0
        while breaker.state is BreakerState.CLOSED:
            breaker.report(False, now)
            now += 0.001
        breaker.tick(2.0)
        assert breaker.state is BreakerState.HALF_OPEN
        for step, success in enumerate(outcomes):
            breaker.report(success, 2.0 + 0.01 * step)
            if breaker.state is not BreakerState.HALF_OPEN:
                break
        assert breaker.state in (BreakerState.CLOSED, BreakerState.OPEN)
        assert breaker.probes_used <= health.PROBES_TO_CLOSE
        assert trace[-1].old == "half_open"
        expected = "closed" if all(outcomes) else "open"
        assert trace[-1].new == expected

    def test_successful_probes_close_and_reset_the_detector(self):
        config = HealthConfig(
            min_samples=2, cooldown_s=1.0, cooldown_jitter=0.0, seed=9
        )
        breaker = CircuitBreaker("svc", config)
        for step in range(8):
            breaker.report(False, 0.1 * step)
        assert breaker.state is BreakerState.OPEN
        now = breaker.open_until + 0.001
        for step in range(health.PROBES_TO_CLOSE):
            breaker.report(True, now + 0.01 * step)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.ewma == 0.0  # fresh detector after recovery
        assert breaker.samples == 0


class TestHysteresis:
    @given(
        length=st.integers(0, 500),
        start_with_failure=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_alternating_stream_never_flaps_at_defaults(
        self, length, start_with_failure
    ):
        # A strictly alternating stream's EWMA supremum at alpha=0.3 is
        # ~0.588 — strictly below the 0.7 open threshold, so the breaker
        # must never leave CLOSED however long the stream.
        trace = []
        breaker = CircuitBreaker("svc", HealthConfig(), trace.append)
        for index in range(length):
            success = (index % 2 == 0) != start_with_failure
            breaker.report(success, 0.5 * index)
        assert breaker.state is BreakerState.CLOSED
        assert trace == []

    def test_open_threshold_range_is_floor_exclusive_to_one(self):
        floor = health.OPEN_THRESHOLD_FLOOR
        for accepted in (floor + 1e-9, 0.7, 1.0):
            assert HealthConfig(open_threshold=accepted).open_threshold == (
                accepted
            )
        for refused in (floor, 0.1, 1.0 + 1e-9):
            with pytest.raises(ValidationError):
                HealthConfig(open_threshold=refused)

    def test_sustained_failures_do_open(self):
        breaker = CircuitBreaker("svc", HealthConfig())
        for index in range(10):
            breaker.report(False, 0.5 * index)
        assert breaker.state is BreakerState.OPEN

    def test_min_samples_guards_the_first_failures(self):
        breaker = CircuitBreaker("svc", HealthConfig(min_samples=5))
        for index in range(4):
            breaker.report(False, 0.1 * index)
        # EWMA is far over the threshold but the sample floor holds.
        assert breaker.ewma > HealthConfig().open_threshold
        assert breaker.state is BreakerState.CLOSED


class TestDeterminism:
    @given(
        stream=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.booleans(),
                st.floats(
                    min_value=0.0,
                    max_value=10.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            max_size=150,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_fixed_seed_trace_is_bit_identical(self, stream, seed):
        def run():
            registry = HealthRegistry(
                HealthConfig(min_samples=2, cooldown_s=0.5, seed=seed)
            )
            now = 0.0
            for service, success, dt in stream:
                now += dt
                registry.report(f"svc{service}", success, now)
            return registry

        first, second = run(), run()
        assert first.trace_digest() == second.trace_digest()
        assert first.transitions() == second.transitions()
        # Jittered cooldowns are part of the determinism contract too.
        for sid in first.tracked():
            assert (
                first.breaker(sid).open_until
                == second.breaker(sid).open_until
            )

    def test_different_seeds_jitter_cooldowns_apart(self):
        def open_until(seed):
            breaker = CircuitBreaker(
                "svc", HealthConfig(min_samples=1, seed=seed)
            )
            for index in range(5):
                breaker.report(False, 0.0)
            return breaker.open_until

        assert open_until(1) != open_until(2)


class TestRemoteApply:
    targets = st.sampled_from(["closed", "open", "half_open"])

    @given(applies=st.lists(st.tuples(st.integers(0, 1), targets),
                            max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_apply_remote_always_converges_legally(self, applies):
        trace = []
        registry = HealthRegistry(
            HealthConfig(cooldown_s=1000.0, cooldown_jitter=0.0),
            on_transition=trace.append,
        )
        for index, (service, target) in enumerate(applies):
            sid = f"svc{service}"
            registry.apply_remote(sid, target, float(index))
            assert registry.breaker(sid).state.value == target
        # Remote applies converge silently: the registry must not have
        # re-broadcast any of them through its callback.
        assert trace == []
