"""Unit tests for the discrete-event core: clock, heap, trace digest."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0
        assert sim.events_processed == 3

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule_at(5.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_priority_beats_schedule_order_at_equal_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("late"), priority=1)
        sim.schedule_at(1.0, lambda: fired.append("early"), priority=0)
        sim.run()
        assert fired == ["early", "late"]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule_at(2.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(ValidationError):
            sim.run()

    def test_relative_schedule_uses_current_clock(self):
        sim = Simulator()
        times = []
        sim.schedule_at(2.0, lambda: sim.schedule(1.5, lambda: times.append(sim.now)))
        sim.run()
        assert times == [3.5]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def cascade():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, cascade)

        sim.schedule_at(0.0, cascade)
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestRunBounds:
    def test_until_leaves_later_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until_s=5.0)
        assert fired == [1]
        assert sim.pending == 1


class TestTrace:
    def test_digest_covers_all_events_despite_ring(self):
        """The running digest sees every record even after the ring drops."""
        bounded = Simulator(trace_capacity=2)
        unbounded = Simulator()
        for sim in (bounded, unbounded):
            for i in range(6):
                sim.schedule_at(float(i), lambda s=sim, k=i: s.record("tick", str(k)))
            sim.run()
        assert bounded.trace.dropped == 4
        assert len(bounded.trace) == 2
        assert bounded.trace_digest() == unbounded.trace_digest()

    def test_identical_runs_identical_digest(self):
        def build():
            sim = Simulator()
            for i in range(4):
                sim.schedule_at(float(i), lambda s=sim, k=i: s.record("e", f"m{k}"))
            sim.run()
            return sim.trace_digest()

        assert build() == build()

    def test_different_runs_different_digest(self):
        a, b = Simulator(), Simulator()
        a.schedule_at(0.0, lambda: a.record("e", "one"))
        b.schedule_at(0.0, lambda: b.record("e", "two"))
        a.run()
        b.run()
        assert a.trace_digest() != b.trace_digest()

    def test_digest_readable_mid_run(self):
        sim = Simulator()
        sim.schedule_at(0.0, lambda: sim.record("e", "x"))
        before = sim.trace_digest()
        sim.run()
        assert sim.trace_digest() != before
