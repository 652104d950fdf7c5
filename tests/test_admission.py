"""Tests for bandwidth reservations and admission on a simulation world."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.network.reservations import BandwidthLedger
from repro.network.topology import NetworkTopology
from repro.sim.arrivals import UniformArrivals
from repro.sim.runner import SimulationConfig, SimulationRun
from repro.sim.world import SimWorld
from repro.workloads.paper import figure6_scenario


def small_topology() -> NetworkTopology:
    topology = NetworkTopology()
    for node in ("a", "b", "c"):
        topology.node(node)
    topology.link("a", "b", 10e6)
    topology.link("b", "c", 4e6)
    return topology


class TestBandwidthLedger:
    def test_reserve_and_residual(self):
        ledger = BandwidthLedger(small_topology())
        ledger.reserve(["a", "b", "c"], 1e6)
        assert ledger.residual("a", "b") == pytest.approx(9e6)
        assert ledger.residual("b", "c") == pytest.approx(3e6)
        assert len(ledger) == 1

    def test_release_restores_capacity(self):
        ledger = BandwidthLedger(small_topology())
        reservation = ledger.reserve(["a", "b"], 2e6)
        ledger.release(reservation)
        assert ledger.residual("a", "b") == pytest.approx(10e6)
        assert len(ledger) == 0

    def test_double_release_rejected(self):
        ledger = BandwidthLedger(small_topology())
        reservation = ledger.reserve(["a", "b"], 1e6)
        ledger.release(reservation)
        with pytest.raises(ValidationError):
            ledger.release(reservation)

    def test_over_reservation_rejected_atomically(self):
        ledger = BandwidthLedger(small_topology())
        with pytest.raises(ValidationError):
            ledger.reserve(["a", "b", "c"], 5e6)  # b--c only has 4e6
        # The a--b leg must not have been charged.
        assert ledger.residual("a", "b") == pytest.approx(10e6)
        assert len(ledger) == 0

    def test_many_reservations_accumulate(self):
        ledger = BandwidthLedger(small_topology())
        for _ in range(4):
            ledger.reserve(["b", "c"], 1e6)
        assert ledger.residual("b", "c") == pytest.approx(0.0)
        with pytest.raises(ValidationError):
            ledger.reserve(["b", "c"], 0.5e6)

    def test_single_node_route_reserves_nothing(self):
        ledger = BandwidthLedger(small_topology())
        reservation = ledger.reserve(["a"], 5e6)
        assert ledger.residual("a", "b") == pytest.approx(10e6)
        ledger.release(reservation)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValidationError):
            BandwidthLedger(small_topology()).reserve(["a", "b"], -1.0)

    @pytest.mark.parametrize("route", [["a", "b"], ["a"]])
    def test_nan_bandwidth_rejected(self, route):
        # NaN passes a "< 0" check; reserved on a link it would pin the
        # residual at 0 for good.
        ledger = BandwidthLedger(small_topology())
        with pytest.raises(ValidationError):
            ledger.reserve(route, math.nan)
        assert len(ledger) == 0
        assert ledger.residual("a", "b") == 10e6

    def test_residual_topology_reflects_reservations(self):
        ledger = BandwidthLedger(small_topology())
        ledger.reserve(["a", "b"], 4e6)
        residual = ledger.residual_topology()
        assert residual.get_link("a", "b").bandwidth_bps == pytest.approx(6e6)
        assert residual.get_link("b", "c").bandwidth_bps == pytest.approx(4e6)
        # Delays and structure are preserved.
        assert residual.get_link("a", "b").delay_ms == pytest.approx(
            small_topology().get_link("a", "b").delay_ms
        )

    def test_residual_topology_is_one_live_object(self):
        ledger = BandwidthLedger(small_topology())
        residual = ledger.residual_topology()
        reservation = ledger.reserve(["a", "b"], 4e6)
        assert ledger.residual_topology() is residual
        assert residual.get_link("a", "b").bandwidth_bps == 6e6
        ledger.release(reservation)
        assert residual.get_link("a", "b").bandwidth_bps == 10e6

    def test_set_capacity_moves_the_residual_not_the_validation(self):
        ledger = BandwidthLedger(small_topology())
        generation = ledger.generation
        ledger.set_capacity("a", "b", 3e6)
        assert ledger.generation > generation
        ledger.reserve(["a", "b"], 2e6)
        assert ledger.residual_topology().get_link("a", "b").bandwidth_bps == 1e6
        # reserve validates against nominal capacity (10e6), not 3e6.
        ledger.reserve(["a", "b"], 5e6)
        assert ledger.residual_topology().get_link("a", "b").bandwidth_bps == 0.0
        assert ledger.residual("a", "b") == pytest.approx(3e6)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_set_capacity_rejects_negative_and_non_finite(self, bad):
        ledger = BandwidthLedger(small_topology())
        with pytest.raises(ValidationError):
            ledger.set_capacity("a", "b", bad)
        assert ledger.residual_topology().get_link("a", "b").bandwidth_bps == 10e6
        assert ledger.generation == 0

    def test_set_capacity_unknown_link_raises(self):
        with pytest.raises(Exception):
            BandwidthLedger(small_topology()).set_capacity("a", "c", 1e6)

    def test_unknown_link_query_raises(self):
        ledger = BandwidthLedger(small_topology())
        with pytest.raises(Exception):
            ledger.residual("a", "c")

    def test_supply_fraction_is_the_fair_share_of_current_capacity(self):
        ledger = BandwidthLedger(small_topology())
        ledger.reserve(["a", "b", "c"], 4e6)
        assert ledger.supply_fraction(("a", "b", "c")) == 1.0
        assert ledger.supply_fraction(("b",)) == 1.0
        ledger.set_capacity("b", "c", 1e6)  # squeezed below the 4e6 load
        assert ledger.supply_fraction(("a", "b", "c")) == 1e6 / 4e6
        assert ledger.supply_fraction(("a", "b")) == 1.0
        ledger.set_capacity("a", "b", 0.0)
        assert ledger.supply_fraction(("a", "b", "c")) == 0.0
        with pytest.raises(Exception):
            ledger.supply_fraction(("a", "c"))


class TestAdmissionOnFigure6:
    """E16's admission on a :class:`SimWorld`: :meth:`SimWorld.admit`
    plans on the live residual, rejects below the floor and reserves every
    hop; teardown releases the leases."""

    def _world(self):
        scenario = figure6_scenario()
        return SimWorld(scenario), scenario.request()

    def test_first_admission_matches_the_paper(self):
        world, request = self._world()
        admission = world.admit(request)
        assert admission.admitted
        assert admission.plan.result.path == ("sender", "T7", "receiver")
        assert admission.plan.result.satisfaction == pytest.approx(
            19.75 / 30.0, abs=1e-6
        )

    def test_later_admissions_see_less_capacity(self):
        world, request = self._world()
        first = world.admit(request).plan
        second = world.admit(request).plan
        # The first stream consumed most of the T7 access link, so the
        # second session composes a different (or slower) chain.
        assert second.result.satisfaction < first.result.satisfaction

    def test_admissions_monotonically_decrease(self):
        world, request = self._world()
        satisfactions = []
        for _ in range(6):
            admission = world.admit(request)
            if not admission.admitted:
                break
            satisfactions.append(admission.plan.result.satisfaction)
        assert len(satisfactions) >= 3
        assert satisfactions == sorted(satisfactions, reverse=True)

    def test_e16_ladder_is_pinned(self):
        """The full ``benchmarks/results/admission.txt`` ladder (floor 0.10)."""
        world, request = self._world()
        ladder = [
            (("sender", "T7", "receiver"), 0.658),
            (("sender", "T8", "receiver"), 0.533),
            (("sender", "T6", "receiver"), 0.517),
            (("sender", "T10", "T20", "receiver"), 0.507),
            (("sender", "T10", "receiver"), 0.493),
            (("sender", "T1", "T11", "receiver"), 0.417),
            (("sender", "T2", "T13", "receiver"), 0.413),
            (("sender", "T3", "T14", "receiver"), 0.407),
            (("sender", "T2", "T12", "receiver"), 0.350),
        ]
        admitted = []
        for path, satisfaction in ladder:
            admission = world.admit(request, floor=0.10)
            assert admission.admitted
            result = admission.plan.result
            assert (result.path, round(result.satisfaction, 3)) == (
                path,
                satisfaction,
            )
            admitted.append(admission)
        assert not world.admit(request, floor=0.10).admitted
        world.release(admitted[0].leases)
        revived = world.admit(request, floor=0.10).plan
        assert revived.result.path == ("sender", "T7", "receiver")
        assert round(revived.result.satisfaction, 3) == 0.658

    def test_satisfaction_floor_rejects(self):
        world, request = self._world()
        assert world.admit(request, floor=0.6).admitted  # 0.658
        rejected = world.admit(request, floor=0.6)  # none above 0.6
        assert rejected.rejection == "below floor"
        assert rejected.leases == []

    def test_invalid_floor_rejected(self):
        """The admission floor is a satisfaction, so it must lie in [0, 1]."""
        scenario = figure6_scenario()
        for floor in (1.5, -0.1, math.nan):
            with pytest.raises(ValidationError):
                SimulationConfig(scenario=scenario, admission_floor=floor)

    def test_teardown_restores_admissibility(self):
        world, request = self._world()
        first = world.admit(request, floor=0.6)
        assert not world.admit(request, floor=0.6).admitted
        world.release(first.leases)
        again = world.admit(request, floor=0.6)
        assert again.admitted
        assert again.plan.result.satisfaction == pytest.approx(
            first.plan.result.satisfaction
        )

    def test_teardown_all(self):
        world, request = self._world()
        sessions = [world.admit(request) for _ in range(2)]
        assert len(world.ledger) == sum(len(s.leases) for s in sessions)
        for admission in sessions:
            world.release(admission.leases)
        assert len(world.ledger) == 0
        assert (
            world.ledger.residual_topology().links()
            == world.scenario.topology.links()
        )

    def test_unknown_teardown_rejected(self):
        world, request = self._world()
        leases = world.admit(request).leases
        world.release(leases)
        with pytest.raises(ValidationError):
            world.release(leases)

    def test_rejection_reserves_nothing(self):
        world, request = self._world()
        admission = world.admit(request, floor=0.99)
        assert admission.rejection == "below floor"
        assert admission.plan is not None  # planned, then refused
        assert len(world.ledger) == 0


def test_simulated_arrival_below_floor_is_rejected():
    """A simulated arrival admits through the same floor: on Figure 6 with
    floor 0.6 the first viewer streams T7 (S 0.658) and the second, which
    arrives while it does, is refused without booking anything."""
    run = SimulationRun(
        SimulationConfig(
            scenario=figure6_scenario(),
            sessions=2,
            device_classes=1,
            arrivals=UniformArrivals(over_s=1.0),
            duration_jitter=0.0,
            admission_floor=0.6,
        )
    )
    run.sim.run(until_s=1.5)
    rejects = [str(event) for event in run.sim.trace.in_category("reject")]
    assert len(rejects) == 1 and rejects[0].endswith("session 2: below floor")
    assert {r.label for r in run.world.ledger.active_reservations()} == {
        "session-1"
    }
    report = run.execute()
    assert (report.admitted, report.rejected) == (1, 1)
    assert len(run.world.ledger) == 0
