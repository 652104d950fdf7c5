"""Tests for bandwidth reservations and admission control."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.network.reservations import BandwidthLedger
from repro.network.topology import NetworkTopology
from repro.runtime.admission import AdmissionController
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


class TestAdmissionOnFigure6:
    def _controller(self, min_satisfaction=0.0):
        scenario = figure6_scenario()
        controller = AdmissionController(
            registry=scenario.registry,
            parameters=scenario.parameters,
            catalog=scenario.catalog,
            placement=scenario.placement,
            min_satisfaction=min_satisfaction,
        )
        return scenario, controller

    def _admit(self, scenario, controller):
        return controller.admit(
            content=scenario.content,
            device=scenario.device,
            user=scenario.user,
            sender_node=scenario.sender_node,
            receiver_node=scenario.receiver_node,
        )

    def test_first_admission_matches_the_paper(self):
        scenario, controller = self._controller()
        session = self._admit(scenario, controller)
        assert session is not None
        assert session.result.path == ("sender", "T7", "receiver")
        assert session.satisfaction == pytest.approx(19.75 / 30.0, abs=1e-6)

    def test_later_admissions_see_less_capacity(self):
        scenario, controller = self._controller()
        first = self._admit(scenario, controller)
        second = self._admit(scenario, controller)
        assert first is not None and second is not None
        # The first stream consumed most of the T7 access link, so the
        # second session composes a different (or slower) chain.
        assert second.satisfaction < first.satisfaction

    def test_admissions_monotonically_decrease(self):
        scenario, controller = self._controller()
        satisfactions = []
        for _ in range(6):
            session = self._admit(scenario, controller)
            if session is None:
                break
            satisfactions.append(session.satisfaction)
        assert len(satisfactions) >= 3
        assert satisfactions == sorted(satisfactions, reverse=True)

    def test_e16_ladder_is_pinned(self):
        """The full ``benchmarks/results/admission.txt`` ladder (floor 0.10)."""
        scenario, controller = self._controller(min_satisfaction=0.10)
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
            session = self._admit(scenario, controller)
            assert session is not None
            assert (session.result.path, round(session.satisfaction, 3)) == (
                path,
                satisfaction,
            )
            admitted.append(session)
        assert self._admit(scenario, controller) is None
        controller.teardown(admitted[0].session_id)
        revived = self._admit(scenario, controller)
        assert revived is not None
        assert revived.result.path == ("sender", "T7", "receiver")
        assert round(revived.satisfaction, 3) == 0.658

    def test_satisfaction_floor_rejects(self):
        scenario, controller = self._controller(min_satisfaction=0.6)
        first = self._admit(scenario, controller)
        assert first is not None  # 0.658 clears the floor
        second = self._admit(scenario, controller)
        assert second is None  # nothing above 0.6 remains

    def test_teardown_restores_admissibility(self):
        scenario, controller = self._controller(min_satisfaction=0.6)
        first = self._admit(scenario, controller)
        assert self._admit(scenario, controller) is None
        controller.teardown(first.session_id)
        again = self._admit(scenario, controller)
        assert again is not None
        assert again.satisfaction == pytest.approx(first.satisfaction)

    def test_teardown_all(self):
        scenario, controller = self._controller()
        self._admit(scenario, controller)
        self._admit(scenario, controller)
        assert controller.teardown_all() == 2
        assert controller.active_sessions() == []
        assert len(controller.ledger) == 0

    def test_unknown_teardown_rejected(self):
        _, controller = self._controller()
        with pytest.raises(ValidationError):
            controller.teardown(999)

    def test_rejection_reserves_nothing(self):
        scenario, controller = self._controller(min_satisfaction=0.99)
        assert self._admit(scenario, controller) is None
        assert len(controller.ledger) == 0

    def test_invalid_floor_rejected(self):
        scenario = figure6_scenario()
        with pytest.raises(ValidationError):
            AdmissionController(
                registry=scenario.registry,
                parameters=scenario.parameters,
                catalog=scenario.catalog,
                placement=scenario.placement,
                min_satisfaction=1.5,
            )
