"""Unit tests for satisfaction functions and combiners (Section 4.1)."""

from __future__ import annotations

import math

import pytest

from repro.core.satisfaction import (
    CombinedSatisfaction,
    GeometricCombiner,
    HarmonicCombiner,
    LinearSatisfaction,
    LogisticSatisfaction,
    MinimumCombiner,
    PiecewiseLinearSatisfaction,
    StepSatisfaction,
    TableSatisfaction,
    WeightedHarmonicCombiner,
)
from repro.errors import (
    MonotonicityError,
    SatisfactionDomainError,
    UnknownParameterError,
    ValidationError,
)


class TestLinearSatisfaction:
    def test_endpoints(self):
        fn = LinearSatisfaction(0.0, 30.0)
        assert fn(0.0) == 0.0
        assert fn(30.0) == 1.0

    def test_paper_values(self):
        """The Table 1 relationship: S(fps) = fps / 30."""
        fn = LinearSatisfaction(0.0, 30.0)
        assert fn(27.0) == pytest.approx(0.90)
        assert fn(22.8) == pytest.approx(0.76)
        assert fn(19.8) == pytest.approx(0.66)

    def test_clips_outside_domain(self):
        fn = LinearSatisfaction(5.0, 20.0)
        assert fn(0.0) == 0.0
        assert fn(100.0) == 1.0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(SatisfactionDomainError):
            LinearSatisfaction(5.0, 5.0)

    def test_inverted_interval_rejected(self):
        with pytest.raises(SatisfactionDomainError):
            LinearSatisfaction(20.0, 5.0)

    def test_monotone_validation_passes(self):
        LinearSatisfaction(0.0, 10.0).validate_monotone()


class TestPiecewiseLinearSatisfaction:
    def test_interpolates_between_knots(self):
        fn = PiecewiseLinearSatisfaction([(0, 0), (10, 0.5), (20, 1.0)])
        assert fn(5.0) == pytest.approx(0.25)
        assert fn(15.0) == pytest.approx(0.75)

    def test_knots_must_increase_in_x(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearSatisfaction([(0, 0), (0, 1)])

    def test_knots_must_not_decrease_in_y(self):
        with pytest.raises(MonotonicityError):
            PiecewiseLinearSatisfaction([(0, 0), (5, 0.8), (10, 0.5), (20, 1.0)])

    def test_first_knot_must_be_zero(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearSatisfaction([(0, 0.1), (10, 1.0)])

    def test_last_knot_must_be_one(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearSatisfaction([(0, 0.0), (10, 0.9)])

    def test_needs_two_knots(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearSatisfaction([(0, 0)])

    def test_series_covers_range(self):
        fn = PiecewiseLinearSatisfaction([(5, 0), (20, 1.0)])
        series = fn.series(0.0, 20.0, 21)
        assert len(series) == 21
        assert series[0] == (0.0, 0.0)
        assert series[-1][1] == 1.0

    def test_monotone_validation_passes(self):
        PiecewiseLinearSatisfaction([(0, 0), (3, 0.9), (10, 1.0)]).validate_monotone()


class TestStepSatisfaction:
    def test_staircase_values(self):
        fn = StepSatisfaction([(8, 0.3), (16, 0.7), (24, 1.0)])
        assert fn(7.9) == 0.0
        assert fn(8.0) == pytest.approx(0.3)
        assert fn(16.0) == pytest.approx(0.7)
        assert fn(23.9) == pytest.approx(0.7)
        assert fn(24.0) == 1.0

    def test_decreasing_steps_rejected(self):
        with pytest.raises(MonotonicityError):
            StepSatisfaction([(8, 0.9), (16, 0.5), (24, 1.0)])

    def test_final_step_must_reach_one(self):
        with pytest.raises(ValidationError):
            StepSatisfaction([(8, 0.3), (16, 0.7)])

    def test_needs_a_step(self):
        with pytest.raises(ValidationError):
            StepSatisfaction([])


class TestLogisticSatisfaction:
    def test_endpoints_exact(self):
        fn = LogisticSatisfaction(5.0, 20.0)
        assert fn(5.0) == 0.0
        assert fn(20.0) == 1.0

    def test_midpoint_is_half(self):
        fn = LogisticSatisfaction(0.0, 10.0)
        assert fn(5.0) == pytest.approx(0.5)

    def test_is_monotone(self):
        LogisticSatisfaction(0.0, 10.0, steepness=12.0).validate_monotone()

    def test_steepness_must_be_positive(self):
        with pytest.raises(ValidationError):
            LogisticSatisfaction(0.0, 10.0, steepness=0.0)

    def test_steeper_is_sharper(self):
        gentle = LogisticSatisfaction(0.0, 10.0, steepness=2.0)
        sharp = LogisticSatisfaction(0.0, 10.0, steepness=20.0)
        # Near the low end the sharp curve stays lower.
        assert sharp(2.0) < gentle(2.0)


class TestTableSatisfaction:
    def test_wraps_piecewise(self):
        fn = TableSatisfaction({0.0: 0.0, 10.0: 0.4, 20.0: 1.0})
        assert fn(10.0) == pytest.approx(0.4)
        assert fn(15.0) == pytest.approx(0.7)

    def test_validates_like_piecewise(self):
        with pytest.raises(ValidationError):
            TableSatisfaction({0.0: 0.5, 10.0: 1.0})


class TestHarmonicCombiner:
    def test_equation_1(self):
        """S_tot = n / sum(1/s_i)."""
        combiner = HarmonicCombiner()
        assert combiner([0.5, 0.5]) == pytest.approx(0.5)
        assert combiner([1.0, 0.5]) == pytest.approx(2 / 3)
        assert combiner([0.9, 0.6, 0.3]) == pytest.approx(3 / (1 / 0.9 + 1 / 0.6 + 1 / 0.3))

    def test_single_parameter_passthrough(self):
        assert HarmonicCombiner()([0.76]) == pytest.approx(0.76)

    def test_zero_forces_total_to_zero(self):
        assert HarmonicCombiner()([1.0, 1.0, 0.0]) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            HarmonicCombiner()([1.2])
        with pytest.raises(ValidationError):
            HarmonicCombiner()([-0.1])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            HarmonicCombiner()([])

    def test_never_exceeds_minimum_of_inputs_times_n(self):
        combiner = HarmonicCombiner()
        values = [0.9, 0.2, 0.8]
        assert combiner(values) <= max(values)
        assert combiner(values) >= min(values)


class TestWeightedHarmonicCombiner:
    def test_equal_weights_reduce_to_harmonic(self):
        weighted = WeightedHarmonicCombiner([1.0, 1.0, 1.0])
        plain = HarmonicCombiner()
        values = [0.9, 0.5, 0.7]
        assert weighted(values) == pytest.approx(plain(values))

    def test_heavier_weight_pulls_total(self):
        favor_first = WeightedHarmonicCombiner([10.0, 1.0])
        favor_second = WeightedHarmonicCombiner([1.0, 10.0])
        values = [0.9, 0.3]
        assert favor_first(values) > favor_second(values)

    def test_zero_weight_ignores_parameter(self):
        combiner = WeightedHarmonicCombiner([1.0, 0.0])
        assert combiner([0.8, 0.0]) == pytest.approx(0.8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            WeightedHarmonicCombiner([1.0, 1.0])([0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            WeightedHarmonicCombiner([1.0, -1.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            WeightedHarmonicCombiner([0.0, 0.0])


class TestOtherCombiners:
    def test_minimum(self):
        assert MinimumCombiner()([0.9, 0.4, 0.6]) == pytest.approx(0.4)

    def test_geometric(self):
        assert GeometricCombiner()([0.25, 1.0]) == pytest.approx(0.5)

    def test_geometric_zero(self):
        assert GeometricCombiner()([0.5, 0.0]) == 0.0

    def test_combiner_ordering(self):
        """min <= harmonic <= geometric on mixed vectors."""
        values = [0.9, 0.4, 0.7]
        low = MinimumCombiner()(values)
        mid = HarmonicCombiner()(values)
        high = GeometricCombiner()(values)
        assert low <= mid <= high


class TestCombinedSatisfaction:
    def _model(self):
        return CombinedSatisfaction(
            functions={
                "frame_rate": LinearSatisfaction(0.0, 30.0),
                "resolution": LinearSatisfaction(0.0, 100.0),
            },
            combiner=HarmonicCombiner(),
        )

    def test_evaluate_combines(self):
        model = self._model()
        total = model.evaluate({"frame_rate": 15.0, "resolution": 50.0})
        assert total == pytest.approx(0.5)

    def test_extra_values_ignored(self):
        model = self._model()
        total = model.evaluate(
            {"frame_rate": 30.0, "resolution": 100.0, "color_depth": 1.0}
        )
        assert total == pytest.approx(1.0)

    def test_missing_value_raises(self):
        with pytest.raises(UnknownParameterError):
            self._model().evaluate({"frame_rate": 15.0})

    def test_score_skips_absent_parameters(self):
        model = self._model()
        assert model.score({"frame_rate": 15.0, "resolution": 50.0}) == (
            model.evaluate({"frame_rate": 15.0, "resolution": 50.0})
        )
        assert model.score({"frame_rate": 15.0}) == pytest.approx(0.5)
        assert model.score({"color_depth": 8.0}) == 0.0

    def test_individual(self):
        assert self._model().individual("frame_rate", 15.0) == pytest.approx(0.5)

    def test_individual_unknown_raises(self):
        with pytest.raises(UnknownParameterError):
            self._model().individual("nope", 1.0)

    def test_needs_functions(self):
        with pytest.raises(ValidationError):
            CombinedSatisfaction(functions={}, combiner=HarmonicCombiner())

    def test_parameter_names_order(self):
        assert self._model().parameter_names() == ["frame_rate", "resolution"]
