"""Unit tests for the configuration optimizer (Equation 2's Optimize)."""

from __future__ import annotations

import itertools
import math

import pytest

from repro.core.configuration import Configuration, required_bandwidth_of
from repro.core.optimizer import (
    ConfigurationOptimizer,
    OptimizationConstraints,
    OptimizedChoice,
)
from repro.core.parameters import (
    AUDIO_QUALITY,
    COLOR_DEPTH,
    FRAME_RATE,
    RESOLUTION,
    ContinuousDomain,
    DiscreteDomain,
    Parameter,
    ParameterSet,
)
from repro.core.satisfaction import (
    CombinedSatisfaction,
    HarmonicCombiner,
    LinearSatisfaction,
)
from repro.errors import UnknownParameterError
from repro.formats.format import MediaFormat


def make_optimizer(functions, parameters=None, degrade_order=None):
    parameters = parameters or ParameterSet(
        [
            Parameter(FRAME_RATE, "fps", ContinuousDomain(0.0, 60.0)),
            Parameter(RESOLUTION, "pixels", DiscreteDomain([100.0, 1000.0])),
            Parameter(COLOR_DEPTH, "bits", DiscreteDomain([8.0, 24.0])),
        ]
    )
    satisfaction = CombinedSatisfaction(
        functions=functions, combiner=HarmonicCombiner()
    )
    return ConfigurationOptimizer(parameters, satisfaction, degrade_order)


FMT = MediaFormat(name="opt-fmt", compression_ratio=10.0)


def constraints(upstream, caps=None, bandwidth=math.inf):
    return OptimizationConstraints(
        upstream=Configuration(upstream),
        caps=caps or {},
        fmt=FMT,
        bandwidth_bps=bandwidth,
    )


class TestUnconstrainedOptimum:
    def test_takes_upstream_when_bandwidth_ample(self):
        optimizer = make_optimizer({FRAME_RATE: LinearSatisfaction(0, 30)})
        choice = optimizer.optimize(
            constraints({FRAME_RATE: 25.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0})
        )
        assert choice.configuration[FRAME_RATE] == 25.0
        assert choice.satisfaction == pytest.approx(25 / 30)

    def test_service_caps_bind(self):
        optimizer = make_optimizer({FRAME_RATE: LinearSatisfaction(0, 30)})
        choice = optimizer.optimize(
            constraints(
                {FRAME_RATE: 25.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0},
                caps={FRAME_RATE: 15.0},
            )
        )
        assert choice.configuration[FRAME_RATE] == 15.0

    def test_discrete_values_snap_down(self):
        optimizer = make_optimizer({FRAME_RATE: LinearSatisfaction(0, 30)})
        choice = optimizer.optimize(
            constraints(
                {FRAME_RATE: 25.0, RESOLUTION: 999.0, COLOR_DEPTH: 20.0}
            )
        )
        assert choice.configuration[RESOLUTION] == 100.0  # snapped below 999
        assert choice.configuration[COLOR_DEPTH] == 8.0

    def test_cap_below_domain_minimum_is_infeasible(self):
        optimizer = make_optimizer({FRAME_RATE: LinearSatisfaction(0, 30)})
        assert (
            optimizer.optimize(
                constraints(
                    {FRAME_RATE: 25.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0},
                    caps={RESOLUTION: 50.0},  # below the smallest domain value
                )
            )
            is None
        )

    def test_unknown_parameter_raises(self):
        optimizer = make_optimizer({FRAME_RATE: LinearSatisfaction(0, 30)})
        with pytest.raises(UnknownParameterError):
            optimizer.optimize(constraints({"bogus": 1.0}))


class TestBandwidthConstrained:
    def test_single_parameter_exact_inversion(self):
        """The paper's case: only frame rate can move -> closed-form fit.

        Resolution and depth are pinned to single-value domains (as in the
        Figure 6 scenario), so the optimizer must invert the bandwidth for
        frame rate exactly.
        """
        params = ParameterSet(
            [
                Parameter(FRAME_RATE, "fps", ContinuousDomain(0.0, 60.0)),
                Parameter(RESOLUTION, "pixels", DiscreteDomain([1000.0])),
                Parameter(COLOR_DEPTH, "bits", DiscreteDomain([24.0])),
            ]
        )
        optimizer = make_optimizer(
            {FRAME_RATE: LinearSatisfaction(0, 30)}, parameters=params
        )
        # frame bits = 1000 * 24 / 10 = 2400; 19.75 fps needs 47400 bps.
        choice = optimizer.optimize(
            constraints(
                {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0},
                bandwidth=47_400.0,
            )
        )
        assert choice.configuration[FRAME_RATE] == pytest.approx(19.75)
        assert choice.satisfaction == pytest.approx(19.75 / 30)

    def test_result_respects_equation_2(self):
        optimizer = make_optimizer({FRAME_RATE: LinearSatisfaction(0, 30)})
        bandwidth = 30_000.0
        choice = optimizer.optimize(
            constraints(
                {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0},
                bandwidth=bandwidth,
            )
        )
        assert choice.required_bandwidth_bps <= bandwidth * (1 + 1e-9)

    def test_free_parameters_reduced_before_preferences(self):
        """Color depth has no satisfaction function: it should be cut first."""
        optimizer = make_optimizer({FRAME_RATE: LinearSatisfaction(0, 30)})
        # Full quality needs 72000 bps; only a third is available.
        choice = optimizer.optimize(
            constraints(
                {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0},
                bandwidth=24_000.0,
            )
        )
        # The frame rate (the only parameter with a preference) survives at
        # full value; some free parameter took the cut instead.
        assert choice.configuration[FRAME_RATE] == pytest.approx(30.0)
        assert choice.satisfaction == pytest.approx(1.0)
        assert (
            choice.configuration[RESOLUTION] < 1000.0
            or choice.configuration[COLOR_DEPTH] < 24.0
        )

    def test_zero_bandwidth_with_zero_floor_is_feasible_but_worthless(self):
        optimizer = make_optimizer({FRAME_RATE: LinearSatisfaction(0, 30)})
        choice = optimizer.optimize(
            constraints(
                {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0},
                bandwidth=0.0,
            )
        )
        # fps can drop to 0 (domain minimum) so the edge is usable but the
        # satisfaction is 0 — the candidate ranks last, as the paper wants.
        assert choice is not None
        assert choice.satisfaction == 0.0

    def test_infeasible_when_floor_exceeds_bandwidth(self):
        params = ParameterSet(
            [
                Parameter(FRAME_RATE, "fps", ContinuousDomain(10.0, 60.0)),
                Parameter(RESOLUTION, "pixels", DiscreteDomain([1000.0])),
                Parameter(COLOR_DEPTH, "bits", DiscreteDomain([24.0])),
            ]
        )
        optimizer = make_optimizer(
            {FRAME_RATE: LinearSatisfaction(10, 30)}, parameters=params
        )
        # Even the 10 fps floor needs 24000 bps.
        result = optimizer.optimize(
            constraints(
                {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0},
                bandwidth=1_000.0,
            )
        )
        assert result is None

    def test_two_preference_parameters_match_grid_search(self):
        """The ray+polish heuristic should match a fine grid search."""
        functions = {
            FRAME_RATE: LinearSatisfaction(0, 30),
            RESOLUTION: LinearSatisfaction(0, 1000),
        }
        optimizer = make_optimizer(functions)
        upstream = {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 8.0}
        bandwidth = 30_000.0
        choice = optimizer.optimize(constraints(upstream, bandwidth=bandwidth))

        # Grid search over the same feasible region.
        best = 0.0
        satisfaction = CombinedSatisfaction(
            functions=functions, combiner=HarmonicCombiner()
        )
        for fps_step in range(0, 301):
            fps = fps_step / 10.0
            for res in (100.0, 1000.0):
                config = Configuration(
                    {FRAME_RATE: fps, RESOLUTION: res, COLOR_DEPTH: 8.0}
                )
                if config.required_bandwidth(FMT) <= bandwidth:
                    best = max(best, satisfaction.evaluate(config))
        assert choice.satisfaction >= best - 1e-3

    def test_audio_parameter_inverts_linearly(self):
        params = ParameterSet(
            [
                Parameter(AUDIO_QUALITY, "kbps", ContinuousDomain(0.0, 256.0)),
            ]
        )
        optimizer = make_optimizer(
            {AUDIO_QUALITY: LinearSatisfaction(0, 256)}, parameters=params
        )
        choice = optimizer.optimize(
            OptimizationConstraints(
                upstream=Configuration({AUDIO_QUALITY: 256.0}),
                caps={},
                fmt=FMT,
                bandwidth_bps=128_000.0,
            )
        )
        assert choice.configuration[AUDIO_QUALITY] == pytest.approx(128.0)


class TestRayBisectionTolerance:
    """Phase 2 tests each probe with Equation 2's tolerance
    (:func:`~repro.core.configuration.fits_within`): a discrete point that
    needs exactly the available bandwidth fits."""

    PARAMS = ParameterSet(
        [
            Parameter(FRAME_RATE, "fps", ContinuousDomain(0.0, 60.0)),
            Parameter(RESOLUTION, "pixels", DiscreteDomain([100.0, 200.0, 300.0])),
            Parameter(COLOR_DEPTH, "bits", DiscreteDomain([8.0])),
        ]
    )
    START = Configuration({FRAME_RATE: 10.0, RESOLUTION: 300.0, COLOR_DEPTH: 8.0})
    LOWER = {FRAME_RATE: 10.0, RESOLUTION: 100.0, COLOR_DEPTH: 8.0}

    def _bisect(self, bandwidth):
        optimizer = make_optimizer(
            {RESOLUTION: LinearSatisfaction(100, 300)}, parameters=self.PARAMS
        )
        return optimizer._ray_bisection(self.START, self.LOWER, FMT, bandwidth)

    def _exact(self, resolution):
        return required_bandwidth_of(
            self.START.with_value(RESOLUTION, resolution).as_dict(), FMT
        )

    def test_point_needing_exactly_the_bandwidth_is_reached(self):
        config = self._bisect(self._exact(200.0))
        assert config[RESOLUTION] == 200.0
        assert config.required_bandwidth(FMT) == self._exact(200.0)

    def test_point_needing_more_than_the_tolerance_is_not(self):
        config = self._bisect(self._exact(200.0) * (1.0 - 1e-6))
        assert config[RESOLUTION] == 100.0


class TestDegradeOrder:
    def test_policy_orders_free_reductions(self):
        """With two free parameters, the policy-listed one survives longer."""
        params = ParameterSet(
            [
                Parameter(FRAME_RATE, "fps", ContinuousDomain(0.0, 60.0)),
                Parameter(RESOLUTION, "pixels", ContinuousDomain(0.0, 1000.0)),
                Parameter(COLOR_DEPTH, "bits", ContinuousDomain(0.0, 24.0)),
            ]
        )
        # User only cares about frame rate; depth is listed in the degrade
        # order (degrade it *after* unlisted resolution).
        optimizer = make_optimizer(
            {FRAME_RATE: LinearSatisfaction(0, 30)},
            parameters=params,
            degrade_order=[COLOR_DEPTH],
        )
        # Needs 30*1000*24/10 = 72000 at full quality; give half.
        choice = optimizer.optimize(
            constraints(
                {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0},
                bandwidth=36_000.0,
            )
        )
        # Resolution (unlisted, degraded first) should fall before depth.
        assert choice.configuration[COLOR_DEPTH] == pytest.approx(24.0)
        assert choice.configuration[RESOLUTION] < 1000.0
        assert choice.configuration[FRAME_RATE] == pytest.approx(30.0)


class TestEvaluate:
    def test_skips_absent_dimensions(self):
        optimizer = make_optimizer(
            {
                FRAME_RATE: LinearSatisfaction(0, 30),
                RESOLUTION: LinearSatisfaction(0, 1000),
            }
        )
        only_fps = Configuration({FRAME_RATE: 15.0})
        assert optimizer.evaluate(only_fps) == pytest.approx(0.5)

    def test_no_judgeable_dimension_is_zero(self):
        optimizer = make_optimizer({FRAME_RATE: LinearSatisfaction(0, 30)})
        assert optimizer.evaluate(Configuration({COLOR_DEPTH: 24.0})) == 0.0
