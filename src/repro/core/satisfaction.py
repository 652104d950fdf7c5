"""Satisfaction functions and combination functions (Section 4.1).

The paper adopts the model of Richards et al.: every application-layer QoS
parameter ``x_i`` has a *satisfaction function* ``S_i(x_i)`` with

- range ``[0, 1]``, where 0 corresponds to the minimum acceptable value
  ``M`` and 1 to the ideal value ``I``;
- *monotone non-decreasing* shape over the domain (the paper requires
  "it must increase monotonically over the domain");
- arbitrary shape otherwise (Figure 1 shows a piecewise-linear example for
  frame rate).

Individual satisfactions combine into the total satisfaction via
Equation 1, the harmonic mean::

    S_tot = n / sum(1 / s_i)

which this module implements as :class:`HarmonicCombiner`; the weighted
extension cited as [29] is :class:`WeightedHarmonicCombiner`.  Alternative
combiners (minimum, geometric mean) are provided for the ablation
experiment E11.

All satisfaction functions validate monotonicity on construction (exactly
for the analytic shapes; by dense sampling for user-supplied tables) and
clip evaluation results into ``[0, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.errors import (
    MonotonicityError,
    SatisfactionDomainError,
    UnknownParameterError,
    ValidationError,
)

__all__ = [
    "SatisfactionFunction",
    "LinearSatisfaction",
    "PiecewiseLinearSatisfaction",
    "StepSatisfaction",
    "LogisticSatisfaction",
    "TableSatisfaction",
    "Combiner",
    "HarmonicCombiner",
    "WeightedHarmonicCombiner",
    "MinimumCombiner",
    "GeometricCombiner",
    "CombinedSatisfaction",
]

#: Values below this threshold are treated as "totally unacceptable" by the
#: harmonic combiner, which would otherwise divide by zero.  The paper's
#: model gives satisfaction 0 at the minimum acceptable value; a single
#: unacceptable parameter therefore forces the total to 0.
_EPSILON = 1e-12


class SatisfactionFunction:
    """Abstract base class for Richards-style satisfaction functions.

    Subclasses implement :meth:`_raw` over ``[minimum, ideal]``; this base
    class handles domain extension (values below the minimum give 0.0,
    values above the ideal give 1.0) and output clipping.

    Functions compare equal (and hash equal) when they are the same shape
    with the same defining parameters — the identity the plan cache keys
    on.  Subclasses with parameters beyond ``(minimum, ideal)`` contribute
    them through :meth:`_extra_key`.
    """

    def __init__(self, minimum: float, ideal: float) -> None:
        if ideal < minimum:
            raise SatisfactionDomainError(
                f"ideal value ({ideal}) must be >= minimum acceptable "
                f"value ({minimum})"
            )
        self._minimum = float(minimum)
        self._ideal = float(ideal)

    @property
    def minimum(self) -> float:
        """The minimum acceptable value ``M`` (satisfaction 0)."""
        return self._minimum

    @property
    def ideal(self) -> float:
        """The ideal value ``I`` (satisfaction 1)."""
        return self._ideal

    def __call__(self, value: float) -> float:
        """Satisfaction for ``value``, clipped into ``[0, 1]``."""
        if value < self._minimum:
            return 0.0
        if value >= self._ideal:
            return 1.0
        # At exactly the minimum the shape decides (0 for the continuous
        # shapes; a step function may already grant its first level there).
        raw = self._raw(value)
        return min(1.0, max(0.0, raw))

    def _raw(self, value: float) -> float:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Identity (plan-cache fingerprints)
    # ------------------------------------------------------------------
    def _extra_key(self) -> Tuple:
        """Defining parameters beyond ``(minimum, ideal)``; override."""
        return ()

    def cache_key(self) -> Tuple:
        """A stable, hashable tuple identifying this function exactly."""
        return (type(self).__name__, self._minimum, self._ideal) + self._extra_key()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    # ------------------------------------------------------------------
    # Validation / inspection helpers
    # ------------------------------------------------------------------
    def validate_monotone(self, samples: int = 257) -> None:
        """Check monotone non-decreasing shape by dense sampling.

        Raises :class:`MonotonicityError` on a violation.  Analytic
        subclasses are monotone by construction; this is the safety net for
        user-supplied shapes (tables, logistic with odd parameters).
        """
        if samples < 2:
            raise ValidationError("need at least 2 samples to check monotonicity")
        if self._ideal == self._minimum:
            return
        step = (self._ideal - self._minimum) / (samples - 1)
        previous = self(self._minimum)
        for i in range(1, samples):
            value = self._minimum + i * step
            current = self(value)
            if current < previous - 1e-12:
                raise MonotonicityError(
                    f"satisfaction decreases near x={value:.6g}: "
                    f"{previous:.6g} -> {current:.6g}"
                )
            previous = current

    def series(self, start: float, stop: float, points: int) -> Sequence[Tuple[float, float]]:
        """Sampled ``(x, S(x))`` pairs, used by the Figure 1 bench."""
        if points < 2:
            raise ValidationError("need at least 2 points for a series")
        step = (stop - start) / (points - 1)
        return [(start + i * step, self(start + i * step)) for i in range(points)]


class LinearSatisfaction(SatisfactionFunction):
    """Straight line from (minimum, 0) to (ideal, 1).

    The Table 1 scenario uses ``LinearSatisfaction(0, 30)`` for frame rate,
    i.e. ``S(fps) = fps / 30``.
    """

    def __init__(self, minimum: float, ideal: float) -> None:
        super().__init__(minimum, ideal)
        if ideal == minimum:
            raise SatisfactionDomainError(
                "linear satisfaction needs ideal > minimum"
            )

    def _raw(self, value: float) -> float:
        return (value - self._minimum) / (self._ideal - self._minimum)


class PiecewiseLinearSatisfaction(SatisfactionFunction):
    """Monotone piecewise-linear interpolation through given knots.

    ``knots`` maps parameter values to satisfactions; the first knot must
    have satisfaction 0 (the minimum acceptable value) and the last 1 (the
    ideal value).  Figure 1's frame-rate function is an instance.
    """

    def __init__(self, knots: Sequence[Tuple[float, float]]) -> None:
        if len(knots) < 2:
            raise ValidationError("need at least two knots")
        xs = [x for x, _ in knots]
        ys = [y for _, y in knots]
        if sorted(xs) != xs or len(set(xs)) != len(xs):
            raise ValidationError("knot x-values must be strictly increasing")
        for a, b in zip(ys, ys[1:]):
            if b < a:
                raise MonotonicityError(
                    f"knot satisfactions must be non-decreasing ({a} -> {b})"
                )
        if not math.isclose(ys[0], 0.0, abs_tol=1e-12):
            raise ValidationError("first knot must have satisfaction 0")
        if not math.isclose(ys[-1], 1.0, abs_tol=1e-12):
            raise ValidationError("last knot must have satisfaction 1")
        super().__init__(xs[0], xs[-1])
        self._knots: Tuple[Tuple[float, float], ...] = tuple(
            (float(x), float(y)) for x, y in knots
        )

    @property
    def knots(self) -> Tuple[Tuple[float, float], ...]:
        return self._knots

    def _extra_key(self) -> Tuple:
        return (self._knots,)

    def _raw(self, value: float) -> float:
        for (x0, y0), (x1, y1) in zip(self._knots, self._knots[1:]):
            if x0 <= value <= x1:
                if x1 == x0:
                    return y1
                return y0 + (y1 - y0) * (value - x0) / (x1 - x0)
        # Unreachable: __call__ handles values outside [minimum, ideal].
        raise SatisfactionDomainError(f"value {value} outside knot range")


class StepSatisfaction(SatisfactionFunction):
    """Monotone staircase: satisfaction jumps at given thresholds.

    Useful for inherently discrete preferences ("stereo is fine, mono is
    barely acceptable").  ``steps`` maps threshold -> satisfaction reached
    at and above that threshold; satisfactions must be non-decreasing in
    threshold order and end at 1.
    """

    def __init__(self, steps: Sequence[Tuple[float, float]]) -> None:
        if not steps:
            raise ValidationError("need at least one step")
        xs = [x for x, _ in steps]
        ys = [y for _, y in steps]
        if sorted(xs) != xs or len(set(xs)) != len(xs):
            raise ValidationError("step thresholds must be strictly increasing")
        for a, b in zip(ys, ys[1:]):
            if b < a:
                raise MonotonicityError(
                    f"step satisfactions must be non-decreasing ({a} -> {b})"
                )
        if not math.isclose(ys[-1], 1.0, abs_tol=1e-12):
            raise ValidationError("final step must reach satisfaction 1")
        super().__init__(xs[0], xs[-1])
        self._steps = tuple((float(x), float(y)) for x, y in steps)

    def _extra_key(self) -> Tuple:
        return (self._steps,)

    def _raw(self, value: float) -> float:
        satisfaction = 0.0
        for threshold, level in self._steps:
            if value >= threshold:
                satisfaction = level
            else:
                break
        return satisfaction


class LogisticSatisfaction(SatisfactionFunction):
    """Smooth S-curve between the minimum and ideal values.

    A scaled logistic, renormalized so the endpoints hit exactly 0 and 1.
    ``steepness`` controls how sharp the transition is (higher = sharper);
    the midpoint sits halfway between minimum and ideal.
    """

    def __init__(self, minimum: float, ideal: float, steepness: float = 8.0) -> None:
        super().__init__(minimum, ideal)
        if ideal == minimum:
            raise SatisfactionDomainError("logistic satisfaction needs ideal > minimum")
        if steepness <= 0:
            raise ValidationError("steepness must be positive")
        self._steepness = float(steepness)
        # Renormalization constants so S(minimum)=0 and S(ideal)=1 exactly.
        low = self._logistic(0.0)
        high = self._logistic(1.0)
        self._offset = low
        self._scale = high - low

    def _extra_key(self) -> Tuple:
        return (self._steepness,)

    def _logistic(self, t: float) -> float:
        return 1.0 / (1.0 + math.exp(-self._steepness * (t - 0.5)))

    def _raw(self, value: float) -> float:
        t = (value - self._minimum) / (self._ideal - self._minimum)
        return (self._logistic(t) - self._offset) / self._scale


class TableSatisfaction(SatisfactionFunction):
    """Satisfaction given by an explicit lookup table with interpolation.

    A thin convenience wrapper over :class:`PiecewiseLinearSatisfaction`
    accepting a mapping (e.g. parsed from a user-profile document).
    """

    def __init__(self, table: Mapping[float, float]) -> None:
        knots = sorted((float(x), float(y)) for x, y in table.items())
        self._inner = PiecewiseLinearSatisfaction(knots)
        super().__init__(self._inner.minimum, self._inner.ideal)

    def _extra_key(self) -> Tuple:
        return (self._inner.knots,)

    def _raw(self, value: float) -> float:
        return self._inner(value)


# ----------------------------------------------------------------------
# Combination functions (Equation 1 and friends)
# ----------------------------------------------------------------------


class Combiner:
    """Abstract combination function ``f_comb``: many ``s_i`` -> ``S_tot``."""

    name: str = "abstract"

    def combine(self, satisfactions: Sequence[float]) -> float:
        raise NotImplementedError

    def cache_key(self) -> Tuple:
        """A stable, hashable tuple identifying this combiner exactly."""
        return (type(self).__name__,)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __call__(self, satisfactions: Sequence[float]) -> float:
        if not satisfactions:
            raise ValidationError("cannot combine an empty satisfaction vector")
        for s in satisfactions:
            if not 0.0 <= s <= 1.0:
                raise ValidationError(
                    f"individual satisfactions must lie in [0, 1], got {s}"
                )
        return self.combine(satisfactions)


class HarmonicCombiner(Combiner):
    """Equation 1 of the paper: ``S_tot = n / sum(1 / s_i)``.

    The harmonic mean penalizes imbalance: one near-zero parameter drags the
    total toward zero no matter how good the others are, matching the
    intuition that a perfect picture with unacceptable audio is still an
    unacceptable session.
    """

    name = "harmonic"

    def combine(self, satisfactions: Sequence[float]) -> float:
        if any(s <= _EPSILON for s in satisfactions):
            return 0.0
        return len(satisfactions) / sum(1.0 / s for s in satisfactions)


class WeightedHarmonicCombiner(Combiner):
    """The weighted extension of Equation 1 cited as reference [29].

    ``S_tot = sum(w_i) / sum(w_i / s_i)`` — with equal weights this reduces
    exactly to :class:`HarmonicCombiner`.
    """

    name = "weighted-harmonic"

    def __init__(self, weights: Sequence[float]) -> None:
        if not weights:
            raise ValidationError("need at least one weight")
        if any(w < 0 for w in weights):
            raise ValidationError("weights must be non-negative")
        if all(w == 0 for w in weights):
            raise ValidationError("at least one weight must be positive")
        self._weights = tuple(float(w) for w in weights)

    @property
    def weights(self) -> Tuple[float, ...]:
        return self._weights

    def cache_key(self) -> Tuple:
        return (type(self).__name__, self._weights)

    def combine(self, satisfactions: Sequence[float]) -> float:
        if len(satisfactions) != len(self._weights):
            raise ValidationError(
                f"expected {len(self._weights)} satisfactions, "
                f"got {len(satisfactions)}"
            )
        num = 0.0
        den = 0.0
        for w, s in zip(self._weights, satisfactions):
            if w == 0.0:
                continue
            if s <= _EPSILON:
                return 0.0
            num += w
            den += w / s
        return num / den


class MinimumCombiner(Combiner):
    """Worst-case combiner: ``S_tot = min(s_i)`` (ablation E11)."""

    name = "minimum"

    def combine(self, satisfactions: Sequence[float]) -> float:
        return min(satisfactions)


class GeometricCombiner(Combiner):
    """Geometric-mean combiner: ``S_tot = (prod s_i)^(1/n)`` (ablation E11)."""

    name = "geometric"

    def combine(self, satisfactions: Sequence[float]) -> float:
        if any(s <= _EPSILON for s in satisfactions):
            return 0.0
        log_sum = sum(math.log(s) for s in satisfactions)
        return math.exp(log_sum / len(satisfactions))


@dataclass
class CombinedSatisfaction:
    """A bundle of per-parameter satisfaction functions plus a combiner.

    This is the object the selection algorithm evaluates: given a parameter
    configuration (name -> value mapping) it computes each ``S_i(x_i)`` and
    combines them.  Parameters without a registered satisfaction function
    are ignored — the user simply has no preference about them.
    """

    functions: Dict[str, SatisfactionFunction]
    combiner: Combiner

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValidationError(
                "CombinedSatisfaction needs at least one satisfaction function"
            )

    def parameter_names(self) -> Sequence[str]:
        """Names of the parameters the user cares about, in insertion
        order."""
        return list(self.functions)

    def cache_key(self) -> Tuple:
        """A stable, hashable tuple identifying this bundle exactly.

        Function order participates (weighted combiners zip weights with
        the insertion order), so two bundles with the same functions in a
        different order key differently — as they must, since they can
        evaluate differently.
        """
        return (
            tuple((name, fn.cache_key()) for name, fn in self.functions.items()),
            self.combiner.cache_key(),
        )

    def individual(self, name: str, value: float) -> float:
        """Satisfaction for one parameter value."""
        try:
            fn = self.functions[name]
        except KeyError:
            raise UnknownParameterError(name) from None
        return fn(value)

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Total satisfaction for a configuration.

        Every parameter with a registered satisfaction function must be
        present in ``values``; extra entries in ``values`` are ignored.
        """
        satisfactions = []
        for name, fn in self.functions.items():
            if name not in values:
                raise UnknownParameterError(name)
            satisfactions.append(fn(values[name]))
        return self.combiner(satisfactions)

    def score(self, configuration: Mapping[str, float]) -> float:
        """Total satisfaction of a delivered configuration.

        Unlike :meth:`evaluate`, parameters absent from the configuration
        are skipped — the user cannot judge a dimension the stream does
        not have — and with nothing to judge the score is 0.  The values
        combine in :meth:`parameter_names` order.
        """
        values = [
            fn(configuration[name])
            for name, fn in self.functions.items()
            if name in configuration
        ]
        return self.combiner(values) if values else 0.0
