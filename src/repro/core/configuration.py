"""Concrete QoS parameter configurations.

A :class:`Configuration` is an immutable assignment of values to QoS
parameter names — "the configuration for each trans-coding service" the
selection algorithm chooses (Section 4.4).  Configurations know how to

- compute the bandwidth they require in a given media format (the left-hand
  side of Equation 2);
- compare themselves component-wise (quality *dominance*), which encodes the
  paper's core assumption that transcoders can only reduce quality;
- cap themselves against another configuration or against per-parameter
  limits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Tuple

from repro.core.parameters import (
    AUDIO_QUALITY,
    COLOR_DEPTH,
    FRAME_RATE,
    RESOLUTION,
)
from repro.errors import UnknownParameterError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (formats imports us)
    from repro.formats.format import MediaFormat

__all__ = ["Configuration", "FIT_SLACK", "fits_within", "required_bandwidth_of"]

#: Relative tolerance of Equation 2: a requirement fits a bandwidth when
#: ``required <= bandwidth * FIT_SLACK``.  It absorbs floating-point noise
#: from the optimizer's bandwidth inversion and from exact-fit reservations.
FIT_SLACK = 1.0 + 1e-9


def fits_within(required_bps: float, bandwidth_bps: float) -> bool:
    """Equation 2 with its tolerance: does ``bandwidth_bps`` carry
    ``required_bps``?

    The one fit test of the optimizer, its memo, the bandwidth ledger and
    the simulator, so a link carries a stream in all of them or in none.
    """
    return required_bps <= bandwidth_bps * FIT_SLACK


def required_bandwidth_of(values: Mapping[str, float], fmt: "MediaFormat") -> float:
    """Bits/second needed to carry ``values`` in ``fmt`` (Equation 2's
    left-hand side).

    Missing parameters default to 0, so a pure-audio assignment in a video
    format contributes only its audio term.  :meth:`Configuration.
    required_bandwidth` is this function on the configuration's values.
    """
    return fmt.required_bandwidth(
        frame_rate=values.get(FRAME_RATE, 0.0),
        resolution_pixels=values.get(RESOLUTION, 0.0),
        color_depth=values.get(COLOR_DEPTH, 0.0),
        audio_kbps=values.get(AUDIO_QUALITY, 0.0),
    )


class Configuration(Mapping[str, float]):
    """An immutable mapping of QoS parameter names to values."""

    __slots__ = ("_values", "_items_key")

    def __init__(self, values: Mapping[str, float]) -> None:
        if not values:
            raise ValidationError("a configuration must assign at least one parameter")
        clean: Dict[str, float] = {}
        for name, value in values.items():
            fvalue = float(value)
            if fvalue < 0:
                raise ValidationError(
                    f"parameter {name!r} must be non-negative, got {fvalue}"
                )
            clean[name] = fvalue
        self._values = clean
        self._items_key: Optional[Tuple[Tuple[str, float], ...]] = None

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> float:
        try:
            return self._values[name]
        except KeyError:
            raise UnknownParameterError(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Configuration):
            return self._values == other._values
        if isinstance(other, Mapping):
            return dict(self._values) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"Configuration({inner})"

    def items_key(self) -> Tuple[Tuple[str, float], ...]:
        """The ``(name, value)`` pairs in assignment order, as a hashable key.

        The order is part of the key: the optimizer breaks degrade-order
        ties by it, so two equal configurations assigned in different
        orders can optimize differently.  Computed once: a configuration
        never changes, and the optimize memo keys every call by its
        upstream configuration.
        """
        if self._items_key is None:
            self._items_key = tuple(self._values.items())
        return self._items_key

    # ------------------------------------------------------------------
    # Quality ordering
    # ------------------------------------------------------------------
    def dominates(self, other: "Configuration") -> bool:
        """True when every shared parameter of ``self`` is >= ``other``'s.

        Parameters present in only one configuration are ignored.  This is
        the partial order in which transcoders move monotonically downward.
        """
        return all(
            self._values[name] >= other._values[name]
            for name in self._values
            if name in other._values
        )

    def capped_by(self, limits: Mapping[str, float]) -> "Configuration":
        """A copy with every parameter reduced to at most ``limits[name]``.

        Parameters without an entry in ``limits`` pass through unchanged.
        This implements quality monotonicity: a transcoder's output is the
        input configuration capped by the transcoder's capabilities.
        """
        return Configuration(
            {
                name: min(value, limits[name]) if name in limits else value
                for name, value in self._values.items()
            }
        )

    def with_value(self, name: str, value: float) -> "Configuration":
        """A copy with one parameter replaced (added if absent)."""
        merged = dict(self._values)
        merged[name] = float(value)
        return Configuration(merged)

    # ------------------------------------------------------------------
    # Bandwidth (Equation 2, left-hand side)
    # ------------------------------------------------------------------
    def required_bandwidth(self, fmt: "MediaFormat") -> float:
        """Bits/second needed to carry this configuration in ``fmt``
        (see :func:`required_bandwidth_of`)."""
        return required_bandwidth_of(self._values, fmt)

    def fits_bandwidth(self, fmt: "MediaFormat", bandwidth_bps: float) -> bool:
        """Whether this configuration satisfies Equation 2 for a link.

        The requirement may exceed the bandwidth by the relative
        :data:`FIT_SLACK`.
        """
        return fits_within(self.required_bandwidth(fmt), bandwidth_bps)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def get_value(self, name: str, default: Optional[float] = None) -> Optional[float]:
        """Like :meth:`dict.get` but spelled out for readability."""
        return self._values.get(name, default)

    def as_dict(self) -> Dict[str, float]:
        """A plain mutable copy of the assignment."""
        return dict(self._values)
