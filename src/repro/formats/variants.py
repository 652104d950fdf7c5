"""Content variants: one encoded instance of a content item.

The content profile (Section 3) lists "all the possible variants of the
content", each in a certain format.  A :class:`ContentVariant` couples a
media format with the QoS parameter values the variant was encoded at; it is
the unit that flows out of the sender, through trans-coding services, and
over network links in the runtime pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from repro.core.configuration import Configuration
from repro.errors import ValidationError
from repro.formats.format import MediaFormat

__all__ = ["ContentVariant"]


@dataclass(frozen=True)
class ContentVariant:
    """One encoded variant of a content item.

    Parameters
    ----------
    format:
        The :class:`MediaFormat` the variant is encoded in.
    configuration:
        The QoS parameter values of the encoding (frame rate, resolution,
        color depth, audio quality, ...).
    title:
        Optional human-readable label, carried through transcoding.
    metadata:
        Free-form MPEG-7 style descriptive metadata.
    """

    format: MediaFormat
    configuration: Configuration
    title: str = ""
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.configuration, Configuration):
            raise ValidationError(
                "ContentVariant.configuration must be a Configuration"
            )

    def cache_key(self) -> Tuple:
        """A stable, hashable tuple identifying this variant exactly.

        The configuration keys in assignment order
        (:meth:`~repro.core.configuration.Configuration.items_key`): the
        optimizer breaks degrade-order ties by it, so the same values
        assigned in another order can plan differently.
        """
        return (
            self.format.cache_key(),
            self.configuration.items_key(),
            self.title,
            tuple(sorted(self.metadata.items())),
        )

    # The ``metadata`` mapping defeats the generated dataclass hash.  Hash
    # the configuration order-blind, as the generated ``__eq__`` compares.
    def __hash__(self) -> int:
        return hash(
            (
                self.format.cache_key(),
                self.configuration,
                self.title,
                tuple(sorted(self.metadata.items())),
            )
        )

    def required_bandwidth(self) -> float:
        """Bits/second needed to stream this variant as encoded."""
        return self.configuration.required_bandwidth(self.format)

    def degraded(self, fmt: MediaFormat, limits: Mapping[str, float]) -> "ContentVariant":
        """A new variant re-encoded into ``fmt`` with capped parameters.

        This is the primitive the synthetic transcoders use: quality can
        only stay or go down (the configuration is capped, never raised),
        matching Section 4.4's assumption.
        """
        return ContentVariant(
            format=fmt,
            configuration=self.configuration.capped_by(limits),
            title=self.title,
            metadata=dict(self.metadata),
        )

    def __str__(self) -> str:
        label = self.title or "variant"
        return f"{label} [{self.format.name}]"
