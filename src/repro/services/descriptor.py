"""Service descriptors: the advertised description of a trans-coding service.

Section 3 of the paper ("Profile of Intermediaries") says a service
description includes "the possible input and output format to the service,
the required processing and computation power of the service, and maybe the
cost for using the service".  :class:`ServiceDescriptor` is exactly that
record, plus the per-parameter *output capabilities* the configuration
optimizer needs (a transcoder that emits at most 15 fps caps the frame-rate
parameter at 15).

Two special kinds exist (Section 4.2): the sender is "a special case vertex
with only output links" and the receiver "another special vertex with only
input links".  Both are represented as descriptors with the corresponding
:class:`ServiceKind` so the graph and selector treat all vertices uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.errors import ValidationError

__all__ = ["ServiceKind", "ServiceDescriptor", "SERVICE_TIERS"]

#: Hardware-acceleration tiers a service can run on.  ``sw`` is the
#: commodity software tier; ``hw`` models accelerated fleets (ASIC/GPU
#: transcoders): typically a higher per-use cost but a much lower CPU
#: demand per megabit.
SERVICE_TIERS = ("sw", "hw")


class ServiceKind(enum.Enum):
    """What role a vertex plays in the adaptation graph."""

    TRANSCODER = "transcoder"
    SENDER = "sender"
    RECEIVER = "receiver"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ServiceDescriptor:
    """Declarative description of one trans-coding service.

    Parameters
    ----------
    service_id:
        Unique identifier within a catalog (the paper uses ``T1``..``T20``).
    input_formats:
        Names of formats the service accepts (the input links of Figure 2).
        Must be empty for senders and non-empty otherwise.
    output_formats:
        Names of formats the service can produce (the output links of
        Figure 2).  Must be empty for receivers and non-empty otherwise.
    output_caps:
        Upper bounds on QoS parameter values of the *output* stream, by
        parameter name.  Parameters not listed are unconstrained by the
        service.  For receivers these are the rendering limits of the
        device (display resolution, color depth, ...).
    cost:
        Monetary cost of one use of the service (Section 4.4's
        ``transcoding cost``; the transmission part lives on graph edges).
    cpu_factor:
        Processing requirement per input megabit per second (abstract
        MIPS/Mbps).  Used for placement feasibility and pipeline latency.
    memory_mb:
        Resident memory required to run the service, in megabytes.
    kind:
        :class:`ServiceKind`; defaults to a regular transcoder.
    provider / description:
        Informational metadata carried from the advertisement.
    tier:
        Hardware tier the service runs on, from :data:`SERVICE_TIERS`.
        ``hw`` instances model accelerated fleets with distinct
        cost/CPU curves; policy rules can constrain planning to one
        tier (``force_tier``).
    """

    service_id: str
    input_formats: Tuple[str, ...] = ()
    output_formats: Tuple[str, ...] = ()
    output_caps: Mapping[str, float] = field(default_factory=dict)
    cost: float = 0.0
    cpu_factor: float = 1.0
    memory_mb: float = 16.0
    kind: ServiceKind = ServiceKind.TRANSCODER
    provider: str = ""
    description: str = ""
    tier: str = "sw"

    def __post_init__(self) -> None:
        if not self.service_id:
            raise ValidationError("service_id must be non-empty")
        if self.tier not in SERVICE_TIERS:
            raise ValidationError(
                f"{self.service_id}: tier must be one of "
                f"{', '.join(SERVICE_TIERS)}, got {self.tier!r}"
            )
        object.__setattr__(self, "input_formats", tuple(self.input_formats))
        object.__setattr__(self, "output_formats", tuple(self.output_formats))
        for label, formats in (
            ("input", self.input_formats),
            ("output", self.output_formats),
        ):
            seen = set()
            for name in formats:
                if name in seen:
                    raise ValidationError(
                        f"{self.service_id}: {label} format {name!r} listed twice"
                    )
                seen.add(name)
        if self.cost < 0:
            raise ValidationError(f"{self.service_id}: cost must be >= 0")
        if self.cpu_factor < 0:
            raise ValidationError(f"{self.service_id}: cpu_factor must be >= 0")
        if self.memory_mb < 0:
            raise ValidationError(f"{self.service_id}: memory_mb must be >= 0")
        if self.kind is ServiceKind.SENDER:
            if self.input_formats:
                raise ValidationError(
                    f"{self.service_id}: a sender has only output links"
                )
            if not self.output_formats:
                raise ValidationError(
                    f"{self.service_id}: a sender needs at least one output format"
                )
        elif self.kind is ServiceKind.RECEIVER:
            if self.output_formats:
                raise ValidationError(
                    f"{self.service_id}: a receiver has only input links"
                )
            if not self.input_formats:
                raise ValidationError(
                    f"{self.service_id}: a receiver needs at least one input format"
                )
        else:
            if not self.input_formats or not self.output_formats:
                raise ValidationError(
                    f"{self.service_id}: a transcoder needs input and output formats"
                )
        for name, value in self.output_caps.items():
            if value < 0:
                raise ValidationError(
                    f"{self.service_id}: cap for {name!r} must be >= 0, got {value}"
                )

    def cache_key(self) -> Tuple:
        """A stable, hashable tuple identifying this descriptor exactly."""
        return (
            self.service_id,
            self.input_formats,
            self.output_formats,
            tuple(sorted(self.output_caps.items())),
            self.cost,
            self.cpu_factor,
            self.memory_mb,
            self.kind.value,
            self.provider,
            self.description,
            self.tier,
        )

    # The ``output_caps`` mapping defeats the generated dataclass hash.
    def __hash__(self) -> int:
        return hash(self.cache_key())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def accepts(self, format_name: str) -> bool:
        """Whether ``format_name`` is one of this service's input links."""
        return format_name in self.input_formats

    def produces(self, format_name: str) -> bool:
        """Whether ``format_name`` is one of this service's output links."""
        return format_name in self.output_formats

    def can_follow(self, upstream: "ServiceDescriptor") -> bool:
        """Whether any output of ``upstream`` matches an input of this
        service (the edge-existence test of Section 4.2)."""
        return any(self.accepts(fmt) for fmt in upstream.output_formats)

    def matching_formats(self, upstream: "ServiceDescriptor") -> Tuple[str, ...]:
        """All formats on which ``upstream`` can feed this service."""
        return tuple(f for f in upstream.output_formats if self.accepts(f))

    def cpu_required(self, input_bps: float) -> float:
        """Abstract CPU demand (MIPS) for a given input data rate."""
        if input_bps < 0:
            raise ValidationError("input_bps must be >= 0")
        return self.cpu_factor * input_bps / 1e6

    @property
    def is_sender(self) -> bool:
        return self.kind is ServiceKind.SENDER

    @property
    def is_receiver(self) -> bool:
        return self.kind is ServiceKind.RECEIVER

    @property
    def is_transcoder(self) -> bool:
        return self.kind is ServiceKind.TRANSCODER

    def __str__(self) -> str:
        return self.service_id


def sender_descriptor(
    service_id: str,
    output_formats: Tuple[str, ...],
    output_caps: Optional[Mapping[str, float]] = None,
) -> ServiceDescriptor:
    """Convenience constructor for the sender pseudo-vertex."""
    return ServiceDescriptor(
        service_id=service_id,
        output_formats=tuple(output_formats),
        output_caps=dict(output_caps or {}),
        kind=ServiceKind.SENDER,
    )


def receiver_descriptor(
    service_id: str,
    input_formats: Tuple[str, ...],
    rendering_caps: Optional[Mapping[str, float]] = None,
) -> ServiceDescriptor:
    """Convenience constructor for the receiver pseudo-vertex.

    ``rendering_caps`` are the device's rendering limits (display
    resolution, color depth, maximum frame rate the hardware can paint).
    """
    return ServiceDescriptor(
        service_id=service_id,
        input_formats=tuple(input_formats),
        output_caps=dict(rendering_caps or {}),
        kind=ServiceKind.RECEIVER,
    )
