"""Adaptation chains: validated, executable service sequences.

The output of the path-selection algorithm is "a chain of trans-coding
services, starting from the sender node and ending with the receiver node"
(Section 4.4).  :class:`AdaptationChain` is that chain as a first-class
object: it validates the structural rules of Section 4.2 on construction —

- consecutive services are joined by a format that is an output link of the
  upstream service and an input link of the downstream one;
- all formats along the chain are pairwise distinct (the acyclicity rule);
- the chain starts at a sender and ends at a receiver (when ``strict``);

and can execute itself over a content variant via the synthetic
transcoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ChainValidationError
from repro.formats.registry import FormatRegistry
from repro.formats.variants import ContentVariant
from repro.services.descriptor import ServiceDescriptor, ServiceKind
from repro.services.transcoder import SyntheticTranscoder

__all__ = ["ChainHop", "AdaptationChain"]


@dataclass(frozen=True)
class ChainHop:
    """One hop of a chain: a service reached *via* a format.

    ``via_format`` is the format on the edge entering ``service`` (``None``
    only for the sender, which has no incoming edge).
    """

    service: ServiceDescriptor
    via_format: Optional[str] = None

    def __str__(self) -> str:
        if self.via_format is None:
            return self.service.service_id
        return f"--{self.via_format}--> {self.service.service_id}"


class AdaptationChain:
    """A validated sequence of services from sender to receiver."""

    def __init__(self, hops: Sequence[ChainHop], strict: bool = True) -> None:
        if len(hops) < 2:
            raise ChainValidationError("a chain needs at least a sender and a receiver")
        self._hops: Tuple[ChainHop, ...] = tuple(hops)
        self._validate(strict)

    # ------------------------------------------------------------------
    # Validation (the Section 4.2 structural rules)
    # ------------------------------------------------------------------
    def _validate(self, strict: bool) -> None:
        first, last = self._hops[0], self._hops[-1]
        if first.via_format is not None:
            raise ChainValidationError("the first hop (sender) has no incoming format")
        if strict and first.service.kind is not ServiceKind.SENDER:
            raise ChainValidationError(
                f"chain must start at a sender, got {first.service.service_id!r}"
            )
        if strict and last.service.kind is not ServiceKind.RECEIVER:
            raise ChainValidationError(
                f"chain must end at a receiver, got {last.service.service_id!r}"
            )
        seen_services = set()
        seen_formats = set()
        for upstream, downstream in zip(self._hops, self._hops[1:]):
            fmt = downstream.via_format
            if fmt is None:
                raise ChainValidationError(
                    f"hop into {downstream.service.service_id!r} is missing its format"
                )
            if not upstream.service.produces(fmt):
                raise ChainValidationError(
                    f"{upstream.service.service_id} does not produce {fmt!r}"
                )
            if not downstream.service.accepts(fmt):
                raise ChainValidationError(
                    f"{downstream.service.service_id} does not accept {fmt!r}"
                )
            if fmt in seen_formats:
                raise ChainValidationError(
                    f"format {fmt!r} repeats along the chain "
                    f"(violates the distinct-format rule)"
                )
            seen_formats.add(fmt)
        for hop in self._hops:
            if hop.service.service_id in seen_services:
                raise ChainValidationError(
                    f"service {hop.service.service_id!r} repeats along the chain"
                )
            seen_services.add(hop.service.service_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hops(self) -> Tuple[ChainHop, ...]:
        return self._hops

    def service_ids(self) -> List[str]:
        """The service ids along the chain, sender first."""
        return [hop.service.service_id for hop in self._hops]

    def formats(self) -> List[str]:
        """The edge formats along the chain, in traversal order."""
        return [hop.via_format for hop in self._hops[1:] if hop.via_format is not None]

    def total_cost(self) -> float:
        """Sum of the per-use costs of every service on the chain."""
        return sum(hop.service.cost for hop in self._hops)

    def __len__(self) -> int:
        return len(self._hops)

    def __iter__(self) -> Iterator[ChainHop]:
        return iter(self._hops)

    def __str__(self) -> str:
        return ",".join(self.service_ids())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, variant: ContentVariant, registry: FormatRegistry) -> ContentVariant:
        """Run the content through every transcoder on the chain.

        The variant entering each transcoder must match that hop's
        ``via_format``; the transcoder re-encodes it into the next hop's
        format.  The final hop (receiver) performs no transcoding, but its
        rendering caps are applied so the returned variant is what the
        device actually presents.
        """
        current = variant
        hops = self._hops
        for index in range(1, len(hops)):
            hop = hops[index]
            if current.format.name != hop.via_format:
                raise ChainValidationError(
                    f"variant in format {current.format.name!r} reached "
                    f"{hop.service.service_id} expecting {hop.via_format!r}"
                )
            if hop.service.kind is ServiceKind.RECEIVER:
                current = current.degraded(current.format, hop.service.output_caps)
                break
            next_format = hops[index + 1].via_format if index + 1 < len(hops) else None
            if next_format is None:
                raise ChainValidationError(
                    f"non-receiver hop {hop.service.service_id} has no outgoing format"
                )
            transcoder = SyntheticTranscoder(hop.service, registry)
            current = transcoder.transcode(current, next_format).output
        return current


def chain_from_services(
    services: Iterable[ServiceDescriptor],
    formats: Iterable[str],
    strict: bool = True,
) -> AdaptationChain:
    """Build a chain from parallel sequences of services and edge formats.

    ``formats`` has one entry per edge, i.e. ``len(services) - 1`` entries.
    """
    service_list = list(services)
    format_list = list(formats)
    if len(format_list) != len(service_list) - 1:
        raise ChainValidationError(
            f"need {len(service_list) - 1} formats for {len(service_list)} "
            f"services, got {len(format_list)}"
        )
    hops = [ChainHop(service_list[0], None)]
    hops.extend(
        ChainHop(service, fmt)
        for service, fmt in zip(service_list[1:], format_list)
    )
    return AdaptationChain(hops, strict=strict)
