"""The service catalog: every trans-coding service known to a scenario.

Graph construction (Section 4.2) draws its intermediate vertices from "the
list of available trans-coding services" gathered from the intermediary
profiles.  :class:`ServiceCatalog` is that list, indexed by service id, with
the format-based queries the builder and the discovery layer need.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import UnknownServiceError, ValidationError
from repro.services.descriptor import ServiceDescriptor, ServiceKind

__all__ = ["ServiceCatalog", "service_sort_key"]

_NUMERIC_SUFFIX = re.compile(r"^(.*?)(\d+)$")


def service_sort_key(service_id: str) -> Tuple[str, float]:
    """Sort key treating trailing digits numerically: T2 < T10 < T20.

    Pure-text ids sort after their prefix group's numbered ids would — in
    practice the paper's ids are ``T<n>`` plus ``sender``/``receiver``, and
    this key orders them the way the paper lists them.
    """
    match = _NUMERIC_SUFFIX.match(service_id)
    if match:
        return (match.group(1), float(match.group(2)))
    return (service_id, -1.0)


class ServiceCatalog:
    """A mutable, id-indexed collection of service descriptors."""

    def __init__(self, descriptors: Iterable[ServiceDescriptor] = ()) -> None:
        self._services: Dict[str, ServiceDescriptor] = {}
        self._generation = 0
        for descriptor in descriptors:
            self.add(descriptor)

    @property
    def generation(self) -> int:
        """Monotonic mutation counter.

        Bumped by every successful :meth:`add` / :meth:`remove`.  Plan
        fingerprints hash the catalog's content, not this counter; a bump
        only tells the fingerprint's digest memo to re-digest it.
        """
        return self._generation

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, descriptor: ServiceDescriptor, replace: bool = False) -> ServiceDescriptor:
        """Register a descriptor; duplicate ids raise unless ``replace``."""
        existing = self._services.get(descriptor.service_id)
        if existing is not None and existing != descriptor and not replace:
            raise ValidationError(
                f"service {descriptor.service_id!r} already in catalog; "
                f"pass replace=True to overwrite"
            )
        self._services[descriptor.service_id] = descriptor
        self._generation += 1
        return descriptor

    def remove(self, service_id: str) -> ServiceDescriptor:
        """Remove and return a descriptor; unknown ids raise."""
        try:
            descriptor = self._services.pop(service_id)
        except KeyError:
            raise UnknownServiceError(service_id) from None
        self._generation += 1
        return descriptor

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, service_id: str) -> ServiceDescriptor:
        try:
            return self._services[service_id]
        except KeyError:
            raise UnknownServiceError(service_id) from None

    def __getitem__(self, service_id: str) -> ServiceDescriptor:
        return self.get(service_id)

    def __contains__(self, service_id: object) -> bool:
        return service_id in self._services

    def __iter__(self) -> Iterator[ServiceDescriptor]:
        """Iterate in natural id order (T1, T2, ..., T10, ...)."""
        for service_id in self.ids():
            yield self._services[service_id]

    def __len__(self) -> int:
        return len(self._services)

    def ids(self) -> List[str]:
        """All service ids in natural order."""
        return sorted(self._services, key=service_sort_key)

    # ------------------------------------------------------------------
    # Format-based queries (used by graph construction and discovery)
    # ------------------------------------------------------------------
    def accepting(self, format_name: str) -> List[ServiceDescriptor]:
        """Services with ``format_name`` among their input links."""
        return [s for s in self if s.accepts(format_name)]

    def producing(self, format_name: str) -> List[ServiceDescriptor]:
        """Services with ``format_name`` among their output links."""
        return [s for s in self if s.produces(format_name)]

    def transcoders(self) -> List[ServiceDescriptor]:
        """All regular (non-sender, non-receiver) services."""
        return [s for s in self if s.kind is ServiceKind.TRANSCODER]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServiceCatalog({self.ids()})"
