"""Exception hierarchy for the content-adaptation framework.

Every exception raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while the
concrete subclasses keep failure modes distinguishable in tests and logs.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "UnknownFormatError",
    "UnknownParameterError",
    "UnknownServiceError",
    "UnknownNodeError",
    "SatisfactionDomainError",
    "MonotonicityError",
    "GraphConstructionError",
    "NoPathError",
    "PlacementError",
    "ChainValidationError",
    "DiscoveryError",
    "PipelineError",
    "GatewayError",
    "GatewayProtocolError",
    "PolicyDeniedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ValidationError(ReproError):
    """A profile, descriptor, or other input object failed validation."""


class UnknownFormatError(ReproError, KeyError):
    """A media format name was not found in the format registry."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unknown media format: {self.name!r}"


class UnknownParameterError(ReproError, KeyError):
    """A QoS parameter name was not found where one was expected."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unknown QoS parameter: {self.name!r}"


class UnknownServiceError(ReproError, KeyError):
    """A service identifier was not found in the catalog or graph."""

    def __init__(self, service_id: str) -> None:
        super().__init__(service_id)
        self.service_id = service_id

    def __str__(self) -> str:
        return f"unknown service: {self.service_id!r}"


class UnknownNodeError(ReproError, KeyError):
    """A network node identifier was not found in the topology."""

    def __init__(self, node_id: str) -> None:
        super().__init__(node_id)
        self.node_id = node_id

    def __str__(self) -> str:
        return f"unknown network node: {self.node_id!r}"


class SatisfactionDomainError(ReproError, ValueError):
    """A satisfaction function was evaluated or defined outside its domain."""


class MonotonicityError(ReproError, ValueError):
    """A satisfaction function violates the required monotonicity.

    The model of Richards et al. (Section 4.1 of the paper) requires every
    satisfaction function to increase monotonically from the minimum
    acceptable value to the ideal value.
    """


class GraphConstructionError(ReproError):
    """The adaptation graph could not be constructed from the given inputs."""


class NoPathError(ReproError):
    """The selection algorithm terminated with FAILURE (Step 3, Figure 4).

    Raised when the candidate set becomes empty before the receiver has been
    settled, i.e. no chain of trans-coding services can deliver the content
    within the stated constraints.
    """


class PlacementError(ReproError):
    """A service could not be placed on (or found at) a network node."""


class ChainValidationError(ReproError):
    """An adaptation chain is structurally invalid.

    Examples: consecutive services with mismatched formats, repeated formats
    along the chain (violating the distinct-format rule of Section 4.2), or a
    chain that does not start at the sender / end at the receiver.
    """


class DiscoveryError(ReproError):
    """A service-discovery operation failed (bad advertisement, expired...)."""


class PipelineError(ReproError):
    """The runtime delivery pipeline failed to execute a chain."""


class GatewayError(ReproError):
    """The serving gateway could not complete an operation."""


class GatewayProtocolError(GatewayError):
    """An HTTP/1.1 message on a gateway connection could not be parsed."""


class PolicyDeniedError(ReproError):
    """A policy rule explicitly denied the request (HTTP 403 at the gateway)."""

    def __init__(self, reason: str, rule_id: str = "") -> None:
        super().__init__(reason)
        self.reason = reason
        self.rule_id = rule_id
