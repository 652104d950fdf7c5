"""Network substrate: topology, bandwidth, and service placement.

The paper's algorithm consumes one network primitive —
``Bandwidth_AvailableBetween(Ti, Tprev)`` (Equation 2) — plus the knowledge
of where each service runs ("connected trans-coding services that run on the
same intermediate server have an unlimited amount of bandwidth between
them", Section 4.3).  This package provides both, built on a small
discrete-event-free topology simulator:

- :class:`~repro.network.topology.NetworkTopology` — nodes and links with
  bandwidth / delay / loss, plus routing queries (widest path, fewest hops);
- :class:`~repro.network.bandwidth.BandwidthEstimator` and fluctuation
  models — time-varying available bandwidth for the extension experiments;
- :class:`~repro.network.placement.ServicePlacement` — the service→node
  mapping.
"""

from repro.network.topology import Link, NetworkNode, NetworkTopology
from repro.network.bandwidth import (
    BandwidthEstimator,
    ConstantBandwidth,
    RandomWalkBandwidth,
    SinusoidalBandwidth,
)
from repro.network.placement import ServicePlacement

__all__ = [
    "NetworkNode",
    "Link",
    "NetworkTopology",
    "BandwidthEstimator",
    "ConstantBandwidth",
    "SinusoidalBandwidth",
    "RandomWalkBandwidth",
    "ServicePlacement",
]
