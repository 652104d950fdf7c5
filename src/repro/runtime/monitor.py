"""Network monitoring: producing the Section-3 network profile.

The paper's network profile "requires collecting information about the
available resources in the network" — someone has to do the collecting.
:class:`NetworkMonitor` plays that role over the simulated substrate: it
samples every link's instantaneous bandwidth through a
:class:`~repro.network.bandwidth.BandwidthEstimator` (i.e. under whatever
fluctuation model is active), maintains smoothed estimates, and can emit a
:class:`~repro.profiles.network.NetworkProfile` snapshot at any time — the
document graph construction and re-planning consume.

Smoothing uses an exponential moving average (per link), the standard
conservative estimator for control loops: spikes decay instead of
whipsawing the planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.network.bandwidth import BandwidthEstimator
from repro.network.topology import NetworkTopology, link_key
from repro.profiles.network import LinkMeasurement, NetworkProfile

__all__ = ["LinkEstimate", "NetworkMonitor"]


@dataclass(frozen=True)
class LinkEstimate:
    """Smoothed view of one link at the last sampling instant."""

    a: str
    b: str
    smoothed_bps: float
    last_sample_bps: float
    samples: int

    @property
    def endpoints(self) -> Tuple[str, str]:
        return link_key(self.a, self.b)


class NetworkMonitor:
    """Samples link bandwidths and maintains smoothed estimates."""

    def __init__(
        self,
        estimator: BandwidthEstimator,
        smoothing: float = 0.3,
    ) -> None:
        """``smoothing`` is the EMA weight of the newest sample in (0, 1]:
        1.0 tracks instantaneously, small values react slowly."""
        if not 0.0 < smoothing <= 1.0:
            raise ValidationError("smoothing must lie in (0, 1]")
        self._estimator = estimator
        self._smoothing = smoothing
        self._estimates: Dict[Tuple[str, str], LinkEstimate] = {}
        self._last_sample_time: Optional[float] = None

    @property
    def topology(self) -> NetworkTopology:
        return self._estimator.topology

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, time_s: float) -> List[LinkEstimate]:
        """Measure every link at ``time_s`` and fold into the EMAs.

        Sampling must move forward in time (monitors do not time-travel).
        Returns the updated estimates.
        """
        if self._last_sample_time is not None and time_s < self._last_sample_time:
            raise ValidationError(
                f"sample time {time_s} precedes last sample "
                f"({self._last_sample_time})"
            )
        self._last_sample_time = time_s
        for link in self.topology.links():
            observed = self._estimator.link_bandwidth(link.a, link.b, time_s)
            key = link_key(link.a, link.b)
            previous = self._estimates.get(key)
            if previous is None:
                smoothed = observed
                count = 1
            else:
                smoothed = (
                    self._smoothing * observed
                    + (1.0 - self._smoothing) * previous.smoothed_bps
                )
                count = previous.samples + 1
            self._estimates[key] = LinkEstimate(
                a=key[0],
                b=key[1],
                smoothed_bps=smoothed,
                last_sample_bps=observed,
                samples=count,
            )
        return self.estimates()

    def sample_window(
        self, start_s: float, end_s: float, interval_s: float = 1.0
    ) -> int:
        """Sample repeatedly over a window; returns the sample count."""
        if interval_s <= 0:
            raise ValidationError("interval must be positive")
        count = 0
        time_s = start_s
        while time_s <= end_s + 1e-9:
            self.sample(time_s)
            count += 1
            time_s += interval_s
        return count

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def estimates(self) -> List[LinkEstimate]:
        return list(self._estimates.values())

    def estimate_for(self, a: str, b: str) -> Optional[LinkEstimate]:
        return self._estimates.get(link_key(a, b))

    def network_profile(self) -> NetworkProfile:
        """The Section-3 network profile from the smoothed estimates.

        Links never sampled report their nominal capacity (the monitor has
        no evidence against it).  Delay/loss/cost pass through from the
        topology — this monitor measures bandwidth only.
        """
        measurements = []
        for link in self.topology.links():
            estimate = self.estimate_for(link.a, link.b)
            throughput = (
                estimate.smoothed_bps if estimate is not None else link.bandwidth_bps
            )
            measurements.append(
                LinkMeasurement(
                    a=link.a,
                    b=link.b,
                    throughput_bps=throughput,
                    delay_ms=link.delay_ms,
                    loss_rate=link.loss_rate,
                    cost=link.cost,
                )
            )
        resources = {
            node.node_id: (node.cpu_mips, node.memory_mb)
            for node in self.topology.nodes()
        }
        return NetworkProfile(measurements, resources)

    def measured_topology(self) -> NetworkTopology:
        """A topology built from the monitored profile — hand this to the
        graph builder to plan against *measured* (not nominal) capacity."""
        return self.network_profile().to_topology()
