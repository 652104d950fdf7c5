"""Time-varying available bandwidth.

Section 3's network profile motivates "dynamically adapt[ing] the multimedia
content to the fluctuating network resources".  The selection algorithm
itself works on a snapshot, but the runtime pipeline and the extension
experiments need bandwidth that changes over time.  A *fluctuation model*
maps ``(link, time)`` to a multiplicative factor in ``(0, 1]``; the
:class:`BandwidthEstimator` applies it on top of a topology and answers the
same queries the static topology does.

All randomness is seeded — rerunning a scenario reproduces the same series.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, Optional, Tuple

from repro.errors import ValidationError
from repro.network.topology import Link, NetworkTopology

__all__ = [
    "FluctuationModel",
    "ConstantBandwidth",
    "SinusoidalBandwidth",
    "RandomWalkBandwidth",
    "BandwidthEstimator",
]

#: Seconds between the steps of a :class:`RandomWalkBandwidth` walk.
_TICK_S = 1.0


class FluctuationModel:
    """Maps (link, time) to a bandwidth factor in ``(0, 1]``."""

    def factor(self, link: Link, time_s: float) -> float:
        raise NotImplementedError


class ConstantBandwidth(FluctuationModel):
    """No fluctuation: the published bandwidth is always available."""

    def factor(self, link: Link, time_s: float) -> float:
        return 1.0


class SinusoidalBandwidth(FluctuationModel):
    """Smooth periodic fluctuation (diurnal-load stand-in).

    The factor oscillates in ``[1 - amplitude, 1]``; each link gets a
    deterministic phase derived from its endpoints so links do not move in
    lockstep.
    """

    def __init__(self, amplitude: float = 0.3, period_s: float = 60.0) -> None:
        if not 0.0 <= amplitude < 1.0:
            raise ValidationError("amplitude must lie in [0, 1)")
        if period_s <= 0:
            raise ValidationError("period must be positive")
        self._amplitude = amplitude
        self._period = period_s

    def factor(self, link: Link, time_s: float) -> float:
        # crc32, not hash(): str hashing is salted per process
        # (PYTHONHASHSEED), which would break cross-run determinism.
        digest = zlib.crc32(f"{link.a}|{link.b}".encode("utf-8"))
        phase = (digest % 997) / 997.0 * 2.0 * math.pi
        wave = 0.5 * (1.0 + math.sin(2.0 * math.pi * time_s / self._period + phase))
        return 1.0 - self._amplitude * wave


class RandomWalkBandwidth(FluctuationModel):
    """Seeded bounded random walk per link, sampled on a one-second tick.

    Models bursty cross-traffic: each tick the factor moves by a uniform
    step and is reflected into ``[floor, 1]``.
    """

    def __init__(
        self,
        seed: int = 0,
        step: float = 0.05,
        floor: float = 0.2,
    ) -> None:
        if not 0.0 < floor <= 1.0:
            raise ValidationError("floor must lie in (0, 1]")
        if step < 0:
            raise ValidationError("step must be >= 0")
        self._seed = seed
        self._step = step
        self._floor = floor
        self._cache: Dict[Tuple[Tuple[str, str], int], float] = {}

    def factor(self, link: Link, time_s: float) -> float:
        tick = int(time_s / _TICK_S)
        key = (link.endpoints(), tick)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        # Walk forward from the most recent cached tick (or from 1.0 at t=0)
        # so factors are consistent regardless of query order.
        start_tick = 0
        factor = 1.0
        for t in range(tick, -1, -1):
            hit = self._cache.get((link.endpoints(), t))
            if hit is not None:
                start_tick, factor = t, hit
                break
        for t in range(start_tick + 1, tick + 1):
            # Each tick's step is independently seeded so the walk is
            # identical no matter which tick gets queried first.
            rng = random.Random(f"{self._seed}:{link.a}:{link.b}:{t}")
            factor += rng.uniform(-self._step, self._step)
            # Reflect into [floor, 1].
            if factor > 1.0:
                factor = 2.0 - factor
            if factor < self._floor:
                factor = 2.0 * self._floor - factor
            factor = min(1.0, max(self._floor, factor))
            self._cache[(link.endpoints(), t)] = factor
        self._cache[key] = factor
        return factor


class BandwidthEstimator:
    """Topology + fluctuation model = time-dependent bandwidth queries.

    With the default :class:`ConstantBandwidth` model this reproduces the
    static topology's numbers exactly, so the selector can be handed an
    estimator unconditionally.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        model: Optional[FluctuationModel] = None,
    ) -> None:
        self._topology = topology
        self._model = model if model is not None else ConstantBandwidth()

    @property
    def topology(self) -> NetworkTopology:
        return self._topology

    def link_bandwidth(self, a: str, b: str, time_s: float = 0.0) -> float:
        """Instantaneous available bandwidth of one link."""
        link = self._topology.get_link(a, b)
        return link.bandwidth_bps * self._model.factor(link, time_s)

    def available_bandwidth(self, source: str, target: str, time_s: float = 0.0) -> float:
        """Instantaneous bottleneck bandwidth between two hosts.

        Uses the static widest path (route pinning: routes are chosen on
        published bandwidth, as a real overlay would) and applies the
        fluctuation factor per link along it.
        """
        path = self._topology.hop_route(source, target)
        if path is None:
            return 0.0
        if len(path) < 2:
            return math.inf
        return min(
            self.link_bandwidth(x, y, time_s) for x, y in zip(path, path[1:])
        )

    def series(
        self,
        source: str,
        target: str,
        duration_s: float,
        interval_s: float = 1.0,
    ):
        """Sampled ``(time, bandwidth)`` pairs over a time window."""
        if interval_s <= 0:
            raise ValidationError("interval must be positive")
        samples = []
        t = 0.0
        while t <= duration_s:
            samples.append((t, self.available_bandwidth(source, target, t)))
            t += interval_s
        return samples
