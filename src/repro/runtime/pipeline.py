"""The delivery pipeline: streaming a selected chain over the substrate.

Given the chain the selector picked and the configuration it promised, the
pipeline simulates the stream second by second:

- **startup latency** — first-frame transmission plus propagation along
  each hop's routed network path, plus per-service processing time (CPU
  demand over host capacity);
- **sustained delivery** — each second, the deliverable frame count is the
  planned frame rate capped by every hop's instantaneous bandwidth (the
  fluctuation model can dip below the planning-time snapshot), then thinned
  by end-to-end loss;
- **accounting** — money (service costs + per-hop transmission costs) and
  CPU work.

The model deliberately streams every hop at the *final* configuration's
parameter values (in that hop's format): the planning-time optimizer already
established that richer upstream quality fits the upstream links, so this
is the conservative bandwidth choice.  All randomness (loss) is seeded.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional

from repro.core.configuration import Configuration
from repro.core.parameters import FRAME_RATE
from repro.errors import PipelineError
from repro.formats.registry import FormatRegistry
from repro.network.bandwidth import BandwidthEstimator
from repro.network.placement import ServicePlacement
from repro.runtime.events import EventLog
from repro.runtime.metrics import DeliveryReport
from repro.services.chains import AdaptationChain
from repro.services.descriptor import ServiceKind

__all__ = ["DeliveryPipeline"]


class DeliveryPipeline:
    """Simulates streaming one adaptation chain."""

    def __init__(
        self,
        placement: ServicePlacement,
        registry: FormatRegistry,
        estimator: Optional[BandwidthEstimator] = None,
        seed: int = 0,
    ) -> None:
        self._placement = placement
        self._registry = registry
        self._estimator = (
            estimator
            if estimator is not None
            else BandwidthEstimator(placement.topology)
        )
        self._seed = seed

    def stream(
        self,
        chain: AdaptationChain,
        configuration: Configuration,
        score: Callable[[Configuration], float],
        sender_node: str,
        receiver_node: str,
        duration_s: float = 30.0,
        events: Optional[EventLog] = None,
    ) -> DeliveryReport:
        """Stream ``duration_s`` seconds of content through ``chain``.

        The chain's sender and receiver run on ``sender_node`` and
        ``receiver_node``; every other service on its placed host.
        """
        if duration_s <= 0:
            raise PipelineError("duration must be positive")
        hops = self._hop_plan(chain, configuration, sender_node, receiver_node)
        frame_rate = configuration.get_value(FRAME_RATE, 0.0) or 0.0
        log = events if events is not None else EventLog()
        rng = random.Random(self._seed)

        startup = self._startup_latency(hops, frame_rate)
        log.record(0.0, "pipeline", f"chain {chain} starting, planned {frame_rate:g} fps")
        log.record(startup, "pipeline", f"first frame delivered after {startup * 1000:.1f} ms")

        per_second: List[int] = []
        frames_sent = 0
        frames_delivered = 0
        whole_seconds = max(1, int(math.ceil(duration_s)))
        for second in range(whole_seconds):
            window = min(1.0, duration_s - second)
            target = frame_rate * window
            deliverable = target
            for hop in hops:
                capacity_fps = self._hop_capacity_fps(hop, float(second))
                deliverable = min(deliverable, capacity_fps * window)
            sent = int(round(target))
            survived = self._apply_loss(int(round(deliverable)), hops, rng)
            frames_sent += sent
            frames_delivered += survived
            per_second.append(survived)
            if survived < sent:
                log.record(
                    float(second + 1),
                    "degradation",
                    f"second {second}: {survived}/{sent} frames",
                )

        average = frames_delivered / duration_s
        jitter = self._stddev(per_second)
        total_cost = chain.total_cost() + sum(hop.transmission_cost for hop in hops)
        cpu_work = sum(hop.cpu_mips for hop in hops) * duration_s
        log.record(float(whole_seconds), "pipeline", "stream complete")

        return DeliveryReport(
            path=tuple(chain.service_ids()),
            configuration=configuration,
            satisfaction=score(configuration),
            startup_latency_s=startup,
            duration_s=duration_s,
            frames_sent=frames_sent,
            frames_delivered=frames_delivered,
            average_frame_rate=average,
            frame_rate_jitter=jitter,
            total_cost=total_cost,
            cpu_mips_seconds=cpu_work,
        )

    # ------------------------------------------------------------------
    # Hop planning
    # ------------------------------------------------------------------
    class _Hop:
        """Resolved per-hop transport facts."""

        __slots__ = (
            "source_node",
            "target_node",
            "route",
            "format_name",
            "frame_bits",
            "loss_rate",
            "delay_s",
            "transmission_cost",
            "cpu_mips",
        )

        def __init__(self, **kwargs) -> None:
            for name, value in kwargs.items():
                setattr(self, name, value)

    def _hop_plan(
        self,
        chain: AdaptationChain,
        configuration: Configuration,
        sender_node: str,
        receiver_node: str,
    ) -> List["_Hop"]:
        placement = self._placement
        topology = placement.topology
        hops: List[DeliveryPipeline._Hop] = []
        sequence = list(chain)
        for upstream, downstream in zip(sequence, sequence[1:]):
            source_node = placement.node_for(
                upstream.service.service_id, sender_node, receiver_node
            )
            target_node = placement.node_for(
                downstream.service.service_id, sender_node, receiver_node
            )
            route = topology.hop_route(source_node, target_node)
            if route is None:
                raise PipelineError(
                    f"hosts {source_node!r} and {target_node!r} are "
                    f"disconnected; cannot stream hop into "
                    f"{downstream.service.service_id}"
                )
            fmt = self._registry.get(downstream.via_format)
            per_frame = configuration.with_value(FRAME_RATE, 1.0).required_bandwidth(fmt)
            cpu = 0.0
            if downstream.service.kind is ServiceKind.TRANSCODER:
                input_bps = configuration.required_bandwidth(fmt)
                host = topology.get_node(target_node)
                demand = downstream.service.cpu_required(input_bps)
                if demand > host.cpu_mips:
                    raise PipelineError(
                        f"{downstream.service.service_id} needs "
                        f"{demand:.1f} MIPS, host {target_node!r} has "
                        f"{host.cpu_mips:.1f}"
                    )
                cpu = demand
            hops.append(
                DeliveryPipeline._Hop(
                    source_node=source_node,
                    target_node=target_node,
                    route=route,
                    format_name=fmt.name,
                    frame_bits=per_frame,
                    loss_rate=topology.path_loss_rate(route),
                    delay_s=topology.path_delay_ms(route) / 1000.0,
                    transmission_cost=topology.path_cost(route),
                    cpu_mips=cpu,
                )
            )
        return hops

    # ------------------------------------------------------------------
    # Per-hop physics
    # ------------------------------------------------------------------
    def _hop_capacity_fps(self, hop: "_Hop", time_s: float) -> float:
        """Frames/second the hop can carry at ``time_s``."""
        if len(hop.route) < 2:
            return math.inf  # Co-located services: unlimited (Section 4.3).
        bandwidth = min(
            self._estimator.link_bandwidth(a, b, time_s)
            for a, b in zip(hop.route, hop.route[1:])
        )
        if hop.frame_bits <= 0:
            return math.inf
        return bandwidth / hop.frame_bits

    def _startup_latency(self, hops: List["_Hop"], frame_rate: float) -> float:
        """Propagation + first-frame serialization + processing, summed."""
        latency = 0.0
        for hop in hops:
            latency += hop.delay_s
            capacity = self._hop_capacity_fps(hop, 0.0)
            if capacity > 0 and not math.isinf(capacity):
                latency += 1.0 / capacity  # Serialize one frame.
            if hop.cpu_mips > 0 and frame_rate > 0:
                host = self._placement.topology.get_node(hop.target_node)
                # Fraction of a second of CPU per second of content, spread
                # over the frames of that second.
                latency += (hop.cpu_mips / host.cpu_mips) / frame_rate
        return latency

    @staticmethod
    def _apply_loss(frames: int, hops: List["_Hop"], rng: random.Random) -> int:
        """Thin a second's frames by each hop's loss rate (Bernoulli)."""
        survived = frames
        for hop in hops:
            if hop.loss_rate <= 0.0 or survived == 0:
                continue
            survived = sum(1 for _ in range(survived) if rng.random() >= hop.loss_rate)
        return survived

    @staticmethod
    def _stddev(values: List[int]) -> float:
        if len(values) < 2:
            return 0.0
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return math.sqrt(variance)
