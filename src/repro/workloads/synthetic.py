"""Seeded synthetic scenario generation.

The paper evaluates on one hand-drawn graph; the scalability, ablation, and
property-based experiments need families of scenarios.  The generator
builds, from a single integer seed:

- a format universe with varied compression ratios;
- a random connected topology (spanning tree + extra links) with random
  link bandwidths, delays, and costs;
- a guaranteed-feasible *backbone* chain of services from the sender's
  format to a device-decodable format (so "no path exists" never happens
  unless explicitly requested);
- random additional services with random format signatures, caps, and
  costs, placed on random hosts;
- user/content/device profiles consistent with it all.

Everything is driven by ``random.Random(seed)`` — identical seeds yield
identical scenarios, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


from repro.core.configuration import Configuration
from repro.core.parameters import (
    COLOR_DEPTH,
    FRAME_RATE,
    RESOLUTION,
    ContinuousDomain,
    DiscreteDomain,
    Parameter,
    ParameterSet,
)
from repro.core.satisfaction import LinearSatisfaction, PiecewiseLinearSatisfaction
from repro.errors import ValidationError
from repro.formats.format import MediaType
from repro.formats.registry import FormatRegistry
from repro.formats.variants import ContentVariant
from repro.network.placement import ServicePlacement
from repro.network.topology import NetworkTopology
from repro.profiles.content import ContentProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.user import UserProfile
from repro.services.catalog import ServiceCatalog
from repro.services.descriptor import ServiceDescriptor
from repro.workloads.scenario import Scenario

__all__ = ["SyntheticConfig", "generate_scenario"]

_RESOLUTIONS = [176.0 * 144.0, 320.0 * 240.0, 640.0 * 480.0]
_DEPTHS = [8.0, 16.0, 24.0]
#: Link bandwidths are drawn uniformly from this range (bits/second).
_MIN_BANDWIDTH_BPS = 1e6
_MAX_BANDWIDTH_BPS = 20e6
#: The synthetic user's budget.
_BUDGET = 1_000.0


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for one synthetic scenario family member."""

    seed: int = 0
    n_services: int = 30
    n_formats: int = 12
    n_nodes: int = 10
    extra_links: int = 8
    backbone_hops: int = 3
    max_service_cost: float = 4.0
    #: "single": frame-rate-only preferences (the paper's example shape);
    #: "rich": frame rate + resolution preferences with free color depth.
    preference_mode: str = "single"
    #: Probability that a non-backbone service caps its output frame rate.
    cap_probability: float = 0.4
    #: How many extra decodable formats the device gets beyond the
    #: backbone's final format.
    extra_decoders: int = 2
    #: Fraction of transcoders that also get a hardware-tier sibling
    #: (``<id>-hw``: higher cost, much lower CPU demand).  0 keeps the
    #: catalog identical to earlier generator versions.
    hw_tier_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_services < self.backbone_hops:
            raise ValidationError("need at least backbone_hops services")
        if self.backbone_hops < 1:
            raise ValidationError("backbone needs at least one hop")
        if self.n_formats < self.backbone_hops + 1:
            raise ValidationError("need more formats than backbone hops")
        if self.n_nodes < 3:
            raise ValidationError("need at least sender, proxy, receiver nodes")
        if self.preference_mode not in ("single", "rich"):
            raise ValidationError(f"unknown preference mode {self.preference_mode!r}")
        if not 0.0 <= self.cap_probability <= 1.0:
            raise ValidationError("cap probability must lie in [0, 1]")
        if not 0.0 <= self.hw_tier_fraction <= 1.0:
            raise ValidationError("hw tier fraction must lie in [0, 1]")


def generate_scenario(config: SyntheticConfig) -> Scenario:
    """Build one deterministic scenario from ``config``."""
    rng = random.Random(config.seed)

    registry = _make_formats(rng, config)
    format_names = registry.names()
    topology = _make_topology(rng, config)
    node_ids = topology.node_ids()
    sender_node, receiver_node = node_ids[0], node_ids[-1]
    proxy_nodes = node_ids[1:-1] or [node_ids[0]]

    parameters, user = _make_preferences(rng, config)

    # Backbone: source format -> ... -> decodable format, always feasible.
    backbone_formats = rng.sample(format_names, config.backbone_hops + 1)
    source_format = backbone_formats[0]
    final_format = backbone_formats[-1]

    catalog = ServiceCatalog()
    placement = ServicePlacement(topology)
    for hop in range(config.backbone_hops):
        service = ServiceDescriptor(
            service_id=f"S{hop + 1}",
            input_formats=(backbone_formats[hop],),
            output_formats=(backbone_formats[hop + 1],),
            cost=rng.uniform(0.5, config.max_service_cost),
            description="backbone service",
        )
        catalog.add(service)
        placement.place(service.service_id, rng.choice(proxy_nodes))

    extra_count = config.n_services - config.backbone_hops
    for index in range(extra_count):
        inputs = tuple(rng.sample(format_names, rng.randint(1, 2)))
        remaining = [f for f in format_names if f not in inputs]
        outputs = tuple(rng.sample(remaining, rng.randint(1, 2)))
        caps = {}
        if rng.random() < config.cap_probability:
            caps[FRAME_RATE] = rng.uniform(10.0, 50.0)
        service = ServiceDescriptor(
            service_id=f"X{index + 1}",
            input_formats=inputs,
            output_formats=outputs,
            output_caps=caps,
            cost=rng.uniform(0.5, config.max_service_cost),
            description="random service",
        )
        catalog.add(service)
        placement.place(service.service_id, rng.choice(proxy_nodes))

    # Hardware-tier siblings draw from their own stream so a fraction of
    # zero leaves the catalog byte-identical to earlier generator versions.
    if config.hw_tier_fraction > 0.0:
        hw_rng = random.Random(f"{config.seed}:hw-tier")
        for descriptor in list(catalog.transcoders()):
            if hw_rng.random() >= config.hw_tier_fraction:
                continue
            sibling = ServiceDescriptor(
                service_id=f"{descriptor.service_id}-hw",
                input_formats=descriptor.input_formats,
                output_formats=descriptor.output_formats,
                output_caps=dict(descriptor.output_caps),
                cost=descriptor.cost * 1.5,
                cpu_factor=descriptor.cpu_factor * 0.25,
                memory_mb=descriptor.memory_mb,
                description=f"hw tier of {descriptor.service_id}",
                tier="hw",
            )
            catalog.add(sibling)
            placement.place(
                sibling.service_id, placement.node_of(descriptor.service_id)
            )

    source_values = {
        FRAME_RATE: 30.0,
        RESOLUTION: _RESOLUTIONS[-1],
        COLOR_DEPTH: _DEPTHS[-1],
    }
    content = ContentProfile(
        content_id=f"synthetic-{config.seed}",
        variants=[
            ContentVariant(
                format=registry.get(source_format),
                configuration=Configuration(source_values),
                title=f"synthetic content (seed {config.seed})",
            )
        ],
    )

    decoder_pool = [f for f in format_names if f != final_format]
    decoders = [final_format] + rng.sample(
        decoder_pool, min(config.extra_decoders, len(decoder_pool))
    )
    device = DeviceProfile(
        device_id=f"device-{config.seed}",
        decoders=decoders,
        max_frame_rate=rng.choice([15.0, 25.0, 30.0, 60.0]),
        max_resolution=rng.choice(_RESOLUTIONS),
        max_color_depth=rng.choice(_DEPTHS),
    )

    return Scenario(
        name=f"synthetic-{config.seed}",
        registry=registry,
        parameters=parameters,
        catalog=catalog,
        topology=topology,
        placement=placement,
        content=content,
        device=device,
        user=user,
        sender_node=sender_node,
        receiver_node=receiver_node,
        description=(
            f"synthetic scenario: {config.n_services} services, "
            f"{config.n_formats} formats, {config.n_nodes} nodes, "
            f"seed {config.seed}"
        ),
    )


# ----------------------------------------------------------------------
# Pieces
# ----------------------------------------------------------------------

def _make_formats(rng: random.Random, config: SyntheticConfig) -> FormatRegistry:
    registry = FormatRegistry()
    for index in range(config.n_formats):
        registry.define(
            f"G{index}",
            MediaType.VIDEO,
            codec=f"codec-{index}",
            compression_ratio=rng.uniform(8.0, 40.0),
        )
    return registry


def _make_topology(rng: random.Random, config: SyntheticConfig) -> NetworkTopology:
    topology = NetworkTopology()
    node_ids = [f"node{index}" for index in range(config.n_nodes)]
    for node_id in node_ids:
        topology.node(node_id, cpu_mips=rng.uniform(500.0, 4000.0), memory_mb=2048.0)

    def random_link(a: str, b: str) -> None:
        topology.link(
            a,
            b,
            bandwidth_bps=rng.uniform(_MIN_BANDWIDTH_BPS, _MAX_BANDWIDTH_BPS),
            delay_ms=rng.uniform(1.0, 30.0),
            loss_rate=rng.uniform(0.0, 0.02),
            cost=rng.uniform(0.0, 0.5),
        )

    # Random spanning tree keeps the topology connected.
    shuffled = node_ids[:]
    rng.shuffle(shuffled)
    for index in range(1, len(shuffled)):
        random_link(shuffled[index], rng.choice(shuffled[:index]))
    added = 0
    attempts = 0
    while added < config.extra_links and attempts < config.extra_links * 20:
        attempts += 1
        a, b = rng.sample(node_ids, 2)
        if not topology.has_link(a, b):
            random_link(a, b)
            added += 1
    return topology


def _make_preferences(rng: random.Random, config: SyntheticConfig):
    if config.preference_mode == "single":
        parameters = ParameterSet(
            [
                Parameter(FRAME_RATE, "fps", ContinuousDomain(0.0, 60.0)),
                Parameter(RESOLUTION, "pixels", DiscreteDomain(_RESOLUTIONS)),
                Parameter(COLOR_DEPTH, "bits", DiscreteDomain(_DEPTHS)),
            ]
        )
        functions = {FRAME_RATE: LinearSatisfaction(0.0, 30.0)}
    else:
        parameters = ParameterSet(
            [
                Parameter(FRAME_RATE, "fps", ContinuousDomain(0.0, 60.0)),
                Parameter(RESOLUTION, "pixels", DiscreteDomain(_RESOLUTIONS)),
                Parameter(COLOR_DEPTH, "bits", DiscreteDomain(_DEPTHS)),
            ]
        )
        functions = {
            FRAME_RATE: LinearSatisfaction(0.0, 30.0),
            RESOLUTION: PiecewiseLinearSatisfaction(
                [
                    (_RESOLUTIONS[0], 0.0),
                    (_RESOLUTIONS[1], 0.7),
                    (_RESOLUTIONS[2], 1.0),
                ]
            ),
        }
    user = UserProfile(
        user_id=f"synthetic-user-{config.seed}",
        satisfaction_functions=functions,
        budget=_BUDGET,
    )
    return parameters, user
