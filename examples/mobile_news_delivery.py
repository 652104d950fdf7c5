#!/usr/bin/env python3
"""Mobile news delivery: the paper's motivating scenario, end to end.

A news provider stores its evening bulletin in two high-quality variants.
A commuter's phone speaks only a mobile codec over a slow access link.
Intermediary proxies advertise trans-coding services through an SLP-style
directory; the framework discovers them, builds the adaptation graph,
selects the chain that maximizes the commuter's satisfaction within
her budget, and then actually streams the bulletin over the simulated
network.

Run:
    python examples/mobile_news_delivery.py
"""

from repro import (
    AdaptationSession,
    ContentProfile,
    ContentVariant,
    Configuration,
    DeviceProfile,
    FormatRegistry,
    MediaType,
    NetworkTopology,
    PlanRequest,
    UserProfile,
)
from repro.core.parameters import (
    AUDIO_QUALITY,
    COLOR_DEPTH,
    FRAME_RATE,
    RESOLUTION,
    ContinuousDomain,
    DiscreteDomain,
    Parameter,
    ParameterSet,
)
from repro.core.satisfaction import LinearSatisfaction, StepSatisfaction
from repro.discovery.slp import DirectoryAgent, ServiceAgent, UserAgent
from repro.network.bandwidth import SinusoidalBandwidth
from repro.profiles.intermediary import merge_intermediaries
from repro.profiles.user import AdaptationPolicy
from repro.services.descriptor import ServiceDescriptor


def build_formats() -> FormatRegistry:
    registry = FormatRegistry()
    registry.define("mpeg2-hq", MediaType.VIDEO, codec="mpeg2", compression_ratio=20.0)
    registry.define("mpeg2-sd", MediaType.VIDEO, codec="mpeg2", compression_ratio=35.0)
    registry.define("mpeg4-asp", MediaType.VIDEO, codec="mpeg4", compression_ratio=60.0)
    registry.define("h263-mobile", MediaType.VIDEO, codec="h263", compression_ratio=90.0)
    return registry


def build_network() -> NetworkTopology:
    topology = NetworkTopology()
    topology.node("origin", cpu_mips=8000.0)
    topology.node("cdn-proxy", cpu_mips=4000.0)
    topology.node("carrier-gw", cpu_mips=2000.0)
    topology.node("phone", cpu_mips=200.0, memory_mb=128.0)
    topology.link("origin", "cdn-proxy", 50e6, delay_ms=8.0)
    topology.link("cdn-proxy", "carrier-gw", 20e6, delay_ms=12.0)
    topology.link("carrier-gw", "phone", 1.2e6, delay_ms=40.0, loss_rate=0.01)
    return topology


def advertise_services(topology: NetworkTopology):
    """Proxies announce their transcoders over the SLP directory."""
    directory = DirectoryAgent()
    cdn = ServiceAgent("cdn-proxy", directory)
    cdn.register(
        ServiceDescriptor(
            service_id="downscale",
            input_formats=("mpeg2-hq", "mpeg2-sd"),
            output_formats=("mpeg4-asp",),
            output_caps={RESOLUTION: 320.0 * 240.0},
            cost=0.4,
            cpu_factor=2.0,
        )
    )
    carrier = ServiceAgent("carrier-gw", directory)
    carrier.register(
        ServiceDescriptor(
            service_id="mobilize",
            input_formats=("mpeg4-asp", "mpeg2-sd"),
            output_formats=("h263-mobile",),
            output_caps={FRAME_RATE: 25.0, RESOLUTION: 176.0 * 144.0},
            cost=0.2,
            cpu_factor=1.2,
        )
    )
    # What can reach the phone?  Ask the directory like a client would.
    reply = UserAgent("phone", directory).find(output_format="h263-mobile")
    print("SLP lookup for h263-mobile producers:")
    for url in reply.urls:
        print(f"  {url}")
    return merge_intermediaries(
        directory.registry.intermediary_profiles(topology), topology
    )


def main() -> None:
    registry = build_formats()
    topology = build_network()
    catalog, placement = advertise_services(topology)

    parameters = ParameterSet(
        [
            Parameter(FRAME_RATE, "fps", ContinuousDomain(0.0, 30.0)),
            Parameter(
                RESOLUTION,
                "pixels",
                DiscreteDomain([176.0 * 144.0, 320.0 * 240.0, 640.0 * 480.0]),
            ),
            Parameter(COLOR_DEPTH, "bits", DiscreteDomain([24.0])),
            Parameter(AUDIO_QUALITY, "kbps", DiscreteDomain([0.0, 16.0, 32.0, 64.0])),
        ]
    )
    content = ContentProfile(
        content_id="evening-news",
        title="Evening News",
        variants=[
            ContentVariant(
                format=registry.get("mpeg2-hq"),
                configuration=Configuration(
                    {
                        FRAME_RATE: 30.0,
                        RESOLUTION: 640.0 * 480.0,
                        COLOR_DEPTH: 24.0,
                        AUDIO_QUALITY: 64.0,
                    }
                ),
                title="studio master",
            ),
            ContentVariant(
                format=registry.get("mpeg2-sd"),
                configuration=Configuration(
                    {
                        FRAME_RATE: 25.0,
                        RESOLUTION: 320.0 * 240.0,
                        COLOR_DEPTH: 24.0,
                        AUDIO_QUALITY: 32.0,
                    }
                ),
                title="sd mezzanine",
            ),
        ],
    )
    device = DeviceProfile(
        device_id="commuter-phone",
        decoders=["h263-mobile"],
        max_frame_rate=25.0,
        max_resolution=176.0 * 144.0,
        vendor="acme",
        model="pocket-2007",
    )
    # The commuter cares most about smooth motion, then audio; she will
    # sacrifice audio first when bandwidth runs out (the paper's policy
    # example) and pays at most one unit of money.
    user = UserProfile(
        user_id="commuter",
        satisfaction_functions={
            FRAME_RATE: LinearSatisfaction(5.0, 25.0),
            AUDIO_QUALITY: StepSatisfaction([(16.0, 0.6), (32.0, 1.0)]),
        },
        policies=[
            AdaptationPolicy(AUDIO_QUALITY, priority=0),
            AdaptationPolicy(FRAME_RATE, priority=1),
        ],
        budget=1.0,
    )

    request = PlanRequest(
        content=content,
        device=device,
        user=user,
        sender_node="origin",
        receiver_node="phone",
    )
    session = AdaptationSession(registry, parameters, catalog, placement, request)
    plan = session.plan()
    print()
    print(f"pruning: {plan.pruning.summary()}")
    if not plan.success:
        print(f"no feasible chain: {plan.result.failure_reason}")
        return
    print(f"selected chain:    {','.join(plan.result.path)}")
    print(f"via formats:       {' -> '.join(plan.result.formats)}")
    print(f"planned config:    {plan.result.configuration!r}")
    print(f"satisfaction:      {plan.result.satisfaction:.4f}")
    print(f"cost:              {plan.result.accumulated_cost:.2f} "
          f"(budget {user.budget:.2f})")

    # Stream 30 seconds of the bulletin over a fluctuating carrier link.
    report = session.deliver(
        plan,
        duration_s=30.0,
        fluctuation=SinusoidalBandwidth(amplitude=0.35, period_s=13.0),
    )
    print()
    print("delivery report:")
    print(report.summary())


if __name__ == "__main__":
    main()
