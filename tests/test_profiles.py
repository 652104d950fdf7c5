"""Unit tests for the six Section-3 profile types."""

from __future__ import annotations

import math

import pytest

from repro.core.configuration import Configuration
from repro.core.parameters import AUDIO_QUALITY, COLOR_DEPTH, FRAME_RATE, RESOLUTION
from repro.core.satisfaction import (
    HarmonicCombiner,
    LinearSatisfaction,
    WeightedHarmonicCombiner,
)
from repro.errors import ValidationError
from repro.formats.format import MediaFormat
from repro.formats.variants import ContentVariant
from repro.network.topology import NetworkTopology
from repro.profiles.content import ContentProfile
from repro.profiles.context import ContextProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.intermediary import IntermediaryProfile, merge_intermediaries
from repro.profiles.network import LinkMeasurement, NetworkProfile
from repro.profiles.user import AdaptationPolicy, UserProfile
from repro.services.descriptor import ServiceDescriptor, ServiceKind


def make_variant(format_name: str, fps: float = 30.0) -> ContentVariant:
    return ContentVariant(
        format=MediaFormat(name=format_name, compression_ratio=10.0),
        configuration=Configuration({FRAME_RATE: fps}),
    )


class TestUserProfile:
    def _user(self, **kwargs):
        defaults = dict(
            user_id="alice",
            satisfaction_functions={FRAME_RATE: LinearSatisfaction(0, 30)},
        )
        defaults.update(kwargs)
        return UserProfile(**defaults)

    def test_requires_id_and_preferences(self):
        with pytest.raises(ValidationError):
            UserProfile(user_id="", satisfaction_functions={FRAME_RATE: LinearSatisfaction(0, 30)})
        with pytest.raises(ValidationError):
            UserProfile(user_id="a", satisfaction_functions={})

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError):
            self._user(budget=-1.0)

    def test_default_budget_unbounded(self):
        assert math.isinf(self._user().budget)

    def test_default_combiner_is_harmonic(self):
        assert isinstance(self._user().combiner, HarmonicCombiner)

    def test_satisfaction_bundles_functions(self):
        model = self._user().satisfaction()
        assert model.evaluate({FRAME_RATE: 15.0}) == pytest.approx(0.5)

    def test_peer_override_replaces_function(self):
        base = LinearSatisfaction(0, 30)
        strict = LinearSatisfaction(0, 60)  # harder to satisfy
        user = self._user(
            satisfaction_functions={FRAME_RATE: base},
            peer_overrides={"boss": {FRAME_RATE: strict}},
        )
        casual = user.satisfaction().evaluate({FRAME_RATE: 30.0})
        formal = user.satisfaction(peer="boss").evaluate({FRAME_RATE: 30.0})
        assert casual == pytest.approx(1.0)
        assert formal == pytest.approx(0.5)

    def test_unknown_peer_uses_base(self):
        user = self._user()
        assert user.satisfaction(peer="stranger").evaluate({FRAME_RATE: 30.0}) == 1.0

    def test_policies_sorted_by_priority(self):
        user = self._user(
            policies=[
                AdaptationPolicy("frame_rate", 2),
                AdaptationPolicy("audio_quality", 0),
            ]
        )
        assert [p.parameter for p in user.policies] == ["audio_quality", "frame_rate"]

    def test_duplicate_policies_rejected(self):
        with pytest.raises(ValidationError):
            self._user(
                policies=[
                    AdaptationPolicy("x", 0),
                    AdaptationPolicy("x", 1),
                ]
            )

    def test_degrade_order_policies_first(self):
        user = self._user(
            policies=[
                AdaptationPolicy(AUDIO_QUALITY, 0),
                AdaptationPolicy(FRAME_RATE, 1),
            ]
        )
        order = user.degrade_order([FRAME_RATE, RESOLUTION, AUDIO_QUALITY])
        assert order == [AUDIO_QUALITY, FRAME_RATE, RESOLUTION]


class TestContentProfile:
    def test_requires_variants(self):
        with pytest.raises(ValidationError):
            ContentProfile(content_id="c", variants=[])

    def test_duplicate_variant_formats_rejected(self):
        with pytest.raises(ValidationError):
            ContentProfile(
                content_id="c",
                variants=[make_variant("F1"), make_variant("F1", fps=10)],
            )

    def test_variant_lookup(self):
        profile = ContentProfile("c", [make_variant("F1"), make_variant("F2")])
        assert profile.variant_for("F2").format.name == "F2"
        assert profile.format_names() == ["F1", "F2"]

    def test_missing_variant_raises(self):
        profile = ContentProfile("c", [make_variant("F1")])
        with pytest.raises(ValidationError):
            profile.variant_for("F9")

    def test_sender_descriptor_shape(self):
        profile = ContentProfile("c", [make_variant("F1"), make_variant("F2")])
        sender = profile.sender_descriptor()
        assert sender.kind is ServiceKind.SENDER
        assert set(sender.output_formats) == {"F1", "F2"}
        assert sender.input_formats == ()


class TestDeviceProfile:
    def test_requires_decoders(self):
        with pytest.raises(ValidationError):
            DeviceProfile(device_id="d", decoders=[])

    def test_duplicate_decoders_rejected(self):
        with pytest.raises(ValidationError):
            DeviceProfile(device_id="d", decoders=["F1", "F1"])

    def test_rendering_caps_only_include_stated_limits(self):
        device = DeviceProfile(
            device_id="d", decoders=["F1"], max_frame_rate=15.0
        )
        caps = device.rendering_caps()
        assert caps == {FRAME_RATE: 15.0}

    def test_rendering_caps_full(self):
        device = DeviceProfile(
            device_id="d",
            decoders=["F1"],
            max_frame_rate=15.0,
            max_resolution=76800.0,
            max_color_depth=8.0,
            max_audio_kbps=64.0,
        )
        caps = device.rendering_caps()
        assert caps[RESOLUTION] == 76800.0
        assert caps[COLOR_DEPTH] == 8.0
        assert caps[AUDIO_QUALITY] == 64.0

    def test_receiver_descriptor(self):
        device = DeviceProfile(device_id="d", decoders=["F1", "F2"])
        receiver = device.receiver_descriptor()
        assert receiver.kind is ServiceKind.RECEIVER
        assert set(receiver.input_formats) == {"F1", "F2"}
        assert receiver.output_formats == ()

    def test_can_decode(self):
        device = DeviceProfile(device_id="d", decoders=["F1"])
        assert device.can_decode("F1")
        assert not device.can_decode("F2")

    def test_negative_limits_rejected(self):
        with pytest.raises(ValidationError):
            DeviceProfile(device_id="d", decoders=["F1"], max_frame_rate=-1.0)


class TestContextProfile:
    def test_unknown_activity_rejected(self):
        with pytest.raises(ValidationError):
            ContextProfile(activity="skydiving")

    def test_driving_kills_video(self):
        caps = ContextProfile(activity="driving").parameter_caps()
        assert caps[FRAME_RATE] == 0.0

    def test_meeting_mutes_audio(self):
        caps = ContextProfile(activity="meeting").parameter_caps()
        assert caps[AUDIO_QUALITY] == 0.0

    def test_darkness_caps_color_depth(self):
        caps = ContextProfile(illumination_lux=2.0).parameter_caps()
        assert caps[COLOR_DEPTH] == 8.0

    def test_idle_daylight_has_no_caps(self):
        assert ContextProfile().parameter_caps() == {}

    def test_invalid_hour_rejected(self):
        with pytest.raises(ValidationError):
            ContextProfile(local_time_hour=25)


class TestNetworkProfile:
    def _topology(self):
        topology = NetworkTopology()
        topology.node("a", cpu_mips=100.0, memory_mb=10.0)
        topology.node("b")
        topology.node("c")
        topology.link("a", "b", 1e6, delay_ms=3.0, loss_rate=0.01, cost=0.5)
        topology.link("b", "c", 2e6)
        return topology

    def test_round_trip_through_profile(self):
        original = self._topology()
        profile = NetworkProfile.from_topology(original)
        rebuilt = profile.to_topology()
        assert sorted(rebuilt.node_ids()) == sorted(original.node_ids())
        link = rebuilt.get_link("a", "b")
        assert link.bandwidth_bps == 1e6
        assert link.delay_ms == 3.0
        assert link.loss_rate == 0.01
        assert link.cost == 0.5
        assert rebuilt.get_node("a").cpu_mips == 100.0

    def test_throughput_lookup(self):
        profile = NetworkProfile.from_topology(self._topology())
        assert profile.throughput("b", "a") == 1e6
        assert profile.throughput("a", "c") is None

    def test_duplicate_measurements_rejected(self):
        with pytest.raises(ValidationError):
            NetworkProfile(
                [
                    LinkMeasurement("a", "b", 1e6),
                    LinkMeasurement("b", "a", 2e6),
                ]
            )

    def test_measurement_validation(self):
        with pytest.raises(ValidationError):
            LinkMeasurement("a", "a", 1e6)
        with pytest.raises(ValidationError):
            LinkMeasurement("a", "b", -1.0)
        with pytest.raises(ValidationError):
            LinkMeasurement("a", "b", 1e6, loss_rate=1.0)


class TestIntermediaryProfile:
    def _service(self, service_id="T1"):
        return ServiceDescriptor(
            service_id=service_id,
            input_formats=("F1",),
            output_formats=("F2",),
            memory_mb=64.0,
        )

    def test_only_transcoders_allowed(self):
        receiver = ServiceDescriptor(
            service_id="r", input_formats=("F1",), kind=ServiceKind.RECEIVER
        )
        with pytest.raises(ValidationError):
            IntermediaryProfile(node_id="n", services=[receiver])

    def test_duplicate_service_ids_rejected(self):
        with pytest.raises(ValidationError):
            IntermediaryProfile(node_id="n", services=[self._service(), self._service()])

    def test_merge_builds_catalog_and_placement(self):
        topology = NetworkTopology()
        topology.node("n1")
        topology.node("n2")
        profiles = [
            IntermediaryProfile(node_id="n1", services=[self._service("T1")]),
            IntermediaryProfile(node_id="n2", services=[self._service("T2")]),
        ]
        catalog, placement = merge_intermediaries(profiles, topology)
        assert catalog.ids() == ["T1", "T2"]
        assert placement.node_of("T1") == "n1"
        assert placement.node_of("T2") == "n2"

    def test_merge_rejects_duplicate_advertisements(self):
        topology = NetworkTopology()
        topology.node("n1")
        topology.node("n2")
        profiles = [
            IntermediaryProfile(node_id="n1", services=[self._service("T1")]),
            IntermediaryProfile(node_id="n2", services=[self._service("T1")]),
        ]
        with pytest.raises(ValidationError):
            merge_intermediaries(profiles, topology)
