"""Unit tests for the media-format model, registry, and content variants."""

from __future__ import annotations

import math

import pytest

from repro.core.configuration import Configuration
from repro.core.parameters import AUDIO_QUALITY, COLOR_DEPTH, FRAME_RATE, RESOLUTION
from repro.errors import UnknownFormatError, ValidationError
from repro.formats.format import MediaFormat, MediaType
from repro.formats.registry import FormatRegistry, standard_registry
from repro.formats.variants import ContentVariant


class TestMediaFormat:
    def test_name_required(self):
        with pytest.raises(ValidationError):
            MediaFormat(name="")

    def test_compression_ratio_must_be_at_least_one(self):
        with pytest.raises(ValidationError):
            MediaFormat(name="x", compression_ratio=0.5)

    def test_bits_per_frame_divides_by_compression(self):
        fmt = MediaFormat(name="x", compression_ratio=10.0)
        assert fmt.bits_per_frame(1000.0, 24.0) == pytest.approx(2400.0)

    def test_bits_per_frame_rejects_negative_inputs(self):
        fmt = MediaFormat(name="x")
        with pytest.raises(ValidationError):
            fmt.bits_per_frame(-1.0, 24.0)

    def test_video_bandwidth_scales_with_frame_rate(self):
        fmt = MediaFormat(name="x", compression_ratio=10.0)
        bw10 = fmt.required_bandwidth(10.0, 1000.0, 24.0)
        bw20 = fmt.required_bandwidth(20.0, 1000.0, 24.0)
        assert bw20 == pytest.approx(2 * bw10)

    def test_video_bandwidth_includes_audio(self):
        fmt = MediaFormat(name="x", compression_ratio=10.0)
        silent = fmt.required_bandwidth(10.0, 1000.0, 24.0)
        with_audio = fmt.required_bandwidth(10.0, 1000.0, 24.0, audio_kbps=128.0)
        assert with_audio == pytest.approx(silent + 128_000.0)

    def test_audio_format_ignores_video_terms(self):
        fmt = MediaFormat(name="a", media_type=MediaType.AUDIO)
        bw = fmt.required_bandwidth(
            frame_rate=30.0, resolution_pixels=1e6, color_depth=24.0, audio_kbps=64.0
        )
        assert bw == pytest.approx(64_000.0)

    def test_image_format_counts_one_frame_per_second(self):
        fmt = MediaFormat(name="i", media_type=MediaType.IMAGE, compression_ratio=4.0)
        bw = fmt.required_bandwidth(resolution_pixels=1000.0, color_depth=8.0)
        assert bw == pytest.approx(2000.0)

    def test_max_frame_rate_inverts_bandwidth(self):
        fmt = MediaFormat(name="x", compression_ratio=10.0)
        fps = fmt.max_frame_rate(2_000_000.0, 76800.0, 24.0)
        # Round trip: the inverted rate uses exactly the bandwidth.
        assert fmt.required_bandwidth(fps, 76800.0, 24.0) == pytest.approx(2_000_000.0)

    def test_max_frame_rate_subtracts_audio(self):
        fmt = MediaFormat(name="x", compression_ratio=10.0)
        silent = fmt.max_frame_rate(1_000_000.0, 76800.0, 24.0)
        with_audio = fmt.max_frame_rate(1_000_000.0, 76800.0, 24.0, audio_kbps=100.0)
        assert with_audio < silent

    def test_max_frame_rate_zero_when_audio_fills_link(self):
        fmt = MediaFormat(name="x", compression_ratio=10.0)
        assert fmt.max_frame_rate(50_000.0, 76800.0, 24.0, audio_kbps=64.0) == 0.0

    def test_max_frame_rate_rejects_non_video(self):
        fmt = MediaFormat(name="a", media_type=MediaType.AUDIO)
        with pytest.raises(ValidationError):
            fmt.max_frame_rate(1e6, 1000.0, 8.0)

    def test_max_frame_rate_rejects_zero_size_frame(self):
        fmt = MediaFormat(name="x")
        with pytest.raises(ValidationError):
            fmt.max_frame_rate(1e6, 0.0, 0.0)

    def test_str_is_name(self):
        assert str(MediaFormat(name="mpeg2-hq")) == "mpeg2-hq"


class TestFormatRegistry:
    def test_register_and_get(self):
        registry = FormatRegistry()
        fmt = registry.define("F1")
        assert registry.get("F1") is fmt
        assert registry["F1"] is fmt
        assert "F1" in registry

    def test_unknown_format_raises(self):
        registry = FormatRegistry()
        with pytest.raises(UnknownFormatError) as exc:
            registry.get("missing")
        assert "missing" in str(exc.value)

    def test_duplicate_identical_is_noop(self):
        registry = FormatRegistry()
        fmt = MediaFormat(name="F1", compression_ratio=2.0)
        registry.register(fmt)
        registry.register(MediaFormat(name="F1", compression_ratio=2.0))
        assert len(registry) == 1

    def test_duplicate_different_requires_replace(self):
        registry = FormatRegistry()
        registry.define("F1", compression_ratio=2.0)
        with pytest.raises(ValidationError):
            registry.define("F1", compression_ratio=3.0)
        registry.register(MediaFormat(name="F1", compression_ratio=3.0), replace=True)
        assert registry.get("F1").compression_ratio == 3.0

    def test_iteration_preserves_registration_order(self):
        registry = FormatRegistry()
        for name in ("B", "A", "C"):
            registry.define(name)
        assert registry.names() == ["B", "A", "C"]

    def test_constructor_accepts_iterable(self):
        registry = FormatRegistry([MediaFormat(name="x"), MediaFormat(name="y")])
        assert len(registry) == 2

    def test_standard_registry_has_motivating_formats(self):
        registry = standard_registry()
        # The formats the paper's introduction talks about.
        for name in ("jpeg-image", "gif-image", "html-text", "wml-text"):
            assert name in registry
        assert len(registry) >= 15

    def test_standard_registry_ratios_are_valid(self):
        for fmt in standard_registry():
            assert fmt.compression_ratio >= 1.0


class TestContentVariant:
    def _variant(self, fmt=None):
        fmt = fmt or MediaFormat(name="src", compression_ratio=10.0)
        return ContentVariant(
            format=fmt,
            configuration=Configuration(
                {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0}
            ),
            title="clip",
        )

    def test_required_bandwidth_matches_configuration(self):
        variant = self._variant()
        expected = variant.configuration.required_bandwidth(variant.format)
        assert variant.required_bandwidth() == pytest.approx(expected)

    def test_degraded_caps_parameters(self):
        variant = self._variant()
        target = MediaFormat(name="dst", compression_ratio=20.0)
        out = variant.degraded(target, {FRAME_RATE: 15.0})
        assert out.format.name == "dst"
        assert out.configuration[FRAME_RATE] == 15.0
        assert out.configuration[RESOLUTION] == 1000.0

    def test_degraded_never_raises_quality(self):
        variant = self._variant()
        out = variant.degraded(variant.format, {FRAME_RATE: 99.0})
        assert out.configuration[FRAME_RATE] == 30.0

    def test_degraded_keeps_title_and_metadata(self):
        fmt = MediaFormat(name="src")
        variant = ContentVariant(
            format=fmt,
            configuration=Configuration({FRAME_RATE: 10.0}),
            title="news",
            metadata={"lang": "en"},
        )
        out = variant.degraded(fmt, {})
        assert out.title == "news"
        assert out.metadata == {"lang": "en"}

    def test_configuration_type_enforced(self):
        with pytest.raises(ValidationError):
            ContentVariant(
                format=MediaFormat(name="x"),
                configuration={"frame_rate": 30},  # type: ignore[arg-type]
            )

    def test_str_mentions_format(self):
        assert "[src]" in str(self._variant())
