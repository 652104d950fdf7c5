"""Tests for the Section-1 (introduction) example scenarios."""

from __future__ import annotations

import pytest

from repro.core.parameters import COLOR_DEPTH, RESOLUTION
from repro.core.selection import build_chain
from repro.formats.format import MediaType
from repro.workloads.intro import html_to_wml_scenario, jpeg_to_gif_scenario


class TestJpegToGif:
    def test_two_stage_composition_selected(self):
        """The paper's exact claim: the conversion 'can be carried out in
        two stages' — depth reduction then container conversion."""
        result = jpeg_to_gif_scenario().select()
        assert result.success
        assert result.path == (
            "sender",
            "color-reduce",
            "jpeg-to-gif",
            "receiver",
        )
        assert result.formats == ("jpeg-256c", "jpeg-2c", "gif-2c")

    def test_delivered_depth_is_two_color(self):
        result = jpeg_to_gif_scenario().select()
        assert result.configuration[COLOR_DEPTH] == 1.0  # 2 colors = 1 bit

    def test_device_resolution_cap_applies(self):
        scenario = jpeg_to_gif_scenario()
        result = scenario.select()
        assert result.configuration[RESOLUTION] <= 1024.0 * 768.0 / 4.0

    def test_full_user_satisfaction(self):
        """The badge owner's ideal (quarter resolution) is reachable."""
        result = jpeg_to_gif_scenario().select()
        assert result.satisfaction == pytest.approx(1.0)

    def test_monolith_out_of_budget(self):
        """The single-stage converter exists but costs more than the
        user's budget; composition wins on price."""
        scenario = jpeg_to_gif_scenario(include_monolith=True)
        assert "jpeg256-to-gif2" in scenario.catalog
        result = scenario.select()
        assert "jpeg256-to-gif2" not in result.path
        assert result.accumulated_cost <= scenario.user.budget

    def test_monolith_used_when_composition_is_gone(self):
        """Remove the two simple services and raise the budget: the
        monolith carries the conversion alone."""
        scenario = jpeg_to_gif_scenario(include_monolith=True)
        scenario.catalog.remove("color-reduce")
        scenario.catalog.remove("jpeg-to-gif")
        scenario.user.budget = 10.0
        result = scenario.select()
        assert result.success
        assert result.path == ("sender", "jpeg256-to-gif2", "receiver")

    def test_image_media_type_bandwidth_model(self):
        """Image formats stream one frame per second; the pager-class
        access link (64 kbit/s) must still carry the 2-color quarter-res
        GIF."""
        scenario = jpeg_to_gif_scenario()
        fmt = scenario.registry.get("gif-2c")
        assert fmt.media_type is MediaType.IMAGE
        result = scenario.select()
        bits = result.configuration.required_bandwidth(fmt)
        assert bits <= 64e3 * (1 + 1e-9)

    def test_chain_executes_end_to_end(self):
        scenario = jpeg_to_gif_scenario()
        result = scenario.select()
        graph = scenario.build_graph()
        chain = build_chain(graph.services_along(result.path), result)
        delivered = chain.execute(
            scenario.content.variant_for("jpeg-256c"), scenario.registry
        )
        assert delivered.format.name == "gif-2c"
        assert delivered.configuration[COLOR_DEPTH] == 1.0


class TestHtmlToWml:
    def test_direct_converter_preferred(self):
        """The direct HTML->WML service keeps full page richness, so it
        beats the lossy table-to-text composition."""
        result = html_to_wml_scenario().select()
        assert result.success
        assert result.path == ("sender", "html-to-wml", "receiver")
        assert result.satisfaction == pytest.approx(1.0)

    def test_fallback_composition_when_direct_dies(self):
        scenario = html_to_wml_scenario()
        scenario.catalog.remove("html-to-wml")
        result = scenario.select()
        assert result.success
        assert result.path == (
            "sender",
            "table-to-text",
            "text-to-wml",
            "receiver",
        )
        # The table stripper caps richness at a quarter page -> 0.7 step.
        assert result.satisfaction == pytest.approx(0.7)

    def test_gsm_link_bounds_page_richness(self):
        """On a 9600 bps link a full 4000-char page (4000 bits/s in our
        text model) still fits; quadruple the page and it no longer
        does."""
        scenario = html_to_wml_scenario()
        fmt = scenario.registry.get("wml")
        result = scenario.select()
        assert result.configuration.required_bandwidth(fmt) <= 9600.0

    def test_text_media_type(self):
        scenario = html_to_wml_scenario()
        for name in ("html", "plain-text", "wml"):
            assert scenario.registry.get(name).media_type is MediaType.TEXT

    def test_exhaustive_agrees(self):
        from repro.core.baselines import ExhaustiveSelector

        scenario = html_to_wml_scenario()
        graph = scenario.build_graph()
        greedy = scenario.selector(graph=graph).run()
        optimum = ExhaustiveSelector(
            graph,
            scenario.registry,
            scenario.parameters,
            scenario.user.satisfaction(),
            scenario.user.budget,
        ).run()
        assert greedy.satisfaction == pytest.approx(optimum.satisfaction)
