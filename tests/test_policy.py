"""Unit tests for the pre-planning policy engine (repro.policy).

Covers the typed predicates, document validation, hardware service
tiers, the three actions (skip / force_tier / deny), the decision cache,
hot swapping, and the policy-aware batch-planner entry point.
"""

from __future__ import annotations

import pytest

from repro.core.configuration import Configuration
from repro.core.parameters import COLOR_DEPTH, FRAME_RATE, RESOLUTION
from repro.errors import PolicyDeniedError, ValidationError
from repro.formats.format import MediaType
from repro.formats.registry import FormatRegistry
from repro.formats.variants import ContentVariant
from repro.planner.batch import BatchPlanner
from repro.policy import (
    ACTIONS,
    BitrateUnder,
    CodecMatch,
    Decodes,
    DeviceIn,
    FormatIn,
    PolicyDocument,
    PolicyEngine,
    PolicyRule,
    PREDICATE_KINDS,
    ResolutionWithin,
)
from repro.policy.engine import PolicyPlan
from repro.profiles.device import DeviceProfile
from repro.services.descriptor import SERVICE_TIERS, ServiceDescriptor
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

SCENARIO = generate_scenario(
    SyntheticConfig(seed=7, n_services=12, n_formats=8, n_nodes=8,
                    hw_tier_fraction=0.5)
)
SOURCE = SCENARIO.content.format_names()[0]


def _compatible_device(device_id="compat"):
    """A device that decodes the source format natively (skip-eligible)."""
    return DeviceProfile(
        device_id=device_id,
        decoders=[SOURCE] + list(SCENARIO.device.decoders),
        max_resolution=SCENARIO.device.max_resolution,
        max_color_depth=SCENARIO.device.max_color_depth,
        max_frame_rate=SCENARIO.device.max_frame_rate,
    )


def _variant(fmt_name="V", codec="h264", frame_rate=30.0, resolution=None):
    registry = FormatRegistry()
    fmt = registry.define(
        fmt_name, MediaType.VIDEO, codec=codec, compression_ratio=20.0
    )
    values = {FRAME_RATE: frame_rate}
    if resolution is not None:
        values[RESOLUTION] = resolution
        values[COLOR_DEPTH] = 24.0
    return ContentVariant(format=fmt, configuration=Configuration(values))


class TestPredicates:
    def test_codec_match(self):
        assert CodecMatch("h264").matches_variant(_variant(codec="h264"))
        assert not CodecMatch("vp9").matches_variant(_variant(codec="h264"))

    def test_codec_match_rejects_empty(self):
        with pytest.raises(ValidationError):
            CodecMatch("")

    def test_format_in(self):
        predicate = FormatIn(("V", "W"))
        assert predicate.matches_variant(_variant("V"))
        assert not predicate.matches_variant(_variant("X"))

    def test_format_in_rejects_empty_and_duplicates(self):
        with pytest.raises(ValidationError):
            FormatIn(())
        with pytest.raises(ValidationError):
            FormatIn(("V", "V"))

    def test_bitrate_under(self):
        variant = _variant(frame_rate=30.0, resolution=320.0 * 240.0)
        budget = variant.required_bandwidth()
        assert budget > 0.0
        assert BitrateUnder(budget + 1.0).matches_variant(variant)
        assert not BitrateUnder(budget / 2.0).matches_variant(variant)
        with pytest.raises(ValidationError):
            BitrateUnder(0.0)

    def test_resolution_within(self):
        within = _variant(resolution=320.0 * 240.0)
        assert ResolutionWithin(640.0 * 480.0).matches_variant(within)
        assert not ResolutionWithin(160.0 * 120.0).matches_variant(within)
        # No resolution assigned counts as within any bound.
        assert ResolutionWithin(1.0).matches_variant(_variant())

    def test_device_in_and_decodes_are_request_scope(self):
        device = _compatible_device("tablet-9")
        assert DeviceIn(("tablet-9",)).matches_request(device)
        assert not DeviceIn(("phone-1",)).matches_request(device)
        assert Decodes(SOURCE).matches_request(device)
        assert not Decodes(SOURCE).matches_request(SCENARIO.device)
        assert DeviceIn(("tablet-9",)).scope == "request"
        assert Decodes(SOURCE).scope == "request"

    def test_registry_covers_every_predicate(self):
        assert set(PREDICATE_KINDS) == {
            "codec_match", "format_in", "bitrate_under",
            "resolution_within", "device_in", "decodes",
        }


class TestDocumentValidation:
    def test_actions_are_closed(self):
        assert ACTIONS == ("skip", "force_tier", "deny")
        with pytest.raises(ValidationError):
            PolicyRule(rule_id="r", action="explode")

    def test_duplicate_rule_ids_rejected(self):
        rule = PolicyRule(rule_id="r", action="deny")
        with pytest.raises(ValidationError):
            PolicyDocument(name="d", rules=(rule, rule))

    def test_force_tier_needs_a_known_tier(self):
        with pytest.raises(ValidationError):
            PolicyRule(rule_id="r", action="force_tier")
        with pytest.raises(ValidationError):
            PolicyRule(rule_id="r", action="force_tier", tier="quantum")
        rule = PolicyRule(rule_id="r", action="force_tier", tier="hw")
        assert rule.tier == "hw"

    def test_non_force_tier_rules_must_not_set_tier(self):
        with pytest.raises(ValidationError):
            PolicyRule(rule_id="r", action="skip", tier="hw")

    def test_tolerance_must_be_non_negative(self):
        with pytest.raises(ValidationError):
            PolicyRule(rule_id="r", action="skip", tolerance=-0.1)

    def test_deny_reason_defaults_to_naming_the_rule(self):
        rule = PolicyRule(rule_id="blocked", action="deny")
        assert "blocked" in rule.deny_reason()
        custom = PolicyRule(rule_id="b2", action="deny", reason="no service")
        assert custom.deny_reason() == "no service"


class TestServiceTiers:
    def test_tier_validated_and_in_cache_key(self):
        sw = ServiceDescriptor(
            service_id="t", input_formats=("A",), output_formats=("B",)
        )
        hw = ServiceDescriptor(
            service_id="t", input_formats=("A",), output_formats=("B",),
            tier="hw",
        )
        assert sw.tier == "sw" and hw.tier == "hw"
        assert sw.cache_key() != hw.cache_key()
        with pytest.raises(ValidationError):
            ServiceDescriptor(
                service_id="t", input_formats=("A",), output_formats=("B",),
                tier="cloud",
            )
        assert SERVICE_TIERS == ("sw", "hw")

    def test_synthetic_hw_siblings_share_placement(self):
        for descriptor in SCENARIO.catalog:
            if descriptor.tier != "hw":
                continue
            base_id = descriptor.service_id[: -len("-hw")]
            base = SCENARIO.catalog.get(base_id)
            assert descriptor.cost > base.cost
            assert descriptor.cpu_factor < base.cpu_factor
            assert SCENARIO.placement.node_of(
                descriptor.service_id
            ) == SCENARIO.placement.node_of(base_id)


class TestPolicyEngine:
    def test_no_document_is_no_decision(self):
        decision = PolicyEngine().evaluate(SCENARIO.request())
        assert decision.kind == "none"

    def test_deny_rule_fires_and_raises(self):
        document = PolicyDocument(
            name="d",
            rules=(PolicyRule(rule_id="block", action="deny",
                              reason="not allowed"),),
        )
        decision = PolicyEngine(document).evaluate(SCENARIO.request())
        assert decision.kind == "deny"
        assert decision.rule_id == "block"
        with pytest.raises(PolicyDeniedError) as excinfo:
            decision.raise_if_denied()
        assert excinfo.value.rule_id == "block"
        assert "not allowed" in str(excinfo.value)

    def test_skip_produces_a_sound_zero_hop_plan(self):
        document = PolicyDocument(
            name="d",
            rules=(PolicyRule(rule_id="native", action="skip",
                              predicates=(Decodes(SOURCE),)),),
        )
        engine = PolicyEngine(document)
        decision = engine.evaluate(SCENARIO.request(_compatible_device()))
        assert decision.kind == "skip"
        plan = decision.plan
        assert isinstance(plan, PolicyPlan)
        assert plan.success
        assert plan.result.path == ("sender", "receiver")
        assert plan.result.formats == (SOURCE,)
        assert plan.result.accumulated_cost == 0.0
        assert plan.result.rounds_run == 0
        # The zero-hop answer must not trail the selector's optimum.
        selector_best = SCENARIO.select(record_trace=False)
        assert plan.result.satisfaction >= selector_best.satisfaction - 1e-9
        assert any("native" in line for line in decision.trace)

    def test_unsound_skip_falls_through_to_selector(self):
        # The base device cannot decode the source format, so a catch-all
        # skip has no candidate variant and must not fire.
        document = PolicyDocument(
            name="d", rules=(PolicyRule(rule_id="always", action="skip"),)
        )
        decision = PolicyEngine(document).evaluate(SCENARIO.request())
        assert decision.kind == "none"

    def test_force_tier_decision(self):
        document = PolicyDocument(
            name="d",
            rules=(PolicyRule(rule_id="pin", action="force_tier",
                              tier="hw"),),
        )
        decision = PolicyEngine(document).evaluate(SCENARIO.request())
        assert decision.kind == "force_tier"
        assert decision.tier == "hw"

    def test_decision_cache_and_counters(self):
        document = PolicyDocument(
            name="d",
            rules=(PolicyRule(rule_id="native", action="skip",
                              predicates=(Decodes(SOURCE),)),),
        )
        engine = PolicyEngine(document)
        request = SCENARIO.request(_compatible_device())
        first = engine.evaluate(request)
        second = engine.evaluate(request)
        assert first.cached is False
        assert second.cached is True
        assert second.plan is first.plan  # same object, just re-labelled
        stats = engine.stats()
        assert stats["counters"]["evaluations"] == 2
        assert stats["counters"]["cache_hits"] == 1
        assert stats["counters"]["fast_path"] == 2  # fresh AND cached
        assert stats["cache_entries"] == 1

    def test_swap_bumps_generation_and_clears_only_this_cache(self):
        document = PolicyDocument(
            name="d",
            rules=(PolicyRule(rule_id="native", action="skip",
                              predicates=(Decodes(SOURCE),)),),
        )
        engine = PolicyEngine(document)
        engine.evaluate(SCENARIO.request(_compatible_device()))
        assert engine.stats()["cache_entries"] == 1
        invalidated = engine.swap(PolicyDocument(name="empty"))
        assert invalidated == 1
        assert engine.generation == 1
        assert engine.stats()["cache_entries"] == 0
        assert engine.evaluate(SCENARIO.request(_compatible_device())).kind == "none"

    def test_cache_bounded_by_clear_on_overflow(self):
        document = PolicyDocument(
            name="d", rules=(PolicyRule(rule_id="block", action="deny"),)
        )
        engine = PolicyEngine(document, cache_size=2)
        for index in range(5):
            engine.evaluate(SCENARIO.request(_compatible_device(f"dev-{index}")))
        assert engine.stats()["cache_entries"] <= 2


class TestPolicyAwarePlanner:
    def _planner(self, document):
        return BatchPlanner.for_scenario(
            SCENARIO, policy_engine=PolicyEngine(document), max_workers=1
        )

    def test_skip_answers_without_the_selector_cache(self):
        planner = self._planner(
            PolicyDocument(
                name="d",
                rules=(PolicyRule(rule_id="native", action="skip",
                                  predicates=(Decodes(SOURCE),)),),
            )
        )
        request = SCENARIO.request(_compatible_device())
        plan, hit, decision = planner.plan_with_policy_info(request)
        assert isinstance(plan, PolicyPlan)
        assert decision.kind == "skip"
        assert hit is False
        assert planner.cache.stats.misses == 0  # never touched
        _plan, hit2, decision2 = planner.plan_with_policy_info(request)
        assert hit2 is True and decision2.cached is True

    def test_deny_raises_from_the_planner(self):
        planner = self._planner(
            PolicyDocument(
                name="d", rules=(PolicyRule(rule_id="block", action="deny"),)
            )
        )
        with pytest.raises(PolicyDeniedError):
            planner.plan(SCENARIO.request())

    def test_force_tier_plans_against_a_filtered_catalog(self):
        planner = self._planner(
            PolicyDocument(
                name="d",
                rules=(PolicyRule(rule_id="pin", action="force_tier",
                                  tier="hw"),),
            )
        )
        plan, _hit, decision = planner.plan_with_policy_info(SCENARIO.request())
        assert decision.kind == "force_tier"
        intermediaries = [
            sid for sid in plan.result.path
            if sid not in ("sender", "receiver")
        ]
        for service_id in intermediaries:
            assert SCENARIO.catalog.get(service_id).tier == "hw"

    def test_incompatible_device_takes_the_selector_path(self):
        planner = self._planner(
            PolicyDocument(
                name="d",
                rules=(PolicyRule(rule_id="native", action="skip",
                                  predicates=(Decodes(SOURCE),)),),
            )
        )
        plan, _hit, decision = planner.plan_with_policy_info(SCENARIO.request())
        assert decision is None
        assert not isinstance(plan, PolicyPlan)
        assert plan.success
