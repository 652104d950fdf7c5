"""Property tests: the policy skip fast path is sound vs the selector.

A ``skip`` decision answers with a zero-hop plan *instead of* running
the QoS selector, so its one obligation is an inequality: the zero-hop
satisfaction must be within the rule's declared tolerance of whatever
the selector would have found on the same scenario.  Hypothesis drives
randomly generated worlds (seeded synthetic scenarios, optional
source-decoder augmentation, arbitrary tolerances) through the engine
and checks that inequality against the real selector every time a skip
fires.  Falling through is always allowed — only firing can be wrong.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.policy import Decodes, PolicyDocument, PolicyRule, PolicyEngine
from repro.profiles.device import DeviceProfile
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

TOLERANCE_SLACK = 1e-9  # float-comparison headroom, not extra tolerance


def _world(seed, add_source_decoder):
    """A small scenario; optionally let the device decode the source."""
    scenario = generate_scenario(
        SyntheticConfig(seed=seed, n_services=8, n_formats=5, n_nodes=5)
    )
    source = scenario.content.format_names()[0]
    if add_source_decoder and not scenario.device.can_decode(source):
        base = scenario.device
        scenario.device = DeviceProfile(
            device_id=f"{base.device_id}-native",
            decoders=[source] + [d for d in base.decoders if d != source],
            max_resolution=base.max_resolution,
            max_color_depth=base.max_color_depth,
            max_frame_rate=base.max_frame_rate,
        )
    return scenario, source


def _assert_sound(scenario, decision, tolerance):
    """Every fired skip must beat the real selector within tolerance."""
    plan = decision.plan
    assert plan is not None and plan.success
    assert plan.result.path == ("sender", "receiver")
    assert plan.result.accumulated_cost == 0.0
    assert len(plan.result.formats) == 1
    assert scenario.device.can_decode(plan.result.formats[0])
    selector = scenario.select(record_trace=False)
    if selector.success:
        assert (
            plan.result.satisfaction
            >= selector.satisfaction - tolerance - TOLERANCE_SLACK
        )


class TestSkipSoundness:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        add_source_decoder=st.booleans(),
        tolerance=st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_catch_all_skip_never_beats_its_bound(
        self, seed, add_source_decoder, tolerance
    ):
        scenario, _source = _world(seed, add_source_decoder)
        engine = PolicyEngine(
            PolicyDocument(
                name="catch-all",
                rules=(
                    PolicyRule(
                        rule_id="skip-all", action="skip", tolerance=tolerance
                    ),
                ),
            )
        )
        decision = engine.evaluate(scenario.request())
        if decision.kind != "skip":
            return  # falling through to the selector is always sound
        _assert_sound(scenario, decision, tolerance)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tolerance=st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_decodes_gated_skip_is_sound_on_native_devices(
        self, seed, tolerance
    ):
        scenario, source = _world(seed, add_source_decoder=True)
        engine = PolicyEngine(
            PolicyDocument(
                name="native",
                rules=(
                    PolicyRule(
                        rule_id="skip-native",
                        action="skip",
                        predicates=(Decodes(source),),
                        tolerance=tolerance,
                    ),
                ),
            )
        )
        decision = engine.evaluate(scenario.request())
        if decision.kind != "skip":
            return
        assert decision.rule_id == "skip-native"
        _assert_sound(scenario, decision, tolerance)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_decisions_are_deterministic_per_world(self, seed):
        scenario, _source = _world(seed, add_source_decoder=True)
        document = PolicyDocument(
            name="repeat",
            rules=(
                PolicyRule(rule_id="skip-all", action="skip", tolerance=0.05),
            ),
        )
        first = PolicyEngine(document).evaluate(scenario.request())
        second = PolicyEngine(document).evaluate(scenario.request())
        assert first.kind == second.kind
        if first.kind == "skip":
            assert first.plan.result == second.plan.result
