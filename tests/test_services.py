"""Unit tests for service descriptors, transcoders, catalogs, and chains."""

from __future__ import annotations

import pytest

from repro.core.configuration import Configuration
from repro.core.parameters import COLOR_DEPTH, FRAME_RATE, RESOLUTION
from repro.errors import ChainValidationError, UnknownServiceError, ValidationError
from repro.formats.format import MediaFormat
from repro.formats.registry import FormatRegistry
from repro.formats.variants import ContentVariant
from repro.services.catalog import ServiceCatalog, service_sort_key
from repro.services.chains import AdaptationChain, ChainHop, chain_from_services
from repro.services.descriptor import (
    ServiceDescriptor,
    ServiceKind,
    receiver_descriptor,
    sender_descriptor,
)
from repro.services.transcoder import SyntheticTranscoder


def transcoder_descriptor(service_id="T1", inputs=("F1",), outputs=("F2",), **kwargs):
    return ServiceDescriptor(
        service_id=service_id,
        input_formats=inputs,
        output_formats=outputs,
        **kwargs,
    )


class TestServiceDescriptor:
    def test_transcoder_needs_both_sides(self):
        with pytest.raises(ValidationError):
            ServiceDescriptor(service_id="T1", input_formats=("F1",))
        with pytest.raises(ValidationError):
            ServiceDescriptor(service_id="T1", output_formats=("F1",))

    def test_sender_has_only_outputs(self):
        sender = sender_descriptor("s", ("F1",))
        assert sender.is_sender
        with pytest.raises(ValidationError):
            ServiceDescriptor(
                service_id="s",
                input_formats=("F0",),
                output_formats=("F1",),
                kind=ServiceKind.SENDER,
            )

    def test_receiver_has_only_inputs(self):
        receiver = receiver_descriptor("r", ("F1",), {FRAME_RATE: 15.0})
        assert receiver.is_receiver
        assert receiver.output_caps[FRAME_RATE] == 15.0
        with pytest.raises(ValidationError):
            ServiceDescriptor(
                service_id="r",
                input_formats=("F0",),
                output_formats=("F1",),
                kind=ServiceKind.RECEIVER,
            )

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            transcoder_descriptor(cost=-1.0)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValidationError):
            transcoder_descriptor(output_caps={FRAME_RATE: -5.0})

    def test_format_listed_twice_rejected(self):
        with pytest.raises(ValidationError, match=r"T7: input format 'F1' listed twice"):
            transcoder_descriptor("T7", inputs=("F1", "F2", "F1"), outputs=("F3",))
        with pytest.raises(ValidationError, match=r"T7: output format 'F3' listed twice"):
            transcoder_descriptor("T7", inputs=("F1",), outputs=("F3", "F3"))
        with pytest.raises(ValidationError, match="listed twice"):
            sender_descriptor("s", ("F1", "F1"))
        with pytest.raises(ValidationError, match="listed twice"):
            receiver_descriptor("r", ("F1", "F1"), {})

    def test_accepts_and_produces(self):
        descriptor = transcoder_descriptor(inputs=("F1", "F2"), outputs=("F3",))
        assert descriptor.accepts("F2")
        assert not descriptor.accepts("F3")
        assert descriptor.produces("F3")
        assert not descriptor.produces("F1")

    def test_can_follow_and_matching_formats(self):
        upstream = transcoder_descriptor("up", ("F0",), ("F1", "F2"))
        downstream = transcoder_descriptor("down", ("F2", "F9"), ("F3",))
        assert downstream.can_follow(upstream)
        assert downstream.matching_formats(upstream) == ("F2",)
        unrelated = transcoder_descriptor("x", ("F7",), ("F8",))
        assert not unrelated.can_follow(upstream)

    def test_cpu_required_scales_with_rate(self):
        descriptor = transcoder_descriptor(cpu_factor=2.0)
        assert descriptor.cpu_required(1e6) == pytest.approx(2.0)
        assert descriptor.cpu_required(5e5) == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            descriptor.cpu_required(-1.0)


class TestSyntheticTranscoder:
    def _setup(self):
        registry = FormatRegistry()
        registry.define("F1", compression_ratio=10.0)
        registry.define("F2", compression_ratio=20.0)
        descriptor = transcoder_descriptor(
            outputs=("F2",), output_caps={FRAME_RATE: 15.0}
        )
        variant = ContentVariant(
            format=registry.get("F1"),
            configuration=Configuration(
                {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0}
            ),
        )
        return registry, descriptor, variant

    def test_transcode_caps_and_reformats(self):
        registry, descriptor, variant = self._setup()
        result = SyntheticTranscoder(descriptor, registry).transcode(variant, "F2")
        assert result.output.format.name == "F2"
        assert result.output.configuration[FRAME_RATE] == 15.0
        assert result.output.configuration[RESOLUTION] == 1000.0

    def test_transcode_quality_never_increases(self):
        registry, descriptor, variant = self._setup()
        result = SyntheticTranscoder(descriptor, registry).transcode(variant, "F2")
        assert variant.configuration.dominates(result.output.configuration)

    def test_rejects_wrong_input_format(self):
        registry, descriptor, _ = self._setup()
        wrong = ContentVariant(
            format=registry.get("F2"),
            configuration=Configuration({FRAME_RATE: 10.0}),
        )
        with pytest.raises(ChainValidationError):
            SyntheticTranscoder(descriptor, registry).transcode(wrong, "F2")

    def test_rejects_unknown_output_format(self):
        registry, descriptor, variant = self._setup()
        with pytest.raises(ChainValidationError):
            SyntheticTranscoder(descriptor, registry).transcode(variant, "F9")

    def test_default_output_when_unambiguous(self):
        registry, descriptor, variant = self._setup()
        result = SyntheticTranscoder(descriptor, registry).transcode(variant)
        assert result.output.format.name == "F2"

    def test_ambiguous_default_output_rejected(self):
        registry, _, variant = self._setup()
        registry.define("F3")
        multi = transcoder_descriptor(outputs=("F2", "F3"))
        with pytest.raises(ChainValidationError):
            SyntheticTranscoder(multi, registry).transcode(variant)

    def test_only_transcoders_are_executable(self):
        registry, _, _ = self._setup()
        with pytest.raises(ValidationError):
            SyntheticTranscoder(sender_descriptor("s", ("F1",)), registry)

    def test_reports_resource_use(self):
        registry, descriptor, variant = self._setup()
        result = SyntheticTranscoder(descriptor, registry).transcode(variant, "F2")
        assert result.cpu_mips > 0
        assert result.memory_mb == descriptor.memory_mb


class TestServiceSortKey:
    def test_numeric_suffixes_sort_numerically(self):
        ids = ["T10", "T2", "T1", "T20"]
        assert sorted(ids, key=service_sort_key) == ["T1", "T2", "T10", "T20"]

    def test_mixed_ids(self):
        ids = ["receiver", "T2", "sender", "T10"]
        ordered = sorted(ids, key=service_sort_key)
        assert ordered.index("T2") < ordered.index("T10")


class TestServiceCatalog:
    def _catalog(self):
        return ServiceCatalog(
            [
                transcoder_descriptor("T1", ("F0",), ("F1",)),
                transcoder_descriptor("T10", ("F1",), ("F2",)),
                transcoder_descriptor("T2", ("F0", "F1"), ("F3",)),
            ]
        )

    def test_natural_order(self):
        assert self._catalog().ids() == ["T1", "T2", "T10"]

    def test_lookup_and_contains(self):
        catalog = self._catalog()
        assert catalog.get("T10").service_id == "T10"
        assert "T2" in catalog
        with pytest.raises(UnknownServiceError):
            catalog.get("T99")

    def test_duplicate_rejected_unless_replace(self):
        catalog = self._catalog()
        with pytest.raises(ValidationError):
            catalog.add(transcoder_descriptor("T1", ("F9",), ("F8",)))
        catalog.add(transcoder_descriptor("T1", ("F9",), ("F8",)), replace=True)
        assert catalog.get("T1").input_formats == ("F9",)

    def test_remove(self):
        catalog = self._catalog()
        catalog.remove("T1")
        assert "T1" not in catalog
        with pytest.raises(UnknownServiceError):
            catalog.remove("T1")

    def test_format_queries(self):
        catalog = self._catalog()
        assert [s.service_id for s in catalog.accepting("F1")] == ["T2", "T10"]
        assert [s.service_id for s in catalog.producing("F1")] == ["T1"]


class TestAdaptationChain:
    def _pieces(self):
        registry = FormatRegistry()
        for name, ratio in (("F0", 10.0), ("F1", 12.0), ("F2", 20.0)):
            registry.define(name, compression_ratio=ratio)
        sender = sender_descriptor("sender", ("F0",))
        t1 = transcoder_descriptor("T1", ("F0",), ("F1",), output_caps={FRAME_RATE: 20.0})
        t2 = transcoder_descriptor("T2", ("F1",), ("F2",))
        receiver = receiver_descriptor("receiver", ("F2",), {FRAME_RATE: 15.0})
        return registry, sender, t1, t2, receiver

    def test_valid_chain(self):
        registry, sender, t1, t2, receiver = self._pieces()
        chain = chain_from_services([sender, t1, t2, receiver], ["F0", "F1", "F2"])
        assert chain.service_ids() == ["sender", "T1", "T2", "receiver"]
        assert chain.formats() == ["F0", "F1", "F2"]
        assert str(chain) == "sender,T1,T2,receiver"

    def test_format_mismatch_rejected(self):
        _, sender, t1, t2, receiver = self._pieces()
        with pytest.raises(ChainValidationError):
            chain_from_services([sender, t2, receiver], ["F0", "F2"])

    def test_repeated_format_rejected(self):
        _, sender, t1, _, receiver = self._pieces()
        loopback = transcoder_descriptor("L", ("F1",), ("F0",))
        acceptor = transcoder_descriptor("A", ("F0",), ("F2",))
        with pytest.raises(ChainValidationError) as exc:
            chain_from_services(
                [sender, t1, loopback, acceptor, receiver],
                ["F0", "F1", "F0", "F2"],
            )
        assert "distinct-format" in str(exc.value)

    def test_repeated_service_rejected(self):
        registry, sender, t1, t2, receiver = self._pieces()
        # Craft a would-be chain that revisits T1 (needs a fake format loop,
        # so build hops directly with strict=False semantics).
        hops = [
            ChainHop(sender, None),
            ChainHop(t1, "F0"),
            ChainHop(t1, "F0"),
        ]
        with pytest.raises(ChainValidationError):
            AdaptationChain(hops, strict=False)

    def test_strict_requires_endpoints(self):
        _, sender, t1, t2, receiver = self._pieces()
        with pytest.raises(ChainValidationError):
            chain_from_services([t1, t2], ["F1"])
        # Non-strict allows partial chains.
        chain = chain_from_services([t1, t2], ["F1"], strict=False)
        assert chain.service_ids() == ["T1", "T2"]

    def test_too_short_rejected(self):
        _, sender, *_ = self._pieces()
        with pytest.raises(ChainValidationError):
            AdaptationChain([ChainHop(sender, None)])

    def test_total_cost_sums_services(self):
        _, sender, t1, t2, receiver = self._pieces()
        chain = chain_from_services([sender, t1, t2, receiver], ["F0", "F1", "F2"])
        assert chain.total_cost() == pytest.approx(t1.cost + t2.cost)

    def test_execute_applies_caps_along_the_way(self):
        registry, sender, t1, t2, receiver = self._pieces()
        chain = chain_from_services([sender, t1, t2, receiver], ["F0", "F1", "F2"])
        variant = ContentVariant(
            format=registry.get("F0"),
            configuration=Configuration(
                {FRAME_RATE: 30.0, RESOLUTION: 1000.0, COLOR_DEPTH: 24.0}
            ),
        )
        delivered = chain.execute(variant, registry)
        assert delivered.format.name == "F2"
        # T1 capped to 20, then the receiver's rendering cap to 15.
        assert delivered.configuration[FRAME_RATE] == 15.0

    def test_execute_rejects_wrong_entry_format(self):
        registry, sender, t1, t2, receiver = self._pieces()
        chain = chain_from_services([sender, t1, t2, receiver], ["F0", "F1", "F2"])
        wrong = ContentVariant(
            format=registry.get("F1"),
            configuration=Configuration({FRAME_RATE: 30.0}),
        )
        with pytest.raises(ChainValidationError):
            chain.execute(wrong, registry)
