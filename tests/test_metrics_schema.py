"""One metrics schema across every producer in the repo.

The planner report, the simulator report, the gateway's ``/metrics``
endpoint, and the load generator's report all export through
:func:`repro.runtime.metrics.metrics_document`.  These tests pin the
envelope contract — schema-version field, section name, recursively
sorted keys — so a scraper written against one producer parses them all.
"""

from __future__ import annotations

import json

import pytest

from repro.runtime.metrics import (
    METRICS_SCHEMA_VERSION,
    PlannerReport,
    metrics_document,
    metrics_json,
)
from repro.serve.metrics import GatewayMetrics
from repro.sim import UniformArrivals, SimulationConfig, run_simulation
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


def assert_keys_sorted(value) -> None:
    """Every mapping in the tree must have its keys in sorted order."""
    if isinstance(value, dict):
        assert list(value) == sorted(value)
        for child in value.values():
            assert_keys_sorted(child)
    elif isinstance(value, list):
        for child in value:
            assert_keys_sorted(child)


def assert_envelope(document: dict, section: str) -> None:
    assert document["schema"] == METRICS_SCHEMA_VERSION
    assert document["section"] == section
    assert isinstance(document["metrics"], dict)
    assert_keys_sorted(document["metrics"])
    json.dumps(document)  # must be JSON-serializable as-is


class TestEnvelopeHelper:
    def test_document_shape(self):
        document = metrics_document("demo", {"b": 1, "a": {"z": 1, "y": 2}})
        assert_envelope(document, "demo")
        assert list(document["metrics"]) == ["a", "b"]
        assert list(document["metrics"]["a"]) == ["y", "z"]

    def test_sorts_inside_lists_too(self):
        document = metrics_document("demo", {"rows": [{"b": 1, "a": 2}]})
        assert list(document["metrics"]["rows"][0]) == ["a", "b"]

    def test_json_rendering_round_trips(self):
        text = metrics_json("demo", {"value": 3})
        parsed = json.loads(text)
        assert parsed["schema"] == METRICS_SCHEMA_VERSION
        assert parsed["metrics"]["value"] == 3

    def test_scalars_pass_through_unchanged(self):
        payload = {"f": 1.5, "s": "x", "b": True, "n": None, "t": (1, 2)}
        metrics = metrics_document("demo", payload)["metrics"]
        assert metrics["f"] == 1.5 and metrics["t"] == [1, 2]


class TestPlannerReportEnvelope:
    REPORT = PlannerReport(
        sessions=100, successes=98, cache_hits=80, cache_misses=20,
        invalidations=3, evictions=1, elapsed_s=0.5,
        optimize_calls=400, optimize_memo_hits=300, settle_rounds=900,
    )

    def test_to_dict_is_enveloped(self):
        document = self.REPORT.to_dict()
        assert_envelope(document, "planner")
        metrics = document["metrics"]
        assert metrics["sessions"] == 100
        assert metrics["hit_rate"] == pytest.approx(0.8)
        assert metrics["optimize_memo_hit_rate"] == pytest.approx(0.75)

    def test_to_json_parses_back(self):
        parsed = json.loads(self.REPORT.to_json())
        assert parsed == self.REPORT.to_dict()


class TestSimReportEnvelope:
    @pytest.fixture(scope="class")
    def report(self):
        scenario = generate_scenario(
            SyntheticConfig(seed=5, n_services=12, n_formats=8, n_nodes=8,
                            extra_links=6)
        )
        config = SimulationConfig(
            scenario=scenario, name="schema-test", seed=11, sessions=6,
            arrivals=UniformArrivals(over_s=12.0), session_duration_s=6.0,
        )
        return run_simulation(config)

    def test_to_metrics_dict_is_enveloped(self, report):
        document = report.to_metrics_dict()
        assert_envelope(document, "sim")
        metrics = document["metrics"]
        assert metrics["sessions"] == 6
        assert metrics["trace_digest"] == report.trace_digest

    def test_fleet_metrics_match_the_flat_report(self, report):
        fleet = report.fleet_metrics()
        assert report.to_dict()["fleet"] == fleet
        assert report.to_metrics_dict()["metrics"]["admitted"] == (
            fleet["admitted"]
        )

    def test_full_report_carries_schema_version(self, report):
        assert report.to_dict()["schema"] == METRICS_SCHEMA_VERSION


class TestGatewayMetricsEnvelope:
    def test_snapshot_is_enveloped(self):
        metrics = GatewayMetrics()
        metrics.bump("received")
        metrics.bump("planned")
        metrics.latency_ms.observe(3.0)
        document = metrics.snapshot(
            generation=2, uptime_s=1.25, queue_depth=0, inflight=1,
            draining=False, cache={"hits": 1, "misses": 2, "evictions": 0,
                                   "invalidations": 0, "entries": 2},
        )
        assert_envelope(document, "gateway")
        payload = document["metrics"]
        assert payload["counters"]["received"] == 1
        assert payload["cache"]["misses"] == 2
        # Histogram bounds/counts stay parallel arrays despite key sorting.
        latency = payload["latency_ms"]
        assert len(latency["bounds"]) + 1 == len(latency["counts"])
        assert latency["count"] == 1

    def test_every_counter_is_exported(self):
        metrics = GatewayMetrics()
        document = metrics.snapshot(
            generation=1, uptime_s=0.0, queue_depth=0, inflight=0,
            draining=False,
        )
        counters = document["metrics"]["counters"]
        assert set(counters) == set(GatewayMetrics.COUNTERS)
        assert all(value == 0 for value in counters.values())

    def test_unknown_counter_is_a_hard_error(self):
        with pytest.raises(KeyError):
            GatewayMetrics().bump("made_up")
