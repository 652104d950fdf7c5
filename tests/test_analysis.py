"""Tests for adaptation-graph analytics."""

from __future__ import annotations

import pytest

from repro.core.analysis import GraphAnalysis
from repro.workloads.synthetic import SyntheticConfig, generate_scenario


class TestOnFigure6:
    @pytest.fixture(scope="class")
    def analysis(self, fig6):
        return GraphAnalysis(fig6.build_graph())

    def test_format_usage_counts_edges(self, analysis, fig6):
        usage = analysis.format_usage()
        # F0 labels all ten sender edges; F10 labels T10's three out-edges.
        assert usage["F0"] == 10
        assert usage["F10"] == 3
        assert sum(usage.values()) == fig6.build_graph().edge_count()

    def test_format_usage_sorted_descending(self, analysis):
        counts = list(analysis.format_usage().values())
        assert counts == sorted(counts, reverse=True)

    def test_dead_services(self, analysis):
        dead = set(analysis.dead_services())
        # T9 and T15 cannot reach the receiver; T4/T5 only feed T15.
        assert dead == {"T4", "T5", "T9", "T15"}

    def test_degree_stats(self, analysis):
        stats = analysis.degree_stats()
        assert stats is not None
        assert stats.min_in >= 1  # every Figure 6 transcoder is fed
        assert stats.max_out == 3  # T10 feeds T19, T20, receiver

    def test_path_count_matches_enumeration(self, analysis, fig6):
        graph = fig6.build_graph()
        assert analysis.path_count() == len(list(graph.enumerate_paths()))

    def test_widest_chain_bottleneck(self, analysis):
        widest = analysis.widest_chain()
        assert widest is not None
        _, bottleneck = widest
        # Every chain ends on a 2 Mbit/s access link.
        assert bottleneck == pytest.approx(2_000_000.0)

    def test_summary_mentions_key_facts(self, analysis):
        text = analysis.summary()
        assert "vertices:" in text
        assert "17 transcoders" in text
        assert "T9" in text  # dead service named
        assert "F0 x10" in text


class TestOnSynthetic:
    def test_runs_on_generated_scenarios(self):
        for seed in range(3):
            scenario = generate_scenario(SyntheticConfig(seed=seed, n_services=15))
            analysis = GraphAnalysis(scenario.build_graph())
            summary = analysis.summary()
            assert "vertices:" in summary
            assert analysis.path_count(max_paths=500) >= 1

    def test_dead_services_really_are_unusable(self):
        scenario = generate_scenario(SyntheticConfig(seed=6, n_services=20))
        graph = scenario.build_graph()
        dead = set(GraphAnalysis(graph).dead_services())
        for path in graph.enumerate_paths(max_paths=2_000):
            for edge in path:
                assert edge.target not in dead
                assert edge.source not in dead
