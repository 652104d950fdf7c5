"""Unit tests for the graph-pruning pass."""

from __future__ import annotations

import pytest

from repro.core.baselines import ExhaustiveSelector
from repro.core.graph import AdaptationGraph
from repro.core.pruning import GraphPruner, PruningReport
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

from tests.test_graph import simple_world


class TestPruner:
    def test_removes_dead_end_services(self):
        graph = simple_world()  # T2 produces a format nobody consumes
        pruned, report = GraphPruner().prune(graph)
        assert "T2" not in pruned
        assert "T1" in pruned
        assert report.vertices_removed == 1

    def test_endpoints_always_survive(self):
        graph = simple_world()
        pruned, _ = GraphPruner().prune(graph)
        assert pruned.sender_id in pruned
        assert pruned.receiver_id in pruned

    def test_report_numbers_consistent(self):
        graph = simple_world()
        pruned, report = GraphPruner().prune(graph)
        assert report.vertices_before == len(graph)
        assert report.vertices_after == len(pruned)
        assert report.edges_before == graph.edge_count()
        assert report.edges_after == pruned.edge_count()
        assert report.edges_removed >= 1  # sender->T2 edge died with T2

    def test_summary_text(self):
        report = PruningReport(10, 8, 20, 15)
        assert "2 of 10" in report.summary()
        assert "5 of 20" in report.summary()

    def test_idempotent(self):
        graph = simple_world()
        once, _ = GraphPruner().prune(graph)
        twice, report = GraphPruner().prune(once)
        assert report.vertices_removed == 0
        assert report.edges_removed == 0
        assert twice.vertex_ids() == once.vertex_ids()

    def test_paper_graph_prunes_only_dead_ends(self, fig6):
        graph = fig6.build_graph()
        pruned, _ = GraphPruner().prune(graph)
        # T9 and T15 produce formats the receiver cannot decode and feed
        # nobody else; everything else survives.
        assert "T9" not in pruned
        assert "T15" not in pruned
        for survivor in ("T1", "T7", "T10", "T19", "T20"):
            assert survivor in pruned

    @pytest.mark.parametrize("seed", range(6))
    def test_pruning_preserves_the_optimum(self, seed):
        """Satisfaction-preservation: exhaustive search agrees before and
        after pruning."""
        scenario = generate_scenario(SyntheticConfig(seed=seed, n_services=14))
        graph = scenario.build_graph()
        pruned, _ = GraphPruner().prune(graph)
        satisfaction = scenario.user.satisfaction()

        def best(g: AdaptationGraph) -> float:
            selector = ExhaustiveSelector(
                g,
                scenario.registry,
                scenario.parameters,
                satisfaction,
                scenario.user.budget,
            )
            return selector.run().satisfaction

        assert best(pruned) == pytest.approx(best(graph))

