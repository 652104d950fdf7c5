"""E13 — extension: mid-session re-planning under bandwidth collapse.

Section 3 motivates the network profile with "the fluctuating network
resources"; the paper's framework implies the selection should be re-run
when the chain degrades.  This bench collapses the winning chain's host
(T7) mid-session and compares a session that re-plans against one that
stubbornly streams on, reporting the satisfaction each actually observed
at its once-a-second checks (``CHECK_INTERVAL_S``).
"""

from __future__ import annotations

from repro.network.bandwidth import FluctuationModel
from repro.network.topology import Link
from repro.runtime.replanning import AdaptiveSession
from repro.workloads.paper import figure6_scenario

from conftest import format_table


class HostCollapse(FluctuationModel):
    """Both links of one host drop to 5% at a given time."""

    def __init__(self, host: str, at_s: float) -> None:
        self.host = host
        self.at_s = at_s

    def factor(self, link: Link, time_s: float) -> float:
        if time_s >= self.at_s and self.host in link.endpoints():
            return 0.05
        return 1.0


def test_replanning_restores_satisfaction(benchmark, save_artifact):
    scenario = figure6_scenario()
    collapse = HostCollapse(host="n7", at_s=10.0)

    def adaptive_run():
        session = AdaptiveSession(scenario, collapse, replan_threshold=0.9)
        return session.run(duration_s=30.0)

    adaptive = benchmark(adaptive_run)
    # A "stubborn" session: threshold so low it never re-plans.
    stubborn = AdaptiveSession(
        scenario, collapse, replan_threshold=0.01
    ).run(duration_s=30.0)

    rows = []
    for label, report in (("adaptive", adaptive), ("stubborn", stubborn)):
        rows.append(
            (
                label,
                " then ".join(",".join(c) for c in report.chains_used()),
                report.replans,
                f"{report.average_observed_satisfaction():.3f}",
            )
        )
    timeline = "\n".join(str(event) for event in adaptive.events)
    save_artifact(
        "replanning.txt",
        "E13 — T7's host collapses at t=10s during a 30s session\n\n"
        + format_table(
            ["session", "chains used", "replans", "avg observed S"], rows
        )
        + "\n\nadaptive session timeline:\n"
        + timeline,
    )

    assert adaptive.replans == 1
    assert adaptive.chains_used() == [
        ("sender", "T7", "receiver"),
        ("sender", "T8", "receiver"),
    ]
    assert (
        adaptive.average_observed_satisfaction()
        > stubborn.average_observed_satisfaction() + 0.1
    )


def test_replanning_overhead(benchmark, save_artifact):
    """How expensive is one re-plan (snapshot + graph + selection)?"""
    scenario = figure6_scenario()
    collapse = HostCollapse(host="n7", at_s=0.0)
    session = AdaptiveSession(scenario, collapse)

    result = benchmark(lambda: session.plan_at(1.0))
    save_artifact(
        "replanning_overhead.txt",
        "E13 — single re-plan (topology snapshot + graph + selection)\n\n"
        + format_table(
            ["item", "value"],
            [
                ("replanned chain", ",".join(result.path)),
                ("satisfaction", f"{result.satisfaction:.3f}"),
                ("timing", "see pytest-benchmark table"),
            ],
        ),
    )
    assert result.path == ("sender", "T8", "receiver")
