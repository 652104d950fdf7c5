#!/usr/bin/env python3
"""Adaptive streaming: re-planning when the network turns against you.

The paper plans a chain against a bandwidth snapshot; real networks
fluctuate (Section 3's motivation for the network profile).  This example
streams the Figure 6 scenario while the winning chain's host (n7, running
T7) collapses mid-session, and shows the adaptive session detecting the
drop at its next once-a-second check (``CHECK_INTERVAL_S``), re-running
selection against the degraded topology, and switching to
the next-best chain — versus a stubborn session that keeps pushing frames
at a dead proxy.

Run:
    python examples/adaptive_streaming.py
"""

from repro import figure6_scenario
from repro.network.bandwidth import FluctuationModel
from repro.network.topology import Link
from repro.runtime.replanning import AdaptiveSession


class HostCollapse(FluctuationModel):
    """Every link touching one host drops to 5% capacity at ``at_s``."""

    def __init__(self, host: str, at_s: float) -> None:
        self.host = host
        self.at_s = at_s

    def factor(self, link: Link, time_s: float) -> float:
        if time_s >= self.at_s and self.host in link.endpoints():
            return 0.05
        return 1.0


def main() -> None:
    scenario = figure6_scenario()
    collapse = HostCollapse(host="n7", at_s=10.0)
    duration = 30.0

    print("Streaming the Figure 6 plan for 30 s; host n7 (running T7) "
          "collapses at t=10 s.\n")

    adaptive = AdaptiveSession(
        scenario, collapse, replan_threshold=0.9
    ).run(duration_s=duration)

    print("adaptive session timeline:")
    for event in adaptive.events:
        print(f"  {event}")

    print("\nsegments:")
    for segment in adaptive.segments:
        print(
            f"  {segment.start_s:5.1f}s - {segment.end_s:5.1f}s  "
            f"{','.join(segment.path):<22} "
            f"planned S={segment.planned_satisfaction:.3f}  "
            f"observed S={segment.observed_satisfaction:.3f}"
        )

    stubborn = AdaptiveSession(
        scenario, collapse, replan_threshold=0.01
    ).run(duration_s=duration)

    print()
    print(f"adaptive session:  avg observed satisfaction "
          f"{adaptive.average_observed_satisfaction():.3f} "
          f"({adaptive.replans} replan)")
    print(f"stubborn session:  avg observed satisfaction "
          f"{stubborn.average_observed_satisfaction():.3f} "
          f"(never replans)")
    gain = (
        adaptive.average_observed_satisfaction()
        - stubborn.average_observed_satisfaction()
    )
    print(f"\nre-planning recovered {gain:.3f} satisfaction — the "
          f"composition framework's resilience argument in action.")


if __name__ == "__main__":
    main()
