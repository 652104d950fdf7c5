"""The per-move residual rebuild, kept as the equivalence oracle.

Before the bandwidth ledger kept one residual topology up to date in
place, the simulator built a fresh topology for every plan and every
reserved hop: each base link's capacity went through the fault overlay
(factor, downed endpoints) and lost what the ledger had reserved on it,
floored at zero.  :func:`reference_residual` keeps that construction
verbatim; the residual equivalence suite asserts that the live residual
equals it after every move.
"""

from __future__ import annotations

from repro.network.topology import Link, NetworkTopology
from repro.sim.world import SimWorld

__all__ = ["reference_residual"]


def reference_residual(world: SimWorld) -> NetworkTopology:
    """A fresh topology whose capacities are ``world``'s effective residuals."""
    snapshot = NetworkTopology()
    for node in world.scenario.topology.nodes():
        snapshot.add_node(node)
    for link in world.scenario.topology.links():
        snapshot.add_link(
            Link(
                a=link.a,
                b=link.b,
                bandwidth_bps=max(
                    0.0,
                    world.effective_capacity(link)
                    - world.ledger.reserved_on(link.a, link.b),
                ),
                delay_ms=link.delay_ms,
                loss_rate=link.loss_rate,
                cost=link.cost,
            )
        )
    return snapshot
