"""The full-tuple request fingerprint, kept as the equivalence oracle.

Before plan fingerprints hashed one digest per infrastructure component,
:func:`~repro.planner.fingerprint.fingerprint_request` hashed one combined
tuple: the request's own parts, the whole catalog, topology and placement
content keys and the sorted excluded ids.
:func:`reference_key` keeps that combined key verbatim, built fresh on
every call with no memo.  The fingerprint oracle suite asserts that two
requests get equal production digests exactly when their reference keys
are equal.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.graph import CatalogView
from repro.core.selection import TieBreakPolicy
from repro.network.placement import ServicePlacement
from repro.network.topology import NetworkTopology
from repro.profiles.content import ContentProfile
from repro.profiles.context import ContextProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.user import UserProfile
from repro.services.catalog import ServiceCatalog

__all__ = ["reference_key"]


def _catalog_key(catalog: ServiceCatalog) -> Tuple:
    return tuple(
        catalog.get(service_id).cache_key() for service_id in catalog.ids()
    )


def _topology_key(topology: NetworkTopology) -> Tuple:
    nodes = tuple(
        (node.node_id, node.cpu_mips, node.memory_mb)
        for node in sorted(topology.nodes(), key=lambda n: n.node_id)
    )
    links = tuple(
        (link.a, link.b, link.bandwidth_bps, link.delay_ms, link.loss_rate, link.cost)
        for link in sorted(topology.links(), key=lambda l: (l.a, l.b))
    )
    return (nodes, links)


def _placement_key(placement: ServicePlacement) -> Tuple:
    return tuple(sorted(placement.as_dict().items()))


def reference_key(
    *,
    user: UserProfile,
    content: ContentProfile,
    device: DeviceProfile,
    sender_node: str,
    receiver_node: str,
    catalog: ServiceCatalog,
    placement: ServicePlacement,
    view: Optional[CatalogView] = None,
    context: Optional[ContextProfile] = None,
    peer: Optional[str] = None,
    tie_break: TieBreakPolicy = TieBreakPolicy.PAPER,
    prune: bool = True,
    record_trace: bool = False,
) -> Tuple:
    """The combined canonical key of one planning request."""
    key = (
        user.cache_key(),
        content.cache_key(),
        device.cache_key(),
        context.cache_key() if context is not None else None,
        sender_node,
        receiver_node,
        peer,
        tie_break.value,
        prune,
        record_trace,
        _catalog_key(catalog),
        _topology_key(
            view.topology
            if view is not None and view.topology is not None
            else placement.topology
        ),
        _placement_key(placement),
    )
    if view is not None and view.excluded:
        key += (tuple(sorted(view.excluded)),)
    return key
