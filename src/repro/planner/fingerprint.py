"""Canonical request fingerprints: the plan-cache key.

A fingerprint identifies everything the planning pipeline (graph
construction → pruning → selection) consumes for one session:

- the :class:`~repro.runtime.session.PlanRequest`: its four profiles
  (user, content, device, and optionally context) via their
  ``cache_key()`` tuples, its endpoints (sender / receiver node) and its
  peer;
- the *shared infrastructure state* via the content keys of the service
  catalog, the topology and the placement;
- the per-call :class:`~repro.core.graph.CatalogView`, if any: its masked
  service ids and the content of its residual topology.  Planning against
  reserved capacity goes through a view over the bandwidth ledger's
  residual topology, so every booking changes the key through that
  content.

Two requests with equal fingerprints are guaranteed to produce identical
plans, because planning is deterministic in exactly these inputs (and in
the planner's format registry and parameter set, which the key does not
cover: a cache shared across planners must be cleared when those change).
Content is the only staleness rule: a catalog ``add`` / ``remove``,
topology growth, a re-placement or a reservation changes the key exactly
when it changes what planning reads, and a mutation that restores earlier
content (a descriptor removed and added back, a service re-placed on its
own node, a booking released) restores the earlier key, whose plan is
still the right answer.

The digest is hierarchical.  Each infrastructure component — catalog,
topology (the view's, if it carries one) and placement — is digested once
per (object, generation): a SHA-256 over the canonical ``repr`` of its
content key.  The request digest is then a SHA-256 over the request's own
parts (profile keys, endpoints, peer), the three 64-hex component
digests and the sorted excluded ids.  Equal
component content gives equal component digests, so the fingerprint
separates exactly the requests the full combined key would, while a
steady-state request costs O(profile size), not O(catalog + topology).
A residual topology is re-digested once per ledger generation, and a
release that restores its content restores its digest.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import Callable, Optional, Tuple

from repro.core.graph import CatalogView
from repro.network.placement import ServicePlacement
from repro.network.topology import NetworkTopology
from repro.runtime.session import PlanRequest
from repro.services.catalog import ServiceCatalog

__all__ = ["combine_fingerprints", "fingerprint_request"]


def _digest(key: Tuple) -> str:
    """SHA-256 over the canonical ``repr`` of an all-primitive key."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


# Digests of the shared infrastructure's content keys are memoized per
# (object, generation): under a batch of N requests against one unchanged
# world the tuple construction and hashing run once, not N times, and each
# request hashes a 64-hex digest in their place.  A generation bump
# re-digests the object's content; WeakKeyDictionary keeps dead worlds from
# pinning memory.
_KEY_MEMO: "weakref.WeakKeyDictionary[object, Tuple[int, str]]" = (
    weakref.WeakKeyDictionary()
)
_KEY_MEMO_LOCK = threading.Lock()


def _memoized_key(obj, generation: int, build: Callable[[], Tuple]) -> str:
    """The digest of ``build()``, built once per (``obj``, ``generation``)."""
    with _KEY_MEMO_LOCK:
        entry = _KEY_MEMO.get(obj)
        if entry is not None and entry[0] == generation:
            return entry[1]
    digest = _digest(build())
    with _KEY_MEMO_LOCK:
        _KEY_MEMO[obj] = (generation, digest)
    return digest


def _catalog_key(catalog: ServiceCatalog) -> str:
    return _memoized_key(
        catalog,
        catalog.generation,
        lambda: tuple(
            catalog.get(service_id).cache_key() for service_id in catalog.ids()
        ),
    )


def _topology_key(topology: NetworkTopology) -> str:
    def build() -> Tuple:
        nodes = tuple(
            (node.node_id, node.cpu_mips, node.memory_mb)
            for node in sorted(topology.nodes(), key=lambda n: n.node_id)
        )
        links = tuple(
            (link.a, link.b, link.bandwidth_bps, link.delay_ms, link.loss_rate, link.cost)
            for link in sorted(topology.links(), key=lambda l: (l.a, l.b))
        )
        return (nodes, links)

    return _memoized_key(topology, topology.generation, build)


def _placement_key(placement: ServicePlacement) -> str:
    return _memoized_key(
        placement,
        placement.generation,
        lambda: tuple(sorted(placement.as_dict().items())),
    )


def fingerprint_request(
    request: PlanRequest,
    catalog: ServiceCatalog,
    placement: ServicePlacement,
    view: Optional[CatalogView] = None,
) -> str:
    """The 64-hex fingerprint of one request against the current world.

    A ``view`` adds its masked service ids to the key, and its topology's
    content digest replaces the placement topology's (planning reads only
    the view's), so a view over a ledger's residual keys on what the
    reservations left.
    """
    context = request.context
    key = (
        request.user.cache_key(),
        request.content.cache_key(),
        request.device.cache_key(),
        context.cache_key() if context is not None else None,
        request.sender_node,
        request.receiver_node,
        request.peer,
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
    return _digest(key)


def combine_fingerprints(parts: Tuple[Tuple, ...]) -> str:
    """One fingerprint over many — the group-plan (shared-tree) cache key.

    ``parts`` is a tuple of canonical sub-keys, typically
    ``(class_id, sessions, per_class_fingerprint)`` triples in a fixed
    order.  Every member fingerprint already covers the infrastructure
    content, so any change that alters what a member plans alters the
    combination.
    """
    return _digest(parts)
