"""Bandwidth reservations: accounting for concurrent sessions.

The paper treats ``Bandwidth_AvailableBetween`` as given; in deployment the
number comes from what earlier sessions have *not* already claimed (its
introduction cites resource-reservation mechanisms as the alternative it
builds on).  :class:`BandwidthLedger` provides that bookkeeping:

- each admitted stream **reserves** bits/second along a concrete route;
- the **residual** bandwidth of a link is its capacity minus reservations;
- planning for the next session runs against the ledger's *live residual
  topology*, whose link capacities are the residuals and which every
  reserve, release and capacity change updates in place;
- tearing a session down releases its reservations.

The ledger is deliberately strict: over-reserving a link raises, releases
must match an outstanding reservation, and every operation is O(route
length).
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.configuration import fits_within
from repro.errors import ValidationError
from repro.network.topology import NetworkTopology, link_key

__all__ = ["EdgeDemand", "Reservation", "BandwidthLedger"]


@dataclass(frozen=True)
class EdgeDemand:
    """One edge of a shared tree: a route and the bandwidth it carries.

    The group planner hands a list of these to
    :meth:`BandwidthLedger.reserve_group`; each demand is reserved *once*
    regardless of how many receiver classes (or sessions) share the edge
    — that single claim is the whole point of tree delivery.
    """

    route: Tuple[str, ...]
    bandwidth_bps: float
    label: str = ""


@dataclass(frozen=True)
class Reservation:
    """One admitted stream's claim on a route."""

    reservation_id: int
    route: Tuple[str, ...]
    bandwidth_bps: float
    label: str = ""

    def links(self) -> List[Tuple[str, str]]:
        return [link_key(a, b) for a, b in zip(self.route, self.route[1:])]


class BandwidthLedger:
    """Tracks per-link reservations over one topology.

    The ledger is thread-safe: :meth:`reserve` validates residual capacity
    and claims every link of the route atomically under one lock, so
    concurrent admissions can never jointly over-subscribe a link.

    :meth:`reserve` validates against *nominal* capacity, so a released
    claim can always be taken back, even on a link a fault has squeezed.
    The live residual topology subtracts reservations from the *current*
    capacity (nominal unless :meth:`set_capacity` overrides it); callers
    that must not over-commit a squeezed link check it before reserving.
    """

    def __init__(self, topology: NetworkTopology) -> None:
        self._topology = topology
        self._residual = topology.copy()
        self._capacity: Dict[Tuple[str, str], float] = {}
        self._reserved: Dict[Tuple[str, str], float] = {}
        self._active: Dict[int, Reservation] = {}
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self._generation = 0

    @property
    def topology(self) -> NetworkTopology:
        return self._topology

    @property
    def generation(self) -> int:
        """Monotonic mutation counter (bumped on every ledger change).

        :class:`~repro.sim.world.SimWorld` remakes its planning view when
        this moves, and clears its plan cache only to reclaim memory: the
        fingerprint keys on the residual topology's content.
        """
        with self._lock:
            return self._generation

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reserved_on(self, a: str, b: str) -> float:
        """Bits/second currently reserved on one link."""
        self._topology.get_link(a, b)  # validate the link exists
        with self._lock:
            return self._reserved.get(link_key(a, b), 0.0)

    def residual(self, a: str, b: str) -> float:
        """Nominal capacity remaining on one link (what :meth:`reserve`
        validates against)."""
        link = self._topology.get_link(a, b)
        return max(0.0, link.bandwidth_bps - self.reserved_on(a, b))

    def supply_fraction(self, route: Sequence[str]) -> float:
        """How much of its reserved bandwidth a stream on ``route`` gets.

        Reservations were validated against nominal capacity; when
        :meth:`set_capacity` squeezes a link below its total reserved
        load, every stream on it degrades proportionally (fair share).
        Returns a value in [0, 1]; 0 means the route is dead.
        """
        fraction = 1.0
        with self._lock:
            for a, b in zip(route, route[1:]):
                key = link_key(a, b)
                capacity = self._capacity.get(key)
                if capacity is None:
                    capacity = self._topology.get_link(a, b).bandwidth_bps
                if capacity <= 0.0:
                    return 0.0
                reserved = self._reserved.get(key, 0.0)
                if reserved > capacity:
                    fraction = min(fraction, capacity / reserved)
        return fraction

    def active_reservations(self) -> List[Reservation]:
        with self._lock:
            return list(self._active.values())

    def residual_topology(self) -> NetworkTopology:
        """The live topology whose link capacities are the residuals.

        Planning the *next* session against it makes earlier admissions
        invisible except through the capacity they consumed.  It is the
        same object on every call, updated in place (under the ledger's
        lock) by every reserve, release and capacity change, with its
        ``generation`` bumped each time.  Treat it as read-only; a caller
        that needs it frozen while other threads reserve takes a
        :meth:`~repro.network.topology.NetworkTopology.copy`.
        """
        return self._residual

    def _refresh(self, key: Tuple[str, str]) -> None:
        """Rewrite one residual link (caller holds the lock)."""
        nominal = self._topology.get_link(*key).bandwidth_bps
        capacity = self._capacity.get(key, nominal)
        reserved = self._reserved.get(key, 0.0)
        self._residual.set_bandwidth(*key, max(0.0, capacity - reserved))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def reserve(
        self,
        route: Sequence[str],
        bandwidth_bps: float,
        label: str = "",
    ) -> Reservation:
        """Claim ``bandwidth_bps`` on every link of ``route``.

        The route must be a connected node sequence; a single-node route
        (co-located endpoints) reserves nothing but is still tracked so
        teardown stays uniform.  Raises :class:`ValidationError` when any
        link lacks residual capacity — and in that case reserves nothing
        (all-or-nothing semantics).
        """
        if bandwidth_bps < 0 or math.isnan(bandwidth_bps):
            raise ValidationError(f"cannot reserve {bandwidth_bps} bps")
        if not route:
            raise ValidationError("route must contain at least one node")
        pairs = list(zip(route, route[1:]))
        with self._lock:
            for a, b in pairs:
                if not fits_within(bandwidth_bps, self.residual(a, b)):
                    raise ValidationError(
                        f"link {a}--{b} has {self.residual(a, b):.0f} bps "
                        f"residual, cannot reserve {bandwidth_bps:.0f}"
                    )
            for a, b in pairs:
                key = link_key(a, b)
                self._reserved[key] = self._reserved.get(key, 0.0) + bandwidth_bps
                self._refresh(key)
            reservation = Reservation(
                reservation_id=next(self._ids),
                route=tuple(route),
                bandwidth_bps=bandwidth_bps,
                label=label,
            )
            self._active[reservation.reservation_id] = reservation
            self._generation += 1
            return reservation

    def reserve_group(
        self,
        demands: Sequence[EdgeDemand],
        label: str = "",
    ) -> List[Reservation]:
        """Reserve every edge of a shared tree, all-or-nothing.

        The shared-reservation mode behind group (multicast-style)
        delivery: each :class:`EdgeDemand` is claimed exactly once, under
        one lock acquisition, so a concurrent admission can never observe
        a half-reserved tree.  If any edge lacks residual capacity, every
        edge already claimed for this group is released before the
        :class:`ValidationError` propagates — a failed group reservation
        leaks nothing (property-tested in
        ``tests/test_reservation_properties.py``).
        """
        if not demands:
            raise ValidationError("a group reservation needs at least one edge")
        taken: List[Reservation] = []
        with self._lock:
            try:
                for index, demand in enumerate(demands):
                    taken.append(
                        self.reserve(
                            demand.route,
                            demand.bandwidth_bps,
                            label=demand.label or f"{label}#{index}",
                        )
                    )
            except ValidationError:
                for reservation in taken:
                    self.release(reservation)
                raise
        return taken

    def release(self, reservation: Reservation) -> None:
        """Return a reservation's bandwidth to the links."""
        with self._lock:
            if reservation.reservation_id not in self._active:
                raise ValidationError(
                    f"reservation {reservation.reservation_id} is not active"
                )
            del self._active[reservation.reservation_id]
            for key in reservation.links():
                remaining = self._reserved.get(key, 0.0) - reservation.bandwidth_bps
                if remaining <= 1e-9:
                    self._reserved.pop(key, None)
                else:
                    self._reserved[key] = remaining
                self._refresh(key)
            self._generation += 1

    def set_capacity(self, a: str, b: str, bandwidth_bps: float) -> None:
        """Set one link's current capacity; only the residual topology
        sees it (:meth:`reserve` keeps validating against nominal)."""
        self._topology.get_link(a, b)  # validate the link exists
        if not math.isfinite(bandwidth_bps) or bandwidth_bps < 0:
            raise ValidationError("link capacity must be finite and >= 0")
        key = link_key(a, b)
        with self._lock:
            self._capacity[key] = bandwidth_bps
            self._refresh(key)
            self._generation += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._active)
