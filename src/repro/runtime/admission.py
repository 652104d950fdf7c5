"""Admission control: many sessions sharing one infrastructure.

One content provider, one proxy infrastructure, many concurrent clients —
the proxy-based deployment the paper advocates ("scaling properly with the
number of clients", Section 2).  The :class:`AdmissionController`

1. plans each arriving session against the *residual* topology (what
   earlier admissions left over, via
   :class:`~repro.network.reservations.BandwidthLedger`);
2. admits the session iff a chain exists and its satisfaction clears the
   operator's floor, reserving the chain's bandwidth hop by hop;
3. releases everything on teardown.

Admission order matters (earlier sessions see more capacity) — exactly the
behaviour the E16 bench charts.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.graph import AdaptationGraphBuilder
from repro.core.selection import QoSPathSelector, SelectionResult
from repro.errors import ValidationError
from repro.formats.registry import FormatRegistry
from repro.core.parameters import ParameterSet
from repro.network.placement import ServicePlacement
from repro.network.reservations import BandwidthLedger, Reservation
from repro.profiles.content import ContentProfile
from repro.profiles.device import DeviceProfile
from repro.profiles.user import UserProfile
from repro.services.catalog import ServiceCatalog

__all__ = ["AdmittedSession", "AdmissionController"]


@dataclass(frozen=True)
class AdmittedSession:
    """One live session: its plan plus the reservations backing it."""

    session_id: int
    result: SelectionResult
    reservations: Tuple[Reservation, ...]

    @property
    def satisfaction(self) -> float:
        return self.result.satisfaction


class AdmissionController:
    """Admits sessions one by one against shared infrastructure."""

    def __init__(
        self,
        registry: FormatRegistry,
        parameters: ParameterSet,
        catalog: ServiceCatalog,
        placement: ServicePlacement,
        min_satisfaction: float = 0.0,
        cache=None,
    ) -> None:
        if not 0.0 <= min_satisfaction <= 1.0:
            raise ValidationError("min_satisfaction must lie in [0, 1]")
        self._registry = registry
        self._parameters = parameters
        self._catalog = catalog
        self._base_placement = placement
        self._ledger = BandwidthLedger(placement.topology)
        # Planning reads the ledger's live residual topology.
        self._placement = ServicePlacement(
            self._ledger.residual_topology(), placement.as_dict()
        )
        self._min_satisfaction = min_satisfaction
        self._cache = cache
        self._sessions: Dict[int, AdmittedSession] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @property
    def ledger(self) -> BandwidthLedger:
        return self._ledger

    def active_sessions(self) -> List[AdmittedSession]:
        with self._lock:
            return list(self._sessions.values())

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        content: ContentProfile,
        device: DeviceProfile,
        user: UserProfile,
        sender_node: str,
        receiver_node: str,
    ) -> Optional[AdmittedSession]:
        """Plan and admit one session, or return ``None`` on rejection.

        Rejection reasons: no feasible chain in the residual topology, or
        the achievable satisfaction falls below the operator's floor.
        Admission reserves the stream's bandwidth on every link of every
        hop's route; rejection reserves nothing.

        When the controller carries a plan cache, the planning phase is
        memoized under a fingerprint that embeds the ledger generation:
        identical requests against an unchanged reservation table reuse
        the cached selection, and any reserve/release in between forces a
        recompute against fresh residuals.
        """
        def compute() -> SelectionResult:
            graph = AdaptationGraphBuilder(self._catalog, self._placement).build(
                content=content,
                device=device,
                sender_node=sender_node,
                receiver_node=receiver_node,
            )
            return QoSPathSelector.for_user(
                graph,
                self._registry,
                self._parameters,
                user,
                record_trace=False,
            ).run()

        if self._cache is None:
            result = compute()
        else:
            # Imported lazily: repro.planner.batch imports runtime modules.
            from repro.planner.fingerprint import fingerprint_request

            fingerprint = fingerprint_request(
                user=user,
                content=content,
                device=device,
                sender_node=sender_node,
                receiver_node=receiver_node,
                catalog=self._catalog,
                placement=self._base_placement,
                ledger=self._ledger,
                record_trace=False,
            )
            result = self._cache.get_or_compute(fingerprint, compute)
        if not result.success:
            return None
        if result.satisfaction < self._min_satisfaction:
            return None

        reservations = self._reserve_chain(result, sender_node, receiver_node)
        if reservations is None:
            return None
        with self._lock:
            session = AdmittedSession(
                session_id=next(self._ids),
                result=result,
                reservations=tuple(reservations),
            )
            self._sessions[session.session_id] = session
        return session

    def _reserve_chain(
        self,
        result: SelectionResult,
        sender_node: str,
        receiver_node: str,
    ) -> Optional[List[Reservation]]:
        """Reserve each hop's bandwidth along its residual-widest route.

        The plan was computed against the residual topology, so each hop's
        requirement fits its route; reservation failures can still occur
        when two hops of the *same* chain share a link — in that case the
        partial reservations are rolled back and the session rejected.
        Each hop routes over the live residual, which already holds the
        hops before it.
        """
        config = result.configuration
        assert config is not None  # guaranteed by result.success
        placement = self._placement
        taken: List[Reservation] = []
        for source, target, fmt_name in zip(
            result.path, result.path[1:], result.formats
        ):
            source_node = self._node_for(source, placement, sender_node, receiver_node)
            target_node = self._node_for(target, placement, sender_node, receiver_node)
            if source_node == target_node:
                route: List[str] = [source_node]
            else:
                found = placement.topology.widest_path(source_node, target_node)
                if found is None:
                    for reservation in taken:
                        self._ledger.release(reservation)
                    return None
                route = found
            requirement = config.required_bandwidth(self._registry.get(fmt_name))
            try:
                taken.append(
                    self._ledger.reserve(
                        route, requirement, label=f"{source}->{target}"
                    )
                )
            except ValidationError:
                for reservation in taken:
                    self._ledger.release(reservation)
                return None
        return taken

    @staticmethod
    def _node_for(
        service_id: str,
        placement: ServicePlacement,
        sender_node: str,
        receiver_node: str,
    ) -> str:
        # The endpoints are per-session (not in the shared placement).
        if service_id == "sender":
            return sender_node
        if service_id == "receiver":
            return receiver_node
        return placement.node_of(service_id)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def teardown(self, session_id: int) -> None:
        """Release a session's reservations."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise ValidationError(f"no active session {session_id}")
        for reservation in session.reservations:
            self._ledger.release(reservation)

    def teardown_all(self) -> int:
        """Release everything; returns how many sessions ended."""
        with self._lock:
            session_ids = list(self._sessions)
        for session_id in session_ids:
            self.teardown(session_id)
        return len(session_ids)
