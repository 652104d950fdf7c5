"""Per-service failure detection and circuit breaking.

The gateway plans through a catalog snapshot that says nothing about
whether an adaptation service is actually delivering.  This module
closes that gap with three pieces:

- :class:`FailureDetector` — an EWMA over reported outcomes.  Each
  sample moves the failure estimate by ``f <- (1-ALPHA)*f + ALPHA*x``
  with ``x = 1`` for a failure.  The estimate is bounded, recency-
  weighted, and cheap: one multiply-add per report.
- :class:`CircuitBreaker` — a CLOSED -> OPEN -> HALF_OPEN state machine
  per service.  Only four transitions are legal (CLOSED->OPEN,
  OPEN->HALF_OPEN, HALF_OPEN->CLOSED, HALF_OPEN->OPEN); anything else
  is a programming error and raises.  Opening requires the EWMA to
  cross ``open_threshold`` *and* ``min_samples`` distinct reports, and
  closing requires :data:`PROBES_TO_CLOSE` consecutive probe successes.
  Adversarial alternating outcome streams cannot flap the breaker
  because ``open_threshold`` (0.7 by default) sits above the supremum
  an alternating stream drives the EWMA toward,
  ``ALPHA / (1 - (1 - ALPHA) ** 2)`` ~ 0.588.
- :class:`HealthRegistry` — the per-gateway collection: lazily creates
  a breaker per reported service, ticks OPEN breakers into HALF_OPEN
  when their cooldown expires, exposes the quarantine set the planner
  masks, and records every transition in a globally ordered trace whose
  SHA-256 digest is bit-identical for a fixed seed and outcome stream.

Everything is clock-agnostic: every mutating method takes ``now`` so
the same code runs against the gateway's event-loop clock and the
simulator's virtual time.  Cooldowns are jittered deterministically
from ``(seed, service_id, open_count)`` so two same-seed runs schedule
probes at identical offsets while distinct services never thunder in
herd.  Nothing here locks: each registry lives on one event loop (or
inside the single-threaded simulator).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ValidationError

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "FailureDetector",
    "HealthConfig",
    "HealthRegistry",
    "TransitionRecord",
    "open_majority",
]


class BreakerState(str, Enum):
    """Lifecycle of one service's breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: The only legal state changes.  There is deliberately no CLOSED ->
#: HALF_OPEN (nothing to probe back from) and no OPEN -> CLOSED (a
#: quarantined service must prove itself through probes first).
_LEGAL_TRANSITIONS: FrozenSet[Tuple[BreakerState, BreakerState]] = frozenset(
    {
        (BreakerState.CLOSED, BreakerState.OPEN),
        (BreakerState.OPEN, BreakerState.HALF_OPEN),
        (BreakerState.HALF_OPEN, BreakerState.CLOSED),
        (BreakerState.HALF_OPEN, BreakerState.OPEN),
    }
)


#: EWMA smoothing factor: weight of the newest outcome.
ALPHA = 0.3
#: Exclusive lower bound on ``HealthConfig.open_threshold``.  Only a
#: threshold above the alternation supremum (~0.588 at ``ALPHA``) keeps
#: an alternating outcome stream from opening the breaker; the default
#: 0.7 does.
OPEN_THRESHOLD_FLOOR = 0.35
#: Consecutive probe successes required to close.  Any failed probe
#: re-opens the breaker, so HALF_OPEN reaches its verdict within
#: ``PROBES_TO_CLOSE`` reports.
PROBES_TO_CLOSE = 3


@dataclass(frozen=True)
class HealthConfig:
    """Detector and breaker knobs, shared by every service's breaker."""

    #: EWMA failure estimate at or above which a CLOSED breaker opens.
    open_threshold: float = 0.7
    #: Reports required before the detector's estimate is trusted at
    #: all — a single failed first sample must not open the breaker.
    min_samples: int = 5
    #: Base quarantine after opening; the breaker turns HALF_OPEN once
    #: ``cooldown_s * (1 + jitter)`` has elapsed.
    cooldown_s: float = 1.0
    #: Upper bound of the deterministic jitter fraction drawn from
    #: ``(seed, service_id, open_count)``.
    cooldown_jitter: float = 0.5
    #: Seed for the cooldown jitter stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if not OPEN_THRESHOLD_FLOOR < self.open_threshold <= 1.0:
            raise ValidationError(
                f"open_threshold must lie in ({OPEN_THRESHOLD_FLOOR}, 1], "
                f"got {self.open_threshold}"
            )
        if self.min_samples < 1:
            raise ValidationError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.cooldown_s <= 0.0:
            raise ValidationError(
                f"cooldown_s must be positive, got {self.cooldown_s}"
            )
        if not 0.0 <= self.cooldown_jitter <= 1.0:
            raise ValidationError(
                f"cooldown_jitter must be in [0, 1], got {self.cooldown_jitter}"
            )


@dataclass(frozen=True)
class TransitionRecord:
    """One breaker state change, as it entered the global trace."""

    service_id: str
    old: str
    new: str
    at_s: float
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "service": self.service_id,
            "from": self.old,
            "to": self.new,
            "at_s": round(self.at_s, 6),
            "reason": self.reason,
        }


class FailureDetector:
    """EWMA failure estimator: 0 = always succeeding, 1 = always failing."""

    __slots__ = ("ewma", "samples")

    def __init__(self) -> None:
        self.ewma = 0.0
        self.samples = 0

    def update(self, success: bool) -> float:
        x = 0.0 if success else 1.0
        self.ewma = (1.0 - ALPHA) * self.ewma + ALPHA * x
        self.samples += 1
        return self.ewma

    def reset(self) -> None:
        self.ewma = 0.0
        self.samples = 0


class CircuitBreaker:
    """One service's CLOSED -> OPEN -> HALF_OPEN state machine."""

    __slots__ = (
        "service_id",
        "_config",
        "_detector",
        "_state",
        "_opens",
        "_open_until",
        "_probes_used",
        "_on_transition",
    )

    def __init__(
        self,
        service_id: str,
        config: HealthConfig,
        on_transition: Optional[Callable[[TransitionRecord], None]] = None,
    ) -> None:
        self.service_id = service_id
        self._config = config
        self._detector = FailureDetector()
        self._state = BreakerState.CLOSED
        self._opens = 0
        self._open_until = 0.0
        self._probes_used = 0
        self._on_transition = on_transition

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        return self._state

    @property
    def ewma(self) -> float:
        return self._detector.ewma

    @property
    def samples(self) -> int:
        return self._detector.samples

    @property
    def opens(self) -> int:
        return self._opens

    @property
    def probes_used(self) -> int:
        return self._probes_used

    @property
    def open_until(self) -> float:
        return self._open_until

    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """Advance time-driven transitions: OPEN -> HALF_OPEN on cooldown."""
        if self._state is BreakerState.OPEN and now >= self._open_until:
            self._probes_used = 0
            self._transition(
                BreakerState.HALF_OPEN, now, "cooldown elapsed"
            )

    def report(self, success: bool, now: float) -> None:
        """Feed one outcome sample at virtual/wall time ``now``."""
        self.tick(now)
        if self._state is BreakerState.CLOSED:
            ewma = self._detector.update(success)
            if (
                self._detector.samples >= self._config.min_samples
                and ewma >= self._config.open_threshold
            ):
                self._open(now, f"ewma {ewma:.3f} crossed threshold")
        elif self._state is BreakerState.HALF_OPEN:
            self._probes_used += 1
            # Probes still feed the detector: /health reports its estimate.
            self._detector.update(success)
            if not success:
                self._open(now, "probe failed")
                return
            # Every probe so far succeeded (a failure re-opens), so the
            # probes used are the success streak.
            if self._probes_used >= PROBES_TO_CLOSE:
                self._detector.reset()
                self._transition(
                    BreakerState.CLOSED, now, "probes recovered"
                )
        # OPEN: reports from straggling in-flight sessions are ignored —
        # the service is masked; only the cooldown earns it probes.

    def _open(self, now: float, reason: str) -> None:
        self._opens += 1
        jitter = random.Random(
            f"{self._config.seed}:{self.service_id}:{self._opens}"
        ).random()
        cooldown = self._config.cooldown_s * (
            1.0 + self._config.cooldown_jitter * jitter
        )
        self._open_until = now + cooldown
        self._transition(BreakerState.OPEN, now, reason)

    def _transition(
        self, new_state: BreakerState, now: float, reason: str
    ) -> None:
        if (self._state, new_state) not in _LEGAL_TRANSITIONS:
            raise RuntimeError(
                f"illegal breaker transition {self._state.value} -> "
                f"{new_state.value} for {self.service_id!r}"
            )
        record = TransitionRecord(
            service_id=self.service_id,
            old=self._state.value,
            new=new_state.value,
            at_s=now,
            reason=reason,
        )
        self._state = new_state
        if self._on_transition is not None:
            self._on_transition(record)

    # ------------------------------------------------------------------
    def force(self, target: BreakerState, now: float, reason: str) -> None:
        """Walk the legal transition path to ``target`` (remote applies).

        A peer's breaker verdict may arrive out of phase with this
        breaker's own history — e.g. the remote closed while we are
        still OPEN.  Rather than jump illegally, route through the
        intermediate states so the trace stays well-formed.
        """
        if self._state is target:
            return
        if target is BreakerState.OPEN:
            # From CLOSED too: trust the peer's verdict over local
            # sample count.
            self._open(now, reason)
        elif target is BreakerState.HALF_OPEN:
            if self._state is BreakerState.CLOSED:
                self._open(now, reason)
            self._probes_used = 0
            self._transition(BreakerState.HALF_OPEN, now, reason)
        else:  # CLOSED
            if self._state is BreakerState.OPEN:
                self._probes_used = 0
                self._transition(BreakerState.HALF_OPEN, now, reason)
            self._detector.reset()
            self._transition(BreakerState.CLOSED, now, reason)

    def snapshot(self) -> Dict[str, object]:
        return {
            "state": self._state.value,
            "ewma": round(self._detector.ewma, 6),
            "samples": self._detector.samples,
            "opens": self._opens,
            "probes_used": self._probes_used,
            "open_until_s": round(self._open_until, 6),
        }


class HealthRegistry:
    """Every service's breaker plus the globally ordered transition trace."""

    def __init__(
        self,
        config: Optional[HealthConfig] = None,
        on_transition: Optional[Callable[[TransitionRecord], None]] = None,
    ) -> None:
        self._config = config if config is not None else HealthConfig()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._transitions: List[TransitionRecord] = []
        self._generation = 0
        self._on_transition = on_transition
        self._suppress_callback = False

    # ------------------------------------------------------------------
    @property
    def config(self) -> HealthConfig:
        return self._config

    @property
    def generation(self) -> int:
        """Bumps on every transition; planners key snapshots off it."""
        return self._generation

    def breaker(self, service_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(service_id)
        if breaker is None:
            breaker = CircuitBreaker(
                service_id, self._config, self._record_transition
            )
            self._breakers[service_id] = breaker
        return breaker

    def tracked(self) -> Tuple[str, ...]:
        return tuple(sorted(self._breakers))

    def _record_transition(self, record: TransitionRecord) -> None:
        self._transitions.append(record)
        self._generation += 1
        if self._on_transition is not None and not self._suppress_callback:
            self._on_transition(record)

    # ------------------------------------------------------------------
    def report(self, service_id: str, success: bool, now: float) -> None:
        self.breaker(service_id).report(success, now)

    def apply_remote(
        self,
        service_id: str,
        state: str,
        now: float,
        reason: str = "remote",
    ) -> None:
        """Converge on a peer's breaker verdict without re-broadcasting."""
        try:
            target = BreakerState(state)
        except ValueError:
            raise ValidationError(f"unknown breaker state {state!r}") from None
        self._suppress_callback = True
        try:
            self.breaker(service_id).force(target, now, reason)
        finally:
            self._suppress_callback = False

    def quarantined(self, now: float) -> FrozenSet[str]:
        """OPEN services at ``now``, after ticking cooldowns forward."""
        for breaker in self._breakers.values():
            breaker.tick(now)
        return frozenset(
            service_id
            for service_id, breaker in self._breakers.items()
            if breaker.state is BreakerState.OPEN
        )

    def states(self, now: Optional[float] = None) -> Dict[str, BreakerState]:
        if now is not None:
            for breaker in self._breakers.values():
                breaker.tick(now)
        return {
            service_id: breaker.state
            for service_id, breaker in self._breakers.items()
        }

    def open_count(self, now: Optional[float] = None) -> int:
        return sum(
            1
            for state in self.states(now).values()
            if state is BreakerState.OPEN
        )

    # ------------------------------------------------------------------
    def transitions(self) -> Tuple[TransitionRecord, ...]:
        return tuple(self._transitions)

    def trace_digest(self) -> str:
        """SHA-256 over the ordered transition trace; seed-stable."""
        hasher = hashlib.sha256()
        for record in self._transitions:
            hasher.update(
                repr(
                    (
                        record.service_id,
                        record.old,
                        record.new,
                        round(record.at_s, 9),
                        record.reason,
                    )
                ).encode("utf-8")
            )
        return hasher.hexdigest()

    def snapshot(self, now: Optional[float] = None) -> Dict[str, object]:
        """The /health document body: per-service state plus the open set."""
        states = self.states(now)
        return {
            "generation": self._generation,
            "tracked": len(self._breakers),
            "open": sorted(
                service_id
                for service_id, state in states.items()
                if state is BreakerState.OPEN
            ),
            "half_open": sorted(
                service_id
                for service_id, state in states.items()
                if state is BreakerState.HALF_OPEN
            ),
            "services": {
                service_id: breaker.snapshot()
                for service_id, breaker in sorted(self._breakers.items())
            },
        }

    def summary(self) -> Dict[str, object]:
        """The sim-report section: snapshot plus the full trace."""
        document = self.snapshot()
        document["transitions"] = [
            record.to_dict() for record in self._transitions
        ]
        document["trace_digest"] = self.trace_digest()
        return document


def open_majority(states: Iterable[str]) -> Optional[str]:
    """The readiness verdict over breaker ``states`` (enum or wire string).

    More than half the tracked services quarantined means a gateway can
    mostly only degrade, so ``/readyz`` tells load balancers to route
    around it: returns the ``"k/n breakers open"`` detail of that 503, or
    ``None`` while the gateway is ready.
    """
    states = list(states)
    open_count = sum(1 for state in states if state == BreakerState.OPEN)
    if open_count * 2 > len(states):
        return f"{open_count}/{len(states)} breakers open"
    return None
