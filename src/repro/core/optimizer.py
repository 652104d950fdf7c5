"""Per-service configuration choice: the ``Optimize(...)`` step of Figure 4.

For every candidate trans-coding service the selection algorithm "selects
the QoS parameter values x_i that optimize the satisfaction function in
Equa. 2, subject only to the constraint [of the] remaining user's budget and
the bandwidth availability that connects Ti to Tprev" (Section 4.4).

The feasible region for a candidate reached over edge ``(Tprev → Ti)`` in
format ``f`` is:

- **quality monotonicity** — every parameter is bounded above by the value
  the upstream service achieved (transcoders only reduce quality);
- **service capability** — every parameter is bounded above by the
  service's advertised output cap;
- **parameter domains** — values must be feasible (discrete sets snap down);
- **bandwidth** (Equation 2) — ``bandwidth_requirement(x_1..x_n) <=
  Bandwidth_AvailableBetween(Ti, Tprev)``, evaluated in the edge format's
  compression model.

(The budget constraint is configuration-independent, so the *selector*
checks it; see :mod:`repro.core.selection`.)

Because every satisfaction function is monotone non-decreasing and the
bandwidth requirement is monotone increasing in every parameter, the
unconstrained optimum is simply "everything at its upper bound"; only when
that violates Equation 2 is there a real trade-off.  The paper does not
specify how `Optimize` resolves it; we implement a deterministic four-phase
strategy (documented in DESIGN.md):

1. **Free reductions** — parameters the user has *no* satisfaction function
   for are reduced first (toward their domain minimum, exact single-
   parameter inversion), in the user's degrade-first policy order: they
   cost bandwidth but buy no satisfaction.
2. **Quality-ray bisection** — preference parameters are reduced jointly
   along the ray from their domain minima to their upper bounds; bandwidth
   is monotone along the ray, so the largest feasible ray position is found
   by bisection.
3. **Greedy polish** — leftover bandwidth (from discrete snapping) is spent
   by raising parameters one at a time, *last-to-degrade first*, using
   exact single-parameter inversion.
4. **Discrete exchange** — bounded hill-climbing that steps discrete
   preference parameters up past large domain gaps, re-fitting the
   continuous ones; catches the corners a proportional ray cannot reach
   (cross-validated against grid search in the tests and bench E14).

For a single preference parameter (the paper's worked example) this
degenerates to the exact closed-form inversion, e.g. the largest frame rate
the link can carry.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.configuration import Configuration, fits_within, required_bandwidth_of
from repro.core.parameters import DiscreteDomain, ParameterSet
from repro.core.satisfaction import CombinedSatisfaction
from repro.errors import UnknownParameterError, ValidationError
from repro.formats.format import MediaFormat

__all__ = [
    "OptimizationConstraints",
    "OptimizedChoice",
    "OptimizeMemoStats",
    "OptimizeMemo",
    "ConfigurationOptimizer",
    "caps_key",
]

#: Bisection iterations for the quality-ray phase; 2^-60 of the parameter
#: range is far below any displayed precision.
_BISECTION_STEPS = 60


@dataclass(frozen=True)
class OptimizationConstraints:
    """The feasible region for one candidate service.

    ``upstream`` is the configuration achieved by the parent service (the
    quality ceiling); ``caps`` are the candidate's output capabilities;
    ``fmt`` and ``bandwidth_bps`` describe the edge the stream must cross.
    """

    upstream: Configuration
    caps: Mapping[str, float]
    fmt: MediaFormat
    bandwidth_bps: float


def caps_key(caps: Mapping[str, float]) -> Tuple:
    """The caps part of an :class:`OptimizeMemo` key; the format part is
    :meth:`MediaFormat.cache_key`.

    A selector run asks for the same service's caps and the same edge
    format many times, so it builds both once per vertex and per format
    and hands them to :meth:`ConfigurationOptimizer.optimize`.
    """
    return tuple(sorted(caps.items()))


@dataclass(frozen=True)
class OptimizedChoice:
    """The optimizer's answer for one candidate."""

    configuration: Configuration
    satisfaction: float
    required_bandwidth_bps: float


@dataclass(frozen=True)
class OptimizeMemoStats:
    """One consistent snapshot of the optimize-memo counters.

    ``entries`` is the memo's size in the unit its bound counts (see
    :class:`OptimizeMemo`).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when none ran)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class _MemoEntry:
    """Everything the memo knows for one (context, upstream, caps, format).

    ``ceiling`` is the answer at the configuration ceiling (upstream capped
    by the caps), ``None`` when no feasible value exists at all.  ``below``
    holds the answers for bandwidths that cannot carry the ceiling, keyed
    by the exact bandwidth.
    """

    __slots__ = ("ceiling", "below")

    def __init__(self, ceiling: Optional[OptimizedChoice]) -> None:
        self.ceiling = ceiling
        self.below: Dict[float, Optional[OptimizedChoice]] = {}

    def carries(self, bandwidth_bps: float) -> bool:
        """Whether the ceiling answer is the answer at ``bandwidth_bps``.

        With no feasible ceiling every bandwidth answers ``None``; otherwise
        the ceiling is the answer exactly when it satisfies Equation 2
        (the :meth:`Configuration.fits_bandwidth` test).
        """
        ceiling = self.ceiling
        return ceiling is None or fits_within(
            ceiling.required_bandwidth_bps, bandwidth_bps
        )

    @property
    def weight(self) -> int:
        return max(1, len(self.below))


class OptimizeMemo:
    """A bounded, thread-safe memo of :meth:`ConfigurationOptimizer.optimize`
    results.

    ``optimize()`` is a pure function of the constraint tuple *and* of the
    optimizer's own identity (parameter domains, satisfaction functions,
    degrade order).  Entries are keyed by an interned fingerprint over the
    identity and every constraint *except the bandwidth*: the answer does
    not depend on the bandwidth whenever the link carries the ceiling
    configuration, and residual bandwidths move with every booking.  Each
    entry stores the ceiling answer, which serves every bandwidth that
    carries it, plus the answers for the bandwidths below it.  That makes
    one memo safely shareable across every selector run of a
    :class:`~repro.planner.batch.BatchPlanner`: two sessions for different
    users never collide (different context fingerprints), while sessions
    over the same infrastructure reuse each other's solved relaxations —
    including negative results (``None`` — "this edge cannot carry the
    stream" — is memoized too).

    Every :meth:`lookup` counts as exactly one hit or one miss.  The LRU
    bound counts an entry as ``max(1, answers below its ceiling)``, so
    memory stays flat under open-ended traffic; eviction only costs
    recomputation, never correctness.
    """

    _MISS = object()

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValidationError("OptimizeMemo needs max_entries >= 1")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, _MemoEntry]" = OrderedDict()
        self._weight = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def max_entries(self) -> int:
        return self._max_entries

    def lookup(self, key: Tuple, bandwidth_bps: float) -> object:
        """The memoized result for ``key`` at ``bandwidth_bps``, or the
        :attr:`_MISS` sentinel.

        The sentinel (exposed via :meth:`is_miss`) distinguishes "never
        solved" from the legitimately memoized ``None`` result.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry.carries(bandwidth_bps):
                    answer = entry.ceiling
                else:
                    answer = entry.below.get(bandwidth_bps, self._MISS)
                if answer is not self._MISS:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return answer
            self._misses += 1
            return self._MISS

    @classmethod
    def is_miss(cls, value: object) -> bool:
        return value is cls._MISS

    def store(
        self,
        key: Tuple,
        ceiling: Optional[OptimizedChoice],
        bandwidth_bps: float,
        choice: Optional[OptimizedChoice],
    ) -> None:
        """Record ``choice``, the answer at ``bandwidth_bps``, under ``key``.

        ``ceiling`` is the key's ceiling answer; it is kept from the first
        store of the key.  ``choice`` is kept only when the bandwidth
        cannot carry the ceiling (otherwise it *is* the ceiling answer).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _MemoEntry(ceiling)
                self._weight += 1
            else:
                self._entries.move_to_end(key)
            if not entry.carries(bandwidth_bps) and bandwidth_bps not in entry.below:
                self._weight -= entry.weight
                entry.below[bandwidth_bps] = choice
                self._weight += entry.weight
            while self._weight > self._max_entries:
                _, evicted = self._entries.popitem(last=False)
                self._weight -= evicted.weight
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._weight = 0

    @property
    def stats(self) -> OptimizeMemoStats:
        with self._lock:
            return OptimizeMemoStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=self._weight,
            )

    def __len__(self) -> int:
        """The memo's size in the unit :attr:`max_entries` bounds."""
        with self._lock:
            return self._weight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self.stats
        return (
            f"OptimizeMemo(entries={snapshot.entries}/{self._max_entries}, "
            f"hits={snapshot.hits}, misses={snapshot.misses})"
        )


class ConfigurationOptimizer:
    """Maximizes user satisfaction inside an :class:`OptimizationConstraints`
    region."""

    def __init__(
        self,
        parameters: ParameterSet,
        satisfaction: CombinedSatisfaction,
        degrade_order: Optional[Sequence[str]] = None,
        memo: Optional[OptimizeMemo] = None,
    ) -> None:
        self._parameters = parameters
        self._satisfaction = satisfaction
        #: First-to-degrade-first ordering over parameter names; parameters
        #: not listed are degraded before listed ones (no stated preference
        #: means no objection).
        self._degrade_order = list(degrade_order or [])
        self._memo = memo
        self._context_key: Optional[Tuple] = None
        #: Per-instance counters (one optimizer serves one selector run, so
        #: these need no locking; the shared memo keeps its own).
        self.optimize_calls = 0
        self.memo_hits = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def optimize(
        self,
        constraints: OptimizationConstraints,
        key_parts: Optional[Tuple[Tuple, Tuple]] = None,
    ) -> Optional[OptimizedChoice]:
        """Best feasible configuration, or ``None`` when nothing fits.

        ``None`` means even every parameter at its domain minimum exceeds
        the link bandwidth — the edge is unusable for this stream.  With a
        memo attached, a constraint tuple solved before (by *any* optimizer
        sharing the memo and this optimizer's context fingerprint) returns
        the stored answer without re-running the four phases, and so does
        any bandwidth that carries the ceiling of an (upstream, caps,
        format) solved before at some other bandwidth.  ``key_parts`` is
        the constraints' (:func:`caps_key`, format ``cache_key()``), when
        the caller has already built them.
        """
        self.optimize_calls += 1
        if self._memo is None:
            return self._optimize_fresh(constraints)
        key = self._memo_key(constraints, key_parts)
        bandwidth = constraints.bandwidth_bps
        cached = self._memo.lookup(key, bandwidth)
        if not OptimizeMemo.is_miss(cached):
            self.memo_hits += 1
            return cached  # type: ignore[return-value]
        upper = self._upper_bounds(constraints)
        if upper is None:
            self._memo.store(key, None, bandwidth, None)
            return None
        fmt = constraints.fmt
        ceiling = self._choice(Configuration(upper), fmt)
        if fits_within(ceiling.required_bandwidth_bps, bandwidth):
            choice: Optional[OptimizedChoice] = ceiling
        else:
            choice = self._optimize_below_ceiling(upper, fmt, bandwidth)
        self._memo.store(key, ceiling, bandwidth, choice)
        return choice

    def _optimize_fresh(
        self, constraints: OptimizationConstraints
    ) -> Optional[OptimizedChoice]:
        upper = self._upper_bounds(constraints)
        if upper is None:
            return None
        fmt, bandwidth = constraints.fmt, constraints.bandwidth_bps
        config = Configuration(upper)
        if config.fits_bandwidth(fmt, bandwidth):
            return self._choice(config, fmt)
        return self._optimize_below_ceiling(upper, fmt, bandwidth)

    def _optimize_below_ceiling(
        self, upper: Dict[str, float], fmt: MediaFormat, bandwidth: float
    ) -> Optional[OptimizedChoice]:
        """The four phases, for a bandwidth that cannot carry ``upper``."""
        lower = self._lower_bounds(upper)
        floor_config = Configuration(lower)
        if not floor_config.fits_bandwidth(fmt, bandwidth):
            return None

        config = self._reduce_free_parameters(upper, lower, fmt, bandwidth)
        if not config.fits_bandwidth(fmt, bandwidth):
            config = self._ray_bisection(config, lower, fmt, bandwidth)
        config = self._polish(config, upper, fmt, bandwidth)
        config = self._discrete_exchange(config, upper, lower, fmt, bandwidth)
        return self._choice(config, fmt)

    def evaluate(self, configuration: Configuration) -> float:
        """Total satisfaction of a configuration (ignores constraints);
        see :meth:`CombinedSatisfaction.score`."""
        return self._satisfaction.score(configuration)

    # ------------------------------------------------------------------
    # Memo fingerprints
    # ------------------------------------------------------------------
    def _memo_key(
        self,
        constraints: OptimizationConstraints,
        key_parts: Optional[Tuple[Tuple, Tuple]],
    ) -> Tuple:
        """An interned fingerprint of (optimizer identity, constraints),
        without the bandwidth (see :class:`OptimizeMemo`).

        The context part is computed once per optimizer and reused for
        every call — the expensive satisfaction/domain keys are never
        rebuilt on the hot path.
        """
        if self._context_key is None:
            self._context_key = self._build_context_key()
        if key_parts is None:
            key_parts = (caps_key(constraints.caps), constraints.fmt.cache_key())
        return (self._context_key, constraints.upstream.items_key(), *key_parts)

    def _build_context_key(self) -> Tuple:
        parameter_key = []
        for name in self._parameters.names():
            domain = self._parameters[name].domain
            if isinstance(domain, DiscreteDomain):
                parameter_key.append((name, "discrete", tuple(domain.values)))
            else:
                parameter_key.append(
                    (name, "continuous", domain.minimum, domain.maximum)
                )
        return (
            tuple(parameter_key),
            self._satisfaction.cache_key(),
            tuple(self._degrade_order),
        )

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def _upper_bounds(
        self, constraints: OptimizationConstraints
    ) -> Optional[Dict[str, float]]:
        """Per-parameter ceilings: min(upstream, cap), snapped to the domain.

        Returns ``None`` when some ceiling falls below the parameter's
        domain minimum (no feasible value exists at all).
        """
        upper: Dict[str, float] = {}
        for name, upstream_value in constraints.upstream.items():
            if name not in self._parameters:
                raise UnknownParameterError(name)
            ceiling = min(upstream_value, constraints.caps.get(name, math.inf))
            snapped = self._parameters[name].clamp_down(ceiling)
            if snapped is None:
                return None
            upper[name] = snapped
        return upper

    def _lower_bounds(self, upper: Mapping[str, float]) -> Dict[str, float]:
        """Domain minima (never above the upper bound)."""
        return {
            name: min(self._parameters[name].minimum, bound)
            for name, bound in upper.items()
        }

    def _ordered(self, names: Sequence[str]) -> List[str]:
        """``names`` sorted first-to-degrade-first.

        Unlisted parameters come first (degrading them was never objected
        to), then listed ones by policy order.
        """
        listed = {name: index for index, name in enumerate(self._degrade_order)}
        return sorted(names, key=lambda n: listed.get(n, -1))

    # ------------------------------------------------------------------
    # Phase 1: free reductions
    # ------------------------------------------------------------------
    def _reduce_free_parameters(
        self,
        upper: Mapping[str, float],
        lower: Mapping[str, float],
        fmt: MediaFormat,
        bandwidth: float,
    ) -> Configuration:
        """Reduce no-preference parameters first; they buy pure bandwidth."""
        preference = set(self._satisfaction.parameter_names())
        free = self._ordered([n for n in upper if n not in preference])
        config = Configuration(upper)
        for name in free:
            if config.fits_bandwidth(fmt, bandwidth):
                break
            best_fit = self._fit_single(config, name, fmt, bandwidth)
            target = max(lower[name], best_fit)
            snapped = self._parameters[name].clamp_down(target)
            if snapped is None:
                snapped = lower[name]
            config = config.with_value(name, max(lower[name], min(snapped, upper[name])))
        return config

    # ------------------------------------------------------------------
    # Phase 2: quality-ray bisection
    # ------------------------------------------------------------------
    def _ray_bisection(
        self,
        start: Configuration,
        lower: Mapping[str, float],
        fmt: MediaFormat,
        bandwidth: float,
    ) -> Configuration:
        """Largest feasible point on the ray lower → start.

        Only preference parameters move; free parameters already sit where
        phase 1 left them.
        """
        preference = set(self._satisfaction.parameter_names())
        moving = [n for n in start if n in preference]

        def at(t: float) -> Dict[str, float]:
            # Plain values, floated as Configuration() would: the 60 probes
            # need only Equation 2, not a validated configuration each.
            values = start.as_dict()
            for name in moving:
                raw = lower[name] + t * (start[name] - lower[name])
                snapped = self._parameters[name].clamp_down(raw)
                values[name] = float(lower[name] if snapped is None else snapped)
            return values

        low_t, high_t = 0.0, 1.0
        if not fits_within(required_bandwidth_of(at(0.0), fmt), bandwidth):
            # Even the floor does not fit with the free parameters as they
            # are; push them to their lower bounds too and retry from there.
            values = start.as_dict()
            for name in start:
                if name not in preference:
                    values[name] = lower[name]
            start = Configuration(values)
            if not fits_within(required_bandwidth_of(at(0.0), fmt), bandwidth):
                return Configuration(at(0.0))
        for _ in range(_BISECTION_STEPS):
            mid = (low_t + high_t) / 2.0
            if fits_within(required_bandwidth_of(at(mid), fmt), bandwidth):
                low_t = mid
            else:
                high_t = mid
        return Configuration(at(low_t))

    # ------------------------------------------------------------------
    # Phase 3: greedy polish
    # ------------------------------------------------------------------
    def _polish(
        self,
        config: Configuration,
        upper: Mapping[str, float],
        fmt: MediaFormat,
        bandwidth: float,
    ) -> Configuration:
        """Spend leftover bandwidth, most-valued parameter first."""
        preference = set(self._satisfaction.parameter_names())
        last_to_degrade_first = list(
            reversed(self._ordered([n for n in config if n in preference]))
        )
        for name in last_to_degrade_first:
            if config[name] >= upper[name]:
                continue
            best_fit = self._fit_single(config, name, fmt, bandwidth)
            raised = min(upper[name], best_fit)
            snapped = self._parameters[name].clamp_down(raised)
            if snapped is not None and snapped > config[name]:
                config = config.with_value(name, snapped)
        return config

    # ------------------------------------------------------------------
    # Phase 4: discrete exchange
    # ------------------------------------------------------------------
    def _discrete_exchange(
        self,
        config: Configuration,
        upper: Mapping[str, float],
        lower: Mapping[str, float],
        fmt: MediaFormat,
        bandwidth: float,
    ) -> Configuration:
        """Trade continuous headroom for higher discrete values.

        The proportional quality ray can get stuck below a large discrete
        step (e.g. resolution 500 → 1000 pixels): stepping the discrete
        parameter up while *re-fitting* the continuous ones may raise the
        combined satisfaction.  This phase tries every feasible higher
        value of every discrete preference parameter, shrinking the other
        preference parameters (first-to-degrade first) to restore
        Equation 2, and keeps strict improvements.  A few sweeps suffice —
        each sweep only ever raises discrete values.
        """
        preference = [
            name
            for name in config
            if name in set(self._satisfaction.parameter_names())
        ]
        best = config
        best_score = self.evaluate(config)
        for _ in range(4):  # bounded hill-climbing sweeps
            improved = False
            for name in preference:
                domain = self._parameters[name].domain
                if not isinstance(domain, DiscreteDomain):
                    continue
                for value in domain.values:
                    if value <= best[name] or value > upper[name]:
                        continue
                    candidate = self._refit_around(
                        best.with_value(name, value),
                        pinned=name,
                        preference=preference,
                        upper=upper,
                        lower=lower,
                        fmt=fmt,
                        bandwidth=bandwidth,
                    )
                    if candidate is None:
                        continue
                    score = self.evaluate(candidate)
                    if score > best_score + 1e-12:
                        best, best_score = candidate, score
                        improved = True
            if not improved:
                break
        return best

    def _refit_around(
        self,
        candidate: Configuration,
        pinned: str,
        preference: Sequence[str],
        upper: Mapping[str, float],
        lower: Mapping[str, float],
        fmt: MediaFormat,
        bandwidth: float,
    ) -> Optional[Configuration]:
        """Shrink non-pinned preference parameters until Equation 2 holds.

        Returns ``None`` when the candidate cannot be made to fit even
        with every other preference parameter at its lower bound.
        """
        if candidate.fits_bandwidth(fmt, bandwidth):
            return self._polish_except(candidate, pinned, upper, fmt, bandwidth)
        for other in self._ordered([p for p in preference if p != pinned]):
            fit = self._fit_single(candidate, other, fmt, bandwidth)
            target = min(candidate[other], max(lower[other], fit))
            snapped = self._parameters[other].clamp_down(target)
            if snapped is None:
                snapped = lower[other]
            candidate = candidate.with_value(other, max(lower[other], snapped))
            if candidate.fits_bandwidth(fmt, bandwidth):
                return self._polish_except(candidate, pinned, upper, fmt, bandwidth)
        return None

    def _polish_except(
        self,
        config: Configuration,
        pinned: str,
        upper: Mapping[str, float],
        fmt: MediaFormat,
        bandwidth: float,
    ) -> Configuration:
        """Polish, but leave the just-raised parameter where it is."""
        polished = self._polish(config, upper, fmt, bandwidth)
        if polished[pinned] != config[pinned]:
            polished = polished.with_value(pinned, config[pinned])
            if not polished.fits_bandwidth(fmt, bandwidth):
                return config
        return polished

    # ------------------------------------------------------------------
    # Exact single-parameter inversion
    # ------------------------------------------------------------------
    @staticmethod
    def _fit_single(
        config: Configuration,
        name: str,
        fmt: MediaFormat,
        bandwidth: float,
    ) -> float:
        """Largest value of one parameter fitting the bandwidth, others
        fixed.

        The bandwidth requirement is linear in each parameter individually
        (see :meth:`MediaFormat.required_bandwidth`), so the bound follows
        from two evaluations.  A parameter with no bandwidth effect (e.g.
        color depth of a pure-audio stream) is unbounded.
        """
        current = config[name]
        at_zero = config.with_value(name, 0.0).required_bandwidth(fmt)
        probe_value = current if current > 0 else 1.0
        at_probe = config.with_value(name, probe_value).required_bandwidth(fmt)
        slope = (at_probe - at_zero) / probe_value
        residual = bandwidth - at_zero
        if slope <= 0.0:
            return math.inf
        if residual <= 0.0:
            return 0.0
        return residual / slope

    # ------------------------------------------------------------------
    def _choice(self, config: Configuration, fmt: MediaFormat) -> OptimizedChoice:
        return OptimizedChoice(
            configuration=config,
            satisfaction=self.evaluate(config),
            required_bandwidth_bps=config.required_bandwidth(fmt),
        )
