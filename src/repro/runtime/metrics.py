"""Delivery metrics: what the receiver actually experienced.

A :class:`DeliveryReport` aggregates one simulated streaming session: the
configuration delivered, the user's satisfaction with it, startup latency,
sustained throughput, frame statistics under loss and bandwidth
fluctuation, and the money spent.  Produced by
:class:`~repro.runtime.pipeline.DeliveryPipeline`; consumed by examples,
integration tests, and the E12 bench.

A :class:`PlannerReport` is the planning-side counterpart: one batch-plan
run's throughput plus the cache counters behind it.  Produced by the
``plan-batch`` CLI command and the batch-planner bench.

Every metrics producer in the repo — :class:`PlannerReport`, the
simulator's :class:`~repro.sim.report.SimReport`, and the serving
gateway's ``/metrics`` endpoint — exports through one envelope,
:func:`metrics_document`: a schema-version field, a section name, and the
payload with keys sorted recursively, so downstream scrapers parse one
stable JSON shape instead of three ad-hoc dicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.configuration import Configuration
from repro.errors import ValidationError

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "metrics_document",
    "metrics_json",
    "Histogram",
    "merge_histogram_dicts",
    "DeliveryReport",
    "PlannerReport",
]

#: Version tag stamped on every exported metrics document.  Bump only on
#: incompatible shape changes; adding keys is backward compatible.
METRICS_SCHEMA_VERSION = "repro.metrics/1"


def _sorted_payload(value: Any) -> Any:
    """Recursively sort mapping keys so serialization order is canonical."""
    if isinstance(value, Mapping):
        return {key: _sorted_payload(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_sorted_payload(item) for item in value]
    return value


def metrics_document(section: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Wrap a metrics payload in the repo-wide export envelope.

    The result is JSON-ready: ``schema`` identifies the envelope version,
    ``section`` names the producer (``"planner"``, ``"sim"``,
    ``"gateway"``), and ``metrics`` holds the payload with keys sorted
    recursively.
    """
    return {
        "schema": METRICS_SCHEMA_VERSION,
        "section": section,
        "metrics": _sorted_payload(payload),
    }


def metrics_json(section: str, payload: Mapping[str, Any]) -> str:
    """:func:`metrics_document` rendered as canonical (sorted-key) JSON."""
    return json.dumps(metrics_document(section, payload), indent=2, sort_keys=True)


class Histogram:
    """A fixed-bucket histogram with an implicit overflow bucket.

    This is the latency/satisfaction histogram behind the gateway's
    ``/metrics`` endpoint and the cluster supervisor's merged view.  It
    lives here (not in :mod:`repro.serve`) because merging exported
    histograms is a metrics-envelope concern: the supervisor aggregates
    worker documents it received as JSON, so :meth:`from_dict` /
    :meth:`merge` must round-trip exactly through :meth:`to_dict`.

    ``merge`` is associative and bucket-exact: merging histograms with
    identical bounds sums counts per bucket (including overflow), the
    observation count, and the running sum — merging any partition of an
    observation stream therefore reproduces the histogram of the whole
    stream bit-for-bit, regardless of how the stream was split or the
    order the parts were merged in.
    """

    __slots__ = ("_bounds", "_counts", "_count", "_sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValidationError("histogram bounds must be sorted and non-empty")
        self._bounds = tuple(float(b) for b in bounds)
        self._counts: List[int] = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                self._counts[i] += 1
                break
        else:
            self._counts[-1] += 1
        self._count += 1
        self._sum += value

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the q-quantile (0 < q <= 1).

        Overflow observations report the last finite bound — a floor on
        the true value, which is the conservative direction for "p99 under
        deadline" style assertions by consumers that know the bounds.
        """
        if not 0.0 < q <= 1.0:
            raise ValidationError("quantile must lie in (0, 1]")
        if self._count == 0:
            return 0.0
        target = q * self._count
        cumulative = 0
        for i, bound in enumerate(self._bounds):
            cumulative += self._counts[i]
            if cumulative >= target:
                return bound
        return self._bounds[-1]

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both operands' observations.

        Bucket-exact: the operands must carry *identical* bounds —
        rebucketing would silently corrupt quantiles, so a mismatch is a
        :class:`~repro.errors.ValidationError`, never an approximation.
        """
        if not isinstance(other, Histogram):
            raise ValidationError(
                f"cannot merge Histogram with {type(other).__name__}"
            )
        if self._bounds != other._bounds:
            raise ValidationError(
                f"histogram bounds differ: {self._bounds} vs {other._bounds}"
            )
        merged = Histogram(self._bounds)
        merged._counts = [
            a + b for a, b in zip(self._counts, other._counts)
        ]
        merged._count = self._count + other._count
        merged._sum = self._sum + other._sum
        return merged

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from its :meth:`to_dict` export.

        This is how the cluster supervisor reconstitutes each worker's
        histograms from the JSON it fetched over the private metrics
        port; the parallel-array shape is validated strictly.
        """
        if not isinstance(data, Mapping):
            raise ValidationError("histogram document must be a mapping")
        bounds = data.get("bounds")
        counts = data.get("counts")
        if not isinstance(bounds, Sequence) or isinstance(bounds, (str, bytes)):
            raise ValidationError("histogram 'bounds' must be a sequence")
        if not isinstance(counts, Sequence) or isinstance(counts, (str, bytes)):
            raise ValidationError("histogram 'counts' must be a sequence")
        histogram = cls(bounds)
        if len(counts) != len(histogram._counts):
            raise ValidationError(
                f"histogram carries {len(counts)} buckets for "
                f"{len(bounds)} bounds (expected {len(bounds) + 1})"
            )
        for value in counts:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(
                    f"histogram counts must be non-negative ints, got {value!r}"
                )
        histogram._counts = list(counts)
        total = data.get("count", sum(counts))
        if not isinstance(total, int) or total != sum(counts):
            raise ValidationError(
                f"histogram 'count' {total!r} disagrees with bucket sum "
                f"{sum(counts)}"
            )
        histogram._count = total
        raw_sum = data.get("sum", 0.0)
        if not isinstance(raw_sum, (int, float)) or isinstance(raw_sum, bool):
            raise ValidationError("histogram 'sum' must be a number")
        histogram._sum = float(raw_sum)
        return histogram

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self._bounds),
            "counts": list(self._counts),
            "count": self._count,
            "sum": round(self._sum, 6),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        # Bucket contents are exact; the running sum is float arithmetic,
        # where addition order matters in the last bits — compare it with
        # a relative tolerance.
        return (
            self._bounds == other._bounds
            and self._counts == other._counts
            and self._count == other._count
            and abs(self._sum - other._sum)
            <= 1e-9 * max(1.0, abs(self._sum), abs(other._sum))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(bounds={self._bounds}, count={self._count}, "
            f"sum={self._sum:.3f})"
        )


def merge_histogram_dicts(
    documents: Sequence[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Merge exported histogram dicts bucket-wise (for JSON aggregators).

    Accepts one or more :meth:`Histogram.to_dict` payloads with identical
    bounds and returns the merged export.  An empty sequence is a
    :class:`~repro.errors.ValidationError` — the caller must know the
    bounds to report an empty histogram.
    """
    if not documents:
        raise ValidationError("cannot merge zero histogram documents")
    merged = Histogram.from_dict(documents[0])
    for document in documents[1:]:
        merged = merged.merge(Histogram.from_dict(document))
    return merged.to_dict()


@dataclass(frozen=True)
class DeliveryReport:
    """Aggregate outcome of one streamed session."""

    #: Service ids along the executed chain, sender first.
    path: Tuple[str, ...]
    #: The configuration the receiver rendered.
    configuration: Configuration
    #: The user's satisfaction with that configuration (Equation 1).
    satisfaction: float
    #: Time until the first frame reached the receiver (seconds).
    startup_latency_s: float
    #: Total simulated stream duration (seconds).
    duration_s: float
    #: Frames handed to the chain by the sender.
    frames_sent: int
    #: Frames that survived loss and bandwidth dips to reach the receiver.
    frames_delivered: int
    #: Average delivered frame rate over the session (fps).
    average_frame_rate: float
    #: Standard deviation of per-second delivered frame counts (jitter
    #: proxy).
    frame_rate_jitter: float
    #: Money spent: service costs plus transmission costs.
    total_cost: float
    #: Aggregate CPU work performed by the transcoders (MIPS·seconds).
    cpu_mips_seconds: float

    @property
    def loss_fraction(self) -> float:
        """Fraction of sent frames that never arrived."""
        if self.frames_sent == 0:
            return 0.0
        return 1.0 - self.frames_delivered / self.frames_sent

    def summary(self) -> str:
        """A compact human-readable report."""
        lines = [
            f"path:              {','.join(self.path)}",
            f"satisfaction:      {self.satisfaction:.4f}",
            f"delivered config:  {self.configuration!r}",
            f"startup latency:   {self.startup_latency_s * 1000:.1f} ms",
            f"avg frame rate:    {self.average_frame_rate:.2f} fps "
            f"(jitter {self.frame_rate_jitter:.2f})",
            f"frames:            {self.frames_delivered}/{self.frames_sent} "
            f"delivered ({self.loss_fraction * 100:.1f}% lost)",
            f"total cost:        {self.total_cost:.2f}",
            f"cpu work:          {self.cpu_mips_seconds:.1f} MIPS*s",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class PlannerReport:
    """Aggregate outcome of one batch-planning run."""

    #: Sessions planned in the batch.
    sessions: int
    #: Plans that came out feasible (selection succeeded).
    successes: int
    #: Cache lookups served from memory.
    cache_hits: int
    #: Cache lookups that had to compute.
    cache_misses: int
    #: Entries dropped by cache clears, which only reclaim memory (plans
    #: are keyed on content, so no entry goes stale).
    invalidations: int
    #: Entries dropped by the LRU bound.
    evictions: int
    #: Wall-clock time for the batch (seconds).
    elapsed_s: float
    #: Optimize() invocations across every planned session (0 when the
    #: planner did not report them).
    optimize_calls: int = 0
    #: Optimize() invocations served from the shared memo.
    optimize_memo_hits: int = 0
    #: Selector settle rounds summed over the batch's planned sessions.
    settle_rounds: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none ran)."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def optimize_memo_hit_rate(self) -> float:
        """Fraction of optimize() calls served from the memo."""
        if self.optimize_calls == 0:
            return 0.0
        return self.optimize_memo_hits / self.optimize_calls

    @property
    def throughput_per_s(self) -> float:
        """Sessions planned per wall-clock second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.sessions / self.elapsed_s

    def summary(self) -> str:
        """A compact human-readable report."""
        lines = [
            f"sessions:          {self.sessions} "
            f"({self.successes} feasible)",
            f"elapsed:           {self.elapsed_s * 1000:.1f} ms "
            f"({self.throughput_per_s:.0f} plans/s)",
            f"cache hits:        {self.cache_hits} "
            f"({self.hit_rate * 100:.1f}% hit rate)",
            f"cache misses:      {self.cache_misses}",
            f"invalidations:     {self.invalidations}",
            f"evictions:         {self.evictions}",
        ]
        if self.optimize_calls:
            lines.append(
                f"optimize calls:    {self.optimize_calls} "
                f"({self.optimize_memo_hit_rate * 100:.1f}% memoized)"
            )
        if self.settle_rounds:
            lines.append(f"settle rounds:     {self.settle_rounds}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """This report in the repo-wide metrics envelope."""
        return metrics_document(
            "planner",
            {
                "sessions": self.sessions,
                "successes": self.successes,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "hit_rate": self.hit_rate,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "elapsed_s": self.elapsed_s,
                "throughput_per_s": self.throughput_per_s,
                "optimize_calls": self.optimize_calls,
                "optimize_memo_hits": self.optimize_memo_hits,
                "optimize_memo_hit_rate": self.optimize_memo_hit_rate,
                "settle_rounds": self.settle_rounds,
            },
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
