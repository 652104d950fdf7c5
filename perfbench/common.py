"""Shared pieces: run sizing, operation records and the end-to-end summary."""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "MISS_LATENCY_MS",
    "P50_WINDOW_OPS",
    "CheckFailed",
    "Sizing",
    "OpLog",
    "Phase",
    "percentile",
    "windowed_median",
    "peak_rss_mb_self",
    "peak_rss_mb_of",
    "pin_to_one_cpu",
]

#: Latency recorded for a failed operation: a failure misses any latency
#: limit, so it is never dropped from the percentiles.  Equal to the
#: serve-hot client timeout.
MISS_LATENCY_MS = 2000.0

#: ``latency_p50_ms`` is the median of each window of this many consecutive
#: answers, averaged over the windows.  On a shared host the CPU's speed
#: can change every second or so, by up to half; a median over a whole
#: phase then reads the fast or the slow speed depending on which held
#: just over half the time, while an average of short-window medians
#: weighs the two by their time.
P50_WINDOW_OPS = 100


class CheckFailed(Exception):
    """An answer disagreed with its reference, or a run was not repeatable."""


@dataclass(frozen=True)
class Sizing:
    """How much work one timed phase does.

    A phase runs until ``seconds`` have passed *and* ``min_ops`` answers
    are in, so the p99 always has at least ten samples beyond it.
    ``quality_ops`` answers (a fixed prefix of the seeded stream) feed
    ``mean_satisfaction``, which therefore does not depend on timing.
    ``setups`` is how many times set-up is repeated for ``setup_s``
    (``sim-failover`` sets up once per execution instead).
    """

    seconds: float
    min_ops: int = 1000
    quality_ops: int = 512
    setups: int = 7

    def done(self, attempted: int, time_up: bool) -> bool:
        """Whether a phase that has attempted this many answers may stop."""
        return time_up and attempted >= max(self.min_ops, self.quality_ops)


@dataclass
class OpLog:
    """Per-operation outcomes of one timed phase.

    Failed operations stay in every latency figure, as misses.
    """

    latencies_ms: List[float] = field(default_factory=list)
    failures: int = 0
    #: Seconds the timed phase took (the sum of its timed windows).
    elapsed_s: float = 0.0
    quality: List[float] = field(default_factory=list)

    def ok(self, latency_ms: float) -> None:
        self.latencies_ms.append(latency_ms)

    def failed(self, latency_ms: float) -> None:
        self.failures += 1
        self.latencies_ms.append(max(latency_ms, MISS_LATENCY_MS))

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def throughput(self) -> float:
        """Answers completed per second of the timed phase."""
        return (self.attempted - self.failures) / self.elapsed_s

    def end_to_end(self, setup_s: List[float], peak_rss_mb: float) -> Dict[str, float]:
        """The end-to-end metrics of ``BENCHMARK.json`` (see its ``why``s)."""
        return {
            "throughput_ops": self.throughput,
            "latency_p50_ms": windowed_median(self.latencies_ms, P50_WINDOW_OPS),
            "latency_p99_ms": percentile(self.latencies_ms, 99.0),
            "success_frac": (self.attempted - self.failures) / self.attempted,
            "mean_satisfaction": (
                statistics.fmean(self.quality) if self.quality else 0.0
            ),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }


@dataclass
class Phase:
    """What one timed phase of a workload measured."""

    log: OpLog
    setup_s: List[float]
    peak_rss_mb: float
    #: Spans recorded while traced (empty otherwise).
    spans: list
    #: perf_counter_ns intervals that were timed; spans outside are set-up.
    windows: List[Tuple[int, int]]
    #: Human-readable lines printed ahead of the JSON result.
    notes: List[str]


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (the sample at rank ceil(pct% * n))."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed_median(values: List[float], window: int) -> float:
    """Mean of the medians of consecutive ``window``-sized slices.

    A trailing partial slice is left out; fewer values than one window
    give their plain median.
    """
    slices = [
        values[start:start + window]
        for start in range(0, len(values) - window + 1, window)
    ] or [values]
    return statistics.fmean(statistics.median(part) for part in slices)


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU.

    On the two-vCPU virtual machine the benchmark was defined on, a client
    and a daemon on CPUs of their own made serve-hot bimodal: whenever one
    side waits, its vCPU halts, and waking it costs whatever the host takes
    to run it again (over ten runs p99 read 3.2-3.7 ms on some and
    4.7-8.2 ms on others, IQR/median 0.45).  On one CPU the two take
    turns and the CPU does not halt between them.  serve-hot prints each
    side's share of that CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
