"""Workload shaping for batch-planner benchmarks and stress tests.

A realistic arrival stream is many sessions drawn from a *small* set of
device classes — one proxy serves thousands of clients, but the clients
cluster into a handful of handset models.  :func:`synthetic_requests`
models that: ``n_distinct`` device variants (distinct fingerprints) cycled
over ``n_sessions`` arrivals, so a plan cache sees ``n_distinct`` misses
and ``n_sessions - n_distinct`` hits.
"""

from __future__ import annotations

from typing import List

from repro.errors import ValidationError
from repro.planner.batch import PlanRequest
from repro.profiles.device import DeviceProfile
from repro.workloads.scenario import Scenario

__all__ = ["device_variants", "synthetic_requests"]


def device_variants(base: DeviceProfile, n_distinct: int) -> List[DeviceProfile]:
    """``n_distinct`` devices derived from ``base``, each a distinct class.

    Variant ``i`` keeps the base decoders but identifies as a different
    model with a slightly different frame-rate ceiling, so every variant
    fingerprints differently while staying plannable.
    """
    if n_distinct < 1:
        raise ValidationError("n_distinct must be >= 1")
    variants: List[DeviceProfile] = []
    for i in range(n_distinct):
        frame_cap = base.max_frame_rate
        if frame_cap is not None:
            frame_cap = max(1.0, frame_cap - float(i % 8))
        variants.append(
            DeviceProfile(
                device_id=f"{base.device_id}-v{i}",
                decoders=base.decoders,
                max_resolution=base.max_resolution,
                max_color_depth=base.max_color_depth,
                max_frame_rate=frame_cap,
                max_audio_kbps=base.max_audio_kbps,
                cpu_mips=base.cpu_mips,
                memory_mb=base.memory_mb,
                vendor=base.vendor,
                model=f"{base.model or base.device_id}-class{i}",
                attributes=base.attributes,
            )
        )
    return variants


def synthetic_requests(
    scenario: Scenario,
    n_sessions: int,
    n_distinct: int,
) -> List[PlanRequest]:
    """An arrival stream of ``n_sessions`` over ``n_distinct`` device classes.

    Round-robin over the variants, so every class appears equally often and
    cache hits are ``n_sessions - n_distinct`` under a stable topology.
    """
    variants = device_variants(scenario.device, n_distinct)
    return [scenario.request(variants[i % n_distinct]) for i in range(n_sessions)]
