"""Unit tests for device-class shard hints and their owners.

Ownership is pure arithmetic — no processes, no sockets — so these tests
pin the properties the cluster leans on: determinism in the worker
count, an even spread, a hint function that tracks the device profile's
cache key exactly, and loadgen's refusal of a /cluster document whose
worker ids are not the ``0..N-1`` range owners are drawn from.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.planner.workload import device_variants
from repro.serve.loadgen import _worker_ports
from repro.serve.sharding import (
    SHARD_HINT_HEADER,
    WORKER_ID_HEADER,
    device_shard_hint,
    shard_owner,
)
from repro.workloads.synthetic import SyntheticConfig, generate_scenario

SCENARIO = generate_scenario(
    SyntheticConfig(seed=7, n_services=10, n_formats=6, n_nodes=6)
)


def _loads(workers, hints):
    return Counter(shard_owner(hint, workers) for hint in hints)


class TestDeviceShardHint:
    def test_stable_across_calls(self):
        assert device_shard_hint(SCENARIO.device) == device_shard_hint(
            SCENARIO.device
        )

    def test_distinct_device_classes_hint_distinctly(self):
        variants = device_variants(SCENARIO.device, 16)
        hints = {device_shard_hint(variant) for variant in variants}
        assert len(hints) == 16

    def test_tracks_the_cache_key(self):
        # Two profile objects with identical cache keys must produce
        # identical hints — the hint is a function of the fingerprint
        # component, not of object identity.
        variants_a = device_variants(SCENARIO.device, 4)
        variants_b = device_variants(SCENARIO.device, 4)
        for a, b in zip(variants_a, variants_b):
            assert a.cache_key() == b.cache_key()
            assert device_shard_hint(a) == device_shard_hint(b)

    def test_headers_are_lowercase_wire_safe(self):
        assert SHARD_HINT_HEADER == SHARD_HINT_HEADER.lower()
        assert WORKER_ID_HEADER == WORKER_ID_HEADER.lower()


class TestShardRouter:
    """Routing a hint to the worker that owns it (:func:`shard_owner`)."""

    def test_deterministic_in_the_worker_set(self):
        # Pinned owners: the client and every worker compute these in
        # separate processes, so the map must not depend on process state.
        owners = [shard_owner(f"device-{i}", 4) for i in range(12)]
        assert owners == [0, 0, 3, 3, 2, 1, 1, 3, 2, 0, 3, 1]

    def test_routes_within_the_worker_set(self):
        for i in range(200):
            assert shard_owner(f"hint-{i}", 3) in (0, 1, 2)

    def test_spread_is_roughly_even(self):
        counts = _loads(4, [f"device-{i}" for i in range(2000)])
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 400
        assert max(counts.values()) < 600

    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_owner_loads_stay_within_15_percent(self, workers):
        counts = _loads(workers, [f"device-{i}" for i in range(20_000)])
        assert set(counts) == set(range(workers))
        assert max(counts.values()) / min(counts.values()) <= 1.15

    def test_rejects_bad_construction(self):
        for workers in (0, -1):
            with pytest.raises(ValidationError):
                shard_owner("hint", workers)

    @given(
        workers=st.integers(min_value=1, max_value=8),
        hint=st.text(min_size=1, max_size=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_route_is_total_and_stable(self, workers, hint):
        owner = shard_owner(hint, workers)
        assert 0 <= owner < workers
        assert shard_owner(hint, workers) == owner


def _worker(worker_id, private_port=9000):
    return {"worker_id": worker_id, "private_port": private_port}


class TestClusterDocument:
    def test_reads_worker_count_and_private_ports(self):
        document = {"workers": [_worker(1, 9001), _worker(0, 9000)]}
        assert _worker_ports(document) == (2, {0: 9000, 1: 9001})

    def test_a_worker_without_a_private_port_still_counts(self):
        document = {"workers": [_worker(0), _worker(1, None)]}
        assert _worker_ports(document) == (2, {0: 9000})

    def test_loadgen_rejects_malformed_cluster_documents(self):
        malformed = [
            [],                                   # no workers
            "01",                                 # not a list
            None,                                 # missing
            [_worker("0"), _worker(1)],           # string id
            [_worker(0), _worker(True)],          # bool id
            [_worker(0), "worker-1"],             # entry not an object
            [_worker(0), _worker(2)],             # gap in 0..N-1
            [_worker(1), _worker(2)],             # not counted from 0
            [_worker(0), _worker(0)],             # duplicate id
            [_worker(0, None), _worker(1, None)], # no private port at all
        ]
        for workers in malformed:
            with pytest.raises(ValidationError):
                _worker_ports({"workers": workers})
