"""Device-class shard affinity: hints and their owners.

Plan-cache locality across a worker cluster comes from routing every
request of one *device class* to the same worker: the class dominates the
request fingerprint (the other profiles default to the serving
scenario's), so a worker that owns a class serves it from cache after the
first miss.  Two functions implement that:

- :func:`device_shard_hint` — a stable hex digest of the device profile's
  ``cache_key()``, the same component the plan fingerprint hashes.  The
  client computes it and sends it as the ``x-shard-hint`` header; a
  worker receiving a hinted request can tell whether it owns the shard
  (``shard_hits`` / ``shard_misses`` counters).
- :func:`shard_owner` — the worker id owning a hint in a cluster of N
  workers: a 64-bit SHA-256 prefix of the hint modulo N.  The worker
  count is fixed for a cluster's life (a crashed worker restarts under
  the same id), so the owner map never has to survive a resize.

Routing is *advisory*: a request that lands on the wrong worker (no hint,
worker restarting) is planned correctly there — the caches are simply
colder.  Correctness never depends on the owner map.
"""

from __future__ import annotations

import hashlib

from repro.errors import ValidationError
from repro.profiles.device import DeviceProfile

__all__ = [
    "SHARD_HINT_HEADER",
    "WORKER_ID_HEADER",
    "device_shard_hint",
    "shard_owner",
]

#: Request header carrying the client-computed shard hint.
SHARD_HINT_HEADER = "x-shard-hint"
#: Response header naming the worker that answered.
WORKER_ID_HEADER = "x-worker-id"


def device_shard_hint(device: DeviceProfile) -> str:
    """The shard hint for one device class.

    Derived from ``device.cache_key()`` — the exact device-class component
    of the plan fingerprint — so two devices that fingerprint identically
    always hint identically, and any profile difference that would change
    the plan-cache key also changes the hint.
    """
    digest = hashlib.sha256(repr(device.cache_key()).encode("utf-8"))
    return digest.hexdigest()[:16]


def shard_owner(hint: str, workers: int) -> int:
    """The worker id (``0..workers-1``) owning ``hint``.

    A pure function of the hint and the worker count, stable across
    processes, so the client that routes a request and the worker that
    meters it agree without exchanging any state.
    """
    if workers < 1:
        raise ValidationError("cluster needs at least one worker")
    point = int.from_bytes(
        hashlib.sha256(hint.encode("utf-8")).digest()[:8], "big"
    )
    return point % workers
