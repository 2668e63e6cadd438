"""Consume-once nonce registry with sliding expiration.

The registry is the replay barrier: ``consume_once`` atomically claims a key
for a TTL window, and any second claim inside the window fails.  Expired
entries count as absent.  All operations take the current time as an
argument so the registry runs on workload timestamps in simulations and on
the wall clock in the gateway, with identical behavior.

Entries live in one dict kept in claim order: a claim of a new or expired
key puts it at the end.  While claims share one TTL and their times never go
backwards, as the verifier's do, claim order is expiry order, so a sweep only
has to drop the expired prefix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

# Rough per-entry footprint (key string + dict slot) used for the memory
# estimate reported by stats(); it is an estimate, not an accounting.
PER_ENTRY_BYTES = 125

# Claims sweep the registry when this many ms have passed since the last sweep.
SWEEP_INTERVAL_MS = 250


@dataclass(frozen=True)
class RegistryStats:
    live_count: int
    peak_count: int
    evicted_total: int
    bytes_estimate: int


class NonceRegistry:
    """Thread-safe set-if-absent store keyed by nonce, expiring entries by TTL.

    Every decision is exact for any mix of TTLs and claim times: a lookup
    compares the stored expiry with ``now``.  Only removal depends on claim
    order.  A sweep stops at the first live entry, so with mixed TTLs or
    out-of-order times an expired entry claimed after a live one stays
    (counted in ``len`` and ``stats``, but absent to ``consume_once``) until
    a sweep reaches it.  With one TTL and non-decreasing times, eviction is
    exact.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._expiry: dict[str, int] = {}  # key -> expiry, in claim order
        self._peak = 0
        self._evicted = 0
        self._last_sweep: int | None = None

    def consume_once(self, key: str, now: int, ttl_ms: int) -> bool:
        """Claim ``key`` until ``now + ttl_ms``.

        Returns True iff the key was absent (or expired, i.e. expiry <= now).
        Check and insert happen under one lock, so exactly one of any set of
        racing claims for the same key wins.
        """
        if ttl_ms <= 0:
            raise ValueError("ttl_ms must be positive")
        with self._lock:
            if self._last_sweep is None:
                self._last_sweep = now
            elif now - self._last_sweep >= SWEEP_INTERVAL_MS:
                self._sweep_locked(now)
            entries = self._expiry
            current = entries.get(key)
            if current is not None:
                if current > now:
                    return False
                # expired entry: treat as absent and re-insert at the end
                del entries[key]
                self._evicted += 1
            entries[key] = now + ttl_ms
            if len(entries) > self._peak:
                self._peak = len(entries)
            return True

    def sweep(self, now: int) -> int:
        """Remove the expired prefix (expiry <= now) in claim order; returns
        how many entries were removed."""
        with self._lock:
            return self._sweep_locked(now)

    def stats(self) -> RegistryStats:
        with self._lock:
            live = len(self._expiry)
            return RegistryStats(
                live_count=live,
                peak_count=self._peak,
                evicted_total=self._evicted,
                bytes_estimate=live * PER_ENTRY_BYTES,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._expiry)

    def _sweep_locked(self, now: int) -> int:
        # Sweeps run in batches, not on every claim: iterating a dict from
        # the front walks the slots its deletions left behind, until the next
        # resize compacts them, so a per-claim sweep would cost O(live).
        entries = self._expiry
        dead = []
        for key, expiry in entries.items():
            if expiry > now:
                break
            dead.append(key)
        for key in dead:
            del entries[key]
        self._evicted += len(dead)
        self._last_sweep = now
        return len(dead)
