"""Consume-once nonce registry with sliding expiration.

The registry is the replay barrier: ``consume_once`` atomically claims a key
for a TTL window, and any second claim inside the window fails.  Expired
entries count as absent.  All operations take the current time as an
argument so the registry runs on workload timestamps in simulations and on
the wall clock in the gateway, with identical behavior.

The registry's time never goes backwards: it keeps the latest instant any
claim was given (the high-water time) and takes an earlier one as that.  A
claim whose caller read the clock before another thread's later claim
evicted the same key is thus taken at the later instant, when the evicted
entry had already expired, and a caller that names its last fresh instant
has such a claim refused instead of granted a second time.

Each entry is one 24-byte record: the 16-byte digest of its key and its
expiry as an 8-byte big-endian integer, the only place the expiry is kept.
The digest is a BLAKE2b keyed with a secret each registry draws from
``os.urandom``, the role SipHash's per-process key plays for a dict:
whoever picks keys (an issuer picks its nonces) cannot compute their
digests, so cannot aim them at one bucket and make every claim scan it.
Records are appended, in claim order, to one of 4,096 ``bytearray`` buckets
picked by the digest's top 12 bits; a lookup is a ``find`` of the digest in
its bucket that only counts a hit starting on a record boundary.  One
``array('H')`` ring holds the bucket id of each claim, in claim order, so
the k-th ring entry naming a bucket stands for that bucket's k-th record,
and the entries not yet popped count the stored records.  Before it looks a
key up, every claim pops the ring front while the front record of the
bucket it names has expired by the claim's instant, trimming that one
record per pop, and frees a bucket it trims empty, so that a registry's
memory follows its live entries rather than every bucket its history
touched.  That is O(expired) work, so it runs on every claim.  While
claims share one TTL, as the verifier's do, claim order is expiry order,
and the stored entries are exactly the live ones.

Two keys whose 128-bit digests are equal act as one key.  That can only
turn a first use into a replay (fail closed), at odds of about 2**-128 per
pair of keys, and never grants a key a second claim.
"""

from __future__ import annotations

import os
import struct
import threading
from array import array
from dataclasses import dataclass

# the blake2b that hashlib re-exports; importing hashlib would load OpenSSL
from _blake2 import blake2b

# Bytes tracemalloc sees per live entry in a registry churning at 100,000
# live entries under one TTL: the record, its ring entry, and the slack of
# the buckets and the ring (tests/test_registry.py checks it).
PER_ENTRY_BYTES = 33

_DIGEST_BYTES = 16
_RECORD = struct.Struct(">16sq")  # key digest, expiry
_RECORD_BYTES = _RECORD.size
# _expiry_at(bucket, at + _DIGEST_BYTES)[0]: the expiry of the record at `at`
_expiry_at = struct.Struct(">q").unpack_from
_BUCKET_BITS = 12

# Instants and TTLs below 2**50 ms (~35,700 years) keep a record's expiry
# within its signed 8 bytes; a claim past that raises before it stores
# anything.
MAX_TTL_MS = 1 << 50


@dataclass(frozen=True)
class RegistryStats:
    live_count: int
    peak_count: int
    evicted_total: int
    bytes_estimate: int


class NonceRegistry:
    """Thread-safe set-if-absent store keyed by nonce, expiring entries by TTL.

    Every decision is exact for any mix of TTLs: a lookup compares the
    stored expiry with the claim instant.  Only removal depends on claim
    order.  Eviction stops at the first ring entry whose record is live, so
    with mixed TTLs an expired entry claimed after a live one may stay
    (counted in ``len`` and ``stats``, but absent to ``consume_once``) until
    an eviction reaches it.  A claim that finds such an expired record gives
    it the new expiry in place and counts the old claim as evicted; until
    that record expires again, it can hold back eviction at its bucket's
    front.  With one TTL, neither happens and eviction is exact.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # keyed once; each digest starts from a copy of this state
        self._keyed = blake2b(digest_size=_DIGEST_BYTES, key=os.urandom(16))
        # records in claim order; a bucket is made by the claim that finds
        # it None, and set back to None once eviction trims it empty
        self._buckets: list[bytearray | None] = [None] * (1 << _BUCKET_BITS)
        # the bucket id of each stored record, in claim order, from
        # _ring_start on; the entries before it have been evicted
        self._ring = array("H")
        self._ring_start = 0
        self._peak = 0
        self._evicted = 0
        self._high_water: int | None = None

    def key_digest(self, key: str) -> bytes:
        """The 16 bytes this registry stores and looks up for ``key``."""
        state = self._keyed.copy()
        state.update(key.encode())
        return state.digest()

    def consume_once(self, key: str, now: int, ttl_ms: int,
                     last_fresh: int | None = None) -> bool | None:
        """Claim ``key`` at ``max(now, high-water time)`` for ``ttl_ms``.

        Returns True if the key was absent (or expired, i.e. expiry <= the
        claim instant) and is now claimed; False if a live claim holds it;
        None, claiming nothing, if it was free but the claim instant is past
        ``last_fresh``.  Check and insert happen under one lock, so exactly
        one of any set of racing claims for the same key wins.
        """
        if ttl_ms <= 0:
            raise ValueError("ttl_ms must be positive")
        digest = self.key_digest(key)
        index = digest[0] << 4 | digest[1] >> 4  # the top 12 bits
        with self._lock:
            # a claim dated before the high-water time is taken at that time
            if self._high_water is not None and now < self._high_water:
                now = self._high_water
            else:
                self._high_water = now
            self._evict_locked(now)
            bucket = self._buckets[index]
            at = -1 if bucket is None else bucket.find(digest)
            while at > 0 and at % _RECORD_BYTES:  # inside another record
                at = bucket.find(digest, at + 1)
            if at >= 0 and _expiry_at(bucket, at + _DIGEST_BYTES)[0] > now:
                return False
            if last_fresh is not None and now > last_fresh:
                return None
            # an expiry too large to store raises here, before anything is stored
            record = _RECORD.pack(digest, now + ttl_ms)
            if at >= 0:
                # expired but stored behind a live entry of a longer TTL:
                # the record takes the new expiry and keeps its ring entry
                bucket[at:at + _RECORD_BYTES] = record
                self._evicted += 1
                return True
            if bucket is None:
                bucket = self._buckets[index] = bytearray()
            bucket += record
            self._ring.append(index)
            live = len(self._ring) - self._ring_start
            if live > self._peak:
                self._peak = live
            return True

    def stats(self) -> RegistryStats:
        with self._lock:
            live = len(self._ring) - self._ring_start
            return RegistryStats(
                live_count=live,
                peak_count=self._peak,
                evicted_total=self._evicted,
                bytes_estimate=live * PER_ENTRY_BYTES,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring) - self._ring_start

    def _records(self) -> dict[bytes, int]:
        """Every stored entry as {key digest: expiry}; for tests."""
        with self._lock:
            return dict(_RECORD.iter_unpack(b"".join(
                bucket for bucket in self._buckets if bucket)))

    def _evict_locked(self, now: int) -> None:
        ring = self._ring
        buckets = self._buckets
        first = start = self._ring_start
        end = len(ring)
        # the ring front stands for the front record of the bucket it names
        while start < end:
            index = ring[start]
            bucket = buckets[index]
            if _expiry_at(bucket, _DIGEST_BYTES)[0] > now:
                break
            del bucket[:_RECORD_BYTES]
            if not bucket:
                # a bucket trimmed empty is freed, not kept at its peak size
                buckets[index] = None
            start += 1
        self._evicted += start - first
        # drop the evicted ring entries once they are an eighth of the ring:
        # each compaction moves at most 7 live entries per evicted one
        if start * 8 >= end:
            del ring[:start]
            start = 0
        self._ring_start = start
