import bisect
import gc
import hashlib
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztrv import NonceRegistry
from ztrv import registry as registry_module
from ztrv.registry import PER_ENTRY_BYTES


class ReferenceRegistry:
    """Brute-force oracle: a plain dict from key digest to expiry with the
    same stated semantics.  Every claim is taken at the latest instant seen
    so far, and first removes every entry expired by then.  Keys are
    digested with the mirrored registry's own keyed digest."""

    def __init__(self, mirrored):
        self.key_digest = mirrored.key_digest
        self.entries = {}
        self.high_water = None

    def consume_once(self, key, now, ttl, last_fresh=None):
        if self.high_water is not None:
            now = max(now, self.high_water)
        self.high_water = now
        for d in [d for d, exp in self.entries.items() if exp <= now]:
            del self.entries[d]
        digest = self.key_digest(key)
        if digest in self.entries:
            return False
        if last_fresh is not None and now > last_fresh:
            return None
        self.entries[digest] = now + ttl
        return True

    def live(self, now):
        return {d for d, exp in self.entries.items() if exp > now}


def expiry_of(reg, key):
    """The stored expiry of ``key``, None when no entry is stored."""
    return reg._records().get(reg.key_digest(key))


# ---------------------------------------------------------------------------
# basic semantics
# ---------------------------------------------------------------------------

def test_first_consume_on_empty_registry():
    reg = NonceRegistry()
    assert reg.consume_once("nonce:aa", now=0, ttl_ms=60_000) is True


def test_second_consume_within_window_fails():
    reg = NonceRegistry()
    assert reg.consume_once("k", now=0, ttl_ms=60_000)
    assert reg.consume_once("k", now=1_000, ttl_ms=60_000) is False


def test_consume_after_expiry_succeeds():
    reg = NonceRegistry()
    assert reg.consume_once("k", now=0, ttl_ms=60_000)
    assert reg.consume_once("k", now=61_000, ttl_ms=60_000) is True


def test_expiry_boundary_is_dead_at_exact_expiry():
    # expiry <= now counts as absent
    reg = NonceRegistry()
    assert reg.consume_once("k", now=0, ttl_ms=10_000)
    assert reg.consume_once("k", now=9_999, ttl_ms=10_000) is False
    assert reg.consume_once("k", now=10_000, ttl_ms=10_000) is True


def test_ttl_must_be_positive():
    reg = NonceRegistry()
    with pytest.raises(ValueError):
        reg.consume_once("k", now=0, ttl_ms=0)
    with pytest.raises(ValueError):
        reg.consume_once("k", now=0, ttl_ms=-5)


# ---------------------------------------------------------------------------
# high-water time and last fresh instant
# ---------------------------------------------------------------------------

def test_claim_dated_before_a_later_claim_is_taken_at_that_claim():
    # "b" at 2,000 evicts "a"; a claim of "a" dated 1,050, when the evicted
    # entry was still live, is taken at 2,000 and lives until 2,100
    reg = NonceRegistry()
    assert reg.consume_once("a", 1_000, 100)
    assert reg.consume_once("b", 2_000, 100)
    assert expiry_of(reg, "a") is None
    assert reg.consume_once("a", 1_050, 100) is True
    assert expiry_of(reg, "a") == 2_100
    assert reg.consume_once("a", 2_099, 100) is False


def test_claim_past_last_fresh_is_refused_and_claims_nothing():
    reg = NonceRegistry()
    assert reg.consume_once("a", 1_000, 100, 1_000)
    assert reg.consume_once("b", 2_000, 100, 2_000)
    assert reg.consume_once("a", 1_050, 100, 1_100) is None
    assert set(reg._records()) == {reg.key_digest("b")}
    # fresh at the high-water time: claimed there
    assert reg.consume_once("a", 1_050, 100, 2_000) is True
    assert expiry_of(reg, "a") == 2_100


def test_live_claim_is_a_replay_whatever_last_fresh_says():
    reg = NonceRegistry()
    assert reg.consume_once("k", 0, 1_000, 0)
    assert reg.consume_once("k", 500, 1_000, 0) is False


def test_claim_of_another_key_raises_the_high_water_time():
    reg = NonceRegistry()
    assert reg.consume_once("k", 0, 1_000)
    assert reg.consume_once("unused", 5_000, 1_000)
    assert expiry_of(reg, "k") is None and len(reg) == 1
    assert reg.consume_once("k", 100, 1_000, 4_000) is None
    assert reg.consume_once("k", 100, 1_000, 5_000) is True
    assert expiry_of(reg, "k") == 6_000


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2_000),
       st.lists(st.tuples(st.integers(-300, 300), st.integers(0, 15),
                          st.one_of(st.none(), st.integers(-500, 500)),
                          st.booleans()),
                max_size=150))
def test_one_ttl_matches_reference_for_any_time_order(ttl, ops):
    # times that go back as well as forward, claims with and without a last
    # fresh instant, claims of keys never seen before among them: claims are
    # taken in time order all the same, so with one TTL even eviction is exact
    reg = NonceRegistry()
    ref = ReferenceRegistry(reg)
    now = 10_000
    for step, (dt, k, fresh_for, unused) in enumerate(ops):
        now += dt
        key = f"unused{step}" if unused else f"k{k}"
        last_fresh = None if fresh_for is None else now + fresh_for
        assert (reg.consume_once(key, now, ttl, last_fresh)
                == ref.consume_once(key, now, ttl, last_fresh)), f"step {step}"
        assert reg._records() == ref.entries, f"step {step}"


# ---------------------------------------------------------------------------
# packed records
# ---------------------------------------------------------------------------

def test_keys_with_one_digest_act_as_one_key(monkeypatch):
    # a digest collision can only turn a first use into a replay: of any
    # keys sharing a digest, one claim wins per TTL
    reg = NonceRegistry()
    monkeypatch.setattr(reg, "key_digest", lambda key: b"\x5a" * 16)
    assert reg.consume_once("a", 0, 1_000) is True
    assert reg.consume_once("b", 1, 1_000) is False
    assert [reg.consume_once(k, 2, 1_000) for k in "abcd"] == [False] * 4
    assert reg.consume_once("b", 1_000, 1_000) is True
    assert reg.consume_once("a", 1_001, 1_000) is False
    assert len(reg) == 1


def test_digest_inside_another_record_is_not_a_hit(monkeypatch):
    # "y"'s digest is bytes 4..19 of "x"'s record (the end of "x"'s digest
    # and the start of its expiry), and both share a bucket
    x = bytes([0x11, 0x10, 2, 3, 0x11, 0x10]) + bytes(range(6, 16))
    y = x[4:] + (1_000).to_bytes(8, "big")[:4]
    assert (x + (1_000).to_bytes(8, "big")).find(y) == 4
    digests = {"x": x, "y": y}
    reg = NonceRegistry()
    monkeypatch.setattr(reg, "key_digest", digests.__getitem__)
    assert reg.consume_once("x", 0, 1_000) is True
    assert reg.consume_once("y", 1, 1_000) is True
    # the misaligned match comes first; the record behind it is still found
    assert reg.consume_once("y", 2, 1_000) is False
    assert reg.consume_once("x", 2, 1_000) is False
    assert reg._records() == {x: 1_000, y: 1_001}


def test_keys_aimed_at_one_bucket_of_the_unkeyed_digest_spread_out():
    # an issuer picks its nonces, so at ~4,096 hashes per key it can aim them
    # at one bucket of any digest it can compute; each claim would then scan
    # that bucket.  The registry's digest is keyed with a secret of its own,
    # so the aimed keys land in buckets at random
    keys = []
    i = 0
    while len(keys) < 256:
        key = f"nonce:{i:032x}"
        digest = hashlib.blake2b(key.encode(), digest_size=16).digest()
        if digest[0] == 0 and digest[1] < 16:  # top 12 bits: bucket 0
            keys.append(key)
        i += 1
    reg = NonceRegistry()
    assert all(reg.consume_once(key, 0, 1_000) for key in keys)
    fullest = max(len(bucket) for bucket in reg._buckets if bucket)
    assert fullest // 24 <= 8


def test_each_registry_keys_its_own_digest():
    a, b = NonceRegistry(), NonceRegistry()
    assert a.key_digest("nonce:k") == a.key_digest("nonce:k")
    assert a.key_digest("nonce:k") != b.key_digest("nonce:k")


def test_registry_keys_blake2b_once(monkeypatch):
    # a claim copies the keyed state instead of keying a new one; the digest
    # is still the 16-byte BLAKE2b of the key under the registry's secret
    secrets = []
    blake2b = registry_module.blake2b

    def counting_blake2b(*args, **kwargs):
        secrets.append(kwargs["key"])
        return blake2b(*args, **kwargs)

    monkeypatch.setattr(registry_module, "blake2b", counting_blake2b)
    reg = NonceRegistry()
    for i in range(100):
        assert reg.consume_once(f"nonce:{i}", i, 1_000) is True
    assert len(secrets) == 1
    assert reg.key_digest("nonce:7") == hashlib.blake2b(
        b"nonce:7", digest_size=16, key=secrets[0]).digest()


def test_eviction_touches_only_what_expired():
    reg = NonceRegistry()
    for i in range(1_000):
        assert reg.consume_once(f"k{i}", i, 10_000)
    buckets = [None if b is None else bytes(b) for b in reg._buckets]
    start = reg._ring_start
    # nothing has expired: only the claimed key's bucket changes
    assert reg.consume_once("new", 5_000, 10_000)
    digest = reg.key_digest("new")
    index = digest[0] << 4 | digest[1] >> 4
    for i, bucket in enumerate(reg._buckets):
        if i != index:
            assert (None if bucket is None else bytes(bucket)) == buckets[i]
    assert reg._ring_start == start
    assert reg.stats().evicted_total == 0
    # entries 0..5 expire by 10,005: the ring start moves past exactly them
    assert reg.consume_once("later", 10_005, 10_000)
    assert reg.stats().evicted_total == 6
    assert reg._ring_start == start + 6
    assert all(expiry_of(reg, f"k{i}") is None for i in range(6))
    assert expiry_of(reg, "k6") == 10_006


# ---------------------------------------------------------------------------
# eviction on every claim
# ---------------------------------------------------------------------------

def test_claim_evicts_all_expired():
    reg = NonceRegistry()
    for k in ("a", "b", "c"):
        reg.consume_once(k, now=0, ttl_ms=5_000)
    assert reg.consume_once("unused", now=6_000, ttl_ms=5_000)
    assert set(reg._records()) == {reg.key_digest("unused")}
    assert reg.stats().evicted_total == 3


def test_claim_evicts_only_expired():
    reg = NonceRegistry()
    reg.consume_once("old", now=0, ttl_ms=60_000)
    reg.consume_once("new", now=50_000, ttl_ms=60_000)
    assert reg.consume_once("unused", now=61_000, ttl_ms=60_000)
    assert expiry_of(reg, "old") is None and len(reg) == 2
    assert reg.consume_once("new", now=61_000, ttl_ms=60_000) is False


def test_eviction_completeness():
    # one TTL, non-decreasing time: after a claim at now, no entry has
    # expiry <= now
    reg = NonceRegistry()
    rng = random.Random(3)
    now = 0
    for i in range(500):
        now += rng.randrange(0, 40)
        reg.consume_once(f"k{i}", now=now, ttl_ms=2_000)
    assert all(exp > now for exp in reg._records().values())
    assert len(reg) < 500


def test_reclaimed_entry_survives_eviction_past_its_old_expiry():
    # expire, reclaim with later expiry, then evict past the old expiry
    reg = NonceRegistry()
    assert reg.consume_once("k", now=0, ttl_ms=1_000)
    assert reg.consume_once("k", now=1_000, ttl_ms=60_000)  # reclaim
    assert reg.consume_once("unused", now=1_500, ttl_ms=60_000)
    assert expiry_of(reg, "k") == 61_000
    assert reg.consume_once("k", now=2_000, ttl_ms=60_000) is False


def test_eviction_stops_at_live_front_entry_expired_one_behind_stays_absent():
    # mixed TTLs: eviction stops at the first live entry in claim order
    reg = NonceRegistry()
    assert reg.consume_once("long", now=0, ttl_ms=10_000)
    assert reg.consume_once("short", now=0, ttl_ms=100)
    assert reg.consume_once("unused", now=1_000, ttl_ms=10_000)
    assert len(reg) == 3  # "short" is expired but still stored
    assert expiry_of(reg, "short") == 100
    assert reg.consume_once("short", now=1_000, ttl_ms=100) is True
    assert reg.stats().evicted_total == 1
    assert reg.consume_once("short", now=1_050, ttl_ms=100) is False
    assert reg.consume_once("last", now=20_000, ttl_ms=100)
    assert set(reg._records()) == {reg.key_digest("last")}


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_fresh_registry_stats_all_zero():
    stats = NonceRegistry().stats()
    assert (stats.live_count, stats.peak_count, stats.evicted_total,
            stats.bytes_estimate) == (0, 0, 0, 0)


def test_stats_after_bulk_insert():
    reg = NonceRegistry()
    for i in range(100_000):
        assert reg.consume_once(f"nonce:{i:032x}", now=0, ttl_ms=10 ** 9)
    stats = reg.stats()
    assert stats.live_count == 100_000
    assert stats.peak_count == 100_000
    assert stats.bytes_estimate == 100_000 * PER_ENTRY_BYTES


def test_peak_never_decreases_across_eviction():
    reg = NonceRegistry()
    for i in range(10):
        reg.consume_once(f"k{i}", now=0, ttl_ms=1_000)
    before = reg.stats().peak_count
    reg.consume_once("unused", now=5_000, ttl_ms=1_000)
    assert reg.stats().live_count == 1
    assert reg.stats().peak_count == before == 10


def test_lazy_reclaim_counts_as_eviction():
    reg = NonceRegistry()
    reg.consume_once("k", now=0, ttl_ms=1_000)
    assert reg.consume_once("k", now=2_000, ttl_ms=1_000)
    assert reg.stats().evicted_total == 1


# ---------------------------------------------------------------------------
# reference-oracle equivalence
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 15),
                          st.integers(1, 2_000)), max_size=150))
def test_decisions_and_live_set_match_reference_for_any_ttls(ops):
    # mixed TTLs, non-decreasing time, eviction on every claim: every
    # decision and the set of unexpired keys equal the oracle's
    reg = NonceRegistry()
    ref = ReferenceRegistry(reg)
    now = 0
    for step, (dt, k, ttl) in enumerate(ops):
        now += dt
        key = f"k{k}"
        assert (reg.consume_once(key, now, ttl)
                == ref.consume_once(key, now, ttl)), f"step {step}"
        records = reg._records()
        live = {d for d, exp in records.items() if exp > now}
        assert live == ref.live(now), f"step {step}"
        assert len(reg) == len(records), f"step {step}"


@pytest.mark.parametrize("ttl", [1, 150, 700, 2_000])
def test_one_ttl_matches_reference_evictions_and_keys(ttl):
    rng = random.Random(20260815 + ttl)
    reg = NonceRegistry()
    ref = ReferenceRegistry(reg)
    now = 0
    keys = [f"k{i}" for i in range(40)]
    for step in range(5_000):
        now += rng.randrange(0, 200)
        key = rng.choice(keys) if rng.random() < 0.85 else f"unused{step}"
        assert (reg.consume_once(key, now, ttl)
                == ref.consume_once(key, now, ttl)), f"step {step}"
    assert reg._records() == ref.entries
    assert reg.stats().evicted_total > 0


def test_expiry_safety_against_oracle():
    # a true consume at t implies false at every probed t' in (t, t+ttl);
    # times never go backwards
    rng = random.Random(7)
    reg = NonceRegistry()
    t = 0
    for _ in range(200):
        key = f"k{rng.randrange(10 ** 9):x}"
        t += rng.randrange(0, 10_000)
        ttl = rng.randrange(1, 10_000)
        assert reg.consume_once(key, t, ttl)
        for probe in sorted(t + rng.randrange(1, ttl + 1) for _ in range(5)):
            if probe < t + ttl:
                assert reg.consume_once(key, probe, ttl) is False
        t += ttl
        assert reg.consume_once(key, t, ttl) is True


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_threads,trials", [(2, 300), (16, 100), (256, 15)])
def test_exactly_once_under_concurrency(n_threads, trials):
    rng = random.Random(n_threads)
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        for trial in range(trials):
            reg = NonceRegistry()
            barrier = threading.Barrier(n_threads)
            key = f"trial-{trial}"

            def attempt(jitter):
                barrier.wait()
                if jitter:
                    # widen the interleaving space a little
                    threading.Event().wait(jitter / 1e6)
                return reg.consume_once(key, now=1_000, ttl_ms=60_000)

            jitters = [rng.choice([0, 0, 1, 5, 20]) for _ in range(n_threads)]
            results = list(pool.map(attempt, jitters))
            assert sum(results) == 1, f"trial {trial}: {sum(results)} wins"


def test_concurrent_out_of_order_claims_keep_claim_order_expiry_order():
    # threads claim at instants that go back and forth; each claim is taken
    # at the high-water time, so with one TTL the ring stays in expiry
    # order, which a lost update of that time would break.  Eviction stops
    # at the first live ring entry, so out of order, some claim below would
    # leave an expired entry stored
    reg = NonceRegistry()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def claim_many(seed):
            rng = random.Random(seed)
            for i in range(2_000):
                reg.consume_once(f"t{seed}-{i}", rng.randrange(10_000), 1_000,
                                 20_000)

        threads = [threading.Thread(target=claim_many, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    expiries = sorted(reg._records().values())
    assert len(expiries) == len(reg) > 0
    # the stored expiries span at most one TTL, so every probe stays live
    for probes, instant in enumerate(expiries, 1):
        reg.consume_once(f"probe{probes}", instant, 1_000)
        assert len(reg) == (len(expiries) + probes
                            - bisect.bisect_right(expiries, instant))


def test_concurrent_mixed_keys_all_single_winner():
    reg = NonceRegistry()
    keys = [f"k{i}" for i in range(50)]
    wins = {k: 0 for k in keys}
    lock = threading.Lock()

    def hammer(seed):
        rng = random.Random(seed)
        for _ in range(400):
            k = rng.choice(keys)
            if reg.consume_once(k, now=0, ttl_ms=10 ** 9):
                with lock:
                    wins[k] += 1

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(count == 1 for count in wins.values())


# ---------------------------------------------------------------------------
# memory bound
# ---------------------------------------------------------------------------

def test_per_entry_bytes_matches_traced_memory_at_churn():
    # 200,000 claims churn through 100,000 live entries under one TTL: the
    # estimate is within 10% of what tracemalloc sees the registry hold, and
    # no resize makes the traced peak more than 10% above that steady state
    live, churn = 100_000, 200_000
    keys = [f"nonce:{i:032x}" for i in range(live + churn)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reg = NonceRegistry()
        for i, key in enumerate(keys):
            reg.consume_once(key, i, live)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held -= base
    peak -= base
    assert len(reg) == live
    assert abs(reg.stats().bytes_estimate - held) <= 0.1 * held, held / live
    assert peak <= 1.1 * held, (peak / live, held / live)


def test_memory_bound_under_sustained_insertion():
    # live_count <= rate x min(ttl, duration) x 1.05: every claim evicts
    rate, duration_s, ttl_s = 1_000, 10, 5
    reg = NonceRegistry()
    peak_seen = 0
    for i in range(rate * duration_s):
        now = int(i * 1000 / rate)
        reg.consume_once(f"n{i}", now, ttl_s * 1000)
        peak_seen = max(peak_seen, reg.stats().live_count)
    bound = rate * min(ttl_s, duration_s) * 1.05
    assert peak_seen <= bound, (peak_seen, bound)
    assert reg.stats().peak_count <= bound


def test_a_long_history_leaves_no_emptied_buckets_behind():
    # 18,000 claims at one per 50 ms under a 5,001 ms TTL leave 101 live
    # entries, after the history has touched every one of the 4,096
    # buckets.  Each bucket trimmed empty is freed: what stays is the bucket
    # list (32 KB of pointers), the ring and the live records, not ~260 KB
    # of emptied bytearrays.
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reg = NonceRegistry()
        for i in range(18_000):
            assert reg.consume_once(f"nonce:{i:032x}", i * 50, 5_001)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(reg) == 101
    assert sum(bucket is not None for bucket in reg._buckets) <= 101
    assert held < 64_000, held
