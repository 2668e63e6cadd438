import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztrv import NonceRegistry
from ztrv.registry import PER_ENTRY_BYTES, SWEEP_INTERVAL_MS


class ReferenceRegistry:
    """Brute-force oracle: a plain dict with the same stated semantics,
    including a full sweep once SWEEP_INTERVAL_MS has passed since the last,
    and every claim and sweep taken at the latest instant seen so far."""

    def __init__(self):
        self.entries = {}
        self.last_sweep = None
        self.high_water = None

    def advance(self, now):
        if self.high_water is not None:
            now = max(now, self.high_water)
        self.high_water = now
        return now

    def consume_once(self, key, now, ttl, last_fresh=None):
        now = self.advance(now)
        if self.last_sweep is None:
            self.last_sweep = now
        elif now - self.last_sweep >= SWEEP_INTERVAL_MS:
            self.sweep(now)
        current = self.entries.get(key)
        if current is not None and current > now:
            return False
        if last_fresh is not None and now > last_fresh:
            return None
        self.entries[key] = now + ttl
        return True

    def sweep(self, now):
        now = self.advance(now)
        dead = [k for k, exp in self.entries.items() if exp <= now]
        for k in dead:
            del self.entries[k]
        self.last_sweep = now
        return len(dead)

    def live(self, now):
        return {k for k, exp in self.entries.items() if exp > now}


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
    # "b" at 2,000 sweeps "a"; a claim of "a" dated 1,050, when the swept
    # entry was still live, is taken at 2,000 and lives until 2,100
    reg = NonceRegistry()
    assert reg.consume_once("a", 1_000, 100)
    assert reg.consume_once("b", 2_000, 100)
    assert "a" not in reg._expiry
    assert reg.consume_once("a", 1_050, 100) is True
    assert reg._expiry["a"] == 2_100
    assert reg.consume_once("a", 2_099, 100) is False


def test_claim_past_last_fresh_is_refused_and_claims_nothing():
    reg = NonceRegistry()
    assert reg.consume_once("a", 1_000, 100, 1_000)
    assert reg.consume_once("b", 2_000, 100, 2_000)
    assert reg.consume_once("a", 1_050, 100, 1_100) is None
    assert set(reg._expiry) == {"b"}
    # fresh at the high-water time: claimed there
    assert reg.consume_once("a", 1_050, 100, 2_000) is True
    assert reg._expiry["a"] == 2_100


def test_live_claim_is_a_replay_whatever_last_fresh_says():
    reg = NonceRegistry()
    assert reg.consume_once("k", 0, 1_000, 0)
    assert reg.consume_once("k", 500, 1_000, 0) is False


def test_sweep_raises_the_high_water_time():
    reg = NonceRegistry()
    assert reg.consume_once("k", 0, 1_000)
    assert reg.sweep(5_000) == 1
    assert reg.consume_once("k", 100, 1_000, 4_000) is None
    assert reg.consume_once("k", 100, 1_000, 5_000) is True
    assert reg._expiry["k"] == 6_000


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2_000),
       st.lists(st.tuples(st.integers(-300, 300), st.integers(0, 15),
                          st.one_of(st.none(), st.integers(-500, 500)),
                          st.booleans()),
                max_size=150))
def test_one_ttl_matches_reference_for_any_time_order(ttl, ops):
    # times that go back as well as forward, claims with and without a last
    # fresh instant, explicit sweeps among them: claims are taken in time
    # order all the same, so with one TTL even eviction is exact
    reg = NonceRegistry()
    ref = ReferenceRegistry()
    now = 10_000
    for step, (dt, k, fresh_for, sweep) in enumerate(ops):
        now += dt
        if sweep:
            assert reg.sweep(now) == ref.sweep(now), f"step {step}"
        else:
            last_fresh = None if fresh_for is None else now + fresh_for
            assert (reg.consume_once(f"k{k}", now, ttl, last_fresh)
                    == ref.consume_once(f"k{k}", now, ttl, last_fresh)), \
                f"step {step}"
        assert reg._expiry == ref.entries, f"step {step}"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_empty_registry():
    assert NonceRegistry().sweep(now=100) == 0


def test_sweep_removes_all_expired():
    reg = NonceRegistry()
    for k in ("a", "b", "c"):
        reg.consume_once(k, now=0, ttl_ms=5_000)
    assert reg.sweep(now=6_000) == 3
    assert len(reg) == 0
    assert reg.stats().evicted_total == 3


def test_sweep_partial():
    reg = NonceRegistry()
    reg.consume_once("old", now=0, ttl_ms=60_000)
    reg.consume_once("new", now=50_000, ttl_ms=60_000)
    assert reg.sweep(now=61_000) == 1
    assert len(reg) == 1
    assert reg.consume_once("new", now=61_000, ttl_ms=60_000) is False


def test_sweep_completeness():
    # one TTL, non-decreasing time: after sweep(now), no entry has expiry <= now
    reg = NonceRegistry()
    rng = random.Random(3)
    now = 0
    for i in range(500):
        now += rng.randrange(0, 40)
        reg.consume_once(f"k{i}", now=now, ttl_ms=2_000)
    reg.sweep(now=now - 1_000)
    assert all(exp > now - 1_000 for exp in reg._expiry.values())
    assert len(reg) < 500


def test_reclaimed_entry_survives_sweep_past_its_old_expiry():
    # expire, reclaim with later expiry, then sweep past the old expiry
    reg = NonceRegistry()
    assert reg.consume_once("k", now=0, ttl_ms=1_000)
    assert reg.consume_once("k", now=1_000, ttl_ms=60_000)  # reclaim
    reg.sweep(now=1_500)
    assert reg.consume_once("k", now=2_000, ttl_ms=60_000) is False


def test_sweep_stops_at_live_front_entry_expired_one_behind_stays_absent():
    # mixed TTLs: the sweep stops at the first live entry in claim order
    reg = NonceRegistry()
    assert reg.consume_once("long", now=0, ttl_ms=10_000)
    assert reg.consume_once("short", now=0, ttl_ms=100)
    assert reg.sweep(now=1_000) == 0
    assert len(reg) == 2  # "short" is expired but still stored
    assert reg.consume_once("short", now=1_000, ttl_ms=100) is True
    assert reg.stats().evicted_total == 1
    assert reg.consume_once("short", now=1_050, ttl_ms=100) is False
    assert reg.sweep(now=20_000) == 2
    assert len(reg) == 0


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


def test_peak_never_decreases_across_sweep():
    reg = NonceRegistry()
    for i in range(10):
        reg.consume_once(f"k{i}", now=0, ttl_ms=1_000)
    before = reg.stats().peak_count
    reg.sweep(now=5_000)
    assert reg.stats().live_count == 0
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
    # mixed TTLs, non-decreasing time, automatic sweeps: every decision and
    # the set of unexpired keys equal the oracle's
    reg = NonceRegistry()
    ref = ReferenceRegistry()
    now = 0
    for step, (dt, k, ttl) in enumerate(ops):
        now += dt
        key = f"k{k}"
        assert (reg.consume_once(key, now, ttl)
                == ref.consume_once(key, now, ttl)), f"step {step}"
        live = {name for name, exp in reg._expiry.items() if exp > now}
        assert live == ref.live(now), f"step {step}"


@pytest.mark.parametrize("ttl", [1, 150, 700, 2_000])
def test_one_ttl_matches_reference_sweeps_and_keys(ttl):
    rng = random.Random(20260815 + ttl)
    reg = NonceRegistry()
    ref = ReferenceRegistry()
    now = 0
    keys = [f"k{i}" for i in range(40)]
    for step in range(5_000):
        now += rng.randrange(0, 200)
        if rng.random() < 0.85:
            key = rng.choice(keys)
            assert (reg.consume_once(key, now, ttl)
                    == ref.consume_once(key, now, ttl)), f"step {step}"
        else:
            assert reg.sweep(now) == ref.sweep(now), f"step {step}"
    assert reg.sweep(now) == ref.sweep(now)
    assert set(reg._expiry) == set(ref.entries)
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
    # at the high-water time, so with one TTL the stored expiries stay in
    # claim order, which a lost update of that time would break
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
    expiries = list(reg._expiry.values())
    assert expiries == sorted(expiries)


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

def test_memory_bound_under_sustained_insertion():
    # live_count <= rate x min(ttl, duration) x 1.05 given frequent sweeps
    rate, duration_s, ttl_s = 1_000, 10, 5
    reg = NonceRegistry()
    peak_seen = 0
    next_sweep = 100
    for i in range(rate * duration_s):
        now = int(i * 1000 / rate)
        while now >= next_sweep:
            reg.sweep(next_sweep)
            next_sweep += 100
        reg.consume_once(f"n{i}", now, ttl_s * 1000)
        peak_seen = max(peak_seen, reg.stats().live_count)
    bound = rate * min(ttl_s, duration_s) * 1.05
    assert peak_seen <= bound, (peak_seen, bound)
    assert reg.stats().peak_count <= bound
