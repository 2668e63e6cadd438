import dataclasses
import json
import math
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from ztrv import (
    ExecutionContext,
    IssuerKey,
    Keystore,
    Mode,
    NonceRegistry,
    Outcome,
    PaymentPayload,
    Reason,
    VerificationRequest,
    VerifierConfig,
    canonical_encode,
    verify,
)
from ztrv.registry import MAX_TTL_MS
from ztrv.verifier import STAGE_TIMINGS, Decision, admit, check, nonce_key

from conftest import T0

FULL = VerifierConfig(mode=Mode.FULL, window=60.0)


def fresh_registry():
    return NonceRegistry()


# ---------------------------------------------------------------------------
# pipeline outcomes
# ---------------------------------------------------------------------------

def test_valid_fresh_request_authorized(make_request, keystore):
    decision = verify(make_request(), T0 + 500, FULL, fresh_registry(), keystore)
    assert decision.outcome is Outcome.ACCEPT
    assert decision.reason is Reason.AUTHORIZED


def test_second_submission_is_replay(make_request, keystore):
    request = make_request()
    registry = fresh_registry()
    assert verify(request, T0 + 1, FULL, registry, keystore).accepted
    second = verify(request, T0 + 2, FULL, registry, keystore)
    assert second.outcome is Outcome.REJECT
    assert second.reason is Reason.REPLAY_DETECTED


@pytest.mark.parametrize("first, second", [("a", "a-alias"),
                                           ("a-alias", "a")])
def test_key_id_alias_replay_detected(make_request, issuer, first, second):
    # key_id is not signed, and one public key under two ids verifies under
    # either: consume-once must never be scoped by key_id
    keystore = Keystore({"a": issuer.public_key,
                         "a-alias": issuer.public_key})
    request = make_request()

    def naming(key_id):
        mandate = dataclasses.replace(request.mandate, key_id=key_id)
        return VerificationRequest(mandate, request.context)

    registry = fresh_registry()
    assert verify(naming(first), T0 + 1, FULL, registry, keystore).accepted
    replay = verify(naming(second), T0 + 2, FULL, registry, keystore)
    assert replay.reason is Reason.REPLAY_DETECTED


def test_one_issuer_cannot_burn_another_issuers_nonce(make_request, issuer):
    # B has seen A's mandate and signs one of its own with A's nonce
    other = IssuerKey.generate("other-issuer", rng=random.Random(0xB0B))
    keystore = Keystore.for_issuers(issuer, other)
    mine = make_request()
    nonce = mine.mandate.nonce
    theirs = make_request()
    m = dataclasses.replace(theirs.mandate, nonce=nonce, key_id=other.key_id)
    m = dataclasses.replace(m, signature=other.sign(canonical_encode(
        m.mandate_id, nonce, m.issued_at, m.context_hash, m.payload)))
    theirs = VerificationRequest(m, theirs.context)

    registry = fresh_registry()
    assert verify(theirs, T0 + 1, FULL, registry, keystore).accepted
    assert verify(mine, T0 + 2, FULL, registry, keystore).accepted
    for request in (theirs, mine):
        assert (verify(request, T0 + 3, FULL, registry, keystore).reason
                is Reason.REPLAY_DETECTED)


def test_admit_scopes_the_nonce_by_the_key_check_verified_with(
        make_request, issuer):
    # key_id is rebound to another key between check and admit: the nonce is
    # consumed under the key the signature was checked with, not the new one
    keystore = Keystore.for_issuers(issuer)
    request = make_request()
    reason, public_key, _ = check(request, keystore)
    assert (reason, public_key) == (None, issuer.public_key)
    other = IssuerKey.generate(issuer.key_id, rng=random.Random(0xB0B))
    keystore.add(issuer.key_id, other.public_key)
    registry = fresh_registry()
    reason, _, _ = admit(request, public_key, T0 + 1, FULL, registry)
    assert reason is Reason.AUTHORIZED
    assert list(registry._records()) == [
        registry.key_digest(nonce_key(issuer.public_key,
                                      request.mandate.nonce))]


@pytest.mark.parametrize("key_id", ["test-issuer", "unknown"])
def test_check_names_the_key_it_checked_under(make_request, issuer, key_id):
    # a bad signature under a known key names that key; an unknown key_id
    # and a malformed request name none
    keystore = Keystore.for_issuers(issuer)
    request = make_request()
    bad = VerificationRequest(dataclasses.replace(
        request.mandate, key_id=key_id, signature=bytes(64)), request.context)
    assert check(bad, keystore)[:2] == (
        Reason.INVALID_SIGNATURE, keystore.lookup(key_id))
    assert check(None, keystore) == (Reason.MALFORMED_REQUEST, None, 0)


def test_stale_mandate_expired(make_request, keystore):
    request = make_request(now=T0)
    decision = verify(request, T0 + 61_000, FULL, fresh_registry(), keystore)
    assert decision.reason is Reason.MANDATE_EXPIRED


def test_freshness_boundary_equal_to_window_accepts(make_request, keystore):
    # strict inequality: age == window is still fresh
    request = make_request(now=T0)
    decision = verify(request, T0 + 60_000, FULL, fresh_registry(), keystore)
    assert decision.accepted
    just_past = verify(make_request(now=T0), T0 + 60_001, FULL,
                       fresh_registry(), keystore)
    assert just_past.reason is Reason.MANDATE_EXPIRED


def test_future_dated_mandate_rejected(make_request, keystore):
    request = make_request(now=T0 + 1_000)
    decision = verify(request, T0, FULL, fresh_registry(), keystore)
    assert decision.reason is Reason.MANDATE_EXPIRED


def test_skew_tolerance_widens_both_sides(make_request, keystore):
    config = VerifierConfig(mode=Mode.FULL, window=60.0, skew_tolerance=5.0)
    registry = fresh_registry()
    # stale side: age of window+skew is still acceptable, one ms more is not
    old = make_request(now=T0)
    assert verify(old, T0 + 65_000, config, registry, keystore).accepted
    old2 = make_request(now=T0)
    assert (verify(old2, T0 + 65_001, config, registry, keystore).reason
            is Reason.MANDATE_EXPIRED)
    # future side
    ahead = make_request(now=T0 + 5_000)
    assert verify(ahead, T0, config, registry, keystore).accepted
    ahead2 = make_request(now=T0 + 5_001)
    assert (verify(ahead2, T0, config, registry, keystore).reason
            is Reason.MANDATE_EXPIRED)


@pytest.mark.parametrize("skew,issued_at,replay_at", [
    (0.0, T0, T0 + 60_000),          # replay at age == window
    (5.0, T0 + 5_000, T0 + 70_000),  # first use future-dated by the skew
])
def test_replay_at_last_fresh_instant_is_detected(make_request, keystore,
                                                  skew, issued_at, replay_at):
    # first use at T0; the replay comes at the last instant freshness accepts
    config = VerifierConfig(mode=Mode.FULL, window=60.0, skew_tolerance=skew)
    request = make_request(now=issued_at)
    registry = fresh_registry()
    assert verify(request, T0, config, registry, keystore).accepted
    assert (verify(request, replay_at, config, registry, keystore).reason
            is Reason.REPLAY_DETECTED)
    assert (verify(request, replay_at + 1, config, registry, keystore).reason
            is Reason.MANDATE_EXPIRED)


@pytest.mark.parametrize("skew", [0.0, 5.0])
def test_claim_overtaken_by_a_later_sweep_is_expired(make_request, issuer,
                                                     keystore, skew):
    # A is accepted at the earliest instant stage 3 allows, so its entry
    # expires 1 ms after A's last fresh instant. B, verified 1 ms after
    # that, sweeps A's nonce. A replay of A at its last fresh instant passes
    # stage 3, but the registry can only take its claim at B's instant,
    # past that one: expired, not accepted a second time
    config = VerifierConfig(window=60.0, skew_tolerance=skew)
    last_fresh = T0 + config.window_ms + config.skew_ms
    registry = fresh_registry()
    a = make_request(now=T0)
    a_digest = registry.key_digest(nonce_key(issuer.public_key,
                                             a.mandate.nonce))
    assert verify(a, T0 - config.skew_ms, config, registry, keystore).accepted
    assert a_digest in registry._records()
    b_at = last_fresh + 2
    assert verify(make_request(now=b_at), b_at, config, registry,
                  keystore).accepted
    assert a_digest not in registry._records()
    replay = verify(a, last_fresh, config, registry, keystore)
    assert replay.reason is Reason.MANDATE_EXPIRED


def test_wrong_merchant_context_mismatch(make_request, keystore):
    request = make_request()
    moved = VerificationRequest(
        request.mandate,
        dataclasses.replace(request.context, merchant_id="mallory"))
    decision = verify(moved, T0 + 1, FULL, fresh_registry(), keystore)
    assert decision.reason is Reason.CONTEXT_MISMATCH


def test_unknown_key_id_maps_to_invalid_signature(make_request):
    decision = verify(make_request(), T0 + 1, FULL, fresh_registry(),
                      Keystore())
    assert decision.reason is Reason.INVALID_SIGNATURE


def test_tampered_mandate_invalid_signature(make_request, keystore):
    request = make_request()
    tampered = VerificationRequest(
        dataclasses.replace(request.mandate,
                            payload=PaymentPayload(10 ** 6, "USD")),
        request.context)
    decision = verify(tampered, T0 + 1, FULL, fresh_registry(), keystore)
    assert decision.reason is Reason.INVALID_SIGNATURE


def test_malformed_request_fail_closed(make_request, keystore):
    request = make_request()
    bad = VerificationRequest(
        dataclasses.replace(request.mandate, nonce="not-hex"),
        request.context)
    decision = verify(bad, T0 + 1, FULL, fresh_registry(), keystore)
    assert decision.reason is Reason.MALFORMED_REQUEST
    assert decision.mandate_id == ""  # its contents are not trusted, id included
    # entirely missing pieces still produce a Decision, never an exception
    assert (verify(VerificationRequest(None, request.context), T0, FULL,
                   fresh_registry(), keystore).reason
            is Reason.MALFORMED_REQUEST)


def test_verify_never_raises_on_junk(keystore, make_request):
    rng = random.Random(99)
    junk_values = [None, 0, -1, 3.14, True, b"bytes", "", "x" * 40, [],
                   {}, ("tuple",)]
    base = make_request()
    fields = ["mandate_id", "nonce", "issued_at", "context_hash", "payload",
              "key_id", "signature"]
    for _ in range(300):
        field = rng.choice(fields)
        mutant = dataclasses.replace(base.mandate,
                                     **{field: rng.choice(junk_values)})
        request = VerificationRequest(mutant, base.context)
        decision = verify(request, T0 + 1, FULL, fresh_registry(), keystore)
        assert decision.outcome is Outcome.REJECT
        assert decision.reason in (Reason.MALFORMED_REQUEST,
                                   Reason.INVALID_SIGNATURE)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def test_baseline_accepts_replay(make_request, keystore):
    config = VerifierConfig(mode=Mode.BASELINE)
    request = make_request()
    registry = fresh_registry()
    assert verify(request, T0 + 1, config, registry, keystore).accepted
    assert verify(request, T0 + 2, config, registry, keystore).accepted


def test_context_only_accepts_replay_rejects_wrong_context(make_request, keystore):
    config = VerifierConfig(mode=Mode.CONTEXT_ONLY)
    request = make_request()
    registry = fresh_registry()
    assert verify(request, T0 + 1, config, registry, keystore).accepted
    assert verify(request, T0 + 2, config, registry, keystore).accepted
    moved = VerificationRequest(
        request.mandate,
        dataclasses.replace(request.context, scope="/elsewhere"))
    assert (verify(moved, T0 + 3, config, registry, keystore).reason
            is Reason.CONTEXT_MISMATCH)


def test_nonce_only_rejects_replay_accepts_wrong_context(make_request, keystore):
    config = VerifierConfig(mode=Mode.NONCE_ONLY)
    registry = fresh_registry()
    request = make_request()
    assert verify(request, T0 + 1, config, registry, keystore).accepted
    assert (verify(request, T0 + 2, config, registry, keystore).reason
            is Reason.REPLAY_DETECTED)
    # first use under a falsified context sails through without context check
    harvested = make_request()
    moved = VerificationRequest(
        harvested.mandate,
        dataclasses.replace(harvested.context, merchant_id="mallory"))
    assert verify(moved, T0 + 3, config, registry, keystore).accepted


def test_mode_parse():
    assert Mode("full") is Mode.FULL
    assert Mode("context-only") is Mode.CONTEXT_ONLY
    with pytest.raises(ValueError):
        Mode("bogus")


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    # 0.0004 s is positive but rounds to a window of 0 ms
    for bad in (0, 0.0004):
        with pytest.raises(ValueError, match="window"):
            VerifierConfig(window=bad)
    with pytest.raises(ValueError):
        VerifierConfig(skew_tolerance=-1)
    for bad in (math.nan, math.inf, -math.inf, 1e306):
        with pytest.raises(ValueError, match="window"):
            VerifierConfig(window=bad)
        with pytest.raises(ValueError, match="skew_tolerance"):
            VerifierConfig(skew_tolerance=bad)
    # not numbers, and an integer too large for a float
    for bad, problem in ((True, "a number"), ("60", "a number"),
                         (None, "a number"), (10**400, "finite")):
        with pytest.raises(ValueError, match=f"window must be {problem}"):
            VerifierConfig(window=bad)
        with pytest.raises(ValueError,
                           match=f"skew_tolerance must be {problem}"):
            VerifierConfig(skew_tolerance=bad)
    assert VerifierConfig(window=5) == VerifierConfig(window=5.0)
    # the registry stores expiries of at most MAX_TTL_MS ahead
    for window, skew in ((MAX_TTL_MS / 1000, 0), (60, MAX_TTL_MS / 2000)):
        with pytest.raises(ValueError, match="window"):
            VerifierConfig(window=window, skew_tolerance=skew)
    assert VerifierConfig(window=(MAX_TTL_MS - 1) / 1000).nonce_ttl_ms \
        == MAX_TTL_MS
    assert VerifierConfig(window=60).window_ms == 60_000
    assert VerifierConfig(skew_tolerance=5).skew_ms == 5_000
    assert VerifierConfig(window=60, skew_tolerance=5).nonce_ttl_ms == 70_001


# ---------------------------------------------------------------------------
# timings
# ---------------------------------------------------------------------------

def test_baseline_timings_skip_context_and_registry(make_request, keystore):
    config = VerifierConfig(mode=Mode.BASELINE)
    decision = verify(make_request(), T0 + 1, config, fresh_registry(),
                      keystore)
    assert decision.accepted
    assert decision.context_ns == 0
    assert decision.registry_ns == 0
    assert decision.signature_ns > 0


def test_full_timings_all_stages_positive(make_request, keystore):
    decision = verify(make_request(), T0 + 1, FULL, fresh_registry(), keystore)
    assert decision.accepted
    assert decision.signature_ns > 0
    assert decision.context_ns > 0
    assert decision.registry_ns > 0
    assert decision.total_ns >= (decision.signature_ns + decision.context_ns
                                 + decision.registry_ns)


def test_malformed_skips_all_timed_stages(keystore, make_request):
    request = make_request()
    bad = VerificationRequest(
        dataclasses.replace(request.mandate, context_hash="zz"),
        request.context)
    decision = verify(bad, T0, FULL, fresh_registry(), keystore)
    assert decision.signature_ns == 0
    assert decision.context_ns == 0
    assert decision.registry_ns == 0
    assert decision.total_ns > 0


def test_timings_are_not_part_of_the_decision(make_request, keystore):
    decision = verify(make_request(), T0 + 1, FULL, fresh_registry(), keystore)
    assert STAGE_TIMINGS == ("signature_ns", "context_ns", "registry_ns",
                             "total_ns")
    untimed = dataclasses.replace(decision, **dict.fromkeys(STAGE_TIMINGS, 0))
    assert untimed == decision
    assert set(decision.to_wire()) == {"outcome", "reason", "mandate_id"}


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_rejections_before_nonce_stage_leave_registry_unchanged(
        make_request, keystore):
    registry = fresh_registry()
    primer = make_request()
    assert verify(primer, T0 + 1, FULL, registry, keystore).accepted
    snapshot = registry._records()

    request = make_request()
    failures = [
        VerificationRequest(
            dataclasses.replace(request.mandate, signature=b"\x00" * 64),
            request.context),  # InvalidSignature
        make_request(now=T0 - 10 ** 6),  # MandateExpired
        VerificationRequest(
            request.mandate,
            dataclasses.replace(request.context, scope="/evil")),  # mismatch
        VerificationRequest(None, request.context),  # MalformedRequest
    ]
    for bad in failures:
        decision = verify(bad, T0 + 2, FULL, registry, keystore)
        assert not decision.accepted
        assert registry._records() == snapshot


def test_decision_outcome_iff_authorized(make_request, keystore):
    registry = fresh_registry()
    request = make_request()
    seen = [verify(request, T0 + 1, FULL, registry, keystore),
            verify(request, T0 + 2, FULL, registry, keystore),
            verify(make_request(now=T0 - 10 ** 6), T0, FULL, registry,
                   keystore)]
    for decision in seen:
        assert (decision.outcome is Outcome.ACCEPT) == \
               (decision.reason is Reason.AUTHORIZED)


@pytest.mark.parametrize("reason", list(Reason))
def test_outcome_follows_reason(reason):
    decision = Decision(reason=reason, mandate_id="m")
    authorized = reason is Reason.AUTHORIZED
    assert decision.accepted is authorized
    assert decision.outcome is (Outcome.ACCEPT if authorized
                                else Outcome.REJECT)
    assert decision.to_wire() == {"outcome": decision.outcome.value,
                                  "reason": reason.value, "mandate_id": "m"}
    assert decision.to_wire()["outcome"] == ("ACCEPT" if authorized
                                             else "REJECT")


def test_verify_deterministic_on_equal_state(make_request, keystore):
    request = make_request()
    a = verify(request, T0 + 5, FULL, fresh_registry(), keystore)
    b = verify(request, T0 + 5, FULL, fresh_registry(), keystore)
    assert a == b


def test_exactly_one_accept_concurrent_small(make_request, keystore):
    # smoke-level; the acceptance suite runs the full trial matrix
    request = make_request()
    for n in (2, 8, 32):
        registry = fresh_registry()
        barrier = threading.Barrier(n)

        def attempt():
            barrier.wait()
            return verify(request, T0 + 1, FULL, registry, keystore)

        with ThreadPoolExecutor(max_workers=n) as pool:
            futures = [pool.submit(attempt) for _ in range(n)]
            decisions = [f.result() for f in futures]
        accepts = [d for d in decisions if d.accepted]
        replays = [d for d in decisions if d.reason is Reason.REPLAY_DETECTED]
        assert len(accepts) == 1
        assert len(replays) == n - 1


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def test_decision_wire_shape(make_request, keystore):
    request = make_request()
    decision = verify(request, T0 + 1, FULL, fresh_registry(), keystore)
    wire = decision.to_wire()
    assert wire == {"outcome": "ACCEPT", "reason": "Authorized",
                    "mandate_id": request.mandate.mandate_id}
    assert json.loads(json.dumps(wire)) == wire


def test_reason_strings_exact():
    assert {r.value for r in Reason} == {
        "Authorized", "InvalidSignature", "MandateExpired",
        "ContextMismatch", "ReplayDetected", "MalformedRequest"}
    assert {o.value for o in Outcome} == {"ACCEPT", "REJECT"}
