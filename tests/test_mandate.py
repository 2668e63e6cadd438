import base64
import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ztrv import (
    ExecutionContext,
    IssuerKey,
    Keystore,
    Mandate,
    PaymentPayload,
    VerificationRequest,
    WireFormatError,
    canonical_encode,
    hash_context_fields,
    issue_mandate,
    mandate_from_wire,
    mandate_to_wire,
    request_from_wire,
    request_to_wire,
    verify_signature,
)
from ztrv._ed25519 import ENGINE, _CryptographyEngine
from ztrv.mandate import context_problem, mandate_problem, request_problem

from conftest import T0

# Frozen before the implementation existed, using an external SHA-256 tool
# over the hand-written framed byte string for ("t1","a1","m1","s1").
CTX_HASH_T1A1M1S1 = \
    "5988fe97e5dfd66bac60ab6da63c46b39b31aca1dae0e461c85511390b3a87ce"

# Frozen output of an independently written throwaway encoder for the fixed
# mandate tuple below (amount=4999, currency="USD"); 172 bytes.
CANONICAL_ENCODING_HEX = (
    "00000020303031313232333334343535363637373838393961616262636364646565"
    "6666000000206666656564646363626261613939383837373636353534343333323231"
    "3130300000000d31373030303030303030303030000000403539383866653937653564"
    "6664363662616336306162366461363363343662333962333161636131646165306534"
    "363163383535313133393062336138376365000000043439393900000003555344"
)


# ---------------------------------------------------------------------------
# context hash
# ---------------------------------------------------------------------------

def test_context_hash_external_oracle(context):
    assert hash_context_fields(context) == CTX_HASH_T1A1M1S1


def test_context_hash_deterministic(context):
    assert hash_context_fields(context) == hash_context_fields(context)


def test_context_hash_sensitive_to_merchant(context):
    other = dataclasses.replace(context, merchant_id="m2")
    assert hash_context_fields(other) != hash_context_fields(context)


def test_context_hash_sensitive_to_every_field(context):
    base = hash_context_fields(context)
    for field in ("task_id", "agent_id", "merchant_id", "scope"):
        bumped = dataclasses.replace(context, **{field: "other"})
        assert hash_context_fields(bumped) != base


def test_context_hash_field_boundary_not_ambiguous():
    # length framing: shifting a character across a field boundary must
    # change the digest
    a = ExecutionContext(task_id="ab", agent_id="c", merchant_id="m", scope="s")
    b = ExecutionContext(task_id="a", agent_id="bc", merchant_id="m", scope="s")
    assert hash_context_fields(a) != hash_context_fields(b)


# ---------------------------------------------------------------------------
# canonical encoding
# ---------------------------------------------------------------------------

def test_canonical_encode_independent_oracle():
    encoded = canonical_encode(
        "00112233445566778899aabbccddeeff",
        "ffeeddccbbaa99887766554433221100",
        1_700_000_000_000,
        CTX_HASH_T1A1M1S1,
        PaymentPayload(amount=4999, currency="USD"),
    )
    assert encoded.hex() == CANONICAL_ENCODING_HEX
    assert len(encoded) == 172


def test_canonical_encode_deterministic():
    args = ("00112233445566778899aabbccddeeff",
            "ffeeddccbbaa99887766554433221100",
            123456, CTX_HASH_T1A1M1S1, PaymentPayload(1, "EUR"))
    assert canonical_encode(*args) == canonical_encode(*args)


def test_canonical_encode_injectivity_sampled():
    # 10^4 random distinct field tuples -> 10^4 distinct encodings
    rng = random.Random(20260815)
    seen_tuples = set()
    seen_encodings = set()
    for _ in range(10_000):
        fields = ("%032x" % rng.getrandbits(128),
                  "%032x" % rng.getrandbits(128),
                  rng.randrange(0, 2 ** 48),
                  "%064x" % rng.getrandbits(256),
                  rng.randrange(0, 10 ** 9),
                  "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
                          for _ in range(3)))
        payload = PaymentPayload(fields[4], fields[5])
        seen_tuples.add(fields)
        seen_encodings.add(canonical_encode(fields[0], fields[1], fields[2],
                                            fields[3], payload))
    assert len(seen_encodings) == len(seen_tuples)


_encode_fields = st.tuples(st.text(), st.text(), st.integers(min_value=0),
                           st.text(), st.integers(min_value=0), st.text())


@st.composite
def _moved_boundary(draw, fields):
    """``fields`` with the boundary between two neighbours moved: the pair a
    plain concatenation of the six fields could not tell apart."""
    parts = [str(value) for value in fields]
    i = draw(st.integers(min_value=0, max_value=4))
    joined = parts[i] + parts[i + 1]
    cut = draw(st.integers(min_value=0, max_value=len(joined)))
    parts[i], parts[i + 1] = joined[:cut], joined[cut:]
    for k in (2, 4):  # issued_at and amount stay canonical decimal
        assume(parts[k].isascii() and parts[k].isdigit()
               and str(int(parts[k])) == parts[k])
    return (parts[0], parts[1], int(parts[2]), parts[3], int(parts[4]),
            parts[5])


def _encode(fields) -> bytes:
    return canonical_encode(*fields[:4], PaymentPayload(*fields[4:]))


@given(a=_encode_fields, data=st.data())
def test_canonical_encode_is_injective(a, data):
    b = data.draw(st.one_of(_encode_fields, _moved_boundary(a)))
    assert (_encode(a) == _encode(b)) == (a == b)


# ---------------------------------------------------------------------------
# issue / verify
# ---------------------------------------------------------------------------

def test_issue_then_verify_roundtrip(issuer, context):
    mandate = issue_mandate(issuer, context, PaymentPayload(100, "USD"),
                            now=T0, rng=random.Random(1))
    assert verify_signature(mandate, issuer.public_key)
    assert mandate.issued_at == T0
    assert mandate.key_id == issuer.key_id
    assert mandate.context_hash == hash_context_fields(context)


def test_issue_reproducible_under_fixed_seed(issuer, context):
    payload = PaymentPayload(100, "USD")
    a = issue_mandate(issuer, context, payload, now=T0, rng=random.Random(9))
    b = issue_mandate(issuer, context, payload, now=T0, rng=random.Random(9))
    assert a.nonce == b.nonce
    assert a.mandate_id == b.mandate_id
    assert a.signature == b.signature


def test_issue_binds_context(issuer, context):
    mandate = issue_mandate(issuer, context, PaymentPayload(5, "USD"),
                            now=T0, rng=random.Random(2))
    assert mandate.context_hash == hash_context_fields(context)
    other = dataclasses.replace(context, task_id="t2")
    assert mandate.context_hash != hash_context_fields(other)


def test_issue_rejects_invalid_context(issuer):
    bad = ExecutionContext(task_id="", agent_id="a", merchant_id="m", scope="s")
    with pytest.raises(ValueError):
        issue_mandate(issuer, bad, PaymentPayload(5, "USD"), now=T0)


def test_verify_rejects_tampered_amount(issuer, context):
    mandate = issue_mandate(issuer, context, PaymentPayload(4999, "USD"),
                            now=T0, rng=random.Random(3))
    tampered = dataclasses.replace(mandate, payload=PaymentPayload(5000, "USD"))
    assert verify_signature(mandate, issuer.public_key)
    assert not verify_signature(tampered, issuer.public_key)


def test_verify_rejects_any_field_mutation(issuer, context):
    mandate = issue_mandate(issuer, context, PaymentPayload(4999, "USD"),
                            now=T0, rng=random.Random(4))
    mutants = [
        dataclasses.replace(mandate, mandate_id="0" * 32),
        dataclasses.replace(mandate, nonce="f" * 32),
        dataclasses.replace(mandate, issued_at=mandate.issued_at + 1),
        dataclasses.replace(mandate, context_hash="0" * 64),
        dataclasses.replace(mandate, payload=PaymentPayload(4999, "EUR")),
    ]
    for mutant in mutants:
        assert not verify_signature(mutant, issuer.public_key)


def test_verify_rejects_wrong_key(issuer, context):
    mandate = issue_mandate(issuer, context, PaymentPayload(1, "USD"),
                            now=T0, rng=random.Random(5))
    other = IssuerKey.generate("other", rng=random.Random(6))
    assert not verify_signature(mandate, other.public_key)


def test_verify_malformed_signature_is_false_not_raise(issuer, context):
    mandate = issue_mandate(issuer, context, PaymentPayload(1, "USD"),
                            now=T0, rng=random.Random(7))
    short = dataclasses.replace(mandate, signature=b"\x00" * 10)
    garbage = dataclasses.replace(mandate, signature=b"\xff" * 64)
    assert not verify_signature(short, issuer.public_key)
    assert not verify_signature(garbage, issuer.public_key)
    assert not verify_signature(mandate, b"\x00" * 5)


def test_signature_flipped_bit_in_encoding_fails(issuer, context):
    # single-byte mutations of the signed bytes must flip verification
    mandate = issue_mandate(issuer, context, PaymentPayload(4999, "USD"),
                            now=T0, rng=random.Random(8))
    sig = bytearray(mandate.signature)
    sig[0] ^= 0x01
    assert not verify_signature(
        dataclasses.replace(mandate, signature=bytes(sig)),
        issuer.public_key)


def test_engines_interoperate(issuer, context):
    # both backends implement the same RFC 8032 scheme end to end
    crypto_engine = _CryptographyEngine()
    assert crypto_engine.public_key(issuer.seed) == issuer.public_key
    mandate = issue_mandate(issuer, context, PaymentPayload(42, "USD"),
                            now=T0, rng=random.Random(10))
    from ztrv.mandate import signing_bytes
    message = signing_bytes(mandate)
    assert crypto_engine.verify(issuer.public_key, mandate.signature, message)
    sig2 = crypto_engine.sign(issuer.seed, message)
    assert ENGINE.verify(issuer.public_key, sig2, message)


@pytest.mark.parametrize("engine", [ENGINE, _CryptographyEngine()],
                         ids=lambda engine: engine.name)
@given(data=st.binary(max_size=1024))
def test_engine_sha256_is_sha256(engine, data):
    # the context hash is whichever engine's SHA-256 is loaded
    assert engine.sha256(data) == hashlib.sha256(data).digest()


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

def test_context_problem_flags_empty_and_bad_utf8(context):
    assert context_problem(context) is None
    assert context_problem(dataclasses.replace(context, task_id="")) is not None
    lone_surrogate = "\ud800"
    assert context_problem(
        dataclasses.replace(context, scope=lone_surrogate)) is not None


def test_mandate_problem_catalogue(issuer, context):
    good = issue_mandate(issuer, context, PaymentPayload(10, "USD"),
                         now=T0, rng=random.Random(11))
    assert mandate_problem(good) is None
    cases = [
        dataclasses.replace(good, mandate_id="ABC"),          # not 32 hex
        dataclasses.replace(good, mandate_id="G" * 32),       # non-hex
        dataclasses.replace(good, nonce=good.nonce.upper()),  # uppercase
        dataclasses.replace(good, nonce=good.nonce[:-1]),     # short
        dataclasses.replace(good, issued_at=-5),
        dataclasses.replace(good, issued_at=True),
        dataclasses.replace(good, context_hash="00"),
        dataclasses.replace(good, payload=PaymentPayload(-1, "USD")),
        dataclasses.replace(good, payload=PaymentPayload(1, "usd")),
        dataclasses.replace(good, payload=PaymentPayload(1, "USDX")),
        dataclasses.replace(good, key_id=""),
        dataclasses.replace(good, signature=b"short"),
    ]
    for bad in cases:
        assert mandate_problem(bad) is not None, bad


def test_request_problem_requires_both_parts(issuer, context):
    good = issue_mandate(issuer, context, PaymentPayload(10, "USD"),
                         now=T0, rng=random.Random(12))
    assert request_problem(VerificationRequest(good, context)) is None
    assert request_problem(VerificationRequest(None, context)) is not None
    assert request_problem(VerificationRequest(good, None)) is not None


# ---------------------------------------------------------------------------
# wire codecs
# ---------------------------------------------------------------------------

def test_mandate_wire_roundtrip(issuer, context):
    mandate = issue_mandate(issuer, context, PaymentPayload(4999, "USD"),
                            now=T0, rng=random.Random(13))
    wire = mandate_to_wire(mandate)
    assert set(wire) == {"mandate_id", "nonce", "issued_at", "context_hash",
                         "payload", "key_id", "signature"}
    assert base64.b64decode(wire["signature"], validate=True) == mandate.signature
    assert mandate_from_wire(wire) == mandate


def test_request_wire_roundtrip(issuer, context, make_request):
    request = make_request(context)
    wire = request_to_wire(request)
    assert request_from_wire(wire) == request


def test_wire_rejects_unknown_keys(make_request):
    wire = request_to_wire(make_request())
    wire["mandate"]["extra"] = 1
    with pytest.raises(WireFormatError):
        request_from_wire(wire)


def test_wire_rejects_missing_keys(make_request):
    wire = request_to_wire(make_request())
    del wire["mandate"]["nonce"]
    with pytest.raises(WireFormatError):
        request_from_wire(wire)


def test_wire_rejects_bad_base64_and_non_objects(make_request):
    # the wire decoder checks shape only; wrong field types are stage 1's
    # (test_gateway.test_wrong_field_types_are_malformed_decisions)
    for mutate in (
        lambda w: w["mandate"].__setitem__("signature", "&&not-base64&&"),
        lambda w: w["mandate"].__setitem__("signature", 7),
        lambda w: w["mandate"].__setitem__("payload", [1, "USD"]),
        lambda w: w.__setitem__("context", ["not", "an", "object"]),
    ):
        wire = request_to_wire(make_request())
        mutate(wire)
        with pytest.raises(WireFormatError):
            request_from_wire(wire)


_hex = st.text(alphabet="0123456789abcdef", min_size=32, max_size=32)


@given(mandate_id=_hex, nonce=_hex,
       issued_at=st.integers(min_value=0, max_value=2 ** 63),
       context_hash=st.text(alphabet="0123456789abcdef", min_size=64,
                            max_size=64),
       amount=st.integers(min_value=0, max_value=2 ** 63),
       currency=st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=3,
                        max_size=3),
       key_id=st.text(min_size=1), signature=st.binary(min_size=64, max_size=64),
       context=st.lists(st.text(min_size=1), min_size=4, max_size=4))
def test_request_wire_roundtrip_property(mandate_id, nonce, issued_at,
                                         context_hash, amount, currency,
                                         key_id, signature, context):
    request = VerificationRequest(
        Mandate(mandate_id=mandate_id, nonce=nonce, issued_at=issued_at,
                context_hash=context_hash,
                payload=PaymentPayload(amount, currency), key_id=key_id,
                signature=signature),
        ExecutionContext(*context))
    assert request_problem(request) is None
    assert request_from_wire(request_to_wire(request)) == request
    # and through JSON text, as the gateway receives it
    text = json.dumps(request_to_wire(request))
    assert request_from_wire(json.loads(text)) == request


def test_wire_rejects_toplevel_extras(make_request):
    wire = request_to_wire(make_request())
    wire["note"] = "hi"
    with pytest.raises(WireFormatError):
        request_from_wire(wire)


# ---------------------------------------------------------------------------
# keystore
# ---------------------------------------------------------------------------

def test_keystore_lookup(issuer):
    ks = Keystore.for_issuers(issuer)
    assert ks.lookup(issuer.key_id) == issuer.public_key
    assert ks.lookup("nope") is None
    assert len(ks) == 1


def test_keystore_file_roundtrip(tmp_path, issuer):
    other = IssuerKey.generate("issuer-two", rng=random.Random(14))
    ks = Keystore.for_issuers(issuer, other)
    path = tmp_path / "keystore.json"
    ks.save(path)
    loaded = Keystore.from_file(path)
    assert loaded.lookup(issuer.key_id) == issuer.public_key
    assert loaded.lookup(other.key_id) == other.public_key


def test_keystore_rejects_bad_entries(tmp_path):
    path = tmp_path / "ks.json"
    path.write_text('{"k": "not base64!!"}')
    with pytest.raises(WireFormatError):
        Keystore.from_file(path)
    path.write_text('{"k": "%s"}' % base64.b64encode(b"short").decode())
    with pytest.raises(WireFormatError):
        Keystore.from_file(path)
    path.write_text('["list"]')
    with pytest.raises(WireFormatError):
        Keystore.from_file(path)


def test_issuer_key_requires_32_byte_seed():
    with pytest.raises(ValueError):
        IssuerKey.from_seed("k", b"\x01" * 16)
