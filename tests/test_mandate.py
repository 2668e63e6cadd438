import base64
import dataclasses
import hashlib
import json
import random
import struct
from unittest import mock

import pytest
from hypothesis import assume, given, settings
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
    request_from_wire,
    request_to_wire,
    verify_signature,
)
from ztrv import mandate as mandate_module
from ztrv._ed25519 import ENGINE, _CryptographyEngine
from ztrv.mandate import (context_problem, mandate_problem, request_problem,
                          signing_bytes)
from ztrv.verifier import Reason, check

from conftest import T0

# every engine this host has; verify_signature must answer alike on each
ENGINES = {"cryptography": _CryptographyEngine()}
if ENGINE.name == "libsodium":
    ENGINES["libsodium"] = ENGINE


@pytest.fixture(params=["libsodium", "cryptography"])
def engine(request, monkeypatch):
    """Runs the test with ``mandate.ENGINE`` set to each engine in turn."""
    if request.param not in ENGINES:
        pytest.skip("libsodium is not on this host")
    monkeypatch.setattr(mandate_module, "ENGINE", ENGINES[request.param])
    return ENGINES[request.param]


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

@pytest.mark.usefixtures("engine")
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


@pytest.mark.usefixtures("engine")
def test_verify_rejects_tampered_amount(issuer, context):
    mandate = issue_mandate(issuer, context, PaymentPayload(4999, "USD"),
                            now=T0, rng=random.Random(3))
    tampered = dataclasses.replace(mandate, payload=PaymentPayload(5000, "USD"))
    assert verify_signature(mandate, issuer.public_key)
    assert not verify_signature(tampered, issuer.public_key)


@pytest.mark.usefixtures("engine")
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


@pytest.mark.usefixtures("engine")
def test_verify_rejects_wrong_key(issuer, context):
    mandate = issue_mandate(issuer, context, PaymentPayload(1, "USD"),
                            now=T0, rng=random.Random(5))
    other = IssuerKey.generate("other", rng=random.Random(6))
    assert not verify_signature(mandate, other.public_key)


@pytest.mark.usefixtures("engine")
def test_verify_malformed_signature_is_false_not_raise(issuer, context):
    mandate = issue_mandate(issuer, context, PaymentPayload(1, "USD"),
                            now=T0, rng=random.Random(7))
    short = dataclasses.replace(mandate, signature=b"\x00" * 10)
    garbage = dataclasses.replace(mandate, signature=b"\xff" * 64)
    assert not verify_signature(short, issuer.public_key)
    assert not verify_signature(garbage, issuer.public_key)
    assert not verify_signature(mandate, b"\x00" * 5)


@pytest.mark.usefixtures("engine")
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


@given(fields=st.tuples(*[st.text(min_size=1)] * 4))
def test_context_hash_is_sha256_of_the_framed_fields(fields):
    # oracle: hashlib's SHA-256 over each field's UTF-8 behind its length
    # as 4 big-endian bytes, in the order of CONTEXT_FIELDS
    framed = b"".join(struct.pack(">I", len(raw)) + raw
                      for raw in (field.encode("utf-8") for field in fields))
    assert (hash_context_fields(ExecutionContext(*fields))
            == hashlib.sha256(framed).hexdigest())


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
    wire = request_to_wire(VerificationRequest(mandate, context))
    assert set(wire["mandate"]) == {"mandate_id", "nonce", "issued_at",
                                    "context_hash", "payload", "key_id",
                                    "signature"}
    assert set(wire["mandate"]["payload"]) == {"amount", "currency"}
    assert set(wire["context"]) == {"task_id", "agent_id", "merchant_id",
                                    "scope"}
    assert (base64.b64decode(wire["mandate"]["signature"], validate=True)
            == mandate.signature)
    assert request_from_wire(wire).mandate == mandate


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


def test_keystore_file_names_the_entry_it_refuses(tmp_path, issuer):
    good = base64.b64encode(issuer.public_key).decode()
    path = tmp_path / "ks.json"
    for text, named in (('{"": "%s"}' % good, "keystore['']"),
                        ('{"k": 7}', "keystore['k']"),
                        ('{"k": "%s"}' % ("A" * 43 + "="), "keystore['k']")):
        path.write_text(text)
        with pytest.raises(WireFormatError) as info:
            Keystore.from_file(path)
        assert named in str(info.value)


def test_keystore_file_refuses_a_repeated_key_id(tmp_path, issuer):
    # json would keep the second entry and drop the first without a word
    other = IssuerKey.generate("other", rng=random.Random(15))
    path = tmp_path / "ks.json"
    path.write_text('{"k": "%s", "k": "%s"}' % (
        base64.b64encode(issuer.public_key).decode(),
        base64.b64encode(other.public_key).decode()))
    with pytest.raises(WireFormatError, match="repeated name 'k'"):
        Keystore.from_file(path)


# Edwards arithmetic on the curve -x^2 + y^2 = 1 + d x^2 y^2 over GF(p),
# to derive the points of small order independently of the code under test
_P = 2 ** 255 - 19
_D = -121665 * pow(121666, -1, _P) % _P


def _sqrt(a):
    """A square root of ``a`` mod p, or None (RFC 8032 §5.1.3)."""
    a %= _P
    x = pow(a, (_P + 3) // 8, _P)
    if x * x % _P != a:
        x = x * pow(2, (_P - 1) // 4, _P) % _P
    return x if x * x % _P == a else None


def _add(p, q):
    (x1, y1), (x2, y2) = p, q
    t = _D * x1 * x2 * y1 * y2
    return ((x1 * y2 + x2 * y1) * pow(1 + t, -1, _P) % _P,
            (y1 * y2 + x1 * x2) * pow(1 - t, -1, _P) % _P)


def _small_order_ys():
    """The y of each of the 8 points whose order divides 8.

    2T has y = 0, so order 4, exactly when y^2 = -x^2; with the curve
    equation that is d y^4 + 2 y^2 - 1 = 0, so y^2 = (-1 ± sqrt(1 + d)) / d.
    """
    root = _sqrt(1 + _D)
    for y2 in ((root - 1) * pow(_D, -1, _P), (-root - 1) * pow(_D, -1, _P)):
        y = _sqrt(y2)
        x = y and _sqrt((y * y - 1) * pow(_D * y * y + 1, -1, _P))
        if x:
            break
    points = [(0, 1)]
    for _ in range(8):
        points.append(_add(points[-1], (x, y)))
    assert points[8] == (0, 1) and points[4] != (0, 1)  # (x, y) has order 8
    return {y for _, y in points}


# libsodium's has_small_order blocklist, which compares with the sign bit
# masked: the 5 y of small order, and p and p + 1, which are 0 and 1 again
_SMALL_ORDER_KEYS = sorted(
    y.to_bytes(32, "little") for y in _small_order_ys() | {_P, _P + 1})
_NON_CANONICAL_KEYS = [y.to_bytes(32, "little") for y in range(_P, 1 << 255)]


def _with_sign(key, sign):
    return key[:31] + bytes([key[31] | sign << 7])


def test_small_order_blocklist_has_libsodiums_seven_encodings():
    assert len(_SMALL_ORDER_KEYS) == 7
    assert bytes(32) in _SMALL_ORDER_KEYS and len(_NON_CANONICAL_KEYS) == 19


@pytest.mark.parametrize("sign", [0, 1])
def test_keystore_refuses_weak_keys(sign):
    for key in _SMALL_ORDER_KEYS + _NON_CANONICAL_KEYS:
        with pytest.raises(ValueError, match="small order|canonical"):
            Keystore().add("k", _with_sign(key, sign))
        with pytest.raises(ValueError):
            Keystore({"k": _with_sign(key, sign)})


def test_keystore_accepts_generated_keys():
    rng = random.Random(16)
    keystore = Keystore()
    for i in range(1_000):
        key = IssuerKey.generate(f"k{i}", rng=rng)
        keystore.add(key.key_id, key.public_key)
    assert len(keystore) == 1_000


def _zero_key_forgery(context):
    """A 999,999 USD mandate under the all-zero key, a point of order 4,
    signed with no secret: R of small order and S = 0, which the
    cryptography engine by itself accepts for about one message in four."""
    rng = random.Random(17)
    for _ in range(200):
        mandate = Mandate(
            mandate_id="%032x" % rng.getrandbits(128),
            nonce="%032x" % rng.getrandbits(128), issued_at=T0,
            context_hash=hash_context_fields(context),
            payload=PaymentPayload(999_999, "USD"), key_id="k",
            signature=b"")
        message = signing_bytes(mandate)
        for R in _SMALL_ORDER_KEYS:
            if ENGINES["cryptography"].verify(bytes(32), R + bytes(32),
                                              message):
                return dataclasses.replace(mandate, signature=R + bytes(32))
    raise AssertionError("the engine alone no longer lets it through")


_L = 2 ** 252 + 27742317777372353535851937790883648493  # the group order


def _sign_with_r_zero(seed, public_key, message):
    """RFC 8032 signing with the nonce r = 0: R is the identity's encoding
    and S = k * a mod L, which the cofactorless equation holds for."""
    digest = hashlib.sha512(seed).digest()
    a = int.from_bytes(digest[:32], "little") & ((1 << 254) - 8) | 1 << 254
    R = (1).to_bytes(32, "little")
    k = int.from_bytes(hashlib.sha512(R + public_key + message).digest(),
                       "little") % _L
    return R + (k * a % _L).to_bytes(32, "little")


def test_zero_key_forgery_cannot_enter_a_keystore(tmp_path, context):
    """Under the cryptography engine the all-zero key takes forged
    mandates; the keystore is where the key is stopped."""
    _zero_key_forgery(context)
    path = tmp_path / "ks.json"
    path.write_text('{"k": "%s"}' % base64.b64encode(bytes(32)).decode())
    with pytest.raises(WireFormatError,
                       match=r"keystore\['k'\]: .*small order"):
        Keystore.from_file(path)
    with pytest.raises(ValueError, match="small order"):
        Keystore({"k": bytes(32)})


def test_zero_key_forgery_is_refused_on_every_engine(engine, context):
    # given as a raw key, without going through a keystore
    forged = _zero_key_forgery(context)
    assert not verify_signature(forged, bytes(32))


def test_identity_r_signature_is_refused_on_every_engine(engine, issuer,
                                                         context):
    # the key's holder signs with r = 0: the cofactorless equation holds,
    # so the cryptography engine by itself accepts; libsodium refuses R
    mandate = issue_mandate(issuer, context, PaymentPayload(1, "USD"),
                            now=T0, rng=random.Random(18))
    message = signing_bytes(mandate)
    signature = _sign_with_r_zero(issuer.seed, issuer.public_key, message)
    assert ENGINES["cryptography"].verify(issuer.public_key, signature,
                                          message)
    assert not verify_signature(
        dataclasses.replace(mandate, signature=signature), issuer.public_key)


_WEAK_KEYS = [_with_sign(key, sign) for sign in (0, 1)
              for key in _SMALL_ORDER_KEYS + _NON_CANONICAL_KEYS]
_SIGNATURES = ("valid", "r = 0", "S + L", "weak R", "weak R, S = 0")


@pytest.mark.skipif("libsodium" not in ENGINES,
                    reason="libsodium is not on this host")
@settings(max_examples=300, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), data=st.data())
def test_engines_answer_alike_on_mutated_signatures(seed, data):
    key = IssuerKey.from_seed("k", seed)
    context = ExecutionContext(task_id="t1", agent_id="a1", merchant_id="m1",
                               scope="s1")
    mandate = issue_mandate(key, context, PaymentPayload(1, "USD"), now=T0,
                            rng=random.Random(data.draw(st.integers(0, 99))))
    public_key = data.draw(st.one_of(st.just(key.public_key),
                                     st.sampled_from(_WEAK_KEYS)))
    R, S = mandate.signature[:32], mandate.signature[32:]
    kind = data.draw(st.sampled_from(_SIGNATURES))
    if kind == "r = 0":
        signature = _sign_with_r_zero(seed, public_key, signing_bytes(mandate))
        R, S = signature[:32], signature[32:]
    elif kind == "S + L":
        S = (int.from_bytes(S, "little") + _L).to_bytes(32, "little")
    elif kind.startswith("weak R"):
        R = data.draw(st.sampled_from(_WEAK_KEYS))
        if kind.endswith("S = 0"):
            S = bytes(32)
    flipped = bytearray(public_key + R + S)
    for bit in data.draw(st.lists(st.integers(0, 8 * 96 - 1), max_size=2)):
        flipped[bit // 8] ^= 1 << bit % 8
    public_key = bytes(flipped[:32])
    mandate = dataclasses.replace(mandate, signature=bytes(flipped[32:]))
    if data.draw(st.booleans()):
        mandate = dataclasses.replace(mandate, issued_at=T0 + 1)
    answers = set()
    for each in ENGINES.values():
        with mock.patch.object(mandate_module, "ENGINE", each):
            answers.add(verify_signature(mandate, public_key))
    assert len(answers) == 1


# ---------------------------------------------------------------------------
# the signature rule as stage 2 applies it
# ---------------------------------------------------------------------------

class _Counting:
    """Answers as ``engine`` does, and records each triple it is asked."""

    def __init__(self, engine):
        self.engine, self.asked = engine, []

    def verify(self, public_key, signature, message):
        self.asked.append((public_key, signature, message))
        return self.engine.verify(public_key, signature, message)


_TWO_ISSUERS = [IssuerKey.from_seed(f"k{i}", bytes([i]) * 32) for i in (1, 2)]


@st.composite
def _signed_requests(draw):
    """A request whose mandate one of _TWO_ISSUERS signed, perhaps with
    S + L, a weak R or flipped bits in its signature, a moved message, or
    another key_id."""
    context = ExecutionContext(task_id="t1", agent_id="a1", merchant_id="m1",
                               scope="s1")
    mandate = issue_mandate(draw(st.sampled_from(_TWO_ISSUERS)), context,
                            PaymentPayload(1, "USD"), now=T0,
                            rng=random.Random(draw(st.integers(0, 2))))
    R, S = mandate.signature[:32], mandate.signature[32:]
    kind = draw(st.sampled_from(("valid", "S + L", "weak R")))
    if kind == "S + L":
        S = (int.from_bytes(S, "little") + _L).to_bytes(32, "little")
    elif kind == "weak R":
        R = draw(st.sampled_from(_WEAK_KEYS))
    signature = bytearray(R + S)
    for bit in draw(st.lists(st.integers(0, 8 * 64 - 1), max_size=2)):
        signature[bit // 8] ^= 1 << bit % 8
    return VerificationRequest(dataclasses.replace(
        mandate, signature=bytes(signature),
        issued_at=T0 + draw(st.integers(0, 1)),
        key_id=draw(st.sampled_from(["k1", "k2", "unknown"]))), context)


@settings(max_examples=150, deadline=None)
@given(request=_signed_requests())
def test_check_answers_as_verify_signature_under_the_named_key(request):
    keystore = Keystore.for_issuers(*_TWO_ISSUERS)
    public_key = keystore.lookup(request.mandate.key_id)
    expected = (public_key is not None
                and verify_signature(request.mandate, public_key))
    reason, checked_under, _ = check(request, keystore)
    assert reason is (None if expected else Reason.INVALID_SIGNATURE)
    assert checked_under == public_key


def test_verify_signature_asks_the_engine_in_place_at_the_call(
        issuer, context, monkeypatch):
    mandate = issue_mandate(issuer, context, PaymentPayload(1, "USD"),
                            now=T0, rng=random.Random(20))
    swapped = _Counting(ENGINES["cryptography"])
    monkeypatch.setattr(mandate_module, "ENGINE", swapped)
    assert verify_signature(mandate, issuer.public_key)
    assert len(swapped.asked) == 1
    # the engine's own verify, replaced as a probe replaces it, through check
    monkeypatch.setattr(mandate_module, "ENGINE", ENGINE)
    counting = _Counting(ENGINES["cryptography"])
    monkeypatch.setattr(ENGINE, "verify", counting.verify)
    keystore = Keystore.for_issuers(issuer)
    assert check(VerificationRequest(mandate, context), keystore)[0] is None
    assert check(VerificationRequest(mandate, context), keystore)[0] is None
    assert len(counting.asked) == 2


def test_rebinding_a_key_id_never_reuses_the_old_keys_answers(issuer,
                                                              context):
    # a rebound key_id verifies under its new key, and only under it
    other = IssuerKey.from_seed(issuer.key_id, bytes(range(32)))
    keystore = Keystore.for_issuers(issuer)
    mine, theirs = (VerificationRequest(
        issue_mandate(key, context, PaymentPayload(1, "USD"), now=T0,
                      rng=random.Random(21)), context)
        for key in (issuer, other))

    def signed(request):
        return check(request, keystore)[0] is None

    assert signed(mine) and not signed(theirs)
    keystore.add(issuer.key_id, other.public_key)
    assert not signed(mine) and signed(theirs)


def test_issuer_key_requires_32_byte_seed():
    with pytest.raises(ValueError):
        IssuerKey.from_seed("k", b"\x01" * 16)
