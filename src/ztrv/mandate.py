"""Mandate domain model: context hashing, canonical encoding, issuance, wire format.

A mandate is a signed, single-use payment authorization bound to the
execution context it was issued for.  Everything the verifier checks is
derived from the byte encodings defined here, so the encodings are strict:
length-prefixed framing (no delimiter ambiguity), lowercase hex for ids and
digests, and exact field sets on the wire.  This module is the one that
reads JSON: the request bodies, the keystore and the gateway's config.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

# CPython's own SHA-256, which hashlib falls back to: it loads no OpenSSL
# and holds the GIL on short inputs, so the GIL is released only for the
# Ed25519 check, once per verify
try:
    from _sha256 import sha256  # CPython 3.11
except ImportError:
    from _sha2 import sha256  # CPython 3.12 on

from ._ed25519 import (ENGINE, SEED_LEN, SIGNATURE_LEN, WEAK_ENCODINGS,
                       public_key_problem)

CONTEXT_FIELDS = ("task_id", "agent_id", "merchant_id", "scope")

_HEX_DIGITS = b"0123456789abcdef"


class WireFormatError(ValueError):
    """Raised when a JSON document does not match the expected wire shape."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionContext:
    """Where a payment is about to happen, as observed at execution time."""

    task_id: str
    agent_id: str
    merchant_id: str
    scope: str


@dataclass(frozen=True)
class PaymentPayload:
    amount: int     # minor units, non-negative
    currency: str   # ISO-4217 style uppercase code


@dataclass(frozen=True)
class Mandate:
    mandate_id: str
    nonce: str
    issued_at: int  # unix milliseconds
    context_hash: str
    payload: PaymentPayload
    key_id: str
    signature: bytes


@dataclass(frozen=True)
class VerificationRequest:
    """A mandate plus the live context it is being presented in."""

    mandate: Mandate
    context: ExecutionContext


# ---------------------------------------------------------------------------
# Canonical byte encodings
# ---------------------------------------------------------------------------

def _frame(values: Iterable[str]) -> bytes:
    # 4-byte big-endian length prefix per field; injective over tuples,
    # unlike plain concatenation ("ab","c" vs "a","bc").
    parts = []
    for value in values:
        raw = value.encode("utf-8")
        parts.append(len(raw).to_bytes(4, "big"))
        parts.append(raw)
    return b"".join(parts)


def hash_context_fields(context: ExecutionContext) -> str:
    """SHA-256 over the framed concatenation of the four context fields, in
    the order of CONTEXT_FIELDS."""
    return sha256(_frame((context.task_id, context.agent_id,
                          context.merchant_id, context.scope))).hexdigest()


def canonical_encode(mandate_id: str, nonce: str, issued_at: int,
                     context_hash: str, payload: PaymentPayload) -> bytes:
    """The exact byte string that is signed.

    Integers are rendered as decimal ASCII before framing so the encoding
    stays printable and has no word-size assumptions.
    """
    return _frame((
        mandate_id,
        nonce,
        str(issued_at),
        context_hash,
        str(payload.amount),
        payload.currency,
    ))


def signing_bytes(mandate: Mandate) -> bytes:
    return canonical_encode(mandate.mandate_id, mandate.nonce,
                            mandate.issued_at, mandate.context_hash,
                            mandate.payload)


# ---------------------------------------------------------------------------
# Structural validation
#
# The one place that checks field types and contents, for every caller: the
# wire decoder passes values through as it found them.  These return a
# human-readable problem string (or None) instead of raising, because the
# verifier needs "malformed" as a decision, not an exception.
# ---------------------------------------------------------------------------

def _encodable(value: str) -> bool:
    # Python str may carry lone surrogates that cannot round-trip UTF-8.
    try:
        value.encode("utf-8")
        return True
    except UnicodeEncodeError:
        return False


def context_problem(context: ExecutionContext) -> str | None:
    for name in CONTEXT_FIELDS:
        value = getattr(context, name, None)
        if not isinstance(value, str) or not value:
            return f"context.{name} must be a non-empty string"
        if not _encodable(value):
            return f"context.{name} is not valid UTF-8"
    return None


def mandate_problem(mandate: Mandate) -> str | None:
    # an ASCII string is lowercase hex when deleting the hex digits from its
    # bytes leaves none: one table lookup per byte, against a search of
    # the digits per character for str.strip
    value = mandate.mandate_id
    if not (isinstance(value, str) and len(value) == 32 and value.isascii()
            and not value.encode().translate(None, _HEX_DIGITS)):
        return "mandate_id must be 32 lowercase hex chars"
    value = mandate.nonce
    if not (isinstance(value, str) and len(value) == 32 and value.isascii()
            and not value.encode().translate(None, _HEX_DIGITS)):
        return "nonce must be 32 lowercase hex chars"
    if not isinstance(mandate.issued_at, int) or isinstance(mandate.issued_at, bool) \
            or mandate.issued_at < 0:
        return "issued_at must be a non-negative integer"
    value = mandate.context_hash
    if not (isinstance(value, str) and len(value) == 64 and value.isascii()
            and not value.encode().translate(None, _HEX_DIGITS)):
        return "context_hash must be 64 lowercase hex chars"
    payload = mandate.payload
    if not isinstance(payload, PaymentPayload):
        return "payload missing"
    if not isinstance(payload.amount, int) or isinstance(payload.amount, bool) \
            or payload.amount < 0:
        return "payload.amount must be a non-negative integer"
    value = payload.currency
    if not (isinstance(value, str) and len(value) == 3 and value.isascii()
            and value.isalpha() and value.isupper()):
        return "payload.currency must be three uppercase letters"
    if not isinstance(mandate.key_id, str) or not mandate.key_id or not _encodable(mandate.key_id):
        return "key_id must be a non-empty string"
    if not isinstance(mandate.signature, bytes) or len(mandate.signature) != SIGNATURE_LEN:
        return "signature must be 64 bytes"
    return None


def request_problem(request: VerificationRequest) -> str | None:
    mandate = getattr(request, "mandate", None)
    context = getattr(request, "context", None)
    if not isinstance(mandate, Mandate):
        return "mandate missing"
    if not isinstance(context, ExecutionContext):
        return "context missing"
    return mandate_problem(mandate) or context_problem(context)


# ---------------------------------------------------------------------------
# Issuance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IssuerKey:
    """An Ed25519 issuing identity. The seed is the 32-byte RFC 8032 secret."""

    key_id: str
    seed: bytes
    public_key: bytes

    @classmethod
    def generate(cls, key_id: str, rng=None) -> "IssuerKey":
        seed = rng.randbytes(SEED_LEN) if rng is not None else os.urandom(SEED_LEN)
        return cls.from_seed(key_id, seed)

    @classmethod
    def from_seed(cls, key_id: str, seed: bytes) -> "IssuerKey":
        if len(seed) != SEED_LEN:
            raise ValueError("seed must be 32 bytes")
        return cls(key_id=key_id, seed=seed, public_key=ENGINE.public_key(seed))

    def sign(self, message: bytes) -> bytes:
        return ENGINE.sign(self.seed, message)


def _hex_id(rng=None) -> str:
    if rng is not None:
        return "%032x" % rng.getrandbits(128)
    return os.urandom(16).hex()


def issue_mandate(key: IssuerKey, context: ExecutionContext,
                  payload: PaymentPayload, now: int, rng=None) -> Mandate:
    """Mint a fresh, signed mandate bound to ``context`` at time ``now`` (ms).

    ``rng`` (a ``random.Random``) makes id/nonce generation reproducible for
    simulations; production issuance leaves it unset and uses ``os.urandom``.
    """
    problem = context_problem(context)
    if problem is not None:
        raise ValueError(problem)
    mandate_id = _hex_id(rng)
    nonce = _hex_id(rng)
    context_hash = hash_context_fields(context)
    signature = key.sign(canonical_encode(mandate_id, nonce, now,
                                          context_hash, payload))
    return Mandate(mandate_id=mandate_id, nonce=nonce, issued_at=now,
                   context_hash=context_hash, payload=payload,
                   key_id=key.key_id, signature=signature)


def verify_signature(mandate: Mandate, public_key: bytes) -> bool:
    """Whether ``mandate.signature`` is ``public_key``'s signature of the
    mandate, by libsodium's rule: a key or an R that is one of
    ``WEAK_ENCODINGS`` is refused before the engine is asked."""
    signature = mandate.signature
    # refused here too, so that the rule is the same on every libsodium
    # version.  ``ENGINE.verify`` is looked up on every call, never bound
    # once: a probe or a test may replace the engine or its verify
    return (public_key not in WEAK_ENCODINGS
            and signature[:32] not in WEAK_ENCODINGS
            and ENGINE.verify(public_key, signature, signing_bytes(mandate)))


# ---------------------------------------------------------------------------
# Wire format: JSON with no repeated name in any object, exact name sets and
# a base64 signature; field types and contents are left to request_problem
# ---------------------------------------------------------------------------

def _unique_names(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a repeated name is a
    WireFormatError.  RFC 8259 §4 leaves such an object's meaning to the
    reader: the gateway forwards the body it verified, and an upstream that
    keeps the first of two members where json keeps the last would read
    another request; a file would lose a key or a setting unseen."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise WireFormatError(f"repeated name {name!r} in a JSON object")
            seen.add(name)
    return obj


# one decoder for every input, shared by the gateway's handler threads as
# json's own _default_decoder is: a decode keeps no state between calls
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_names)


def decode_json(data: bytes):
    """The JSON value of ``data``, as ``json.loads(data,
    object_pairs_hook=_unique_names)`` decodes it, and raising what it
    raises, without building a decoder per call."""
    return _DECODER.decode(data.decode(json.detect_encoding(data),
                                       "surrogatepass"))


_REQUEST_KEYS = frozenset({"mandate", "context"})
_MANDATE_KEYS = frozenset(
    {"mandate_id", "nonce", "issued_at", "context_hash", "payload",
     "key_id", "signature"})
_PAYLOAD_KEYS = frozenset({"amount", "currency"})
_CONTEXT_KEYS = frozenset(CONTEXT_FIELDS)


def request_to_wire(request: VerificationRequest) -> dict:
    mandate, context = request.mandate, request.context
    return {
        "mandate": {
            "mandate_id": mandate.mandate_id,
            "nonce": mandate.nonce,
            "issued_at": mandate.issued_at,
            "context_hash": mandate.context_hash,
            "payload": {
                "amount": mandate.payload.amount,
                "currency": mandate.payload.currency,
            },
            "key_id": mandate.key_id,
            "signature": base64.b64encode(mandate.signature).decode("ascii"),
        },
        "context": {
            "task_id": context.task_id,
            "agent_id": context.agent_id,
            "merchant_id": context.merchant_id,
            "scope": context.scope,
        },
    }


def request_from_wire(obj: Any) -> VerificationRequest:
    """The request that ``obj``, a value as json.loads gives it, spells.

    Raises WireFormatError unless the request, its mandate, the mandate's
    payload and the context are objects with exactly their names, and the
    signature is base64.
    """
    try:
        mandate, context = obj["mandate"], obj["context"]
        payload = mandate["payload"]
        # a dict's keys() compares with a frozenset building no set
        exact = (obj.keys() == _REQUEST_KEYS
                 and mandate.keys() == _MANDATE_KEYS
                 and payload.keys() == _PAYLOAD_KEYS
                 and context.keys() == _CONTEXT_KEYS)
    except (LookupError, TypeError, AttributeError):
        exact = False  # something that is not an object where one must be
    if not exact:
        raise WireFormatError("request must be a mandate, its payload and a "
                              "context, each an object with exactly its names")
    try:
        signature = base64.b64decode(mandate["signature"], validate=True)
    except (ValueError, TypeError) as exc:
        raise WireFormatError("mandate.signature is not valid base64") from exc
    return VerificationRequest(
        Mandate(mandate["mandate_id"], mandate["nonce"], mandate["issued_at"],
                mandate["context_hash"],
                PaymentPayload(payload["amount"], payload["currency"]),
                mandate["key_id"], signature),
        ExecutionContext(**context))


# ---------------------------------------------------------------------------
# Keystore
# ---------------------------------------------------------------------------

class Keystore:
    """Maps key_id to a raw 32-byte Ed25519 public key."""

    def __init__(self, keys: Mapping[str, bytes] | None = None):
        self._keys: dict[str, bytes] = {}
        if keys:
            for key_id, public in keys.items():
                self.add(key_id, public)

    def add(self, key_id: str, public_key: bytes) -> None:
        """Raises ValueError for an empty key_id, and for a key that is not
        32 bytes, encodes y non-canonically or is a point of small order."""
        if not isinstance(key_id, str) or not key_id:
            raise ValueError("key_id must be a non-empty string")
        problem = public_key_problem(public_key)
        if problem is not None:
            raise ValueError(problem)
        self._keys[key_id] = public_key

    def lookup(self, key_id: str) -> bytes | None:
        return self._keys.get(key_id)

    def __len__(self) -> int:
        return len(self._keys)

    @classmethod
    def for_issuers(cls, *issuers: IssuerKey) -> "Keystore":
        return cls({k.key_id: k.public_key for k in issuers})

    @classmethod
    def from_file(cls, path) -> "Keystore":
        """Load a JSON object mapping key_id to base64 public key; a
        WireFormatError names the first entry that ``add`` refuses."""
        with open(path, "rb") as fh:
            obj = decode_json(fh.read())
        if not isinstance(obj, dict):
            raise WireFormatError("keystore must be a JSON object")
        keystore = cls()
        for key_id, encoded in obj.items():
            try:
                keystore.add(key_id, base64.b64decode(encoded, validate=True))
            except (ValueError, TypeError) as exc:
                raise WireFormatError(f"keystore[{key_id!r}]: {exc}") from exc
        return keystore

    def save(self, path) -> None:
        obj = {key_id: base64.b64encode(public).decode("ascii")
               for key_id, public in sorted(self._keys.items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
