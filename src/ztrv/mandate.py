"""Mandate domain model: context hashing, canonical encoding, issuance, wire codecs.

A mandate is a signed, single-use payment authorization bound to the
execution context it was issued for.  Everything the verifier checks is
derived from the byte encodings defined here, so the encodings are strict:
length-prefixed framing (no delimiter ambiguity), lowercase hex for ids and
digests, and exact field sets on the wire.
"""

from __future__ import annotations

import base64
import json
import os
import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

# CPython's own SHA-256, which hashlib falls back to: it loads no OpenSSL
# and holds the GIL on short inputs, so a verify releases the GIL only for
# the Ed25519 check
try:
    from _sha256 import sha256  # CPython 3.11
except ImportError:
    from _sha2 import sha256  # CPython 3.12 on

from ._ed25519 import ENGINE, PUBLIC_KEY_LEN, SEED_LEN, SIGNATURE_LEN

CONTEXT_FIELDS = ("task_id", "agent_id", "merchant_id", "scope")

_HEX_ID_RE = re.compile(r"[0-9a-f]{32}")
_HEX_DIGEST_RE = re.compile(r"[0-9a-f]{64}")
_CURRENCY_RE = re.compile(r"[A-Z]{3}")


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
    if not isinstance(mandate.mandate_id, str) or not _HEX_ID_RE.fullmatch(mandate.mandate_id):
        return "mandate_id must be 32 lowercase hex chars"
    if not isinstance(mandate.nonce, str) or not _HEX_ID_RE.fullmatch(mandate.nonce):
        return "nonce must be 32 lowercase hex chars"
    if not isinstance(mandate.issued_at, int) or isinstance(mandate.issued_at, bool) \
            or mandate.issued_at < 0:
        return "issued_at must be a non-negative integer"
    if not isinstance(mandate.context_hash, str) or not _HEX_DIGEST_RE.fullmatch(mandate.context_hash):
        return "context_hash must be 64 lowercase hex chars"
    payload = mandate.payload
    if not isinstance(payload, PaymentPayload):
        return "payload missing"
    if not isinstance(payload.amount, int) or isinstance(payload.amount, bool) \
            or payload.amount < 0:
        return "payload.amount must be a non-negative integer"
    if not isinstance(payload.currency, str) or not _CURRENCY_RE.fullmatch(payload.currency):
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
    return ENGINE.verify(public_key, mandate.signature, signing_bytes(mandate))


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
        if not isinstance(key_id, str) or not key_id:
            raise ValueError("key_id must be a non-empty string")
        if not isinstance(public_key, bytes) or len(public_key) != PUBLIC_KEY_LEN:
            raise ValueError("public key must be 32 raw bytes")
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
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise WireFormatError("keystore must be a JSON object")
        keys = {}
        for key_id, encoded in obj.items():
            if not isinstance(encoded, str):
                raise WireFormatError(f"keystore[{key_id!r}] must be a base64 string")
            try:
                public = base64.b64decode(encoded, validate=True)
            except (ValueError, TypeError) as exc:
                raise WireFormatError(f"keystore[{key_id!r}] is not valid base64") from exc
            if len(public) != PUBLIC_KEY_LEN:
                raise WireFormatError(f"keystore[{key_id!r}] must decode to 32 bytes")
            keys[key_id] = public
        return cls(keys)

    def save(self, path) -> None:
        obj = {key_id: base64.b64encode(public).decode("ascii")
               for key_id, public in sorted(self._keys.items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Wire codecs (strict JSON shapes: exact key sets, base64 signature; field
# types and contents are left to request_problem)
# ---------------------------------------------------------------------------

_MANDATE_KEYS = frozenset(
    {"mandate_id", "nonce", "issued_at", "context_hash", "payload",
     "key_id", "signature"})
_PAYLOAD_KEYS = frozenset({"amount", "currency"})
_CONTEXT_KEYS = frozenset(CONTEXT_FIELDS)
_REQUEST_KEYS = frozenset({"mandate", "context"})


def _require_keys(obj: Any, expected: frozenset, label: str) -> dict:
    if not isinstance(obj, dict):
        raise WireFormatError(f"{label} must be a JSON object")
    got = set(obj)
    if got != expected:
        unknown = sorted(got - expected)
        missing = sorted(expected - got)
        parts = []
        if unknown:
            parts.append(f"unknown keys {unknown}")
        if missing:
            parts.append(f"missing keys {missing}")
        raise WireFormatError(f"{label}: " + ", ".join(parts))
    return obj


def mandate_to_wire(mandate: Mandate) -> dict:
    return {
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
    }


def mandate_from_wire(obj: Any) -> Mandate:
    obj = _require_keys(obj, _MANDATE_KEYS, "mandate")
    payload_obj = _require_keys(obj["payload"], _PAYLOAD_KEYS, "payload")
    try:
        signature = base64.b64decode(obj["signature"], validate=True)
    except (ValueError, TypeError) as exc:
        raise WireFormatError("mandate.signature is not valid base64") from exc
    return Mandate(
        mandate_id=obj["mandate_id"],
        nonce=obj["nonce"],
        issued_at=obj["issued_at"],
        context_hash=obj["context_hash"],
        payload=PaymentPayload(amount=payload_obj["amount"],
                               currency=payload_obj["currency"]),
        key_id=obj["key_id"],
        signature=signature,
    )


def context_to_wire(context: ExecutionContext) -> dict:
    return {
        "task_id": context.task_id,
        "agent_id": context.agent_id,
        "merchant_id": context.merchant_id,
        "scope": context.scope,
    }


def context_from_wire(obj: Any) -> ExecutionContext:
    obj = _require_keys(obj, _CONTEXT_KEYS, "context")
    return ExecutionContext(**obj)


def request_to_wire(request: VerificationRequest) -> dict:
    return {
        "mandate": mandate_to_wire(request.mandate),
        "context": context_to_wire(request.context),
    }


def request_from_wire(obj: Any) -> VerificationRequest:
    obj = _require_keys(obj, _REQUEST_KEYS, "request")
    return VerificationRequest(
        mandate=mandate_from_wire(obj["mandate"]),
        context=context_from_wire(obj["context"]),
    )
