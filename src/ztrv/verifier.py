"""Fail-closed verification pipeline.

Stages run in a fixed order and short-circuit on the first failure:

  1. parse/shape      -> MalformedRequest
  2. signature        -> InvalidSignature   (unknown key_id included)
  3. freshness        -> MandateExpired     (stale or future-dated)
  4. context binding  -> ContextMismatch
  5. nonce consume    -> ReplayDetected

Only a request that passes every enabled stage is authorized; every other
path is an explicit rejection, and unexpected states reject rather than
accept.  Modes exist solely to ablate stages 4 and 5 in experiments, which
build their configs in Python.  A gateway whose config ``load_config`` read
always runs Mode.FULL; one built in Python runs the mode its VerifierConfig
names (acceptance criterion 8 builds a Mode.BASELINE gateway).

Stages 1-2 depend only on the request and the keystore (``check``), stages
3-5 on the time, the registry and the key stage 2 used (``admit``);
``verify`` runs both, and ``decide`` builds the decision from what ``check``
returned, for ``verify`` and for a caller that remembers it.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, fields
from enum import Enum

from .mandate import (
    Keystore,
    VerificationRequest,
    hash_context_fields,
    request_problem,
    verify_signature,
)
from .registry import MAX_TTL_MS, NonceRegistry

# threads the experiments verify on at once unless told otherwise; here, not
# in the harness, so that the command line can show it without loading that
DEFAULT_CONCURRENCY = 16


class Mode(Enum):
    BASELINE = "baseline"
    CONTEXT_ONLY = "context-only"
    NONCE_ONLY = "nonce-only"
    FULL = "full"

    @property
    def checks_context(self) -> bool:
        return self in (Mode.CONTEXT_ONLY, Mode.FULL)

    @property
    def checks_nonce(self) -> bool:
        return self in (Mode.NONCE_ONLY, Mode.FULL)


class Outcome(Enum):
    ACCEPT = "ACCEPT"
    REJECT = "REJECT"


class Reason(Enum):
    AUTHORIZED = "Authorized"
    MALFORMED_REQUEST = "MalformedRequest"
    INVALID_SIGNATURE = "InvalidSignature"
    MANDATE_EXPIRED = "MandateExpired"
    CONTEXT_MISMATCH = "ContextMismatch"
    REPLAY_DETECTED = "ReplayDetected"


@dataclass(frozen=True)
class Decision:
    """What the pipeline decided, and how long each stage took to decide it.

    The outcome follows from the reason: ACCEPT iff Authorized.  The
    ``*_ns`` fields are per-stage wall time in nanoseconds, 0 for a stage
    that did not run; ``total_ns`` is measured end to end and also covers
    parse and dispatch overhead, so it can exceed the sum of the others.
    They are measurements, not part of the decision: decisions compare equal
    without them, and they are left out of the wire form.
    """

    reason: Reason
    mandate_id: str
    signature_ns: int = field(default=0, compare=False)
    context_ns: int = field(default=0, compare=False)
    registry_ns: int = field(default=0, compare=False)
    total_ns: int = field(default=0, compare=False)

    @property
    def accepted(self) -> bool:
        return self.reason is Reason.AUTHORIZED

    @property
    def outcome(self) -> Outcome:
        return Outcome.ACCEPT if self.accepted else Outcome.REJECT

    def to_wire(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "reason": self.reason.value,
            "mandate_id": self.mandate_id,
        }


# Decision's timing fields, in declaration order
STAGE_TIMINGS = tuple(f.name for f in fields(Decision) if not f.compare)


@dataclass(frozen=True)
class VerifierConfig:
    """Verification policy.

    ``mode`` picks the stages that run (experiments only; see Mode).
    ``window`` (seconds) is the freshness horizon.  ``skew_tolerance``
    (seconds) widens acceptance on both sides to absorb clock skew between
    issuer and verifier; it defaults to zero (no skew allowance).  A consumed
    nonce is remembered for ``nonce_ttl_ms``, as long as its mandate could
    still pass the freshness check.
    """

    mode: Mode = Mode.FULL
    window: float = 60.0
    skew_tolerance: float = 0.0

    def __post_init__(self):
        # NaN passes the sign checks below, and a value whose milliseconds
        # overflow a float would only fail later, in stage 3 of every verify
        for name in ("window", "skew_tolerance"):
            if not math.isfinite(getattr(self, name) * 1000):
                raise ValueError(f"{name} must be finite")
        if self.window_ms < 1:
            raise ValueError("window must be at least 1 ms")
        if self.skew_tolerance < 0:
            raise ValueError("skew_tolerance must be non-negative")
        if self.nonce_ttl_ms > MAX_TTL_MS:
            raise ValueError("window + 2 * skew_tolerance must be under "
                             f"{MAX_TTL_MS // 1000} s")

    @functools.cached_property
    def window_ms(self) -> int:
        return int(round(self.window * 1000))

    @functools.cached_property
    def skew_ms(self) -> int:
        return int(round(self.skew_tolerance * 1000))

    @functools.cached_property
    def nonce_ttl_ms(self) -> int:
        """``window + 2*skew + 1`` ms.  A mandate can first be claimed at
        ``issued_at - skew`` and stays fresh through ``issued_at + window +
        skew``; its entry, dead at claim + TTL, must outlive that instant."""
        return self.window_ms + 2 * self.skew_ms + 1


def nonce_key(public_key: bytes, nonce: str) -> str:
    """The registry key a nonce is consumed under.  Scoped by the public key
    that verified the signature: each issuer picks its own nonces, so one
    issuer must not burn another's.  Never by key_id, which is not signed
    and may alias a key.  The key's hex is fixed-width, so no two (key,
    nonce) pairs share a string."""
    return "nonce:" + public_key.hex() + ":" + nonce


def check(request: VerificationRequest | None, keystore: Keystore,
          ) -> tuple[Reason | None, bytes | None, int]:
    """Run stages 1-2; returns the reason to reject with (None if both
    pass), the public key stage 2 checked the signature under, and the
    nanoseconds stage 2 took.  The key is the one ``key_id`` named at that
    moment, None if it named none or stage 1 rejected.  ``request`` is
    whatever the caller has: stage 1 rejects anything that is not a fully
    well-formed request, None included."""
    # stage 1: shape. A request that cannot be fully validated is rejected
    # without looking at any of its contents, its mandate_id included.
    if request_problem(request) is not None:
        return Reason.MALFORMED_REQUEST, None, 0

    # stage 2: signature over the canonical encoding, under the key named by
    # key_id, looked up once. An unknown key_id is indistinguishable from a
    # bad signature.
    mandate = request.mandate
    public_key = keystore.lookup(mandate.key_id)
    t0 = time.perf_counter_ns()
    signature_ok = (public_key is not None
                    and verify_signature(mandate, public_key))
    signature_ns = time.perf_counter_ns() - t0
    return (None if signature_ok else Reason.INVALID_SIGNATURE, public_key,
            signature_ns)


def admit(request: VerificationRequest, public_key: bytes, now: int,
          config: VerifierConfig,
          registry: NonceRegistry) -> tuple[Reason, int, int]:
    """Run stages 3-5 at time ``now`` (unix ms) on a request ``check``
    passed, with the public key ``check`` returned; returns the reason and
    the nanoseconds stages 4 and 5 took."""
    mandate = request.mandate
    # stage 3: freshness. Expired iff now > issued_at + window + skew, the
    # mandate's last fresh instant; equality is still fresh. Future-dating
    # beyond skew is also rejected.
    skew_ms = config.skew_ms
    last_fresh = mandate.issued_at + config.window_ms + skew_ms
    if now > last_fresh or mandate.issued_at - now > skew_ms:
        return Reason.MANDATE_EXPIRED, 0, 0

    # stage 4: context binding. The hash is recomputed from the observed
    # context; the mandate's stored hash must match exactly.
    context_ns = 0
    if config.mode.checks_context:
        t0 = time.perf_counter_ns()
        observed = hash_context_fields(request.context)
        context_ns = time.perf_counter_ns() - t0
        if observed != mandate.context_hash:
            return Reason.CONTEXT_MISMATCH, context_ns, 0

    # stage 5: nonce consumption, the last stage so that a consumed nonce
    # always corresponds to an accepted request. The entry outlives the last
    # instant at which the mandate could pass stage 3. A claim the registry
    # can only take after that instant (another claim has already moved its
    # time past it, and may have evicted this nonce) is stale, not a replay.
    if not config.mode.checks_nonce:
        return Reason.AUTHORIZED, context_ns, 0
    t0 = time.perf_counter_ns()
    claimed = registry.consume_once(nonce_key(public_key, mandate.nonce), now,
                                    config.nonce_ttl_ms, last_fresh)
    registry_ns = time.perf_counter_ns() - t0
    if claimed is None:
        return Reason.MANDATE_EXPIRED, context_ns, registry_ns
    if not claimed:
        return Reason.REPLAY_DETECTED, context_ns, registry_ns
    return Reason.AUTHORIZED, context_ns, registry_ns


def decide(request: VerificationRequest | None,
           checked: tuple[Reason | None, bytes | None, int], now: int,
           config: VerifierConfig, registry: NonceRegistry,
           started_ns: int) -> Decision:
    """The decision on ``request``, given what ``check`` returned for it:
    ``admit`` runs at ``now`` if ``check`` passed it.  ``total_ns`` counts
    from ``started_ns``, a ``time.perf_counter_ns()`` reading."""
    reason, public_key, signature_ns = checked
    context_ns = registry_ns = 0
    if reason is None:
        reason, context_ns, registry_ns = admit(request, public_key, now,
                                                config, registry)
    return Decision(
        reason=reason,
        # stage 1 reads nothing of a request it rejects
        mandate_id=("" if reason is Reason.MALFORMED_REQUEST
                    else request.mandate.mandate_id),
        signature_ns=signature_ns, context_ns=context_ns,
        registry_ns=registry_ns, total_ns=time.perf_counter_ns() - started_ns)


def verify(request: VerificationRequest | None, now: int,
           config: VerifierConfig, registry: NonceRegistry,
           keystore: Keystore) -> Decision:
    """Run the pipeline at time ``now`` (unix ms): ``check``, then ``admit``
    if it passed.  The decision carries the time each stage took."""
    started_ns = time.perf_counter_ns()
    return decide(request, check(request, keystore), now, config, registry,
                  started_ns)
