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
build their configs in Python; the gateway always runs Mode.FULL.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

from .mandate import (
    Keystore,
    VerificationRequest,
    hash_context_fields,
    request_problem,
    verify_signature,
)
from .registry import NonceRegistry

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
class StageTimings:
    """Per-stage wall time in nanoseconds; stages that did not run report 0.

    ``total_ns`` is measured end to end and also covers parse and dispatch
    overhead, so it can exceed the sum of the stage fields.
    """

    signature_ns: int = 0
    context_ns: int = 0
    registry_ns: int = 0
    total_ns: int = 0


@dataclass(frozen=True)
class Decision:
    """What the pipeline decided, and how long each stage took to decide it.

    The outcome follows from the reason: ACCEPT iff Authorized.  ``timings``
    is a measurement, not part of the decision: decisions compare equal
    without it, and it is left out of the wire form.
    """

    reason: Reason
    mandate_id: str
    timings: StageTimings = field(compare=False)

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
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.skew_tolerance < 0:
            raise ValueError("skew_tolerance must be non-negative")

    @property
    def window_ms(self) -> int:
        return int(round(self.window * 1000))

    @property
    def skew_ms(self) -> int:
        return int(round(self.skew_tolerance * 1000))

    @property
    def nonce_ttl_ms(self) -> int:
        """``window + 2*skew + 1`` ms.  A mandate can first be claimed at
        ``issued_at - skew`` and stays fresh through ``issued_at + window +
        skew``; its entry, dead at claim + TTL, must outlive that instant."""
        return self.window_ms + 2 * self.skew_ms + 1


def verify(request: VerificationRequest | None, now: int,
           config: VerifierConfig, registry: NonceRegistry,
           keystore: Keystore) -> Decision:
    """Run the pipeline at time ``now`` (unix ms); the decision carries the
    time each stage took.  ``request`` is whatever the caller has: stage 1
    rejects anything that is not a fully well-formed request, None included.
    """
    t_start = time.perf_counter_ns()
    signature_ns = 0
    context_ns = 0
    registry_ns = 0

    def done(reason: Reason, mandate_id: str) -> Decision:
        return Decision(reason=reason, mandate_id=mandate_id,
                        timings=StageTimings(
                            signature_ns=signature_ns,
                            context_ns=context_ns,
                            registry_ns=registry_ns,
                            total_ns=time.perf_counter_ns() - t_start,
                        ))

    # stage 1: shape. A request that cannot be fully validated is rejected
    # without looking at any of its contents, its mandate_id included.
    if request_problem(request) is not None:
        return done(Reason.MALFORMED_REQUEST, "")

    mandate = request.mandate

    # stage 2: signature over the canonical encoding, under the key named by
    # key_id. An unknown key_id is indistinguishable from a bad signature.
    t0 = time.perf_counter_ns()
    public_key = keystore.lookup(mandate.key_id)
    signature_ok = public_key is not None and verify_signature(mandate, public_key)
    signature_ns = time.perf_counter_ns() - t0
    if not signature_ok:
        return done(Reason.INVALID_SIGNATURE, mandate.mandate_id)

    # stage 3: freshness. Expired iff now > issued_at + window + skew, the
    # mandate's last fresh instant; equality is still fresh. Future-dating
    # beyond skew is also rejected.
    skew_ms = config.skew_ms
    last_fresh = mandate.issued_at + config.window_ms + skew_ms
    if now > last_fresh or mandate.issued_at - now > skew_ms:
        return done(Reason.MANDATE_EXPIRED, mandate.mandate_id)

    # stage 4: context binding. The hash is recomputed from the observed
    # context; the mandate's stored hash must match exactly.
    if config.mode.checks_context:
        t0 = time.perf_counter_ns()
        observed = hash_context_fields(request.context)
        context_ns = time.perf_counter_ns() - t0
        if observed != mandate.context_hash:
            return done(Reason.CONTEXT_MISMATCH, mandate.mandate_id)

    # stage 5: nonce consumption, the last stage so that a consumed nonce
    # always corresponds to an accepted request. The entry outlives the last
    # instant at which the mandate could pass stage 3. A claim the registry
    # can only take after that instant (another claim has already moved its
    # time past it, and may have swept this nonce) is stale, not a replay.
    if config.mode.checks_nonce:
        t0 = time.perf_counter_ns()
        claimed = registry.consume_once("nonce:" + mandate.nonce, now,
                                        config.nonce_ttl_ms, last_fresh)
        registry_ns = time.perf_counter_ns() - t0
        if claimed is None:
            return done(Reason.MANDATE_EXPIRED, mandate.mandate_id)
        if not claimed:
            return done(Reason.REPLAY_DETECTED, mandate.mandate_id)

    return done(Reason.AUTHORIZED, mandate.mandate_id)
