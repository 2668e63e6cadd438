"""Seeded inputs for the ztrv benchmark, and the checker that judges answers.

Every request body is signed by one fixed issuer and is a pure function of
the workload, the seed and the request's index, so the same seed gives
byte-identical bodies.  Next to each body the generator records what the
program must answer (an ``Expect``); ``check`` compares every observed
answer with it and reconciles accepts with the merchant ledger.

Mandates are issued at fixed instants around ``ISSUE_EPOCH_MS`` rather than
at the wall-clock time of generation, which is what keeps bodies identical
across runs.  The HTTP workloads therefore run the gateway with a window
wide enough to span from that epoch to now (see ``http_window_s``).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import ztrv  # noqa: E402  (needs SRC on the path)

ISSUER_KEY_ID = "perfbench-issuer"
ISSUE_EPOCH_MS = 1_700_000_000_000

MERCHANTS = tuple(f"merchant-{i:02d}" for i in range(8))
SCOPES = ("/checkout/confirm", "/orders/place", "/subscriptions/renew",
          "/invoices/pay")
# disjoint from SCOPES, so a redirected scope always differs
ROGUE_SCOPES = ("/payouts/transfer", "/refunds/issue", "/admin/export")
CURRENCIES = ("USD", "EUR", "GBP")

# verify-churn runs on a virtual clock with one instant per millisecond and
# a 100 s window, so the registry holds CHURN_LIVE live nonces.  Before the
# timed verifies it is filled with CHURN_LIVE nonces claimed at instants
# 0 .. CHURN_LIVE-1 (``churn_fill_keys``); pool mandate j is issued, and
# verified, at instant CHURN_LIVE + j, so every timed verify evicts about as
# many old nonces as it adds.
CHURN_STEP_MS = 1
CHURN_WINDOW_S = 100.0
CHURN_LIVE = int(CHURN_WINDOW_S * 1000) // CHURN_STEP_MS
CHURN_POOL = 100_000

# gateway-replay-storm: the share of each kind of request in the schedule
STORM_MIX = (
    ("replay", 30),           # same-context resends; first use is legitimate
    ("cross-context", 12),    # harvested mandate spent at another merchant
    ("scope-redirect", 12),   # right merchant, different scope
    ("bad-signature", 12),
    ("unknown-key", 10),
    ("stale", 12),            # issued long before the window
    ("unparseable", 12),
)
STORM_VARIANTS_PER_KIND = 32


class Expect(NamedTuple):
    """What the program must answer for one request.

    ``status`` is the HTTP status (in-process runs map ACCEPT to 200 and
    REJECT to 403).  Requests with the same ``group`` >= 0 are resends of
    one mandate: exactly one of them is accepted, the others are replays.
    """

    status: int
    reason: str
    mandate_id: str
    group: int = -1


AUTHORIZED = "Authorized"
REPLAY = "ReplayDetected"


def issuer() -> ztrv.IssuerKey:
    seed = hashlib.sha256(ISSUER_KEY_ID.encode()).digest()
    return ztrv.IssuerKey.from_seed(ISSUER_KEY_ID, seed)


def write_keystore(path: Path) -> None:
    ztrv.Keystore.for_issuers(issuer()).save(path)


def http_window_s() -> float:
    """Gateway window that keeps every generated mandate fresh for a day."""
    return (time.time() * 1000 - ISSUE_EPOCH_MS) / 1000 + 86_400.0


def _context(rng: random.Random, task_id: str) -> ztrv.ExecutionContext:
    return ztrv.ExecutionContext(
        task_id=task_id,
        agent_id=f"agent-{rng.randrange(64):04d}",
        merchant_id=rng.choice(MERCHANTS),
        scope=rng.choice(SCOPES),
    )


def _mandate(key, rng: random.Random, context, issued_at: int):
    payload = ztrv.PaymentPayload(amount=rng.randrange(100, 50_000),
                                  currency=rng.choice(CURRENCIES))
    return ztrv.issue_mandate(key, context, payload, now=issued_at, rng=rng)


def encode(mandate, context) -> bytes:
    request = ztrv.VerificationRequest(mandate=mandate, context=context)
    return json.dumps(ztrv.request_to_wire(request),
                      separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Fresh, valid mandates (gateway-checkout and verify-churn)
# ---------------------------------------------------------------------------

def legit_requests(workload: str, seed: int, n: int, step_ms: int = 0,
                   first_ms: int = 0) -> tuple[list[bytes], list[Expect]]:
    """``n`` fresh valid mandates; mandate ``i`` is issued at
    ISSUE_EPOCH_MS + first_ms + i * step_ms."""
    key = issuer()
    rng = random.Random(f"{workload}:{seed}")
    bodies: list[bytes] = []
    expects: list[Expect] = []
    for i in range(n):
        context = _context(rng, f"{workload}-{seed}-{i:07d}")
        mandate = _mandate(key, rng, context,
                           ISSUE_EPOCH_MS + first_ms + i * step_ms)
        bodies.append(encode(mandate, context))
        expects.append(Expect(200, AUTHORIZED, mandate.mandate_id))
    return bodies, expects


def churn_fill_keys(seed: int):
    """(registry key, claim instant) of the nonces that fill verify-churn's
    registry to its live size; keys look like the verifier's own."""
    for j in range(CHURN_LIVE):
        yield f"nonce:fill{seed % 10**8:08d}{j:020d}", ISSUE_EPOCH_MS + j * CHURN_STEP_MS


# ---------------------------------------------------------------------------
# gateway-replay-storm
# ---------------------------------------------------------------------------

def storm_variants(seed: int) -> tuple[list[bytes], list[Expect], list[str]]:
    """The distinct bodies of the storm, their expectations and their kinds."""
    rng = random.Random(f"storm:{seed}")
    key = issuer()
    k = STORM_VARIANTS_PER_KIND
    bodies: list[bytes] = []
    expects: list[Expect] = []
    kinds: list[str] = []

    def add(kind: str, body: bytes, expect: Expect) -> None:
        bodies.append(body)
        expects.append(expect)
        kinds.append(kind)

    for g in range(k):
        context = _context(rng, f"storm-{seed}-replay-{g:03d}")
        mandate = _mandate(key, rng, context, ISSUE_EPOCH_MS + g)
        add("replay", encode(mandate, context),
            Expect(403, REPLAY, mandate.mandate_id, group=g))

    # harvested mandates: valid, but never presented in their own context
    harvested = []
    for h in range(k):
        context = _context(rng, f"storm-{seed}-harvest-{h:03d}")
        harvested.append((_mandate(key, rng, context, ISSUE_EPOCH_MS + k + h),
                          context))
    for mandate, context in harvested:
        other = [m for m in MERCHANTS if m != context.merchant_id]
        moved = replace(context, merchant_id=rng.choice(other))
        add("cross-context", encode(mandate, moved),
            Expect(403, "ContextMismatch", mandate.mandate_id))
    for mandate, context in harvested:
        redirected = replace(context, scope=rng.choice(ROGUE_SCOPES))
        add("scope-redirect", encode(mandate, redirected),
            Expect(403, "ContextMismatch", mandate.mandate_id))
    for mandate, context in harvested:
        sig = bytearray(mandate.signature)
        sig[rng.randrange(len(sig))] ^= 1 << rng.randrange(8)
        add("bad-signature", encode(replace(mandate, signature=bytes(sig)),
                                    context),
            Expect(403, "InvalidSignature", mandate.mandate_id))
    for h, (mandate, context) in enumerate(harvested):
        rogue = replace(mandate, key_id=f"rogue-issuer-{h:02d}")
        add("unknown-key", encode(rogue, context),
            Expect(403, "InvalidSignature", mandate.mandate_id))

    for s in range(k):
        context = _context(rng, f"storm-{seed}-stale-{s:03d}")
        # 30 days before the epoch: outside any window http_window_s gives
        issued_at = ISSUE_EPOCH_MS - 30 * 86_400_000 - s
        mandate = _mandate(key, rng, context, issued_at)
        add("stale", encode(mandate, context),
            Expect(403, "MandateExpired", mandate.mandate_id))

    template = bodies[0]
    garbage = [
        b"", b"{", b"not json", b"[]", b"\xff\xfe\x00",
        b'{"mandate": 1, "context": 2}',
        template.replace(b'"issued_at":', b'"issued_at":"', 1),
        template.replace(b'{"mandate":', b'{"extra":0,"mandate":', 1),
    ]
    while len(garbage) < k:
        garbage.append(template[:rng.randrange(1, len(template))])
    for body in garbage:
        add("unparseable", body, Expect(403, "MalformedRequest", ""))
    return bodies, expects, kinds


def storm_schedule(seed: int, kinds: list[str], n: int) -> list[int]:
    """``n`` variant indices drawn with the STORM_MIX weights."""
    rng = random.Random(f"storm-schedule:{seed}")
    by_kind: dict[str, list[int]] = {}
    for index, kind in enumerate(kinds):
        by_kind.setdefault(kind, []).append(index)
    names = [name for name, _ in STORM_MIX]
    picks = rng.choices(names, weights=[w for _, w in STORM_MIX], k=n)
    return [rng.choice(by_kind[name]) for name in picks]


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

def answer_of(status: int, body: bytes) -> tuple[str, str]:
    """(reason, mandate_id) from a gateway response body.

    A 200 is the merchant's acknowledgement of an accepted mandate; every
    other answer carries the gateway's decision.
    """
    try:
        obj = json.loads(body)
    except ValueError:
        return "", ""
    if not isinstance(obj, dict):
        return "", ""
    if status == 200:
        return AUTHORIZED, str(obj.get("fulfilled", ""))
    return str(obj.get("reason", "")), str(obj.get("mandate_id", ""))


def matches(expect: Expect, status: int, reason: str, mandate_id: str) -> bool:
    if mandate_id != expect.mandate_id:
        return False
    if expect.group >= 0 and (status, reason) == (200, AUTHORIZED):
        return True  # the one accept of a replay group is judged per group
    return (status, reason) == (expect.status, expect.reason)


class Verdict(NamedTuple):
    attempted: int
    failed: int
    accepted: int
    problems: list[str]


def check(expects: list[Expect],
          observed: list[tuple[int, int, str, str]],
          ledger: list[str] | None = None) -> Verdict:
    """Judge ``(expect index, status, reason, mandate_id)`` answers.

    A request fails on a transport error (status 0), an unexpected status
    or a decision that differs from its expectation.  Each replay group
    that was sent must have exactly one accept.  When a ledger is given,
    it must hold each accepted mandate exactly once and nothing else; each
    mandate id on which the two disagree counts as one more failure.
    """
    failed = 0
    problems: list[str] = []

    def note(problem: str) -> None:
        if len(problems) < 10:
            problems.append(problem)

    accepted: Counter = Counter()
    group_accepts: Counter = Counter()
    groups_sent: set[int] = set()
    for index, status, reason, mandate_id in observed:
        expect = expects[index]
        if status == 200:
            accepted[mandate_id] += 1
        if expect.group >= 0:
            groups_sent.add(expect.group)
            if status == 200:
                group_accepts[expect.group] += 1
        if not matches(expect, status, reason, mandate_id):
            failed += 1
            note(f"request {index}: expected {tuple(expect)}, "
                 f"got {(status, reason, mandate_id)}")
    for group in sorted(groups_sent):
        if group_accepts[group] != 1:
            failed += max(1, group_accepts[group] - 1)
            note(f"replay group {group}: {group_accepts[group]} accepts, "
                 "expected 1")
    if ledger is not None:
        recorded = Counter(ledger)
        for mandate_id in sorted(set(recorded) | set(accepted)):
            if recorded[mandate_id] != 1 or accepted[mandate_id] != 1:
                failed += 1
                note(f"ledger: {mandate_id!r} recorded {recorded[mandate_id]}x, "
                     f"accepted {accepted[mandate_id]}x")
    return Verdict(len(observed), failed, sum(accepted.values()), problems)

