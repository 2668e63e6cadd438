"""Acceptance suite: one printed pass/fail line per criterion.

Each test exercises one headline property of the artifact end to end and
prints a single summary line to the real stdout (bypassing capture) before
asserting, so the verdicts are visible in any test log.
"""

import dataclasses
import json
import random
import threading
import time
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from ztrv import (
    ExecutionContext,
    GatewayConfig,
    Mode,
    MockMerchant,
    NonceRegistry,
    Outcome,
    PaymentPayload,
    Reason,
    VerificationRequest,
    VerifierConfig,
    ZtrvGateway,
    attack_eval,
    capacity_probe,
    interception_matrix,
    issue_mandate,
    request_to_wire,
    throughput_bench,
    ttl_sweep,
    verify,
)
from ztrv.cli import main as cli_main
from ztrv.registry import PER_ENTRY_BYTES

NOW = 1_700_000_000_000
FULL = VerifierConfig(mode=Mode.FULL, window=60.0)


@pytest.fixture
def report(capfd):
    """Print one verdict line per criterion on the real stdout."""
    def _report(num: int, label: str, problems: list[str], detail: str,
                elapsed: float) -> None:
        status = "PASS" if not problems else "FAIL"
        suffix = detail if not problems else "; ".join(problems[:4])
        with capfd.disabled():
            print(f"\n[acceptance {num}] {status} {label}: {suffix} "
                  f"({elapsed:.1f}s)", flush=True)
        assert not problems, f"criterion {num} ({label}): {problems}"
    return _report


def _request(task_id: str, issuer, *, merchant="merchant-01", scope="payment",
             issued_at=NOW, amount=4999) -> VerificationRequest:
    context = ExecutionContext(task_id=task_id, agent_id="agent-1",
                               merchant_id=merchant, scope=scope)
    mandate = issue_mandate(issuer, context, PaymentPayload(amount, "USD"),
                            issued_at)
    return VerificationRequest(context=context, mandate=mandate)


# ---------------------------------------------------------------------------
# 1. attack interception and false positives, full vs baseline
# ---------------------------------------------------------------------------

def test_criterion_1_attack_interception(tmp_path, report):
    t0 = time.monotonic()
    problems = []
    results = {}
    for mode in ("full", "baseline"):
        out = tmp_path / mode
        rc = cli_main(["attack-eval", "--mode", mode, "--n", "5000",
                       "--out", str(out), "--fixed-name"])
        if rc != 0:
            problems.append(f"{mode}: exit code {rc}")
            continue
        obj = json.loads((out / "attack_eval_report.json").read_text())
        results[mode] = obj["reports"]

    expected_interception = {"full": 1.0, "baseline": 0.0}
    for mode, reports in results.items():
        if len(reports) != 3:
            problems.append(f"{mode}: {len(reports)} scenarios")
            continue
        for row in reports:
            name = f"{mode}/{row['scenario']}"
            if row["interception_rate"] != expected_interception[mode]:
                problems.append(
                    f"{name}: interception {row['interception_rate']}")
            if row["false_positive_rate"] != 0.0:
                problems.append(f"{name}: fpr {row['false_positive_rate']}")
            if row["legit_accepted"] != row["legit_sent"]:
                problems.append(f"{name}: dropped legit requests")

    elapsed = time.monotonic() - t0
    if elapsed >= 30:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    report(1, "attack interception (n=5000)", problems,
            "full=100.00% x3 scenarios, baseline=0.00%, fpr=0.00%", elapsed)


# ---------------------------------------------------------------------------
# 2. ablation matrix over all four modes
# ---------------------------------------------------------------------------

GOLDEN_MATRIX = {
    "baseline": {"same-context-replay": 0.0, "cross-context-replay": 0.0,
                 "context-redirect": 0.0},
    "context-only": {"same-context-replay": 0.0, "cross-context-replay": 1.0,
                     "context-redirect": 1.0},
    "nonce-only": {"same-context-replay": 1.0, "cross-context-replay": 0.0,
                   "context-redirect": 0.0},
    "full": {"same-context-replay": 1.0, "cross-context-replay": 1.0,
             "context-redirect": 1.0},
}


def test_criterion_2_ablation_matrix(report):
    t0 = time.monotonic()
    problems = []
    reports = attack_eval(list(Mode), n=1000, seed=42, replay_count=100,
                          concurrency=16)
    matrix = interception_matrix(reports)
    if matrix != GOLDEN_MATRIX:
        problems.append(f"matrix mismatch: {matrix}")
    for row in reports:
        if row.false_positive_rate != 0.0:
            problems.append(f"{row.mode}/{row.scenario}: fpr nonzero")

    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    report(2, "ablation matrix", problems,
            "4x3 interception matrix exact: baseline(0,0,0) "
            "context-only(0,1,1) nonce-only(1,0,0) full(1,1,1)", elapsed)


# ---------------------------------------------------------------------------
# 3. TTL sweep: linear growth then plateau, memory estimate
# ---------------------------------------------------------------------------

def test_criterion_3_ttl_sweep(report):
    t0 = time.monotonic()
    problems = []
    windows = [5.0, 30.0, 60.0, 300.0]
    points = ttl_sweep(windows, rate=10_000, duration=10, seed=42)

    for point in points:
        expected = 10_000 * min(point.window, 10.0)
        if abs(point.peak_entries - expected) > 0.05 * expected:
            problems.append(f"window {point.window:g}: peak "
                            f"{point.peak_entries} vs expected {expected:g}")
    plateau = points[1:]
    if len({p.peak_entries for p in plateau}) != 1:
        problems.append(
            f"plateau peaks differ: {[p.peak_entries for p in plateau]}")
    plateau_bytes = 100_000 * PER_ENTRY_BYTES
    for point in plateau:
        if abs(point.bytes_estimate - plateau_bytes) > 0.1 * plateau_bytes:
            problems.append(f"window {point.window:g}: bytes "
                            f"{point.bytes_estimate} outside "
                            f"{plateau_bytes / 1e6:.2f}MB +-10%")

    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    peaks = ", ".join(f"{p.window:g}s->{p.peak_entries}" for p in points)
    report(3, "ttl sweep", problems,
            f"peaks {peaks}; plateau {plateau_bytes / 1e6:.2f}MB at "
            f"{PER_ENTRY_BYTES}B/entry", elapsed)


# ---------------------------------------------------------------------------
# 4. exactly one accept under concurrent identical submissions
# ---------------------------------------------------------------------------

def test_criterion_4_exactly_one_accept(issuer, keystore, report):
    t0 = time.monotonic()
    problems = []
    trials_by_n = {2: 600, 16: 300, 256: 104}
    total_trials = 0
    violations = 0
    rng = random.Random(0xC4)

    for n, trials in trials_by_n.items():
        expected = Counter({Reason.AUTHORIZED: 1, Reason.REPLAY_DETECTED: n - 1})
        barrier = threading.Barrier(n)
        with ThreadPoolExecutor(max_workers=n) as pool:
            for trial in range(trials):
                request = _request(f"task-c4-{n}-{trial}", issuer)

                serial_registry = NonceRegistry()
                serial = Counter(
                    verify(request, NOW, FULL, serial_registry, keystore).reason
                    for _ in range(n))

                registry = NonceRegistry()
                jitter = [rng.random() * 5e-5 for _ in range(n)]

                def attempt(delay):
                    barrier.wait()
                    time.sleep(delay)
                    return verify(request, NOW, FULL, registry, keystore).reason

                futures = [pool.submit(attempt, jitter[i]) for i in range(n)]
                concurrent = Counter(f.result() for f in futures)

                total_trials += 1
                if serial != expected or concurrent != expected:
                    violations += 1
                    if len(problems) < 3:
                        problems.append(
                            f"N={n} trial {trial}: serial={dict(serial)} "
                            f"concurrent={dict(concurrent)}")

    if total_trials < 1000:
        problems.append(f"only {total_trials} trials")
    if violations:
        problems.insert(0, f"{violations} violations")
    elapsed = time.monotonic() - t0
    report(4, "exactly-one-accept", problems,
            f"{total_trials} trials (N=2,16,256), 1 accept + N-1 "
            f"replay-detected in every trial, matches serial oracle", elapsed)


# ---------------------------------------------------------------------------
# 5. replay-window closure across the offset sweep
# ---------------------------------------------------------------------------

def test_criterion_5_replay_window_closure(issuer, keystore, report):
    t0 = time.monotonic()
    problems = []
    checked = 0
    second_accepts = 0

    for window_s in (60, 5):
        config = VerifierConfig(mode=Mode.FULL, window=float(window_s))
        window_ms = window_s * 1000
        for step in range(3 * window_s * 10 + 1):  # offsets 0..3*window, 0.1s
            offset_ms = step * 100
            request = _request(f"task-c5-{window_s}-{step}", issuer)
            registry = NonceRegistry()

            first = verify(request, NOW + 1, config, registry, keystore)
            if first.reason is not Reason.AUTHORIZED:
                problems.append(f"w={window_s} step {step}: first use "
                                f"rejected ({first.reason.value})")
                continue

            again = verify(request, NOW + 1 + offset_ms, config, registry,
                           keystore)
            checked += 1
            if again.outcome is Outcome.ACCEPT:
                second_accepts += 1
                if len(problems) < 3:
                    problems.append(
                        f"w={window_s} offset {offset_ms}ms: second ACCEPT")
                continue
            expected = (Reason.REPLAY_DETECTED
                        if offset_ms + 1 <= window_ms else
                        Reason.MANDATE_EXPIRED)
            if again.reason is not expected:
                if len(problems) < 3:
                    problems.append(
                        f"w={window_s} offset {offset_ms}ms: "
                        f"{again.reason.value}, expected {expected.value}")

    if second_accepts:
        problems.insert(0, f"{second_accepts} second accepts")
    elapsed = time.monotonic() - t0
    report(5, "replay-window closure", problems,
            f"{checked} replay offsets over [0, 3*window] for windows 60s "
            f"and 5s, zero second accepts, replay-detected within the "
            f"window and mandate-expired beyond", elapsed)


# ---------------------------------------------------------------------------
# 6. rejected requests leave the registry untouched
# ---------------------------------------------------------------------------

def test_criterion_6_side_effect_isolation(issuer, keystore, report):
    t0 = time.monotonic()
    problems = []
    registry = NonceRegistry()
    rng = random.Random(0xC6)
    for i in range(500):
        registry.consume_once(f"nonce:{rng.getrandbits(128):032x}", NOW,
                              10 ** 9)
    snapshot = registry._records()

    mutations = 0
    for i in range(10_000):
        kind = rng.randrange(3)
        request = _request(f"task-c6-{i}", issuer)
        if kind == 0:  # signature failure
            mandate = request.mandate
            if rng.randrange(2):
                sig = bytes([mandate.signature[0] ^ 1]) + mandate.signature[1:]
                mandate = dataclasses.replace(mandate, signature=sig)
            else:
                mandate = dataclasses.replace(
                    mandate, payload=PaymentPayload(1, "USD"))
            request = VerificationRequest(context=request.context,
                                          mandate=mandate)
            expected = Reason.INVALID_SIGNATURE
        elif kind == 1:  # freshness failure: stale or future-dated
            if rng.randrange(2):
                issued = NOW - 60_001 - rng.randrange(10 ** 6)
            else:
                issued = NOW + 1 + rng.randrange(10 ** 6)
            request = _request(f"task-c6-{i}", issuer, issued_at=issued)
            expected = Reason.MANDATE_EXPIRED
        else:  # context mismatch
            moved = dataclasses.replace(request.context,
                                        merchant_id="merchant-99")
            request = VerificationRequest(context=moved,
                                          mandate=request.mandate)
            expected = Reason.CONTEXT_MISMATCH

        decision = verify(request, NOW, FULL, registry, keystore)
        if decision.outcome is not Outcome.REJECT or decision.reason is not expected:
            if len(problems) < 3:
                problems.append(f"request {i}: {decision.reason.value}, "
                                f"expected {expected.value}")
        if registry._records() != snapshot:
            mutations += 1
            if len(problems) < 3:
                problems.append(f"request {i}: registry mutated")
            snapshot = registry._records()

    if registry.stats().live_count != 500:
        problems.append(f"live_count {registry.stats().live_count} != 500")
    if mutations:
        problems.insert(0, f"{mutations} registry mutations")
    elapsed = time.monotonic() - t0
    report(6, "side-effect isolation", problems,
            "10000 signature/freshness/context rejections left all 500 "
            "pre-existing registry entries byte-identical", elapsed)


# ---------------------------------------------------------------------------
# 7. throughput floor, latency stability, stage ordering
# ---------------------------------------------------------------------------

def test_criterion_7_throughput_floor(report):
    t0 = time.monotonic()
    problems = []
    probe = capacity_probe(n=30_000, concurrency=16, seed=42)
    low = throughput_bench([100], duration=3, concurrency=16, seed=42)[0]
    high = throughput_bench([10_000], duration=3, concurrency=16, seed=42)[0]

    if probe.achieved_rate < 10_000:
        problems.append(f"capacity {probe.achieved_rate:.0f}/s < 10000/s")
    low_p50 = low.stage_latency_percentiles["total_ns"]["p50"]
    high_p50 = high.stage_latency_percentiles["total_ns"]["p50"]
    if high_p50 > 2 * low_p50:
        problems.append(f"p50 at 10k/s {high_p50}ns > 2x p50 at "
                        f"100/s {low_p50}ns")
    for point, name in ((probe, "probe"), (high, "10k/s")):
        pct = point.stage_latency_percentiles
        sig = pct["signature_ns"]["p50"]
        if sig <= pct["context_ns"]["p50"] or sig <= pct["registry_ns"]["p50"]:
            problems.append(f"{name}: signature stage not dominant")
    if probe.verified != 30_000 or probe.accepted != 30_000:
        problems.append("probe dropped requests")

    elapsed = time.monotonic() - t0
    report(7, "throughput floor", problems,
            f"unpaced capacity {probe.achieved_rate:.0f}/s >= 10000/s; "
            f"p50 {high_p50 / 1000:.0f}us at 10k/s vs {low_p50 / 1000:.0f}us "
            f"at 100/s (<= 2x); signature stage dominant "
            f"(measured, host-dependent)", elapsed)


# ---------------------------------------------------------------------------
# 8. end-to-end gateway replay storm
# ---------------------------------------------------------------------------

def _post_body(url: str, body: bytes) -> int:
    req = urllib.request.Request(url, data=body, method="POST",
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code


def test_criterion_8_gateway_replay_storm(issuer, keystore, tmp_path, report):
    t0 = time.monotonic()
    problems = []
    details = []
    for mode, expected_entries in ((Mode.FULL, 1), (Mode.BASELINE, 100)):
        with MockMerchant() as merchant:
            config = GatewayConfig(
                listen_address="127.0.0.1:0",
                upstream_url=merchant.base_url,
                keystore_path="unused",
                verifier=VerifierConfig(mode=mode, window=60.0))
            with ZtrvGateway(config, keystore=keystore) as gateway:
                request = _request(f"task-c8-{mode.value}", issuer,
                                   issued_at=int(time.time() * 1000))
                body = json.dumps(request_to_wire(request)).encode()
                url = f"{gateway.base_url}/execute"
                with ThreadPoolExecutor(max_workers=8) as pool:
                    statuses = Counter(
                        pool.map(lambda _: _post_body(url, body), range(100)))

            entries = merchant.ledger.count(request.mandate.mandate_id)
            expected_statuses = (Counter({200: 1, 403: 99})
                                 if mode is Mode.FULL else Counter({200: 100}))
            if statuses != expected_statuses:
                problems.append(f"{mode.value}: statuses {dict(statuses)}")
            if entries != expected_entries:
                problems.append(f"{mode.value}: {entries} ledger entries, "
                                f"expected {expected_entries}")
            details.append(f"{mode.value} mode -> {entries} ledger "
                           f"entr{'y' if entries == 1 else 'ies'}")

    elapsed = time.monotonic() - t0
    if elapsed >= 10:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")
    report(8, "gateway replay storm", problems,
            f"100 identical posts, 8 workers: {'; '.join(details)}", elapsed)
