"""Deterministic workload and attack simulation.

Everything here is reproducible from a seed: workload generation, attack
derivation, and the full accept/reject outcome of a run.  Time is the
workload's own: each request is verified at its timestamp, never at a
reading of a clock.  Latency and throughput measurements are the one
exception; they are reported but never part of the deterministic surface.

Experiments drive the verifier in process, without HTTP, so the numbers
isolate verification cost.  The HTTP path is exercised by the gateway's
own tests.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from .mandate import (
    ExecutionContext,
    IssuerKey,
    Keystore,
    PaymentPayload,
    VerificationRequest,
    issue_mandate,
)
from .registry import PER_ENTRY_BYTES, NonceRegistry, RegistryStats
from .verifier import (DEFAULT_CONCURRENCY, Mode, StageTimings, VerifierConfig,
                       verify)

MERCHANT_POOL = tuple(f"merchant-{i:02d}" for i in range(8))
SCOPE_POOL = ("/checkout/confirm", "/orders/place", "/subscriptions/renew",
              "/invoices/pay")
# disjoint from SCOPE_POOL so a redirected scope always differs
ROGUE_SCOPE_POOL = ("/payouts/transfer", "/refunds/issue", "/admin/export")
CURRENCY_POOL = ("USD", "EUR", "GBP")

# agents drawn for each workload's contexts
N_AGENTS = 25
# seconds of workload time an attack evaluation spreads its requests over
ATTACK_DURATION_S = 10.0
# how often, in workload ms, the TTL sweep evicts; criterion 3 reads peak
# occupancy, which needs sweeps much finer than the shortest window
SWEEP_CADENCE_MS = 100
# the unpaced capacity probe dates its mandates this many per second (the
# paper's top rate); at the default n, no nonce expires during the probe
PROBE_RATE = 10_000.0

# an arbitrary but fixed origin, so workload timestamps are reproducible
VIRTUAL_EPOCH_MS = 1_700_000_000_000


class AttackKind(Enum):
    SAME_CONTEXT_REPLAY = "same-context-replay"
    CROSS_CONTEXT_REPLAY = "cross-context-replay"
    CONTEXT_REDIRECT = "context-redirect"


@dataclass(frozen=True)
class AttackScenario:
    kind: AttackKind
    replay_count: int = 100
    seed: int = 1

    def __post_init__(self):
        if self.replay_count < 1:
            raise ValueError("replay_count must be >= 1")


@dataclass(frozen=True)
class TimedRequest:
    at_ms: int
    request: VerificationRequest
    is_attack: bool


@dataclass(frozen=True)
class SimReport:
    scenario: str  # AttackKind value, or "legitimate" for attack-free runs
    mode: str
    attacks_launched: int
    attacks_intercepted: int
    interception_rate: float  # 0.0 when no attacks were launched
    legit_sent: int
    legit_accepted: int
    false_positive_rate: float
    stage_latency_percentiles: dict
    registry_stats: RegistryStats

    # scalar, seed-deterministic fields; latency percentiles and registry
    # stats stay in the JSON report
    CSV_FIELDS = ("scenario", "mode", "attacks_launched", "attacks_intercepted",
                  "interception_rate", "legit_sent", "legit_accepted",
                  "false_positive_rate")

    def csv_row(self) -> list:
        return [self.scenario, self.mode, self.attacks_launched,
                self.attacks_intercepted, f"{self.interception_rate:.6f}",
                self.legit_sent, self.legit_accepted,
                f"{self.false_positive_rate:.6f}"]

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------

def sim_issuer(seed: int) -> IssuerKey:
    """The seed-derived issuing key shared by a simulation run."""
    rng = random.Random(seed ^ 0x5EED_C0DE)
    return IssuerKey.generate(f"sim-issuer-{seed & 0xFFFF:04x}", rng=rng)


def gen_legit_workload(rate: float, duration: float, seed: int, *,
                       issuer: IssuerKey) -> list[TimedRequest]:
    """Emit rate*duration well-formed requests, reproducible from seed.

    Each request carries a freshly issued mandate correctly bound to its own
    context: unique task_id, agent (of N_AGENTS) and merchant drawn from
    seeded pools, and issue timestamps spread uniformly over the duration
    from VIRTUAL_EPOCH_MS.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    n = int(round(rate * duration))
    items = []
    for i in range(n):
        at_ms = VIRTUAL_EPOCH_MS + int(i * 1000 / rate)
        context = ExecutionContext(
            task_id=f"task-{seed & 0xFFFF:04x}-{i:07d}",
            agent_id=f"agent-{rng.randrange(N_AGENTS):04d}",
            merchant_id=rng.choice(MERCHANT_POOL),
            scope=rng.choice(SCOPE_POOL),
        )
        payload = PaymentPayload(amount=rng.randrange(100, 50_000),
                                 currency=rng.choice(CURRENCY_POOL))
        mandate = issue_mandate(issuer, context, payload, now=at_ms, rng=rng)
        items.append(TimedRequest(at_ms=at_ms,
                                  request=VerificationRequest(mandate, context),
                                  is_attack=False))
    return items


def inject_attack(scenario: AttackScenario,
                  victim_stream: list[TimedRequest],
                  ) -> tuple[list[TimedRequest], list[TimedRequest]]:
    """Derive attack requests from a legitimate stream.

    Returns (legitimate stream to actually submit, attack requests).

    Same-context replay keeps the whole victim stream: the victim executes
    legitimately first, then its exact bytes are resubmitted replay_count
    times.  Cross-context and redirect attacks harvest replay_count distinct
    mandates BEFORE their legitimate consumption (the harvested victims are
    removed from the legitimate stream), so each attack is a first use of a
    valid, unconsumed mandate under a falsified context.  That pre-consumption
    timing is what lets nonce-only enforcement accept them.
    """
    if not victim_stream:
        raise ValueError("victim_stream must not be empty")
    rng = random.Random(scenario.seed)

    if scenario.kind is AttackKind.SAME_CONTEXT_REPLAY:
        victim = victim_stream[rng.randrange(len(victim_stream))]
        # 1 ms after the legitimate execution: a tight retry storm
        at_ms = victim.at_ms + 1
        attacks = [TimedRequest(at_ms=at_ms, request=victim.request,
                                is_attack=True)
                   for _ in range(scenario.replay_count)]
        return list(victim_stream), attacks

    if scenario.replay_count > len(victim_stream):
        raise ValueError("cannot harvest more mandates than the stream holds")
    harvested_idx = sorted(rng.sample(range(len(victim_stream)),
                                      scenario.replay_count))
    harvested_set = set(harvested_idx)
    kept = [item for i, item in enumerate(victim_stream)
            if i not in harvested_set]

    attacks = []
    for i in harvested_idx:
        victim = victim_stream[i]
        context = victim.request.context
        if scenario.kind is AttackKind.CROSS_CONTEXT_REPLAY:
            others = [m for m in MERCHANT_POOL if m != context.merchant_id]
            forged = replace(context, merchant_id=rng.choice(others))
        else:  # CONTEXT_REDIRECT: right merchant, wrong operation
            forged = replace(context, scope=rng.choice(ROGUE_SCOPE_POOL))
        attacks.append(TimedRequest(
            at_ms=victim.at_ms + rng.randrange(1, 1001),
            request=VerificationRequest(victim.request.mandate, forged),
            is_attack=True,
        ))
    return kept, attacks


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

def _percentile(sorted_values: list[int], q: float) -> int:
    # nearest-rank; 0 for an empty sample
    if not sorted_values:
        return 0
    k = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def summarize_timings(timings: list[StageTimings]) -> dict:
    out = {}
    for stage in ("signature_ns", "context_ns", "registry_ns", "total_ns"):
        values = sorted(getattr(t, stage) for t in timings)
        out[stage] = {"p50": _percentile(values, 50),
                      "p90": _percentile(values, 90),
                      "p99": _percentile(values, 99)}
    return out


def run_experiment(mode: Mode, scenario: AttackScenario | None = None, *,
                   rate: float = 100.0, duration: float = ATTACK_DURATION_S,
                   seed: int = 42,
                   concurrency: int = DEFAULT_CONCURRENCY) -> SimReport:
    """Drive a mixed legitimate+attack stream through an in-process verifier.

    Requests sharing a timestamp form a wave, raced concurrently through a
    worker pool and verified at that timestamp; waves run in time order, one
    after another.  Outcome counts are deterministic for a given seed even
    under that concurrency, because every race the schedule leaves open is
    one the verifier resolves identically regardless of interleaving.
    """
    issuer = sim_issuer(seed)
    keystore = Keystore.for_issuers(issuer)
    workload = gen_legit_workload(rate, duration, seed, issuer=issuer)
    if scenario is None:
        legit, attacks = workload, []
    else:
        legit, attacks = inject_attack(scenario, workload)

    items = sorted(legit + attacks, key=lambda it: it.at_ms)
    config = VerifierConfig(mode=mode)
    registry = NonceRegistry()

    outcomes: list[tuple[TimedRequest, bool]] = []  # (item, accepted)
    timings: list[StageTimings] = []

    def run_one(item: TimedRequest, now: int):
        decision = verify(item.request, now, config, registry, keystore)
        return item, decision.accepted, decision.timings

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        i = 0
        while i < len(items):
            j = i
            while j < len(items) and items[j].at_ms == items[i].at_ms:
                j += 1
            wave = items[i:j]
            now = wave[0].at_ms
            if len(wave) == 1:
                results = [run_one(wave[0], now)]
            else:
                futures = [pool.submit(run_one, item, now) for item in wave]
                results = [f.result() for f in futures]
            for item, accepted, t in results:
                outcomes.append((item, accepted))
                timings.append(t)
            i = j

    # conservation: every submitted request got exactly one decision
    assert len(outcomes) == len(legit) + len(attacks)

    attacks_launched = sum(1 for item, _ in outcomes if item.is_attack)
    attacks_intercepted = sum(1 for item, accepted in outcomes
                              if item.is_attack and not accepted)
    legit_sent = len(outcomes) - attacks_launched
    legit_accepted = sum(1 for item, accepted in outcomes
                         if not item.is_attack and accepted)

    return SimReport(
        scenario=scenario.kind.value if scenario else "legitimate",
        mode=mode.value,
        attacks_launched=attacks_launched,
        attacks_intercepted=attacks_intercepted,
        interception_rate=(attacks_intercepted / attacks_launched
                           if attacks_launched else 0.0),
        legit_sent=legit_sent,
        legit_accepted=legit_accepted,
        false_positive_rate=(1.0 - legit_accepted / legit_sent
                             if legit_sent else 0.0),
        stage_latency_percentiles=summarize_timings(timings),
        registry_stats=registry.stats(),
    )


def attack_eval(mode: Mode, *, n: int = 5000,
                seed: int = 42, replay_count: int = 100,
                concurrency: int = DEFAULT_CONCURRENCY) -> list[SimReport]:
    """One experiment per attack scenario against an n-request legit stream."""
    reports = []
    for kind in AttackKind:
        scenario = AttackScenario(kind=kind, replay_count=replay_count,
                                  seed=seed + 1)
        reports.append(run_experiment(
            mode, scenario, rate=n / ATTACK_DURATION_S,
            duration=ATTACK_DURATION_S, seed=seed, concurrency=concurrency))
    return reports


def ablation_run(*, n: int = 1000, seed: int = 42, replay_count: int = 100,
                 concurrency: int = DEFAULT_CONCURRENCY) -> list[SimReport]:
    """Every (mode, scenario) pair; the interception matrix behind the reports."""
    reports = []
    for mode in (Mode.BASELINE, Mode.CONTEXT_ONLY, Mode.NONCE_ONLY, Mode.FULL):
        reports.extend(attack_eval(mode, n=n, seed=seed,
                                   replay_count=replay_count,
                                   concurrency=concurrency))
    return reports


def interception_matrix(reports: list[SimReport]) -> dict[str, dict[str, float]]:
    matrix: dict[str, dict[str, float]] = {}
    for report in reports:
        matrix.setdefault(report.mode, {})[report.scenario] = report.interception_rate
    return matrix


# ---------------------------------------------------------------------------
# TTL sweep (workload time)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TtlSweepPoint:
    window: float
    peak_entries: int
    bytes_estimate: int  # peak_entries x per-entry byte cost

    CSV_FIELDS = ("window", "peak_entries", "bytes_estimate")

    def csv_row(self) -> list:
        return [f"{self.window:g}", self.peak_entries, self.bytes_estimate]


def ttl_sweep(windows: list[float], rate: float = 10_000.0,
              duration: float = 10.0, *, seed: int = 42) -> list[TtlSweepPoint]:
    """Peak registry occupancy as a function of the validity window.

    One legit-only workload is generated once and replayed against a fresh
    registry per window, each request at its own timestamp.  Expected peak is
    rate x min(window, duration): shorter windows let entries expire during
    the run, longer ones plateau at the full workload size.
    """
    issuer = sim_issuer(seed)
    keystore = Keystore.for_issuers(issuer)
    workload = gen_legit_workload(rate, duration, seed, issuer=issuer)
    points = []
    for window in windows:
        config = VerifierConfig(window=window)
        registry = NonceRegistry()
        next_sweep = workload[0].at_ms + SWEEP_CADENCE_MS
        for item in workload:
            while item.at_ms >= next_sweep:
                registry.sweep(next_sweep)
                next_sweep += SWEEP_CADENCE_MS
            decision = verify(item.request, item.at_ms, config, registry,
                              keystore)
            assert decision.accepted  # legit-only stream; anything else is a bug
        stats = registry.stats()
        points.append(TtlSweepPoint(
            window=window,
            peak_entries=stats.peak_count,
            bytes_estimate=stats.peak_count * PER_ENTRY_BYTES,
        ))
    return points


# ---------------------------------------------------------------------------
# Throughput bench (workload time, measured on the wall clock)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThroughputPoint:
    offered_rate: float  # 0.0 marks the unpaced capacity probe
    achieved_rate: float
    verified: int
    accepted: int
    stage_latency_percentiles: dict

    CSV_FIELDS = ("offered_rate", "achieved_rate", "verified", "accepted",
                  "signature_p50_ns", "signature_p90_ns", "signature_p99_ns",
                  "context_p50_ns", "context_p90_ns", "context_p99_ns",
                  "registry_p50_ns", "registry_p90_ns", "registry_p99_ns",
                  "total_p50_ns", "total_p90_ns", "total_p99_ns")

    def csv_row(self) -> list:
        row = [f"{self.offered_rate:.1f}", f"{self.achieved_rate:.1f}",
               self.verified, self.accepted]
        for stage in ("signature_ns", "context_ns", "registry_ns", "total_ns"):
            for p in ("p50", "p90", "p99"):
                row.append(self.stage_latency_percentiles[stage][p])
        return row

    def to_json_dict(self) -> dict:
        return asdict(self)


def _drain_bench(keystore, concurrency,
                 batches: list[list[TimedRequest]], pace_s: float | None):
    """Feed request batches to a worker pool; returns (timings, accepted, elapsed_s).

    Each request is verified at its own ``at_ms``.  ``pace_s`` is the
    inter-batch dispatch interval (None = unpaced burst).  Elapsed time runs
    from first dispatch to last completed verification.
    """
    config = VerifierConfig()
    registry = NonceRegistry()

    def run_batch(batch):
        return ([verify(item.request, item.at_ms, config, registry, keystore)
                 for item in batch],
                time.perf_counter())

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        t0 = time.perf_counter()
        futures = []
        for k, batch in enumerate(batches):
            if pace_s is not None:
                delay = (t0 + k * pace_s) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            futures.append(pool.submit(run_batch, batch))
        done = [f.result() for f in futures]

    decisions = [d for batch_decisions, _ in done for d in batch_decisions]
    accepted = sum(decision.accepted for decision in decisions)
    last_done = max((finished for _, finished in done), default=t0)
    return [d.timings for d in decisions], accepted, last_done - t0


def _bench_point(offered_rate: float, rate: float, duration: float,
                 concurrency: int, seed: int, pace_s: float | None,
                 batch_size: int) -> ThroughputPoint:
    """Verify a legit workload of rate x duration requests, batch by batch.

    Request i is dated ``i / rate`` s into the workload.  When paced at
    ``rate``, that is the instant its batch is offered.
    """
    issuer = sim_issuer(seed)
    workload = gen_legit_workload(rate, duration, seed, issuer=issuer)
    batches = [workload[i:i + batch_size]
               for i in range(0, len(workload), batch_size)]
    timings, accepted, elapsed_s = _drain_bench(
        Keystore.for_issuers(issuer), concurrency, batches, pace_s)
    return ThroughputPoint(
        offered_rate=offered_rate,
        achieved_rate=len(timings) / elapsed_s if elapsed_s > 0 else 0.0,
        verified=len(timings),
        accepted=accepted,
        stage_latency_percentiles=summarize_timings(timings),
    )


def capacity_probe(n: int = 30_000, concurrency: int = DEFAULT_CONCURRENCY, *,
                   seed: int = 42) -> ThroughputPoint:
    """Unpaced burst: how fast can the pipeline actually go on this host."""
    return _bench_point(0.0, PROBE_RATE, n / PROBE_RATE, concurrency, seed,
                        pace_s=None, batch_size=64)


def throughput_bench(rates: list[float], duration: float = 10.0,
                     concurrency: int = DEFAULT_CONCURRENCY, *,
                     seed: int = 42) -> list[ThroughputPoint]:
    """Paced offered-load runs; reports measured, host-dependent numbers.

    A rate the host cannot sustain shows up as achieved < offered, never as
    an error.  ``capacity_probe`` measures the unpaced capacity.
    """
    points = []
    for rate in rates:
        if rate <= 0:
            raise ValueError("rates must be positive")
        # ~5 ms dispatch ticks; low rates degrade to per-request dispatch
        batch_size = max(1, int(round(rate * 0.005)))
        pace_s = batch_size / rate
        points.append(_bench_point(rate, rate, duration, concurrency, seed,
                                   pace_s=pace_s, batch_size=batch_size))
    return points


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def report_basename(experiment: str, fixed_name: bool) -> str:
    if fixed_name:
        return f"{experiment}_report"
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return f"{experiment}_{stamp}"


def write_report_files(out_dir, basename: str, csv_fields, csv_rows,
                       json_obj) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{basename}.csv"
    json_path = out / f"{basename}.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_fields)
        writer.writerows(csv_rows)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(json_obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
