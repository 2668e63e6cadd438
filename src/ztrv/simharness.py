"""Deterministic workload and attack simulation.

Everything here is reproducible from a seed: workload generation, attack
derivation, and the full accept/reject outcome of a run.  Time is the
workload's own: each request is verified at its timestamp, never at a
reading of a clock.  Latency and throughput measurements are the one
exception; they are reported but never part of the deterministic surface.

Experiments drive the verifier in process, without HTTP, so the numbers
isolate verification cost.  The HTTP path is exercised by the gateway's
own tests.  Each experiment takes its workload size, seed, rate and
duration from the caller; the command line (ztrv.cli) holds the defaults.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from itertools import groupby

from .mandate import (
    ExecutionContext,
    IssuerKey,
    Keystore,
    PaymentPayload,
    VerificationRequest,
    issue_mandate,
)
from .registry import PER_ENTRY_BYTES, NonceRegistry, RegistryStats
from .verifier import (DEFAULT_CONCURRENCY, STAGE_TIMINGS, Decision, Mode,
                       Reason, VerifierConfig, admit, check, verify)

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
# the unpaced capacity probe dates its mandates this many per second (the
# paper's top rate); at the default n, no nonce expires during the probe
PROBE_RATE = 10_000.0

# an arbitrary but fixed origin, so workload timestamps are reproducible
VIRTUAL_EPOCH_MS = 1_700_000_000_000

# the latency percentiles reported for each of Decision's STAGE_TIMINGS
PERCENTILES = (50, 90, 99)


class AttackKind(Enum):
    SAME_CONTEXT_REPLAY = "same-context-replay"
    CROSS_CONTEXT_REPLAY = "cross-context-replay"
    CONTEXT_REDIRECT = "context-redirect"


@dataclass(frozen=True)
class AttackScenario:
    kind: AttackKind
    replay_count: int
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
    scenario: str  # AttackKind value
    mode: str
    attacks_launched: int
    attacks_intercepted: int
    interception_rate: float
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


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------

def sim_issuer(seed: int) -> IssuerKey:
    """The seed-derived issuing key shared by a simulation run."""
    rng = random.Random(seed ^ 0x5EED_C0DE)
    return IssuerKey.generate(f"sim-issuer-{seed & 0xFFFF:04x}", rng=rng)


def gen_legit_workload(rate: float, duration: float,
                       seed: int) -> list[TimedRequest]:
    """Emit rate*duration well-formed requests, reproducible from seed.

    Each request carries a mandate freshly issued by ``sim_issuer(seed)``
    and correctly bound to its own context: unique task_id, agent (of
    N_AGENTS) and merchant drawn from seeded pools, and issue timestamps
    spread uniformly over the duration from VIRTUAL_EPOCH_MS.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    issuer = sim_issuer(seed)
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


def summarize_timings(decisions: list[Decision]) -> dict:
    out = {}
    for stage in STAGE_TIMINGS:
        values = sorted(getattr(decision, stage) for decision in decisions)
        out[stage] = {f"p{q}": _percentile(values, q) for q in PERCENTILES}
    return out


def _verify_waves(waves: list[list[list[TimedRequest]]],
                  config: VerifierConfig, registry: NonceRegistry,
                  keystore: Keystore, concurrency: int,
                  pace_s: float | None = None) -> tuple[list[Decision], float]:
    """Verify waves of request batches, each request at its own ``at_ms``.

    Waves run one after another, a wave's batches at once on a pool of
    ``concurrency`` threads (a lone batch on the calling thread), each batch
    in order.  ``pace_s`` offers a wave's k-th batch k * pace_s s after its
    first.  Returns the decisions in request order, and the seconds from the
    first dispatch to the last verification done.
    """
    def run_batch(batch):
        return ([verify(item.request, item.at_ms, config, registry, keystore)
                 for item in batch],
                time.perf_counter())

    decisions = []
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        t0 = last_done = time.perf_counter()
        for wave in waves:
            if len(wave) == 1:
                done = [run_batch(wave[0])]
            else:
                start = time.perf_counter()
                futures = []
                for k, batch in enumerate(wave):
                    if pace_s is not None:
                        delay = start + k * pace_s - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                    futures.append(pool.submit(run_batch, batch))
                done = [f.result() for f in futures]
            for batch_decisions, finished in done:
                decisions.extend(batch_decisions)
                last_done = max(last_done, finished)
    return decisions, last_done - t0


def run_experiment(mode: Mode, scenario: AttackScenario,
                   workload: list[TimedRequest], keystore: Keystore,
                   concurrency: int = DEFAULT_CONCURRENCY) -> SimReport:
    """Drive ``workload``, with ``scenario``'s attacks derived from it,
    through an in-process verifier on a fresh registry.

    Requests sharing a timestamp form a wave, raced concurrently through a
    worker pool and verified at that timestamp; waves run in time order, one
    after another.  Outcome counts are deterministic for a given workload
    even under that concurrency, because every race the schedule leaves open
    is one the verifier resolves identically regardless of interleaving.
    """
    legit, attacks = inject_attack(scenario, workload)
    items = sorted(legit + attacks, key=lambda it: it.at_ms)
    config = VerifierConfig(mode=mode)
    registry = NonceRegistry()

    # one wave per timestamp, one request per batch: a wave's requests race
    # each other, and a replay never overtakes the first use it replays
    waves = [[[item] for item in wave]
             for _, wave in groupby(items, key=lambda it: it.at_ms)]
    decisions, _ = _verify_waves(waves, config, registry, keystore,
                                 concurrency)

    # conservation: every submitted request got exactly one decision
    if len(decisions) != len(items):
        raise RuntimeError(f"{len(decisions)} decisions for "
                           f"{len(items)} requests")
    attacks_intercepted = sum(item.is_attack and not decision.accepted
                              for item, decision in zip(items, decisions))
    legit_accepted = sum(decision.accepted and not item.is_attack
                         for item, decision in zip(items, decisions))

    return SimReport(
        scenario=scenario.kind.value,
        mode=mode.value,
        attacks_launched=len(attacks),
        attacks_intercepted=attacks_intercepted,
        interception_rate=attacks_intercepted / len(attacks),
        legit_sent=len(legit),
        legit_accepted=legit_accepted,
        # a harvest of the whole stream leaves no legitimate request
        false_positive_rate=(1.0 - legit_accepted / len(legit)
                             if legit else 0.0),
        stage_latency_percentiles=summarize_timings(decisions),
        registry_stats=registry.stats(),
    )


def attack_eval(modes: list[Mode], *, n: int, seed: int, replay_count: int,
                concurrency: int = DEFAULT_CONCURRENCY) -> list[SimReport]:
    """One experiment per (mode, attack scenario) against one n-request
    legitimate stream, generated and signed once; the reports come in
    ``modes`` order, then AttackKind order.  The ablation is every Mode."""
    scenarios = [AttackScenario(kind=kind, replay_count=replay_count,
                                seed=seed + 1) for kind in AttackKind]
    workload = gen_legit_workload(n / ATTACK_DURATION_S, ATTACK_DURATION_S,
                                  seed)
    keystore = Keystore.for_issuers(sim_issuer(seed))
    return [run_experiment(mode, scenario, workload, keystore, concurrency)
            for mode in modes for scenario in scenarios]


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


def ttl_sweep(windows: list[float], rate: float, duration: float, *,
              seed: int) -> list[TtlSweepPoint]:
    """Peak registry occupancy as a function of the validity window.

    One legit-only workload is generated, and each request checked, once;
    then admitted at its own timestamp into a fresh registry per window, in
    workload order.  Expected peak is rate x the nonce TTL (the window plus
    1 ms), at most the whole workload: shorter windows let entries expire
    during the run, longer ones plateau at the full workload size.
    """
    keystore = Keystore.for_issuers(sim_issuer(seed))
    workload = gen_legit_workload(rate, duration, seed)
    runs = [(VerifierConfig(window=window), NonceRegistry())
            for window in windows]
    for item in workload:
        rejected, public_key, _ = check(item.request, keystore)
        for config, registry in runs:
            reason = rejected or admit(item.request, public_key, item.at_ms,
                                       config, registry)[0]
            if reason is not Reason.AUTHORIZED:  # a legit-only stream: a bug
                raise RuntimeError(f"window {config.window:g}: legitimate "
                                   f"request answered {reason.value}")
    peaks = [registry.stats().peak_count for _, registry in runs]
    return [TtlSweepPoint(window=window, peak_entries=peak,
                          bytes_estimate=peak * PER_ENTRY_BYTES)
            for window, peak in zip(windows, peaks)]


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

    # signature_p50_ns, ..., total_p99_ns
    CSV_FIELDS = ("offered_rate", "achieved_rate", "verified", "accepted",
                  *(f"{stage.removesuffix('_ns')}_p{q}_ns"
                    for stage in STAGE_TIMINGS for q in PERCENTILES))

    def csv_row(self) -> list:
        return [f"{self.offered_rate:.1f}", f"{self.achieved_rate:.1f}",
                self.verified, self.accepted,
                *(self.stage_latency_percentiles[stage][f"p{q}"]
                  for stage in STAGE_TIMINGS for q in PERCENTILES)]


def _bench_point(offered_rate: float, rate: float, duration: float,
                 concurrency: int, seed: int, pace_s: float | None,
                 batch_size: int) -> ThroughputPoint:
    """Verify a legit workload of rate x duration requests, batch by batch.

    Request i is dated ``i / rate`` s into the workload.  When paced at
    ``rate``, that is the instant its batch is offered.
    """
    workload = gen_legit_workload(rate, duration, seed)
    batches = [workload[i:i + batch_size]
               for i in range(0, len(workload), batch_size)]
    decisions, elapsed_s = _verify_waves(
        [batches], VerifierConfig(), NonceRegistry(),
        Keystore.for_issuers(sim_issuer(seed)), concurrency, pace_s)
    return ThroughputPoint(
        offered_rate=offered_rate,
        achieved_rate=len(decisions) / elapsed_s if elapsed_s > 0 else 0.0,
        verified=len(decisions),
        accepted=sum(decision.accepted for decision in decisions),
        stage_latency_percentiles=summarize_timings(decisions),
    )


def capacity_probe(n: int = 30_000, concurrency: int = DEFAULT_CONCURRENCY, *,
                   seed: int) -> ThroughputPoint:
    """Unpaced burst: how fast can the pipeline actually go on this host."""
    return _bench_point(0.0, PROBE_RATE, n / PROBE_RATE, concurrency, seed,
                        pace_s=None, batch_size=64)


def throughput_bench(rates: list[float], duration: float,
                     concurrency: int = DEFAULT_CONCURRENCY, *,
                     seed: int) -> list[ThroughputPoint]:
    """Paced offered-load runs; reports measured, host-dependent numbers.

    A rate the host cannot sustain shows up as achieved < offered, never as
    an error.  ``capacity_probe`` measures the unpaced capacity.
    """
    if any(rate <= 0 for rate in rates):
        raise ValueError("rates must be positive")
    points = []
    for rate in rates:
        # ~5 ms dispatch ticks; low rates degrade to per-request dispatch
        batch_size = max(1, int(round(rate * 0.005)))
        pace_s = batch_size / rate
        points.append(_bench_point(rate, rate, duration, concurrency, seed,
                                   pace_s=pace_s, batch_size=batch_size))
    return points
