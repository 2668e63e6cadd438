import argparse
import dataclasses
import hashlib
import json
import re
import struct

import pytest

from ztrv import (
    AttackKind,
    AttackScenario,
    Keystore,
    Mode,
    VIRTUAL_EPOCH_MS,
    attack_eval,
    capacity_probe,
    gen_legit_workload,
    hash_context_fields,
    inject_attack,
    run_experiment,
    sim_issuer,
    throughput_bench,
    ttl_sweep,
    verify_signature,
)
from ztrv import mandate, simharness
from ztrv.cli import _write_report
from ztrv.registry import PER_ENTRY_BYTES
from ztrv.simharness import (
    MERCHANT_POOL,
    ROGUE_SCOPE_POOL,
    SCOPE_POOL,
    TtlSweepPoint,
    summarize_timings,
)
from ztrv.verifier import Decision, Reason

WINDOW_MS = 60_000


# ---------------------------------------------------------------------------
# serial brute-force oracle (independent of the verifier implementation)
# ---------------------------------------------------------------------------

def _oracle_ctx_hash(ctx) -> str:
    out = b""
    for value in (ctx.task_id, ctx.agent_id, ctx.merchant_id, ctx.scope):
        raw = value.encode("utf-8")
        out += struct.pack(">I", len(raw)) + raw
    return hashlib.sha256(out).hexdigest()


def oracle_run(items, mode: Mode, window_ms: int = WINDOW_MS):
    """Serial reference simulator: explicit seen-nonce map, inline hash."""
    seen = {}
    outcomes = []
    for item in sorted(items, key=lambda it: it.at_ms):
        mandate = item.request.mandate
        now = item.at_ms
        if now - mandate.issued_at > window_ms or mandate.issued_at > now:
            accepted = False
        elif (mode in (Mode.CONTEXT_ONLY, Mode.FULL)
                and _oracle_ctx_hash(item.request.context)
                != mandate.context_hash):
            accepted = False
        elif mode in (Mode.NONCE_ONLY, Mode.FULL):
            expiry = seen.get(mandate.nonce)
            if expiry is not None and expiry > now:
                accepted = False
            else:
                seen[mandate.nonce] = now + window_ms + 1  # skew 0
                accepted = True
        else:
            accepted = True
        outcomes.append((item.is_attack, accepted))
    return outcomes


# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------

def test_workload_count_and_determinism():
    a = gen_legit_workload(10, 1.0, seed=5)
    b = gen_legit_workload(10, 1.0, seed=5)
    assert len(a) == 10
    assert [i.request.mandate.nonce for i in a] == \
           [i.request.mandate.nonce for i in b]
    assert [i.request.context for i in a] == [i.request.context for i in b]
    c = gen_legit_workload(10, 1.0, seed=6)
    assert [i.request.mandate.nonce for i in a] != \
           [i.request.mandate.nonce for i in c]


def test_workload_shape():
    items = gen_legit_workload(50, 2.0, seed=7)
    assert len(items) == 100
    task_ids = [i.request.context.task_id for i in items]
    assert len(set(task_ids)) == len(task_ids)
    for idx, item in enumerate(items):
        assert item.at_ms == VIRTUAL_EPOCH_MS + int(idx * 1000 / 50)
        assert item.request.mandate.issued_at == item.at_ms
        assert not item.is_attack
        assert item.request.context.merchant_id in MERCHANT_POOL
        agent = item.request.context.agent_id
        assert agent.startswith("agent-")
        assert 0 <= int(agent[len("agent-"):]) < simharness.N_AGENTS
        assert item.request.context.scope in SCOPE_POOL
        # construction invariant: correctly bound and signed
        assert (item.request.mandate.context_hash
                == hash_context_fields(item.request.context))
    assert verify_signature(items[0].request.mandate, sim_issuer(7).public_key)


def test_workload_validates_params():
    with pytest.raises(ValueError):
        gen_legit_workload(0, 1, seed=1)


def test_sim_issuer_deterministic():
    assert sim_issuer(9).public_key == sim_issuer(9).public_key
    assert sim_issuer(9).public_key != sim_issuer(10).public_key


# ---------------------------------------------------------------------------
# attack derivation
# ---------------------------------------------------------------------------

@pytest.fixture
def victims():
    return gen_legit_workload(20, 5.0, seed=11)


def test_same_context_replay_keeps_victims_and_replays_bytes(victims):
    scenario = AttackScenario(kind=AttackKind.SAME_CONTEXT_REPLAY,
                              replay_count=7, seed=3)
    kept, attacks = inject_attack(scenario, victims)
    assert kept == victims
    assert len(attacks) == 7
    first = attacks[0]
    assert all(a.request is first.request for a in attacks)
    victim = next(v for v in victims if v.request is first.request)
    assert all(a.at_ms == victim.at_ms + 1 for a in attacks)
    assert all(a.is_attack for a in attacks)


def test_cross_context_harvests_preconsumption(victims):
    scenario = AttackScenario(kind=AttackKind.CROSS_CONTEXT_REPLAY,
                              replay_count=5, seed=4)
    kept, attacks = inject_attack(scenario, victims)
    assert len(kept) == len(victims) - 5
    assert len(attacks) == 5
    kept_mandates = {item.request.mandate.nonce for item in kept}
    by_nonce = {v.request.mandate.nonce: v for v in victims}
    for attack in attacks:
        mandate = attack.request.mandate
        assert mandate.nonce not in kept_mandates  # removed from legit stream
        victim = by_nonce[mandate.nonce]
        assert attack.request.mandate is victim.request.mandate  # untouched
        assert (attack.request.context.merchant_id
                != victim.request.context.merchant_id)
        assert attack.request.context.scope == victim.request.context.scope
        assert 1 <= attack.at_ms - victim.at_ms <= 1000


def test_context_redirect_alters_scope_only(victims):
    scenario = AttackScenario(kind=AttackKind.CONTEXT_REDIRECT,
                              replay_count=5, seed=5)
    kept, attacks = inject_attack(scenario, victims)
    by_nonce = {v.request.mandate.nonce: v for v in victims}
    for attack in attacks:
        victim = by_nonce[attack.request.mandate.nonce]
        assert attack.request.context.scope in ROGUE_SCOPE_POOL
        assert (attack.request.context.merchant_id
                == victim.request.context.merchant_id)


def test_inject_attack_deterministic(victims):
    scenario = AttackScenario(kind=AttackKind.CROSS_CONTEXT_REPLAY,
                              replay_count=5, seed=4)
    a = inject_attack(scenario, victims)
    b = inject_attack(scenario, victims)
    assert a == b


def test_inject_attack_validates(victims):
    with pytest.raises(ValueError):
        inject_attack(AttackScenario(kind=AttackKind.CONTEXT_REDIRECT,
                                     replay_count=999), victims)
    with pytest.raises(ValueError):
        inject_attack(AttackScenario(kind=AttackKind.CONTEXT_REDIRECT,
                                     replay_count=1), [])
    with pytest.raises(ValueError):
        AttackScenario(kind=AttackKind.CONTEXT_REDIRECT, replay_count=0)


# ---------------------------------------------------------------------------
# experiment runner vs oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("kind", list(AttackKind))
def test_run_experiment_matches_serial_oracle(mode, kind):
    # small instances per the oracle-equivalence property (<=100 requests)
    seed = 33
    scenario = AttackScenario(kind=kind, replay_count=10, seed=seed + 1)
    workload = gen_legit_workload(6, 10, seed=seed)
    report = run_experiment(mode, scenario, workload,
                            Keystore.for_issuers(sim_issuer(seed)),
                            concurrency=8)

    legit, attacks = inject_attack(scenario, workload)
    expected = oracle_run(legit + attacks, mode)

    exp_attacks = sum(1 for is_attack, _ in expected if is_attack)
    exp_intercepted = sum(1 for is_attack, acc in expected
                          if is_attack and not acc)
    exp_legit = len(expected) - exp_attacks
    exp_accepted = sum(1 for is_attack, acc in expected
                       if not is_attack and acc)

    assert report.attacks_launched == exp_attacks == 10
    assert report.attacks_intercepted == exp_intercepted
    assert report.legit_sent == exp_legit
    assert report.legit_accepted == exp_accepted
    # conservation
    assert report.attacks_launched + report.legit_sent == len(expected)


def test_run_experiment_pool_has_the_requested_workers(monkeypatch):
    sizes = []

    class RecordingPool(simharness.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(simharness, "ThreadPoolExecutor", RecordingPool)
    scenario = AttackScenario(kind=AttackKind.SAME_CONTEXT_REPLAY,
                              replay_count=4, seed=9)
    run_experiment(Mode.FULL, scenario, gen_legit_workload(5, 2, seed=9),
                   Keystore.for_issuers(sim_issuer(9)), concurrency=8)
    assert sizes == [8]


def test_legit_only_zero_fpr_all_modes():
    # the legitimate traffic of every attack run is accepted in full
    workload = gen_legit_workload(5, 10, seed=2)
    keystore = Keystore.for_issuers(sim_issuer(2))
    for mode in Mode:
        for kind in AttackKind:
            scenario = AttackScenario(kind=kind, replay_count=5, seed=3)
            report = run_experiment(mode, scenario, workload, keystore)
            # same-context replay resubmits one request; the others
            # harvest five of the fifty
            expected = 50 if kind is AttackKind.SAME_CONTEXT_REPLAY else 45
            assert report.legit_sent == report.legit_accepted == expected
            assert report.false_positive_rate == 0.0


def test_run_experiment_reproducible_scalars():
    scenario = AttackScenario(kind=AttackKind.SAME_CONTEXT_REPLAY,
                              replay_count=20, seed=8)
    a, b = (run_experiment(Mode.FULL, scenario,
                           gen_legit_workload(10, 5, seed=21),
                           Keystore.for_issuers(sim_issuer(21)))
            for _ in range(2))
    assert a.csv_row() == b.csv_row()
    assert a.registry_stats == b.registry_stats


def test_attack_eval_reports_every_mode_and_scenario_in_order():
    reports = attack_eval([Mode.FULL, Mode.BASELINE], n=60, seed=5,
                          replay_count=4, concurrency=2)
    assert [(r.mode, r.scenario) for r in reports] == [
        (mode.value, kind.value)
        for mode in (Mode.FULL, Mode.BASELINE) for kind in AttackKind]


def test_attack_eval_signs_its_workload_once(monkeypatch):
    calls = []
    sign = mandate.ENGINE.sign

    def counting_sign(*args):
        calls.append(args)
        return sign(*args)

    monkeypatch.setattr(mandate.ENGINE, "sign", counting_sign)
    attack_eval(list(Mode), n=1000, seed=42, replay_count=100)
    assert len(calls) == 1000  # not one workload per (mode, scenario)
    calls.clear()
    attack_eval([Mode.FULL], n=300, seed=7, replay_count=10)
    assert len(calls) == 300  # not one workload per scenario


# ---------------------------------------------------------------------------
# ttl sweep
# ---------------------------------------------------------------------------

def test_ttl_sweep_matches_reference_registry():
    rate, duration = 100, 10
    points = ttl_sweep([2, 5, 20], rate=rate, duration=duration, seed=13)

    workload = gen_legit_workload(rate, duration, seed=13)
    for point in points:
        ttl_ms = int(point.window * 1000) + 1  # window + 2*skew + 1, skew 0
        entries = {}
        peak = 0
        for item in workload:
            # every claim first evicts what has expired by its instant
            for key in [k for k, exp in entries.items() if exp <= item.at_ms]:
                del entries[key]
            entries["nonce:" + item.request.mandate.nonce] = \
                item.at_ms + ttl_ms
            peak = max(peak, len(entries))
        assert point.peak_entries == peak, f"window {point.window}"
        assert point.bytes_estimate == peak * PER_ENTRY_BYTES


def test_ttl_sweep_checks_each_signature_once(monkeypatch):
    calls = []
    verify = mandate.ENGINE.verify

    def counting_verify(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(mandate.ENGINE, "verify", counting_verify)
    ttl_sweep([2, 5, 20], rate=100, duration=10, seed=13)
    assert len(calls) == 1_000  # one per request, not one per window


def test_ttl_sweep_plateau_at_duration():
    points = ttl_sweep([15, 20], rate=50, duration=10, seed=14)
    assert points[0].peak_entries == points[1].peak_entries == 500


def test_ttl_sweep_peak_is_rate_times_window_over_a_long_history():
    # state bounded by concurrency, not history, at every window: 900 s is
    # 3 to 180 windows long, and each peak is rate x window plus the claim
    # the TTL's extra millisecond keeps live
    rate, duration, windows = 20, 900, [5, 30, 60, 300]
    points = ttl_sweep(windows, rate=rate, duration=duration, seed=42)
    assert ([point.peak_entries for point in points]
            == [rate * window + 1 for window in windows])
    assert max(point.peak_entries for point in points) < rate * duration / 2


# ---------------------------------------------------------------------------
# throughput bench
# ---------------------------------------------------------------------------

def test_capacity_probe_smoke():
    point = capacity_probe(n=1500, concurrency=4, seed=15)
    assert point.offered_rate == 0.0
    assert point.verified == 1500
    assert point.accepted == 1500  # distinct fresh mandates, all must pass
    assert point.achieved_rate > 0
    pct = point.stage_latency_percentiles
    assert pct["signature_ns"]["p50"] > pct["context_ns"]["p50"]
    assert pct["total_ns"]["p50"] >= pct["signature_ns"]["p50"]


def test_throughput_bench_paced_point():
    points = throughput_bench([400], duration=0.5, concurrency=2, seed=16)
    assert len(points) == 1
    point = points[0]
    assert point.offered_rate == 400
    assert point.verified == 200
    assert point.accepted == 200
    assert 0 < point.achieved_rate <= 800  # pacing keeps it near offered


def test_throughput_bench_rejects_bad_rate(monkeypatch):
    with pytest.raises(ValueError):
        throughput_bench([0], duration=1, seed=16)
    # every rate is validated before any point runs
    ran = []
    monkeypatch.setattr(simharness, "_bench_point",
                        lambda offered_rate, *args, **kwargs:
                        ran.append(offered_rate))
    with pytest.raises(ValueError):
        throughput_bench([100, 0], duration=1, seed=16)
    assert ran == []


# ---------------------------------------------------------------------------
# reports and files
# ---------------------------------------------------------------------------

def test_summarize_timings_percentiles():
    decisions = [Decision(Reason.AUTHORIZED, "m", signature_ns=i + 1,
                          context_ns=1, registry_ns=1, total_ns=i + 3)
                 for i in range(100)]
    pct = summarize_timings(decisions)
    assert pct["signature_ns"] == {"p50": 50, "p90": 90, "p99": 99}
    assert pct["total_ns"]["p99"] == 101
    assert summarize_timings([])["total_ns"] == {"p50": 0, "p90": 0, "p99": 0}


def _report_args(out, fixed_name):
    return argparse.Namespace(out=str(out), fixed_name=fixed_name, seed=7)


def test_report_basename(tmp_path, capsys):
    # the command line names the report files of a harness run
    points = [TtlSweepPoint(1.0, 2, 3)]
    stamped = tmp_path / "stamped"
    stamped.mkdir()
    _write_report(_report_args(tmp_path, True), "ablation", "points", points)
    _write_report(_report_args(stamped, False), "ablation", "points", points)
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.glob("*.*")) == [
        "ablation_report.csv", "ablation_report.json"]
    stems = {p.stem for p in stamped.iterdir()}
    assert len(stems) == 1
    assert re.fullmatch(r"ablation_\d{8}T\d{6}Z", stems.pop())


def test_write_report_files(tmp_path, capsys):
    points = [TtlSweepPoint(1.0, 2, 3), TtlSweepPoint(2.5, 4, 5)]
    _write_report(_report_args(tmp_path, True), "exp", "points", points,
                  k=[1, 2])
    capsys.readouterr()
    assert (tmp_path / "exp_report.csv").read_text() == (
        "window,peak_entries,bytes_estimate\n1,2,3\n2.5,4,5\n")
    assert json.loads((tmp_path / "exp_report.json").read_text()) == {
        "experiment": "exp", "seed": 7, "k": [1, 2],
        "points": [dataclasses.asdict(p) for p in points]}


def test_sim_report_json_dict_roundtrips():
    scenario = AttackScenario(kind=AttackKind.CONTEXT_REDIRECT,
                              replay_count=3, seed=18)
    report = run_experiment(Mode.FULL, scenario,
                            gen_legit_workload(5, 2, seed=17),
                            Keystore.for_issuers(sim_issuer(17)))
    obj = dataclasses.asdict(report)  # as the command line writes it
    assert obj["scenario"] == "context-redirect"
    assert obj["registry_stats"]["live_count"] == report.registry_stats.live_count
    json.dumps(obj)  # must be JSON-serializable as-is
