import hashlib
import json
import re
import struct

import pytest

from ztrv import (
    AttackKind,
    AttackScenario,
    Mode,
    VIRTUAL_EPOCH_MS,
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
from ztrv import simharness
from ztrv.registry import PER_ENTRY_BYTES
from ztrv.simharness import (
    MERCHANT_POOL,
    ROGUE_SCOPE_POOL,
    SCOPE_POOL,
    report_basename,
    summarize_timings,
    write_report_files,
)
from ztrv.verifier import StageTimings

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
    issuer = sim_issuer(5)
    a = gen_legit_workload(10, 1.0, seed=5, issuer=issuer)
    b = gen_legit_workload(10, 1.0, seed=5, issuer=issuer)
    assert len(a) == 10
    assert [i.request.mandate.nonce for i in a] == \
           [i.request.mandate.nonce for i in b]
    assert [i.request.context for i in a] == [i.request.context for i in b]
    c = gen_legit_workload(10, 1.0, seed=6, issuer=issuer)
    assert [i.request.mandate.nonce for i in a] != \
           [i.request.mandate.nonce for i in c]


def test_workload_shape():
    issuer = sim_issuer(7)
    items = gen_legit_workload(50, 2.0, seed=7, issuer=issuer)
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
    assert verify_signature(items[0].request.mandate, issuer.public_key)


def test_workload_validates_params():
    issuer = sim_issuer(1)
    with pytest.raises(ValueError):
        gen_legit_workload(0, 1, seed=1, issuer=issuer)


def test_sim_issuer_deterministic():
    assert sim_issuer(9).public_key == sim_issuer(9).public_key
    assert sim_issuer(9).public_key != sim_issuer(10).public_key


# ---------------------------------------------------------------------------
# attack derivation
# ---------------------------------------------------------------------------

@pytest.fixture
def victims():
    issuer = sim_issuer(11)
    return gen_legit_workload(20, 5.0, seed=11, issuer=issuer)


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
        inject_attack(AttackScenario(kind=AttackKind.CONTEXT_REDIRECT), [])
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
    report = run_experiment(mode, scenario, rate=6, duration=10, seed=seed,
                            concurrency=8)

    issuer = sim_issuer(seed)
    workload = gen_legit_workload(6, 10, seed=seed, issuer=issuer)
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
    run_experiment(Mode.FULL, scenario, rate=5, duration=2, seed=9,
                   concurrency=8)
    assert sizes == [8]


def test_legit_only_zero_fpr_all_modes():
    for mode in Mode:
        report = run_experiment(mode, None, rate=5, duration=10, seed=2)
        assert report.scenario == "legitimate"
        assert report.legit_sent == 50
        assert report.legit_accepted == 50
        assert report.false_positive_rate == 0.0
        assert report.attacks_launched == 0
        assert report.interception_rate == 0.0


def test_run_experiment_reproducible_scalars():
    scenario = AttackScenario(kind=AttackKind.SAME_CONTEXT_REPLAY,
                              replay_count=20, seed=8)
    a = run_experiment(Mode.FULL, scenario, rate=10, duration=5, seed=21)
    b = run_experiment(Mode.FULL, scenario, rate=10, duration=5, seed=21)
    assert a.csv_row() == b.csv_row()
    assert a.registry_stats == b.registry_stats


# ---------------------------------------------------------------------------
# ttl sweep
# ---------------------------------------------------------------------------

def test_ttl_sweep_matches_reference_registry():
    rate, duration = 100, 10
    points = ttl_sweep([2, 5, 20], rate=rate, duration=duration, seed=13)

    issuer = sim_issuer(13)
    workload = gen_legit_workload(rate, duration, seed=13, issuer=issuer)
    for point in points:
        ttl_ms = int(point.window * 1000) + 1  # window + 2*skew + 1, skew 0
        entries = {}
        peak = 0
        next_sweep = workload[0].at_ms + 100
        for item in workload:
            while item.at_ms >= next_sweep:
                for key in [k for k, exp in entries.items()
                            if exp <= next_sweep]:
                    del entries[key]
                next_sweep += 100
            entries["nonce:" + item.request.mandate.nonce] = \
                item.at_ms + ttl_ms
            peak = max(peak, len(entries))
        assert point.peak_entries == peak, f"window {point.window}"
        assert point.bytes_estimate == peak * PER_ENTRY_BYTES


def test_ttl_sweep_plateau_at_duration():
    points = ttl_sweep([15, 20], rate=50, duration=10, seed=14)
    assert points[0].peak_entries == points[1].peak_entries == 500


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


def test_throughput_bench_rejects_bad_rate():
    with pytest.raises(ValueError):
        throughput_bench([0], duration=1)


# ---------------------------------------------------------------------------
# reports and files
# ---------------------------------------------------------------------------

def test_summarize_timings_percentiles():
    timings = [StageTimings(signature_ns=i + 1, context_ns=1, registry_ns=1,
                            total_ns=i + 3) for i in range(100)]
    pct = summarize_timings(timings)
    assert pct["signature_ns"] == {"p50": 50, "p90": 90, "p99": 99}
    assert pct["total_ns"]["p99"] == 101
    assert summarize_timings([])["total_ns"] == {"p50": 0, "p90": 0, "p99": 0}


def test_report_basename():
    assert report_basename("ablation", True) == "ablation_report"
    stamped = report_basename("ablation", False)
    assert re.fullmatch(r"ablation_\d{8}T\d{6}Z", stamped)


def test_write_report_files(tmp_path):
    csv_path, json_path = write_report_files(
        tmp_path / "out", "exp_report", ("a", "b"), [[1, 2], [3, 4]],
        {"k": [1, 2]})
    assert csv_path.read_text() == "a,b\n1,2\n3,4\n"
    assert json.loads(json_path.read_text()) == {"k": [1, 2]}


def test_sim_report_json_dict_roundtrips():
    report = run_experiment(Mode.FULL, None, rate=5, duration=2, seed=17)
    obj = report.to_json_dict()
    assert obj["scenario"] == "legitimate"
    assert obj["registry_stats"]["live_count"] == report.registry_stats.live_count
    json.dumps(obj)  # must be JSON-serializable as-is
