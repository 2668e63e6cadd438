"""Tests of the benchmark's own parts: seeded inputs, the checker, one run.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads
from workloads import Expect, check

RUN = Path(__file__).resolve().parent / "run.py"
A, B, C = "a" * 32, "b" * 32, "c" * 32


def test_same_seed_gives_byte_identical_bodies():
    first = workloads.legit_requests("gateway-checkout", 7, 40)
    again = workloads.legit_requests("gateway-checkout", 7, 40)
    other = workloads.legit_requests("gateway-checkout", 8, 40)
    assert first == again
    assert first[0] != other[0]

    storm, storm_again = workloads.storm_variants(7), workloads.storm_variants(7)
    assert storm == storm_again
    assert (workloads.storm_schedule(7, storm[2], 1000)
            == workloads.storm_schedule(7, storm_again[2], 1000))
    assert workloads.storm_variants(8)[0] != storm[0]


def _answers():
    expects = [Expect(200, "Authorized", A),
               Expect(403, "ContextMismatch", B),
               Expect(403, "ReplayDetected", C, group=0)]
    observed = [(0, 200, "Authorized", A),
                (1, 403, "ContextMismatch", B),
                (2, 403, "ReplayDetected", C),
                (2, 200, "Authorized", C)]
    return expects, observed, [A, C]


def test_checker_passes_right_answers():
    verdict = check(*_answers())
    assert verdict.failed == 0
    assert verdict.attempted == 4
    assert verdict.accepted == 2


def test_checker_flags_a_deliberately_wrong_expectation():
    expects, observed, ledger = _answers()
    expects[1] = Expect(403, "InvalidSignature", B)
    verdict = check(expects, observed, ledger)
    assert verdict.failed == 1
    assert "request 1" in verdict.problems[0]


def test_checker_flags_replays_ledger_and_transport_errors():
    expects, observed, ledger = _answers()
    double = observed + [(2, 200, "Authorized", C)]
    assert check(expects, double, ledger + [C]).failed >= 1
    none_accepted = [o for o in observed if o[1] != 200 or o[0] != 2]
    assert check(expects, none_accepted, [A]).failed == 1
    assert check(expects, observed, [A]).failed == 1          # accept not in ledger
    assert check(expects, observed, ledger + [A]).failed == 1  # ledger twice
    lost = observed[:1] + [(1, 0, "", "")] + observed[2:]
    assert check(expects, lost, ledger).failed == 1


def test_peak_memory_is_the_process_own_not_its_parents():
    ballast = bytearray(b"\1") * (64 << 20)  # touched, so it is resident
    code = "import json, target; print(json.dumps(target.usage()))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=RUN.parent,
                          capture_output=True, text=True, check=True)
    del ballast
    assert json.loads(proc.stdout)["maxrss_kb"] < 48 << 10


def test_storm_run_is_correct_and_ends_with_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "gateway-replay-storm",
         "--seed", "5", "--seconds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert "error_rate" in proc.stdout
