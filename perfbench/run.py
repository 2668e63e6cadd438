"""The ztrv benchmark: three seeded workloads against the unmodified package.

    python3 perfbench/run.py --workload gateway-checkout --seed 1 --seconds 30
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload verify-churn --trace 1

Workloads (BENCHMARK.json says why each is there and which layers it loads):

  gateway-checkout      keep-alive HTTP, every request a fresh valid mandate
  gateway-replay-storm  a new connection per request, carrying attack traffic,
                        one request at a time
  verify-churn          in process, nproc threads calling ztrv.verify

The program under test runs in a child process (target.py); load comes from
this process with at most nproc threads or connections, in a closed loop.  Every
answer is checked against the ground truth the generator recorded
(workloads.py).  With ``--trace 0`` the run reports the end-to-end metrics.
With ``--trace 1`` it runs half its time untraced and half with spans around
each ztrv layer (tracer.py), and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every answer was
right, 1 when one was not, and 2 when the benchmark could not run.
Keystore, per-run result files and span dumps go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import client
from stats import latency_summary

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_work"

WORKLOADS = ("gateway-checkout", "gateway-replay-storm", "verify-churn")
# set-up is timed SETUP_SAMPLES times before the load and as many times
# after it; setup_s is the median of all of them
SETUP_SAMPLES = 5
# Before the timed legs, load runs untimed for WARMUP_S (its answers are
# still checked).  Each leg is then timed in blocks of about BLOCK_S, and
# latency_p50_us and server_cpu_us_per_req are medians over the blocks: a
# burst of CPU time the host takes from this VM, or of contention from its
# neighbours, moves a few blocks rather than the figure.
WARMUP_S = 1.0
BLOCK_S = 1.0
# Inputs are generated before the run; these rates bound what a run can use.
# Checkout serves ~45 req/s while keep-alive responses stall; fresh
# connections accept 620-700 req/s, so 2,000 leaves room for the fixed path.
CHECKOUT_MAX_RPS = 2_000
STORM_MAX_RPS = 20_000

# The seven end-to-end metrics, printed in this order.  The result line and
# BENCHMARK.json leave out the UNGATED ones.  On a shared 2-core VM, time
# the host steals from the VM goes straight into wall-clock throughput and
# the p99: while the host took 13% of the VM's CPU time, a storm run lost a
# third of its throughput and its p50 rose ~15%.  Throughput and p99 spread
# 20-35% between runs, too close to the largest bound allowed.  CPU per
# request follows how fast the host runs the VM, and that shifts by up to a
# third for a minute or more at a time: on gateway-checkout, whose server
# wakes cold for each request between 44 ms stalls, whole 30 s runs read
# 1.5k or 2.4k us, and runs spread 19% even as medians over blocks.
# The p50 carries the same costs on the storm and verify-churn with less
# noise.  error_rate is 0 on every correct run (the result line carries it
# as failed of attempted).
END_TO_END = (
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("server_cpu_us_per_req", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("latency_p99_us", "us"),
    ("error_rate", "ratio"),
)
UNGATED = ("throughput_rps", "server_cpu_us_per_req", "latency_p99_us",
           "error_rate")
REASONS = ("Authorized", "MalformedRequest", "InvalidSignature",
           "MandateExpired", "ContextMismatch", "ReplayDetected")
# Per-layer metrics come from the traced leg; a *_us metric is the mean self
# time per call unless its name says otherwise.  What each should move, where:
#   gateway.*   latency_p50_us and throughput_rps.  http_us (client latency
#               minus the handle_execute span) is ~99% of checkout latency
#               while keep-alive responses stall 44 ms; the storm has no
#               stall, so there the prediction is no change.  forward_us and
#               upstream_conns_per_accept (1.0 at first) move on checkout
#               only: the storm bypasses the forward.
#   mandate.*   server_cpu_us_per_req and throughput_rps on every workload,
#               undiluted on verify-churn.
#   ed25519.*   throughput_rps on verify-churn.  The call releases the GIL,
#               so Python time elsewhere caps how well two threads scale.
#   verifier.*  throughput_rps and server_cpu_us_per_req on verify-churn and
#               the storm.
#   registry.*  latency_p99_us (sweeps run under the lock) and peak_rss_mb on
#               verify-churn; the storm only looks nonces up, so no change.
#               bytes_per_entry is measured with tracemalloc on verify-churn
#               only; estimate_bytes_per_entry is what stats() reports.
PER_LAYER = (
    ("gateway.http_us", "us"),
    ("gateway.handle_execute_us", "us"),
    ("gateway.forward_us", "us"),
    ("gateway.upstream_conns_per_accept", "1/accept"),
    ("gateway.conns_per_request", "1/req"),
    ("gateway.status.200", "count"),
    ("gateway.status.403", "count"),
    ("mandate.json_loads_us", "us"),
    ("mandate.request_from_wire_us", "us"),
    ("mandate.request_problem_us", "us"),
    ("mandate.signing_bytes_us", "us"),
    ("mandate.hash_context_us", "us"),
    ("ed25519.verify_us", "us"),
    ("ed25519.verifies_per_request", "1/req"),
    ("verifier.verify_us", "us"),
    ("verifier.self_us", "us"),
    *((f"verifier.decisions.{reason}", "count") for reason in REASONS),
    ("registry.consume_once_p50_us", "us"),
    ("registry.consume_once_p99_us", "us"),
    ("registry.claims_per_request", "1/req"),
    ("registry.live_peak", "count"),
    ("registry.evicted_total", "count"),
    ("registry.bytes_per_entry", "B"),
    ("registry.estimate_bytes_per_entry", "B"),
    ("trace_overhead_pct", "%"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Target:
    """One process under test, spoken to over its stdin and stdout."""

    def __init__(self, argv: list[str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "target.py"), *argv], cwd=REPO,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"process under test exited with code "
                               f"{self.proc.wait()}")
        return json.loads(line)

    def call(self, op: str, **args) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **args}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """End the process (end of input stops it) and wait for it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_target(argv: list[str], targets: list[Target]) -> float:
    """Start a process under test; seconds until it serves, or is set up.

    A gateway counts as up once ``/healthz`` answers 200.
    """
    t0 = time.perf_counter()
    target = Target(argv)
    targets.append(target)
    port = target.ready.get("port")
    if port is not None:
        while client.get(port, "/healthz") != 200:
            if time.perf_counter() - t0 > 30:
                raise RuntimeError("gateway did not answer /healthz")
            time.sleep(0.002)
    return time.perf_counter() - t0


def set_up(argv: list[str], targets: list[Target]) -> list[float]:
    """Start SETUP_SAMPLES processes under test and keep only the last.

    The processes started before are ended first, outside the timing.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        while targets:
            targets.pop().close()
        samples.append(start_target(argv, targets))
    return samples


def legs(seconds: float, trace: bool) -> list[tuple[bool, float]]:
    return [(False, seconds / 2), (True, seconds / 2)] if trace \
        else [(False, seconds)]


def block_lengths(seconds: float) -> list[float]:
    count = max(1, round(seconds / BLOCK_S))
    return [seconds / count] * count


def combine(blocks: list[dict]) -> dict:
    """One leg from its blocks: the totals, plus the per-block p50 latency
    and CPU per request whose medians are reported."""
    leg = {key: sum(b[key] for b in blocks) for key in
           ("elapsed_s", "attempted", "completed", "cpu_s")}
    leg["block_p50_ns"] = [b["latency_p50_ns"] for b in blocks]
    leg["block_cpu_us_per_req"] = [b["cpu_s"] * 1e6 / max(1, b["completed"])
                                   for b in blocks]
    return leg


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_http(name: str, seed: int, seconds: float, trace: bool,
             keystore: Path, targets: list[Target]) -> dict:
    import workloads
    keepalive = name == "gateway-checkout"
    if keepalive:
        bodies, expects = workloads.legit_requests(
            name, seed, max(1, int(seconds * CHECKOUT_MAX_RPS)))
        order = list(range(len(bodies)))
    else:
        bodies, expects, kinds = workloads.storm_variants(seed)
        order = workloads.storm_schedule(seed, kinds,
                                         max(1, int(seconds * STORM_MAX_RPS)))
    requests = [client.frame(body, keepalive) for body in bodies]
    del bodies
    # One storm connection keeps client and server busy in turn: a second
    # one added no throughput (1.05-1.2k req/s either way on 2 cores), only
    # GIL and run-queue waits, and raised the share of latency spent in
    # requests slower than 5 ms from 1-3% to 8-15%.
    sockets = [None] * (nproc() if keepalive else 1)

    argv = ["gateway", "--keystore", str(keystore),
            "--window", repr(workloads.http_window_s())]
    setup = set_up(argv, targets)
    target = targets[-1]
    port = target.ready["port"]
    position = 0
    observed = []

    def block(seconds: float) -> dict:
        """Load the gateway for ``seconds``; check and summarise answers."""
        nonlocal position
        before = target.call("usage")
        results, elapsed = client.closed_loop(
            port, requests, order, position, sockets, keepalive, seconds)
        after = target.call("usage")
        if results:
            position = results[-1][0] + 1
        answers = [(order[k], status, *workloads.answer_of(status, body))
                   for k, status, body, _ in results]
        observed.extend(answers)
        return {
            "elapsed_s": elapsed,
            "attempted": len(results),
            "completed": sum(1 for r in results if r[1] != 0),
            "correct": sum(1 for a in answers
                           if workloads.matches(expects[a[0]], *a[1:])),
            "latencies": [r[3] for r in results],
            "statuses": Counter(r[1] for r in results),
            "reasons": Counter(a[2] for a in answers),
            "cpu_s": after["cpu_s"] - before["cpu_s"],
        }

    block(WARMUP_S)
    runs = []
    for traced, leg_seconds in legs(seconds, trace):
        if traced:
            target.call("trace")
        blocks = []
        for length in block_lengths(leg_seconds):
            blocks.append(block(length))
            blocks[-1].update(latency_summary(blocks[-1]["latencies"]))
        runs.append({
            **combine(blocks),
            "correct": sum(b["correct"] for b in blocks),
            **latency_summary([t for b in blocks for t in b["latencies"]]),
            "statuses": sum((b["statuses"] for b in blocks), Counter()),
            "reasons": sum((b["reasons"] for b in blocks), Counter()),
            "exhausted": position >= len(order),
        })
    client.close_all(sockets)
    report = target.call("stop", spans=str(WORK / f"spans-{name}.bin"))
    setup += set_up(argv, targets)
    verdict = workloads.check(expects, observed, ledger=report["ledger"])
    return {"runs": runs, "report": report, "verdict": verdict,
            "setup": setup, "peak_rss_kb": report["maxrss_kb"]}


def run_churn(name: str, seed: int, seconds: float, trace: bool,
              keystore: Path, targets: list[Target]) -> dict:
    import workloads
    argv = ["churn", "--keystore", str(keystore), "--seed", str(seed)]
    setup = set_up(argv, targets)
    target = targets[-1]
    prepared = target.call("prepare")
    warmup = target.call("run", blocks=[WARMUP_S])
    runs = []
    for traced, leg_seconds in legs(seconds, trace):
        if traced:
            target.call("trace")
        leg = target.call("run", blocks=block_lengths(leg_seconds))
        for b in leg["blocks"]:
            b["completed"] = b["attempted"]
        runs.append({
            **combine(leg["blocks"]),
            "correct": leg["attempted"] - leg["failed"],
            **{k: v for k, v in leg.items() if k.startswith("latency_")},
            "reasons": Counter(leg["reasons"]),
            "statuses": Counter(),
            "maxrss_kb": leg["maxrss_kb"],
            "problems": leg["problems"],
        })
    report = target.call("stop", spans=str(WORK / f"spans-{name}.bin"))
    setup += set_up(argv, targets)
    attempted = warmup["attempted"] + sum(r["attempted"] for r in runs)
    failed = warmup["failed"] + sum(r["attempted"] - r["correct"] for r in runs)
    problems = (warmup["problems"] + [p for r in runs for p in r["problems"]])[:10]
    accepted = warmup["reasons"].get("Authorized", 0) + sum(
        r["reasons"]["Authorized"] for r in runs)
    verdict = workloads.Verdict(attempted, failed, accepted, problems)
    # peak by the end of the first pass (or leg), above the input pool
    peak_rss_kb = runs[0]["maxrss_kb"] - prepared["baseline_rss_kb"]
    return {"runs": runs, "report": report, "verdict": verdict,
            "setup": setup, "peak_rss_kb": peak_rss_kb}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _throughput(run: dict) -> float:
    return run["correct"] / run["elapsed_s"] if run["elapsed_s"] > 0 else 0.0


def end_to_end(outcome: dict) -> dict:
    run = outcome["runs"][0]
    verdict = outcome["verdict"]
    return {
        "throughput_rps": _throughput(run),
        "latency_p50_us": statistics.median(run["block_p50_ns"]) / 1000,
        "server_cpu_us_per_req": statistics.median(run["block_cpu_us_per_req"]),
        "peak_rss_mb": outcome["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(outcome["setup"]),
        "latency_p99_us": run["latency_p99_ns"] / 1000,
        "error_rate": verdict.failed / max(1, verdict.attempted),
    }


def per_layer(outcome: dict) -> dict:
    untraced, traced = outcome["runs"]
    report = outcome["report"]
    spans = report.get("trace", {})
    requests = max(1, traced["attempted"])

    def span(name: str) -> dict:
        return spans.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

    def mean_us(name: str, key: str = "self_ns") -> float:
        entry = span(name)
        return entry[key] / entry["calls"] / 1000 if entry["calls"] else 0.0

    registry = report["registry"]
    memory = report.get("memory", {})
    conns = report.get("conns", {"gateway": 0, "upstream": 0})
    accepts = traced["statuses"][200]
    base = _throughput(untraced)
    metrics = {
        "gateway.http_us": traced["latency_mean_ns"] / 1000
        - mean_us("gateway.handle_execute", "total_ns")
        if span("gateway.handle_execute")["calls"] else 0.0,
        "gateway.handle_execute_us": mean_us("gateway.handle_execute"),
        "gateway.forward_us": mean_us("gateway.forward"),
        "gateway.upstream_conns_per_accept":
            conns["upstream"] / accepts if accepts else 0.0,
        "gateway.conns_per_request": conns["gateway"] / requests,
        "gateway.status.200": traced["statuses"][200],
        "gateway.status.403": traced["statuses"][403],
        "mandate.json_loads_us": mean_us("mandate.json_loads"),
        "mandate.request_from_wire_us": mean_us("mandate.request_from_wire"),
        "mandate.request_problem_us": mean_us("mandate.request_problem"),
        "mandate.signing_bytes_us": mean_us("mandate.signing_bytes"),
        "mandate.hash_context_us": mean_us("mandate.hash_context"),
        "ed25519.verify_us": mean_us("ed25519.verify"),
        "ed25519.verifies_per_request": span("ed25519.verify")["calls"] / requests,
        "verifier.verify_us": mean_us("verifier.verify", "total_ns"),
        "verifier.self_us": mean_us("verifier.verify"),
        **{f"verifier.decisions.{r}": traced["reasons"][r] for r in REASONS},
        "registry.consume_once_p50_us":
            span("registry.consume_once").get("p50_ns", 0) / 1000,
        "registry.consume_once_p99_us":
            span("registry.consume_once").get("p99_ns", 0) / 1000,
        "registry.claims_per_request":
            span("registry.consume_once")["calls"] / requests,
        "registry.live_peak": registry["peak"],
        "registry.evicted_total": registry["evicted"],
        "registry.bytes_per_entry": memory.get("bytes_per_entry", 0.0),
        "registry.estimate_bytes_per_entry": memory.get(
            "estimate_bytes_per_entry",
            registry["bytes_estimate"] / registry["live"] if registry["live"]
            else 0.0),
        "trace_overhead_pct":
            100 * (1 - _throughput(traced) / base) if base else 0.0,
    }
    return metrics


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def host() -> dict:
    from ztrv._ed25519 import ENGINE
    return {"nproc": nproc(), "python": platform.python_version(),
            "ed25519_engine": ENGINE.name, "machine": platform.machine(),
            "transport": "loopback (127.0.0.1): traffic never leaves the host"}


def describe(name: str, seed: int, trace: bool, outcome: dict,
             metrics: dict, units: dict) -> list[str]:
    verdict = outcome["verdict"]
    lines = [f"# {name} seed={seed} trace={int(trace)}: "
             f"{verdict.attempted} requests, {verdict.failed} failed, "
             f"{verdict.accepted} accepted"]
    first = outcome["runs"][0]
    samples = {
        "throughput_rps": f"{first['correct']} correct in "
                          f"{first['elapsed_s']:.2f} s",
        "latency_p50_us": f"median of {len(first['block_p50_ns'])} blocks, "
                          f"n={first['attempted']}",
        "latency_p99_us": f"n={first['attempted']}",
        "error_rate": f"{verdict.failed} of {verdict.attempted}",
        "server_cpu_us_per_req": f"median of "
                                 f"{len(first['block_cpu_us_per_req'])} "
                                 f"blocks, n={first['completed']}",
        "peak_rss_mb": "process under test" + (
            ", first pass, above its input pool" if name == "verify-churn"
            else ""),
        "setup_s": f"median of {len(outcome['setup'])}",
    }
    for metric, value in metrics.items():
        note = samples.get(metric, "") if not trace else ""
        lines.append(f"  {metric:<36} {value:>14.4f} {units[metric]:<9} {note}")
    if any(r.get("exhausted") for r in outcome["runs"]):
        lines.append("  note: the generated inputs ran out before the time")
    for problem in verdict.problems:
        lines.append(f"  MISMATCH {problem}")
    return lines


def run_one(name: str, seed: int, seconds: float, trace: bool,
            keystore: Path) -> dict:
    targets: list[Target] = []
    runner = run_churn if name == "verify-churn" else run_http
    try:
        outcome = runner(name, seed, seconds, trace, keystore, targets)
    finally:
        for target in targets:
            target.close()
    verdict = outcome["verdict"]
    if trace:
        metrics, units = per_layer(outcome), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(outcome), dict(END_TO_END)
    for line in describe(name, seed, trace, outcome, metrics, units):
        print(line)
    result = {
        "correct": verdict.failed == 0 and verdict.attempted > 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]}
                    for m in metrics if m not in UNGATED},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "host": host(), "setup_samples_s":
              outcome["setup"], "registry": outcome["report"]["registry"],
              "problems": verdict.problems, **result,
              "all_metrics": metrics, "blocks": [
                  {"p50_ns": run["block_p50_ns"],
                   "cpu_us_per_req": run["block_cpu_us_per_req"]}
                  for run in outcome["runs"]]}
    (WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def _timeout(signum, frame):
    raise TimeoutError("benchmark run exceeded its time limit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ztrv" / "__init__.py").is_file():
        print(f"perfbench: no ztrv package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    signal.signal(signal.SIGALRM, _timeout)
    try:
        WORK.mkdir(exist_ok=True)
        keystore = WORK / "keystore.json"
        workloads.write_keystore(keystore)
        print("# host: " + ", ".join(f"{k}={v}" for k, v in host().items()))
        results = []
        for name in names:
            signal.alarm(int(args.seconds) + 120)
            results.append(run_one(name, args.seed, args.seconds, trace,
                                   keystore))
            signal.alarm(0)
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}/{metric}": value for name, r in
                        zip(names, results) for metric, value in
                        r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
