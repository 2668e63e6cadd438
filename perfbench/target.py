"""The process under test, driven by run.py over stdin and stdout.

    python3 perfbench/target.py gateway --keystore K --window W
    python3 perfbench/target.py churn --keystore K --seed S

``gateway`` serves the ztrv gateway and its MockMerchant on loopback.
``churn`` loads the keystore and, on request, calls ``ztrv.verify`` from
worker threads on pre-issued mandates.  Once set up, the process prints one
JSON line with ``"event": "ready"``.  Then each line on stdin is a JSON
command, answered by one JSON line on stdout:

    {"op": "usage"}               CPU seconds and peak RSS so far
    {"op": "trace"}               start recording spans (tracer.py)
    {"op": "prepare"}             churn: generate the pool, fill the registry
    {"op": "run", "blocks": [s..]} churn: verify, timed in blocks of s seconds
    {"op": "stop", "spans": path} report final state, write spans, exit

End of input stops the process without a report.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import sys
import threading
import time
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

from stats import latency_summary, percentile
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

# the registry's memory is measured on this many verified mandates
MEMORY_PROBE_ENTRIES = 20_000


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def status_kb(field: str) -> int:
    """A memory figure of this process from /proc/self/status, in kB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def usage() -> dict:
    """CPU seconds so far, and peak resident memory (VmHWM).

    Not ru_maxrss: Linux carries that over from the parent across exec, so a
    child started by a harness holding its inputs would report the harness.
    """
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime,
            "maxrss_kb": status_kb("VmHWM")}


def install_probes(tracer) -> None:
    """Spans around the ztrv layers every workload goes through."""
    import ztrv
    from ztrv import mandate, verifier
    tracer.trace_function(mandate.request_from_wire, "mandate.request_from_wire")
    tracer.trace_function(mandate.request_problem, "mandate.request_problem")
    tracer.trace_function(mandate.signing_bytes, "mandate.signing_bytes")
    tracer.trace_function(mandate.hash_context_fields, "mandate.hash_context")
    tracer.trace_function(verifier.verify, "verifier.verify")
    tracer.trace_attr(mandate.ENGINE, "verify", "ed25519.verify")
    tracer.trace_attr(ztrv.NonceRegistry, "consume_once",
                      "registry.consume_once")


def trace_summary(tracer) -> dict:
    return tracer.summary(durations_of=("registry.consume_once",))


class _JsonWithTracedLoads:
    """Stands in for the json module inside ztrv.gateway, timing loads."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


class GatewayTarget:
    def __init__(self, args):
        import ztrv
        self.ztrv = ztrv
        self.merchant = ztrv.MockMerchant().start()
        config = ztrv.GatewayConfig(
            listen_address="127.0.0.1:0",
            upstream_url=self.merchant.base_url + "/pay",
            keystore_path=args.keystore,
            verifier=ztrv.VerifierConfig(window=args.window))
        self.gateway = ztrv.ZtrvGateway(config).start()
        self.tracer = None

    def ready(self) -> dict:
        return {"port": self.gateway.port}

    def trace(self) -> None:
        ztrv = self.ztrv
        self.tracer = tracer = Tracer()
        install_probes(tracer)
        tracer.trace_attr(ztrv.ZtrvGateway, "handle_execute",
                          "gateway.handle_execute")
        tracer.trace_attr(ztrv.ZtrvGateway, "_forward", "gateway.forward")
        # nested only: MockMerchant, in the same module, parses each
        # forwarded body outside any span, and that parse is not the gateway's
        tracer.replace(ztrv.gateway, "json", _JsonWithTracedLoads(
            tracer.wrap("mandate.json_loads", json.loads, nested_only=True)))
        tracer.count_accepts()

    def stop(self, spans_path: str) -> dict:
        stats = self.gateway.registry.stats()
        report = {
            "ledger": [mid for mid, _ in self.merchant.ledger.entries()],
            "registry": {"live": stats.live_count, "peak": stats.peak_count,
                         "evicted": stats.evicted_total,
                         "bytes_estimate": stats.bytes_estimate},
        }
        if self.tracer is not None:
            self.tracer.restore()
            report["trace"] = trace_summary(self.tracer)
            accepts = self.tracer.accepts
            report["conns"] = {"gateway": accepts[self.gateway.port],
                               "upstream": accepts[self.merchant.port]}
            self.tracer.write(Path(spans_path))
        self.close()
        report.update(usage())
        return report

    def close(self) -> None:
        self.gateway.shutdown()
        self.merchant.shutdown()


class ChurnTarget:
    """nproc threads verify a pool of mandates on a virtual clock.

    A pass starts with a fresh registry filled, untimed, to its live size
    (``workloads.churn_fill_keys``).  The threads then verify pool mandate j
    at its issue instant, so every timed verify finds the registry at its
    live size and evicting.  When the pool runs out, a new pass starts; the
    time and CPU spent filling its registry are left out of the figures.
    Peak memory is read when the first pass ends: discarding a registry is
    the benchmark's doing, and the allocator does not give all of it back.
    """

    def __init__(self, args):
        import ztrv
        self.ztrv = ztrv
        self.keystore = ztrv.Keystore.from_file(args.keystore)
        self.seed = args.seed
        self.tracer = None
        self.registry = None
        self.next_index = 0
        self.retired: list = []
        self.first_pass_maxrss_kb = None
        # taken before trace() can wrap it: filling is not a request
        self.claim = ztrv.NonceRegistry.consume_once

    def ready(self) -> dict:
        return {}

    def prepare(self) -> dict:
        """Generate the pool, note the memory it takes, fill the registry.

        ``baseline_rss_kb`` is the resident memory once the pool is held
        and before the first registry exists; run.py reports peak memory
        above it, so the benchmark's own input stays out of the figure.
        """
        import workloads
        self.workloads = workloads
        self.config = self.ztrv.VerifierConfig(window=workloads.CHURN_WINDOW_S)
        self.bodies, self.expects = workloads.legit_requests(
            "verify-churn", self.seed, workloads.CHURN_POOL,
            step_ms=workloads.CHURN_STEP_MS,
            first_ms=workloads.CHURN_LIVE * workloads.CHURN_STEP_MS)
        gc.collect()
        baseline = status_kb("VmRSS")
        self.new_pass()
        return {"pool": len(self.bodies), "baseline_rss_kb": baseline}

    def new_pass(self) -> None:
        if self.registry is not None:
            self.retired.append(self.registry.stats())
            if self.first_pass_maxrss_kb is None:
                self.first_pass_maxrss_kb = usage()["maxrss_kb"]
        self.registry = None  # release the old entries before filling anew
        registry = self.ztrv.NonceRegistry()
        ttl = self.config.window_ms
        for key, now in self.workloads.churn_fill_keys(self.seed):
            self.claim(registry, key, now, ttl)
        self.registry, self.next_index = registry, 0

    def trace(self) -> None:
        self.tracer = Tracer()
        install_probes(self.tracer)

    def run(self, blocks: list[float]) -> dict:
        """Verify for ``sum(blocks)`` seconds, timed block by block.

        Besides the totals, the reply lists each block's seconds, CPU
        seconds, verifies and p50 latency, from which run.py takes medians.
        """
        ztrv = self.ztrv
        loads = json.loads
        if self.tracer is not None:
            loads = self.tracer.wrap("mandate.json_loads", json.loads)
        # looked up now, so that trace() has already swapped in its wrappers
        from_wire, verify = ztrv.request_from_wire, ztrv.verify
        bodies, expects = self.bodies, self.expects
        matches = self.workloads.matches
        epoch, step = self.workloads.ISSUE_EPOCH_MS, self.workloads.CHURN_STEP_MS
        first = epoch + self.workloads.CHURN_LIVE * step
        config, keystore = self.config, self.keystore
        pool = len(bodies)
        results = []

        def worker(registry, positions, deadline):
            latencies = array("q")
            reasons: Counter = Counter()
            failed, problems = 0, []
            clock = time.perf_counter_ns
            while clock() < deadline:
                j = next(positions)
                if j >= pool:
                    break
                start = clock()
                try:
                    decision = verify(from_wire(loads(bodies[j])),
                                      first + j * step, config, registry,
                                      keystore)
                    answer = (200 if decision.accepted else 403,
                              decision.reason.value, decision.mandate_id)
                except Exception as exc:  # a crash is a wrong answer
                    answer = (0, repr(exc), "")
                latencies.append(clock() - start)
                reasons[answer[1]] += 1
                if not matches(expects[j], *answer):
                    failed += 1
                    if len(problems) < 10:
                        problems.append(f"mandate {j}: expected "
                                        f"{tuple(expects[j])}, got {answer}")
            results.append((latencies, reasons, failed, problems))

        def segments(seconds):
            """Timed segments, each on one pass, until `seconds` are timed."""
            elapsed = cpu = 0.0
            while elapsed < seconds:
                if self.next_index >= pool:
                    self.new_pass()
                positions = itertools.count(self.next_index)
                cpu_before = usage()["cpu_s"]
                start = time.perf_counter_ns()
                deadline = start + int((seconds - elapsed) * 1e9)
                threads = [threading.Thread(target=worker, args=(
                               self.registry, positions, deadline))
                           for _ in range(len(os.sched_getaffinity(0)))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                elapsed += (time.perf_counter_ns() - start) / 1e9
                cpu += usage()["cpu_s"] - cpu_before
                self.next_index = min(pool, next(positions))
            return elapsed, cpu

        per_block = []
        for seconds in blocks:
            first_result = len(results)
            elapsed, cpu = segments(seconds)
            block = sorted(itertools.chain.from_iterable(
                r[0] for r in results[first_result:]))
            per_block.append({"elapsed_s": elapsed, "cpu_s": cpu,
                              "attempted": len(block),
                              "latency_p50_ns": percentile(block, 50)})
        # read before the summary below builds its own lists
        maxrss_kb = self.first_pass_maxrss_kb or usage()["maxrss_kb"]
        latencies = list(itertools.chain.from_iterable(r[0] for r in results))
        reasons = sum((r[1] for r in results), Counter())
        problems = [p for r in results for p in r[3]]
        return {"attempted": len(latencies), "failed": sum(r[2] for r in results),
                "problems": problems[:10], "blocks": per_block,
                "elapsed_s": sum(b["elapsed_s"] for b in per_block),
                "cpu_s": sum(b["cpu_s"] for b in per_block),
                "maxrss_kb": maxrss_kb,
                "reasons": dict(reasons), **latency_summary(latencies)}

    def memory_probe(self) -> dict:
        """Registry bytes per live entry, measured with tracemalloc.

        A fresh registry takes MEMORY_PROBE_ENTRIES mandates through the
        same calls as the run; what tracemalloc still sees allocated
        afterwards is held by the registry.
        """
        ztrv = self.ztrv
        registry = ztrv.NonceRegistry()
        step = self.workloads.CHURN_STEP_MS
        first = self.workloads.ISSUE_EPOCH_MS + self.workloads.CHURN_LIVE * step
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for j in range(MEMORY_PROBE_ENTRIES):
                ztrv.verify(ztrv.request_from_wire(json.loads(self.bodies[j])),
                            first + j * step, self.config, registry,
                            self.keystore)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        stats = registry.stats()
        return {"bytes_per_entry": (after - before) / stats.live_count,
                "estimate_bytes_per_entry":
                    stats.bytes_estimate / stats.live_count}

    def stop(self, spans_path: str) -> dict:
        states = self.retired + [self.registry.stats()]
        report = {"registry": {
            "live": states[-1].live_count,
            "peak": max(s.peak_count for s in states),
            "evicted": sum(s.evicted_total for s in states),
            "bytes_estimate": states[-1].bytes_estimate,
            "passes": len(states)}}
        if self.tracer is not None:
            self.tracer.restore()
            report["trace"] = trace_summary(self.tracer)
            self.tracer.write(Path(spans_path))
            report["memory"] = self.memory_probe()
        report.update(usage())
        return report

    def close(self) -> None:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("gateway", "churn"))
    parser.add_argument("--keystore", required=True)
    parser.add_argument("--window", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    target = GatewayTarget(args) if args.mode == "gateway" else ChurnTarget(args)
    reply({"event": "ready", **target.ready()})
    for line in sys.stdin:
        command = json.loads(line)
        op = command["op"]
        if op == "usage":
            reply(usage())
        elif op == "trace":
            target.trace()
            reply({"ok": True})
        elif op == "prepare":
            reply(target.prepare())
        elif op == "run":
            reply(target.run(command["blocks"]))
        elif op == "stop":
            reply(target.stop(command["spans"]))
            return 0
        else:
            reply({"error": f"unknown op {op!r}"})
    target.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
