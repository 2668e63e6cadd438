"""Operator command line: serve the gateway, run the experiments.

Exit codes: 0 success, 1 usage error (bad flags, unwritable --out),
2 runtime failure (bad config file, crashed experiment).
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .gateway import ConfigError, ZtrvGateway, load_config
from .mandate import IssuerKey, Keystore
from .simharness import (
    DEFAULT_CONCURRENCY,
    AttackKind,
    ablation_run,
    attack_eval,
    capacity_probe,
    interception_matrix,
    report_basename,
    throughput_bench,
    ttl_sweep,
    write_report_files,
)
from .verifier import Mode

ENV_CONFIG = "ZTRV_CONFIG"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this artifact reserves
    # 2 for runtime failures and uses 1 for usage problems
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("value must be finite")
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _float_list(text: str) -> list[float]:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = float(part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{part!r} is not a number") from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError("values must be finite")
        if value <= 0:
            raise argparse.ArgumentTypeError("values must be positive")
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return values


def _ensure_out_dir(path_text: str) -> Path:
    path = Path(path_text)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {path_text}: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise UsageError(f"--out {path_text} is not writable")
    return path


def _check_replays(args) -> None:
    # the cross-context and redirect scenarios each take --replays distinct
    # mandates out of the --n legitimate ones
    if args.replays > args.n:
        raise UsageError(f"--replays ({args.replays}) must not exceed "
                         f"--n ({args.n})")


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    print(fmt(headers))
    print(fmt(["-" * w for w in widths]))
    for row in rows:
        print(fmt(row))


def _pct(x: float) -> str:
    return f"{x * 100:.2f}%"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_serve(args) -> int:
    config_path = args.config or os.environ.get(ENV_CONFIG)
    if not config_path:
        raise UsageError(f"no config: pass --config or set {ENV_CONFIG}")
    config = load_config(config_path)
    gateway = ZtrvGateway(config)
    print(f"ztrv gateway listening on {gateway.host}:{gateway.port}, "
          f"mode={config.verifier.mode.value}, "
          f"window={config.verifier.window:g}s, "
          f"upstream={config.upstream_url}", flush=True)
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
        gateway.shutdown()
    return 0


def cmd_attack_eval(args) -> int:
    _check_replays(args)
    out_dir = _ensure_out_dir(args.out)
    mode = Mode.parse(args.mode)
    reports = attack_eval(mode, n=args.n, seed=args.seed,
                          replay_count=args.replays,
                          concurrency=args.concurrency)
    rows = []
    for report in reports:
        rows.append([report.scenario, _pct(report.interception_rate),
                     f"{report.attacks_intercepted}/{report.attacks_launched}",
                     str(report.legit_sent), _pct(report.false_positive_rate)])
    print(f"mode={mode.value}  n={args.n}  seed={args.seed}")
    _print_table(["scenario", "interception", "intercepted/launched",
                  "legit sent", "false positives"], rows)

    basename = report_basename("attack_eval", args.fixed_name)
    csv_path, json_path = write_report_files(
        out_dir, basename, reports[0].CSV_FIELDS,
        [r.csv_row() for r in reports],
        {"experiment": "attack_eval", "mode": mode.value, "n": args.n,
         "seed": args.seed, "reports": [r.to_json_dict() for r in reports]})
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_ablation(args) -> int:
    _check_replays(args)
    out_dir = _ensure_out_dir(args.out)
    reports = ablation_run(n=args.n, seed=args.seed,
                           replay_count=args.replays,
                           concurrency=args.concurrency)
    matrix = interception_matrix(reports)
    scenarios = [k.value for k in AttackKind]
    rows = [[mode] + [f"{matrix[mode][s]:.2f}" for s in scenarios]
            for mode in matrix]
    print(f"interception rate by (mode, scenario), seed={args.seed}")
    _print_table(["mode"] + scenarios, rows)

    basename = report_basename("ablation", args.fixed_name)
    csv_path, json_path = write_report_files(
        out_dir, basename, reports[0].CSV_FIELDS,
        [r.csv_row() for r in reports],
        {"experiment": "ablation", "seed": args.seed, "matrix": matrix,
         "reports": [r.to_json_dict() for r in reports]})
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_ttl_sweep(args) -> int:
    # the workload holds round(rate x duration) requests, as simharness counts
    if round(args.rate * args.duration) < 1:
        raise UsageError("--rate x --duration must round to at least one "
                         "request")
    out_dir = _ensure_out_dir(args.out)
    points = ttl_sweep(args.windows, rate=args.rate, duration=args.duration,
                       seed=args.seed)
    rows = []
    for point in points:
        expected = int(args.rate * min(point.window, args.duration))
        rows.append([f"{point.window:g}", str(point.peak_entries),
                     str(expected), f"{point.bytes_estimate / 1e6:.2f} MB"])
    print(f"rate={args.rate:g}/s  duration={args.duration:g}s  seed={args.seed}")
    _print_table(["window (s)", "peak entries", "expected", "est. memory"],
                 rows)

    basename = report_basename("ttl_sweep", args.fixed_name)
    csv_path, json_path = write_report_files(
        out_dir, basename, points[0].CSV_FIELDS,
        [p.csv_row() for p in points],
        {"experiment": "ttl_sweep", "rate": args.rate,
         "duration": args.duration, "seed": args.seed,
         "points": [asdict(p) for p in points]})
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_throughput(args) -> int:
    out_dir = _ensure_out_dir(args.out)
    points = [capacity_probe(concurrency=args.concurrency, seed=args.seed)]
    points += throughput_bench(args.rates, duration=args.duration,
                               concurrency=args.concurrency, seed=args.seed)
    rows = []
    for point in points:
        pct = point.stage_latency_percentiles
        offered = "unpaced" if point.offered_rate == 0.0 \
            else f"{point.offered_rate:g}"
        rows.append([
            offered,
            f"{point.achieved_rate:.0f}",
            f"{pct['signature_ns']['p50'] / 1000:.1f}",
            f"{pct['context_ns']['p50'] / 1000:.1f}",
            f"{pct['registry_ns']['p50'] / 1000:.1f}",
            f"{pct['total_ns']['p50'] / 1000:.1f}",
            f"{pct['total_ns']['p99'] / 1000:.1f}",
        ])
    print(f"concurrency={args.concurrency}  duration={args.duration:g}s "
          f"(latencies in microseconds; measured, host-dependent)")
    _print_table(["offered/s", "achieved/s", "sig p50", "ctx p50", "reg p50",
                  "total p50", "total p99"], rows)

    basename = report_basename("throughput", args.fixed_name)
    csv_path, json_path = write_report_files(
        out_dir, basename, points[0].CSV_FIELDS,
        [p.csv_row() for p in points],
        {"experiment": "throughput", "rates": args.rates,
         "duration": args.duration, "concurrency": args.concurrency,
         "seed": args.seed,
         "points": [p.to_json_dict() for p in points]})
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_keygen(args) -> int:
    out_path = Path(args.out)
    if out_path.parent and not out_path.parent.exists():
        try:
            out_path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"--out {args.out}: {exc}") from exc
    key = IssuerKey.generate(args.key_id)
    Keystore.for_issuers(key).save(out_path)
    secret_path = out_path.with_name(out_path.name + ".secret")
    secret_obj = {"key_id": key.key_id,
                  "seed": base64.b64encode(key.seed).decode("ascii")}
    fd = os.open(secret_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(secret_obj, fh, indent=2)
        fh.write("\n")
    print(f"wrote keystore {out_path} (key_id={key.key_id})")
    print(f"wrote signing seed {secret_path} (keep private; for test issuance)")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common_experiment_flags(p, default_out="reports"):
    p.add_argument("--seed", type=_u64, default=42,
                   help="workload seed (default %(default)s)")
    p.add_argument("--out", default=default_out,
                   help="report output directory (default %(default)s)")
    p.add_argument("--fixed-name", action="store_true",
                   help="name report files <experiment>_report.* instead of "
                        "embedding a timestamp")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ztrv",
                     description="Zero-trust runtime verifier for "
                                 "mandate-based agentic payments")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="subcommand")

    p = sub.add_parser("serve", help="run the verification gateway")
    p.add_argument("--config", help=f"config file path (overrides ${ENV_CONFIG})")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("attack-eval",
                       help="interception and false-positive rates per "
                            "attack scenario")
    p.add_argument("--mode", choices=[Mode.BASELINE.value, Mode.FULL.value],
                   default=Mode.FULL.value,
                   help="verifier mode (default %(default)s)")
    p.add_argument("--n", type=_positive_int, default=5000,
                   help="legitimate requests (default %(default)s)")
    p.add_argument("--replays", type=_positive_int, default=100,
                   help="attack requests per scenario (default %(default)s)")
    p.add_argument("--concurrency", type=_positive_int,
                   default=DEFAULT_CONCURRENCY,
                   help="worker threads (default %(default)s)")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_attack_eval)

    p = sub.add_parser("ablation",
                       help="interception matrix over all four verifier modes")
    p.add_argument("--n", type=_positive_int, default=1000,
                   help="legitimate requests per run (default %(default)s)")
    p.add_argument("--replays", type=_positive_int, default=100,
                   help="attack requests per scenario (default %(default)s)")
    p.add_argument("--concurrency", type=_positive_int,
                   default=DEFAULT_CONCURRENCY,
                   help="worker threads (default %(default)s)")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("ttl-sweep",
                       help="peak registry occupancy vs validity window "
                            "(on workload timestamps)")
    p.add_argument("--windows", type=_float_list, default=[5, 30, 60, 300],
                   help="comma-separated window sizes in seconds "
                        "(default 5,30,60,300)")
    p.add_argument("--rate", type=_positive_float, default=10_000.0,
                   help="requests per second (default %(default)s)")
    p.add_argument("--duration", type=_positive_float, default=10.0,
                   help="workload duration in seconds (default %(default)s)")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_ttl_sweep)

    p = sub.add_parser("throughput",
                       help="measured verification throughput and per-stage "
                            "latency percentiles")
    p.add_argument("--rates", type=_float_list,
                   default=[100, 1000, 5000, 10_000],
                   help="comma-separated offered rates per second "
                        "(default 100,1000,5000,10000)")
    p.add_argument("--duration", type=_positive_float, default=10.0,
                   help="seconds per offered rate (default %(default)s)")
    p.add_argument("--concurrency", type=_positive_int,
                   default=DEFAULT_CONCURRENCY,
                   help="worker threads (default %(default)s)")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("keygen", help="generate an issuer keypair")
    p.add_argument("--out", default="keystore.json",
                   help="keystore file path (default %(default)s)")
    p.add_argument("--key-id", default="issuer-main",
                   help="issuer key identifier (default %(default)s)")
    p.set_defaults(func=cmd_keygen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"ztrv: error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"ztrv: config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    except Exception as exc:  # runtime failure, by contract exit 2
        print(f"ztrv: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
