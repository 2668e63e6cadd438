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
from .verifier import DEFAULT_CONCURRENCY, Mode, VerifierConfig

# The experiment subcommands import ztrv.simharness when they run, so that
# `ztrv serve` does not load the harness.

ENV_CONFIG = "ZTRV_CONFIG"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this artifact reserves
    # 2 for runtime failures and uses 1 for usage problems
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(kind: type, low=0, high=math.inf, must="be positive"):
    """An argparse type: a finite ``kind`` (int or float), low < it < high."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text.strip()!r} is not {noun}") from None
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError("value must be finite")
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"value must {must}")
        return value
    return parse


def _float_list(text: str) -> list[float]:
    parse = _number(float)
    values = [parse(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return values


def _windows(text: str) -> list[float]:
    """An argparse type: a comma-separated list of windows VerifierConfig
    takes."""
    windows = _float_list(text)
    for window in windows:
        try:
            VerifierConfig(window=window)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return windows


def _ensure_out_dir(path_text: str) -> None:
    path = Path(path_text)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {path_text}: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise UsageError(f"--out {path_text} is not writable")


def _check_replays(args) -> None:
    # the cross-context and redirect scenarios each take --replays distinct
    # mandates out of the --n legitimate ones
    if args.replays > args.n:
        raise UsageError(f"--replays ({args.replays}) must not exceed "
                         f"--n ({args.n})")


def _write_report(args, experiment: str, items_key: str, items: list,
                  **fields) -> int:
    """Write ``items`` as ``experiment``'s CSV and JSON reports under --out.

    The CSV has a row per item; the JSON object holds the experiment's name,
    --seed, ``fields`` and the items under ``items_key``.  The files are
    named ``<experiment>_report`` with --fixed-name, else after the UTC
    time.  Returns the command's exit code, 0.
    """
    # here, so that `ztrv serve` loads neither
    import csv
    from datetime import datetime, timezone
    if args.fixed_name:
        basename = f"{experiment}_report"
    else:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        basename = f"{experiment}_{stamp}"
    csv_path = Path(args.out) / f"{basename}.csv"
    json_path = Path(args.out) / f"{basename}.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(items[0].CSV_FIELDS)
        writer.writerows(item.csv_row() for item in items)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump({"experiment": experiment, "seed": args.seed, **fields,
                   items_key: [asdict(item) for item in items]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} and {json_path}")
    return 0


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
          f"window={config.verifier.window:g}s, "
          f"upstream={config.upstream_url}", flush=True)
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
        gateway.shutdown()
    return 0


def cmd_attack_eval(args) -> int:
    from .simharness import attack_eval
    _check_replays(args)
    _ensure_out_dir(args.out)
    mode = Mode(args.mode)
    reports = attack_eval([mode], n=args.n, seed=args.seed,
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
    return _write_report(args, "attack_eval", "reports", reports,
                         mode=mode.value, n=args.n)


def cmd_ablation(args) -> int:
    from .simharness import AttackKind, attack_eval, interception_matrix
    _check_replays(args)
    _ensure_out_dir(args.out)
    reports = attack_eval(list(Mode), n=args.n, seed=args.seed,
                          replay_count=args.replays,
                          concurrency=args.concurrency)
    matrix = interception_matrix(reports)
    scenarios = [k.value for k in AttackKind]
    rows = [[mode] + [f"{matrix[mode][s]:.2f}" for s in scenarios]
            for mode in matrix]
    print(f"interception rate by (mode, scenario), seed={args.seed}")
    _print_table(["mode"] + scenarios, rows)
    return _write_report(args, "ablation", "reports", reports, matrix=matrix)


def cmd_ttl_sweep(args) -> int:
    from .simharness import ttl_sweep
    # the workload holds round(rate x duration) requests, as simharness counts
    total = round(args.rate * args.duration)
    if total < 1:
        raise UsageError("--rate x --duration must round to at least one "
                         "request")
    _ensure_out_dir(args.out)
    points = ttl_sweep(args.windows, rate=args.rate, duration=args.duration,
                       seed=args.seed)
    rows = []
    for point in points:
        # the claims of the last nonce TTL (the window plus 1 ms) are live,
        # up to the whole workload
        ttl_ms = VerifierConfig(window=point.window).nonce_ttl_ms
        expected = min(math.ceil(args.rate * ttl_ms / 1000), total)
        rows.append([f"{point.window:g}", str(point.peak_entries),
                     str(expected), f"{point.bytes_estimate / 1e6:.2f} MB"])
    print(f"rate={args.rate:g}/s  duration={args.duration:g}s  seed={args.seed}")
    _print_table(["window (s)", "peak entries", "expected", "est. memory"],
                 rows)
    return _write_report(args, "ttl_sweep", "points", points,
                         rate=args.rate, duration=args.duration)


def cmd_throughput(args) -> int:
    from .simharness import capacity_probe, throughput_bench
    _ensure_out_dir(args.out)
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
    return _write_report(args, "throughput", "points", points,
                         rates=args.rates, duration=args.duration,
                         concurrency=args.concurrency)


def cmd_keygen(args) -> int:
    out_path = Path(args.out)
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {args.out}: {exc}") from exc
    key = IssuerKey.generate(args.key_id)
    Keystore.for_issuers(key).save(out_path)
    secret_path = out_path.with_name(out_path.name + ".secret")
    secret_obj = {"key_id": key.key_id,
                  "seed": base64.b64encode(key.seed).decode("ascii")}
    # a new file: an old one would keep its mode, and its open readers
    secret_path.unlink(missing_ok=True)
    fd = os.open(secret_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(secret_obj, fh, indent=2)
        fh.write("\n")
    print(f"wrote keystore {out_path} (key_id={key.key_id})")
    print(f"wrote signing seed {secret_path} (keep private; for test issuance)")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_attack_flags(p, n: int, n_help: str) -> None:
    p.add_argument("--n", type=_number(int), default=n,
                   help=f"{n_help} (default %(default)s)")
    p.add_argument("--replays", type=_number(int), default=100,
                   help="attack requests per scenario (default %(default)s)")


def _add_duration_flag(p, help_text: str) -> None:
    p.add_argument("--duration", type=_number(float), default=10.0,
                   help=f"{help_text} (default %(default)s)")


def _add_common_experiment_flags(p, concurrency: bool = True) -> None:
    if concurrency:
        p.add_argument("--concurrency", type=_number(int),
                       default=DEFAULT_CONCURRENCY,
                       help="worker threads (default %(default)s)")
    p.add_argument("--seed", type=_number(int, -1, 2 ** 64, "fit in 64 bits"),
                   default=42, help="workload seed (default %(default)s)")
    p.add_argument("--out", default="reports",
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
    _add_attack_flags(p, 5000, "legitimate requests")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_attack_eval)

    p = sub.add_parser("ablation",
                       help="interception matrix over all four verifier modes")
    _add_attack_flags(p, 1000, "legitimate requests per run")
    _add_common_experiment_flags(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("ttl-sweep",
                       help="peak registry occupancy vs validity window "
                            "(on workload timestamps)")
    p.add_argument("--windows", type=_windows, default=[5, 30, 60, 300],
                   help="comma-separated window sizes in seconds "
                        "(default 5,30,60,300)")
    p.add_argument("--rate", type=_number(float), default=10_000.0,
                   help="requests per second (default %(default)s)")
    _add_duration_flag(p, "workload duration in seconds")
    _add_common_experiment_flags(p, concurrency=False)
    p.set_defaults(func=cmd_ttl_sweep)

    p = sub.add_parser("throughput",
                       help="measured verification throughput and per-stage "
                            "latency percentiles")
    p.add_argument("--rates", type=_float_list,
                   default=[100, 1000, 5000, 10_000],
                   help="comma-separated offered rates per second "
                        "(default 100,1000,5000,10000)")
    _add_duration_flag(p, "seconds per offered rate")
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
