import base64
import json
import os
import re
import select
import shutil
import signal
import stat
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from ztrv import IssuerKey, Keystore
from ztrv.cli import ENV_CONFIG, main
from ztrv.simharness import SimReport, ThroughputPoint, TtlSweepPoint


@pytest.fixture(autouse=True)
def _no_env_config(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 1


def test_unknown_flag():
    assert main(["ablation", "--bogus"]) == 1


@pytest.mark.parametrize("argv", [
    ["attack-eval", "--n", "0"],
    ["attack-eval", "--n", "many"],
    ["attack-eval", "--seed", "-1"],
    ["attack-eval", "--seed", str(2 ** 64)],
    ["attack-eval", "--mode", "nonce-only"],  # matrix modes live in ablation
    ["ttl-sweep", "--windows", ""],
    ["ttl-sweep", "--windows", "0"],
    ["ttl-sweep", "--windows", "5,x"],
    ["throughput", "--duration", "-2"],
    ["ttl-sweep", "--windows", "nan"],
    ["ttl-sweep", "--rate", "inf"],
    ["throughput", "--duration", "nan"],
    ["ttl-sweep", "--rate", "0.01", "--duration", "10"],
    ["ttl-sweep", "--rate", "0.05", "--duration", "10"],
    ["attack-eval", "--n", "50", "--replays", "100"],
    ["ablation", "--n", "50", "--replays", "51"],
    # windows VerifierConfig refuses, before any workload is generated
    ["ttl-sweep", "--windows", "0.0001"],
    ["ttl-sweep", "--windows", "2e12"],
])
def test_bad_flag_values_exit_one(argv):
    assert main(argv) == 1


def test_unwritable_out_exits_one(tmp_path, capsys):
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("not a directory\n")
    rc = main(["attack-eval", "--out", str(blocker / "sub")])
    assert rc == 1
    assert "--out" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def test_keygen_writes_keystore_and_secret(tmp_path):
    out = tmp_path / "keys" / "ks.json"
    assert main(["keygen", "--out", str(out), "--key-id", "kid-7"]) == 0

    keystore = Keystore.from_file(out)
    public = keystore.lookup("kid-7")
    assert public is not None and len(public) == 32

    secret_path = out.with_name("ks.json.secret")
    assert stat.S_IMODE(secret_path.stat().st_mode) == 0o600
    secret = json.loads(secret_path.read_text())
    assert secret["key_id"] == "kid-7"
    seed = base64.b64decode(secret["seed"])
    assert IssuerKey.from_seed("kid-7", seed).public_key == public


def test_keygen_over_a_readable_secret_leaves_it_private(tmp_path):
    # the mode os.open is given applies only to a file it creates
    out = tmp_path / "ks.json"
    secret_path = tmp_path / "ks.json.secret"
    secret_path.write_text("old")
    secret_path.chmod(0o644)
    assert main(["keygen", "--out", str(out), "--key-id", "k"]) == 0
    assert stat.S_IMODE(secret_path.stat().st_mode) == 0o600
    assert json.loads(secret_path.read_text())["key_id"] == "k"


# ---------------------------------------------------------------------------
# experiment subcommands (tiny instances)
# ---------------------------------------------------------------------------

def _run_attack_eval(tmp_path, capsys, extra=()):
    rc = main(["attack-eval", "--n", "40", "--replays", "5", "--seed", "9",
               "--concurrency", "4", "--out", str(tmp_path), "--fixed-name",
               *extra])
    return rc, capsys.readouterr().out


def test_attack_eval_full(tmp_path, capsys):
    rc, out = _run_attack_eval(tmp_path, capsys)
    assert rc == 0
    assert "100.00%" in out

    csv_path = tmp_path / "attack_eval_report.csv"
    json_path = tmp_path / "attack_eval_report.json"
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(SimReport.CSV_FIELDS)
    # LF line ends; JSON with sorted keys, indented by 2, and a final LF
    assert b"\r" not in csv_path.read_bytes()
    text = json_path.read_text()
    obj = json.loads(text)
    assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert obj["experiment"] == "attack_eval"
    assert obj["mode"] == "full"
    assert [r["interception_rate"] for r in obj["reports"]] == [1.0, 1.0, 1.0]
    assert all(r["false_positive_rate"] == 0.0 for r in obj["reports"])


def test_attack_eval_baseline(tmp_path, capsys):
    rc, _ = _run_attack_eval(tmp_path, capsys, extra=("--mode", "baseline"))
    assert rc == 0
    obj = json.loads((tmp_path / "attack_eval_report.json").read_text())
    assert [r["interception_rate"] for r in obj["reports"]] == [0.0, 0.0, 0.0]
    assert all(r["false_positive_rate"] == 0.0 for r in obj["reports"])


def test_ablation_matrix_and_byte_identical_reruns(tmp_path, capsys):
    argv = ["ablation", "--n", "24", "--replays", "4", "--seed", "9",
            "--concurrency", "4", "--fixed-name"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()

    csv_a = (tmp_path / "a" / "ablation_report.csv").read_bytes()
    csv_b = (tmp_path / "b" / "ablation_report.csv").read_bytes()
    assert csv_a == csv_b
    assert len(csv_a.decode().splitlines()) == 13  # header + 4 modes x 3

    matrix = json.loads(
        (tmp_path / "a" / "ablation_report.json").read_text())["matrix"]
    assert matrix == {
        "baseline": {"same-context-replay": 0.0, "cross-context-replay": 0.0,
                     "context-redirect": 0.0},
        "context-only": {"same-context-replay": 0.0,
                         "cross-context-replay": 1.0, "context-redirect": 1.0},
        "nonce-only": {"same-context-replay": 1.0,
                       "cross-context-replay": 0.0, "context-redirect": 0.0},
        "full": {"same-context-replay": 1.0, "cross-context-replay": 1.0,
                 "context-redirect": 1.0},
    }


# (windows, rate, duration)
_TTL_SWEEPS = [
    ("1,2", "50", "5"),
    # 4.1 x 30 is 122.99999999999999 in floating point; the workload holds
    # round(4.1 x 30) = 123 requests
    ("30,60", "4.1", "30"),
    # a window much shorter than the history: rate x window + 1 live
    ("5", "20", "900"),
]


def test_ttl_sweep_cli(tmp_path, capsys):
    for i, (windows, rate, duration) in enumerate(_TTL_SWEEPS):
        argv = ["ttl-sweep", "--windows", windows, "--rate", rate,
                "--duration", duration, "--seed", "9", "--fixed-name"]
        a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
        assert main(argv + ["--out", str(a)]) == 0
        table = capsys.readouterr().out.splitlines()[3:-1]
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()

        csv_a = (a / "ttl_sweep_report.csv").read_bytes()
        assert csv_a == (b / "ttl_sweep_report.csv").read_bytes()
        lines = csv_a.decode().splitlines()
        assert lines[0] == ",".join(TtlSweepPoint.CSV_FIELDS)
        assert len(lines) == len(windows.split(",")) + 1
        obj = json.loads((a / "ttl_sweep_report.json").read_text())
        assert [p["window"] for p in obj["points"]] == [
            float(w) for w in windows.split(",")]
        # the expected column states each peak the sweep measured
        assert len(table) == len(obj["points"])
        for row, point in zip(table, obj["points"]):
            _, peak, expected, _ = row.split(None, 3)
            assert int(peak) == int(expected) == point["peak_entries"], argv


def test_throughput_cli(tmp_path, capsys):
    rc = main(["throughput", "--rates", "200", "--duration", "0.3",
               "--concurrency", "2", "--out", str(tmp_path), "--fixed-name"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "unpaced" in out  # capacity probe row

    lines = (tmp_path / "throughput_report.csv").read_text().splitlines()
    assert lines[0] == ",".join(ThroughputPoint.CSV_FIELDS)
    assert len(lines) == 3  # probe + one paced rate
    obj = json.loads((tmp_path / "throughput_report.json").read_text())
    assert obj["points"][0]["offered_rate"] == 0.0
    assert obj["points"][1]["offered_rate"] == 200.0


def test_timestamped_name_is_default(tmp_path, capsys):
    rc = main(["ttl-sweep", "--windows", "1", "--rate", "20", "--duration",
               "2", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 2
    stamps = {re.fullmatch(r"ttl_sweep_(\d{8}T\d{6}Z)\.(?:csv|json)", n)[1]
              for n in names}
    assert len(stamps) == 1  # one UTC timestamp names both files


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def test_serve_without_config_is_usage_error(capsys):
    assert main(["serve"]) == 1
    assert ENV_CONFIG in capsys.readouterr().err


def test_serve_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["serve", "--config", str(missing)]) == 2
    assert "config" in capsys.readouterr().err


def test_serve_bad_config_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["serve", "--config", str(bad)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_serve_reads_env_config(tmp_path, monkeypatch, capsys):
    # a bad file through the env proves the variable is honored: exit 2,
    # where an unset variable would exit 1
    bad = tmp_path / "env.json"
    bad.write_text("[]")
    monkeypatch.setenv(ENV_CONFIG, str(bad))
    assert main(["serve"]) == 2


def test_serve_flag_overrides_env(tmp_path, monkeypatch, capsys):
    env_file = tmp_path / "env.json"
    env_file.write_text("[]")
    flag_file = tmp_path / "flag.json"
    monkeypatch.setenv(ENV_CONFIG, str(env_file))
    assert main(["serve", "--config", str(flag_file)]) == 2
    err = capsys.readouterr().err
    assert flag_file.name in err
    assert env_file.name not in err


def test_python_m_serve_answers_and_stops_on_sigint(tmp_path):
    keystore = tmp_path / "ks.json"
    assert main(["keygen", "--out", str(keystore), "--key-id", "k"]) == 0
    config = tmp_path / "gateway.json"
    config.write_text(json.dumps({
        "listen_address": "127.0.0.1:0",
        "upstream_url": "http://127.0.0.1:9/unused",
        "keystore_path": str(keystore)}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    # faulthandler dumps every thread's stack on SIGABRT, sent on a timeout
    env = dict(os.environ, PYTHONFAULTHANDLER="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ztrv", "serve", "--config", str(config)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=tmp_path)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "no output within 30 s"
        line = proc.stdout.readline()
        assert "listening on " in line, line + proc.stderr.read()
        address = line.split("listening on ", 1)[1].split(",", 1)[0]
        with urllib.request.urlopen(f"http://{address}/healthz",
                                    timeout=5) as resp:
            assert (resp.status, resp.read()) == (200, b"ok")
        proc.send_signal(signal.SIGINT)
        try:
            out, err = proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGABRT)
            out, err = proc.communicate(timeout=10)
            pytest.fail("no exit within 5 s of SIGINT; its threads:\n" + err)
        assert proc.returncode == 0, err
        assert "shutting down" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

def test_console_script_installed():
    exe = shutil.which("ztrv")
    if exe:
        argv, env = [exe], None
    else:
        # No install: do what pip's generated wrapper does with the target
        # that pyproject.toml's [project.scripts] declares.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["ztrv"]
        module, function = target.split(":")
        argv = [sys.executable, "-c",
                f"import sys\nfrom {module} import {function}\n"
                f"sys.argv[0] = 'ztrv'\nsys.exit({function}())\n"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(argv + ["--help"], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "subcommand" in proc.stdout
