"""What a process loads by importing ztrv, each check in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# OpenSSL (through hashlib, hmac or ssl), and urllib.request with the
# http.client and email packages it imports: serving needs none of them
SERVING_NEVER_LOADS = ("hashlib", "_hashlib", "_ssl", "urllib.request",
                       "http.client", "email")


def _run(code: str):
    """The JSON value ``code`` prints, run with ``PYTHONPATH=src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    return json.loads(result.stdout)


def _loaded_by(statement: str, names) -> list[str]:
    """Those of ``names`` that ``statement`` loads into a fresh interpreter."""
    return _run(f"""
import json, sys
before = set(sys.modules)
{statement}
print(json.dumps([name for name in {list(names)!r}
                  if name in sys.modules and name not in before]))
""")


def test_import_ztrv_loads_only_what_serving_needs():
    assert _loaded_by("import ztrv",
                      SERVING_NEVER_LOADS + ("ztrv.simharness",)) == []


def test_import_cli_loads_only_what_serving_needs():
    # `ztrv serve` runs through the CLI; the experiment subcommands import
    # the harness when they run
    assert _loaded_by("import ztrv.cli",
                      SERVING_NEVER_LOADS + ("ztrv.simharness",)) == []


def test_every_exported_name_resolves():
    missing = _run("""
import json, ztrv
print(json.dumps([name for name in ztrv.__all__
                  if getattr(ztrv, name, None) is None]))
""")
    assert missing == []


def test_ssl_is_loaded_only_for_an_https_upstream():
    loaded = _run("""
import json, sys
from ztrv import GatewayConfig, Keystore, ZtrvGateway
loaded = []
for scheme in ("http", "https"):
    config = GatewayConfig(listen_address="127.0.0.1:0",
                           upstream_url=scheme + "://127.0.0.1:9/pay",
                           keystore_path="unused.json")
    ZtrvGateway(config, keystore=Keystore()).shutdown()
    loaded.append("ssl" in sys.modules)
print(json.dumps(loaded))
""")
    assert loaded == [False, True]
