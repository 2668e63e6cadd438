"""Each demo, and each Python block of README.md, runs to completion in a
fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           flags=re.MULTILINE | re.DOTALL)


def _run(args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    _run([str(demo)])


@pytest.mark.parametrize("code", [
    pytest.param(code, id=f"README-python-{i}")
    for i, code in enumerate(README_BLOCKS, 1)])
def test_readme_python_block_runs(code):
    _run(["-c", code])
