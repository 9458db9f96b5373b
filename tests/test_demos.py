"""Every narrative script under demos/ runs to completion, and so do README's
python quick start and its YAML scenario."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def run_python(args, cwd=ROOT):
    """Run ``python args...`` with the source tree on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def readme_block(language):
    """The one fenced ``language`` block of README."""
    [block] = re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)
    return block


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_readme_quick_start_runs():
    proc = run_python(["-c", readme_block("python")])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_readme_scenario_is_valid(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(readme_block("yaml"))
    proc = run_python([
        "-m", "chiralplate.cli", "solve", "--config", str(config),
        "--out", str(tmp_path / "out"), "--dry-run",
    ], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("mesh: ")
