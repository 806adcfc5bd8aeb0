"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trend_report_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "scripts/trend_report.py", "--xs", "1e4", "--distribution-x", "1000"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("variance constant C = 1.296734")
    assert "distribution of log G(n), n <= 1000" in out.stdout
    assert "distribution of log I(n), n <= 1000" in out.stdout
