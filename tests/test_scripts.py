"""Smoke runs of the experiment scripts at small sizes."""

import math
import os
import subprocess
import sys
from pathlib import Path

from multsub import multgroup

ROOT = Path(__file__).resolve().parent.parent


def _run_script(args, timeout=120):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")]))
    out = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=timeout)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_trend_report_runs():
    out = _run_script(["scripts/trend_report.py", "--xs", "1e4", "--distribution-x", "1000"])
    assert out.startswith("variance constant C = 1.296734")
    assert "distribution of log G(n), n <= 1000" in out
    assert "distribution of log I(n), n <= 1000" in out


def test_pin_g_upper_slack_runs():
    n_max = 3000
    out = _run_script(["-c", f"import pin_constants; pin_constants.pin_g_upper_slack({n_max})"])
    # the same scan from the per-n counts, not from log_counts
    base = 0.25 * math.log(n_max) ** 2 / math.log(math.log(n_max))
    ratios = [math.log(multgroup.count_subgroups(n)) / base for n in range(3, n_max + 1)]
    best = max(ratios)
    n = 3 + ratios.index(best)
    assert out == f"G_UPPER_BOUND_SLACK: scan max ratio {best:.6f} at n = {n}\n"
