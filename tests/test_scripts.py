"""Smoke runs of the experiment scripts at small sizes."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multsub import multgroup

ROOT = Path(__file__).resolve().parent.parent


def _run_script(args, timeout=120):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")]))
    out = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=timeout)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("args", [["scripts/log_counts_digest.py", "6049"],
                                  ["scripts/trend_report.py", "--xs", "1e4", "--distribution-x", "1000"]],
                         ids=["log_counts_digest", "trend_report"])
def test_closed_stdout_is_no_traceback(args):
    # unbuffered, so the first line comes at once and the next write meets the closed pipe
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")]))
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    proc.wait(timeout=120)
    name = Path(args[0]).stem
    assert "Traceback" not in err
    assert (proc.returncode, err) in ((0, ""), (2, f"{name}: [Errno 32] Broken pipe\n")), err


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
    ratios = [math.log(multgroup.subgroup_counts(n)[0]) / base for n in range(3, n_max + 1)]
    best = max(ratios)
    n = 3 + ratios.index(best)
    assert out == f"G_UPPER_BOUND_SLACK: scan max ratio {best:.6f} at n = {n}\n"


def test_log_counts_digest_matches_per_n_counts():
    N = 6049
    out = _run_script(["scripts/log_counts_digest.py", str(N)]).splitlines()
    # the arrays from the per-n counts, not from log_counts
    logs = np.array([(0.0, 0.0)] * 2 + [tuple(map(math.log, multgroup.subgroup_counts(n)))
                                          for n in range(2, N + 1)])
    assert out[:3] == [f"N {N}", "logG_sha256 " + hashlib.sha256(logs[:, 0].tobytes()).hexdigest(),
                       "logI_sha256 " + hashlib.sha256(logs[:, 1].tobytes()).hexdigest()]
    assert [line.split()[0] for line in out[3:]] == ["cpu_s", "peak_rss_mb"]
    assert float(out[3].split()[1]) >= 0 and float(out[4].split()[1]) > 0
