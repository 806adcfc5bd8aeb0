#!/usr/bin/env python3
"""Benchmark of the multsub CLI.

    python3 perfbench/run.py --workload {table_based,table_free,all} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 the run makes passes for S seconds.  A pass starts one set-up
child and then runs each of the workload's CLI invocations once, each in a
fresh process forked from a fork server that has imported multsub.cli
(harness.py), so that no cache of the program carries over between
invocations.  Every output goes through the correctness gate (gate.py).
End-to-end metrics, medians over the passes:

    cpu_s        CPU seconds (user + system) of one pass's invocations, timed
                 in each child around multsub.cli.run
    n_per_s      work units per CPU second: integers n whose structure was
                 computed (scan, distribution, extremal, verify, count) plus
                 table entries (moments, constants)
    setup_s      wall seconds of a child that imports multsub.cli and builds
                 the workload's largest sieve table (import alone for
                 table_free), spawn to exit
    peak_rss_mb  peak RSS of the largest invocation child of a pass (os.wait4)

CPU time, not wall time, is the gated cost: the program is single-threaded, so
the two differ only by the time the host takes the CPU away, which on a shared
host varies from run to run.  Wall seconds are reported beside it.
fail_share (failed / attempted invocations) is printed and carried by the
`attempted` and `failed` fields; it is not a metric, as it reads 0 when the
program is correct.

With --trace 1 the same passes run for S seconds (checked, and summarised in
the report), then the invocations run twice in process through
multsub.cli.run: once plain and once under the wrappers of tracing.py, which
give the per-layer metrics.  trace.overhead_s is the traced pass minus the
plain one.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A full report with quartiles, provenance and the tracked asymptotic
numbers is printed before it and written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
GATED = ("cpu_s", "n_per_s", "setup_s", "peak_rss_mb")  # the end-to-end metrics
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take

sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import workloads  # noqa: E402


class Child(NamedTuple):
    """One finished child process."""

    wall: float  # seconds from spawn to exit
    code: int
    out: str
    err: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], timeout: float) -> Child:
    """Run one child to completion; at the timeout it is killed and reaped."""
    t0 = perf_counter()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, errors="replace",
                           env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return Child(perf_counter() - t0, -9, "", f"killed after {timeout:.0f} s")
    return Child(perf_counter() - t0, p.returncode, p.stdout, p.stderr)


class Harness:
    """Client of the fork server (harness.py), which runs in a session of its
    own so that a stuck invocation can be killed together with it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "harness.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT, text=True,
                                     start_new_session=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, 9)

    def run(self, argv, timeout: float) -> dict:
        killer = threading.Timer(timeout, self.kill)
        killer.start()
        try:
            self.proc.stdin.write(json.dumps(list(argv)) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        finally:
            killer.cancel()
        if not line:
            self.kill()
            raise RuntimeError("the fork server ended without an answer (killed at the time limit?)")
        return json.loads(line)


def cli_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "multsub", *argv]


def setup_cmd(w: workloads.Workload) -> list[str]:
    code = "import multsub.cli"
    if w.table_size:
        code += f"\nfrom multsub import sieve\nsieve.build({w.table_size})"
    return [sys.executable, "-c", code]


def expectation(argv) -> dict:
    if argv[0] == "verify":
        return {"text": gate.verify_text(int(argv[2]))}
    if argv[0] == "count":
        return {"text": gate.count_text(int(n) for n in argv[1:])}
    return gate.stored(argv)


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, w: workloads.Workload, started: float, expect: dict | None = None):
        self.w = w
        self.started = started
        self.expect = {a: expectation(a) for a in w.argvs} if expect is None else expect
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict = {}  # first output per invocation, for tracked numbers

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.started)

    def check(self, argv, code: int, out: str, err: str) -> None:
        self.attempted += 1
        self.outputs.setdefault(argv, out)
        if code != 0:
            reason = f"exit code {code}: {err.strip()[-200:]}"
        elif not out:
            reason = "no output"
        else:
            reason = gate.mismatch(self.expect[argv], out)
        if reason:
            self.failures.append(f"`{' '.join(argv)[:80]}`: {reason}")

    def passes(self, seconds: float) -> list[dict]:
        """Passes for `seconds` seconds, at least MIN_PASSES: one set-up child,
        then every invocation once through the fork server.  A pass is not
        started when half the mean pass so far would reach past the deadline."""
        samples: list[dict] = []
        t_end = perf_counter() + seconds
        with Harness() as harness:
            while len(samples) < MIN_PASSES or (
                    perf_counter() + statistics.mean(s["span"] for s in samples) / 2 <= t_end):
                t0 = perf_counter()
                c = run_child(setup_cmd(self.w), max(self.remaining(), 1))
                self.attempted += 1
                if c.code != 0:
                    self.failures.append(f"setup child: exit code {c.code}: {c.err.strip()[-200:]}")
                sample = {"setup": c.wall, "cpu": 0.0, "wall": 0.0, "rss": 0.0}
                for argv in self.w.argvs:
                    if self.remaining() < 1:
                        self.failures.append("time limit reached")
                        return samples
                    got = harness.run(argv, self.remaining())
                    self.check(argv, got["code"], got["out"], got["err"])
                    sample["cpu"] += got["cpu"]
                    sample["wall"] += got["wall"]
                    sample["rss"] = max(sample["rss"], got["rss_mb"])
                sample["span"] = perf_counter() - t0
                samples.append(sample)
        return samples

    def in_process(self, run) -> tuple[float, int]:
        """Run the invocations once through `run` (multsub.cli.run or its
        wrapper) and check the outputs; return wall seconds and output bytes."""
        wall, size = 0.0, 0
        for argv in self.w.argvs:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(list(argv))
            wall += perf_counter() - t0
            self.check(argv, code, out.getvalue(), err.getvalue())
            size += len(out.getvalue().encode())
        return wall, size

    def traced_pass(self):
        """Run the invocations once in process under the tracer."""
        import multsub.cli
        import tracing

        tracer = tracing.Tracer()
        run = tracer.wrap(multsub.cli.run, "cli.run")
        tracer.install()
        try:
            wall, tracer.output_bytes = self.in_process(run)
        finally:
            tracer.restore()
        return tracer, wall


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    s = {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}
    if len(values) > 10:  # highest percentile with at least ten samples beyond it
        s["tail"] = sorted(values)[len(values) - 11]
    return s


def tracked(outputs: dict, table) -> dict:
    """The asymptotic quantities behind the documented acceptance failures:
    informational, no gate."""
    got = {}
    for argv, out in outputs.items():
        if argv[0] == "constants":
            got["C"] = json.loads(out)["C"]
        elif argv[0] == "moments":
            rows = [r.split(",") for r in out.split()[1:]]
            got["M2_normalized"] = float(next(r[3] for r in rows if r[0] == "2"))
        elif argv[0] == "distribution":
            rep = json.loads(out)
            got["ks_distance"] = rep["ks_distance"]
            got["empirical_moments"] = rep["empirical_moments"]
    if table is not None:
        from multsub import ekstats

        z = table.N
        cov = ekstats.covariance(ekstats.OMEGA0, ekstats.OMEGA0, z, table)
        got["order3_covariance_ratio"] = {"z": z, "value": cov * 3 / math.log(math.log(z)) ** 3}
    return got


def provenance(w: workloads.Workload, seed: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
        "sizes": w.sizes,
        "argvs": [" ".join(a) for a in w.argvs],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = perf_counter()
    w = workloads.make(name, seed)
    report = {"workload": name, "provenance": provenance(w, seed),
              "loadavg_start": os.getloadavg(), "seconds": seconds, "trace": int(trace)}
    run = Run(w, started)
    samples = run.passes(seconds)
    cpus = [s["cpu"] for s in samples]
    stats = {
        "cpu_s": (summary(cpus), "s"),
        "n_per_s": (summary([w.units / t for t in cpus]), "1/s"),
        "setup_s": (summary([s["setup"] for s in samples]), "s"),
        "peak_rss_mb": (summary([s["rss"] for s in samples]), "MB"),
        "wall_s": (summary([s["wall"] for s in samples]), "s"),  # reported, not gated
    }
    metrics: dict = {}
    if not trace:
        metrics = {key: {"value": stats[key][0]["median"], "unit": stats[key][1]} for key in GATED}
        report["tracked"] = tracked(run.outputs, None)
    else:
        import multsub.cli

        plain_wall, _ = run.in_process(multsub.cli.run)
        tracer, traced_wall = run.traced_pass()
        metrics, absent = tracer.metrics()
        metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
        report["per_layer_absent"] = absent
        report.update(traced_wall_s=traced_wall, in_process_wall_s=plain_wall)
        report["tracked"] = tracked(run.outputs, tracer.last_table)
        report["spans"] = [dict(s, start=s["start"] - tracer.spans[0]["start"],
                                end=s["end"] - tracer.spans[0]["start"]) for s in tracer.spans]
        calls = len(tracer.layers["multgroup.subgroup_counts"].durations)
        if calls > 10:
            report["subgroup_counts_ptail"] = f"{100 * (calls - 10) / calls:.2f}th percentile of {calls} calls"
    report["summary"] = {key: dict(s, unit=unit) for key, (s, unit) in stats.items()}
    report.update(attempted=run.attempted, failed=len(run.failures),
                  fail_share=len(run.failures) / max(run.attempted, 1),
                  failures=run.failures[:10], loadavg_end=os.getloadavg(),
                  run_s=perf_counter() - started, metrics=metrics)
    return report


def print_summary(rep: dict) -> None:
    print(f"workload {rep['workload']}  seed {rep['provenance']['seed']}  "
          f"sizes {rep['provenance']['sizes']}  trace {rep['trace']}")
    for key, s in rep.get("summary", {}).items():
        print(f"  {key:<16} {s['median']:12.6g} {s['unit']:<4} median; quartiles "
              f"{s['q1']:.6g} .. {s['q3']:.6g}; {s['samples']} samples")
    print(f"  {'fail_share':<16} {rep['fail_share']:12.6g}      "
          f"{rep['failed']} failed of {rep['attempted']} invocations")
    for reason in rep["failures"]:
        print(f"    FAIL {reason}")
    for key, value in rep["tracked"].items():
        print(f"  tracked {key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multsub" / "cli.py").is_file():
        print(f"program source not found: expected {SRC / 'multsub' / 'cli.py'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    OUT.mkdir(exist_ok=True)
    for rep in reports:
        print_summary(rep)
        path = OUT / f"{rep['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rep) + "\n")
        print(f"  report {path.relative_to(ROOT)}")
        if args.trace:
            print(f"  absent per-layer metrics: {', '.join(rep['per_layer_absent']) or 'none'}")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
