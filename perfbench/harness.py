"""Fork server: runs CLI invocations, each in a fresh process cut from one
interpreter that has imported multsub.cli and done nothing else.

    PYTHONPATH=src python3 perfbench/harness.py

Reads one JSON list of CLI arguments per line on stdin and answers each with
one JSON line on stdout: {"wall", "cpu", "code", "out", "err", "rss_mb"}.  Every
invocation runs in its own forked child, so no cache of the program carries
over from one invocation to the next, as with `python3 -m multsub ...`; the
interpreter start and imports, which every invocation would otherwise repeat,
are paid once here and measured on their own as setup_s.

`wall` and `cpu` (user + system CPU seconds of the child) are timed inside the
child around multsub.cli.run alone.  `rss_mb` is the child's peak resident
memory from os.wait4: the pages it touched, its own and those of the
interpreter it was forked from.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import traceback
from time import perf_counter, process_time

import multsub.cli

CHILD_LIMIT_S = 170  # a child still running after this is killed by SIGALRM


def child(argv: list[str], fd: int) -> None:
    """Body of the forked child: run one invocation and write the result."""
    signal.alarm(CHILD_LIMIT_S)
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = perf_counter(), process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = multsub.cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
            code = 1
    wall, cpu = perf_counter() - t0, process_time() - c0
    payload = {"wall": wall, "cpu": cpu, "code": code, "out": out.getvalue(), "err": err.getvalue()}
    with os.fdopen(fd, "wb") as pipe:
        pipe.write(json.dumps(payload).encode())


def run_one(argv: list[str]) -> dict:
    r, w = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            child(argv, w)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if data:
        got = json.loads(data)
    else:
        code = os.waitstatus_to_exitcode(status)
        got = {"wall": 0.0, "cpu": 0.0, "code": code or 1, "out": "",
               "err": f"child ended with exit code {code} before writing a result"}
    got["rss_mb"] = usage.ru_maxrss / 1024
    return got


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_one(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
