"""Command-line front end.

Subcommands: count, scan, distribution, moments, constants, verify, extremal.
Output is deterministic for a fixed configuration: reductions use fixed chunk
boundaries derived from the input size, so repeated runs are byte-identical.
Exit codes: 0 success, 1 invariant or construction failure, 2 usage error, out of
memory or an output that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction
from itertools import permutations

# multgroup, the largest module, first: where no bytecode is cached, it is then
# compiled before numpy is loaded, and its compile does not set the import's
# peak memory, which a process forked after the import inherits
from . import multgroup
from . import constants as constants_mod
from . import ekstats, extremal, partitions, polyops, sieve


_ROW_BLOCK = 1 << 16  # scan formats and writes this many rows at a time


@contextlib.contextmanager
def _output(path: str | None):
    """The stream for path: stdout for None or "-", else the file, opened here."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as stream:
            yield stream


def _emit(text: str, path: str | None) -> None:
    with _output(path) as stream:
        stream.write(text)


def cmd_count(args) -> int:
    lines = []
    for n in args.n:
        if n < 1:
            print(f"count: n must be positive, got {n}", file=sys.stderr)
            return 2
        columns = multgroup.sylow_columns(n)
        g, i = multgroup.subgroup_counts(n, columns)
        obj = {
            "n": n,
            "phi": str(math.prod(p ** sum(a) for p, a in columns.items())),
            "sylow": {str(p): f"[{','.join(map(str, partitions.conjugate_parts(a)))}]" for p, a in columns.items()},
            "G": str(g),
            "I": str(i),
        }
        lines.append(json.dumps(obj))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _table(N: int) -> sieve.FunctionTable:
    """sieve.build(N), refused before it allocates where the structure pass would pass the budget."""
    if (need := multgroup.count_arrays_bytes(N)) > sieve.DEFAULT_MEMORY_BUDGET:
        raise sieve.MemoryBudgetError(f"N = {N} needs about {need} bytes, budget {sieve.DEFAULT_MEMORY_BUDGET}")
    return sieve.build(N)


def cmd_scan(args) -> int:
    n_max = args.max
    if n_max < 2:
        print("scan: --max must be at least 2", file=sys.stderr)
        return 2
    table = _table(n_max)
    g, i = multgroup.subgroup_count_arrays(table)
    log6 = lambda count: f"{math.log(count):.6f}"
    columns = [multgroup.per_distinct(col, fmt, object)  # each value formatted once
               for col, fmt in ((table.omega_phi, str), (table.bigomega_phi, str), (g, log6), (i, log6))]
    with _output(args.out) as stream:
        stream.write("n,phi,omega_phi,bigomega_phi,logG,logI\n")
        for lo in range(2, n_max + 1, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, n_max + 1)
            fields = [map(str, range(lo, hi)), map(str, table.phi[lo:hi].tolist())]
            fields += [col[lo:hi].tolist() for col in columns]
            stream.write("\n".join(map(",".join, zip(*fields))) + "\n")
    return 0


def _same_file(a: str, b: str) -> bool:
    """Whether the paths a and b name one file, directly or through a link."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def cmd_distribution(args) -> int:
    paths = [path for path in (args.out, args.samples_csv) if path not in (None, "-")]
    if len(paths) == 2 and _same_file(*paths):  # two "w" handles on one file would interleave
        print(f"distribution: --out and --samples-csv name the same file: {args.out}", file=sys.stderr)
        return 2
    report, samples = ekstats.distribution_report(_table(args.x), args.which)
    # both outputs are opened before either is written: an unwritable one leaves no report
    with (_output(args.out) as out,
          _output(args.samples_csv) if args.samples_csv else contextlib.nullcontext() as rows_out):
        out.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
        if rows_out is not None:
            rows = ["n,normalized"]
            rows.extend(f"{n},{float(s)!r}" for n, s in zip(range(16, args.x + 1), samples))
            rows_out.write("\n".join(rows) + "\n")
    return 0


def cmd_moments(args) -> int:
    if args.h_max < 1 or args.h_max > 8:
        print("moments: --h-max must be in 1..8", file=sys.stderr)
        return 2
    hs = list(range(1, args.h_max + 1))
    ms = ekstats.surrogate_moments(hs, args.x)
    c = constants_mod.NORMALIZATION[1]
    ll3 = math.log(math.log(args.x)) ** 3
    rows = ["h,x,M_h,normalized"]
    for h in hs:
        norm = ms[h] / (c ** (h / 2) * args.x * ll3 ** (h / 2))
        rows.append(f"{h},{args.x},{ms[h]!r},{norm!r}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_constants(args) -> int:
    primes = sieve.primes_up_to(args.prime_limit)
    a0 = constants_mod.compute_A0(args.prime_limit, primes)
    b = constants_mod.compute_B(args.prime_limit, primes)
    b_rep = constants_mod.compute_B_report(b, primes)
    c = constants_mod.compute_C(a0, b)
    checks = constants_mod.infinite_sum_checks(a0, b, args.X)
    obj = {
        "prime_limit": args.prime_limit,
        "A0": a0.value,
        "A": constants_mod.compute_A(a0).value,
        "B": b.value,
        "C": c.value,
        "tails": {
            "A0": a0.tail_bound,
            "B": b.tail_bound,
            "C": c.tail_bound,
        },
        "B_printed_vs_derived_delta": b_rep["B_closed_uncorrected"] - b_rep["B_series"],
        "B_closed_corrected_vs_derived_max_term_delta": b_rep["max_per_prime_delta"],
        "finite_sum_checks": checks,
    }
    _emit(json.dumps(obj, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    for flag, value in (("--max", args.max), ("--oracle-cap", args.oracle_cap)):
        if value < 1:  # the oracle would compare no n, and the check would pass vacuously
            print(f"verify: {flag} must be at least 1", file=sys.stderr)
            return 2
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures += 1

    mismatch, types = [], set()
    for n in range(1, args.max + 1):
        try:
            subs = multgroup.enumerate_subgroups_oracle(n, cap=args.oracle_cap)
        except multgroup.OracleCapError:
            continue
        columns = multgroup.sylow_columns(n)
        oracle = len(subs), multgroup.classify_isoclasses_oracle(n, subs=subs)
        counts = [multgroup.subgroup_counts(n, columns), oracle]  # (G, I) by the per-n path and by the oracle
        if not columns.items() <= types:  # and by the definitions, at the first n of each Sylow type
            types |= columns.items()
            counts.append(multgroup.definitional_counts(n))
        if len(set(counts)) > 1:
            mismatch.append((n, *counts))
    check(f"subgroup counts match closure oracle for n <= {args.max}", not mismatch)
    if mismatch:
        print(f"      first mismatches: {mismatch[:5]}", file=sys.stderr)

    expected = {
        (((0, 0), (1, 2)), ()): Fraction(1, 6),
        (((0, 0), (2, 1)), ()): Fraction(1, 6),
        (((1, 0), (2, 0)), ()): Fraction(1, 6),
        (((0, 2), (1, 0)), ()): Fraction(1, 6),
        (((0, 1), (2, 0)), ()): Fraction(1, 6),
        (((0, 1), (0, 2)), ()): Fraction(1, 6),
        (((1, 1), (1, 2)), ()): Fraction(-7, 2),
        (((1, 1), (2, 1)), ()): Fraction(-7, 2),
    }
    got = polyops.phi_h(
        [
            polyops.MultiMonomial(Fraction(1), (0, 0, 1, 2)),
            polyops.MultiMonomial(Fraction(-7), (1, 1, 1, 2)),
        ],
        4,
    )
    check("pairing operator reproduces the degree-4 reference expansion", got == expected)

    fibers_ok = True
    for k in (2, 4, 6):
        targets = {t.images: 0 for t in polyops.enumerate_two_to_one(k)}
        for sigma in permutations(range(1, k + 1)):
            targets[polyops.psi(sigma).images] += 1
        fibers_ok &= set(targets.values()) == {2 ** (k // 2)}
    check("permutation-to-pairing map has uniform fibers of size 2^(k/2)", fibers_ok)

    return 1 if failures else 0


def cmd_extremal(args) -> int:
    if args.action == "scan":
        rec = extremal.scan_max(_table(args.max), args.which)
    elif args.bv_exponent is not None and (args.which == "I" or args.bv_exponent < 0):
        # the I construction has no exponent; a negative one makes V grow past (log x)^2
        need = "applies only to --which G" if args.which == "I" else "must be at least 0"
        print(f"extremal construct: --bv-exponent {need}", file=sys.stderr)
        return 2
    else:
        try:
            if args.which == "G":
                rec = extremal.construct_G_extremal(args.x, bv_exponent=args.bv_exponent or 0)
            else:
                rec = extremal.construct_I_extremal(args.x)
        except extremal.ConstructionFailedError as exc:
            print(f"extremal construct: {exc}", file=sys.stderr)
            return 1
    _emit(json.dumps(rec.to_json_dict(), indent=2) + "\n", args.out)
    return 0


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


_OUT = ("--out", {"default": None})
_WHICH = ("--which", {"choices": ("G", "I"), "default": "G"})
# name -> (help, handler, arguments as (flag, keywords) pairs, or a dict of
# actions to such lists), in the order the top-level help lists them
COMMANDS = {
    "count": ("exact G(n), I(n) and Sylow types for given n", cmd_count,
              [("n", {"type": int, "nargs": "+"}), _OUT]),
    "scan": ("CSV of phi, omega counts, log G, log I over 2..N", cmd_scan,
             [("--max", {"type": int, "required": True}), _OUT]),
    "distribution": ("normality report for log G or log I", cmd_distribution,
                     [("--x", {"type": int, "required": True}), _WHICH,
                      ("--samples-csv", {"default": None}), _OUT]),
    "moments": ("centered moment sums of the log G surrogate", cmd_moments,
                [("--x", {"type": int, "required": True}), ("--h-max", {"type": int, "default": 3}), _OUT]),
    "constants": ("evaluate the mean/variance constants", cmd_constants,
                  [("--prime-limit", {"type": int, "default": 10**6}),
                   ("--X", {"type": _finite_float, "default": 10**4}), _OUT]),
    "verify": ("cross-check formulas against enumeration oracles", cmd_verify,
               [("--max", {"type": int, "default": 300}),
                ("--oracle-cap", {"type": int, "default": multgroup.DEFAULT_ORACLE_CAP})]),
    "extremal": ("maximal-order scans and constructions", cmd_extremal, {
        "scan": [("--max", {"type": int, "required": True}), _WHICH, _OUT],
        "construct": [("--x", {"type": _finite_float, "required": True}), _WHICH,
                      ("--bv-exponent", {"type": int, "default": None}), _OUT]}),
}


def build_parser() -> argparse.ArgumentParser:
    """The multsub parser, with every subcommand in COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="multsub",
        description="Subgroup counts of (Z/nZ)^x: exact values, scans, and statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if isinstance(arguments, dict):  # extremal: one more level, the action
            actions = p.add_subparsers(dest="action", required=True)
            targets = [(actions.add_parser(a), args) for a, args in arguments.items()]
        else:
            targets = [(p, arguments)]
        for target, args in targets:
            for flag, keywords in args:
                target.add_argument(flag, **keywords)
    return parser


PARSER = build_parser()  # built once per process, at import


def run(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)  # None reads sys.argv[1:]
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # numpy's _ArrayMemoryError is a MemoryError; an OSError is an output that
    # cannot be written, such as a missing directory or a closed pipe
    except (ValueError, MemoryError, OSError) as exc:
        reason = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"{args.command}: {reason}{exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run_script(name: str, script_main) -> None:
    """Run a script's main.  A stdout that its reader closed early (`| head`)
    ends the script with one stderr line and exit 2, as `run` reports it,
    instead of a traceback."""
    try:
        script_main()
        sys.stdout.flush()  # a pipe closed before the last writes fails here, not at exit
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # leaves the exit flush nothing to fail on
        print(f"{name}: {exc}", file=sys.stderr)
        sys.exit(2)
