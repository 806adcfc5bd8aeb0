"""Correctness gate for CLI outputs.

    python3 perfbench/gate.py N1 N2 ...   # print the expected `count` output

Each invocation's stdout is compared with an expectation:

- `text`: byte for byte (verify, and count, whose lines are rebuilt
  independently from sympy's factorizations);
- `sha256`: byte for byte through a digest (the scan CSV, stored per size);
- `floats`: every float literal within the relative tolerance RTOL of the
  stored reference output, and every other byte equal.  A reordered reduction passes; a wrong value, key, count
  or integer does not.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from collections import defaultdict
from pathlib import Path

RTOL = 1e-9
FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def mismatch(expect: dict, got: str) -> str | None:
    """None when `got` meets the expectation, else a one-line reason."""
    if "text" in expect:
        if got == expect["text"]:
            return None
        at = next((i for i, (a, b) in enumerate(zip(expect["text"], got)) if a != b),
                  min(len(got), len(expect["text"])))
        return f"differs from the reference at character {at}"
    if "sha256" in expect:
        if hashlib.sha256(got.encode()).hexdigest() == expect["sha256"]:
            return None
        return f"sha256 differs from the reference ({len(got.encode())} bytes, reference {expect['bytes']})"
    ref = expect["floats"]
    if FLOAT.sub("#", ref) != FLOAT.sub("#", got):
        return "differs from the reference outside float values"
    for a, b in zip(FLOAT.findall(ref), FLOAT.findall(got)):
        if not math.isclose(float(a), float(b), rel_tol=RTOL):
            return f"float {b} differs from reference {a} beyond rtol {RTOL:g}"
    return None


def stored(argv) -> dict:
    """The stored expectation for one invocation (scan and tables sizes)."""
    refs = json.loads(REFERENCE.read_text())
    key = " ".join(argv)
    if key not in refs:
        raise KeyError(f"no stored reference for `{key}`; run make_reference.py")
    return refs[key]


def verify_text(m: int) -> str:
    return (f"PASS  subgroup counts match closure oracle for n <= {m}\n"
            "PASS  pairing operator reproduces the degree-4 reference expansion\n"
            "PASS  permutation-to-pairing map has uniform fibers of size 2^(k/2)\n")


# --- independent rebuild of `count` output -----------------------------------
# The unit group's primary decomposition, read off sympy.factorint: an odd q^e
# gives Z_{p^v} for each p^v || q - 1 and Z_{q^(e-1)}; 2^e gives Z_2 (e = 2)
# or Z_2 x Z_{2^(e-2)} (e >= 3).  G and I are products over the p-parts.

def _factorint(n: int) -> dict[int, int]:
    """sympy.factorint, with trial division first: on products of many primes
    below 1e6 its default route can take minutes.  The limit leaves a
    remainder unfactored, so each factor is checked to be prime."""
    import sympy

    f = sympy.factorint(n, limit=10**6)
    return f if all(sympy.isprime(p) for p in f) else sympy.factorint(n)


def sylow_types(n: int) -> dict[int, tuple[int, ...]]:
    comps: dict[int, list[int]] = defaultdict(list)
    for q, e in _factorint(n).items():
        if q == 2:
            if e >= 2:
                comps[2].append(1)
            if e >= 3:
                comps[2].append(e - 2)
            continue
        for p, v in _factorint(q - 1).items():
            comps[p].append(v)
        if e >= 2:
            comps[q].append(e - 1)
    return {p: tuple(sorted(v, reverse=True)) for p, v in sorted(comps.items())}


def _conjugate(alpha: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for a in alpha if a >= j) for j in range(1, (alpha[0] if alpha else 0) + 1))


def _below(top: tuple[int, ...], bound: int):
    """Nonincreasing tuples b, padded with zeros to len(top), b <= top, b[0] <= bound."""
    if not top:
        yield ()
        return
    for first in range(min(bound, top[0]) + 1):
        for rest in _below(top[1:], first):
            yield (first,) + rest


def _gauss(k: int, l: int, p: int) -> int:
    num = den = 1
    for j in range(l):
        num *= p ** (k - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def subgroups(p: int, alpha: tuple[int, ...]) -> int:
    """Subgroups of the abelian p-group of type alpha: the sum over subgroup
    types mu of prod_i p^(m_{i+1}(a_i - m_i)) [a_i - m_{i+1}, m_i - m_{i+1}]_p,
    with a, m the conjugates of alpha and mu."""
    a = _conjugate(alpha)
    total = 0
    for m in _below(a, a[0]):
        term = 1
        for i, ai in enumerate(a):
            nxt = m[i + 1] if i + 1 < len(m) else 0
            term *= p ** (nxt * (ai - m[i])) * _gauss(ai - nxt, m[i] - nxt, p)
        total += term
    return total


def subpartitions(alpha: tuple[int, ...]) -> int:
    """Subgroup isomorphism types: partitions mu with mu_i <= alpha_i."""
    ways = [1] * ((alpha[0] if alpha else 0) + 1)  # ways[b]: tails with first part <= b
    for part in reversed(alpha):
        ways = [sum(ways[: min(b, part) + 1]) for b in range(len(ways))]
    return ways[-1]


def count_text(ns) -> str:
    import sympy

    lines = []
    for n in ns:
        types = sylow_types(n)
        g = i = 1
        for p, alpha in types.items():
            g *= subgroups(p, alpha)
            i *= subpartitions(alpha)
        lines.append(json.dumps({
            "n": n,
            "phi": str(sympy.totient(n)),
            "sylow": {str(p): "[" + ",".join(map(str, alpha)) + "]" for p, alpha in types.items()},
            "G": str(g),
            "I": str(i),
        }))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(count_text(int(a) for a in sys.argv[1:]))
