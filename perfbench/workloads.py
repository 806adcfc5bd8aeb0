"""Seeded workloads: the CLI invocations one pass runs, and what they cost.

Two workloads split the program along the sieve table:

- table_based: scan, distribution and extremal scan at N (the per-n structure
  loop, where Sylow components repeat heavily), and moments and constants at
  X (sieve.build and the prime sums, no per-n structure work).
- table_free: one count call over seeded n up to about 1e14 (trial division
  and large Sylow components, none repeated) and verify (the closure oracle
  and the polyops checks).

Each layer is exercised by one workload and bypassed by the other: the sieve
and the per-n loop by table_based, table-free factorization and the oracle by
table_free.  There are two workloads, not one per command, because on a
shared 2-core host the CPU speed drifts by 10-40% over seconds to minutes:
only long runs average that out, and with a fixed budget for all runs, two
workloads leave the most time per run.

Every workload is sized so that one pass takes a few CPU seconds on a
2-core machine, and the seed moves the inputs without moving the cost: sizes
vary inside a narrow window, and the seeded `count` inputs are drawn from
fixed cost strata (see `count_inputs`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Seeds map onto SIZE_SLOTS sizes per workload; reference.json holds the
# stored outputs of scan and tables at every one of them.
SIZE_SLOTS = 8
SCAN_N, SCAN_STEP = 6000, 7
TABLES_X, TABLES_STEP = 500_000, 1000
# Each n near 140 adds about 1% to the oracle's time, so the window is two wide.
VERIFY_M, VERIFY_SLOTS = 140, 2

# Table-free factorization: n = s * P with P a safe prime (P - 1 = 2R, R prime)
# just above each stratum, and 10 <= s < 100.  Trial division then runs to
# about sqrt(P) on n and to sqrt(R) on P - 1, a cost fixed by the stratum, and
# n stays in [1e11, 1e14].
FACTOR_STRATA = (10**10, 10**11, 10**12)
PER_STRATUM = 4
# Large Sylow components: each pattern lists (v2, v3) = (v_2(q-1), v_3(q-1))
# for the primes q of one product, so the 2- and 3-partitions, which set the
# cost of subgroup_count, are fixed and only the other factors of q - 1 vary.
PRODUCT_PATTERNS = (
    ((6, 0), (5, 0), (5, 0), (4, 0), (4, 0), (4, 0), (3, 0), (3, 0), (3, 0), (3, 0), (2, 0), (2, 0)),
    ((7, 0), (6, 0), (5, 0), (4, 0), (4, 0), (3, 0), (3, 0), (3, 0), (3, 0), (2, 0)),
    ((5, 0), (5, 0), (5, 0), (4, 0), (4, 0), (4, 0), (4, 0), (3, 0), (3, 0), (3, 0), (3, 0)),
    ((1, 5), (1, 4), (1, 4), (1, 4), (1, 3), (1, 3), (1, 3), (1, 3), (1, 2), (1, 2), (1, 2), (1, 2)),
    ((1, 6), (1, 5), (1, 4), (1, 3), (1, 3), (1, 3), (1, 3), (1, 2), (1, 2), (1, 2)),
    ((4, 2), (4, 2), (4, 1), (3, 2), (3, 1), (3, 1), (3, 1), (2, 1), (2, 1), (2, 1), (2, 1)),
    ((5, 2), (4, 3), (4, 2), (3, 3), (3, 2), (3, 2), (2, 2), (2, 2), (2, 1), (2, 1)),
    ((5, 1), (5, 1), (4, 1), (4, 1), (4, 1), (3, 1), (3, 1), (3, 1), (3, 1)),
    ((3, 1), (3, 1), (3, 1), (2, 2), (2, 2), (2, 1), (2, 1), (2, 1), (1, 3), (1, 2), (1, 2), (1, 1)),
    ((6, 0), (4, 0), (4, 0), (4, 0), (3, 0), (3, 0), (3, 0), (3, 0), (3, 0), (2, 0), (2, 0)),
    ((1, 4), (1, 4), (1, 3), (1, 3), (1, 3), (1, 3), (1, 2), (1, 2), (1, 2), (1, 2), (1, 2)),
    ((5, 0), (5, 0), (4, 1), (4, 1), (3, 2), (3, 1), (2, 2), (2, 1), (1, 3), (1, 2)),
)
PRODUCT_PRIME_SIZE = 200_000  # primes of the products lie in [2e5, 4e5)

NAMES = ("table_based", "table_free")


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: tuple[tuple[str, ...], ...]  # CLI invocations of one pass
    units: int              # integers n (or table entries) one pass covers
    table_size: int | None  # largest sieve.build of the workload, for setup_s
    sizes: dict             # the generated sizes, for provenance


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _safe_prime(rng: random.Random, size: int) -> int:
    r = rng.randrange(size // 2, size // 2 + size // 2000) | 1
    while not (_is_prime(r) and _is_prime(2 * r + 1)):
        r += 2
    return 2 * r + 1


def _pattern_product(rng: random.Random, pattern) -> int:
    qs: set[int] = set()
    for a, b in pattern:
        base = 2**a * 3**b
        m0 = PRODUCT_PRIME_SIZE // base
        while True:
            m = rng.randrange(m0, 2 * m0)
            q = base * m + 1
            if m % 6 in (1, 5) and q not in qs and _is_prime(q):
                qs.add(q)
                break
    n = 1
    for q in qs:
        n *= q
    return n


def count_inputs(seed: int) -> list[int]:
    """The distinct n of one `count` call: table-free factorizations in
    [1e11, 1e14] and products of 9-12 primes with large Sylow components,
    shuffled together."""
    rng = random.Random(f"count:{seed}")
    ns = [rng.randrange(10, 100) * _safe_prime(rng, size)
          for size in FACTOR_STRATA for _ in range(PER_STRATUM)]
    ns += [_pattern_product(rng, pattern) for pattern in PRODUCT_PATTERNS]
    if len(set(ns)) != len(ns):
        raise RuntimeError(f"seed {seed} repeated a count input")
    rng.shuffle(ns)
    return ns


def make(name: str, seed: int) -> Workload:
    slot = seed % SIZE_SLOTS
    order = random.Random(f"{name}:{seed}")
    if name == "table_based":
        n = SCAN_N + SCAN_STEP * slot
        x = TABLES_X + TABLES_STEP * slot
        argvs = [("scan", "--max", str(n)),
                 ("distribution", "--x", str(n), "--which", "G"),
                 ("extremal", "scan", "--max", str(n), "--which", "I"),
                 ("moments", "--x", str(x), "--h-max", "4"),
                 ("constants", "--prime-limit", str(x))]
        order.shuffle(argvs)
        # scan covers 2..N, distribution 16..N, extremal scan 3..N; moments
        # and constants one table entry each up to X
        return Workload(name, tuple(argvs), 3 * n - 18 + 2 * x, max(n, x), {"N": n, "X": x})
    if name == "table_free":
        m = VERIFY_M + seed % VERIFY_SLOTS
        ns = count_inputs(seed)
        argvs = [("count", *map(str, ns)), ("verify", "--max", str(m))]
        order.shuffle(argvs)
        return Workload(name, tuple(argvs), len(ns) + m, None,
                        {"M": m, "queries": len(ns), "max_digits": max(len(str(n)) for n in ns)})
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
