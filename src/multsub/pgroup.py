"""Exact subgroup counts of finite abelian p-groups.

A p-group Z_{p^a1} x Z_{p^a2} x ... is identified by its partition
(a1, a2, ...).  Counting works through the classical product formula in
terms of conjugate partitions and Gaussian binomial coefficients, summed
column by column for the total count; all arithmetic is exact integer
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .partitions import Partition, is_subpartition
from .sieve import is_prime


def gaussian_binomial(k: int, l: int, p: int) -> int:
    """Exact Gaussian binomial [k, l]_p; 0 when l < 0 or l > k.

    Computed as the product of (p^(k-l+j) - 1)/(p^j - 1) for j = 1..l with a
    division at every step; each partial product is itself a Gaussian
    binomial, so every division is exact.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _gaussian_binomial(k, l, p)


def _gaussian_binomial(k: int, l: int, p: int) -> int:
    """gaussian_binomial without validating k and p."""
    if l < 0 or l > k:
        return 0
    val = 1
    for j in range(1, l + 1):
        val = val * (p ** (k - l + j) - 1) // (p**j - 1)
    return val


@dataclass(frozen=True)
class PGroupType:
    """Isomorphism type of a finite abelian p-group."""

    p: int
    alpha: Partition

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")


def _count_fixed_conjugates(a: tuple[int, ...], b: tuple[int, ...], p: int) -> int:
    """Subgroup count for fixed type, from the conjugate partitions a and b."""
    total = 1
    for j in range(len(a)):
        aj = a[j]
        bj = b[j] if j < len(b) else 0
        bj1 = b[j + 1] if j + 1 < len(b) else 0
        total *= p ** ((aj - bj) * bj1) * _gaussian_binomial(aj - bj1, bj - bj1, p)
    return total


def subgroup_count_of_type(g: PGroupType, beta: Partition) -> int:
    """Number of subgroups of type beta inside the p-group of type g.alpha;
    0 unless beta is a subpartition of g.alpha."""
    if not is_subpartition(beta, g.alpha):
        return 0
    a = g.alpha.conjugate().parts
    b = beta.conjugate().parts
    return _count_fixed_conjugates(a, b, g.p)


def subgroup_count(g: PGroupType) -> int:
    """Total number of subgroups (as sets) of the p-group of type g.alpha."""
    return column_counts(g.alpha.conjugate().parts, g.p)[0]


def column_counts(a: tuple[int, ...], p: int) -> tuple[int, int]:
    """(subgroups, subpartitions) of the p-group whose conjugate partition is a.

    The subgroup count is the sum over all subpartitions beta of the
    fixed-type counts, taken as a transfer sum over the conjugate columns.
    With b = beta', the j-th factor of _count_fixed_conjugates depends only on
    the adjacent pair (b_j, b_{j+1}), and the subpartitions b of a are the
    nonincreasing b with b_j <= a_j.  So a sweep from the last column to the
    first keeps w[v], the sum of the products of factors j.. over the b with
    b_j = v, and the count is the sum of the final w.  That costs about
    sum_j (a_j + 1)(a_{j+1} + 1) big-int products, whatever the number of
    subpartitions.  The same sweep with every factor 1 (u) counts the b.
    """
    if not a or a[0] == 1:  # trivial or cyclic, Z_{p^k}: k + 1 of each
        return len(a) + 1, len(a) + 1
    r = a[0]
    pw = [1]  # pw[e] = p^e; (aj - v) c <= r^2/4, and r - 1 <= r^2/4 too
    for _ in range(r * r // 4):
        pw.append(pw[-1] * p)
    gauss = _gaussian_rows(r, pw)
    w = u = [1]  # past the last column b is 0
    for aj in reversed(a):
        w = [
            sum(wc * pw[(aj - v) * c] * gauss[aj - c][v - c] for c, wc in enumerate(w[: v + 1]))
            for v in range(aj + 1)
        ]
        u = [sum(u[: v + 1]) for v in range(aj + 1)]
    return sum(w), sum(u)


def _gaussian_rows(r: int, pw: list[int]) -> list[list[int]]:
    """Rows m = 0..r of Gaussian binomials [m, k]_p, k = 0..m, by the q-Pascal
    recurrence [m, k] = [m-1, k-1] + p^k [m-1, k]; pw[k] = p^k for k < r."""
    rows = [[1]]
    for m in range(1, r + 1):
        prev = rows[-1]
        rows.append([1, *(prev[k - 1] + pw[k] * prev[k] for k in range(1, m)), 1])
    return rows


def log_subgroup_count_main_term(g: PGroupType) -> float:
    """(log p / 4) * sum of squared conjugate parts: the leading term of
    log(subgroup_count(g))."""
    a = g.alpha.conjugate().parts
    return math.log(g.p) / 4.0 * sum(x * x for x in a)
