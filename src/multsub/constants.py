"""Numerical evaluation of the mean and variance constants for log G(n).

Two of the constants are prime sums, and the other two are built from them:

    A0 = (1/4) sum_p p^2 log p / ((p-1)^3 (p+1)),      A = A0 + (log 2)/2,
    B  = (1/4) sum_p (per-prime same-base correction),
    C  = (log 2)^2/3 + 2 A0 log 2 + 4 A0^2 + B.

Only compute_A0 and compute_B sum over primes; compute_A, compute_C,
compute_B_report and infinite_sum_checks take their estimates.

B is evaluated two ways: from the power-series derivation (authoritative
here) and from the degree-7 closed-form term whose numerator reads
p^4 - p^3 - p^2 - p - 1; the variant with the numerator's -p^3 duplicated
in place of -p^2 is kept for discrepancy reporting.  Every per-prime term is
a float64 array function, evaluated on chunks of primes and summed once with
math.fsum (the tests pin the sums bit for bit).  Truncation tails are bounded
by integral comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain

import numpy as np

from . import multgroup
from .sieve import prime_power_list, primes_up_to

LOG2 = math.log(2)
_TERM_CHUNK = 1 << 12


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    prime_limit: int
    tail_bound: float


def _as_primes(prime_limit: int, primes: np.ndarray | None) -> np.ndarray:
    if primes is None:
        return primes_up_to(prime_limit)
    return primes[: np.searchsorted(primes, prime_limit, side="right")]


def _term_sum(term, primes: np.ndarray) -> float:
    """math.fsum of term over the primes, in ascending order.  The term is
    evaluated on float64 chunks of _TERM_CHUNK primes, and each chunk's values
    are fed to the one fsum as they come: the values and their order are
    those of term over all the primes at once, so the sum is too, bit for bit."""
    chunks = (primes[i : i + _TERM_CHUNK].astype(np.float64) for i in range(0, len(primes), _TERM_CHUNK))
    return math.fsum(chain.from_iterable(term(c).tolist() for c in chunks))


def a0_term(p):
    """Per-prime term of A0 (the 1/4 included), for a prime or an array of them."""
    return 0.25 * p * p * np.log(p) / ((p - 1) ** 3 * (p + 1))


def compute_A0(prime_limit: int, primes: np.ndarray | None = None) -> ConstantEstimate:
    """A0 truncated at prime_limit, with an integral-comparison tail bound."""
    if prime_limit < 100:
        raise ValueError("prime_limit must be at least 100")
    value = _term_sum(a0_term, _as_primes(prime_limit, primes))
    # term(t) <= 0.25 (1 - 1/P)^(-3) log t / t^2  for t >= P, and the terms
    # decrease, so the prime tail is below the integral over t > P.
    fudge = (1 - 1 / prime_limit) ** -3
    tail = 0.25 * fudge * (math.log(prime_limit) + 1) / prime_limit
    return ConstantEstimate(value, prime_limit, tail)


def compute_A(a0: ConstantEstimate) -> ConstantEstimate:
    """A = A0 + (log 2)/2."""
    return ConstantEstimate(a0.value + LOG2 / 2, a0.prime_limit, a0.tail_bound)


def b_term_series(p):
    """Per-prime B term from the power-series derivation (the 1/4 included),
    for a prime or an array of them:
    (1/4)(log p)^2 [ p^3/(p-1)^3 * (1+x^2)/(1-x^2) * x^3/(1-x^3)
                     - p^4/(p-1)^4 * (x^2/(1-x^2))^2 ],   x = 1/p."""
    x = 1.0 / p
    lp2 = np.log(p) ** 2
    first = (p / (p - 1.0)) ** 4 * (x * x / (1 - x * x)) ** 2
    second = (p / (p - 1.0)) ** 3 * ((1 + x * x) / (1 - x * x)) * (x**3 / (1 - x**3))
    return 0.25 * lp2 * (second - first)


def b_term_closed(p, corrected: bool = True):
    """Per-prime B term from the closed form (the 1/4 included), for a prime or
    an array of them, in float64.  The numerator is p^4 - p^3 - p^2 - p - 1;
    corrected=False keeps the duplicated -p^3 in its place (p^4 - 2p^3 - p - 1),
    for discrepancy reporting."""
    p = np.asarray(p, dtype=np.float64)
    p3, p4 = p**3, p**4
    num = p4 - p3 - p**2 - p - 1 if corrected else p4 - 2 * p3 - p - 1
    return 0.25 * p3 * num * np.log(p) ** 2 / ((p - 1) ** 6 * (p + 1) ** 2 * (p * p + p + 1))


def b_term_series_exact(p: int) -> Fraction:
    """Exact-rational series term divided by (log p)^2/4; for symbolic
    agreement checks against the closed form."""
    x = Fraction(1, p)
    first = Fraction(p, p - 1) ** 4 * (x * x / (1 - x * x)) ** 2
    second = Fraction(p, p - 1) ** 3 * ((1 + x * x) / (1 - x * x)) * (x**3 / (1 - x**3))
    return second - first


def _b_tail(prime_limit: int) -> float:
    p = float(prime_limit)
    k = (1 - 1 / p) ** -3 * (1 + 1 / p**2) / (1 - 1 / p**2) / (1 - 1 / p**3)
    lp = math.log(p)
    return 0.25 * k * (lp * lp / 2 + lp / 2 + 0.25) / (p * p)


def compute_B(prime_limit: int, primes: np.ndarray | None = None) -> ConstantEstimate:
    """B truncated at prime_limit, from the series form."""
    if prime_limit < 100:
        raise ValueError("prime_limit must be at least 100")
    value = _term_sum(b_term_series, _as_primes(prime_limit, primes))
    return ConstantEstimate(value, prime_limit, _b_tail(prime_limit))


def compute_B_report(b: ConstantEstimate, primes: np.ndarray | None = None) -> dict:
    """The series estimate b against both closed forms, each one fsum of float64
    array terms over the same primes, plus per-prime and aggregate discrepancies."""
    ps = _as_primes(b.prime_limit, primes)
    closed = _term_sum(b_term_closed, ps)
    uncorrected = _term_sum(partial(b_term_closed, corrected=False), ps)
    head = ps[:2000].astype(np.float64)
    per_prime = float(np.max(np.abs(b_term_series(head) - b_term_closed(head))))
    return {
        "B_series": b.value,
        "B_closed_corrected": closed,
        "B_closed_uncorrected": uncorrected,
        "max_per_prime_delta": per_prime,
        "tail_bound": b.tail_bound,
        "prime_limit": b.prime_limit,
    }


def compute_C(a0: ConstantEstimate, b: ConstantEstimate) -> ConstantEstimate:
    """C = (log 2)^2/3 + 2 A0 log 2 + 4 A0^2 + B, with propagated tails."""
    a0_hi = a0.value + a0.tail_bound
    tail = (2 * LOG2 + 8 * a0_hi) * a0.tail_bound + b.tail_bound
    return ConstantEstimate(assemble_C(a0.value, b.value), a0.prime_limit, tail)


def assemble_C(a0: float, b: float) -> float:
    """The defining combination of A0 and B."""
    return LOG2**2 / 3 + 2 * a0 * LOG2 + 4 * a0 * a0 + b


NORMALIZATION_PRIME_LIMIT = 10**6
# (A, C) at 10^6 primes, as normalization() sums them: the coefficients of
# (loglog n)^2 and (loglog n)^3 in the mean and variance of log G(n), by
# which `moments` and `distribution --which G` scale.
NORMALIZATION = (0.7210897254115849, 1.2967338448823222)


def normalization() -> tuple[float, float]:
    """(A, C) at NORMALIZATION_PRIME_LIMIT, summed from their definitions.

    The callers read the constant NORMALIZATION instead of sieving 78,498
    primes each time; this route is kept as the check that the constant is
    right (the tests assert the two are equal bit for bit)."""
    primes = primes_up_to(NORMALIZATION_PRIME_LIMIT)
    a0 = compute_A0(NORMALIZATION_PRIME_LIMIT, primes)
    b = compute_B(NORMALIZATION_PRIME_LIMIT, primes)
    return compute_A(a0).value, compute_C(a0, b).value


# ---------------------------------------------------------------------------
# Finite prime-power sums converging to the same constants
# ---------------------------------------------------------------------------

def single_prime_power_sum(x_limit: float) -> float:
    """(1/4) sum_{q <= X} Lambda(q)/phi(q)^2 over prime powers; -> A0 as X grows."""
    return _single_sum(prime_power_list(x_limit))


def _single_sum(qs: list[tuple[int, float]]) -> float:
    total = 0.0
    base: dict[float, int] = {}  # Lambda -> p: q ascends, so p comes before its powers
    for q, logp in qs:
        total += logp / (q - q // base.setdefault(logp, q)) ** 2
    return 0.25 * total


def double_prime_power_sum(x_limit: float, brute: bool = False) -> float:
    """(1/4) sum_{q1, q2 <= X} Lambda(q1) Lambda(q2) / (phi(q1) phi(q2) phi(lcm));
    converges to 4 A0^2 + B.

    The default evaluation splits distinct-base pairs (where the sum factors)
    from same-base pairs (summed directly), with phi(p^k) = p^k - p^(k-1);
    brute=True loops all pairs with the definitional multgroup.euler_phi.
    """
    qs = prime_power_list(x_limit)
    if brute:
        total = 0.0
        for q1, l1 in qs:
            for q2, l2 in qs:
                lcm = math.lcm(q1, q2)
                total += l1 * l2 / (
                    multgroup.euler_phi(q1) * multgroup.euler_phi(q2) * multgroup.euler_phi(lcm)
                )
        return 0.25 * total
    return _double_sum(qs)


def _double_sum(qs: list[tuple[int, float]]) -> float:
    per_prime: dict[float, list[int]] = {}  # by Lambda = log p, each list ascending from p
    for q, lp in qs:
        per_prime.setdefault(lp, []).append(q)
    single = 0.0
    same_base_factored = 0.0
    same_base_true = 0.0
    for lp, powers in per_prime.items():
        phis = [q - q // powers[0] for q in powers]  # so phi(max(q1, q2)) = phis[max(i, j)]
        s = sum(lp / ph**2 for ph in phis)
        single += s
        same_base_factored += s * s
        for i in range(len(powers)):
            for j in range(len(powers)):
                same_base_true += lp * lp / (phis[i] * phis[j] * phis[max(i, j)])
    return 0.25 * (single * single - same_base_factored + same_base_true)


def infinite_sum_checks(a0: ConstantEstimate, b: ConstantEstimate, x_limit: float) -> dict:
    """Evaluate the truncated prime-power sums and report their distance from
    the estimates of A0 and 4 A0^2 + B."""
    if x_limit < 10:
        raise ValueError("x_limit must be at least 10")
    qs = prime_power_list(x_limit)
    s1 = _single_sum(qs)
    s2 = _double_sum(qs)
    target2 = 4 * a0.value**2 + b.value
    return {
        "X": x_limit,
        "prime_limit": a0.prime_limit,
        "single_sum": s1,
        "single_target": a0.value,
        "single_diff": s1 - a0.value,
        "double_sum": s2,
        "double_target": target2,
        "double_diff": s2 - target2,
    }
