"""Maximal-order experiments for log G(n) and log I(n): exhaustive scans,
two lower-bound constructions, and scans verifying the growth-rate upper
bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calibration, multgroup
from .sieve import FunctionTable, is_prime, primes_up_to

PI_SQRT_2_3 = math.pi * math.sqrt(2.0 / 3.0)

DEFAULT_CANDIDATE_CAP = 10**7


class ConstructionFailedError(RuntimeError):
    """A lower-bound construction could not be completed at this scale."""


@dataclass(frozen=True)
class ExtremalRecord:
    n: int
    value: float          # log G(n) or log I(n)
    normalized: float     # value * loglog n / (log n)^2 for G, / log n for I
    provenance: str       # "scan" or "construction"

    def to_json_dict(self) -> dict:
        return {
            "n": str(self.n),
            "value": self.value,
            "normalized": self.normalized,
            "provenance": self.provenance,
        }


def _normalized(value: float, log_n: float, which: str) -> float:
    ll = math.log(log_n)
    if which == "G":
        return value * ll / log_n**2
    return value * ll / log_n


def scan_max(N: int, which: str, table: FunctionTable) -> ExtremalRecord:
    """argmax of log G(n) (or log I(n)) over 3 <= n <= N, ties to smaller n."""
    if which not in ("G", "I"):
        raise ValueError("which must be 'G' or 'I'")
    if N < 3 or table.N < N:
        raise ValueError("need 3 <= N <= table.N")
    counts = multgroup.subgroup_count_arrays(table, N)[0 if which == "G" else 1]
    best_n = 3 + int(np.argmax(counts[3:]))  # the first maximum, that of the logs too: distinct
    best = math.log(int(counts[best_n]))     # counts below about 1e14 have distinct logs
    return ExtremalRecord(best_n, best, _normalized(best, math.log(best_n), which), "scan")


def construct_G_extremal(x: float, bv_exponent: int = 0) -> ExtremalRecord:
    """Build n < x with one heavily populated prime progression, making
    log G(n) large: choose a prime p from (Q, 2Q) whose progression 1 mod p
    is closest to its expected weight up to V, then take n as the product of
    all primes q <= V with q = 1 (mod p).

    V = (log x)^2 / (loglog x)^(2*bv_exponent+1) * (1 - 1/loglog x) and
    Q = log x / (loglog x)^(2*bv_exponent+1).  The exponent is configurable;
    0 is the largest choice for which (Q, 2Q) contains a prime at feasible x.
    """
    if x < 10**6:
        raise ValueError("x must be at least 10^6")
    log_x = math.log(x)
    ll = math.log(log_x)
    denom = ll ** (2 * bv_exponent + 1)
    v_limit = log_x**2 / denom * (1 - 1 / ll)
    q_limit = log_x / denom

    small_primes = primes_up_to(v_limit)
    candidates = [int(p) for p in primes_up_to(2 * q_limit) if p > q_limit]
    best_p, best_dev, best_qs = 0, math.inf, None
    for p in candidates:
        qs = small_primes[(small_primes - 1) % p == 0]
        if len(qs) == 0:
            continue
        theta = float(np.sum(np.log(qs.astype(np.float64))))
        dev = abs(theta - v_limit / (p - 1))
        if dev < best_dev:
            best_p, best_dev, best_qs = p, dev, qs
    if best_qs is None:
        raise ConstructionFailedError(
            f"no prime in ({q_limit:.3f}, {2 * q_limit:.3f}) with a populated "
            f"progression up to {v_limit:.3f}"
        )

    n = 1
    log_n = 0.0
    for q in best_qs.tolist():
        n *= q
        log_n += math.log(q)
    g = multgroup.subgroup_counts(n)[0]
    value = math.log(g)
    return ExtremalRecord(n, value, _normalized(value, log_n, "G"), "construction")


def construct_I_extremal(x: float) -> ExtremalRecord:
    """Build a prime q < x with many primes dividing q - 1, making I(q) large:
    q is the smallest prime = 1 (mod m) for m the product of all primes up to
    U = (log x)/5 - loglog x.  The search walks q = 1 + k m and fails loudly
    past DEFAULT_CANDIDATE_CAP candidates."""
    if x < 10**6:
        raise ValueError("x must be at least 10^6")
    log_x = math.log(x)
    u_limit = log_x / 5 - math.log(log_x)
    m = 1
    for p in primes_up_to(u_limit):
        m *= int(p)
    q = 0
    for k in range(1, DEFAULT_CANDIDATE_CAP + 1):
        cand = 1 + k * m
        if cand >= 2 and is_prime(cand):
            q = cand
            break
    if q == 0:
        raise ConstructionFailedError(
            f"no prime found in 1 + k*{m} within {DEFAULT_CANDIDATE_CAP} candidates"
        )
    value = math.log(multgroup.subgroup_counts(q)[1])
    return ExtremalRecord(q, value, _normalized(value, math.log(q), "I"), "construction")


@dataclass(frozen=True)
class BoundCheckReport:
    N: int
    g_bound: float               # (1/4)(log N)^2/loglog N * (1 + slack)
    slack: float
    max_log_g: float
    max_log_g_ratio: float       # max log G(n) / ((1/4)(log N)^2/loglog N)
    max_log_i_ratio: float       # max log I(n) / (pi sqrt(2/3) sum sqrt(k_p))
    g_violations: list[int]
    i_violations: list[int]

    @property
    def ok(self) -> bool:
        return not self.g_violations and not self.i_violations


def _i_cap(table: FunctionTable, N: int) -> np.ndarray:
    """pi sqrt(2/3) * sum over p | phi(n) of sqrt(nu_p(phi(n))), for 0 <= n <= N
    (0 where phi(n) = 1): an additive function of m = phi(n) <= N, sieved over
    m with the terms added in ascending p."""
    return PI_SQRT_2_3 * table.additive(lambda p, nu: np.sqrt(nu, dtype=np.float64), N,
                                        np.float64)[table.phi[: N + 1]]


def upper_bound_check(N: int, table: FunctionTable,
                      slack: float = calibration.G_UPPER_BOUND_SLACK) -> BoundCheckReport:
    """Verify, for every n <= N, the two growth-rate upper bounds:
    log G(n) <= (1/4)(log N)^2/loglog N * (1 + slack) and the exact
    log I(n) <= pi sqrt(2/3) * sum over p | phi(n) of sqrt(nu_p(phi(n))).
    Violations signal an implementation bug."""
    if N < 100 or table.N < N:
        raise ValueError("need 100 <= N <= table.N")
    base = 0.25 * math.log(N) ** 2 / math.log(math.log(N))
    g_bound = base * (1 + slack)
    log_g, log_i = map(multgroup.exact_logs, multgroup.subgroup_count_arrays(table, N))
    i_cap = _i_cap(table, N)
    return BoundCheckReport(
        N=N, g_bound=g_bound, slack=slack, max_log_g=float(log_g.max()),
        max_log_g_ratio=float((log_g / base).max()),
        max_log_i_ratio=float((log_i[i_cap > 0] / i_cap[i_cap > 0]).max(initial=0.0)),
        g_violations=(np.flatnonzero(log_g[2:] > g_bound) + 2).tolist(),
        i_violations=(np.flatnonzero(log_i[2:] > i_cap[2:]) + 2).tolist(),
    )
