"""Bulk tables of arithmetic functions over [2, N] and scalar prime utilities.

The FunctionTable holds, for every n up to N: Euler's totient and the
prime-divisor counts omega(phi(n)) and Omega(phi(n)), plus the primes up
to N.  Construction makes one vectorized pass per prime up to
sqrt(N) and then one step over all n for the single prime factor above
sqrt(N) that n may have; after construction the table is immutable and safe
to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MEMORY_BUDGET = 2 * 1024**3

# The first 13 prime bases: deterministic below IS_PRIME_LIMIT, the least
# strong pseudoprime to all of them (without 41 the bound falls to 3.18e23).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
IS_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


class MemoryBudgetError(ValueError):
    """Requested table would exceed the configured memory budget."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < IS_PRIME_LIMIT (3.3e24);
    above it a True answer means only a strong probable prime."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


def primes_up_to(limit: float) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array; raises
    MemoryBudgetError where the sieve would pass DEFAULT_MEMORY_BUDGET."""
    n = int(limit)
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    if 2 * (n + 1) > DEFAULT_MEMORY_BUDGET:  # the mask, and under 16/ln(n) bytes of primes per entry
        raise MemoryBudgetError(f"primes up to {n} need about {2 * (n + 1)} bytes, "
                                f"budget {DEFAULT_MEMORY_BUDGET}")
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def prime_power_list(x: float) -> list[tuple[int, float]]:
    """All prime powers q <= x ascending, paired with Lambda(q) = log(base prime)."""
    if x < 2:
        raise ValueError("x must be at least 2")
    out = []
    for p in primes_up_to(x):
        p = int(p)
        lp = math.log(p)
        q = p
        while q <= x:
            out.append((q, lp))
            q *= p
    out.sort()
    return out


@dataclass(frozen=True)
class FunctionTable:
    """Immutable bulk arrays over [0, N]; entries below 2 are fillers."""

    N: int
    phi: np.ndarray            # Euler totient, int32
    omega_phi: np.ndarray      # omega(phi(n)), uint8
    bigomega_phi: np.ndarray   # Omega(phi(n)), uint8
    primes: np.ndarray         # the primes <= N, ascending, int64


def build(N: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> FunctionTable:
    """Sieve all table columns for 2 <= n <= N."""
    if not 2 <= N < 2**31:  # phi and the remainder array are int32
        raise ValueError(f"N must be in [2, 2**31), got {N}")
    # The build itself peaks under 10 bytes per entry; 16 keeps out the N at
    # which log_counts's per-n int64 arrays would run out of memory instead.
    if 16 * (N + 1) > memory_budget:
        raise MemoryBudgetError(
            f"table for N = {N} needs about {16 * (N + 1)} bytes, budget {memory_budget}"
        )

    primes = primes_up_to(N)
    small = primes[: np.searchsorted(primes, math.isqrt(N), side="right")].tolist()

    # Only the primes p <= sqrt(N) get a slice each.  Dividing them out leaves
    # in rem the one prime factor of n above sqrt(N), to the first power, or 1;
    # phi gathers the product of (p - 1) p^(k-1) over the p^k || n meanwhile.
    # Each partial product divides phi(n) <= n, so none overflows.
    phi = np.ones(N + 1, dtype=np.int32)
    rem = np.arange(N + 1, dtype=np.int32)
    rem[0] = 1
    for p in small:
        q, factor = p, p - 1
        while q <= N:
            phi[q::q] *= factor
            rem[q::q] //= p
            q, factor = q * p, p
    big = rem > 1
    rem -= 1
    np.multiply(phi, rem, out=phi, where=big)
    del rem  # freed before the omega columns: the peak stays under 16 bytes per entry

    omega = big.astype(np.uint8)
    for p in small:
        omega[p::p] += 1
    bigomega = big.astype(np.uint8)
    del big
    for p in small:
        q = p
        while q <= N:
            bigomega[q::q] += 1
            q *= p

    phi[0] = 0
    phi[1] = 1
    omega_phi = omega[phi]
    bigomega_phi = bigomega[phi]
    omega_phi[0] = 0
    bigomega_phi[0] = 0

    return FunctionTable(N=N, phi=phi, omega_phi=omega_phi,
                         bigomega_phi=bigomega_phi, primes=primes)


def omega_q_table(table: FunctionTable, q: int) -> np.ndarray:
    """uint8 array over [0, N] with entry n = omega_q(n), the number of distinct
    primes p | n with p = 1 (mod q); one slice per such p."""
    if q < 2:
        raise ValueError("q must be at least 2")
    arr = np.zeros(table.N + 1, dtype=np.uint8)
    for p in table.primes[(table.primes - 1) % q == 0].tolist():
        arr[p::p] += 1
    return arr
