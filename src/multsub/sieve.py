"""Bulk tables of arithmetic functions over [2, N] and scalar prime utilities.

The FunctionTable holds, for every n up to N: Euler's totient and the
prime-divisor count omega(phi(n)), plus the primes up to N; Omega(phi(n))
is sieved at its first read.  Construction makes one vectorized pass per
prime up to sqrt(N) and then one step over all n for the single prime factor
above sqrt(N) that n may have; after construction the table is immutable
and safe to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_MEMORY_BUDGET = 2 * 1024**3

# The first 13 prime bases: deterministic below IS_PRIME_LIMIT, the least
# strong pseudoprime to all of them (without 41 the bound falls to 3.18e23).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
IS_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981
# psi_k, the least strong pseudoprime to the first k bases (OEIS A014233):
# n < psi_k needs only those k.
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461,
           IS_PRIME_LIMIT)


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
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
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
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1, odd[0] for 2
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


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
    primes: np.ndarray         # the primes <= N, ascending, int64
    big: np.ndarray            # n has a prime factor above sqrt(N), bool

    @cached_property
    def bigomega_phi(self) -> np.ndarray:
        """Omega(phi(n)), uint8, sieved at the first read (only scan reads it)."""
        bigomega = self.big.astype(np.uint8)
        for p in self.primes[: np.searchsorted(self.primes, math.isqrt(self.N), side="right")].tolist():
            q = p
            while q <= self.N:
                bigomega[q::q] += 1
                q *= p
        bigomega_phi = bigomega[self.phi]
        bigomega_phi[0] = 0
        return bigomega_phi


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
    np.maximum(rem, 1, out=rem)  # P - 1 for the prime P > sqrt(N) left in rem, else 1
    phi *= rem
    del rem  # freed before the omega column: the peak stays under 16 bytes per entry

    omega = big.astype(np.uint8)
    for p in small:
        omega[p::p] += 1

    phi[0] = 0
    phi[1] = 1
    omega_phi = omega[phi]
    omega_phi[0] = 0

    return FunctionTable(N=N, phi=phi, omega_phi=omega_phi, primes=primes, big=big)


def omega_q_table(table: FunctionTable, q: int) -> np.ndarray:
    """uint8 array over [0, N] with entry n = omega_q(n), the number of distinct
    primes p | n with p = 1 (mod q); one slice per such p."""
    if q < 2:
        raise ValueError("q must be at least 2")
    arr = np.zeros(table.N + 1, dtype=np.uint8)
    for p in table.primes[(table.primes - 1) % q == 0].tolist():
        arr[p::p] += 1
    return arr
