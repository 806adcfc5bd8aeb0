"""Bulk tables of arithmetic functions over [2, N] and scalar prime utilities.

The FunctionTable holds, for every n up to N, Euler's totient and whether n
has a prime factor above sqrt(N), plus the primes up to N.  Construction
makes one vectorized pass per prime up to sqrt(N) and then one step over all
n for the single prime factor above sqrt(N) that n may have.  Every additive
function (omega, Omega, the I cap's sum of sqrt(nu_p), omega_q) is sieved by
`FunctionTable.additive` the same way; omega(phi(n)) and Omega(phi(n)) are
gathered at their first read.  The table is immutable and safe to share
across threads once its cached columns are read.
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
    """Immutable bulk arrays over [0, N]; entries below 2 are fillers.  The
    additive functions of n or of phi(n) come from `additive`."""

    N: int
    phi: np.ndarray            # Euler totient, int32
    primes: np.ndarray         # the primes <= N, ascending, int64
    big: np.ndarray            # n has a prime factor above sqrt(N), bool

    def additive(self, h, M: int | None = None, dtype=np.uint8) -> np.ndarray:
        """f(m) = sum over p^k || m of h(p, k), for 0 <= m <= M (default N), as dtype.

        h is called once per prime p <= sqrt(N), with an array of the
        exponents nu_p(m) at the multiples m of p, and once with an array of
        the primes P in (sqrt(N), M] and exponents 1.  The terms are added in
        ascending p.  Each m has at most one such P, added last: by one add
        of the big mask where h(P, 1) is the same for every P, else by one
        slice per P with h(P, 1) != 0."""
        M = self.N if M is None else M
        if not 0 <= M <= self.N:
            raise ValueError(f"need 0 <= M <= N = {self.N}, got {M}")
        f = np.zeros(M + 1, dtype=dtype)
        split, end = np.searchsorted(self.primes, [math.isqrt(self.N), M], side="right").tolist()
        for p in self.primes[: min(split, end)].tolist():
            nu = np.ones(M // p, dtype=np.uint8)  # nu[k - 1] = nu_p(k p)
            q = p
            while q <= M // p:
                nu[q - 1::q] += 1
                q *= p
            f[p::p] += h(p, nu)
        large = self.primes[split:end]
        values = np.broadcast_to(h(large, np.ones(len(large), dtype=np.uint8)), large.shape)
        if len(large) and (values == values[0]).all():
            f += self.big[: M + 1] * f.dtype.type(values[0])
        else:
            for P, v in zip(large[values != 0].tolist(), values[values != 0].tolist()):
                f[P::P] += v
        return f

    @cached_property
    def omega_phi(self) -> np.ndarray:
        """omega(phi(n)), uint8, gathered at the first read."""
        return self.additive(lambda p, nu: 1)[self.phi]

    @cached_property
    def bigomega_phi(self) -> np.ndarray:
        """Omega(phi(n)), uint8, gathered at the first read (only scan reads it)."""
        return self.additive(lambda p, nu: nu)[self.phi]


def build(N: int) -> FunctionTable:
    """Sieve all table columns for 2 <= n <= N."""
    if not 2 <= N < 2**31:  # phi and the remainder array are int32
        raise ValueError(f"N must be in [2, 2**31), got {N}")
    # The table and its first omega_phi and bigomega_phi reads peak under 10 bytes
    # per entry, so 16 bounds the table alone: the structure pass needs about 84
    # bytes per n with it, and below this bound a command may still hit MemoryError.
    if 16 * (N + 1) > DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"table for N = {N} needs about {16 * (N + 1)} bytes, budget {DEFAULT_MEMORY_BUDGET}"
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
    phi[0] = 0
    phi[1] = 1
    return FunctionTable(N=N, phi=phi, primes=primes, big=big)


def omega_q_table(table: FunctionTable, q: int, M: int | None = None) -> np.ndarray:
    """uint8 array over [0, M] (default N) with entry n = omega_q(n), the
    number of distinct primes p | n with p = 1 (mod q)."""
    if q < 2:
        raise ValueError("q must be at least 2")
    return table.additive(lambda p, nu: (p - 1) % q == 0, M)
