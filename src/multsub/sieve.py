"""Bulk tables of arithmetic functions over [2, N] and scalar prime utilities.

`phi_blocks` sieves Euler's totient over fixed blocks of n, one vectorized
pass per prime up to sqrt(N) and then one step for the single prime factor
above sqrt(N) that n may have, which each block keeps.  The FunctionTable
holds, for every n up to N, the totient and whether n has such a prime
factor, plus the primes up to N; `build` fills it from the blocks.  Every
additive function (omega, Omega, the I cap's sum of sqrt(nu_p), omega_q) is
sieved the same way, over all of a table by `FunctionTable.additive` and over
one block by `additive_block`; omega(phi(n)) and Omega(phi(n)) are gathered
at their first read.  Each reader of a table reads all of [0, N]: a smaller
range is a table built at that N.  The table is immutable and safe to share
across threads once its cached columns are read.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, partial

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


def block_length(N: int) -> int:
    """The length of phi_blocks' blocks for a sieve up to N: the larger of 2^17
    and the power of two >= 64 sqrt(N).  Each prime p <= sqrt(N) then has at
    least 64 multiples in a block, so the cost of a slice is in its elements,
    not in starting it."""
    return max(1 << 17, 1 << (math.ceil(64 * math.sqrt(N)) - 1).bit_length())


def phi_blocks(N: int, small: list[int], out: np.ndarray | None = None):
    """For each block [lo, hi) of [0, N] in turn, yield (lo, phi, large): the
    int32 arrays phi(n) and the prime factor of n above sqrt(N), or 1 where n
    has none, for lo <= n < hi.  small holds the primes up to sqrt(N); N must
    be below 2**31.  Given out, an int32 array over [0, N], each block's phi
    is the view out[lo:hi], filled in place.  The generator keeps no block
    between yields, so a caller that drops one before asking for the next
    holds one block at a time."""
    step = block_length(N)
    for lo in range(0, N + 1, step):
        hi = min(lo + step, N + 1)
        yield (lo, *_phi_block(lo, hi, small, None if out is None else out[lo:hi]))


def _phi_block(lo: int, hi: int, small: list[int], phi: np.ndarray | None):
    """phi_blocks' (phi, large) for the block [lo, hi).

    Only the primes p <= sqrt(N) get a slice each.  Dividing them out leaves in
    rem the one prime factor of n above sqrt(N), to the first power, or 1;
    phi gathers the product of (p - 1) p^(k-1) over the p^k || n meanwhile.
    Each partial product divides phi(n) <= n, so none overflows."""
    phi = np.empty(hi - lo, dtype=np.int32) if phi is None else phi
    phi.fill(1)
    rem = np.arange(lo, hi, dtype=np.int32)
    if lo == 0:
        rem[0] = 1  # n = 0 has no prime factor
    for p in small:
        q, factor = p, p - 1
        while q < hi:
            first = max(q, -(-lo // q) * q) - lo  # the first multiple of q in the block
            phi[first::q] *= factor
            rem[first::q] //= p
            q, factor = q * p, p
    has = rem > 1
    rem -= has  # P - 1 for the prime P > sqrt(N) left in rem, else 1
    phi *= rem
    rem += has
    if lo == 0:
        phi[0] = 0
    return phi, rem


def _exponents(p: int, k0: int, k1: int) -> np.ndarray:
    """nu_p(k p) for k0 <= k <= k1, as uint8."""
    nu = np.ones(max(0, k1 - k0 + 1), dtype=np.uint8)
    q = p
    while q <= k1:
        nu[-k0 % q::q] += 1
        q *= p
    return nu


def _add_small_primes(h, f: np.ndarray, lo: int, small) -> None:
    """Add h(p, nu_p(m)) to f[m - lo] at every multiple m > 0 of each p in small
    (ascending) with lo <= m < lo + len(f); h gets p and a function that
    returns the array of the exponents at those m, so that an h that ignores
    them costs no exponent array."""
    hi = lo + len(f)
    for p in small:
        k0, k1 = max(1, -(-lo // p)), (hi - 1) // p  # the multiples are k p, k0 <= k <= k1
        f[k0 * p - lo::p] += h(p, partial(_exponents, p, k0, k1))


def additive_block(h, lo: int, large: np.ndarray, small) -> np.ndarray:
    """f(m) = sum over p^k || m of h(p, k), for lo <= m < lo + len(large), as
    uint8, from one block of phi_blocks: large and small as it takes and
    yields them.  The terms of the p in small come in ascending p, as in
    FunctionTable.additive; each m's prime above sqrt(N) comes last, from one
    call h(large, 1) over the block, read only where large > 1."""
    f = np.zeros(len(large), dtype=np.uint8)
    _add_small_primes(h, f, lo, small)
    has = large > 1
    values = h(large, partial(np.ones, len(large), dtype=np.uint8))
    if np.ndim(values) == 0:  # the same for every P: one add of the mask
        f += has * f.dtype.type(values)
    else:
        f += np.where(has, values, 0).astype(np.uint8, copy=False)
    return f


@dataclass(frozen=True)
class FunctionTable:
    """Immutable bulk arrays over [0, N]; entries below 2 are fillers.  The
    additive functions of n or of phi(n) come from `additive`."""

    N: int
    phi: np.ndarray            # Euler totient, int32
    primes: np.ndarray         # the primes <= N, ascending, int64
    big: np.ndarray            # n has a prime factor above sqrt(N), bool

    def additive(self, h, dtype=np.uint8) -> np.ndarray:
        """f(m) = sum over p^k || m of h(p, k), for 0 <= m <= N, as dtype.

        h is called once per prime p <= sqrt(N), with a function returning
        the array of the exponents nu_p(m) at the multiples m of p, and once
        with an array of the primes P in (sqrt(N), N] and exponents 1.  The
        terms are added in ascending p.  Each m has at most one such P, added
        last: by one add of the big mask where h(P, 1) is the same for every
        P, else by one slice per P with h(P, 1) != 0."""
        f = np.zeros(self.N + 1, dtype=dtype)
        split = int(np.searchsorted(self.primes, math.isqrt(self.N), side="right"))
        _add_small_primes(h, f, 0, self.primes[:split].tolist())
        large = self.primes[split:]
        values = np.broadcast_to(h(large, partial(np.ones, len(large), dtype=np.uint8)), large.shape)
        if len(large) and (values == values[0]).all():
            f += self.big * f.dtype.type(values[0])
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
        return self.additive(lambda p, nu: nu())[self.phi]


def build(N: int) -> FunctionTable:
    """Fill all table columns for 2 <= n <= N from phi_blocks."""
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
    phi = np.empty(N + 1, dtype=np.int32)
    big = np.empty(N + 1, dtype=bool)
    small = primes[: np.searchsorted(primes, math.isqrt(N), side="right")].tolist()
    for lo, block, large in phi_blocks(N, small, out=phi):
        np.greater(large, 1, out=big[lo : lo + len(block)])
        del large  # else it lives on while the next block's remainder is made
    return FunctionTable(N=N, phi=phi, primes=primes, big=big)


def omega_q_table(table: FunctionTable, q: int) -> np.ndarray:
    """uint8 array over [0, N] with entry n = omega_q(n), the number of
    distinct primes p | n with p = 1 (mod q)."""
    if q < 2:
        raise ValueError("q must be at least 2")
    return table.additive(lambda p, nu: (p - 1) % q == 0)
