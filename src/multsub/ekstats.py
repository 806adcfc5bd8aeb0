"""Distribution statistics for subgroup counts of (Z/nZ)^x.

Additive functions are tagged by an integer id q: q = 0 means n -> omega(phi(n)),
and a prime power q >= 2 means omega_q (the count of prime divisors in the
residue class 1 mod q).  The module provides their prime-harmonic means, the
mean/oscillation decomposition, pairwise covariances, the quadratic surrogate
for log G(n) with its mean and centered moments, and empirical normality
reports for log G and log I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import constants, multgroup
from .sieve import (DEFAULT_MEMORY_BUDGET, FunctionTable, MemoryBudgetError, additive_block,
                    phi_blocks, prime_power_list, primes_up_to)

LOG2 = math.log(2)
OMEGA0 = 0  # function id for omega(phi(n))

E_E = math.e**math.e

_CHUNK = 1 << 20
_COUNT_SLICE = 1 << 16

_erf = np.frompyfunc(math.erf, 1, 1)  # elementwise math.erf, as Python floats


def _check_function_id(q: int) -> None:
    if q == OMEGA0:
        return
    if q < 2 or len(multgroup.factorize(q)) != 1:
        raise ValueError(f"function id must be 0 or a prime power >= 2, got {q}")


def chunked_sum(values: np.ndarray) -> float:
    """Sum in ascending index order with fixed chunk boundaries; chunk totals
    are combined exactly via math.fsum so results do not depend on how callers
    partition the work."""
    arr = np.asarray(values, dtype=np.float64)
    partials = [float(arr[i : i + _CHUNK].sum()) for i in range(0, len(arr), _CHUNK)]
    return math.fsum(partials)


def q_cutoff(x: float) -> float:
    """sqrt(loglog x) * (logloglog x)^2, the prime-power cutoff of the
    quadratic surrogate; requires x > e^e."""
    if x <= E_E:
        raise ValueError(f"x must exceed e^e = {E_E:.4f}")
    ll = math.log(math.log(x))
    return math.sqrt(ll) * math.log(ll) ** 2


def surrogate_prime_powers(x: float) -> list[tuple[int, float]]:
    """Prime powers q <= q_cutoff(x) with their Lambda values (possibly none)."""
    cut = q_cutoff(x)
    if cut < 2:
        return []
    return prime_power_list(cut)


# ---------------------------------------------------------------------------
# Means and the mean/oscillation decomposition
# ---------------------------------------------------------------------------

def _g_exact(q: int, p: int) -> int:
    """g(p) at the prime p for the function tagged q."""
    return len(multgroup.factorize(p - 1)) if q == OMEGA0 else int((p - 1) % q == 0)


def _exact_mu(q: int, xi: int) -> Fraction:
    """The rational sum  sum_{p <= xi} g(p)/p,  accumulated in ascending p."""
    mu_sum = Fraction(0)
    for p in primes_up_to(xi).tolist():
        if g := _g_exact(q, p):
            mu_sum += Fraction(g, p)
    return mu_sum


def _float_state(q: int, ps: np.ndarray, omega_pm1: np.ndarray | None):
    """The primes of ps (for q != 0 only those with g(p) = 1), their g values
    and their reciprocals; omega_pm1 holds omega(p - 1) at ps, read for q = 0."""
    if q == OMEGA0:
        g = omega_pm1.astype(np.float64)
    else:  # keep only the residue class, where g = 1
        ps = ps[(ps - 1) % q == 0]
        g = np.ones(len(ps))
    return ps, g, 1.0 / ps.astype(np.float64)


def _prime_mean(q: int, ps: np.ndarray, omega_pm1: np.ndarray | None) -> float:
    """sum g(p)/p over the primes ps, ascending, as chunked_sum adds the terms:
    one partial per _CHUNK of the primes that enter (for q != 0, those of the
    residue class), built one chunk at a time."""
    if q != OMEGA0:  # the chunks are of the class, so _float_state keeps every prime
        ps = ps[(ps - 1) % q == 0]
    partials = []
    for i in range(0, len(ps), _CHUNK):
        _, g, invp = _float_state(q, ps[i : i + _CHUNK],
                                  None if omega_pm1 is None else omega_pm1[i : i + _CHUNK])
        partials.append(float((g * invp).sum()))
    return math.fsum(partials)


def _table_primes(q: int, x: float, table: FunctionTable | None):
    """The primes p <= x of a table covering x, and omega(p - 1) at them where
    q = 0 reads it."""
    if table is None or table.N < x:
        raise ValueError(f"float mode needs a FunctionTable covering {x}")
    ps = table.primes[table.primes <= x]
    return ps, table.omega_phi[ps] if q == OMEGA0 else None


def mu(q: int, x: float, table: FunctionTable | None = None, exact: bool = False):
    """The prime-harmonic mean  sum_{p <= x} g(p)/p  of the function tagged q,
    accumulated in ascending p.  exact=True returns a Fraction (small x only)."""
    _check_function_id(q)
    if x < 2:
        raise ValueError("x must be at least 2")
    if exact:
        return _exact_mu(q, int(x))
    return _prime_mean(q, *_table_primes(q, x, table))


def f_p(p: int, a: int) -> Fraction:
    """1 - 1/p when p | a, else -1/p: the oscillation kernel at the prime p."""
    return Fraction(p - 1, p) if a % p == 0 else Fraction(-1, p)


def f_r(r: int, a: int) -> Fraction:
    """Completely multiplicative extension of f_p in the subscript."""
    out = Fraction(1)
    for p, e in multgroup.factorize(r):
        out *= f_p(p, a) ** e
    return out


def oscillation(q: int, a, x: float, table: FunctionTable | None = None,
                exact: bool = False):
    """F_g(a) = sum_{p <= x} g(p) f_p(a), the oscillating part of g(a) around
    mu(g; x); satisfies  mu(q, x) + oscillation(q, a, x) = g(a)  exactly for
    a <= x.  A sequence of a gives a list with one value per a, from one
    pass over the primes."""
    _check_function_id(q)
    many = not isinstance(a, (int, np.integer))
    values = list(a) if many else [a]
    if any(b < 1 for b in values):
        raise ValueError("a must be positive")
    if exact:
        mu_x = _exact_mu(q, int(x))
        out = [sum(_g_exact(q, p) for p, _ in multgroup.factorize(b) if p <= x) - mu_x
               for b in values]
    else:
        pi, g, invp = _float_state(q, *_table_primes(q, x, table))
        out = [chunked_sum(g * ((b % pi == 0).astype(np.float64) - invp)) for b in values]
    return out if many else out[0]


def squarefull_mean_density(m: int) -> Fraction:
    """Multiplicative density H with H(p^gamma) =
    (1/p)(1 - 1/p)^gamma + (-1/p)^gamma (1 - 1/p); the mean value of f_m.
    Vanishes unless m is squarefull."""
    if m < 1:
        raise ValueError("m must be positive")
    out = Fraction(1)
    for p, gamma in multgroup.factorize(m):
        one = Fraction(1, p)
        out *= one * (1 - one) ** gamma + (-one) ** gamma * (1 - one)
    return out


def covariance(q1: int, q2: int, z: float, table: FunctionTable) -> float:
    """sum_{p <= z} g1(p) g2(p) (1/p)(1 - 1/p) for the tagged functions."""
    _check_function_id(q1)
    _check_function_id(q2)
    if z < 2:
        raise ValueError("z must be at least 2")
    # omega(p - 1) is read, and omega(phi) sieved, only where one of the two is tagged 0
    ps, omega_pm1 = _table_primes(OMEGA0 if OMEGA0 in (q1, q2) else q1, z, table)
    pf = ps.astype(np.float64)
    g1, g2 = (omega_pm1 if q == OMEGA0 else (ps - 1) % q == 0 for q in (q1, q2))
    return chunked_sum(g1.astype(np.float64) * g2 * ((1.0 / pf) * (1.0 - 1.0 / pf)))


# ---------------------------------------------------------------------------
# The quadratic surrogate for log G and its moments
# ---------------------------------------------------------------------------

def log_g_surrogate(n: int, x: float) -> float:
    """log2 * omega(phi(n)) + (1/4) sum_{q <= cutoff} omega_q(n)^2 Lambda(q)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > x:
        raise ValueError("requires n <= x")
    fact = multgroup.factorize(n)
    total = LOG2 * len(multgroup.factorize(multgroup.euler_phi(n)))
    for q, logp in surrogate_prime_powers(x):
        wq = multgroup.omega_q(n, q, fact)
        total += 0.25 * logp * wq * wq
    return total


def _surrogate_mean(x: float, ps: np.ndarray, omega_pm1: np.ndarray) -> float:
    """surrogate_mean from the primes ps <= x and omega(p - 1) at them."""
    total = LOG2 * _prime_mean(OMEGA0, ps, omega_pm1)
    for q, logp in surrogate_prime_powers(x):
        m = _prime_mean(q, ps, None)
        total += 0.25 * logp * m * m
    return total


def surrogate_mean(x: float, table: FunctionTable) -> float:
    """The surrogate with every function replaced by its prime-harmonic mean:
    log2 * mu(omega(phi)) + (1/4) sum mu(omega_q)^2 Lambda(q)."""
    return _surrogate_mean(x, *_table_primes(OMEGA0, x, table))


def _radix(q: int, primes: np.ndarray, x: int) -> int:
    """1 + the largest value the function tagged q takes at n <= x.  Both
    omega(phi(n)) and omega_q(n) count distinct primes of one m <= x (those
    p = 1 mod q for q != 0), so neither exceeds the number of the smallest
    such primes whose product stays <= x."""
    k, prod = 0, 1
    for p in map(int, primes):
        if q == OMEGA0 or (p - 1) % q == 0:
            prod *= p
            if prod > x:
                break
            k += 1
    return k + 1


def moments_bytes(x: int) -> int:
    """An upper estimate of what surrogate_moments holds at x: omega over
    [0, x] (1 byte per n), the primes up to x and their sieve (under 1 byte
    per n), and 64 MB for the blocks and the chunks of the mean."""
    return 2 * (x + 1) + (64 << 20)


def surrogate_moments(hs: list[int], x: float) -> dict[int, float]:
    """Centered moment sums M_h = sum_{n <= x} (P_n - D)^h for each h in hs.

    P_n depends on n only through its row (omega(phi(n)), omega_q(n) for each
    surrogate q), keyed here in mixed radix.  The rows come from phi_blocks
    one block of n at a time: omega over the block is sieved first and kept,
    then gathered at phi(n) < n, which is already filled.  Only omega is held
    over all of [0, x].  The n of each distinct row are counted, and each M_h
    is the exactly rounded sum of count * (P - D)^h over the rows: equal to
    math.fsum of the per-n values, bit for bit."""
    for h in hs:
        if not 1 <= h <= 8:
            raise ValueError("h must be between 1 and 8")
    xi = int(x)
    if (need := moments_bytes(xi)) > DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(f"x = {xi} needs about {need} bytes, budget {DEFAULT_MEMORY_BUDGET}")
    qs = surrogate_prime_powers(x)
    primes = primes_up_to(xi)
    small = primes[: np.searchsorted(primes, math.isqrt(xi), side="right")].tolist()
    radices = [_radix(q, primes, xi) for q in [OMEGA0] + [q for q, _ in qs]]
    dtype = np.min_scalar_type(math.prod(radices) - 1)
    omega = np.empty(xi + 1, dtype=np.uint8)
    counts = np.zeros(math.prod(radices), dtype=np.int64)
    for lo, phi, large in phi_blocks(xi, small):
        omega[lo : lo + len(phi)] = additive_block(lambda p, nu: 1, lo, large, small)
        key = omega[phi].astype(dtype, copy=False)
        for (q, _), radix in zip(qs, radices[1:]):
            key *= radix
            key += additive_block(lambda p, nu, q=q: (p - 1) % q == 0, lo, large, small)
        key = key[1:] if lo == 0 else key  # n = 0 is no row
        for i in range(0, len(key), _COUNT_SLICE):  # bincount copies its input to intp
            counts += np.bincount(key[i : i + _COUNT_SLICE], minlength=len(counts))
    # by chunks: primes - 1 at once would be an int64 copy of every prime
    omega_pm1 = np.concatenate([omega[primes[i : i + _CHUNK] - 1] for i in range(0, len(primes), _CHUNK)])
    del omega
    keys = np.flatnonzero(counts)  # the distinct rows, ascending
    omega_phi, *digits = np.unravel_index(keys, radices)
    pn = LOG2 * omega_phi.astype(np.float64)
    for (_, logp), w in zip(qs, digits):
        wq = w.astype(np.float64)
        pn += 0.25 * logp * wq * wq
    centered = pn - _surrogate_mean(x, primes, omega_pm1)
    counts = counts[keys].tolist()
    moments = {}
    for h in hs:
        # Each value is num / den with den a power of 2, so over the largest
        # den the sum is one integer; int / int rounds correctly.
        ratios = [v.as_integer_ratio() for v in (centered**h).tolist()]
        den = max(d for _, d in ratios)
        moments[h] = sum(c * num * (den // d) for (num, d), c in zip(ratios, counts)) / den
    return moments


# ---------------------------------------------------------------------------
# Empirical distribution reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionReport:
    x: int
    which: str                      # "G" or "I"
    sample_count: int
    empirical_moments: dict[int, float]
    ks_distance: float
    normalization: tuple[float, float]  # (mean coefficient, variance coefficient)

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "which": self.which,
            "sample_count": self.sample_count,
            "empirical_moments": {str(h): v for h, v in sorted(self.empirical_moments.items())},
            "ks_distance": self.ks_distance,
            "normalization": {
                "mean_coefficient": self.normalization[0],
                "variance_coefficient": self.normalization[1],
            },
        }


def ks_distance_normal(samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the sample and the standard normal
    (math.erf is accurate to well below 1e-12, far under any distributional
    mismatch of interest)."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(s)
    if n == 0:
        raise ValueError("need at least one sample")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    cdf = 0.5 * (1.0 + _erf(s * inv_sqrt2).astype(np.float64))
    i = np.arange(n)
    return max(0.0, float(np.max(cdf - i / n)), float(np.max((i + 1) / n - cdf)))


def distribution_report(table: FunctionTable, which: str) -> tuple[DistributionReport, np.ndarray]:
    """The normalized samples of log G(n) (or log I(n)) for e^e < n <= x =
    table.N, and a report of their empirical moments up to order 4 and their
    KS distance to the standard normal.  Normalization per sample uses
    loglog n: (log G(n) - A (loglog n)^2) / sqrt(C (loglog n)^3)."""
    x = table.N
    if x < 100:
        raise ValueError(f"x must be at least 100, got {x}")
    if which not in ("G", "I"):
        raise ValueError("which must be 'G' or 'I'")
    if which == "G":
        mean_coeff, var_coeff = constants.NORMALIZATION
    else:
        mean_coeff, var_coeff = LOG2 / 2.0, LOG2 / 3.0

    n_min = 16  # smallest integer above e^e
    logs = multgroup.exact_logs(multgroup.subgroup_count_arrays(table)[0 if which == "G" else 1])
    ll = np.log(np.log(np.arange(n_min, x + 1, dtype=np.float64)))
    samples = (logs[n_min:] - mean_coeff * ll**2) / np.sqrt(var_coeff * ll**3)

    moments = {h: chunked_sum(samples**h) / len(samples) for h in (1, 2, 3, 4)}
    report = DistributionReport(
        x=x,
        which=which,
        sample_count=len(samples),
        empirical_moments=moments,
        ks_distance=ks_distance_normal(samples),
        normalization=(mean_coeff, var_coeff),
    )
    return report, samples
