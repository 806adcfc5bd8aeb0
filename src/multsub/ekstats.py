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
from .sieve import FunctionTable, omega_q_table, prime_power_list, primes_up_to

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


def _g_values(q: int, ps: np.ndarray, table: FunctionTable) -> np.ndarray:
    """g(p) at each prime of ps for the function tagged q, as floats."""
    g = table.omega_phi[ps] if q == OMEGA0 else (ps - 1) % q == 0
    return g.astype(np.float64)


def _float_state(q: int, x: float, table: FunctionTable):
    """The primes p <= x (for q != 0 only those with g(p) = 1), their g
    values and their reciprocals."""
    ps = table.primes[table.primes <= x]
    g = _g_values(q, ps, table)
    if q != OMEGA0:  # keep only the residue class, where g = 1
        ps, g = ps[g != 0], g[g != 0]
    return ps, g, 1.0 / ps.astype(np.float64)


def mu(q: int, x: float, table: FunctionTable | None = None, exact: bool = False):
    """The prime-harmonic mean  sum_{p <= x} g(p)/p  of the function tagged q,
    accumulated in ascending p.  exact=True returns a Fraction (small x only)."""
    _check_function_id(q)
    if x < 2:
        raise ValueError("x must be at least 2")
    if exact:
        return _exact_mu(q, int(x))
    if table is None or table.N < x:
        raise ValueError("float mode needs a FunctionTable covering x")
    _, g, invp = _float_state(q, x, table)
    return chunked_sum(g * invp)


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
        if table is None or table.N < x:
            raise ValueError("float mode needs a FunctionTable covering x")
        pi, g, invp = _float_state(q, x, table)
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
    if table.N < z:
        raise ValueError("table must cover z")
    ps = table.primes[table.primes <= z]
    pf = ps.astype(np.float64)
    weight = (1.0 / pf) * (1.0 - 1.0 / pf)
    return chunked_sum(_g_values(q1, ps, table) * _g_values(q2, ps, table) * weight)


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


def surrogate_mean(x: float, table: FunctionTable) -> float:
    """The surrogate with every function replaced by its prime-harmonic mean:
    log2 * mu(omega(phi)) + (1/4) sum mu(omega_q)^2 Lambda(q)."""
    total = LOG2 * mu(OMEGA0, x, table)
    for q, logp in surrogate_prime_powers(x):
        m = mu(q, x, table)
        total += 0.25 * logp * m * m
    return total


def surrogate_moments(hs: list[int], x: float, table: FunctionTable) -> dict[int, float]:
    """Centered moment sums M_h = sum_{n <= x} (P_n - D)^h for each h in hs.

    P_n depends on n only through its row (omega(phi(n)), omega_q(n) for each
    surrogate q), keyed here in mixed radix.  The n of each distinct row are
    counted, and each M_h is the exactly rounded sum of count * (P - D)^h over
    the rows: equal to math.fsum of the per-n values, bit for bit."""
    for h in hs:
        if not 1 <= h <= 8:
            raise ValueError("h must be between 1 and 8")
    xi = int(x)
    if table.N < xi:
        raise ValueError("table must cover x")
    qs = surrogate_prime_powers(x)
    key = table.omega_phi[1 : xi + 1]  # a view: no per-n copy while qs is empty
    radices = [int(key.max()) + 1]
    for q, _ in qs:
        wq = omega_q_table(table, q, xi)[1:]
        radices.append(int(wq.max()) + 1)
        key = key.astype(np.min_scalar_type(math.prod(radices) - 1)) * radices[-1] + wq
    counts = np.zeros(math.prod(radices), dtype=np.int64)
    for i in range(0, xi, _COUNT_SLICE):  # bincount copies its input to intp
        counts += np.bincount(key[i : i + _COUNT_SLICE], minlength=len(counts))
    keys = np.flatnonzero(counts)  # the distinct rows, ascending
    omega_phi, *digits = np.unravel_index(keys, radices)
    pn = LOG2 * omega_phi.astype(np.float64)
    for (_, logp), w in zip(qs, digits):
        wq = w.astype(np.float64)
        pn += 0.25 * logp * wq * wq
    centered = pn - surrogate_mean(x, table)
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


def distribution_report(x: int, which: str, table: FunctionTable,
                        return_samples: bool = False):
    """Normalized samples of log G(n) (or log I(n)) for e^e < n <= x, their
    empirical moments up to order 4, and the KS distance to the standard
    normal.  Normalization per sample uses loglog n:
    (log G(n) - A (loglog n)^2) / sqrt(C (loglog n)^3)."""
    if x < 100:
        raise ValueError("x must be at least 100")
    if which not in ("G", "I"):
        raise ValueError("which must be 'G' or 'I'")
    if table.N < x:
        raise ValueError("table must cover x")
    if which == "G":
        mean_coeff, var_coeff = constants.NORMALIZATION
    else:
        mean_coeff, var_coeff = LOG2 / 2.0, LOG2 / 3.0

    n_min = 16  # smallest integer above e^e
    logs = multgroup.exact_logs(multgroup.subgroup_count_arrays(table, x)[0 if which == "G" else 1])
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
    if return_samples:
        return report, samples
    return report
