"""Structure of the unit group (Z/nZ)^x.

Factorization, the prime-counting functions omega_q and their boundary
corrected variants, Carmichael exponents, Sylow partitions from the primary
decomposition (and, as a check, from omega_bar and lambda_p), exact subgroup
counts G(n) and I(n), per n or as int64 arrays over a table whose consumers take
the logs they read (`exact_logs`), and an independent closure-based enumeration oracle.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, count, groupby
from math import gcd

import numpy as np

from .partitions import Partition, conjugate_parts, count_subpartitions
from .pgroup import PGroupType, column_counts, subgroup_count
from . import sieve
from .sieve import FunctionTable

DEFAULT_ORACLE_CAP = 1024
_RHO_MAX_R = 1 << 21  # a rho walk stops once its cycle-length guess passes this


class OracleCapError(ValueError):
    """Closure enumeration refused: group or subgroup count too large."""


def factorize(n: int) -> list[tuple[int, int]]:
    """Exact prime factorization as (prime, exponent) pairs, primes ascending.

    Uses trial division below 1000, then `sieve.is_prime`, an integer square
    root for perfect squares and Brent's variant of Pollard's rho for the rest:
    one walk that splits off each prime it meets (`_rho_split`), whose pieces
    come back here to be certified or split again.  Raises ValueError for a
    probable prime of at least `sieve.IS_PRIME_LIMIT`, where that test stops
    being exact, and when rho runs out of steps (two prime factors both above
    about 1e13).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return []
    out = []
    m = n
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= m and d < 1000:
        for p in (d, d + 2):  # 6k +- 1 wheel
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                out.append((p, e))
        d += 6
    if m >= d * d:  # no prime below d divides m or its factors: below d * d they are prime
        big, rest = [], [m]
        while rest:
            x = rest.pop()
            if x < d * d or sieve.is_prime(x):
                if x >= sieve.IS_PRIME_LIMIT:
                    raise ValueError(f"cannot certify {x} as prime: at least {sieve.IS_PRIME_LIMIT}")
                big.append(x)
            else:
                r = math.isqrt(x)  # a square splits into two copies of its root
                rest += [r, r] if r * r == x else _rho_split(x)
        return out + [(p, len(list(g))) for p, g in groupby(sorted(big))]
    if m > 1:
        out.append((m, 1))
    return out


def _rho_split(n: int) -> list[int]:
    """At least two factors of the odd composite n, with product n, from
    Brent's cycle search on y -> y^2 + c mod n with one gcd per batch of 128
    steps.  A batch that meets a factor is replayed step by step: each factor
    met is split off and the walk goes on modulo the cofactor until that is
    prime or a square.  A step that meets every prime left ends the walk with
    the cofactor as one piece, or, before any split, moves on to the next c."""
    for c in range(1, 9):
        pieces, y, r, q, g = [], 2, 1, 1, 1
        while g != n and r <= _RHO_MAX_R:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                if gcd(q, n) == 1:
                    continue
                y, q = ys, 1
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    while (g := gcd(x - y, n)) not in (1, n):
                        pieces.append(g)
                        n //= g
                        if sieve.is_prime(n) or math.isqrt(n) ** 2 == n:
                            return pieces + [n]
                        x, y = x % n, y % n
                    if g == n:
                        break
                if g == n:
                    break
            r *= 2
        if g != n:
            break  # step budget spent
        if pieces:
            return pieces + [n]
    raise ValueError(f"Pollard-Brent rho found no factor of {n} within its step budget")


def euler_phi(n: int) -> int:
    """Euler's totient."""
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def omega_q(n: int, q: int, fact: list[tuple[int, int]] | None = None) -> int:
    """Number of distinct primes p | n with p = 1 (mod q); q = 1 gives omega(n)."""
    if n < 1 or q < 1:
        raise ValueError("n and q must be positive")
    if fact is None:
        fact = factorize(n)
    return sum(1 for p, _ in fact if (p - 1) % q == 0)


def omega_bar(n: int, p: int, r: int,
              fact: list[tuple[int, int]] | None = None) -> int:
    """Number of cyclic factors of order at least p^r in (Z/nZ)^x.

    This is omega_{p^r}(n) plus a boundary correction accounting for the
    p-power part of n itself; the 2-adic cases are special because
    (Z/2Z)^x and (Z/4Z)^x are cyclic while (Z/2^e Z)^x = Z_{2^{e-2}} x Z_2
    for e >= 3.
    """
    if fact is None:
        fact = factorize(n)
    q = p**r
    w = sum(1 for s, _ in fact if s != p and (s - 1) % q == 0)
    nu = next((e for s, e in fact if s == p), 0)
    if p != 2:
        return w + 1 if nu >= r + 1 else w
    if r == 1:
        if nu >= 3:
            return w + 2
        if nu == 2:
            return w + 1
        return w
    return w + 1 if nu >= r + 2 else w


def lambda_p(n: int, p: int, fact: list[tuple[int, int]] | None = None) -> int:
    """Exponent of p in the Carmichael function lambda(n), via the closed form:
    the p-power part of n contributes nu_p(n) - 1 for odd p (for p = 2: one
    when 4 || n, nu_2(n) - 2 when 8 | n), and each prime q | n contributes
    nu_p(q - 1)."""
    if fact is None:
        fact = factorize(n)
    nu = next((e for s, e in fact if s == p), 0)
    best = 0
    for q, _ in fact:
        if q == p:
            continue
        m = 0
        t = q - 1
        while t % p == 0:
            m += 1
            t //= p
        if m > best:
            best = m
    if p == 2:
        # (Z/4Z)^x is cyclic of order 2, so 4 || n contributes exponent 1,
        # not nu - 2.
        own = 1 if nu == 2 else (nu - 2 if nu >= 3 else 0)
    else:
        own = max(nu - 1, 0)
    return max(own, best)


def carmichael_lambda(n: int, fact: list[tuple[int, int]] | None = None) -> int:
    """Carmichael function lambda(n), computed directly from the definition
    (lcm of the exponents of the prime-power components)."""
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    for p, e in factorize(n) if fact is None else fact:
        if p == 2:
            lam = 1 if e == 1 else (2 if e == 2 else 2 ** (e - 2))
        else:
            lam = p ** (e - 1) * (p - 1)
        out = out * lam // gcd(out, lam)
    return out


def _sylow_conjugate(n: int, p: int, fact: list[tuple[int, int]]) -> tuple[int, ...]:
    """The vector (omega_bar_{p^1}(n), ..., omega_bar_{p^lambda}(n)); empty
    when p does not divide phi(n).  Its conjugate is the Sylow partition."""
    lam = lambda_p(n, p, fact)
    if lam == 0:
        return ()
    a = tuple(omega_bar(n, p, j, fact) for j in range(1, lam + 1))
    for i in range(1, len(a)):
        if a[i] > a[i - 1]:
            raise RuntimeError(
                f"internal inconsistency: omega_bar sequence not nonincreasing "
                f"for n={n}, p={p}: {a}"
            )
    if a[-1] < 1:
        raise RuntimeError(
            f"internal inconsistency: zero tail in omega_bar sequence for n={n}, p={p}"
        )
    return a


def sylow_partition(n: int, p: int) -> Partition:
    """Partition alpha with p-Sylow subgroup of (Z/nZ)^x isomorphic to
    Z_{p^alpha_1} x Z_{p^alpha_2} x ...; requires p | phi(n)."""
    fact = factorize(n)
    a = _sylow_conjugate(n, p, fact)
    if not a:
        raise ValueError(f"{p} does not divide phi({n})")
    return Partition(a).conjugate()


def _prime_power_parts(q: int, e: int) -> list[tuple[int, int]]:
    """(p, k) for each cyclic factor Z_{p^k} of (Z/q^eZ)^x: Z_2 x Z_{2^{e-2}} for
    q = 2, else Z_{p^{nu_p(q-1)}} for each p | q - 1 and Z_{q^{e-1}}."""
    if q == 2:
        return [] if e == 1 else [(2, 1)] if e == 2 else [(2, 1), (2, e - 2)]
    return factorize(q - 1) + ([(q, e - 1)] if e >= 2 else [])


def sylow_decomposition(n: int, fact: list[tuple[int, int]] | None = None) -> dict[int, Partition]:
    """{p: alpha_p}, primes ascending: the partition of the p-Sylow subgroup of
    (Z/nZ)^x for every prime p | phi(n), from the primary decomposition:
    (Z/nZ)^x is the product of the (Z/q^eZ)^x over q^e || n."""
    return {p: Partition(conjugate_parts(a)) for p, a in sylow_columns(n, fact).items()}


def sylow_columns(n: int, fact: list[tuple[int, int]] | None = None) -> dict[int, tuple[int, ...]]:
    """{p: a}, primes ascending, for each p | phi(n): a_j is the number of cyclic
    factors Z_{p^k}, k >= j, of (Z/nZ)^x, the conjugate of the Sylow partition."""
    parts = sorted(x for q, e in (factorize(n) if fact is None else fact) for x in _prime_power_parts(q, e))
    return {p: conjugate_parts([k for _, k in grp]) for p, grp in groupby(parts, lambda pk: pk[0])}


def subgroup_counts(n: int, columns: dict[int, tuple[int, ...]] | None = None) -> tuple[int, int]:
    """(G(n), I(n)): exact counts of subgroups of (Z/nZ)^x as sets and up to isomorphism,
    products of one column sweep per Sylow component; pass the columns when at hand."""
    counts = [column_counts(a, p) for p, a in (columns or sylow_columns(n)).items()]
    return math.prod(g for g, _ in counts), math.prod(i for _, i in counts)


def definitional_columns(n: int, fact: list[tuple[int, int]] | None = None) -> dict[int, tuple[int, ...]]:
    """{p: (omega_bar_{p^1}(n), ..., omega_bar_{p^lambda}(n))}, primes ascending, for
    each p | phi(n), from one factorization of n: the definitional twin of sylow_columns."""
    if fact is None:
        fact = factorize(n)
    phi = math.prod(q ** (e - 1) * (q - 1) for q, e in fact)
    return {p: _sylow_conjugate(n, p, fact) for p, _ in factorize(phi)}


def definitional_counts(n: int, columns: dict[int, tuple[int, ...]] | None = None) -> tuple[int, int]:
    """(G(n), I(n)) by the definitions, a check on subgroup_counts: subgroup_count and
    count_subpartitions of each alpha_p, the conjugate of the omega_bar counts
    (definitional_columns); pass the columns when at hand."""
    alphas = [(p, Partition(conjugate_parts(a))) for p, a in (columns or definitional_columns(n)).items()]
    return (math.prod(subgroup_count(PGroupType(p, alpha)) for p, alpha in alphas),
            math.prod(count_subpartitions(alpha) for _, alpha in alphas))


def count_subgroups(n: int) -> int:
    """G(n): number of subgroups of (Z/nZ)^x, counted as sets."""
    return subgroup_counts(n)[0]


def count_subgroup_isoclasses(n: int) -> int:
    """I(n): number of isomorphism classes of subgroups of (Z/nZ)^x."""
    return subgroup_counts(n)[1]


_INT64_MAX = np.iinfo(np.int64).max


def _part_weights(p: int, N: int, qs: np.ndarray, vq: np.ndarray) -> list[int]:
    """[0, W_1, ..., W_top, width]: a part of size v of a p-Sylow partition of
    n <= N adds W_v to its key, and keys lie below width.  The digit for v
    exceeds the number of parts of size v: from the primes q | n with
    v_p(q - 1) = v (vq), at most the leading ones in qs whose product is <= N,
    and from p^e || n, Z_{p^(e-1)}, or for p = 2 Z_2 (4 | n) and Z_{2^(e-2)}
    (8 | n).  Raises OverflowError, before any key is built, past int64."""
    weights = [0, 1]
    for v in count(1):
        own = (v == 1) + (2 ** (v + 2) <= N) if p == 2 else int(p ** (v + 1) <= N)
        if not own and v > vq.max(initial=0):
            break
        prods = accumulate(qs[vq == v][:63].tolist(), operator.mul)  # q >= 3: 3^63 > N
        weights.append(weights[-1] * (1 + own + sum(x <= N for x in prods)))
    if weights[-1] > _INT64_MAX:
        raise OverflowError(f"p = {p} Sylow keys to N = {N} need {weights[-1].bit_length()} bits")
    return weights


def _multiples(moduli: np.ndarray, N: int) -> np.ndarray:
    """The multiples of each modulus in [1, N], modulus by modulus."""
    c = N // moduli
    return np.repeat(moduli, c) * (np.arange(1, c.sum() + 1) - np.repeat(np.cumsum(c) - c, c))


def _sylow_keys(N: int, p: int, qs: np.ndarray, key: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Adds to the zeroed work array key the p-Sylow key of each n <= N: the
    weight of v_p(q - 1) for each prime q = 1 (mod p) dividing n (qs, those
    q <= N ascending), and those of the parts of p^e || n, telescoped over the
    powers of p.  Returns the weights and the moduli, the q and p^2, whose
    multiples have p | phi(n)."""
    vq, rest = np.ones_like(qs), (qs - 1) // p
    while (more := rest % p == 0).any():
        vq += more
        rest[more] //= p
    weights = _part_weights(p, N, qs, vq)
    wq = np.array(weights, dtype=np.int64)[vq]
    few = N // qs < 64  # one slice costs about as much as 64 gathered multiples
    for q, w in zip(qs[~few].tolist(), wq[~few].tolist()):
        key[q::q] += w
    np.add.at(key, _multiples(qs[few], N), np.repeat(wq[few], N // qs[few]))
    if p == 2:
        key[4::4] += weights[1]  # Z_2, and Z_{2^(e-2)} from 8 below
    for v in range(1, len(weights) - 1):
        d = p ** (v + 1 + (p == 2))
        key[d::d] += weights[v] - weights[v - 1]
    return weights, np.append(qs, p * p)


def _cyclic_only(N: int, p: int, qs: np.ndarray) -> bool:
    """Whether p is odd and every n <= N has a p-Sylow of 1 or Z_p: p^3 > N, the
    two least primes q = 1 (mod p) in qs, if there are two, have a product > N,
    and no prime q <= N is 1 (mod p^2).  (p^2 q > p^3 for each such q: no third check.)"""
    if p == 2 or p**3 <= N:
        return False
    return (len(qs) < 2 or qs[0] * qs[1] > N) and not (qs % (p * p) == 1).any()


def _key_columns(key: int, weights: list[int]) -> tuple[int, ...]:
    """The conjugate partition of the key's partition: a_j = #parts of size >= j."""
    parts = [key % weights[v + 1] // weights[v] for v in range(1, len(weights) - 1)]
    return tuple(filter(None, accumulate(parts[::-1])))[::-1]


def _unique_inverse(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(x, return_inverse=True) for a nonempty nonnegative int64 x.
    Where x shifted past the bits of its indices fits in int64, one sort of
    (x << shift) | index finds both, with no argsort."""
    shift = len(x).bit_length()
    if int(x.max()) >> (63 - shift):
        return np.unique(x, return_inverse=True)
    packed = np.sort((x << shift) | np.arange(len(x)))
    values = packed >> shift
    first = np.r_[True, values[1:] != values[:-1]]
    inverse = np.empty(len(x), dtype=np.int64)
    inverse[packed & ((1 << shift) - 1)] = np.cumsum(first) - 1
    return values[first], inverse


def _checked_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b, in place in a, for int64 arrays of positive counts; raises where int64 would wrap."""
    if int(a.max()) * int(b.max()) > _INT64_MAX and np.any(a > _INT64_MAX // b):
        raise OverflowError("a subgroup count exceeds the int64 range")
    a *= b
    return a


def per_distinct(x: np.ndarray, f, dtype) -> np.ndarray:
    """f of each entry of the nonempty nonnegative integer array x, as an array
    of dtype, with f called once per distinct value, in ascending order."""
    values, inverse = _unique_inverse(x.astype(np.int64, copy=False))
    return np.array([f(v) for v in values.tolist()], dtype=dtype)[inverse]


def exact_logs(counts: np.ndarray) -> np.ndarray:
    """math.log of each exact count, as float64, taken once per distinct value."""
    return per_distinct(counts, math.log, np.float64)


def subgroup_count_arrays(table: FunctionTable, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(G(n), I(n)) for 0 <= n <= N: two int64 arrays holding the exact counts
    (1 at n = 0 and 1), as `subgroup_counts(n)` gives them one n at a time.

    Only the p-Sylow components with p <= sqrt(N) can have rank 2 or more.
    For each such p one int64 key per n, additive over the prime divisors of
    n (`_sylow_keys`), encodes the partition, and each distinct key, zero and
    cyclic components included, is counted once per call by one sweep over its
    conjugate columns.  Where the moduli's multiples cover under half of [0, N],
    only their union is read.  Above sqrt(N), and for the cyclic-only primes
    below it (`_cyclic_only`), every prime dividing phi(n) is a cyclic factor
    Z_p and doubles both counts; there are omega(phi(n)) minus the keyed ones.
    """
    if not 1 <= N <= table.N:
        raise ValueError(f"need 1 <= N <= table.N = {table.N}, got {N}")
    g = np.ones(N + 1, dtype=np.int64)
    i = np.ones(N + 1, dtype=np.int64)
    n_large = table.omega_phi[: N + 1].copy()  # primes > sqrt(N) dividing phi(n)
    key = np.zeros(N + 1, dtype=np.int64)  # zero again after each p
    for p in table.primes[table.primes <= math.isqrt(N)].tolist():
        qs = np.arange(p + 1, N + 1, p)
        qs = qs[table.phi[qs] == qs - 1]  # the primes q = 1 (mod p)
        if _cyclic_only(N, p, qs):  # a doubling, like the primes above sqrt(N)
            continue
        weights, moduli = _sylow_keys(N, p, qs, key)
        on = (slice(None) if 2 * (N // moduli).sum() > N
              else np.unique(_multiples(moduli, N), return_counts=True)[0])  # a sort, no hash
        keys = key[on]
        distinct, inverse = _unique_inverse(keys)
        per_key = np.array([column_counts(_key_columns(k, weights), p) for k in distinct.tolist()],
                           dtype=np.int64)  # raises OverflowError past int64
        n_large[on] -= keys != 0
        g[on] = _checked_product(g[on], per_key[inverse, 0])
        i[on] = _checked_product(i[on], per_key[inverse, 1])
        key[on] = 0
    doubling = np.left_shift(np.int64(1), n_large, out=key)  # reuses the work array
    return _checked_product(g, doubling), _checked_product(i, doubling)


# ---------------------------------------------------------------------------
# Closure-based enumeration oracle
# ---------------------------------------------------------------------------

def units(n: int) -> list[int]:
    """Residues of the unit group mod n (n = 1 gives [0], the zero ring's unit)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return [0]
    return [a for a in range(1, n) if gcd(a, n) == 1]


def _closure(H: frozenset, g, mul) -> frozenset:
    """Subgroup generated by the subgroup H and one extra element g
    (abelian ambient group assumed: the result is the union of cosets g^k H)."""
    S = set(H)
    x = g
    while x not in H:
        S.update(mul(x, h) for h in H)
        x = mul(x, g)
    return frozenset(S)


def _prime_power_steps(elements, mul, identity) -> list[tuple]:
    """(order, g, g^p) for one generator g of each cyclic subgroup of prime-power
    order p^k > 1, sorted by order, from the powers of each element not yet
    known as a generator."""
    steps, covered = [], set()
    for g in elements:
        if g in covered:
            continue
        powers = [identity]
        x = g
        while x != identity:
            powers.append(x)
            x = mul(x, g)
        m = len(powers)
        covered.update(x for k, x in enumerate(powers) if gcd(k, m) == 1)  # generators of <g>
        p = next((d for d in range(2, m + 1) if m % d == 0), 0)  # least prime factor of m
        if p and pow(p, m, m) == 0:  # m is a power of p
            steps.append((m, g, powers[p % m]))
    steps.sort(key=lambda step: step[0])
    return steps


def closure_subgroup_enumeration(elements, mul, identity,
                                 max_subgroups: int | None = None) -> list[tuple]:
    """Every subgroup of a finite abelian group, as canonical sorted element
    tuples, each reached once by a depth-first search over index-p steps.

    Every subgroup K is the join of the prime-power cyclic subgroups in it.
    Number the generators of the group's prime-power cyclic subgroups g_0,
    g_1, ... by ascending order (`_prime_power_steps`) and let
    S(K) = {i : g_i in K}.  K's canonical chain starts at the trivial group
    and at each step joins g_i for the smallest i in S(K) not yet in S(H).
    Its indices increase, and its prefixes are the canonical chains of their
    own subgroups.  The search extends H, reached along its chain with last
    index `last`, by g_i only when (1) i > last, (2) g_i^p is in H and (3) no
    g_j outside H with j < i lies in K = H v <g_i>.  Rules 1 and 3 say that
    H's chain followed by i is K's canonical chain, so K is reached from one
    parent only.  Each canonical chain meets rules 1 and 3 by construction,
    and rule 2 because <g_i^p> is trivial or generated by some g_j of smaller
    order, so j < i lies in S(K) and already in S(H).  Rule 2 only prunes:
    it makes K exactly p cosets of H.
    """
    steps = _prime_power_steps(elements, mul, identity)
    gens = [g for _, g, _ in steps]
    base = frozenset([identity])
    found = [base]
    stack = [(base, -1)]
    while stack:
        H, last = stack.pop()
        outside = [i for i, g in enumerate(gens) if g not in H]
        for pos, i in enumerate(outside):
            if i <= last or steps[i][2] not in H:
                continue
            K = _closure(H, gens[i], mul)
            if any(gens[j] in K for j in outside[:pos]):
                continue
            if max_subgroups is not None and len(found) >= max_subgroups:
                raise OracleCapError(f"more than {max_subgroups} subgroups; cap exceeded")
            found.append(K)
            stack.append((K, i))
    return sorted(sorted(tuple(sorted(h)) for h in found), key=len)  # stable: by size, then by elements


def enumerate_subgroups_oracle(n: int, cap: int = DEFAULT_ORACLE_CAP) -> list[tuple[int, ...]]:
    """All subgroups of (Z/nZ)^x as sorted residue tuples, by closure search.
    Refuses when phi(n) exceeds the cap, before listing the units."""
    phi = euler_phi(n)
    if phi > cap:
        raise OracleCapError(f"phi({n}) = {phi} exceeds oracle cap {cap}")
    if n == 1:
        return [(0,)]
    return closure_subgroup_enumeration(units(n), lambda a, b: a * b % n, 1)


def classify_isoclasses_oracle(n: int, cap: int = DEFAULT_ORACLE_CAP,
                               subs: list[tuple[int, ...]] | None = None) -> int:
    """Number of distinct isomorphism types among the enumerated subgroups;
    pass subs when the enumeration of n is already at hand.

    For finite abelian groups the sorted multiset of element orders
    determines the isomorphism type, so it serves as the signature.  The
    order of g is |<g>|, and <g> is the smallest subgroup containing g: the
    first one containing g in the list, which is sorted by size.
    """
    if subs is None:
        subs = enumerate_subgroups_oracle(n, cap)
    order = {}
    for H in subs:
        for g in H:
            order.setdefault(g, len(H))
    return len({tuple(sorted(map(order.__getitem__, H))) for H in subs})
