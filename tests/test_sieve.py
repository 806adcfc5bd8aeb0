import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multsub import multgroup as mg
from multsub import sieve


def test_is_prime():
    small = [p for p in range(60) if sieve.is_prime(p)]
    assert small == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert sieve.is_prime(2**31 - 1)
    assert not sieve.is_prime(561)        # Carmichael number
    assert not sieve.is_prime(3215031751)  # strong pseudoprime to first 4 bases
    assert sieve.is_prime(10**18 + 9)
    # least strong pseudoprime to the first 12 prime bases; base 41 rejects it
    assert not sieve.is_prime(318665857834031151167461)
    # least strong pseudoprime to the first 13: where the test stops being exact
    assert sieve.is_prime(sieve.IS_PRIME_LIMIT)


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


def test_is_prime_uses_one_more_base_at_each_pseudoprime():
    # is_prime tries the first k bases for n < psi_k; psi_k itself passes
    # exactly those k, so it takes one more to be refused
    for k, psi in enumerate(sieve._MR_PSI, start=1):
        assert all(_strong_probable_prime(psi, a) for a in sieve._MR_BASES[:k]), k
        assert sieve.is_prime(psi) == (psi == sieve.IS_PRIME_LIMIT), k


def test_primes_up_to():
    assert sieve.primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert sieve.primes_up_to(2).tolist() == [2]
    assert len(sieve.primes_up_to(100)) == 25
    assert len(sieve.primes_up_to(1)) == 0
    # refused before the mask is allocated, as build refuses its table
    with pytest.raises(sieve.MemoryBudgetError, match="primes up to 10000000000000 need"):
        sieve.primes_up_to(1e13)


def test_primes_up_to_matches_a_plain_mask_sieve():
    def plain(n):
        mask = np.ones(n + 1, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(n) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        return np.flatnonzero(mask).astype(np.int64)

    for n in [*range(2001), 10**5, 505_000, 10**6 + 3]:
        got = sieve.primes_up_to(n)
        assert got.dtype == np.int64 and np.array_equal(got, plain(n)), n


def test_prime_power_list():
    qs = sieve.prime_power_list(10)
    assert [q for q, _ in qs] == [2, 3, 4, 5, 7, 8, 9]
    expected_logs = [math.log(v) for v in (2, 3, 2, 5, 7, 2, 3)]
    assert [l for _, l in qs] == pytest.approx(expected_logs)
    assert sieve.prime_power_list(2) == [(2, math.log(2))]
    assert len(sieve.prime_power_list(30)) == 16
    with pytest.raises(ValueError):
        sieve.prime_power_list(1.5)


def test_build_small_values():
    t = sieve.build(10)
    assert t.phi[2:11].tolist() == [1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert int(t.omega_phi[8]) == 1   # phi(8) = 4
    assert int(t.bigomega_phi[7]) == 2  # phi(7) = 6
    assert t.primes.tolist() == [2, 3, 5, 7]


def test_build_validation(monkeypatch):
    with pytest.raises(ValueError):
        sieve.build(1)
    # past the budget, and where the int32 columns would overflow: both
    # refused before the prime sieve allocates anything
    monkeypatch.setattr(sieve, "primes_up_to", lambda n: pytest.fail("allocated"))
    with pytest.raises(sieve.MemoryBudgetError, match="table for N = 200000000 needs"):
        sieve.build(2 * 10**8)
    with pytest.raises(ValueError, match=r"2\*\*31"):
        sieve.build(2**31)


def test_table_matches_per_n_computation(table_10k):
    t = table_10k
    for n in range(2, 10**4 + 1):
        fact = mg.factorize(n)
        phi = 1
        for p, e in fact:
            phi *= p ** (e - 1) * (p - 1)
        assert int(t.phi[n]) == phi
        phifact = mg.factorize(phi)
        assert int(t.omega_phi[n]) == len(phifact)
        assert int(t.bigomega_phi[n]) == sum(e for _, e in phifact)


def test_omega_q_tables(table_10k):
    # primes above sqrt(N) are odd, so q = 2 adds theirs by the big mask and
    # q >= 3 by one slice each; the smaller tables end around 97^2, where 97
    # moves from below sqrt(N) to above it, and just above sqrt(10^4)
    facts = [mg.factorize(n) if n else [] for n in range(10**4 + 1)]
    tables = [table_10k] + [sieve.build(N) for N in (97**2 - 1, 97**2, 97**2 + 1, 101)]
    for q in range(2, 10):
        ref = np.array([mg.omega_q(n, q, f) if n > 1 else 0 for n, f in enumerate(facts)])
        for t in tables:
            got = sieve.omega_q_table(t, q)
            assert got.dtype == np.uint8 and np.array_equal(got, ref[: t.N + 1]), (q, t.N)
    assert int(sieve.omega_q_table(table_10k, 2)[12]) == 1
    assert int(sieve.omega_q_table(table_10k, 4)[10]) == 1
    assert int(sieve.omega_q_table(table_10k, 9)[2]) == 0


def test_mertens_progression_sums_at_1e7():
    # sum over p <= x, p = 1 mod q of 1/p stays within the pinned multiple of
    # log q / phi(q) of loglog x / phi(q)
    from multsub.calibration import MERTENS_PROGRESSION_C

    x = 10**7
    primes = sieve.primes_up_to(x)
    llx = math.log(math.log(x))
    for q in (3, 4, 5, 7, 9):
        ps = primes[(primes - 1) % q == 0]
        s = math.fsum((1.0 / p) for p in ps.tolist())
        phi_q = mg.euler_phi(q)
        dev = abs(s - llx / phi_q)
        assert dev <= MERTENS_PROGRESSION_C * math.log(q) / phi_q, (q, dev)


def test_omega_q_bounds(table_10k):
    arr3 = sieve.omega_q_table(table_10k, 3)
    for n in range(2, 3000):
        assert int(arr3[n]) <= len(mg.factorize(n))
    # q > n forces zero
    for n in range(2, 50):
        assert mg.omega_q(n, n + 1) == 0


@settings(max_examples=60)
@given(st.integers(2, 99), st.integers(2, 99))
def test_phi_multiplicative_on_coprime_pairs(table_10k, a, b):
    if math.gcd(a, b) != 1:
        return
    assert int(table_10k.phi[a * b]) == int(table_10k.phi[a]) * int(table_10k.phi[b])


def _build_per_prime(N):
    """The construction `build` replaced, kept as the reference: one slice per
    prime <= N for each of phi, omega and Omega."""
    spf = np.zeros(N + 1, dtype=np.int32)
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    primes = (np.flatnonzero(spf[2:] == 0) + 2).astype(np.int64)
    phi = np.arange(N + 1, dtype=np.int32)
    for p in primes:
        phi[p::p] -= phi[p::p] // p
    omega = np.zeros(N + 1, dtype=np.uint8)
    for p in primes:
        omega[p::p] += 1
    bigomega = np.zeros(N + 1, dtype=np.uint8)
    for p in primes:
        q = int(p)
        while q <= N:
            bigomega[q::q] += 1
            q *= int(p)
    phi[0] = 0
    phi[1] = 1
    omega_phi = omega[phi]
    bigomega_phi = bigomega[phi]
    omega_phi[0] = 0
    bigomega_phi[0] = 0
    return phi, omega_phi, bigomega_phi, primes


_SQUARE_EDGES = [m for p in range(2, 101) if sieve.is_prime(p) for m in (p * p - 1, p * p, p * p + 1)]


@pytest.mark.parametrize("sizes", [range(2, 401), _SQUARE_EDGES, [10**5 + 3]],
                         ids=["2..400", "p^2-1,p^2,p^2+1", "1e5+3"])
def test_build_matches_per_prime_reference(sizes):
    for N in sizes:
        t = sieve.build(N)
        assert "bigomega_phi" not in vars(t)  # sieved at its first read
        got = (t.phi, t.omega_phi, t.bigomega_phi, t.primes)
        for name, a, b in zip(("phi", "omega_phi", "bigomega_phi", "primes"),
                              got, _build_per_prime(N)):
            assert a.dtype == b.dtype and np.array_equal(a, b), (N, name)


@pytest.mark.parametrize("N", [2**17 - 1, 2**17, 2**17 + 1])
def test_phi_blocks_join_to_the_table_columns(N):
    # one block, then a last block of one n, then of two
    assert sieve.block_length(N) == 2**17
    t = sieve.build(N)
    small = t.primes[t.primes <= math.isqrt(N)].tolist()
    blocks = list(sieve.phi_blocks(N, small))
    assert [lo for lo, _, _ in blocks] == list(range(0, N + 1, 2**17))
    phi = np.concatenate([b for _, b, _ in blocks])
    large = np.concatenate([b for _, _, b in blocks])
    lpf = np.ones(N + 1, dtype=np.int64)  # the largest prime factor, 1 for n < 2
    for p in t.primes.tolist():
        lpf[p::p] = p
    ref_phi = _build_per_prime(N)[0]
    assert phi.dtype == large.dtype == np.int32
    assert np.array_equal(phi, ref_phi) and np.array_equal(phi, t.phi)
    assert np.array_equal(large, np.where(lpf > math.isqrt(N), lpf, 1))
    assert np.array_equal(large > 1, t.big)


_ADDITIVE = {"omega": lambda p, nu: 1, "Omega": lambda p, nu: nu(),
             **{f"omega_{q}": lambda p, nu, q=q: (p - 1) % q == 0 for q in range(2, 10)}}


@pytest.mark.parametrize("N", [2**17 - 1, 2**17, 2**17 + 1])
def test_additive_blocks_join_to_the_table_sieve(N):
    # the two additive sieves against each other; for q >= 3, h(P, 1) varies
    # with the prime P above sqrt(N), so the table's slice per P and the
    # block's np.where both run
    t = sieve.build(N)
    small = t.primes[t.primes <= math.isqrt(N)].tolist()
    for name, h in _ADDITIVE.items():
        joined = np.concatenate([sieve.additive_block(h, lo, large, small)
                                 for lo, _, large in sieve.phi_blocks(N, small)])
        assert joined.dtype == np.uint8 and np.array_equal(joined, t.additive(h)), (N, name)


def test_block_length():
    assert [sieve.block_length(N) for N in (2, 5 * 10**5, 10**7, 2 * 10**8)] == [2**17, 2**17, 2**18, 2**20]


def test_build_peak_memory_within_budget_rate():
    # build refuses tables above 16 bytes per entry; its own peak allocation
    # (numpy reports to tracemalloc) must stay within that rate
    N = 200_000
    tracemalloc.start()
    try:
        t = sieve.build(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.N == N
    assert peak <= 16 * (N + 1), peak / (N + 1)


def test_table_columns_peak_under_ten_bytes_per_entry():
    # the build and the first reads of both gathered columns: the large prime
    # above sqrt(N) is not kept per entry, only the big mask
    N = 200_000
    tracemalloc.start()
    try:
        t = sieve.build(N)
        t.omega_phi, t.bigomega_phi
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * (N + 1), peak / (N + 1)
