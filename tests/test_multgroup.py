import math
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from multsub import cli, extremal
from multsub import multgroup as mg
from multsub import partitions, pgroup, sieve
from multsub.partitions import Partition, count_subpartitions
from multsub.pgroup import column_counts

from conftest import primary_matches_definition


def factorize_naive(n):
    out = []
    d = 2
    while n > 1:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out


def test_factorize_examples():
    assert mg.factorize(1) == []
    assert mg.factorize(8) == [(2, 3)]
    assert mg.factorize(360) == [(2, 3), (3, 2), (5, 1)] == factorize_naive(360)
    with pytest.raises(ValueError):
        mg.factorize(0)


def test_factorize_random_against_naive():
    for n in range(1, 2000):
        assert mg.factorize(n) == factorize_naive(n)
    # large semiprime sanity
    assert mg.factorize(1000003 * 999983) == [(999983, 1), (1000003, 1)]


def check_product(ps):
    """factorize(prod ps) for primes ps certified by sympy (sympy.factorint
    itself takes seconds on these semiprimes, minutes on some products)."""
    assert mg.factorize(math.prod(ps)) == sorted(Counter(ps).items()), ps


def primes_in(lo, hi):
    return st.integers(lo, hi).map(sympy.nextprime)


# Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1), all three factors prime
CHERNICK = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 20000)
            if all(sympy.isprime(a * k + 1) for a in (6, 12, 18))]


@settings(max_examples=8, deadline=None)
@given(primes_in(10**11, 10**12), primes_in(10**11, 10**12))
def test_factorize_semiprimes(p, q):
    check_product([p, q])


@settings(max_examples=15, deadline=None)
@given(primes_in(10**3, 10**9))
def test_factorize_prime_squares(p):
    check_product([p, p])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([561, 1105, 1729, 2465, 2821, 6601, 8911] + CHERNICK))
def test_factorize_carmichael_against_sympy(n):
    assert mg.factorize(n) == sorted(sympy.factorint(n).items()), n


@settings(max_examples=15, deadline=None)
@given(st.lists(primes_in(250_000, 350_000), min_size=10, max_size=12))
def test_factorize_products_of_many_primes(ps):
    check_product(ps)


def test_factorize_refuses_uncertified_primes():
    big = sympy.nextprime(sieve.IS_PRIME_LIMIT)
    # the last is left as rho's cofactor once ten primes near 3e5 split off
    ps = [sympy.nextprime(3 * 10**5 + 997 * i) for i in range(10)]
    for n in (big, 6 * big, 2**89 - 1, math.prod(ps) * big):
        with pytest.raises(ValueError, match="cannot certify"):
            mg.factorize(n)
    # composite cofactors above the limit still split
    q = sympy.nextprime(10**12)
    check_product([q, sympy.nextprime(sieve.IS_PRIME_LIMIT // q)])


@settings(max_examples=10, deadline=None)
@given(st.lists(primes_in(10**3, 10**5), min_size=20, max_size=30))
def test_factorize_products_of_many_small_primes(ps):
    # cycles of a few hundred steps: several primes meet inside one batch
    check_product(ps)


@settings(max_examples=10, deadline=None)
@given(primes_in(1001, 10**6), primes_in(1001, 10**6), primes_in(1001, 10**6))
def test_factorize_repeated_factors_off_squares(p, q, r):
    # not squares, so rho splits them and meets p again in a cofactor
    check_product([p, p, q])
    check_product([p, p, p, q, r])


def test_factorize_reports_spent_step_budget(monkeypatch, capsys):
    monkeypatch.setattr(mg, "_RHO_MAX_R", 1 << 6)
    n = sympy.nextprime(10**11) * sympy.nextprime(2 * 10**11)
    with pytest.raises(ValueError, match="step budget"):
        mg.factorize(n)
    # small primes split off first; the error names the cofactor left
    with pytest.raises(ValueError, match=f"no factor of {n} within its step budget"):
        mg.factorize(1009 * 1013 * n)
    assert cli.run(["count", str(n)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("count: ") and "step budget" in err


def test_factorize_splits_squares_without_rho(monkeypatch):
    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(mg, "_rho_split", no_rho)
    p = 999999000001  # prime, near 1e12
    assert mg.factorize(p**2) == [(p, 2)]
    assert mg.factorize(p**4) == [(p, 4)]
    assert mg.factorize(6 * p**2) == [(2, 1), (3, 1), (p, 2)]


def test_omega_q_examples():
    assert mg.omega_q(12, 2) == 1
    assert mg.omega_q(1, 5) == 0
    assert mg.omega_q(91, 3) == 2
    for n in (2, 12, 30, 91, 360):
        assert mg.omega_q(n, 1) == len(mg.factorize(n))


def test_omega_bar_examples():
    assert mg.omega_bar(8, 2, 1) == 2
    assert mg.omega_bar(7, 3, 1) == 1
    assert mg.omega_bar(27, 3, 1) == 1
    # 4 || n boosts the first 2-adic entry by one
    assert mg.omega_bar(4, 2, 1) == 1
    assert mg.omega_bar(2, 2, 1) == 0


def test_lambda_p_examples():
    assert mg.lambda_p(8, 2) == 1
    assert mg.lambda_p(7, 3) == 1
    assert mg.lambda_p(5, 7) == 0
    assert mg.lambda_p(4, 2) == 1  # (Z/4Z)^x is cyclic of order 2


def test_lambda_p_matches_carmichael():
    for n in range(1, 3001):
        fact = mg.factorize(n)
        lam = mg.carmichael_lambda(n)
        dec = mg.sylow_decomposition(n, fact)
        for p in dec:
            e = 0
            m = lam
            while m % p == 0:
                m //= p
                e += 1
            assert mg.lambda_p(n, p, fact) == e, (n, p)
        # closed form reports 0 exactly for primes not dividing phi(n)
        for p in (2, 3, 5, 7):
            if p not in dec:
                assert mg.lambda_p(n, p, fact) == 0


def test_carmichael_values():
    known = {1: 1, 2: 1, 4: 2, 8: 2, 16: 4, 7: 6, 15: 4, 21: 6, 561: 80, 100: 20}
    for n, lam in known.items():
        assert mg.carmichael_lambda(n) == lam


def test_sylow_partition_examples():
    for n, p, alpha in ((8, 2, (1, 1)), (7, 2, (1,)), (15, 2, (2, 1))):
        assert Partition(partitions.conjugate_parts(mg.definitional_columns(n)[p])) == Partition(alpha)


def check_primary_against_definition(n):
    """The primary decomposition has a component for exactly the primes
    p | phi(n), in order, each equal to the conjugate of the omega_bar vector."""
    fact = mg.factorize(n)
    assert primary_matches_definition(mg.sylow_columns(n, fact), mg.definitional_columns(n, fact),
                                      mg.sylow_decomposition(n, fact)), n


def test_primary_decomposition_matches_definition(per_n_100k):
    bad = per_n_100k["failures"]["structure"]
    assert not bad, bad[:10]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**12))
def test_primary_decomposition_matches_definition_table_free(n):
    check_primary_against_definition(n)


def test_subgroup_count_arrays_match_definitional_products(table_100k, per_n_100k):
    # definitional_counts equals subgroup_counts at every n <= 1e5, and the
    # arrays equal both
    bad = per_n_100k["failures"]["definitional"]
    assert not bad, bad[:10]
    g_arr, i_arr = mg.subgroup_count_arrays(table_100k)
    assert g_arr.dtype == i_arr.dtype == np.int64
    assert len(g_arr) == len(i_arr) == 10**5 + 1
    assert g_arr[0] == i_arr[0] == 1
    assert g_arr.tolist() == per_n_100k["G"] and i_arr.tolist() == per_n_100k["I"]


def test_subgroup_count_arrays_exact_against_subgroup_counts(table_100k, per_n_100k):
    t = table_100k
    counts = mg.subgroup_count_arrays(t)
    for which, got in zip("GI", counts):
        want = per_n_100k[which]  # subgroup_counts(n), with (1, 1) at n = 0
        assert got.tolist() == want
        # the logs, taken once per distinct count, are math.log of each count
        logs = [math.log(c) for c in want]
        assert mg.exact_logs(got).tolist() == logs
        # the scan's argmax over the counts is the first argmax of the logs
        best = max(logs[3:])
        rec = extremal.scan_max(t, which)
        assert (rec.n, rec.value) == (logs.index(best, 3), best), which
    # a smaller table changes which primes count as small, not the values
    for N in (*range(2, 40), 99, 100, 101, 1680, 10**4):
        short_g, short_i = mg.subgroup_count_arrays(sieve.build(N))
        assert np.array_equal(short_g, counts[0][: N + 1]), N
        assert np.array_equal(short_i, counts[1][: N + 1]), N


def test_subgroup_count_arrays_sampled_against_subgroup_counts_at_1e6(table_1m):
    # past the whole-range check at 1e5: a fixed-seed sample of 3,000 n, n = 1e6
    # and the n where each array peaks
    N = 10**6
    g, i = mg.subgroup_count_arrays(table_1m)
    ns = {*random.Random(20261020).sample(range(1, N + 1), 3000), N, int(g.argmax()), int(i.argmax())}
    bad = [n for n in sorted(ns) if mg.subgroup_counts(n) != (int(g[n]), int(i[n]))]
    assert not bad, bad[:10]


def test_cyclic_only_primes_at_their_thresholds(table_100k):
    # an odd p <= sqrt(N) is skipped as a doubling unless some n <= N has a p-Sylow
    # beyond Z_p: Z_{p^2} from p^3 or from a prime q = 1 (mod p^2), Z_p x Z_p from
    # p^2 q0 or q0 q1.  At N = t - 1 and N = t for each such size t, the arrays
    # of tables built there are still the prefix of those at 1e5
    t, top = table_100k, 10**5
    g, i = mg.subgroup_count_arrays(t)
    primes = t.primes.tolist()
    for p in primes[1:17]:  # the odd p <= 60
        q0, q1 = [q for q in primes if q % p == 1][:2]
        q_square = next((q for q in primes if q % (p * p) == 1), top + 1)
        for threshold in (p**3, p * p * q0, q0 * q1, q_square):
            for N in (threshold - 1, threshold):
                if N <= top:
                    short_g, short_i = mg.subgroup_count_arrays(sieve.build(N))
                    assert np.array_equal(short_g, g[: N + 1]), (p, N)
                    assert np.array_equal(short_i, i[: N + 1]), (p, N)


@pytest.mark.parametrize("x", [np.array([7, 3, 7, 0, 3, 3]), np.arange(5, 0, -1, dtype=np.uint8)])
def test_per_distinct_calls_f_once_per_distinct_value(x):
    calls = []
    text = mg.per_distinct(x, lambda v: calls.append(v) or str(v), object)
    assert calls == sorted(set(x.tolist()))  # ascending, each once
    assert text.tolist() == [str(v) for v in x.tolist()]


def test_column_counts_count_subpartitions_of_every_sylow_shape(per_n_100k):
    # I(n) on the per-n path comes from the unit-weight column sweep alone;
    # check it on every distinct Sylow shape of n <= 1e5 against the DP count
    shapes = per_n_100k["shapes"]
    assert len(shapes) > 100
    for a in shapes:
        assert column_counts(a, 2)[1] == count_subpartitions(Partition(a).conjugate()), a


def test_per_n_path_builds_no_pgroup_types(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the per-n path reached a definitional check")

    for module in (mg, pgroup, partitions):
        for name in ("Partition", "PGroupType", "subgroup_count", "count_subpartitions"):
            monkeypatch.setattr(module, name, fail, raising=False)
    counts = [mg.subgroup_counts(n) for n in range(1, 1001)]
    assert counts[7] == (5, 3) and counts[14] == (8, 5)
    assert cli.run(["count", "8", "15", "1000000", "123456789012"]) == 0
    assert '"sylow": {"2": "[1,1]"}' in capsys.readouterr().out


def test_sylow_key_parts_sum_to_sylow_sizes_of_phi(table_100k):
    # |(Z/nZ)^x| = phi(n): the parts decoded from the p-Sylow key sum to
    # nu_p(phi(n)) for every n <= 1e5 and every p <= sqrt(1e5), and the key is
    # nonzero exactly at the multiples of the moduli it returns
    t, N = table_100k, 10**5
    ref = {p: np.zeros(N + 1, dtype=np.int64) for p in t.primes[t.primes <= math.isqrt(N)].tolist()}
    for n, phi in enumerate(t.phi[1:].tolist(), start=1):
        for p, e in mg.factorize(phi):
            if p in ref:
                ref[p][n] = e
    key = np.zeros(N + 1, dtype=np.int64)
    for p, nu in ref.items():
        qs = t.primes[(t.primes <= N) & (t.primes % p == 1)]
        weights, moduli = mg._sylow_keys(N, p, qs, key)
        distinct, inverse = np.unique(key, return_inverse=True)
        got = np.array([sum(mg._key_columns(k, weights)) for k in distinct.tolist()])[inverse]
        bad = np.flatnonzero(got[1:] != nu[1:]) + 1
        assert not bad.size, (p, bad[:10].tolist())
        on = np.zeros(N + 1, dtype=bool)
        for m in moduli.tolist():
            on[m::m] = True
        assert np.array_equal(on, key != 0), p
        key[:] = 0


def test_every_sylow_key_at_1e6_decodes_to_the_columns_of_its_first_and_last_n(table_1m):
    # each distinct p-Sylow key met at 1e6, for every keyed p, against sylow_columns
    # of the first and the last n that carry it (the zero key at n = 1 decodes to
    # no columns): a key shared by two Sylow types fails at one of them
    t, N = table_1m, 10**6
    key = np.zeros(N + 1, dtype=np.int64)
    keyed = 0
    for p in t.primes[t.primes <= math.isqrt(N)].tolist():
        qs = t.primes[(t.primes <= N) & (t.primes % p == 1)]
        if mg._cyclic_only(N, p, qs):
            continue
        weights, _ = mg._sylow_keys(N, p, qs, key)
        distinct, first = np.unique(key[1:], return_index=True)
        last = N - np.unique(key[:0:-1], return_index=True)[1]
        bad = [n for k, *ns in zip(distinct.tolist(), (first + 1).tolist(), last.tolist()) for n in ns
               if mg._key_columns(k, weights) != mg.sylow_columns(n).get(p, ())]
        assert not bad, (p, bad[:10])
        keyed += 1
        key[:] = 0
    assert keyed == 62  # of the 168 primes below 10^3; the other 106 are cyclic-only


def test_sylow_key_width_check_raises_instead_of_wrapping():
    # a mixed radix past 63 bits is refused before any key is built; with only
    # the primes below 1e6, the width is a lower bound for N = 2^50
    primes = sieve.primes_up_to(10**6)[1:]
    vq = np.array([((q - 1) & (1 - q)).bit_length() - 1 for q in primes.tolist()])  # v_2(q - 1)
    weights = mg._part_weights(2, 10**6, primes, vq)
    assert all(b % a == 0 for a, b in zip(weights[1:], weights[2:]))  # each digit's radix
    assert weights[-1] < 2**63
    with pytest.raises(OverflowError, match="p = 2 Sylow keys to N = 1125899906842624 need 74 bits"):
        mg._part_weights(2, 2**50, primes, vq)


@pytest.mark.parametrize("top", [10, 2**40, 2**62])
def test_unique_inverse_matches_numpy(top):
    # 2**62 leaves no room for the index bits: the np.unique fallback
    x = np.random.default_rng(top).integers(0, top, 5000)
    values, inverse = mg._unique_inverse(x)
    ref_values, ref_inverse = np.unique(x, return_inverse=True)
    assert np.array_equal(values, ref_values) and np.array_equal(inverse, ref_inverse)


def test_log_counts_overflow_guard():
    # the products stay exact: one that would wrap int64 raises instead
    with pytest.raises(OverflowError):
        mg._checked_product(np.array([3, 2**62], dtype=np.int64), np.array([5, 2]))
    top = mg._checked_product(np.array([2**62 - 1], dtype=np.int64), np.array([2]))
    assert top.tolist() == [2**63 - 2]


def test_sylow_decomposition_consistency(table_10k):
    for n in range(1, 2001):
        dec = mg.sylow_decomposition(n)
        phi = int(table_10k.phi[n])
        prod = 1
        for p, alpha in dec.items():
            prod *= p**alpha.size
        assert prod == phi, n
        # lambda bound: lambda_p(n) <= max(nu_p(n), sum_j omega_{p^j}(n))
        fact = mg.factorize(n)
        for p in dec:
            lam = mg.lambda_p(n, p, fact)
            nu = next((e for q, e in fact if q == p), 0)
            wsum = sum(mg.omega_q(n, p**j, fact) for j in range(1, lam + 1))
            assert lam <= max(nu, wsum), (n, p)


def test_count_examples():
    assert mg.subgroup_counts(8) == (5, 3)
    assert mg.subgroup_counts(1) == (1, 1)
    assert mg.subgroup_counts(15) == (8, 5)


def divisors(m):
    divs = [1]
    for p, e in mg.factorize(m):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def test_rank_two_closed_forms():
    # odd n = q1^e1 q2^e2 has (Z/nZ)^x = Z_m1 x Z_m2 with m_i = phi(q_i^e_i), so
    # G = sum over a | m1, b | m2 of gcd(a, b) (Hampejs, Holighaus, Toth and
    # Wiesmeyr, 2014), and the subgroup types are Z_a x Z_b with a | b,
    # a | gcd(m1, m2) and b | lcm(m1, m2)
    checked = 0
    for n in range(3, 2 * 10**4 + 1, 2):
        f = mg.factorize(n)
        if len(f) != 2:
            continue
        m1, m2 = ((q - 1) * q ** (e - 1) for q, e in f)
        d1, d2, dl = divisors(m1), divisors(m2), divisors(math.lcm(m1, m2))
        g = sum(math.gcd(a, b) for a in d1 for b in d2)
        i = sum(b % a == 0 for a in divisors(math.gcd(m1, m2)) for b in dl)
        assert mg.subgroup_counts(n) == (g, i), n
        checked += 1
    assert checked == 4835


def test_oracle_examples():
    assert len(mg.enumerate_subgroups_oracle(8)) == 5
    assert len(mg.enumerate_subgroups_oracle(3)) == 2
    subs16 = mg.enumerate_subgroups_oracle(16)
    assert len(subs16) == mg.subgroup_counts(16)[0] == 8
    assert mg.classify_isoclasses_oracle(8) == 3
    assert mg.classify_isoclasses_oracle(3) == 2
    assert mg.classify_isoclasses_oracle(16) == mg.subgroup_counts(16)[1] == 5


def test_oracle_subgroups_are_canonical():
    subs = mg.enumerate_subgroups_oracle(8)
    assert subs == sorted(subs, key=lambda t: (len(t), t))
    for h in subs:
        assert list(h) == sorted(h)
        assert 1 in h


def test_oracle_cap():
    with pytest.raises(mg.OracleCapError):
        mg.enumerate_subgroups_oracle(10000, cap=512)


def test_oracle_cap_checked_before_listing_units(monkeypatch):
    monkeypatch.setattr(mg, "units", lambda n: pytest.fail("units listed"))
    with pytest.raises(mg.OracleCapError):
        mg.enumerate_subgroups_oracle(10**12 + 39)


def all_elements_closure(elements, mul, identity):
    """Reference search: extend each found subgroup by every element."""
    base = frozenset([identity])
    found, queue = {base}, [base]
    while queue:
        H = queue.pop()
        for g in elements:
            if g not in H:
                K = mg._closure(H, g, mul)
                if K not in found:
                    found.add(K)
                    queue.append(K)
    return sorted((tuple(sorted(h)) for h in found), key=lambda t: (len(t), t))


def test_oracle_matches_all_elements_search():
    for n in range(1, 121):
        ref = all_elements_closure(mg.units(n), lambda a, b: a * b % n, 1 % n)
        assert mg.enumerate_subgroups_oracle(n) == ref, n


@pytest.mark.parametrize("orders", [(6,), (12,), (2, 6), (2, 10), (3, 6), (4, 6),
                                    (2, 2, 6), (6, 6), (2, 2, 2, 2, 2), (3, 3, 3),
                                    (4, 4, 2)])
def test_cyclic_join_closure_on_mixed_abelian_groups(orders):
    elements = list(product(*(range(o) for o in orders)))
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[tuple((u + v) % o for u, v, o in zip(a, b, orders))]
              for b in elements] for a in elements]
    mul = lambda a, b: table[a][b]  # noqa: E731
    ids = range(len(elements))
    ref = all_elements_closure(ids, mul, 0)
    assert mg.closure_subgroup_enumeration(ids, mul, 0) == ref
    # the cap refuses exactly when there are more subgroups than it allows
    assert len(mg.closure_subgroup_enumeration(ids, mul, 0, max_subgroups=len(ref))) == len(ref)
    with pytest.raises(mg.OracleCapError):
        mg.closure_subgroup_enumeration(ids, mul, 0, max_subgroups=len(ref) - 1)


def test_isoclass_oracle_reuses_enumeration(monkeypatch):
    subs = {n: mg.enumerate_subgroups_oracle(n) for n in (1, 8, 16, 63, 105)}
    # element orders come from the subgroup list, not from the units again
    monkeypatch.setattr(mg, "units", lambda n: pytest.fail("units listed"))
    for n, s in subs.items():
        assert mg.classify_isoclasses_oracle(n, subs=s) == mg.subgroup_counts(n)[1]


def test_formula_matches_oracle_small():
    for n in range(1, 151):
        g, i = mg.subgroup_counts(n)
        assert g == len(mg.enumerate_subgroups_oracle(n)), n
        assert i == mg.classify_isoclasses_oracle(n), n


def test_units():
    assert mg.units(1) == [0]
    assert mg.units(2) == [1]
    assert mg.units(12) == [1, 5, 7, 11]


@settings(max_examples=60)
@given(st.integers(1, 4000))
def test_counts_basic_properties(n):
    g, i = mg.subgroup_counts(n)
    assert 1 <= i <= g
    w = len(mg.factorize(mg.euler_phi(n)))
    assert i >= 2**w
