import math
from fractions import Fraction

import numpy as np
import pytest

from multsub import ekstats, multgroup, sieve
from multsub.calibration import MEAN_DENSITY_ERROR_C
from multsub.ekstats import OMEGA0

LOG2 = math.log(2)


def test_function_id_validation():
    for bad in (1, 6, 10, 12, -3):
        with pytest.raises(ValueError):
            ekstats.mu(bad, 100, exact=True)
    # 0 and prime powers are fine
    ekstats.mu(0, 100, exact=True)
    ekstats.mu(8, 100, exact=True)


def test_q_cutoff():
    with pytest.raises(ValueError):
        ekstats.q_cutoff(15.0)
    assert ekstats.q_cutoff(1e7) == pytest.approx(1.7429515627536603)
    assert ekstats.surrogate_prime_powers(1e7) == []
    assert ekstats.surrogate_prime_powers(1e9) == [(2, LOG2)]


def test_mu_exact_examples():
    # only p = 7 <= 10 is 1 mod 3
    assert ekstats.mu(3, 10, exact=True) == Fraction(1, 7)
    # omega(p-1)/p over p = 2, 3, 5, 7
    assert ekstats.mu(OMEGA0, 10, exact=True) == Fraction(1, 3) + Fraction(1, 5) + Fraction(2, 7)
    # no prime <= x lies in the class when q > x
    assert ekstats.mu(16, 10, exact=True) == 0


def test_mu_float_matches_exact(table_10k):
    for q in (0, 2, 3, 4, 5, 7):
        exact = float(ekstats.mu(q, 10**4, exact=True))
        assert ekstats.mu(q, 10**4, table_10k) == pytest.approx(exact, abs=1e-12)


def test_f_p_and_f_r():
    assert ekstats.f_p(2, 4) == Fraction(1, 2)
    assert ekstats.f_p(3, 4) == Fraction(-1, 3)
    assert ekstats.f_r(4, 2) == Fraction(1, 4)
    assert ekstats.f_r(12, 2) == Fraction(1, 4) * Fraction(-1, 3)
    assert ekstats.f_r(1, 5) == 1


def test_oscillation_exact_examples():
    assert ekstats.oscillation(3, 7, 10, exact=True) == Fraction(6, 7)
    assert ekstats.oscillation(3, 2, 10, exact=True) == Fraction(-1, 7)


def test_mean_plus_oscillation_identity_exact_small():
    x = 500
    for q in (2, 3, 4, 5, 7):
        m = ekstats.mu(q, x, exact=True)
        ns = range(1, x + 1, 7)
        for n, f in zip(ns, ekstats.oscillation(q, ns, x, exact=True)):
            assert m + f == multgroup.omega_q(n, q), (q, n)


def test_mean_plus_oscillation_identity_float(table_10k):
    x = 10**4
    ns = range(1, x + 1)
    for q in (2, 3, 4, 5, 7):
        m = ekstats.mu(q, x, table_10k)
        osc = ekstats.oscillation(q, ns, x, table_10k)
        assert len(osc) == x
        for n, f in zip(ns, osc):
            assert abs(m + f - multgroup.omega_q(n, q)) <= 1e-9, (q, n)
        # one value per a, bit for bit the single-a call, which stays a float
        for n in (1, 2, 3 * 7 * 11, 4096, 9973, x):
            one = ekstats.oscillation(q, n, x, table_10k)
            assert type(one) is float and one == osc[n - 1], (q, n)


def test_omega0_oscillation_reconstructs_prime_contributions():
    # mu + F for the composed function recovers sum_{p | n} omega(p - 1),
    # the fully additive proxy, not omega(phi(n)) itself
    x = 2000
    m = ekstats.mu(OMEGA0, x, exact=True)
    ns = range(1, x + 1)
    for n, f in zip(ns, ekstats.oscillation(OMEGA0, ns, x, exact=True)):
        target = sum(
            len(multgroup.factorize(p - 1)) for p, _ in multgroup.factorize(n)
        )
        assert m + f == target, n


def exact_f_r_sum(r, x):
    """sum_{n <= x} f_r(n) exactly, via the 2^omega(r) divisibility patterns
    and inclusion-exclusion counts."""
    fact = multgroup.factorize(r)
    ps = [p for p, _ in fact]
    es = [e for _, e in fact]
    k = len(ps)
    total = Fraction(0)
    for mask in range(1 << k):
        coeff = Fraction(1)
        base = 1
        rest = []
        for i in range(k):
            if mask >> i & 1:
                coeff *= Fraction(ps[i] - 1, ps[i]) ** es[i]
                base *= ps[i]
            else:
                coeff *= Fraction(-1, ps[i]) ** es[i]
                rest.append(ps[i])
        cnt = 0
        for sub in range(1 << len(rest)):
            d = base
            bits = 0
            for j in range(len(rest)):
                if sub >> j & 1:
                    d *= rest[j]
                    bits += 1
            cnt += (-1) ** bits * (x // d)
        total += coeff * cnt
    return total


def test_squarefull_mean_density_examples():
    assert ekstats.squarefull_mean_density(1) == 1
    for p in (2, 3, 5, 7, 11):
        assert ekstats.squarefull_mean_density(p) == 0
    assert ekstats.squarefull_mean_density(4) == Fraction(1, 4)
    assert ekstats.squarefull_mean_density(12) == 0


def test_squarefull_mean_density_bounds():
    for p in [q for q in range(2, 101) if sieve.is_prime(q)]:
        cap = ekstats.squarefull_mean_density(p * p)
        assert cap == Fraction(p - 1, p * p)
        for gamma in range(1, 11):
            h = ekstats.squarefull_mean_density(p**gamma)
            assert 0 <= h <= cap, (p, gamma)


def test_mean_density_predicts_f_r_sums():
    # |sum_{n <= x} f_r(n) - H(r) x| <= 2^omega(r) * pinned constant
    x = 10**5
    for r in range(2, 501):
        fact = multgroup.factorize(r)
        if any(e < 2 for _, e in fact):
            continue
        s = exact_f_r_sum(r, x)
        h = ekstats.squarefull_mean_density(r)
        err = abs(float(s - h * x))
        assert err <= 2 ** len(fact) * MEAN_DENSITY_ERROR_C, (r, err)


def test_covariance_examples(table_10k):
    # no prime <= 10 in both classes
    assert ekstats.covariance(16, 27, 10, table_10k) == 0.0
    got = ekstats.covariance(3, 3, 10, table_10k)
    assert got == pytest.approx(6 / 49)
    # symmetric
    a = ekstats.covariance(3, OMEGA0, 5000, table_10k)
    b = ekstats.covariance(OMEGA0, 3, 5000, table_10k)
    assert a == b


def test_log_g_surrogate_examples():
    assert ekstats.log_g_surrogate(1, 1e7) == 0.0
    assert ekstats.log_g_surrogate(2, 1e7) == 0.0
    assert ekstats.log_g_surrogate(8, 1e7) == pytest.approx(LOG2)
    # phi(31) = 30 has three prime factors; the cutoff at 1e7 is below 2,
    # so the quadratic part is empty
    assert ekstats.log_g_surrogate(31, 1e7) == pytest.approx(3 * LOG2)
    with pytest.raises(ValueError):
        ekstats.log_g_surrogate(100, 10.0)
    with pytest.raises(ValueError):
        ekstats.log_g_surrogate(50, 20.0)  # n > x


def test_surrogate_mean_golden(table_10k):
    # frozen from a direct prime-loop evaluation (empty quadratic part at 1e4)
    d = ekstats.surrogate_mean(1e4, table_10k)
    assert d == pytest.approx(2.7873532425222067, abs=1e-9)
    mu0 = ekstats.mu(OMEGA0, 1e4, table_10k)
    assert d == pytest.approx(LOG2 * mu0, abs=1e-12)


def _surrogate_array(x, table):
    """The surrogate evaluated per n for n = 1..x (index 0 unused): the
    reference that surrogate_moments's distinct-row evaluation must match."""
    xi = int(x)
    pn = LOG2 * table.omega_phi[: xi + 1].astype(np.float64)
    pn[0] = 0.0
    for q, logp in ekstats.surrogate_prime_powers(x):
        wq = sieve.omega_q_table(table, q)[: xi + 1].astype(np.float64)
        pn += 0.25 * logp * wq * wq
    return pn


def _assert_moments_are_fsum_per_n(xs, table):
    hs = list(range(1, 9))
    for x in xs:
        centered = _surrogate_array(x, table)[1:] - ekstats.surrogate_mean(x, table)
        per_n = {h: math.fsum((centered**h).tolist()) for h in hs}
        assert ekstats.surrogate_moments(hs, x, table) == per_n, x


@pytest.mark.parametrize("qs_bound", [None, 9])
def test_distinct_row_moments_match_per_n(table_10k, table_100k, monkeypatch, qs_bound):
    """Bit for bit the exactly rounded sum of the per-n values, with the
    surrogate's prime powers as at x (empty below x ~ 1.76e8) and with them
    forced to the prime powers <= 9, so that every omega_q digit of the row
    key is exercised; also at x = 1e4 on table_100k, a table larger than x."""
    if qs_bound is not None:
        qs = sieve.prime_power_list(qs_bound)
        monkeypatch.setattr(ekstats, "surrogate_prime_powers", lambda x: qs)
    _assert_moments_are_fsum_per_n([1e4], table_10k)
    _assert_moments_are_fsum_per_n([1e4, 1e5], table_100k)


def test_moments_across_the_counting_slices():
    # the rows are counted in slices of 2^16 n; x = 505,000 is the
    # benchmark's size, and ends inside a slice
    _assert_moments_are_fsum_per_n([2**16 - 1, 2**16, 2**16 + 1, 505_000], sieve.build(505_000))


def test_first_moment_two_ways(table_100k):
    x = 1e5
    m1 = ekstats.surrogate_moments([1], x, table_100k)[1]
    pn = _surrogate_array(x, table_100k)
    alt = ekstats.chunked_sum(pn[1:]) - 10**5 * ekstats.surrogate_mean(x, table_100k)
    assert m1 == pytest.approx(alt, rel=1e-6)


def test_moment_validation(table_10k):
    with pytest.raises(ValueError):
        ekstats.surrogate_moments([9], 1e4, table_10k)
    with pytest.raises(ValueError):
        ekstats.surrogate_moments([0], 1e4, table_10k)


def test_chunked_sum_matches_fsum():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=2**21) * 1e6
    assert ekstats.chunked_sum(vals) == pytest.approx(math.fsum(vals.tolist()), abs=1e-4)


def test_ks_distance():
    # perfect normal quantiles give a small distance; a shifted sample does not
    from statistics import NormalDist

    nd = NormalDist()
    qs = np.array([nd.inv_cdf((i + 0.5) / 400) for i in range(400)])
    assert ekstats.ks_distance_normal(qs) <= 0.01
    assert ekstats.ks_distance_normal(qs + 5.0) > 0.9
    assert 0.0 <= ekstats.ks_distance_normal(qs) <= 1.0


def ks_distance_loop(samples):
    """The per-sample loop that ks_distance_normal vectorizes."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(s)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    d = 0.0
    for i, v in enumerate(s):
        cdf = 0.5 * (1.0 + math.erf(v * inv_sqrt2))
        d = max(d, cdf - i / n, (i + 1) / n - cdf)
    return d


def test_ks_distance_matches_loop():
    rng = np.random.default_rng(11)
    for size in (1, 2, 17, 6000, 10**5):
        samples = rng.normal(size=size)
        for shift in (0.0, 0.3, -2.0):
            assert ekstats.ks_distance_normal(samples + shift) == ks_distance_loop(samples + shift)
    with pytest.raises(ValueError):
        ekstats.ks_distance_normal(np.zeros(0))


def test_distribution_report_goldens(table_10k):
    rep = ekstats.distribution_report(10**4, "G", table_10k)
    assert rep.sample_count == 10**4 - 15
    assert 0 <= rep.ks_distance <= 1
    assert rep.ks_distance == pytest.approx(0.3314251700733143, abs=1e-9)
    assert rep.empirical_moments[1] == pytest.approx(0.35944125843145747, abs=1e-9)
    assert rep.empirical_moments[2] == pytest.approx(0.310395038609479, abs=1e-9)
    assert np.isfinite(list(rep.empirical_moments.values())).all()

    rep_i = ekstats.distribution_report(10**4, "I", table_10k)
    assert rep_i.normalization == pytest.approx((LOG2 / 2, LOG2 / 3))
    assert rep_i.ks_distance == pytest.approx(0.6134246687755323, abs=1e-9)
    d = rep_i.to_json_dict()
    assert d["which"] == "I"
    assert set(d["empirical_moments"]) == {"1", "2", "3", "4"}


def test_distribution_report_validation(table_10k):
    with pytest.raises(ValueError):
        ekstats.distribution_report(50, "G", table_10k)
    with pytest.raises(ValueError):
        ekstats.distribution_report(1000, "H", table_10k)
