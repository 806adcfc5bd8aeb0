import math

import numpy as np
import pytest

from multsub import extremal, multgroup, sieve
from multsub.calibration import LOG_NP_MAIN_TERM_C
from multsub.extremal import PI_SQRT_2_3


def partition_count(m: int) -> int:
    """Number of partitions of m, by the standard quadratic-time table."""
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for s in range(part, m + 1):
            table[s] += table[s - part]
    return table[m]


def test_partition_count_values():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for m, v in enumerate(known):
        assert partition_count(m) == v
    assert partition_count(100) == 190569292


def test_partition_exponential_bound():
    # (k+1) P(k) < exp(pi sqrt(2k/3)) for 1 <= k <= 100
    for k in range(1, 101):
        assert (k + 1) * partition_count(k) < math.exp(PI_SQRT_2_3 * math.sqrt(k))


def test_isoclass_count_against_partition_sums():
    # I_p(n) <= sum_{j <= k_p} P(j) <= (k_p + 1) P(k_p)
    from multsub.partitions import count_subpartitions

    psums = [1]
    for j in range(1, 30):
        psums.append(psums[-1] + partition_count(j))
    for n in range(3, 10**4 + 1):
        dec = multgroup.sylow_decomposition(n)
        for p, alpha in dec.items():
            k_p = alpha.size
            ip = count_subpartitions(alpha)
            assert ip <= psums[k_p] <= (k_p + 1) * partition_count(k_p), (n, p)


def test_scan_max_small(table_10k):
    rec = extremal.scan_max(3, "G", table_10k)
    assert rec.n == 3
    assert rec.value == pytest.approx(math.log(2))
    assert rec.provenance == "scan"


def test_scan_max_100_golden(table_10k):
    # independently recomputed via the closure oracle below
    rec_g = extremal.scan_max(100, "G", table_10k)
    rec_i = extremal.scan_max(100, "I", table_10k)

    best_g, best_i = (3, 0), (3, 0)
    for n in range(3, 101):
        g = len(multgroup.enumerate_subgroups_oracle(n))
        i = multgroup.classify_isoclasses_oracle(n)
        if g > best_g[1]:
            best_g = (n, g)
        if i > best_i[1]:
            best_i = (n, i)
    assert (rec_g.n, rec_g.value) == (best_g[0], pytest.approx(math.log(best_g[1])))
    assert (rec_i.n, rec_i.value) == (best_i[0], pytest.approx(math.log(best_i[1])))
    assert rec_g.n == 80 and rec_i.n == 91
    assert rec_g.normalized > 0 and rec_i.normalized > 0


def test_scan_max_monotone(table_10k):
    prev = -1.0
    for n_max in (10, 50, 100, 500, 2000):
        v = extremal.scan_max(n_max, "G", table_10k).value
        assert v >= prev
        prev = v


def test_construct_g_at_1e6():
    rec = extremal.construct_G_extremal(10**6)
    assert rec.provenance == "construction"
    assert rec.n < 10**6
    # independent recomputation of the construction's ingredients
    log_x = math.log(10**6)
    ll = math.log(log_x)
    v_limit = log_x**2 / ll * (1 - 1 / ll)
    qs = [int(q) for q in sieve.primes_up_to(v_limit) if (q - 1) % 7 == 0]
    assert rec.n == math.prod(qs) == 1247
    g = multgroup.count_subgroups(rec.n)
    assert rec.value == pytest.approx(math.log(g))
    # claimed inequality: log G >= (log p / 4) omega_p(n)^2 - c lambda_p log p
    p = 7
    wp = multgroup.omega_q(rec.n, p)
    lam = multgroup.lambda_p(rec.n, p)
    assert rec.value >= math.log(p) / 4 * wp * wp - LOG_NP_MAIN_TERM_C * lam * math.log(p)
    assert rec.to_json_dict()["n"] == "1247"


def test_construct_g_rejects_infeasible_exponent():
    # with the exponent at 1 the prime window (Q, 2Q) is empty at any
    # feasible x, so the construction must fail loudly
    with pytest.raises(extremal.ConstructionFailedError):
        extremal.construct_G_extremal(10**6, bv_exponent=1)
    with pytest.raises(ValueError):
        extremal.construct_G_extremal(10**5)


def test_construct_i_at_1e6():
    rec = extremal.construct_I_extremal(10**6)
    # U < 2 at this scale: the modulus degenerates to 1 and the smallest
    # prime overall is returned
    assert rec.n == 2
    assert rec.n < 10**6
    assert rec.value == 0.0
    u = math.log(10**6) / 5 - math.log(math.log(10**6))
    pi_u = len(sieve.primes_up_to(u)) if u >= 2 else 0
    assert len(multgroup.factorize(rec.n - 1)) >= pi_u
    i = multgroup.count_subgroup_isoclasses(rec.n)
    assert i >= 2 ** len(multgroup.factorize(rec.n - 1))


def test_construct_i_nontrivial_scale():
    rec = extremal.construct_I_extremal(1e20)
    assert rec.n == 31  # smallest prime = 1 mod 30
    u = math.log(1e20) / 5 - math.log(math.log(1e20))
    pi_u = len(sieve.primes_up_to(u))
    assert pi_u == 3
    w = len(multgroup.factorize(rec.n - 1))
    assert w >= pi_u
    i = multgroup.count_subgroup_isoclasses(rec.n)
    assert i >= 2**w
    assert rec.value == pytest.approx(math.log(i))
    assert rec.n < 1e20


def test_upper_bound_check_small(table_10k):
    # the pinned slack is calibrated for the N = 10^5 window; at N = 2000 the
    # finite-size overshoot is larger (max ratio 1.1243 at n = 1560), so the
    # small-window check passes an explicit slack
    rep = extremal.upper_bound_check(2000, table_10k, slack=0.2)
    assert rep.ok
    assert rep.g_violations == [] and rep.i_violations == []
    assert 1.0 < rep.max_log_g_ratio < 1.2
    assert rep.max_log_i_ratio < 1
    with pytest.raises(ValueError):
        extremal.upper_bound_check(50, table_10k)


def test_i_cap_bit_for_bit_against_per_n_factorization(table_100k):
    t = table_100k
    ref = [PI_SQRT_2_3 * sum(math.sqrt(e) for _, e in multgroup.factorize(int(phi)))
           if phi > 1 else 0.0 for phi in t.phi.tolist()]
    cap = extremal._i_cap(t, 10**5)
    assert cap.dtype == np.float64 and len(cap) == 10**5 + 1
    bad = [n for n in range(10**5 + 1) if cap[n] != ref[n]]
    assert not bad, bad[:10]
    # a shorter range moves the split at sqrt(N), not the values
    for N in (100, 2000, 6049):
        assert extremal._i_cap(t, N).tolist() == ref[: N + 1], N


def test_i_cap_builds_no_sylow_keys(table_10k, monkeypatch):
    # the cap is computed from the totient column, independently of the count arrays
    ref = extremal._i_cap(table_10k, 6049)
    monkeypatch.setattr(multgroup, "_sylow_keys",
                        lambda *args: pytest.fail("Sylow keys built"))
    assert np.array_equal(extremal._i_cap(table_10k, 6049), ref)
