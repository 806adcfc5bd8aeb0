import math
from itertools import combinations, product

import numpy as np
import pytest

from multsub.calibration import LOG_NP_MAIN_TERM_C, ODD_EVEN_SUM_RATIO_MAX
from multsub.multgroup import closure_subgroup_enumeration
from multsub.partitions import Partition, enumerate_subpartitions, partitions_of
from multsub.pgroup import (
    PGroupType,
    _gaussian_rows,
    column_counts,
    gaussian_binomial,
    log_subgroup_count_main_term,
    subgroup_count,
    subgroup_count_of_type,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def count_subspaces_brute(k, l):
    """l-dimensional subspaces of F_2^k by enumerating spans of l-sets."""
    vecs = list(product((0, 1), repeat=k))
    spaces = set()
    for basis in combinations(vecs[1:], l):
        span = {tuple([0] * k)}
        for v in basis:
            span |= {tuple(a ^ b for a, b in zip(s, v)) for s in span}
        if len(span) == 2**l:
            spaces.add(frozenset(span))
    return len(spaces)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(4, 0, 3) == 1
    assert gaussian_binomial(2, 1, 2) == 3 == count_subspaces_brute(2, 1)
    assert gaussian_binomial(4, 2, 2) == 35 == count_subspaces_brute(4, 2)
    assert gaussian_binomial(3, 5, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0


def test_gaussian_binomial_rejects_composite_modulus():
    with pytest.raises(ValueError):
        gaussian_binomial(4, 2, 4)
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 0, 2)


@pytest.mark.parametrize("p", (2, 3, 5, 73))
def test_gaussian_rows_match_gaussian_binomial(p):
    # subgroup_count's table, by the q-Pascal recurrence, against the product formula
    rows = _gaussian_rows(16, [p**k for k in range(16)])
    assert [len(row) for row in rows] == list(range(1, 18))
    for m, row in enumerate(rows):
        assert row == [gaussian_binomial(m, k, p) for k in range(m + 1)], (p, m)


def test_gaussian_binomial_symmetry_grid():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for k in range(13):
            for l in range(k + 1):
                assert gaussian_binomial(k, l, p) == gaussian_binomial(k, k - l, p)


def test_gaussian_binomial_size_estimate_grid():
    # 1 <= [k,l]_p / p^(l(k-l)) < 1 + 6/p
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for k in range(13):
            for l in range(k + 1):
                ratio = gaussian_binomial(k, l, p) / p ** (l * (k - l))
                assert 1 <= ratio < 1 + 6 / p, (p, k, l, ratio)


def test_fixed_type_count_examples():
    assert subgroup_count_of_type(PGroupType(2, Partition((1, 1))), Partition((1,))) == 3
    assert subgroup_count_of_type(PGroupType(5, Partition((2, 1))), Partition((2, 1))) == 1
    assert subgroup_count_of_type(PGroupType(3, Partition((2,))), Partition((1,))) == 1
    # not a subpartition -> zero subgroups
    assert subgroup_count_of_type(PGroupType(2, Partition((2,))), Partition((1, 1))) == 0


def test_fixed_type_count_bounds():
    # prod p^((a_j-b_j) b_j) <= N_p(alpha, beta) <= same * (1 + 6/p)^alpha_1
    for p in (2, 3, 5, 13, 47):
        for m in range(0, 9):
            for alpha in partitions_of(m):
                a = alpha.conjugate().parts
                a1 = alpha.parts[0] if alpha else 0
                for beta in enumerate_subpartitions(alpha):
                    b = beta.conjugate().parts
                    lower = 1
                    for j in range(len(a)):
                        bj = b[j] if j < len(b) else 0
                        lower *= p ** ((a[j] - bj) * bj)
                    n = subgroup_count_of_type(PGroupType(p, alpha), beta)
                    assert lower <= n <= lower * (1 + 6 / p) ** max(a1, 1)


def test_diagonal_power_sum_ratio_grid():
    # sum_b p^((a-b)b) stays within the pinned ratio of p^(floor(a/2)ceil(a/2))
    for p in SMALL_PRIMES:
        for a in range(13):
            s = sum(p ** ((a - b) * b) for b in range(a + 1))
            ratio = s / p ** ((a // 2) * ((a + 1) // 2))
            assert 1 <= ratio <= ODD_EVEN_SUM_RATIO_MAX, (p, a, ratio)


def test_subgroup_count_examples():
    assert subgroup_count(PGroupType(2, Partition((1, 1)))) == 5
    assert subgroup_count(PGroupType(2, Partition((2, 1)))) == 8
    assert subgroup_count(PGroupType(2, Partition())) == 1
    for m in range(0, 12):
        alpha = Partition((m,)) if m else Partition()
        assert subgroup_count(PGroupType(2, alpha)) == m + 1


def _subpartition_sum(g):
    """The definition: fixed-type counts summed over every subpartition."""
    return sum(subgroup_count_of_type(g, beta) for beta in enumerate_subpartitions(g.alpha))


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_subgroup_count_matches_subpartition_sum(p):
    # the column sweep with every factor 1 counts the subpartitions themselves
    for m in range(11):
        for alpha in partitions_of(m):
            g = PGroupType(p, alpha)
            total = _subpartition_sum(g)
            assert subgroup_count(g) == total, (p, alpha)
            assert column_counts(alpha.conjugate().parts, p) == (
                total, len(enumerate_subpartitions(alpha))), (p, alpha)
    # the cyclic Z_{p^k}, which column_counts answers before building any table
    for k in range(11, 31):
        g = PGroupType(p, Partition((k,)))
        assert column_counts((1,) * k, p) == (_subpartition_sum(g), len(enumerate_subpartitions(g.alpha))), (p, k)


@pytest.mark.parametrize("parts", [(8, 8, 7, 7, 6, 6, 6, 6), (7, 6, 5, 4, 4, 3, 3, 3, 3, 2)])
def test_subgroup_count_matches_subpartition_sum_wide_two_sylow(parts):
    g = PGroupType(2, Partition(parts))
    assert subgroup_count(g) == _subpartition_sum(g)


def test_subgroup_count_rank_two_closed_form():
    """Z_{p^e1} x Z_{p^e2} has sum_{a | p^e1, b | p^e2} gcd(a, b) subgroups
    (Hampejs, Holighaus, Toth and Wiesmeyr, 2014)."""
    for p in SMALL_PRIMES:
        for e1 in range(11):
            for e2 in range(e1 + 1):
                expected = sum(
                    math.gcd(p**i, p**j) for i in range(e1 + 1) for j in range(e2 + 1)
                )
                alpha = Partition(tuple(e for e in (e1, e2) if e))
                assert subgroup_count(PGroupType(p, alpha)) == expected, (p, e1, e2)


def test_subgroup_count_elementary_abelian_recursion():
    """The Galois numbers G_k of (Z_p)^k satisfy G_{k+1} = 2 G_k + (p^k - 1) G_{k-1}
    (Goldman and Rota, 1969)."""
    for p in (2, 3, 5, 7):
        prev, cur = 1, 2  # G_0, G_1
        for k in range(1, 21):
            assert subgroup_count(PGroupType(p, Partition((1,) * k))) == cur, (p, k)
            prev, cur = cur, 2 * cur + (p**k - 1) * prev


def _addition_table(orders):
    """Cayley table of Z_{o_1} x Z_{o_2} x ... on the mixed-radix codes
    x = d_1 + o_1 d_2 + o_1 o_2 d_3 + ..., built digit by digit."""
    x = np.arange(math.prod(orders), dtype=np.int64)
    table = np.zeros((x.size, x.size), dtype=np.int64)
    place = 1
    for o in orders:
        d = x // place % o
        table += (d[:, None] + d[None, :]) % o * place
        place *= o
    return table.tolist()


def test_subgroup_count_matches_closure_oracle():
    """Closure enumeration agrees with subgroup_count on every abelian
    p-group of order <= 512 within the oracle budget; the 12 two-group shapes
    with more than 10000 subgroups are skipped: the search builds and keeps
    every subgroup as a set, so its time and memory grow with the number of
    subgroups times their size, and (Z_2)^9 alone has 8,283,458 subgroups."""
    budget = 10000
    checked = 0
    skipped = 0
    for p in SMALL_PRIMES:
        max_m = int(math.log(512, p))
        for m in range(1, max_m + 1):
            for alpha in partitions_of(m):
                expected = subgroup_count(PGroupType(p, alpha))
                if expected > budget:
                    skipped += 1
                    continue
                table = _addition_table([p**a for a in alpha.parts])
                elements = list(range(len(table)))
                mul = lambda a, b: table[a][b]  # noqa: E731
                subs = closure_subgroup_enumeration(elements, mul, 0, max_subgroups=budget)
                assert len(subs) == expected, (p, alpha)
                checked += 1
    assert checked == 120
    assert skipped == 12


def test_log_main_term_examples():
    assert log_subgroup_count_main_term(PGroupType(2, Partition((1, 1)))) == pytest.approx(
        math.log(2)
    )
    assert log_subgroup_count_main_term(PGroupType(5, Partition((1,)))) == pytest.approx(
        math.log(5) / 4
    )
    assert log_subgroup_count_main_term(PGroupType(2, Partition((2, 2)))) == pytest.approx(
        2 * math.log(2)
    )


def test_log_main_term_error_is_linear_in_alpha1():
    # |log N_p - main term| <= C * alpha_1 * log p on the pinned grid
    for p in SMALL_PRIMES:
        for m in range(1, 11):
            for alpha in partitions_of(m):
                g = PGroupType(p, alpha)
                dev = abs(math.log(subgroup_count(g)) - log_subgroup_count_main_term(g))
                assert dev <= LOG_NP_MAIN_TERM_C * alpha.parts[0] * math.log(p), (p, alpha)
