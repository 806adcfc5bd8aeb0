#!/usr/bin/env python3
"""Exhaustive small-range scans that pin the bound constants recorded in
src/multsub/calibration.py.  Run from the repository root:

    PYTHONPATH=src python scripts/pin_constants.py
"""

import math
import sys
from fractions import Fraction

sys.path.insert(0, "src")

from multsub import constants, ekstats, extremal, multgroup, sieve  # noqa: E402
from multsub.partitions import partitions_of  # noqa: E402
from multsub.pgroup import PGroupType, log_subgroup_count_main_term, subgroup_count  # noqa: E402


def pin_odd_even_sum():
    worst = (0.0, None)
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(0, 13):
            s = sum(p ** ((a - b) * b) for b in range(a + 1))
            ratio = s / p ** ((a // 2) * ((a + 1) // 2))
            assert ratio >= 1
            if ratio > worst[0]:
                worst = (ratio, (p, a))
    print(f"ODD_EVEN_SUM_RATIO_MAX: scan max {worst[0]:.6f} at (p, a) = {worst[1]}")


def pin_log_np_main_term():
    worst = (0.0, None)
    for p in (2, 3, 5, 7, 11, 13):
        lp = math.log(p)
        for m in range(1, 11):
            for alpha in partitions_of(m):
                g = PGroupType(p, alpha)
                dev = abs(math.log(subgroup_count(g)) - log_subgroup_count_main_term(g))
                c = dev / (alpha.parts[0] * lp)
                if c > worst[0]:
                    worst = (c, (p, alpha.parts))
    print(f"LOG_NP_MAIN_TERM_C: scan max {worst[0]:.6f} at (p, alpha) = {worst[1]}")


def pin_mertens(x=10**7):
    primes = sieve.primes_up_to(x)
    llx = math.log(math.log(x))
    worst = (0.0, None)
    for q in (3, 4, 5, 7, 9):
        ps = primes[(primes - 1) % q == 0]
        s = math.fsum((1.0 / p) for p in ps.tolist())
        phi_q = multgroup.euler_phi(q)
        c = abs(s - llx / phi_q) * phi_q / math.log(q)
        print(f"  q={q}: sum={s:.6f} target={llx/phi_q:.6f} c={c:.6f}")
        if c > worst[0]:
            worst = (c, q)
    print(f"MERTENS_PROGRESSION_C: scan max {worst[0]:.6f} at q = {worst[1]}")


def exact_f_r_sum(r, x):
    """sum_{n <= x} f_r(n), exactly, via the 2^omega(r) divisor patterns."""
    fact = multgroup.factorize(r)
    ps = [p for p, _ in fact]
    es = [e for _, e in fact]
    total = Fraction(0)
    k = len(ps)
    for mask in range(1 << k):
        # pattern: p | n exactly for p in mask -> inclusion-exclusion count
        coeff = Fraction(1)
        for i in range(k):
            if mask >> i & 1:
                coeff *= Fraction(ps[i] - 1, ps[i]) ** es[i]
            else:
                coeff *= Fraction(-1, ps[i]) ** es[i]
        # count of n <= x divisible by all mask-primes and none of the others
        cnt = 0
        rest = [ps[i] for i in range(k) if not mask >> i & 1]
        base = 1
        for i in range(k):
            if mask >> i & 1:
                base *= ps[i]
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


def pin_mean_density(x=10**5, r_max=500):
    worst = (0.0, None)
    for r in range(2, r_max + 1):
        fact = multgroup.factorize(r)
        if any(e < 2 for _, e in fact):
            continue
        s = exact_f_r_sum(r, x)
        h = ekstats.squarefull_mean_density(r)
        err = abs(float(s - h * x)) / 2 ** len(fact)
        if err > worst[0]:
            worst = (err, r)
    print(f"MEAN_DENSITY_ERROR_C: scan max {worst[0]:.6f} at r = {worst[1]}")


def pin_single_sum_tail(prime_limit=10**7):
    primes = sieve.primes_up_to(prime_limit)
    a0 = constants.compute_A0(prime_limit, primes).value
    worst = (0.0, None)
    for exp in range(2, 6):
        for mult in (1.0, 1.8, 3.2, 5.6):
            x_limit = mult * 10**exp
            if not 100 <= x_limit <= 10**5:
                continue
            s1 = constants.single_prime_power_sum(x_limit)
            c = abs(s1 - a0) * x_limit
            if c > worst[0]:
                worst = (c, x_limit)
    print(f"SINGLE_SUM_TAIL_C: scan max {worst[0]:.6f} at X = {worst[1]}")


def pin_g_upper_slack(n_max=10**5):
    base = 0.25 * math.log(n_max) ** 2 / math.log(math.log(n_max))
    rec = extremal.scan_max(sieve.build(n_max), "G")
    print(f"G_UPPER_BOUND_SLACK: scan max ratio {rec.value / base:.6f} at n = {rec.n}")


if __name__ == "__main__":
    pin_odd_even_sum()
    pin_log_np_main_term()
    pin_mean_density()
    pin_single_sum_tail()
    pin_mertens()
    pin_g_upper_slack()
