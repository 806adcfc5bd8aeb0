"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see the lines as they appear).

Three checks encode asymptotic targets whose desk-scale values are now known
precisely; they are asserted exactly as stated and fail honestly rather than
with loosened tolerances.  The measured values are printed and discussed in
the README under "Known numerical findings": the assembled variance constant
C evaluates to 1.29673 (not 3.924), the order-3 covariance trend ratio at
z = 10^7 is 2.29, and the normalized second moment at x = 10^7 is 0.076.
"""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from multsub import calibration, constants, ekstats, extremal, multgroup, polyops, sieve
from multsub.cli import run as cli_run
from multsub.ekstats import OMEGA0
from multsub.pgroup import gaussian_binomial

LOG2 = math.log(2)


def report(num: str, label: str, ok: bool, detail: str = "") -> bool:
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def _c_at_10m(table_10m) -> constants.ConstantEstimate:
    primes = table_10m.primes
    return constants.compute_C(constants.compute_A0(10**7, primes),
                               constants.compute_B(10**7, primes))


@pytest.fixture(scope="session")
def table_10m():
    return sieve.build(10**7)


def test_criterion_01_oracle_equivalence():
    mismatches = []
    for n in range(1, 301):
        g, i = multgroup.subgroup_counts(n)
        subs = multgroup.enumerate_subgroups_oracle(n)
        signatures = set()
        for h in subs:
            e = 1 % n
            orders = []
            for x in h:
                k, y = 1, x
                while y != e:
                    y = y * x % n
                    k += 1
                orders.append(k)
            signatures.add(tuple(sorted(orders)))
        if g != len(subs) or i != len(signatures):
            mismatches.append((n, g, len(subs), i, len(signatures)))
        if n == 8:
            assert g == 5 and len(subs) == 5
    ok = report("01", "formula counts equal closure-oracle counts for n <= 300",
                not mismatches, f"{len(mismatches)} mismatches")
    assert ok, mismatches[:5]


def test_criterion_02_structural_identity(per_n_100k):
    bad = per_n_100k["failures"]["phi_identity"]
    ok = report("02", "prod_p p^(sum_j omega_bar) = phi(n) for n <= 10^5",
                not bad, f"{len(bad)} failures")
    assert ok, bad[:5]
    assert per_n_100k["G"][8] == 5


def test_criterion_03_isoclass_bounds(per_n_100k):
    bad = per_n_100k["failures"]["i_bound"]
    ok = report("03", "2^omega(phi(n)) <= I(n) <= 2^Omega(phi(n)) for n <= 10^5",
                not bad, f"{len(bad)} failures")
    assert ok, bad[:5]


def test_bulk_structure_invariants(per_n_100k):
    # same-range invariants: I <= G, single-power Sylow components have
    # exactly two subgroups, and the closed-form Carmichael exponents agree
    # with the direct computation
    bad = per_n_100k["failures"]
    for check in ("i_le_g", "single_power", "lambda", "lambda_bound"):
        assert bad[check] == [], (check, bad[check][:5])
    assert len(per_n_100k["G"]) == 10**5 + 1  # n = 0 and every n <= 10^5


def test_criterion_04_gaussian_binomial_bound():
    bad = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for k in range(13):
            for l in range(k + 1):
                ratio = gaussian_binomial(k, l, p) / p ** (l * (k - l))
                if not (1 <= ratio < 1 + 6 / p):
                    bad.append((p, k, l, ratio))
    ok = report("04", "1 <= [k,l]_p / p^(l(k-l)) < 1 + 6/p for p <= 50, k <= 12",
                not bad, f"{len(bad)} failures")
    assert ok, bad[:5]


def test_criterion_05a_constant_A(table_10m):
    a = constants.compute_A(constants.compute_A0(10**7, table_10m.primes))
    dev = abs(a.value - 0.72109)
    ok = report("05a", "|A - 0.72109| <= 2e-5 at prime limit 10^7",
                dev <= 2e-5, f"A = {a.value:.8f}, dev = {dev:.2e}")
    assert ok


def test_criterion_05b_constant_B_coherence(table_10m):
    primes = table_10m.primes
    rep = constants.compute_B_report(constants.compute_B(10**7, primes), primes)
    dev = abs(rep["B_series"] - rep["B_closed_corrected"])
    ok = report("05b", "the two B evaluations agree within the reported tail",
                dev <= rep["tail_bound"],
                f"B = {rep['B_series']:.8f}, |delta| = {dev:.2e}")
    assert ok


def test_criterion_05c_constant_C(table_10m):
    c = _c_at_10m(table_10m)
    dev = abs(c.value - 3.924)
    ok = report("05c", "|C - 3.924| <= 2e-3 at prime limit 10^7",
                dev <= 2e-3, f"C = {c.value:.8f}, dev = {dev:.4f}")
    # The defining combination (log2)^2/3 + 2 A0 log2 + 4 A0^2 + B evaluates
    # to 1.29673 with A0 = 0.374516 and B = 0.056344, both verified two ways;
    # the 3.924 reference value is not reproducible from the definition.
    assert ok, f"C assembled from its definition is {c.value:.6f}, not 3.924"


def test_criterion_06_exact_mean_oscillation_identity():
    x = 2000
    bad = []
    for q in (2, 3, 4, 5, 7):
        m = ekstats.mu(q, x, exact=True)
        assert isinstance(m, Fraction)
        ns = range(1, x + 1)
        for n, f in zip(ns, ekstats.oscillation(q, ns, x, exact=True)):
            if m + f != multgroup.omega_q(n, q):
                bad.append((q, n))
    ok = report("06", "mu + F = omega_q exactly in rationals (x = 2000, q in {2,3,4,5,7})",
                not bad, f"{len(bad)} failures over {5 * x} cases")
    assert ok, bad[:5]


def test_criterion_07_pairing_combinatorics():
    sixth = Fraction(1, 6)
    expected = {
        (((0, 0), (1, 2)), ()): sixth,
        (((0, 0), (2, 1)), ()): sixth,
        (((1, 0), (2, 0)), ()): sixth,
        (((0, 2), (1, 0)), ()): sixth,
        (((0, 1), (2, 0)), ()): sixth,
        (((0, 1), (0, 2)), ()): sixth,
        (((1, 1), (1, 2)), ()): Fraction(-7, 2),
        (((1, 1), (2, 1)), ()): Fraction(-7, 2),
    }
    got = polyops.phi_h(
        [
            polyops.MultiMonomial(Fraction(1), (0, 0, 1, 2)),
            polyops.MultiMonomial(Fraction(-7), (1, 1, 1, 2)),
        ],
        4,
    )
    example_ok = got == expected

    rng = random.Random(20260808)
    identity_ok = True
    for h in (2, 4):
        for _ in range(20):
            ell = rng.randint(1, 4)
            coeffs = [rng.randint(-5, 5) for _ in range(ell)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            lhs = polyops.phi_h(polyops.expand_linear_power(coeffs, h), h)
            rhs = {}
            from itertools import product as iproduct

            for combo in iproduct(iproduct(range(ell), repeat=2), repeat=h // 2):
                key = (tuple(sorted(combo)), ())
                c = Fraction(1)
                for i, j in combo:
                    c *= Fraction(coeffs[i]) * Fraction(coeffs[j])
                if c:
                    rhs[key] = rhs.get(key, Fraction(0)) + c
            rhs = {k: v for k, v in rhs.items() if v}
            identity_ok &= lhs == rhs

    fibers_ok = True
    for k in (2, 4, 6):
        counts = {t.images: 0 for t in polyops.enumerate_two_to_one(k)}
        for sigma in permutations(range(1, k + 1)):
            counts[polyops.psi(sigma).images] += 1
        fibers_ok &= set(counts.values()) == {2 ** (k // 2)}

    ok = report(
        "07", "pairing operator example, linear-power identity, psi fiber sizes",
        example_ok and identity_ok and fibers_ok,
        f"example={example_ok} identity={identity_ok} fibers={fibers_ok}",
    )
    assert ok


def test_criterion_08a_moments_produced():
    values = {}
    for x in (10**5, 10**6, 10**7):
        ms = ekstats.surrogate_moments([1, 2, 3], float(x))
        for h in (1, 2, 3):
            values[(h, x)] = ms[h]
    finite = all(math.isfinite(v) for v in values.values())
    ok = report("08a", "moment sums for h in {1,2,3}, x in {1e5,1e6,1e7} are finite",
                finite and len(values) == 9,
                "; ".join(f"M_{h}(1e{int(math.log10(x))})={v:.3e}"
                          for (h, x), v in sorted(values.items())))
    assert ok


def test_criterion_08b_second_moment_scale(table_10m):
    x = 10**7
    c = _c_at_10m(table_10m).value
    m2 = ekstats.surrogate_moments([2], float(x))[2]
    norm = m2 / (c * x * math.log(math.log(x)) ** 3)
    ok = report("08b", "normalized M_2 at x = 10^7 is positive and within 10x of 1",
                norm > 0 and 0.1 <= norm <= 10, f"normalized = {norm:.4f}")
    # Measured value 0.0762: positive and of the right order, but the
    # quadratic part of the surrogate is empty below x ~ 2e8 (the prime-power
    # cutoff is 1.74 at x = 10^7), so the second moment runs at roughly
    # (log 2)^2 cov(omega_0, omega_0) / C per sample, about 7.6% of the
    # idealized target rather than 10%.
    assert ok, f"normalized M_2 = {norm:.4f} at x = 10^7"


def test_criterion_08c_covariance_trends(table_10m):
    z = float(10**7)
    ll = math.log(math.log(z))
    qs = (2, 3, 4, 5)
    failures = []
    ratios = []
    for i, q1 in enumerate(qs):
        for q2 in qs[i:]:
            cov = ekstats.covariance(q1, q2, z, table_10m)
            r = cov * multgroup.euler_phi(math.lcm(q1, q2)) / ll
            ratios.append((f"({q1},{q2})", r))
            if abs(r - 1) > 0.5:
                failures.append((f"little({q1},{q2})", r))
    for q in qs:
        cov = ekstats.covariance(q, OMEGA0, z, table_10m)
        r = cov * 2 * multgroup.euler_phi(q) / ll**2
        ratios.append((f"({q},omega0)", r))
        if abs(r - 1) > 0.5:
            failures.append((f"medium({q})", r))
    cov = ekstats.covariance(OMEGA0, OMEGA0, z, table_10m)
    r = cov * 3 / ll**3
    ratios.append(("(omega0,omega0)", r))
    if abs(r - 1) > 0.5:
        failures.append(("big", r))
    detail = "; ".join(f"{name}={val:.3f}" for name, val in failures) or "all within 0.5"
    ok = report("08c", "covariance trend ratios at z = 10^7 within 1 +- 0.5",
                not failures, detail)
    # Desk-scale reality: the ten order-1 ratios land in [0.54, 0.85]; the
    # order-2 ratios for q = 3 and q = 5 overshoot to just over 1.55, and the
    # order-3 ratio is 2.29, since those covariances converge only like
    # 1 + O(1/loglog z) and loglog 10^7 = 2.78.
    assert ok, failures


def test_criterion_09_extremal(table_100k):
    rep = extremal.upper_bound_check(table_100k)
    bound_ok = rep.ok

    g_rec = extremal.construct_G_extremal(10**6)
    p = 7  # the only prime in the construction window at x = 10^6
    wp = multgroup.omega_q(g_rec.n, p)
    lam = multgroup.lambda_p(g_rec.n, p)
    g_ok = (
        g_rec.n < 10**6
        and g_rec.value
        >= math.log(p) / 4 * wp * wp - calibration.LOG_NP_MAIN_TERM_C * lam * math.log(p)
    )

    i_rec = extremal.construct_I_extremal(10**6)
    u = math.log(10**6) / 5 - math.log(math.log(10**6))
    pi_u = len(sieve.primes_up_to(u)) if u >= 2 else 0
    w = len(multgroup.factorize(i_rec.n - 1))
    i_ok = (
        i_rec.n < 10**6
        and w >= pi_u
        and multgroup.subgroup_counts(i_rec.n)[1] >= 2**w
    )

    ok = report(
        "09", "exact I-bound and G-bound scans pass at 10^5; constructions valid at 10^6",
        bound_ok and g_ok and i_ok,
        f"max G ratio {rep.max_log_g_ratio:.4f}, max I ratio {rep.max_log_i_ratio:.4f}, "
        f"G construct n={g_rec.n}, I construct n={i_rec.n}",
    )
    assert ok, (rep.g_violations[:3], rep.i_violations[:3], g_rec, i_rec)


def test_criterion_10_scan_determinism(tmp_path):
    a = tmp_path / "scan_a.csv"
    b = tmp_path / "scan_b.csv"
    assert cli_run(["scan", "--max", "100000", "--out", str(a)]) == 0
    assert cli_run(["scan", "--max", "100000", "--out", str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    rows = len(a.read_text().splitlines())
    ok = report("10", "scan --max 100000 twice is byte-identical",
                same and rows == 10**5, f"rows = {rows}")
    assert ok
