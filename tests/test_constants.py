import math

import pytest
import sympy

from multsub import cli, constants, sieve
from multsub.calibration import SINGLE_SUM_TAIL_C

LOG2 = math.log(2)


def test_a0_first_term():
    # p = 2: (1/4) * 4 log 2 / (1 * 3) = log2 / 3
    assert constants.a0_term(2) == pytest.approx(LOG2 / 3)


def test_a_matches_reference_value():
    a = constants.compute_A(constants.compute_A0(10**5))
    assert abs(a.value - 0.72109) <= 1e-4
    assert a.tail_bound < 1e-4


def test_tail_bound_brackets_truth():
    a5 = constants.compute_A0(10**5)
    a7 = constants.compute_A0(10**7)
    assert abs(a7.value - a5.value) <= a5.tail_bound
    b5 = constants.compute_B(10**5)
    b7 = constants.compute_B(10**7)
    assert abs(b7.value - b5.value) <= b5.tail_bound


def test_tails_decrease():
    t1 = constants.compute_A0(10**4).tail_bound
    t2 = constants.compute_A0(10**5).tail_bound
    t3 = constants.compute_A0(10**6).tail_bound
    assert t1 > t2 > t3 > 0


def test_b_forms_agree_numerically():
    for p in (2, 3, 5, 7, 11, 101, 9973):
        assert constants.b_term_series(p) == pytest.approx(
            constants.b_term_closed(p), rel=1e-12
        )
    rep = constants.compute_B_report(constants.compute_B(10**5))
    assert abs(rep["B_series"] - rep["B_closed_corrected"]) <= rep["tail_bound"]
    assert rep["max_per_prime_delta"] < 1e-15
    # the duplicated -p^3 reading is materially different
    assert abs(rep["B_closed_uncorrected"] - rep["B_series"]) > 0.07


def test_b_closed_form_numerator_symbolically():
    """The power-series same-base sum simplifies to the degree-7 closed form
    with numerator p^4 - p^3 - p^2 - p - 1 (not a duplicated -p^3)."""
    p = sympy.symbols("p", positive=True)
    x = 1 / p
    series = (p / (p - 1)) ** 3 * ((1 + x**2) / (1 - x**2)) * (x**3 / (1 - x**3)) - (
        p / (p - 1)
    ) ** 4 * (x**2 / (1 - x**2)) ** 2
    closed = (
        p**3 * (p**4 - p**3 - p**2 - p - 1)
        / ((p - 1) ** 6 * (p + 1) ** 2 * (p**2 + p + 1))
    )
    assert sympy.simplify(series - closed) == 0
    wrong = (
        p**3 * (p**4 - 2 * p**3 - p - 1)
        / ((p - 1) ** 6 * (p + 1) ** 2 * (p**2 + p + 1))
    )
    assert sympy.simplify(series - wrong) != 0


def test_b_term_series_exact_matches_float():
    for p in (2, 3, 5, 7):
        exact = float(constants.b_term_series_exact(p)) * math.log(p) ** 2 / 4
        assert constants.b_term_series(p) == pytest.approx(exact, rel=1e-14)


def test_c_assembly():
    assert constants.assemble_C(0.0, 0.0) == pytest.approx(LOG2**2 / 3)
    c1, c2, c3 = (constants.compute_C(constants.compute_A0(p), constants.compute_B(p)).value
                  for p in (10**4, 10**5, 10**6))
    assert c1 < c2 < c3  # all truncated terms are positive


def test_single_sum_examples():
    assert constants.single_prime_power_sum(2) == pytest.approx(LOG2 / 4)
    s = constants.single_prime_power_sum(10**3)
    a0 = constants.compute_A0(10**6).value
    assert s < a0


def test_double_sum_diagonal_term():
    # only q1 = q2 = 2 at X = 2: (log 2)^2 / (4 * 1 * 1 * 1)
    assert constants.double_prime_power_sum(2, brute=True) == pytest.approx(LOG2**2 / 4)
    assert constants.double_prime_power_sum(2) == pytest.approx(LOG2**2 / 4)


def test_double_sum_decomposition_matches_brute():
    for x_limit in (10, 100, 500):
        brute = constants.double_prime_power_sum(x_limit, brute=True)
        fast = constants.double_prime_power_sum(x_limit)
        assert fast == pytest.approx(brute, rel=1e-12)


def test_single_sum_tail_scaling():
    primes = sieve.primes_up_to(10**6)
    a0 = constants.compute_A0(10**6, primes).value
    for x_limit in (10**2, 10**3, 10**4):
        s = constants.single_prime_power_sum(x_limit)
        assert abs(s - a0) <= SINGLE_SUM_TAIL_C / x_limit, x_limit
    # differences shrink roughly like 1/X: two decades apart by ~100x
    d2 = abs(constants.single_prime_power_sum(10**2) - a0)
    d4 = abs(constants.single_prime_power_sum(10**4) - a0)
    assert d4 < d2 / 20


def test_infinite_sum_checks_report():
    a0, b = constants.compute_A0(10**5), constants.compute_B(10**5)
    rep = constants.infinite_sum_checks(a0, b, 10**3)
    assert rep["single_sum"] == pytest.approx(constants.single_prime_power_sum(10**3))
    assert rep["double_sum"] == pytest.approx(constants.double_prime_power_sum(10**3))
    assert abs(rep["single_diff"]) < 0.01
    assert abs(rep["double_diff"]) < 0.01
    with pytest.raises(ValueError):
        constants.infinite_sum_checks(a0, b, 5)


def test_validation():
    with pytest.raises(ValueError):
        constants.compute_A0(50)


def test_constants_command_sums_each_series_once(monkeypatch, tmp_path):
    """`constants` sums A0 once and B once (plus one array of the first 2000
    primes for the per-prime comparison), however many quantities it builds
    from them."""
    calls = {"a0": 0, "b": 0}
    a0_term, b_term_series = constants.a0_term, constants.b_term_series

    def counted_a0(p):
        calls["a0"] += 1
        return a0_term(p)

    def counted_b(p):
        calls["b"] += 1
        return b_term_series(p)

    monkeypatch.setattr(constants, "a0_term", counted_a0)
    monkeypatch.setattr(constants, "b_term_series", counted_b)
    prime_limit = 10**4
    argv = ["constants", "--prime-limit", str(prime_limit), "--X", "100",
            "--out", str(tmp_path / "c.json")]
    assert cli.run(argv) == 0
    assert calls["a0"] == 1
    assert calls["b"] == 2


def test_normalization_pins_moments_and_distribution():
    # (A, C) at 10^6 primes: `moments` and `distribution --which G` print
    # values scaled by these, so any change here changes their bytes.
    # The callers read the constant; the definitional sum checks it.
    assert constants.NORMALIZATION_PRIME_LIMIT == 10**6
    pinned = (0.7210897254115849, 1.2967338448823222)
    assert constants.normalization() == constants.NORMALIZATION == pinned


# (B, C) as the scalar math.log loop summed them, at the `constants` prime
# limits of the benchmark (500000 + 1000 k), at 10^6 and at 10^7.  The array
# terms may differ from the scalar ones in the last bit; the fsum must not.
_PINNED_B_C = {
    500_000: (0.05634389206085837, 1.2967327508432913),
    501_000: (0.0563438920608855, 1.2967327553777228),
    502_000: (0.05634389206091077, 1.29673275960951),
    503_000: (0.05634389206093352, 1.2967327634259436),
    504_000: (0.056343892060959175, 1.2967327677378526),
    505_000: (0.05634389206098469, 1.2967327720335828),
    506_000: (0.0563438920610124, 1.2967327767079095),
    507_000: (0.056343892061037626, 1.2967327809707023),
    10**6: (0.056343892065873036, 1.2967338448823222),
    10**7: (0.05634389206764224, 1.2967348309607074),
}


# (B_closed_corrected, B_closed_uncorrected) as the scalar big-int loops of
# compute_B_report summed them, at the same limits.  The float64 array terms
# may differ from the big-int ones in the last bit; the fsum must not.
_PINNED_B_CLOSED = {
    500_000: (0.056343892060858373, -0.01827385620039651),
    501_000: (0.056343892060885505, -0.01827385620036938),
    502_000: (0.056343892060910776, -0.018273856200344104),
    503_000: (0.05634389206093353, -0.018273856200321355),
    504_000: (0.05634389206095918, -0.018273856200295698),
    505_000: (0.056343892060984696, -0.018273856200270187),
    506_000: (0.05634389206101241, -0.018273856200242473),
    507_000: (0.05634389206103763, -0.01827385620021725),
    10**6: (0.05634389206587304, -0.018273856195381848),
    10**7: (0.056343892067642246, -0.018273856193612648),
}


def test_b_and_c_pinned_bit_for_bit():
    primes = sieve.primes_up_to(10**7)
    assert _PINNED_B_CLOSED.keys() == _PINNED_B_C.keys()
    for limit, pinned in _PINNED_B_C.items():
        b = constants.compute_B(limit, primes)
        c = constants.compute_C(constants.compute_A0(limit, primes), b)
        assert (b.value, c.value) == pinned, limit
        rep = constants.compute_B_report(b, primes)
        closed = (rep["B_closed_corrected"], rep["B_closed_uncorrected"])
        assert closed == _PINNED_B_CLOSED[limit], limit
    rep = constants.compute_B_report(constants.compute_B(503_000, primes), primes)
    assert rep["max_per_prime_delta"] == 6.938893903907228e-18
    assert type(rep["max_per_prime_delta"]) is float
