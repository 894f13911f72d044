"""Numeric evaluation: constants, estimates, error tables, the probability."""

import warnings
from fractions import Fraction

import pytest

from chorddiag import asymptotics, gf
from chorddiag.alien import AsymptoticImage, alien_connected, alien_two_connected
from chorddiag.asymptotics import (
    HighPrecisionDecimal,
    const_e,
    const_sqrt_two_pi,
    error_table,
    estimate,
    format_significant,
    gamma_scale,
    probability_check,
)
from chorddiag.series import PowerSeries


def independent_e(digits: int) -> Fraction:
    """Taylor sum for e, written separately from the library's version."""
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    while term > Fraction(1, 10 ** (digits + 5)):
        total += term
        k += 1
        term /= k
    return total


class TestGammaScale:
    def test_small_values(self):
        assert gamma_scale(3, 0) == 15
        assert gamma_scale(5, 2) == 15
        assert gamma_scale(6, 0) == 10395

    def test_direct_product(self):
        product = 1
        for odd in range(1, 12, 2):
            product *= odd
        assert gamma_scale(6, 0) == product

    def test_undefined_term(self):
        with pytest.raises(ValueError, match="n - k >= 1"):
            gamma_scale(3, 3)


class TestConstants:
    def test_e_ten_digits(self):
        assert str(const_e(10)) == "2.718281828"

    def test_e_matches_independent_sum(self):
        got = const_e(30).value
        assert abs(got - independent_e(30)) < Fraction(1, 10**28)

    def test_e_square_inverse(self):
        e = const_e(30).value
        assert abs(e**2 * e**-2 - 1) == 0  # exact on the rational approximant
        # and the approximant itself is accurate enough for 29 digits
        gap = abs(e - independent_e(40))
        assert gap < Fraction(1, 10**29)

    def test_sqrt_two_pi(self):
        got = const_sqrt_two_pi(10)
        assert str(got).startswith("2.50662827")
        # squaring must land within rounding distance of 2*pi
        two_pi = got.value**2
        assert abs(two_pi - Fraction(2 * 314159265358979323846, 10**20)) < Fraction(
            1, 10**8
        )

    @pytest.mark.parametrize(
        "q, digits",
        [(Fraction(-2), 40), (Fraction(7, 3), 25), (Fraction(-5, 2), 60), (Fraction(0), 5),
         (Fraction(-13, 4), 12), (Fraction(20), 30), (Fraction(1), 200)],
    )
    def test_exp_fraction_is_the_termwise_sum(self, q, digits):
        # the same Taylor partial sum and stopping rule, on Fractions term by term
        tolerance = Fraction(1, 10 ** (digits + 2)) / (4 ** (abs(q).__ceil__() + 1))
        total = term = Fraction(1)
        k = 0
        while not (k > 2 * abs(q) and abs(term) < tolerance):
            k += 1
            term = term * q / k
            total += term
        assert asymptotics._exp_fraction(q, digits) == total

    def test_digit_validation(self):
        with pytest.raises(ValueError):
            const_e(0)
        with pytest.raises(ValueError):
            HighPrecisionDecimal(Fraction(22, 7), 5).to_decimal_string(0)
        with pytest.raises(ValueError):
            estimate(alien_two_connected(2), 10, 3, digits=0)


class TestFormatting:
    def test_round_half_up(self):
        assert format_significant(Fraction(25066282746, 10**10), 10) == "2.506628275"

    def test_small_values_fixed_notation(self):
        assert format_significant(Fraction(1, 800), 3) == "0.00125"

    def test_scientific_for_tiny(self):
        assert format_significant(Fraction(1, 10**9), 3) == "1.00e-9"

    def test_zero(self):
        assert format_significant(Fraction(0), 5) == "0.0000"


class TestEstimate:
    def test_leading_term_n6(self):
        # e^-2 * 10395 with the exact 2-connected count 729 nearby
        image = alien_two_connected(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = estimate(image, 6, 1, digits=20)
        expected = 10395 / independent_e(25) ** 2
        assert abs(got.value - expected) < Fraction(1, 10**15)
        assert str(got).startswith("1406.810269")

    def test_zero_series(self):
        image = AsymptoticImage(Fraction(0), -1, PowerSeries.zero(4))
        assert estimate(image, 10, 1).value == 0

    def test_term_difference(self):
        image = alien_two_connected(6)
        n = 20
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            e_factor = estimate(
                AsymptoticImage(image.e_exp, -1, PowerSeries.one(0)), 1, 1, digits=40
            ).value
        for terms in range(1, 6):
            low = estimate(image, n, terms, digits=40)
            high = estimate(image, n, terms + 1, digits=40)
            step = (high.value - low.value) / gamma_scale(n, terms)
            assert step == image.series[terms] * e_factor

    def test_error_within_next_term_scale(self):
        # at n=20 with six terms the remainder sits at the scale of the first
        # omitted term: measured ratio to |c_6| * (2*14-1)!! * e^-2 is 2.31
        image = alien_two_connected(6)
        exact = gf.series_two_connected(20)[20]
        value = estimate(image, 20, 6, digits=40).value
        error = abs(Fraction(int(exact)) - value)
        bound = abs(image.series[6]) * gamma_scale(20, 6) * independent_e(20) ** -2
        assert error < 3 * bound
        assert error > bound / 3

    def test_preconditions(self):
        image = alien_two_connected(5)
        with pytest.raises(ValueError, match="terms"):
            estimate(image, 10, 7)
        with pytest.raises(ValueError, match="terms"):
            estimate(image, 10, 0)
        with pytest.raises(ValueError, match="n - terms"):
            estimate(image, 1, 2)

    def test_degenerate_point_warns(self):
        image = alien_two_connected(5)
        with pytest.warns(UserWarning, match="unreliable"):
            estimate(image, 6, 3)

    def test_equals_termwise_fraction_sum(self):
        for image in (alien_connected(10), alien_two_connected(10)):
            factor = asymptotics._transcendental_factor(image, 30)
            for terms in range(1, 12):
                for n in range(terms, 60):
                    termwise = sum(
                        (image.series[k] * gamma_scale(n, k) for k in range(terms)),
                        start=Fraction(0),
                    )
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        got = estimate(image, n, terms).value
                    assert got == termwise * factor, (n, terms)

    def test_residual_sqrt_two_pi_power(self):
        # an image carrying no 1/sqrt(2pi) picks up a residual sqrt(2pi)
        base = alien_two_connected(3)
        unnormalized = AsymptoticImage(base.e_exp, 0, base.series)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plain = estimate(base, 8, 1, digits=25).value
            scaled = estimate(unnormalized, 8, 1, digits=25).value
        ratio = scaled / plain
        assert abs(ratio**2 - 2 * Fraction(314159265358979323846, 10**20)) < Fraction(
            1, 10**6
        )


class TestErrorTable:
    def test_normalized_error_bounded(self):
        image = alien_two_connected(6)
        exact = [int(c) for c in gf.series_two_connected(30).coefficients]
        e_minus_2 = 1 / independent_e(20) ** 2
        for terms in (1, 2, 3):
            rows = error_table(image, exact, range(terms + 5, 31), [terms])
            bound = 10 * abs(image.series[terms]) * e_minus_2
            assert all(row.normalized_error <= bound for row in rows)

    def test_relative_error_shrinks_with_terms(self):
        image = alien_two_connected(6)
        exact = [int(c) for c in gf.series_two_connected(30).coefficients]
        rows = error_table(image, exact, [30], range(1, 7))
        errors = [row.relative_error for row in rows]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < Fraction(1, 10**4)

    def test_connected_leading_share(self):
        image = alien_connected(1)
        exact = [int(c) for c in gf.series_connected(25).coefficients]
        rows = error_table(image, exact, [25], [1])
        assert rows[0].relative_error < Fraction(1, 10)

    def test_n_not_above_terms_rejected_before_estimating(self):
        image = alien_two_connected(6)
        exact = gf.series_two_connected(8).coefficients
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "n > terms for every row, got n = 6 with terms = 6"
            with pytest.raises(ValueError, match=message):
                error_table(image, exact, [7, 6], [6])

    def test_missing_exact_rejected(self):
        image = alien_two_connected(3)
        with pytest.raises(ValueError, match="not supplied"):
            error_table(image, [0, 0, 1], [5], [1])


class TestProbability:
    def test_n6_ratio(self):
        check = probability_check(6)
        assert check.ratio == Fraction(729, 10395)
        assert format_significant(check.ratio, 6).startswith("0.070129")

    def test_trend_toward_limit(self):
        e_minus_2 = 1 / independent_e(25) ** 2
        previous = None
        for n in (10, 15, 20, 25, 30):
            ratio = probability_check(n).ratio
            assert ratio < e_minus_2
            if previous is not None:
                assert ratio > previous
            previous = ratio

    def test_scaled_deviation_bounded(self):
        for n in (20, 25, 30, 35, 40):
            check = probability_check(n)
            assert abs(check.scaled_deviation) < 1

    def test_digits_must_be_positive(self):
        for digits in (0, -3):
            with pytest.raises(ValueError, match="digits must be positive"):
                probability_check(10, digits)

    def test_model_value(self):
        check = probability_check(6, digits=20)
        expected = (1 - Fraction(3, 6)) / independent_e(25) ** 2
        assert abs(check.model.value - expected) < Fraction(1, 10**15)


class TestHighPrecisionDecimal:
    def test_str_and_digits(self):
        value = HighPrecisionDecimal(Fraction(1, 3), 8)
        assert str(value) == "0.33333333"
        assert value.to_decimal_string(3) == "0.333"
        assert float(value) == pytest.approx(1 / 3)
