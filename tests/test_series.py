"""Series arithmetic: frozen examples plus algebraic property tests."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chorddiag import alien, gf, series
from chorddiag.series import (
    PowerSeries,
    ReversionError,
    series_from_csv_rows,
    series_from_json_dict,
    series_to_csv_rows,
    series_to_json_dict,
    truncated_product,
    truncated_reciprocal,
)


def coeffs(f: PowerSeries) -> list[Fraction]:
    return list(f.coefficients)


class TestAdd:
    def test_monomials(self):
        x = PowerSeries([0, 1, 0], order=2)
        x2 = PowerSeries([0, 0, 1], order=2)
        assert coeffs(x + x2) == [0, 1, 1]

    def test_zero_identity(self):
        f = PowerSeries([3, Fraction(1, 2), 7])
        assert f + PowerSeries.zero(2) == f

    def test_connected_minus_two_connected(self):
        # x + 3x^3 + 20x^4 + 185x^5 + 2101x^6
        c = gf.series_connected(6)
        c2 = gf.series_two_connected(6)
        assert coeffs(c + c2 * (-1)) == [0, 1, 0, 3, 20, 185, 2101]

    def test_min_order_truncation(self):
        f = PowerSeries([1, 1, 1, 1])
        g = PowerSeries([1, 1])
        assert (f + g).order == 1


class TestMul:
    def test_reciprocal_pair(self):
        one_minus_x = PowerSeries([1, -1], order=8)
        geometric = PowerSeries([1] * 9)
        assert (one_minus_x * geometric) == PowerSeries.one(8)

    def test_connected_square_shifted(self):
        c = gf.series_connected(7)
        assert coeffs((c * c).div_x_pow(1)) == [0, 1, 2, 9, 62, 566, 6372]

    def test_two_connected_times_sequences(self):
        c2 = gf.series_two_connected(7)
        s = gf.series_two_connected_sequences(7)
        assert coeffs(c2 * s) == [0, 0, 1, 2, 10, 82, 898, 12018]


class TestDerivative:
    def test_monomial(self):
        assert coeffs(PowerSeries([0, 0, 1]).derivative()) == [0, 2]

    def test_connected_termwise(self):
        c = gf.series_connected(5)
        # independent termwise oracle over the known counts
        expected = [n * c[n] for n in range(1, 6)]
        assert expected == [1, 2, 12, 108, 1240]
        assert coeffs(c.derivative()) == expected

    def test_root_removal_identity_order20(self):
        c = gf.series_connected(20)
        lhs = 2 * (c * c.derivative()).mul_x_pow(1)
        rhs = c * (1 + c) - PowerSeries.x(20)
        assert (lhs - rhs).is_zero()

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries([5]).derivative()


class TestShifts:
    def test_divide_monomials(self):
        f = PowerSeries([0, 0, 1, 1])
        assert coeffs(f.div_x_pow(2)) == [1, 1]

    def test_divide_requires_zeros(self):
        with pytest.raises(ValueError, match="not divisible"):
            PowerSeries([1, 1]).div_x_pow(1)

    def test_shift_round_trip(self):
        f = PowerSeries([2, 3, 5])
        assert f.mul_x_pow(3).div_x_pow(3) == f


class TestCompose:
    def test_identity_inner(self):
        f = PowerSeries([1, 2, 3, 4])
        assert f.compose(PowerSeries.x(3)) == f

    def test_core_substitution_row(self):
        t = gf.connected_sq_div_x(6)
        inner_shifted = gf.series_two_connected(8).div_x_pow(2)
        got = inner_shifted.compose(t)
        assert coeffs(got) == [1, 1, 9, 100, 1323, 20088, 342430]

    def test_functional_relation_order10(self):
        t = gf.connected_sq_div_x(10)
        c = gf.series_connected(10)
        c2 = gf.series_two_connected(10)
        assert c2.compose(t) == t - c

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError, match="zero constant term"):
            PowerSeries([1, 1]).compose(PowerSeries([1, 1]))

    # n = 0; n = 1, 2 (a block size of 1); n + 1 a perfect square (n = 3, 8,
    # 15, 24, 35, 48); and the orders just past a square
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8, 9, 15, 16, 24, 35, 48, 49])
    @pytest.mark.parametrize("kind", [int, Fraction])
    def test_block_edges_match_horner(self, n, kind):
        def entry(k):
            return (-1) ** k * (k + 2) if kind is int else Fraction((-1) ** k * (k + 2), k % 5 + 1)

        f = PowerSeries([entry(k) for k in range(n + 4)])
        g = PowerSeries([0] + [entry(k + 3) for k in range(n + 3)])
        # the inner order below the outer one, above it, and equal to it
        pairs = [(f, g.truncate(n)), (f.truncate(n), g), (f.truncate(n), g.truncate(n))]
        for outer, inner in pairs:
            got = outer.compose(inner)
            assert got.order == n
            assert got.coefficients == reference_compose(outer, inner).coefficients
            assert all(type(c) is kind for c in got.coefficients)


class TestReverse:
    def test_identity(self):
        assert PowerSeries.x(5).reverse() == PowerSeries.x(5)

    def test_round_trip_with_substitution_series(self):
        t = gf.connected_sq_div_x(10)
        assert t.reverse().compose(t) == PowerSeries.x(10)
        assert t.compose(t.reverse()) == PowerSeries.x(10)

    def test_two_connected_from_reversion(self):
        t = gf.connected_sq_div_x(40)
        c = gf.series_connected(40)
        got = (t - c).compose(t.reverse())
        assert coeffs(got)[:7] == [0, 0, 1, 1, 7, 63, 729]
        assert got == gf.series_two_connected(40)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="not reversible"):
            PowerSeries([1, 1]).reverse()
        with pytest.raises(ValueError, match="not reversible"):
            PowerSeries([0, 0, 1]).reverse()

    def test_failed_check_is_a_value_error(self, monkeypatch):
        monkeypatch.setattr(
            PowerSeries, "compose", lambda self, inner: PowerSeries.zero(self.order)
        )
        with pytest.raises(ReversionError, match="composition check") as info:
            PowerSeries([0, 1, 1]).reverse()
        assert isinstance(info.value, ValueError)


class TestAnalytic:
    def test_sequences_row(self):
        c2_over_x = gf.series_two_connected(7).div_x_pow(1)
        got = (PowerSeries.one(6) - c2_over_x).reciprocal()
        assert coeffs(got) == [1, 1, 2, 10, 82, 898, 12018]

    def test_scaled_exponential_row(self):
        s = gf.series_two_connected_sequences(7)
        x = PowerSeries.x(7)
        half_shift = (((s + x) ** 2) - 1).div_x_pow(1) / 2
        got = (-(half_shift - 2)).exp()
        expected = [
            Fraction(1),
            Fraction(-4),
            Fraction(-6),
            Fraction(-176, 3),
            Fraction(-2008, 3),
            Fraction(-46636, 5),
        ]
        assert coeffs(got)[:6] == expected

    def test_exp_taylor(self):
        got = PowerSeries([0, 2, 1], order=4).exp()
        # exp(2x)*exp(x^2) multiplied out by hand
        assert coeffs(got) == [
            1,
            2,
            3,
            Fraction(10, 3),
            Fraction(19, 6),
        ]

    def test_pow_rational_square(self):
        assert coeffs(PowerSeries([1, 1], order=2).pow_rational(2)) == [1, 2, 1]

    def test_pow_rational_half_squares_back(self):
        f = PowerSeries([1, 4, 7, -2], order=6)
        root = f.pow_rational(Fraction(1, 2))
        assert root * root == f

    def test_exp_kernel_weight_stays_small_for_integrals(self, monkeypatch):
        """exp clears the derivative of its exponent, not the exponent.

        Both transport factors and pow_rational are exponentials of
        integrals, whose denominators hold every 1..n while those of their
        derivatives are 2; equal values cannot show which was cleared, so
        the weight the kernel gets is checked.
        """
        weights = []
        kernel = series._extend_scaled_exp

        def recording(dg, w, n, e):
            weights.append(w)
            kernel(dg, w, n, e)

        monkeypatch.setattr(series, "_extend_scaled_exp", recording)
        t = gf.connected_sq_div_x(60)
        for beta in (alien.BETA_HALF, alien.BETA_THREE_HALVES):
            alien._exp_transport_factor(t, beta)
        gf.series_connected(61).div_x_pow(1).pow_rational(Fraction(1, 2))
        assert weights == [2, 2, 2]

    def test_order_zero(self):
        assert typed(PowerSeries([0]).exp()) == [(Fraction, 1)]
        assert typed(PowerSeries([1]).log()) == [(Fraction, 0)]
        assert typed(PowerSeries([1]).pow_rational(Fraction(1, 2))) == [(Fraction, 1)]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            PowerSeries([0, 1]).reciprocal()
        with pytest.raises(ValueError):
            PowerSeries([1, 1]).exp()
        with pytest.raises(ValueError):
            PowerSeries([2, 1]).log()
        with pytest.raises(ValueError):
            PowerSeries([2, 1]).pow_rational(Fraction(1, 2))


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series_strategy(order: int, first=None):
    def build(values):
        coeffs = list(values)
        if first is not None:
            coeffs[0] = first
        return PowerSeries(coeffs, order=order)

    return st.lists(
        small_rationals, min_size=order + 1, max_size=order + 1
    ).map(build)


def reference_compose(f: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """Horner evaluation over series products: the definition compose must meet."""
    n = min(f.order, inner.order)
    g = inner.truncate(n)
    result = PowerSeries.constant(f[n], n)
    for k in range(n - 1, -1, -1):
        result = result * g + f[k]
    return result


integer_coefficients = st.integers(min_value=-20, max_value=20)


def any_series(elements, top=12):
    return st.integers(min_value=0, max_value=top).flatmap(
        lambda n: st.lists(elements, min_size=n + 1, max_size=n + 1)
    ).map(PowerSeries)


def inner_series(elements, top=12):
    return st.integers(min_value=1, max_value=top).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n)
    ).map(lambda tail: PowerSeries([0, *tail]))


def reference_exp(f: PowerSeries) -> PowerSeries:
    """exp by the termwise recurrence m*E_m = sum k*f_k*E_(m-k), on Fractions."""
    n = f.order
    out = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            acc += k * f[k] * out[m - k]
        out[m] = acc / m
    return PowerSeries(out)


def reference_log(f: PowerSeries) -> PowerSeries:
    """log by the termwise recurrence m*L_m = m*f_m - sum k*L_k*f_(m-k), on Fractions."""
    n = f.order
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = m * f[m]
        for k in range(1, m):
            acc -= k * out[k] * f[m - k]
        out[m] = Fraction(acc, m)
    return PowerSeries(out)


def typed(f: PowerSeries) -> list:
    """The coefficients with their types, so that 2 and Fraction(2) differ."""
    return [(type(c), c) for c in f.coefficients]


class TestIntegerSeries:
    """Int coefficients stay ints; every division gives Fractions, never floats."""

    f = PowerSeries([1, -2, 3, 0, 5])
    g = PowerSeries([-1, 4, 0, 7, 2])
    inner = PowerSeries([0, 1, -3, 2, 6])

    @staticmethod
    def assert_all(series, kind):
        assert all(type(c) is kind for c in series.coefficients), series.coefficients

    def test_ring_and_shift_results_are_ints(self):
        f, g = self.f, self.g
        for result in (
            f + g, f - g, f + 2, 3 - f, -f, 3 * f, f * g, f**3,
            f.compose(self.inner), f.derivative(), f.mul_x_pow(2),
            self.inner.div_x_pow(1), f.truncate(2), PowerSeries([1], order=4),
            f.reciprocal(), g.reciprocal(),
        ):
            self.assert_all(result, int)

    def test_division_results_are_fractions(self):
        for result in (
            PowerSeries([2, 4]) / 4,
            PowerSeries([2, 4]) / 2,
            self.f / PowerSeries([2, 1, 0, 3, 1]),
            PowerSeries([0, 2, 3]).reverse(),
            self.f.log(),
            self.inner.exp(),
            self.f.pow_rational(Fraction(1, 2)),
            self.f.pow_rational(2),
        ):
            self.assert_all(result, Fraction)

    def test_reverse_with_unit_linear_term_stays_int(self):
        for inner in (self.inner, -self.inner, gf.connected_sq_div_x(30)):
            fractions = PowerSeries([Fraction(c) for c in inner.coefficients])
            self.assert_all(fractions.reverse(), Fraction)
            self.assert_all(inner.reverse(), int)
            assert inner.reverse() == fractions.reverse()

    def test_division_by_a_unit_series_is_a_product(self):
        self.assert_all(self.f / self.g, int)
        assert self.f / self.g == self.f * self.g.reciprocal()

    def test_division_values(self):
        assert (PowerSeries([2, 4]) / 4).coefficients == (Fraction(1, 2), 1)
        assert PowerSeries([0, 2, 3]).reverse().coefficients == (0, Fraction(1, 2), Fraction(-3, 8))

    def test_compose_with_a_fraction_side_divides(self):
        half = PowerSeries([0, Fraction(1, 2), 0, 0, 0])
        assert self.f.compose(half).coefficients == (1, -1, Fraction(3, 4), 0, Fraction(5, 16))
        self.assert_all(self.f.compose(half), Fraction)
        fractions = PowerSeries([Fraction(c) for c in self.f.coefficients])
        self.assert_all(fractions.compose(self.inner), Fraction)

    def test_fraction_series_keep_fractions(self):
        f = PowerSeries([Fraction(c) for c in self.f.coefficients])
        self.assert_all(f.reciprocal(), Fraction)
        assert f.reciprocal() == self.f.reciprocal()

    def test_strings_parse_and_floats_are_refused(self):
        self.assert_all(PowerSeries(["1", "2/3"]), Fraction)
        self.assert_all(PowerSeries([True, False]), int)
        with pytest.raises(TypeError, match="float"):
            PowerSeries([1, 0.5])


class TestProperties:
    @given(
        any_series(st.one_of(integer_coefficients, small_rationals)),
        st.one_of(inner_series(integer_coefficients), inner_series(small_rationals)),
    )
    @settings(max_examples=80, deadline=None)
    def test_compose_matches_series_horner(self, f, inner):
        got = f.compose(inner)
        assert got.order == min(f.order, inner.order)
        assert got.coefficients == reference_compose(f, inner).coefficients

    @given(
        st.one_of(any_series(integer_coefficients, 60), any_series(small_rationals, 60)),
        st.one_of(inner_series(integer_coefficients, 60), inner_series(small_rationals, 60)),
    )
    @settings(max_examples=20, deadline=None)
    @example(f=PowerSeries([0]), inner=PowerSeries([0, Fraction(0)]))
    def test_compose_matches_series_horner_at_high_order(self, f, inner):
        """Orders up to 60, where a block holds up to 7 coefficients of f.

        Like ``*`` and ``+``, ``compose`` reads both inputs only up to their
        common order, so only those coefficients decide the result's type.
        """
        got = f.compose(inner)
        order = min(f.order, inner.order)
        assert got.order == order
        assert got.coefficients == reference_compose(f, inner).coefficients
        used = f.coefficients[: order + 1] + inner.coefficients[: order + 1]
        ints = all(type(c) is int for c in used)
        assert all(type(c) is (int if ints else Fraction) for c in got.coefficients)

    @given(
        st.one_of(any_series(integer_coefficients), any_series(small_rationals)),
        st.one_of(integer_coefficients, small_rationals),
    )
    @settings(max_examples=80, deadline=None)
    def test_exp_log_pow_match_the_termwise_recurrences(self, f, q):
        tail, unit = f - f[0], f - f[0] + 1
        assert typed(tail.exp()) == typed(reference_exp(tail))
        assert typed(unit.log()) == typed(reference_log(unit))
        assert typed(unit.pow_rational(q)) == typed(reference_exp(reference_log(unit) * q))

    @given(any_series(integer_coefficients, 40), st.one_of(integer_coefficients, small_rationals))
    @settings(max_examples=20, deadline=None)
    def test_exp_of_an_integral_matches_the_termwise_recurrence(self, f, q):
        """q * log f is an integral, with every 1..n among its denominators."""
        exponent = (f - f[0] + 1).log() * q
        assert typed(exponent.exp()) == typed(reference_exp(exponent))

    @given(st.one_of(inner_series(integer_coefficients), inner_series(small_rationals)))
    @settings(max_examples=40, deadline=None)
    def test_log_exp_round_trip(self, g):
        assert g.exp().log() == g

    @given(series_strategy(6), series_strategy(6), series_strategy(6))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h

    @given(series_strategy(6), series_strategy(6))
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, f, g):
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs

    @given(
        small_rationals.filter(bool),
        st.integers(min_value=3, max_value=25).flatmap(
            lambda n: st.lists(small_rationals, min_size=n - 1, max_size=n - 1)
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_reversion_round_trip(self, linear, tail):
        f = PowerSeries([0, linear] + tail)
        g = f.reverse()
        ident = PowerSeries.x(f.order)
        assert f.compose(g) == ident
        assert g.compose(f) == ident

    @given(small_rationals.filter(bool).flatmap(lambda c0: series_strategy(8, first=c0)))
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_inverts(self, f):
        assert f * f.reciprocal() == PowerSeries.one(f.order)

    @given(series_strategy(8, first=Fraction(0)))
    @settings(max_examples=40, deadline=None)
    def test_exp_log_round_trip(self, g):
        assert (1 + g).log().exp() == 1 + g

    @given(series_strategy(5), series_strategy(5))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_stay_canonical(self, f, g):
        for series in (f * g, f + g, f - g):
            for c in series.coefficients:
                assert isinstance(c, Fraction)
                assert c.denominator >= 1
                assert gcd(c.numerator, c.denominator) == 1


def naive_product(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i in range(min(len(a), n + 1)):
        for j in range(min(len(b), n + 1 - i)):
            out[i + j] += Fraction(a[i]) * Fraction(b[j])
    return out


mixed_entries = st.one_of(
    small_rationals,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.fractions(max_denominator=10**25),
    st.just(0),
    st.just(Fraction(0)),
)
int_lists = st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=12)


class TestTruncatedProduct:
    @given(
        st.lists(mixed_entries, max_size=12),
        st.lists(mixed_entries, max_size=12),
        st.integers(min_value=0, max_value=14),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_termwise_convolution(self, a, b, n):
        assert truncated_product(a, b, n) == naive_product(a, b, n)

    @given(int_lists, int_lists, st.integers(min_value=0, max_value=14))
    @settings(max_examples=100, deadline=None)
    def test_int_inputs_give_ints(self, a, b, n):
        out = truncated_product(a, b, n)
        assert out == naive_product(a, b, n)
        assert all(type(c) is int for c in out)


def reference_reciprocal(a, n):
    """1/a by the termwise recurrence b_m = -sum a_k*b_(m-k) / a_0, on Fractions."""
    out = [1 / Fraction(a[0])]
    for m in range(1, n + 1):
        acc = sum(Fraction(a[k]) * out[m - k] for k in range(1, min(m, len(a) - 1) + 1))
        out.append(-acc / a[0])
    return out


class TestTruncatedReciprocal:
    @given(
        st.one_of(
            st.integers(min_value=-20, max_value=20).filter(lambda v: v not in (-1, 0, 1)),
            small_rationals.filter(bool),
        ),
        st.one_of(
            st.lists(integer_coefficients, max_size=40),
            st.lists(small_rationals, max_size=40),
        ),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaled_recurrence_matches_the_termwise_one(self, a0, rest, m, n):
        """A Fraction, or an int a0 other than +-1, runs on ints and gives Fractions."""
        a = [a0] + rest
        whole = truncated_reciprocal(a, n)
        assert whole == reference_reciprocal(a, n)
        assert all(type(c) is Fraction for c in whole)
        out = truncated_reciprocal(a, min(m, n))
        assert truncated_reciprocal(a, n, out) is out
        assert out == whole

    @given(
        st.sampled_from([1, -1]),
        int_lists,
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=0, max_value=14),
    )
    @settings(max_examples=100, deadline=None)
    def test_extending_a_prefix_in_place_equals_one_call(self, a0, rest, m, n):
        a = [a0] + rest
        whole = truncated_reciprocal(a, n)
        out = truncated_reciprocal(a, min(m, n))
        assert truncated_reciprocal(a, n, out) is out
        assert out == whole
        assert all(type(c) is int for c in out)


class TestSerialization:
    def test_json_round_trip(self):
        f = gf.series_two_connected(6)
        data = series_to_json_dict(f)
        assert data["order"] == 6
        assert data["coefficients"][2] == {"num": "1", "den": "1"}
        assert series_from_json_dict(data) == f

    def test_json_big_values_are_strings(self):
        f = gf.series_all_diagrams(25)
        data = series_to_json_dict(f)
        assert data["coefficients"][25]["num"] == str(gf.double_factorial_odd(25))

    def test_csv_round_trip(self):
        f = PowerSeries([Fraction(-1, 3), 0, Fraction(22, 7)])
        rows = series_to_csv_rows(f)
        assert rows[0] == (0, "-1", "3")
        assert series_from_csv_rows(rows) == f

    def test_csv_repeated_index_rejected(self):
        with pytest.raises(ValueError, match="exactly once"):
            series_from_csv_rows([(0, 1, 1), (0, 2, 1), (1, 5, 1)])

    @pytest.mark.parametrize(
        "data",
        [
            {"coefficients": [{"num": "1", "den": "1"}]},
            {"order": 0},
            {"order": 0, "coefficients": [{"den": "1"}]},
            {"order": 0, "coefficients": [{"num": "1"}]},
            {"order": 0, "coefficients": ["1"]},
            {"order": 0, "coefficients": [1]},
            {"order": None, "coefficients": [{"num": "1", "den": "1"}]},
            ["order", "coefficients"],
        ],
    )
    def test_json_malformed_record_is_a_value_error(self, data):
        with pytest.raises(ValueError, match="serialized series"):
            series_from_json_dict(data)

    def test_json_zero_denominator_rejected(self):
        data = {"order": 0, "coefficients": [{"num": "1", "den": "0"}]}
        with pytest.raises(ValueError, match="denominator 0"):
            series_from_json_dict(data)
