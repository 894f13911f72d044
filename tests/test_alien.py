"""Alien-derivative calculus: closed forms, the three rules, the derivation."""

from fractions import Fraction

import pytest

from chorddiag import alien, gf
from chorddiag.alien import (
    BETA_THREE_HALVES,
    AsymptoticImage,
    alien_compose,
    alien_connected,
    alien_inverse,
    alien_product,
    alien_two_connected,
    exp_with_constant,
    image_add,
    shift_up,
    verify_derivation_chain,
)
from chorddiag.series import PowerSeries


def zero_image(order: int) -> AsymptoticImage:
    """The image of a convergent series: it adds to any image."""
    return AsymptoticImage(Fraction(0), 0, PowerSeries.zero(order))

TWO_CONNECTED_IMAGE_HEAD = (
    Fraction(1),
    Fraction(-6),
    Fraction(-4),
    Fraction(-218, 3),
    Fraction(-890),
    Fraction(-196838, 15),
)


class TestExpWithConstant:
    def test_int_constant_comes_back_as_fraction(self):
        const, series = exp_with_constant(PowerSeries([3, 1]))
        assert type(const) is Fraction and const == 3
        assert list(series.coefficients) == [1, 1]

    def test_zero(self):
        const, series = exp_with_constant(PowerSeries.zero(4))
        assert const == 0
        assert series == PowerSeries.one(4)

    def test_shifted_taylor(self):
        const, series = exp_with_constant(PowerSeries([2, 1], order=3))
        assert const == 2
        assert list(series.coefficients) == [1, 1, Fraction(1, 2), Fraction(1, 6)]

    def test_image_exponent_row(self):
        rows = alien.image_table_series(5)
        exponent = rows["[(S+x)^2-1]/(2x)"]
        const, series = exp_with_constant(-exponent)
        assert const == -2
        assert tuple(series.coefficients[:6]) == tuple(
            alien.IMAGE_REFERENCE["e^2*exp(-[(S+x)^2-1]/(2x))"]
        )
        assert isinstance(const, Fraction)


class TestConnectedImage:
    def test_prefactors(self):
        image = alien_connected(6)
        assert image.e_exp == -1
        assert image.sqrt_two_pi_exp == -1

    def test_leading_coefficient(self):
        assert alien_connected(6).series[0] == 1

    def test_known_head(self):
        # regression head, cross-checked empirically below
        got = alien_connected(5).series.coefficients
        assert list(got) == [
            1,
            Fraction(-5, 2),
            Fraction(-43, 8),
            Fraction(-579, 16),
            Fraction(-44477, 128),
            Fraction(-5326191, 1280),
        ]

    def test_leading_proportion_limit(self):
        # the share of connected diagrams tends to 1/e; at n=40 the first
        # omitted term predicts a relative gap around c1/(2n-1)
        c = gf.series_connected(40)
        ratio = Fraction(int(c[40]), gf.double_factorial_odd(40))
        inv_e = Fraction(265252859812191058636308480000000, 721059927571390229290920114176987)
        # crude rational approximation of 1/e accurate far beyond needed
        assert abs(ratio / inv_e - 1) < Fraction(1, 10)


class TestTwoConnectedImage:
    def test_exact_head(self):
        image = alien_two_connected(5)
        assert image.e_exp == -2
        assert image.sqrt_two_pi_exp == -1
        assert tuple(image.series.coefficients) == TWO_CONNECTED_IMAGE_HEAD

    def test_ratio_row(self):
        rows = alien.image_table_series(5)
        got = rows["x^2/(C2*S)"]
        assert [int(c) for c in got.coefficients[:6]] == [1, -2, -6, -50, -574, -8082]

    def test_table_rows_match_reference(self):
        rows = alien.image_table_series(8)
        for name, expected in alien.IMAGE_REFERENCE.items():
            got = tuple(rows[name][i] for i in range(len(expected)))
            assert got == tuple(Fraction(e) for e in expected), name

    def test_wrong_exponent_constant_raises(self, monkeypatch):
        sq = gf.two_connected_sq
        monkeypatch.setattr(gf, "two_connected_sq", lambda order: 2 * sq(order))
        alien_two_connected.cache_clear()
        with pytest.raises(AssertionError, match="x\\^4/C2\\^2 .* 2-connected family"):
            alien_two_connected(5)

    def test_failed_build_leaves_no_half_grown_state(self, monkeypatch):
        sq = gf.two_connected_sq
        # C2^2/x^4 = 1 + 4x + ...: x^4/C2^2 starts 1 - 4x
        with monkeypatch.context() as patch:
            patch.setattr(gf, "two_connected_sq", lambda order: sq(order) + 2 * PowerSeries.x(order) ** 5)
            alien_two_connected.cache_clear()
            with pytest.raises(AssertionError, match="2-connected family"):
                alien_two_connected(5)
        assert alien_two_connected.cache_info().currsize == 0
        assert alien_two_connected(6).series[6] == Fraction(-9972896, 45)
        t = gf.connected_sq_div_x
        expected = alien_connected(6)
        with monkeypatch.context() as patch:
            patch.setattr(gf, "connected_sq_div_x", lambda order: 2 * t(order))
            alien_connected.cache_clear()
            with pytest.raises(AssertionError, match="x\\^2/C\\^2 .* the connected family"):
                alien_connected(5)
        assert alien_connected.cache_info().currsize == 0
        assert alien_connected(6) == expected

    def test_log_derivatives_are_integer_series(self):
        # 2f' = rho * f, rho read off x^2/C^2 and x^4/C2^2, at order 200
        order = 200
        c = gf.series_connected(order + 2)
        y = gf.series_two_connected(order + 3)
        rows = (
            (alien_connected, (c.div_x_pow(1) ** 2).reciprocal(), [1, -2]),
            (alien_two_connected, y.div_x_pow(2).reciprocal() ** 2, [1, -2, 1]),
        )
        for build, quotient, head in rows:
            rho = (quotient - PowerSeries(head, order=order + 1)).div_x_pow(2)
            assert rho.order == order - 1
            assert all(type(v) is int for v in rho.coefficients)
            f = build(order).series
            assert 2 * f.derivative() == rho * f, build.__name__

    def test_sixth_coefficient_regression(self):
        assert alien_two_connected(6).series[6] == Fraction(-9972896, 45)

    def test_sixth_coefficient_empirical(self):
        # the expansion coefficients are limits of normalized count residuals;
        # estimate c6 from the exact counts at n=40 and compare coarsely
        image = alien_two_connected(6)
        c2 = gf.series_two_connected(40)
        n = 40
        residual = Fraction(int(c2[n]))
        e2_num = _e_squared_approx()
        residual *= e2_num
        for k in range(6):
            residual -= image.series[k] * gf.double_factorial_odd(n - k)
        empirical = residual / gf.double_factorial_odd(n - 6)
        exact = image.series[6]
        assert abs(empirical / exact - 1) < Fraction(1, 2)


def _e_squared_approx() -> Fraction:
    total = Fraction(0)
    term = Fraction(1)
    for k in range(1, 60):
        total += term
        term = term * 2 / k
    return total + term


def _fraction_table(order: int) -> dict[str, PowerSeries]:
    """image_table_series on Fraction series: exp_with_constant, reciprocal, products."""
    s = gf.series_two_connected_sequences(order + 2)
    c2 = gf.series_two_connected(order + 3)
    x = PowerSeries.x(s.order)
    s_plus_x_sq = (s + x) ** 2
    half_shift = (s_plus_x_sq - 1).div_x_pow(1) / 2
    c2s = (c2 * s).truncate(order + 2)
    _, remainder = exp_with_constant(-half_shift)
    return {
        "S": s,
        "(S+x)^2": s_plus_x_sq,
        "[(S+x)^2-1]/(2x)": half_shift,
        "C2*S": c2s,
        "x^2/(C2*S)": c2s.div_x_pow(2).reciprocal(),
        "e^2*exp(-[(S+x)^2-1]/(2x))": remainder,
    }


def _fraction_connected_image(order: int) -> AsymptoticImage:
    c = gf.series_connected(order + 1)
    exponent = (c * c + 2 * c).div_x_pow(1) / 2
    const, remainder = exp_with_constant(-exponent)
    x_over_c = c.div_x_pow(1).reciprocal()
    return AsymptoticImage(const, -1, (x_over_c * remainder).truncate(order))


class TestFractionRoute:
    """The integer images equal the same closed forms computed on Fractions.

    Each coefficient depends only on lower ones, so the reference at the top
    order gives every lower order by truncation.
    """

    TOP = 60

    def test_connected_image(self):
        reference = _fraction_connected_image(self.TOP)
        assert reference.e_exp == -1
        for order in range(1, self.TOP + 1):
            image = alien_connected(order)
            assert image.same_prefactor(reference)
            assert image.series == reference.series.truncate(order), order

    def test_two_connected_image(self):
        rows = _fraction_table(self.TOP)
        const = -rows["[(S+x)^2-1]/(2x)"][0]
        series = rows["x^2/(C2*S)"] * rows["e^2*exp(-[(S+x)^2-1]/(2x))"]
        for order in range(0, self.TOP + 1):
            image = alien_two_connected(order)
            assert (image.e_exp, image.sqrt_two_pi_exp) == (const, -1)
            assert image.series == series.truncate(order), order

    def test_table_rows(self):
        reference = _fraction_table(self.TOP)
        for order in range(0, self.TOP + 1):
            rows = alien.image_table_series(order)
            assert list(rows) == list(reference)
            for name, row in rows.items():
                assert row == reference[name].truncate(row.order), (order, name)
            assert rows["x^2/(C2*S)"].order == order


class TestProductRule:
    def test_square_of_connected(self):
        c = gf.series_connected(8)
        a_c = alien_connected(8)
        image = alien_product(c, a_c, c, a_c)
        assert image.series == (2 * c * a_c.series).truncate(image.series.order)
        assert image.same_prefactor(a_c)

    def test_symmetry(self):
        c = gf.series_connected(6)
        a_c = alien_connected(6)
        csq = (c * c).truncate(6)
        a_csq = alien_product(c, a_c, c, a_c)
        forward = alien_product(c, a_c, csq, a_csq)
        backward = alien_product(csq, a_csq, c, a_c)
        assert forward.series == backward.series
        assert forward.same_prefactor(backward)

    def test_unit_factor(self):
        c = gf.series_connected(6)
        a_c = alien_connected(6)
        one = PowerSeries.one(6)
        image = alien_product(c, a_c, one, zero_image(6))
        assert image.series == a_c.series.truncate(image.series.order)
        assert image.same_prefactor(a_c)

    def test_convergent_factor(self):
        # a polynomial has zero image, so only f * image(g) survives
        poly = PowerSeries([1, 3, 0, 2], order=6)
        c = gf.series_connected(6)
        a_c = alien_connected(6)
        image = alien_product(poly, zero_image(6), c, a_c)
        assert image.series == (poly * a_c.series).truncate(image.series.order)

    def test_bilinearity(self):
        c = gf.series_connected(6)
        a_c = alien_connected(6)
        csq = (c * c).truncate(6)
        a_csq = alien_product(c, a_c, c, a_c)
        h = gf.series_two_connected_sequences(6)
        a_h = zero_image(6)
        lhs = alien_product(c + csq, image_add(a_c, a_csq), h, a_h)
        rhs = image_add(
            alien_product(c, a_c, h, a_h),
            alien_product(csq, a_csq, h, a_h),
        )
        assert lhs.series == rhs.series

    def test_prefactor_mismatch_rejected(self):
        c = gf.series_connected(6)
        a_c = alien_connected(6)
        a_c2 = alien_two_connected(6)
        with pytest.raises(ValueError, match="prefactor"):
            alien_product(c, a_c, c, a_c2)


class TestChainRule:
    def test_identity_inner(self):
        c2 = gf.series_two_connected(8)
        a_c2 = alien_two_connected(8)
        x = PowerSeries.x(8)
        image = alien_compose(c2, a_c2, x, zero_image(8))
        assert image.series == a_c2.series.truncate(image.series.order)
        assert image.e_exp == a_c2.e_exp

    def test_rejects_non_tangent_inner(self):
        c = gf.series_connected(6)
        a_c = alien_connected(6)
        with pytest.raises(ValueError, match="tangent"):
            alien_compose(c, a_c, 2 * PowerSeries.x(6), zero_image(6))

    def test_functional_relation_step(self):
        # chain rule across C2(C^2/x) lands on (2C - x) * image(C)
        order = 12
        work = order + 3
        c = gf.series_connected(work + 1)
        t = gf.connected_sq_div_x(work)
        c2 = gf.series_two_connected(work)
        a_c = alien_connected(work)
        image_t = alien_product(c, a_c, c, a_c)
        got = alien_compose(
            c2, shift_up(alien_two_connected(work), 1), t, image_t, BETA_THREE_HALVES
        )
        expected = (2 * c - PowerSeries.x(c.order)) * a_c.series
        assert got.same_prefactor(a_c)
        for i in range(order + 1):
            assert got.series[i] == expected[i]

    def test_shift_consistency(self):
        image = alien_two_connected(6)
        lifted = shift_up(image, 1)
        assert lifted.series == image.series.mul_x_pow(1)
        assert lifted.series.div_x_pow(1) == image.series


class TestInverseRule:
    def test_identity(self):
        x = PowerSeries.x(8)
        image = alien_inverse(x, zero_image(8))
        assert image.series.is_zero()

    def test_cancels_through_chain_rule(self):
        # image of g^-1(g) must be the image of x, i.e. zero
        order = 15
        work = order + 4
        c = gf.series_connected(work + 1)
        t = gf.connected_sq_div_x(work)
        a_c = alien_connected(work)
        image_t = alien_product(c, a_c, c, a_c)  # image of t at the lifted offset
        inverse_image = alien_inverse(t, image_t, BETA_THREE_HALVES)
        composed = alien_compose(t.reverse(), inverse_image, t, image_t, BETA_THREE_HALVES)
        for i in range(order + 1):
            assert composed.series[i] == 0

    def test_substitution_route_matches_closed_form(self):
        # Chaining the composed image back through the inverse substitution
        # must land on the direct 2-connected closed form: with F = C2(t),
        # the image of F(y) computed from the inversion rule equals the image
        # of C2 itself at the lifted offset.
        order = 10
        work = order + 4
        c = gf.series_connected(work + 1)
        t = gf.connected_sq_div_x(work)
        a_c = alien_connected(work)
        image_t = alien_product(c, a_c, c, a_c)
        y = t.reverse()
        a_y = alien_inverse(t, image_t, BETA_THREE_HALVES)
        a_c2 = alien_two_connected(work)
        composed = alien_compose(
            gf.series_two_connected(work),
            shift_up(a_c2, 1),
            t,
            image_t,
            BETA_THREE_HALVES,
        )
        back = alien_compose(t - c, composed, y, a_y, BETA_THREE_HALVES)
        direct = shift_up(a_c2, 1)
        assert back.same_prefactor(direct)
        for i in range(order + 1):
            assert back.series[i] == direct.series[i]


class TestImageAddition:
    def test_zero_combines_with_anything(self):
        a = alien_connected(5)
        assert image_add(zero_image(5), a).series == a.series
        assert image_add(a, zero_image(5)).series == a.series

    def test_mismatch_raises(self):
        with pytest.raises(ValueError, match="prefactor"):
            image_add(alien_connected(5), alien_two_connected(5))


class TestDerivationChain:
    def test_passes_at_20(self):
        report = verify_derivation_chain(20)
        assert report.passed
        assert [s.name for s in report.steps] == [
            "chain-rule-expansion",
            "substituted-closed-form",
            "inverted-closed-form",
        ]

    def test_passes_at_6(self):
        assert verify_derivation_chain(6).passed

    def test_corrupted_connected_image_fails_step_one(self, monkeypatch):
        work = 6 + 3
        image = alien_connected(work)
        bumped = list(image.series.coefficients)
        bumped[3] += 1
        corrupted = AsymptoticImage(
            image.e_exp, image.sqrt_two_pi_exp, PowerSeries(bumped)
        )
        monkeypatch.setattr(alien, "alien_connected", lambda order: corrupted)
        report = verify_derivation_chain(6)
        step = report.steps[0]
        assert not step.passed
        assert step.first_mismatch is not None

    def test_corrupted_two_connected_prefactor_fails_steps(self, monkeypatch):
        image = alien_two_connected(15)
        corrupted = AsymptoticImage(
            image.e_exp + 1, image.sqrt_two_pi_exp, image.series
        )
        monkeypatch.setattr(alien, "alien_two_connected", lambda order: corrupted)
        report = verify_derivation_chain(12)
        assert not report.passed
        assert not report.steps[0].passed
        assert not report.steps[1].passed

    def test_corrupted_connected_prefactor_fails_step_one(self, monkeypatch):
        image = alien_connected(16)
        corrupted = AsymptoticImage(
            image.e_exp, image.sqrt_two_pi_exp + 1, image.series
        )
        monkeypatch.setattr(alien, "alien_connected", lambda order: corrupted)
        report = verify_derivation_chain(12)
        assert not report.passed
        assert not report.steps[0].passed

    def test_corrupted_two_connected_image_fails(self, monkeypatch):
        work = 6 + 3
        image = alien_two_connected(work)
        bumped = list(image.series.coefficients)
        bumped[2] += 1
        corrupted = AsymptoticImage(
            image.e_exp, image.sqrt_two_pi_exp, PowerSeries(bumped)
        )
        monkeypatch.setattr(alien, "alien_two_connected", lambda order: corrupted)
        report = verify_derivation_chain(6)
        assert not report.passed
