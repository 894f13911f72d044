"""Counting series: frozen coefficients, functional identities, oracle parity."""

from fractions import Fraction

import pytest

from chorddiag import gf, oracle
from chorddiag.series import PowerSeries, solve_composition


def ints(f: PowerSeries) -> list[int]:
    return [int(c) for c in f.coefficients]


class TestAllDiagrams:
    def test_order_zero(self):
        assert ints(gf.series_all_diagrams(0)) == [1]

    def test_first_values(self):
        assert ints(gf.series_all_diagrams(3)) == [1, 1, 3, 15]

    def test_coefficient_six(self):
        product = 1
        for odd in (1, 3, 5, 7, 9, 11):
            product *= odd
        assert gf.series_all_diagrams(6)[6] == product == 10395

    def test_double_factorial(self):
        assert gf.double_factorial_odd(0) == 1
        assert gf.double_factorial_odd(8) == 2027025
        with pytest.raises(ValueError):
            gf.double_factorial_odd(-1)


class TestConnected:
    def test_first_values(self):
        assert ints(gf.series_connected(6)) == [0, 1, 1, 4, 27, 248, 2830]

    def test_relation_via_substitution(self):
        assert gf.check_all_from_connected(30)

    def test_relation_via_root_recursion(self):
        assert gf.check_all_root_recursion(30)

    def test_root_removal_identity(self):
        assert gf.check_connected_root_removal(40)

    def test_half_convolution_equals_full_range_recurrence(self):
        order = 300
        c = [0, 1] + [0] * (order - 1)
        for n in range(2, order + 1):
            c[n] = (n - 1) * sum(c[i] * c[n - i] for i in range(1, n))
        assert gf.series_connected(order).coefficients == tuple(c)

    def test_lemma_checks_all_orders(self):
        for order in (6, 15, 40):
            assert all(ok for _, ok in gf.lemma_checks(order))


class TestTwoConnected:
    def test_first_values(self):
        assert ints(gf.series_two_connected(6)) == [0, 0, 1, 1, 7, 63, 729]

    def test_seventh_coefficient(self):
        assert gf.series_two_connected(7)[7] == 10113

    def test_functional_relation_residual_order30(self):
        assert gf.functional_relation_residual(30).is_zero()

    def test_substitution_inverse(self):
        assert gf.check_substitution_inverse(20)

    def test_connectivity_one(self):
        assert ints(gf.series_connectivity_one(6)) == [0, 1, 0, 3, 20, 185, 2101]

    def test_sequences(self):
        assert ints(gf.series_two_connected_sequences(6)) == [1, 1, 2, 10, 82, 898, 12018]

    def test_sequences_plus_x_squared(self):
        s = gf.series_two_connected_sequences(6)
        got = (s + PowerSeries.x(6)) ** 2
        assert ints(got) == [1, 4, 8, 28, 208, 2164, 28056]


class TestTwoConnectedRoutes:
    """C2 comes from its differential equation; these pin it to the other routes."""

    def test_recurrence_equals_triangular_solve(self):
        # C2(t) = t - C, solved for C2 by back-substitution on t = C^2/x;
        # each coefficient depends only on lower ones, so one solve at the
        # top order gives every lower order as a prefix
        top = 150
        t = ints(gf.connected_sq_div_x(top))
        c = ints(gf.series_connected(top))
        solved = solve_composition(t, [ti - ci for ti, ci in zip(t, c)], top)
        for order in range(2, top + 1):
            assert ints(gf.series_two_connected(order)) == solved[: order + 1], order

    def test_differential_equation_residual(self):
        # 2t*y*(1 - y') - (t - y)(t^2 - t*y + y) with y = C2(t)
        order = 100
        y_full = gf.series_two_connected(order + 1)
        y = y_full.truncate(order)
        t = PowerSeries.x(order)
        residual = 2 * t * y * (1 - y_full.derivative()) - (t - y) * (
            t * t - t * y + y
        )
        assert residual.order == order
        assert residual.is_zero()

    def test_sequences_equal_fraction_reciprocal(self):
        for order in range(1, 101):
            c2_over_x = gf.series_two_connected(order + 1).div_x_pow(1)
            one_minus = PowerSeries.one(order) - c2_over_x
            s = gf.series_two_connected_sequences(order)
            assert s == one_minus.reciprocal(), order
        assert s * one_minus == PowerSeries.one(order)


class TestDerivativeIdentity:
    def test_holds_at_20(self):
        assert gf.verify_derivative_identity(20)

    def test_holds_at_5(self):
        assert gf.verify_derivative_identity(5)

    def test_perturbation_breaks_it(self):
        c2 = gf.series_two_connected(23)
        bumped = list(c2.coefficients)
        bumped[4] += 1
        assert not gf.verify_derivative_identity(20, PowerSeries(bumped))


class TestFamilies:
    def test_lookup(self):
        assert gf.series_family("C2", 6) == gf.series_two_connected(6)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            gf.series_family("X", 6)


class TestDecompositionTable:
    def test_rows_match_reference(self):
        rows = gf.decomposition_table_series(8)
        for name, expected in gf.DECOMPOSITION_REFERENCE.items():
            got = tuple(rows[name][i] for i in range(len(expected)))
            assert got == tuple(Fraction(e) for e in expected), name

    def test_rows_reassemble_connected_series(self):
        rows = gf.decomposition_table_series(10)
        total = (
            PowerSeries.x(10)
            + rows["C^2 * [C2(t)/t^2]"].truncate(10)
            + rows["(C-x)/x * C^2 * [C2(t)/t^2]"].truncate(10)
        )
        assert total == gf.series_connected(10)

    def test_case_rows_match_oracle_censuses(self):
        rows = gf.decomposition_table_series(8)
        for n in range(2, 6):
            counts = oracle.case_census(n)
            assert rows["C^2 * [C2(t)/t^2]"][n] == counts[oracle.DecompositionCase.ROOT_FREE]
            assert (
                rows["(C-x)/x * C^2 * [C2(t)/t^2]"][n]
                == counts[oracle.DecompositionCase.ROOT_COVERED]
            )


class TestOracleParity:
    def test_series_match_brute_force(self):
        d = gf.series_all_diagrams(5)
        c = gf.series_connected(5)
        c2 = gf.series_two_connected(5)
        for n in range(1, 6):
            census = oracle.class_census(n)
            assert census["all"] == d[n]
            assert census["connected"] == c[n]
            assert census["2connected"] == c2[n]
