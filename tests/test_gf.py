"""Counting series: frozen coefficients, functional identities, oracle parity."""

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorddiag import alien, gf, oracle, series
from chorddiag.alien import AsymptoticImage
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
        # S comes from its own recurrence; 1/(1 - C2/x) is its definition
        for order in (*range(1, 101), 300):
            c2_over_x = gf.series_two_connected(order + 1).div_x_pow(1)
            one_minus = PowerSeries.one(order) - c2_over_x
            s = gf.series_two_connected_sequences(order)
            assert s == one_minus.reciprocal(), order
        assert s * one_minus == PowerSeries.one(order)

    def test_sequences_differential_equation(self):
        # 2xS'(S - 1) = S(S - 1 - x), the equation S's recurrence solves
        order = 80
        s = gf.series_two_connected_sequences(order + 1)
        x = PowerSeries.x(order)
        lhs = 2 * x * s.derivative() * (s.truncate(order) - 1)
        assert lhs == s.truncate(order) * (s.truncate(order) - 1 - x)


class TestSquaresFromRecurrences:
    """C^2/x and C2^2 are read off the recurrences; these pin them to products."""

    ORDER = 300

    def test_connected_sq_div_x_is_the_product(self):
        c = gf.series_connected(self.ORDER + 1)
        assert gf.connected_sq_div_x(self.ORDER) == (c * c).div_x_pow(1)

    def test_two_connected_sq_is_the_product(self):
        y = gf.series_two_connected(self.ORDER)
        assert gf.two_connected_sq(self.ORDER) == y * y
        assert gf.two_connected_sq(self.ORDER).coefficients[:6] == (0, 0, 0, 0, 1, 2)

    def test_division_guard_names_the_connected_family(self, monkeypatch):
        c = gf.series_connected
        monkeypatch.setattr(gf, "series_connected", lambda order: c(order) + PowerSeries.x(order) ** 5)
        gf.connected_sq_div_x.cache_clear()
        with pytest.raises(AssertionError, match="C_5 divisible by 4 for the connected family"):
            gf.connected_sq_div_x(10)
        assert gf.connected_sq_div_x.cache_info().currsize == 1  # the seed t_0 = 0
        monkeypatch.undo()
        assert ints(gf.connected_sq_div_x(6)) == [0, 1, 2, 9, 62, 566, 6372]


class TestDerivativeIdentity:
    def test_holds_at_20(self):
        assert gf.verify_derivative_identity(20)

    def test_holds_at_5(self):
        assert gf.verify_derivative_identity(5)

    def test_perturbation_breaks_it(self, monkeypatch):
        c2 = gf.series_two_connected(23)
        bumped = list(c2.coefficients)
        bumped[4] += 1
        monkeypatch.setattr(gf, "series_two_connected", lambda order: PowerSeries(bumped))
        assert not gf.verify_derivative_identity(20)


class TestFamilies:
    def test_lookup(self):
        assert gf.series_family("C2", 6) == gf.series_two_connected(6)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            gf.series_family("X", 6)

    @pytest.mark.parametrize(
        "builder", [*gf.FAMILIES.values(), gf.connected_sq_div_x], ids=[*gf.FAMILIES, "C^2/x"]
    )
    def test_served_as_ints(self, builder):
        assert all(type(c) is int for c in builder(40).coefficients)


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


# Every public builder with a grow-only cache; each takes any order >= 0.
CACHED = {
    "D": gf.series_all_diagrams,
    "C": gf.series_connected,
    "C^2/x": gf.connected_sq_div_x,
    "C2": gf.series_two_connected,
    "S": gf.series_two_connected_sequences,
    "image C": alien.alien_connected,
    "image C2": alien.alien_two_connected,
}
# C1 reads the caches of C and C2, and C2^2 shares the cache of C2.
BUILDERS = {
    **CACHED,
    "C1": gf.series_connectivity_one,
    "C2^2": gf.two_connected_sq,
}


def clear_all_caches():
    for build in CACHED.values():
        build.cache_clear()


def truncated(result, order):
    if isinstance(result, AsymptoticImage):
        return AsymptoticImage(
            result.e_exp, result.sqrt_two_pi_exp, result.series.truncate(order)
        )
    return result.truncate(order)


class TestGrowOnly:
    @given(
        st.lists(
            st.tuples(st.sampled_from(sorted(BUILDERS)), st.integers(0, 80)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_order_sequence_gives_prefixes_of_cold_results(self, calls):
        clear_all_caches()
        results = [BUILDERS[name](order) for name, order in calls]
        for (name, order), result in zip(calls, results):
            top = max(o for n, o in calls if n == name)
            assert result == truncated(BUILDERS[name](top), order), (name, order)
        for (name, order), result in zip(calls, results):
            clear_all_caches()
            assert result == BUILDERS[name](order), (name, order)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_order_from_zero_is_a_prefix(self, name):
        build = BUILDERS[name]
        clear_all_caches()
        top = build(10)
        for order in (0, 1, 2):
            assert build(order) == truncated(top, order), order
            clear_all_caches()
            assert build(order) == truncated(top, order), order
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            build(-1)

    def test_leading_zeros_are_served(self):
        assert gf.series_connected(0).coefficients == (0,)
        assert gf.series_two_connected(1).coefficients == (0, 0)
        assert gf.series_connectivity_one(0).coefficients == (0,)
        assert gf.two_connected_sq(0).coefficients == (0,)

    def test_a_negative_order_is_refused_before_any_growth(self):
        clear_all_caches()
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            gf._connected.grow(-1)
        assert gf.series_connected.cache_info() == (0, 0, None, 2)

    def test_served_series_are_the_cached_ints(self):
        caches = {
            gf.series_all_diagrams: gf._all_diagrams,
            gf.series_connected: gf._connected,
            gf.connected_sq_div_x: gf._connected_sq_div_x,
            gf.series_two_connected: gf._two_connected,
            gf.series_two_connected_sequences: gf._sequences,
        }
        for build, cache in caches.items():
            served = build(30)
            cached = cache.grow(30)[-1]
            assert served.coefficients == tuple(cached[:31]), build.__name__
            assert all(type(c) is int for c in served.coefficients), build.__name__
            assert served == PowerSeries(cached[:31])
            build(40)  # growing the cache leaves a served series as it was
            assert served.order == 30
        with pytest.raises(TypeError, match="float"):
            PowerSeries([1.0])

    def test_two_connected_seam(self):
        gf.series_two_connected.cache_clear()
        gf.series_two_connected(10)
        grown = gf.series_two_connected(20)
        gf.series_two_connected.cache_clear()
        assert grown == gf.series_two_connected(20)
        assert grown[7] == 10113

    def test_growing_computes_only_the_new_coefficients(self, monkeypatch):
        pair_sums, falling_sums = [], []
        pair_sum, falling_sum = gf._pair_sum, series._falling_sum
        monkeypatch.setattr(
            gf, "_pair_sum", lambda y, k, low=1: pair_sums.append(k) or pair_sum(y, k, low)
        )
        monkeypatch.setattr(
            series, "_falling_sum", lambda a, e, m: falling_sums.append(m) or falling_sum(a, e, m)
        )
        clear_all_caches()
        for build in (gf.series_connected, gf.series_two_connected):
            build(40)
        pair_sums.clear()
        gf.series_connected(60)
        assert pair_sums == list(range(41, 61))
        pair_sums.clear()
        gf.series_two_connected(60)
        # P_{m+1} for each new coefficient m = 41..60, and nothing at the seam
        assert pair_sums == list(range(42, 62))
        pair_sums.clear()
        gf.two_connected_sq(61)  # kept by C2's recurrence: no pair sum at all
        assert pair_sums == []
        alien.alien_connected(40)
        gf.connected_sq_div_x(62)  # the image's input at 60, grown beforehand
        falling_sums.clear()
        alien.alien_connected(60)
        # 20 new terms of the scaled exponential, and nothing else
        assert falling_sums == list(range(40, 60))
        for build in (gf.series_two_connected, alien.alien_connected):
            assert build.cache_info().currsize == 61

    def test_sequences_and_two_connected_image_square_nothing(self, monkeypatch):
        clear_all_caches()
        gf.series_two_connected_sequences(60)
        assert gf.series_two_connected.cache_info().currsize == 3  # S grows no C2
        gf.two_connected_sq(65)  # the image's input at 60, grown beforehand
        pair_sums = []
        monkeypatch.setattr(gf, "_pair_sum", lambda *args: pair_sums.append(args))
        alien.alien_two_connected(60)
        assert pair_sums == []

    def test_cache_info_counts_a_miss_exactly_when_the_list_grows(self):
        clear_all_caches()
        for name, build in CACHED.items():
            info = build.cache_info()
            assert (info.hits, info.misses, info.maxsize) == (0, 0, None), name
            assert info.currsize == {"D": 1, "C": 2, "C^2/x": 1, "C2": 3, "S": 2}.get(name, 0), name  # seeds
            for order in (5, 3, 5, 9, 9, 12, 2, 12):
                before = build.cache_info()
                build(order)
                after = build.cache_info()
                grew = after.currsize > before.currsize
                assert after.misses - before.misses == grew, (name, order)
                assert after.hits - before.hits == (not grew), (name, order)
        # C^2/x grows C as it needs it, and each growth of C is a miss of C
        clear_all_caches()
        gf.series_connected(11)
        gf.connected_sq_div_x(10)
        assert gf.series_connected.cache_info()[:2] == (1, 1)
        gf.connected_sq_div_x(11)
        assert gf.series_connected.cache_info()[:2] == (1, 2)
        assert gf.connected_sq_div_x.cache_info() == (0, 2, None, 12)

    def test_two_connected_sq_counts_in_the_cache_of_c2_alone(self):
        assert not hasattr(gf.two_connected_sq, "cache_info")
        assert not hasattr(gf.two_connected_sq, "cache_clear")
        clear_all_caches()
        gf.two_connected_sq(3)  # P_0..P_3 need C2 to index 2, the seeds
        assert gf.series_two_connected.cache_info() == (1, 0, None, 3)
        gf.two_connected_sq(11)  # grows C2 to index 10
        assert gf.series_two_connected.cache_info() == (1, 1, None, 11)
        gf.series_two_connected(10)
        assert gf.series_two_connected.cache_info() == (2, 1, None, 11)

    def test_builders_behind_plain_wrappers(self, monkeypatch):
        # a tracer rebinds every public builder to a plain wrapper, with no
        # cache methods; the families and images must build through those
        expected = {name: build(25) for name, build in BUILDERS.items()}
        for attr in (
            "series_all_diagrams",
            "series_connected",
            "connected_sq_div_x",
            "series_connectivity_one",
            "series_two_connected",
            "two_connected_sq",
            "series_two_connected_sequences",
        ):
            build = getattr(gf, attr)
            wrapper = lambda order, build=build: build(order)  # noqa: E731
            monkeypatch.setattr(gf, attr, wrapper)
            for key, value in gf.FAMILIES.items():
                if value is build:
                    monkeypatch.setitem(gf.FAMILIES, key, wrapper)
        clear_all_caches()
        for name in ("D", "C", "C1", "C2", "S"):
            assert gf.series_family(name, 25) == expected[name], name
        assert gf.connected_sq_div_x(25) == expected["C^2/x"]
        assert gf.two_connected_sq(25) == expected["C2^2"]
        assert alien.alien_connected(25) == expected["image C"]
        assert alien.alien_two_connected(25) == expected["image C2"]

    def test_threads_share_the_caches(self):
        expected = {name: build(60) for name, build in BUILDERS.items()}
        clear_all_caches()
        failures = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(400):
                    name = rng.choice(sorted(BUILDERS))
                    order = rng.randint(0, 60)
                    if name in CACHED and rng.random() < 0.1:
                        CACHED[name].cache_clear()
                    if BUILDERS[name](order) != truncated(expected[name], order):
                        failures.append((name, order))
            except Exception as exc:  # reported through failures
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
