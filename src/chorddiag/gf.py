"""Generating series for rooted chord diagrams by connectivity class.

The connected series is produced by a coefficient recurrence extracted from
the root-removal relation 2xCC' = C(1+C) - x, which determines each new
coefficient from the earlier ones by a direct linear solve; the two classic
diagram relations D = 1 + C(xD^2) and D = 1 + xD + 2x^2 D' then serve as
independent cross-checks.

The 2-connected series has its own differential equation. Write the
functional relation C = t - C2(t), t = C^2/x, as x = (t - y)^2/t with
y = C2(t); substituting this change of variable into 2xCC' = C(1+C) - x
leaves y' only linearly, and what remains is

    2t*y*(1 - y') = (t - y)(t^2 - t*y + y),

whose coefficient form fixes each coefficient of C2 on the integers. The
functional relation itself is then no longer how C2 is built, so
functional_relation_residual, check_substitution_inverse and
verify_derivative_identity check the differential equation's output against
the paper's relation instead of restating it.

All series are exact and computed on int lists, with a PowerSeries built
only at the end; results are memoized per (family, order) and safe to
share, since PowerSeries values are immutable.
"""

from __future__ import annotations

from functools import lru_cache

from .series import (
    PowerSeries,
    integer_coefficients,
    truncated_product,
    truncated_reciprocal,
)


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! for n >= 0, with the empty product (-1)!! = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = 1
    for k in range(1, n + 1):
        result *= 2 * k - 1
    return result


@lru_cache(maxsize=None)
def series_all_diagrams(order: int) -> PowerSeries:
    """D: coefficient n counts all rooted diagrams on n chords, (2n-1)!!."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return PowerSeries([double_factorial_odd(n) for n in range(order + 1)])


def _pair_sum(y: list[int], k: int) -> int:
    """The sum of y_i * y_j over i + j = k with i, j >= 1, by symmetry."""
    half = sum(y[i] * y[k - i] for i in range(1, (k + 1) // 2))
    return 2 * half + (y[k // 2] ** 2 if k % 2 == 0 else 0)


@lru_cache(maxsize=None)
def series_connected(order: int) -> PowerSeries:
    """C: coefficient n counts connected diagrams on n chords.

    Recurrence: C_1 = 1 and C_n = (n-1) * sum(C_i * C_{n-i}, i=1..n-1),
    the coefficient form of 2xCC' = C(1+C) - x. The sum is symmetric in i
    and n-i, so ``_pair_sum`` takes half of it.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    c = [0] * (order + 1)
    c[1] = 1
    for n in range(2, order + 1):
        c[n] = (n - 1) * _pair_sum(c, n)
    return PowerSeries(c)


@lru_cache(maxsize=None)
def connected_sq_div_x(order: int) -> PowerSeries:
    """C^2/x, the inner series relating connected and 2-connected counts."""
    c = integer_coefficients(series_connected(order + 1))
    return PowerSeries(truncated_product(c, c, order + 1)[1:])


@lru_cache(maxsize=None)
def series_two_connected(order: int) -> PowerSeries:
    """C2: coefficient n counts 2-connected diagrams on n chords.

    y = C2 solves 2t*y*(1 - y') = (t - y)(t^2 - t*y + y), which follows from
    the paper's relation C = t - C2(t), t = C^2/x, and 2xCC' = C(1+C) - x
    (see the module docstring). Its coefficient form: y_0 = y_1 = 0,
    y_2 = 1 and, for m >= 3,

        y_m = -2*y_{m-1} + m * P_{m+1} + P_m,

    where P_k sums y_i * y_j over i + j = k (only i, j >= 2 contribute).
    P_{m+1} reaches only up to y_{m-1}, and it is the P_m of the next step,
    so each coefficient costs one convolution of integers.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    y = [0, 0, 1] + [0] * (order - 2)
    pair_sum = _pair_sum(y, 3)
    for m in range(3, order + 1):
        next_pair_sum = _pair_sum(y, m + 1)
        y[m] = -2 * y[m - 1] + m * next_pair_sum + pair_sum
        pair_sum = next_pair_sum
    return PowerSeries(y)


def series_connectivity_one(order: int) -> PowerSeries:
    """C1 = C - C2: connected diagrams that a single removal can disconnect."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order < 2:
        return series_connected(order)
    return series_connected(order) - series_two_connected(order)


@lru_cache(maxsize=None)
def series_two_connected_sequences(order: int) -> PowerSeries:
    """S = 1/(1 - C2/x): sequences of 2-connected diagrams, one less chord each.

    1 - C2/x has constant term 1, so its reciprocal stays on the integers.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    c2_over_x = integer_coefficients(series_two_connected(order + 1))[1:]
    one_minus = [(k == 0) - v for k, v in enumerate(c2_over_x)]
    return PowerSeries(truncated_reciprocal(one_minus, order))


FAMILIES = {
    "D": series_all_diagrams,
    "C": series_connected,
    "C1": series_connectivity_one,
    "C2": series_two_connected,
    "S": series_two_connected_sequences,
}


def series_family(family: str, order: int) -> PowerSeries:
    """Look up one of the series families by its CLI name."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose one of {sorted(FAMILIES)}"
        ) from None
    return builder(order)


# -- identity checks -----------------------------------------------------------


def check_all_from_connected(order: int) -> bool:
    """D = 1 + C(x * D^2), exactly to the given order."""
    d = series_all_diagrams(order)
    c = series_connected(order)
    inner = (d * d).mul_x_pow(1).truncate(order)
    return d == c.compose(inner) + 1


def check_all_root_recursion(order: int) -> bool:
    """D = 1 + xD + 2x^2 D', exactly to the given order."""
    d = series_all_diagrams(order)
    rhs = 1 + d.mul_x_pow(1).truncate(order) + 2 * d.derivative().mul_x_pow(2)
    return d.truncate(order - 1) == rhs.truncate(order - 1)


def check_connected_root_removal(order: int) -> bool:
    """2xCC' - C(1+C) + x = 0, exactly to the given order."""
    c = series_connected(order)
    lhs = 2 * (c * c.derivative()).mul_x_pow(1)
    rhs = c * (c + 1) - PowerSeries.x(order)
    return (lhs - rhs).is_zero()


def lemma_checks(order: int) -> list[tuple[str, bool]]:
    """The three classic diagram decomposition identities at one order."""
    return [
        ("all = 1 + connected(x*all^2)", check_all_from_connected(order)),
        ("all = 1 + x*all + 2x^2*all'", check_all_root_recursion(order)),
        ("2x*C*C' = C(1+C) - x", check_connected_root_removal(order)),
    ]


def functional_relation_residual(order: int) -> PowerSeries:
    """C^2/x - C2(C^2/x) - C; identically zero when the relation holds."""
    t = connected_sq_div_x(order)
    c = series_connected(order)
    c2 = series_two_connected(order)
    return t - c2.compose(t) - c


def check_substitution_inverse(order: int) -> bool:
    """The inverse of C^2/x equals (x - C2)^2 / x, exactly."""
    t = connected_sq_div_x(order)
    c2 = series_two_connected(order + 1)
    x = PowerSeries.x(order + 1)
    expected = ((x - c2) ** 2).div_x_pow(1)
    return t.reverse() == expected.truncate(order)


def verify_derivative_identity(
    order: int, two_connected: PowerSeries | None = None
) -> bool:
    """C' = (C - x)/x^2 * [1 - C2'(C^2/x)], exactly to order-1.

    Internally everything is computed with extra truncation margin so the
    comparison at order-1 is fully determined. ``two_connected`` substitutes
    for the computed 2-connected series (so a perturbed series can be shown
    to break the identity).
    """
    if order < 3:
        raise ValueError("order must be at least 3")
    margin = order + 3
    c = series_connected(margin)
    x = PowerSeries.x(margin)
    lhs = series_connected(order).derivative()
    t = connected_sq_div_x(margin)
    c2 = two_connected if two_connected is not None else series_two_connected(margin)
    c2_deriv = c2.derivative()
    factor = 1 - c2_deriv.compose(t)
    rhs = (c - x).div_x_pow(2) * factor
    target = min(order - 1, rhs.order)
    return lhs.truncate(target) == rhs.truncate(target)


# -- reference coefficient tables ----------------------------------------------

DECOMPOSITION_REFERENCE: dict[str, tuple] = {
    "C^2/x": (0, 1, 2, 9, 62, 566, 6372),
    "C2(t)/t^2 at t=C^2/x": (1, 1, 9, 100, 1323, 20088, 342430),
    "C^2 * [C2(t)/t^2]": (0, 0, 1, 3, 20, 189, 2232),
    "(C-x)/x * C^2 * [C2(t)/t^2]": (0, 0, 0, 1, 7, 59, 598),
}


def decomposition_table_series(order: int) -> dict[str, PowerSeries]:
    """The four series of the connected-diagram decomposition.

    Row 3 counts the diagrams whose root endpoint avoids every cut witness
    (the 2-connected core is dressed at each endpoint), row 4 those whose
    root endpoint sits inside one; x plus those two rows reassembles the
    connected series.
    """
    t = connected_sq_div_x(order)
    c = series_connected(order + 1)
    c2_shifted = series_two_connected(order + 2).div_x_pow(2)
    middle = c2_shifted.compose(t)
    csq = (c * c).truncate(middle.order)
    row3 = csq * middle
    row4 = (c - PowerSeries.x(c.order)).div_x_pow(1) * row3
    return {
        "C^2/x": t,
        "C2(t)/t^2 at t=C^2/x": middle,
        "C^2 * [C2(t)/t^2]": row3,
        "(C-x)/x * C^2 * [C2(t)/t^2]": row4,
    }
