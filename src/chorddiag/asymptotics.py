"""Numeric evaluation of the asymptotic expansions, with one rounding site.

An asymptotic image predicts the counting sequence through partial sums
f_n ~ e^p * sum_{k<R} c_k * (2(n-k)-1)!!, after the sqrt(2*pi) of the
expansion scale cancels against the image's (2*pi)^(-1/2). The partial sums
are exact rationals; the single transcendental factor (a power of e, and a
residual power of sqrt(2*pi) if the image carries one) is applied last at
the requested precision.

Constants come from series with proven remainder bounds: e from the Taylor
partial sums (remainder below twice the first omitted term), pi from the
two-term arctan formula pi = 16*atan(1/5) - 4*atan(1/239) (alternating, so
the remainder is below the first omitted term), square roots from integer
square roots of scaled values. Everything is computed with ten guard digits,
which keeps the relative error of a rendered value far below half an ulp of
its last displayed digit, and each constant is computed once per precision.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import floor, isqrt, log10
from typing import Iterable, Sequence

from . import gf
from .alien import AsymptoticImage
from .series import _cleared

GUARD_DIGITS = 10


def gamma_scale(n: int, k: int) -> int:
    """Double-factorial part (2(n-k)-1)!! of the expansion scale at term k."""
    if n - k < 1:
        raise ValueError(f"expansion term undefined: need n - k >= 1, got {n - k}")
    return gf.double_factorial_odd(n - k)


class HighPrecisionDecimal(namedtuple("HighPrecisionDecimal", ["value", "digits"])):
    """A rational approximant together with the digits it is good to."""

    __slots__ = ()

    def to_decimal_string(self, digits: int | None = None) -> str:
        return format_significant(self.value, self.digits if digits is None else digits)

    def __str__(self) -> str:
        return self.to_decimal_string()

    def __float__(self) -> float:
        return float(self.value)


def format_significant(value: Fraction, digits: int) -> str:
    """Render a rational with the given number of significant digits."""
    if digits < 1:
        raise ValueError("digits must be positive")
    if value == 0:
        return "0." + "0" * (digits - 1)
    sign = "-" if value < 0 else ""
    v = abs(value)
    # The floating-point estimate is off by at most one near a power of ten;
    # exact comparisons settle it.
    exponent = floor(log10(v.numerator) - log10(v.denominator))
    if v < Fraction(10) ** exponent:
        exponent -= 1
    elif v >= Fraction(10) ** (exponent + 1):
        exponent += 1
    scaled = v * Fraction(10) ** (digits - 1 - exponent)
    mantissa, rest = divmod(scaled.numerator, scaled.denominator)
    if 2 * rest >= scaled.denominator:
        mantissa += 1
    text = str(mantissa)
    if len(text) > digits:  # rounding carried over, e.g. 9.99 -> 10.0
        text = text[:digits]
        exponent += 1
    if 0 <= exponent < digits:
        int_part = text[: exponent + 1]
        frac_part = text[exponent + 1 :]
        return f"{sign}{int_part}.{frac_part}" if frac_part else f"{sign}{int_part}"
    if -6 < exponent < 0:
        return f"{sign}0.{'0' * (-exponent - 1)}{text}"
    return f"{sign}{text[0]}.{text[1:]}e{exponent}"


@lru_cache
def _exp_fraction(q: Fraction, digits: int) -> Fraction:
    """e^q for rational q, with relative error below 10^-digits.

    Taylor partial sums; for K > 2|q| the remainder after the x^K term is
    below twice the first omitted term, so summing until that term drops
    under the target bound (scaled by e^-|q| >= 4^-|q|) suffices. With
    q = a/b the loop runs on integers: the partial sum is total / (b^k k!)
    and the k-th term a^k / (b^k k!), with one Fraction at the end.
    """
    a, b = q.numerator, q.denominator
    bound = 10 ** (digits + 2) * 4 ** (abs(q).__ceil__() + 1)
    total = power = denominator = 1
    k = 0
    while True:
        k += 1
        power *= a
        denominator *= b * k
        total = total * b * k + power
        if k * b > 2 * abs(a) and abs(power) * bound < denominator:
            return Fraction(total, denominator)


def _arctan_inverse(m: int, digits: int) -> Fraction:
    """arctan(1/m) by its alternating series; remainder below the next term."""
    tolerance = Fraction(1, 10 ** (digits + 2))
    total = Fraction(0)
    k = 0
    while True:
        term = Fraction((-1) ** k, (2 * k + 1) * m ** (2 * k + 1))
        total += term
        if abs(term) < tolerance:
            return total
        k += 1


def _sqrt_fraction(value: Fraction, digits: int) -> Fraction:
    """sqrt by integer square root of the value scaled by 10^(2*extra)."""
    if value < 0:
        raise ValueError("square root of a negative value")
    extra = digits + 4
    scaled = value * Fraction(10) ** (2 * extra)
    root = isqrt(scaled.numerator // scaled.denominator)
    return Fraction(root, 10**extra)


@lru_cache
def _sqrt_two_pi(digits: int) -> Fraction:
    """sqrt(2*pi) to ``digits`` digits, with pi = 16*atan(1/5) - 4*atan(1/239)."""
    pi = 16 * _arctan_inverse(5, digits + 2) - 4 * _arctan_inverse(239, digits + 2)
    return _sqrt_fraction(2 * pi, digits)


def const_e(digits: int) -> HighPrecisionDecimal:
    """e to the requested number of significant digits."""
    if digits < 1:
        raise ValueError("digits must be positive")
    return HighPrecisionDecimal(_exp_fraction(Fraction(1), digits + GUARD_DIGITS), digits)


def const_sqrt_two_pi(digits: int) -> HighPrecisionDecimal:
    """sqrt(2*pi) to the requested number of significant digits."""
    if digits < 1:
        raise ValueError("digits must be positive")
    return HighPrecisionDecimal(_sqrt_two_pi(digits + GUARD_DIGITS), digits)


def _transcendental_factor(image: AsymptoticImage, digits: int) -> Fraction:
    """e^(e_exp) times any residual power of sqrt(2*pi) beyond the -1 that
    cancels against the expansion scale."""
    work = digits + GUARD_DIGITS
    factor = _exp_fraction(Fraction(image.e_exp), work)
    residual = image.sqrt_two_pi_exp + 1
    if residual:
        factor *= _sqrt_two_pi(work) ** residual
    return factor


def estimate(
    image: AsymptoticImage, n: int, terms: int, digits: int = 30
) -> HighPrecisionDecimal:
    """Partial-sum prediction e^p * sum_{k<terms} c_k (2(n-k)-1)!!.

    ``terms`` may use at most the image's computed coefficients, and the
    expansion point must satisfy n - terms >= 0; below n - terms < 5 the
    scale degenerates and a warning is issued.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    if terms < 1 or terms > image.series.order + 1:
        raise ValueError(
            f"terms must lie in 1..{image.series.order + 1} (coefficients computed)"
        )
    if n - terms < 0:
        raise ValueError("expansion needs n - terms >= 0")
    if n - terms < 5:
        warnings.warn(
            f"asymptotic estimate with n - terms = {n - terms} < 5 is unreliable",
            stacklevel=2,
        )
    # Horner in k: (2(n-k)-1)!! is (2(n-R)+1)!! times small odd factors, so
    # the sum runs on the cleared numerators with one big product at the end.
    c, d = _cleared(image.series.coefficients[:terms])
    total = 0
    for k, v in enumerate(c):
        total = total * (2 * (n - k) + 1) + v
    partial = Fraction(total * gamma_scale(n, terms - 1), d or 1)
    return HighPrecisionDecimal(partial * _transcendental_factor(image, digits), digits)


class ErrorRow(
    namedtuple(
        "ErrorRow",
        ["n", "terms", "estimate", "exact", "relative_error", "normalized_error"],
    )
):
    """One row of error_table: the estimate at (n, terms) against the exact count."""

    __slots__ = ()


def error_table(
    image: AsymptoticImage,
    exact: Sequence[int],
    n_range: Iterable[int],
    terms_range: Iterable[int],
    digits: int = 30,
) -> list[ErrorRow]:
    """Estimate-vs-exact rows; ``exact[n]`` must cover every requested n.

    The normalized error |exact - estimate| / (2(n-R)-1)!! is the quantity
    the factorial-divergence definition bounds for each fixed R. It needs
    n > R, which is checked for every pair before anything is estimated.
    """
    n_values, terms_values = sorted(n_range), sorted(terms_range)
    if n_values and terms_values and n_values[0] <= terms_values[-1]:
        raise ValueError(
            "the normalized error needs n > terms for every row, "
            f"got n = {n_values[0]} with terms = {terms_values[-1]}"
        )
    rows = []
    for n in n_values:
        if n >= len(exact):
            raise ValueError(f"exact coefficient for n={n} not supplied")
        for terms in terms_values:
            est = estimate(image, n, terms, digits)
            diff = abs(Fraction(exact[n]) - est.value)
            rel = diff / abs(Fraction(exact[n])) if exact[n] else Fraction(0)
            rows.append(
                ErrorRow(
                    n=n,
                    terms=terms,
                    estimate=est,
                    exact=exact[n],
                    relative_error=rel,
                    normalized_error=diff / gamma_scale(n, terms),
                )
            )
    return rows


class ProbabilityCheck(
    namedtuple("ProbabilityCheck", ["n", "ratio", "model", "deviation"])
):
    """The exact 2-connected share at n against the model e^-2 * (1 - 3/n)."""

    __slots__ = ()

    @property
    def scaled_deviation(self) -> Fraction:
        """deviation * n^2, the quantity the 1/n^2 error term keeps bounded."""
        return self.deviation.value * self.n**2


def probability_check(n: int, digits: int = 30) -> ProbabilityCheck:
    """Share of 2-connected diagrams among all diagrams on n chords.

    Compares the exact ratio against the model e^-2 * (1 - 3/n); their
    difference times n^2 stays bounded as n grows, and the ratio itself
    approaches e^-2.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if digits < 1:
        raise ValueError("digits must be positive")
    exact = gf.series_two_connected(n)[n]
    ratio = Fraction(exact, gf.double_factorial_odd(n))
    work = digits + GUARD_DIGITS
    e_minus_2 = _exp_fraction(Fraction(-2), work)
    model = e_minus_2 * (1 - Fraction(3, n))
    return ProbabilityCheck(
        n=n,
        ratio=ratio,
        model=HighPrecisionDecimal(model, digits),
        deviation=HighPrecisionDecimal(ratio - model, digits),
    )
