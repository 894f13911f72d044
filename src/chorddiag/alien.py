"""Alien-derivative (asymptotic-expansion) calculus for the diagram series.

The counting sequences here diverge factorially: f_n expands in the scale
Gamma_b^a(n) = a^(n+b) * Gamma(n+b) with a = 2, b = 1/2, and the alien
derivative maps f to the generating series of its expansion coefficients.
Images are carried as an exact rational series times a transcendental
prefactor e^p * (2*pi)^(m/2); the prefactors stay symbolic so every
computation below is exact. Adding images requires identical prefactors
(a zero image combines with anything) -- mixed transcendental sums never
occur in the identities verified here, so a mismatch is an error rather
than a coercion.

The closed-form images of the connected and 2-connected series run on
integer lists. Each series part f, with f_0 = 1, solves 2f' = rho * f for
an integer series rho, read off the family's differential equation:
x^2/C^2 = 1 - 2x + x^2 * rho for the connected image and
x^4/C2^2 = (1 - x)^2 + x^2 * rho for the 2-connected one. So f is one
scaled exponential, and n! * 2^n times its n-th coefficient is an integer
(see series._extend_scaled_exp, the one exponential kernel, which
PowerSeries.exp runs too); the only division is the last one, by n! * 2^n.
The connected image reads C^2/x alone and the 2-connected one C2^2 alone,
each kept by its family's recurrence.
Each image keeps its integer rows in one ``gf.GrowOnly`` cache, so a larger
order extends them.

The alien derivative obeys a product rule, and for inner series tangent to
the identity a chain rule and an inversion rule; those three rules, plus the
closed forms for the connected and 2-connected images, are enough to verify
the whole derivation connecting them, step by step, as exact identities.
The chain and inversion rules' transport factor (x/g)^beta * e^((g-x)/(2xg))
is one exponential, of (g-x)/(2xg) - beta*log(g/x), with log the integral
of f'/f. The scale a = 2 is ALPHA, fixed for the whole module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial
from typing import Optional

from . import gf
from .series import (
    PowerSeries,
    _extend_scaled_exp,
    truncated_reciprocal,
)

ALPHA = Fraction(2)
BETA_HALF = Fraction(1, 2)
BETA_THREE_HALVES = Fraction(3, 2)


class AsymptoticImage(
    namedtuple("AsymptoticImage", ["e_exp", "sqrt_two_pi_exp", "series"])
):
    """e^(e_exp) * (2*pi)^(sqrt_two_pi_exp/2) * series(x), all exact.

    ``e_exp`` is a Fraction, ``sqrt_two_pi_exp`` an int and ``series`` a
    PowerSeries.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return self.series.is_zero()

    def same_prefactor(self, other: "AsymptoticImage") -> bool:
        return (
            self.e_exp == other.e_exp
            and self.sqrt_two_pi_exp == other.sqrt_two_pi_exp
        )


def image_add(a: AsymptoticImage, b: AsymptoticImage) -> AsymptoticImage:
    """Sum of images; requires equal prefactors unless one side is zero."""
    if a.is_zero():
        return AsymptoticImage(b.e_exp, b.sqrt_two_pi_exp, a.series + b.series)
    if b.is_zero():
        return AsymptoticImage(a.e_exp, a.sqrt_two_pi_exp, a.series + b.series)
    if not a.same_prefactor(b):
        raise ValueError(
            "cannot add asymptotic images with different transcendental prefactors: "
            f"e^{a.e_exp}*(2pi)^({a.sqrt_two_pi_exp}/2) vs "
            f"e^{b.e_exp}*(2pi)^({b.sqrt_two_pi_exp}/2)"
        )
    return AsymptoticImage(a.e_exp, a.sqrt_two_pi_exp, a.series + b.series)


def exp_with_constant(f: PowerSeries) -> tuple[Fraction, PowerSeries]:
    """Split exp(f) into (c0, exp(f - c0)), c0 a Fraction; e^(c0) stays symbolic."""
    c0 = f[0]
    return Fraction(c0), (f - c0).exp()


def _extend_image(
    quotient: list[int], x2: int, name: str, family: str,
    order: int, inverse: list[int], e: list[int], series: list[Fraction],
) -> None:
    """An image's integer rows, grown to ``order``.

    ``inverse``, the reciprocal of ``quotient``, reaches order + 1 and is
    1 - 2x + x^2 * (x2 + rho); the image's series part f solves
    2f'/f = rho, so e is the scaled exponential (weight 2) of rho.
    """
    truncated_reciprocal(quotient, order + 1, inverse)
    if inverse[:2] != [1, -2]:
        raise AssertionError(f"{name} must start 1 - 2x for the {family} family")
    rho = [v - (k == 0) * x2 for k, v in enumerate(inverse[2:])]
    _extend_scaled_exp(rho, 2, order, e)
    series.extend(Fraction(e[m], 2**m * factorial(m)) for m in range(len(series), order + 1))


def _extend_connected_image(order: int, *rows: list) -> None:
    """x^2/C^2 = 1 - 2x + x^2 * rho, the reciprocal of (C^2/x)/x."""
    t = gf.connected_sq_div_x(order + 2).coefficients
    _extend_image(t[1:], 0, "x^2/C^2", "connected", order, *rows)


_connected_image = gf.GrowOnly(_extend_connected_image, [], [1], [])


@_connected_image.serves
def alien_connected(order: int) -> AsymptoticImage:
    """Image of the connected series: e^-1/sqrt(2pi) * (x/C) * exp-remainder.

    The closed form is (x/C) * e^(-(C^2+2C)/(2x)); the exponent has rational
    constant term 1, which factors out as the e^-1. What remains, f, has
    f_0 = 1 and, by 2xCC' = C(1+C) - x, the integer log-derivative
    2f'/f = rho with x^2/C^2 = 1 - 2x + x^2 * rho, so it is one scaled
    exponential of rho with weight 2.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    series = _connected_image.grow(order)[-1]
    return AsymptoticImage(Fraction(-1), -1, PowerSeries._of(tuple(series[: order + 1])))


def _extend_two_connected_image(order: int, *rows: list) -> None:
    """x^4/C2^2 = (1 - x)^2 + x^2 * rho, from C2^2 as C2's recurrence keeps it."""
    sq = gf.two_connected_sq(order + 5).coefficients
    _extend_image(sq[4:], 1, "x^4/C2^2", "2-connected", order, *rows)


_two_connected_image = gf.GrowOnly(_extend_two_connected_image, [], [1], [])


@_two_connected_image.serves
def alien_two_connected(order: int) -> AsymptoticImage:
    """Image of the 2-connected series.

    Closed form: e^-2/sqrt(2pi) * x^2/(C2*S) * exp(-[(S+x)^2 - 1]/(2x)),
    where S = 1/(1 - C2/x) (see image_table_series). Its series part f has
    f_0 = 1 and, by the differential equation of C2, the integer
    log-derivative 2f'/f = rho with x^4/C2^2 = (1 - x)^2 + x^2 * rho, so it
    is one scaled exponential of rho with weight 2. The series starts
    1 - 6x - 4x^2 - 218/3 x^3 - 890 x^4 - 196838/15 x^5 - ...
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    series = _two_connected_image.grow(order)[-1]
    return AsymptoticImage(Fraction(-2), -1, PowerSeries._of(tuple(series[: order + 1])))


def alien_product(
    f: PowerSeries,
    f_image: AsymptoticImage,
    g: PowerSeries,
    g_image: AsymptoticImage,
) -> AsymptoticImage:
    """Product rule: the image of f*g is f * image(g) + g * image(f)."""
    term_f = AsymptoticImage(
        g_image.e_exp, g_image.sqrt_two_pi_exp, f * g_image.series
    )
    term_g = AsymptoticImage(
        f_image.e_exp, f_image.sqrt_two_pi_exp, g * f_image.series
    )
    return image_add(term_f, term_g)


def _require_tangent_to_identity(g: PowerSeries) -> None:
    if g[0] != 0 or g.order < 1 or g[1] != 1:
        raise ValueError(
            "chain and inversion rules need an inner series tangent to the "
            "identity (c0 = 0, c1 = 1)"
        )


def _exp_transport_factor(g: PowerSeries, beta: Fraction) -> tuple[Fraction, PowerSeries]:
    """(x/g)^beta * exp((g - x)/(ALPHA*x*g)) with its rational e-exponent.

    It is the one exponential exp(w - beta*log(g/x)), w = (g - x)/(ALPHA*x*g).
    log(g/x) has constant term 0, so the exponent's rational constant term
    is w's, g_2/ALPHA, which is returned separately so the series part stays
    exact.
    """
    g_over_x = g.div_x_pow(1)
    w = (g - PowerSeries.x(g.order)).div_x_pow(2) / (ALPHA * g_over_x)
    return exp_with_constant(w - g_over_x.log() * beta)


def alien_compose(
    f: PowerSeries,
    f_image: AsymptoticImage,
    g: PowerSeries,
    g_image: AsymptoticImage,
    beta: Fraction = BETA_HALF,
) -> AsymptoticImage:
    """Chain rule for the image of f(g(x)), g tangent to the identity.

    image(f o g) = f'(g) * image(g)
                 + (x/g)^beta * exp((g-x)/(ALPHA*x*g)) * image(f)(g).

    The derivative and the x^2-division each cost one order of truncation;
    callers wanting order N should provision inputs at N+3.
    """
    _require_tangent_to_identity(g)
    term1 = AsymptoticImage(
        g_image.e_exp,
        g_image.sqrt_two_pi_exp,
        f.derivative().compose(g) * g_image.series,
    )
    const, transport = _exp_transport_factor(g, beta)
    composed = f_image.series.compose(g)
    term2 = AsymptoticImage(
        f_image.e_exp + const,
        f_image.sqrt_two_pi_exp,
        transport * composed,
    )
    return image_add(term1, term2)


def alien_inverse(
    g: PowerSeries,
    g_image: AsymptoticImage,
    beta: Fraction = BETA_HALF,
) -> AsymptoticImage:
    """Inversion rule: the image of the compositional inverse of g.

    image(g^-1) = -(g^-1)' * (x/g^-1)^beta * exp((g^-1 - x)/(ALPHA*x*g^-1))
                  * image(g)(g^-1).
    """
    _require_tangent_to_identity(g)
    ginv = g.reverse()
    const, transport = _exp_transport_factor(ginv, beta)
    series = -(ginv.derivative() * transport * g_image.series.compose(ginv))
    return AsymptoticImage(
        g_image.e_exp + const, g_image.sqrt_two_pi_exp, series
    )


def shift_up(image: AsymptoticImage, m: int) -> AsymptoticImage:
    """Image at scale offset beta+m from the one at beta: multiply by x^m."""
    return AsymptoticImage(
        image.e_exp, image.sqrt_two_pi_exp, image.series.mul_x_pow(m)
    )


# -- reference coefficient table -----------------------------------------------

IMAGE_REFERENCE: dict[str, tuple] = {
    "S": (1, 1, 2, 10, 82, 898, 12018),
    "(S+x)^2": (1, 4, 8, 28, 208, 2164, 28056),
    "[(S+x)^2-1]/(2x)": (2, 4, 14, 104, 1082, 14028),
    "C2*S": (0, 0, 1, 2, 10, 82, 898, 12018),
    "x^2/(C2*S)": (1, -2, -6, -50, -574, -8082),
    "e^2*exp(-[(S+x)^2-1]/(2x))": (
        Fraction(1),
        Fraction(-4),
        Fraction(-6),
        Fraction(-176, 3),
        Fraction(-2008, 3),
        Fraction(-46636, 5),
    ),
}


def image_table_series(order: int) -> dict[str, PowerSeries]:
    """The ingredient series of the 2-connected image's closed form.

    S = 1/(1 - C2/x) gives C2*S = x(S - 1), so C2*S is read off the S row
    and x^2/(C2*S) is the reciprocal of (S - 1)/x. The rows run on integer
    lists, apart from the halving and the last row, which is the exponential
    of the row above it with its constant 2 stripped (the transcendental
    e^-2), so all entries are exact rationals. The image itself does not
    read them.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    s = gf.series_two_connected_sequences(order + 2)
    s_plus_x = [v + (k == 1) for k, v in enumerate(s.coefficients)]
    s_plus_x_sq = [gf._pair_sum(s_plus_x, k, 0) for k in range(order + 3)]
    half = PowerSeries([Fraction(v, 2) for v in s_plus_x_sq[1:]])
    return {
        "S": s,
        "(S+x)^2": PowerSeries(s_plus_x_sq),
        "[(S+x)^2-1]/(2x)": half,
        "C2*S": (s - 1).mul_x_pow(1).truncate(order + 2),
        "x^2/(C2*S)": PowerSeries(truncated_reciprocal(s.coefficients[1:], order)),
        "e^2*exp(-[(S+x)^2-1]/(2x))": (half[0] - half).exp(),
    }


# -- full derivation check ---------------------------------------------------------


class ChainStep(namedtuple("ChainStep", ["name", "passed", "first_mismatch"])):
    """One step of the derivation check.

    ``first_mismatch`` is the first coefficient that differs, None when none
    does.
    """

    __slots__ = ()


class ChainReport(namedtuple("ChainReport", ["order", "steps"])):
    """The order checked and the ChainSteps of verify_derivation_chain."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(step.passed for step in self.steps)


def _first_mismatch(a: PowerSeries, b: PowerSeries, order: int) -> Optional[int]:
    for i in range(order + 1):
        if a[i] != b[i]:
            return i
    return None


def _step(
    name: str,
    a: PowerSeries,
    b: PowerSeries,
    order: int,
    prefactors_agree: bool = True,
) -> ChainStep:
    bad = _first_mismatch(a, b, order)
    return ChainStep(name, bad is None and prefactors_agree, bad)


def verify_derivation_chain(order: int) -> ChainReport:
    """Check each step of the derivation tying the two closed forms together.

    (a) The chain rule applied to the functional relation: the image of the
        composed 2-connected series equals (2C - x) times the connected image.
    (b) The 2-connected image evaluated at C^2/x equals
        1/sqrt(2pi) * C^2/(C-x) * exp(-[C^2 + 2C + 1 - x^2/C^2]/(2x)).
    (c) Composing (b) with the inverse of C^2/x returns the direct closed
        form of the 2-connected image.

    All three are exact identities, verified coefficient by coefficient up to
    ``order``.
    """
    if order < 6:
        raise ValueError("order must be at least 6")
    work = order + 3
    c = gf.series_connected(work + 1)
    t = gf.connected_sq_div_x(work)
    c2 = gf.series_two_connected(work)
    a_c = alien_connected(work)
    a_c2 = alien_two_connected(work)

    # (a) chain rule across the functional relation. Its two terms carry the
    # prefactor of image(t), which is that of image(C), and that of image(C2)
    # times the transport factor's e^(t_2/ALPHA); image_add rejects unlike
    # prefactors, so they are compared before composing.
    if (a_c.e_exp, a_c.sqrt_two_pi_exp) == (
        a_c2.e_exp + t[2] / ALPHA,
        a_c2.sqrt_two_pi_exp,
    ):
        image_t = alien_product(c, a_c, c, a_c)  # image of C^2, equals image of t shifted
        rhs = alien_compose(c2, shift_up(a_c2, 1), t, image_t, BETA_THREE_HALVES)
        lhs = (2 * c - PowerSeries.x(c.order)) * a_c.series  # prefactor of a_c
        step_a = _step("chain-rule-expansion", lhs, rhs.series, order)
    else:
        step_a = ChainStep("chain-rule-expansion", False, None)

    # (b) closed form at the substituted argument
    x = PowerSeries.x(work + 1)
    c_over_x_sq = (c.div_x_pow(1)) ** 2
    exponent = (c * c + 2 * c + (1 - c_over_x_sq.reciprocal())).div_x_pow(1) / 2
    const, remainder = exp_with_constant(-exponent)
    prefront = (c * c).div_x_pow(2) * (c - x).div_x_pow(2).reciprocal()
    rhs_b = prefront * remainder
    lhs_b = a_c2.series.compose(t)
    step_b = _step(
        "substituted-closed-form", lhs_b, rhs_b, order, const == a_c2.e_exp
    )

    # (c) invert the substitution to land on the direct closed form
    y = t.reverse()
    lhs_c = rhs_b.compose(y)
    step_c = _step("inverted-closed-form", lhs_c, a_c2.series, order)

    return ChainReport(order, (step_a, step_b, step_c))
