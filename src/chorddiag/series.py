"""Truncated formal power series with exact rational coefficients.

A series is an immutable value: a tuple of coefficients c0..cN together with
the inclusive truncation order N. Every binary operation truncates its result
to the smaller order of the two operands, so no coefficient is ever produced
beyond what both inputs actually determine.

A coefficient is an ``int`` or a ``fractions.Fraction``, kept as given (a
string is parsed to a Fraction, a float refused; padding zeros are ints).
On ints, sums, differences, products, int multiples, composition,
derivatives, shifts, truncation and the reciprocal of a series with
constant term +-1 (so also ``/`` by such a series) and ``reverse`` of a
series with linear term +-1 give ints. Only division makes Fractions: ``/``
by a scalar or any other series, any other ``reverse``, ``log``, ``exp`` and
``pow_rational`` give Fractions, never floats. A Fraction with
denominator 1 stays a Fraction. As ``2 == Fraction(2)`` with equal hashes,
equality and hashing do not depend on the type. ``Rational`` names the
Fraction type, for callers that want to be explicit about exact rationals.

The exponential is computed in one place, ``_extend_scaled_exp``: an integer
recurrence for w^m * m! times the coefficients of the f with f' = f * dg/w,
f_0 = 1, dg an int list. ``exp`` passes the derivative of its exponent,
cleared of denominators once, as dg: clearing the exponent instead would
put the lcm of 1..n into w whenever the exponent is an integral (``log``
and so ``pow_rational``), and the kernel's weights grow like w^k. The
alien images pass their integer log-derivatives directly. ``log`` is the
integral of f'/f, and ``pow_rational`` is exp(q * log f).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, lcm
from typing import Iterable, Sequence, Union

Rational = Fraction

Coefficient = Union[int, Fraction]


class ReversionError(ValueError):
    """Raised when a reverted series fails its exact composition check."""


def _coerce(value) -> Coefficient:
    if type(value) is int or isinstance(value, Fraction):
        return value
    if isinstance(value, int):  # bool and other int subclasses
        return int(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a series coefficient")


def _cleared(a: Sequence) -> tuple[Sequence, int | None]:
    """(ints, d) with a[i] = ints[i] / d, d the lcm of the denominators of a.

    An all-int list comes back as itself with d = None, not copied.
    """
    if all(type(c) is int for c in a):
        return a, None
    d = lcm(*[c.denominator for c in a])
    return [c.numerator * (d // c.denominator) for c in a], d


def truncated_product(a: Sequence, b: Sequence, n: int) -> list:
    """Coefficients 0..n of the product of two coefficient lists.

    Entries may be int or Fraction alike. A list holding a Fraction is
    scaled by the lcm of its denominators to a list of ints, the two int
    lists are convolved, and each output coefficient becomes one
    Fraction(v, da*db): one gcd per coefficient instead of one per term.
    A list of ints is used as it is, so when both inputs are int lists
    the output is an int list; PowerSeries multiplication and composition,
    alien and solve_composition rely on that to keep integer series integer.
    """
    a, da = _cleared(a[: n + 1])
    b, db = _cleared(b[: n + 1])
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    if da is None and db is None:
        return out
    d = (da or 1) * (db or 1)
    return [Fraction(v, d) for v in out]


def truncated_reciprocal(a: Sequence, n: int, out: list | None = None) -> list:
    """Coefficients 0..n of 1/a, for a list a with a nonzero constant term.

    For an int a0 = +-1, each coefficient is minus the convolution of a
    with the earlier ones, times 1/a0 = a0, so integer inputs give integer
    coefficients. Otherwise the recurrence runs on ints: with a = A/d for
    an int list A, 1/a = d/A, and B_0 = 1,
    B_k = -sum_(j=1..k) A_j * A0^(j-1) * B_(k-j) give the coefficients
    Fraction(d*B_k, A0^(k+1)), one division per coefficient, all Fractions.
    Given ``out``, a list of the first coefficients of 1/a, it appends the
    rest to that list and returns it.
    """
    if a[0] == 0:
        raise ValueError("no reciprocal: constant term is zero")
    if out is None:
        out = []
    a0 = a[0]
    if type(a0) is int and a0 in (1, -1):
        if not out:
            out.append(a0)
        for m in range(len(out), n + 1):
            acc = 0
            for k in range(1, min(m, len(a) - 1) + 1):
                if a[k]:
                    acc += a[k] * out[m - k]
            out.append(-acc * a0)
        return out
    ints, d = _cleared(a[: n + 1])
    a0 = ints[0]
    weights = [0] + [ints[j] * a0 ** (j - 1) for j in range(1, len(ints))]
    b = [1]
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, min(k, len(ints) - 1) + 1):
            if weights[j]:
                acc += weights[j] * b[k - j]
        b.append(-acc)
    d = d or 1
    for k in range(len(out), n + 1):
        out.append(Fraction(d * b[k], a0 ** (k + 1)))
    return out


def solve_composition(f: Sequence, u: Sequence, n: int) -> list:
    """Coefficients 0..n of h with h(f) = u, for f tangent to the identity.

    Since f^k = x^k + O(x^(k+1)), the x^k coefficient of what remains of u
    after subtracting h_j * f^j for j < k is h_k: a triangular solve that
    needs no division, so integer inputs give integer coefficients.
    """
    if f[0] != 0 or (n >= 1 and f[1] != 1):
        raise ValueError("the inner series must have f0 = 0 and f1 = 1")
    rest = list(u[: n + 1])
    power = [1] + [0] * n
    h = []
    for k in range(n + 1):
        h.append(rest[k])
        for i in range(k + 1, n + 1):
            rest[i] -= h[k] * power[i]
        power = truncated_product(power, f, n)
    return h


def _falling_sum(a: Sequence[int], e: Sequence[int], m: int) -> int:
    """The sum of a_i * m!/(m-i)! * e_{m-i} over i = 0..m.

    In Horner form, a_0*e_m + m*(a_1*e_{m-1} + (m-1)*(a_2*e_{m-2} + ...)),
    each term costs one big-integer product and one by a small factor.
    """
    total = 0
    for i in range(min(m, len(a) - 1), -1, -1):
        total = total * (m - i) + a[i] * e[m - i]
    return total


def _extend_scaled_exp(dg: Sequence[int], w: int, n: int, e: list[int]) -> None:
    """Extend e_m = w^m * m! * f_m to m = n, where f' = f * dg/w and f_0 = 1.

    dg is the derivative of the exponent, so f = exp(g/w) for g' = dg and
    g_0 = 0; in the alien images dg is an integer log-derivative, and the
    rational constant of the exponent stays symbolic as the prefactor's
    e-exponent. m*f_m = sum_k dg_(k-1)*f_(m-k)/w with f_m = e_m/(w^m m!)
    reads e_m = sum_k dg_(k-1)*w^(k-1) * (m-1)!/(m-k)! * e_(m-k),
    a sum of integer products, since (m-1)!/(m-k)! is a falling factorial.
    So every e_m is an integer, and the only division left is the one by
    w^m m!. dg must reach order n - 1, and e starts as [1].
    """
    weights = [dg[k] * w**k for k in range(n)]
    for m in range(len(e), n + 1):
        e.append(_falling_sum(weights, e, m - 1))


class PowerSeries:
    """A formal power series truncated at a fixed order (inclusive)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Coefficient], order: int | None = None):
        coeffs = [_coerce(c) for c in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            if len(coeffs) > order + 1:
                coeffs = coeffs[: order + 1]
            else:
                coeffs.extend([0] * (order + 1 - len(coeffs)))
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = tuple(coeffs)

    @classmethod
    def _of(cls, coefficients: tuple[Coefficient, ...]) -> "PowerSeries":
        """The series with ``coefficients``, a non-empty tuple of ints and Fractions.

        Skips the coercion of ``__init__``, for coefficients the library
        built itself.
        """
        f = object.__new__(cls)
        f._coeffs = coefficients
        return f

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([0], order=order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1], order=order)

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        if order < 1:
            raise ValueError("the series x needs order >= 1")
        return cls([0, 1], order=order)

    @classmethod
    def constant(cls, value: Coefficient, order: int) -> "PowerSeries":
        return cls([value], order=order)

    # -- basic protocol --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Coefficient, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> Coefficient:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self._coeffs[n]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self._coeffs[:8])
        if self.order >= 8:
            body += ", ..."
        return f"PowerSeries([{body}]; order={self.order})"

    def __str__(self) -> str:
        terms = []
        for n, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            elif n == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{n}")
        poly = " + ".join(terms) if terms else "0"
        return f"{poly} + O(x^{self.order + 1})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coeffs)

    def truncate(self, order: int) -> "PowerSeries":
        """Drop coefficients beyond ``order`` (which must not exceed self.order)."""
        if order > self.order:
            raise ValueError(
                f"cannot extend a series from order {self.order} to {order}"
            )
        return PowerSeries(self._coeffs[: order + 1])

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(
                [self._coeffs[i] + other._coeffs[i] for i in range(n + 1)]
            )
        if isinstance(other, (int, Fraction)):
            c = list(self._coeffs)
            c[0] += other
            return PowerSeries(c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self._coeffs])

    def __sub__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(
                [self._coeffs[i] - other._coeffs[i] for i in range(n + 1)]
            )
        if isinstance(other, (int, Fraction)):
            c = list(self._coeffs)
            c[0] -= other
            return PowerSeries(c)
        return NotImplemented

    def __rsub__(self, other) -> "PowerSeries":
        return (-self) + other

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(truncated_product(self._coeffs, other._coeffs, n))
        if isinstance(other, (int, Fraction)):
            return PowerSeries([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            return self * other.reciprocal()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            other = Fraction(other)
            return PowerSeries([c / other for c in self._coeffs])
        return NotImplemented

    def __pow__(self, exponent: int) -> "PowerSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("use pow_rational for non-natural exponents")
        result = PowerSeries.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus and shifts ------------------------------------------------------

    def derivative(self) -> "PowerSeries":
        """Termwise derivative; the truncation order drops by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate a series truncated at order 0")
        return PowerSeries([n * self._coeffs[n] for n in range(1, self.order + 1)])

    def mul_x_pow(self, k: int) -> "PowerSeries":
        """Multiply by x^k; the k new leading zeros raise the order by k."""
        if k < 0:
            raise ValueError("k must be nonnegative; use div_x_pow to shift down")
        return PowerSeries([0] * k + list(self._coeffs))

    def div_x_pow(self, k: int) -> "PowerSeries":
        """Divide by x^k; requires the first k coefficients to vanish exactly."""
        if k < 0:
            raise ValueError("k must be nonnegative; use mul_x_pow to shift up")
        if k > self.order:
            raise ValueError(f"not divisible by x^{k}: series order is {self.order}")
        if any(c != 0 for c in self._coeffs[:k]):
            raise ValueError(f"not divisible by x^{k}: low-order coefficient nonzero")
        return PowerSeries(self._coeffs[k:])

    # -- composition and inverses ----------------------------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self at ``inner`` by baby steps and giant steps; inner must have c0 = 0.

        Runs on ints. With self = c/dc and inner = g/dg for int lists c and
        g, self(inner) = t/(dc*dg^n) for the int list t = sum_k
        dg^(n-k)*c_k*g^k, one division per coefficient. For t (Brent and
        Kung, J. ACM 25 (1978)), take m = isqrt(n + 1) and the baby steps
        g^0..g^(m-1), and split the scaled coefficients into blocks of m:
        block j is sum_i dg^(n-jm-i)*c_(jm+i)*g^i, a linear combination that
        needs no product. Horner in the giant step G = g^m over the blocks
        gives t. Since g = O(x), G^j = O(x^(jm)), so only the coefficients
        0..n-jm of block j, and of the Horner value there, reach t. That
        makes about 2*sqrt(n) truncated products instead of n. A series of
        ints has d = 1, and when both are series of ints the result is t
        itself, with no division.
        """
        if inner[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        c, dc = _cleared(self._coeffs[: n + 1])  # dc, dg are None for int lists
        g, dg = _cleared(inner._coeffs[: n + 1])
        if dg is not None:
            c = [ck * dg ** (n - k) for k, ck in enumerate(c)]
        m = isqrt(n + 1)
        powers = [[1] + [0] * n, g]  # g^0..g^m, each to order n
        for _ in range(m - 1):
            powers.append(truncated_product(powers[-1], g, n))
        giant = powers.pop()
        t = []
        for start in range(n - n % m, -1, -m):  # the blocks, last first
            block = [0] * (n - start + 1)
            for ci, power in zip(c[start : start + m], powers):
                if ci:
                    block = [b + ci * p for b, p in zip(block, power)]
            if t:
                t = truncated_product(t, giant, n - start)
                block = [b + v for b, v in zip(block, t)]
            t = block
        if dc is None and dg is None:
            return PowerSeries._of(tuple(t))
        d = (dc or 1) * (dg or 1) ** n
        return PowerSeries._of(tuple([Fraction(v, d) for v in t]))

    def reciprocal(self) -> "PowerSeries":
        """Multiplicative inverse; requires c0 != 0."""
        return PowerSeries(truncated_reciprocal(self._coeffs, self.order))

    def reverse(self) -> "PowerSeries":
        """Compositional inverse g with self(g(x)) = x.

        Requires c0 = 0 and c1 != 0. With F = self/c1, which is tangent to
        the identity, g(x) = G(x/c1) where G solves G(F) = x, so
        g_k = G_k / c1^k; an exact composition check validates the result.
        For c1 = +-1, 1/c1 = c1 and no division is made, so ints stay ints.
        """
        if self._coeffs[0] != 0 or self.order < 1 or self._coeffs[1] == 0:
            raise ValueError(
                "not reversible: need zero constant term and nonzero linear term"
            )
        n = self.order
        c1 = self._coeffs[1]
        inv = c1 if c1 in (1, -1) else 1 / Fraction(c1)
        tangent = [c * inv for c in self._coeffs]
        solved = solve_composition(tangent, [0, 1] + [0] * (n - 1), n)
        g = PowerSeries._of(tuple(h * inv**k for k, h in enumerate(solved)))
        if self.compose(g) != PowerSeries.x(n):
            raise ReversionError("reversion failed its exact composition check")
        return g

    # -- analytic combinators ---------------------------------------------------

    def exp(self) -> "PowerSeries":
        """exp of a series with zero constant term.

        With self' = dg/w for an int list dg, coefficient m is e_m/(w^m m!),
        e the scaled exponential of dg with weight w (_extend_scaled_exp).
        The derivative is cleared, not the exponent: the kernel's weights
        dg[k] * w^k grow like w^k, and an exponent that is an integral, as
        in log and pow_rational, has every 1..n in its denominators' lcm,
        while its derivative may have no denominator above 2.
        """
        c = self._coeffs
        if c[0] != 0:
            raise ValueError("exp needs zero constant term")
        dg, w = _cleared([k * c[k] for k in range(1, len(c))])
        w = w or 1
        e = [1]
        _extend_scaled_exp(dg, w, self.order, e)
        return PowerSeries._of(
            tuple(Fraction(v, w**m * factorial(m)) for m, v in enumerate(e))
        )

    def log(self) -> "PowerSeries":
        """log of a series with constant term 1: the integral of f'/f."""
        if self._coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        if self.order == 0:  # f' does not exist at order 0
            return PowerSeries._of((Fraction(0),))
        quotient = (self.derivative() * self.reciprocal()).coefficients
        return PowerSeries._of(
            (Fraction(0), *(Fraction(v, m + 1) for m, v in enumerate(quotient)))
        )

    def pow_rational(self, exponent: Coefficient) -> "PowerSeries":
        """f^q for rational q, restricted to series with constant term 1.

        Callers factor out a leading monomial with div_x_pow first; keeping
        c0 = 1 avoids any branch choice for the rational power.
        """
        q = _coerce(exponent)
        if self._coeffs[0] != 1:
            raise ValueError("pow_rational needs constant term 1")
        return (self.log() * q).exp()


# -- serialization ----------------------------------------------------------------


def series_to_json_dict(f: PowerSeries) -> dict:
    """Schema: {"order": N, "coefficients": [{"num": "...", "den": "..."}, ...]}.

    Numerator and denominator are decimal strings, safe for arbitrary
    precision across JSON implementations.
    """
    return {
        "order": f.order,
        "coefficients": [
            {"num": str(c.numerator), "den": str(c.denominator)}
            for c in f.coefficients
        ],
    }


def _serialized_fraction(num, den) -> Fraction:
    """num/den from decimal strings; ValueError, not ZeroDivisionError, for den 0."""
    if int(den) == 0:
        raise ValueError("a serialized coefficient has denominator 0")
    return Fraction(int(num), int(den))


def series_from_json_dict(data: dict) -> PowerSeries:
    """The series of a series_to_json_dict record; ValueError for a malformed one."""
    try:
        order = int(data["order"])
        coeffs = [
            _serialized_fraction(item["num"], item["den"]) for item in data["coefficients"]
        ]
    except KeyError as exc:
        raise ValueError(f"a serialized series needs the field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed serialized series: {exc}") from None
    if len(coeffs) != order + 1:
        raise ValueError("coefficient list length does not match order+1")
    return PowerSeries(coeffs)


def series_to_csv_rows(f: PowerSeries) -> list[tuple[int, str, str]]:
    """One row per power: (index, numerator, denominator) as decimal strings."""
    return [
        (n, str(c.numerator), str(c.denominator)) for n, c in enumerate(f.coefficients)
    ]


def series_from_csv_rows(rows: Sequence[Sequence]) -> PowerSeries:
    coeffs: dict[int, Fraction] = {}
    for idx, num, den in rows:
        coeffs[int(idx)] = _serialized_fraction(num, den)
    if sorted(coeffs) != list(range(len(rows))):  # a repeated index leaves one short
        raise ValueError("csv rows must cover indices 0..N exactly once")
    return PowerSeries([coeffs[i] for i in range(len(rows))])
