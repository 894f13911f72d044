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

All series are exact, computed on int lists at one convolution per
coefficient (C^2/x and C2^2 are read off the recurrences of C and C2,
which sum them, and S has its own) and served as int PowerSeries with no
conversion. Each family keeps one list (a ``GrowOnly`` cache), extended in
place when a larger order is asked for: every coefficient depends only on
earlier ones, so a smaller order is served as a prefix of the list and a
larger one computes only the coefficients it adds. So every family and
both alien images take any order n >= 0 and serve coefficients 0..n, the
leading zeros included (C_0 = 0, C2_0 = C2_1 = 0); ``GrowOnly`` rejects a
negative order, the one order check of every builder.
PowerSeries values are immutable, so results are safe to share.
"""

from __future__ import annotations

import threading
from collections import namedtuple

from .series import PowerSeries

CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class GrowOnly:
    """Lists extended in place to the largest order asked for, one cache per family.

    ``extend(order, *lists)`` appends to each list what ``order`` needs,
    each entry computed from earlier entries only, so the lists at a smaller
    order are prefixes of those at a larger one. The last list is the one
    served; its length tells the order reached. An ``extend`` that raises is
    undone, every list cut back to its length before the call, so nothing
    half-grown is kept. As with ``functools.lru_cache``, ``cache_info()``
    counts a hit for a request served without growing and a miss for one
    that grew the lists; ``currsize`` is the length of the served list.
    A negative order raises ``ValueError``. ``cache_clear()`` goes back to
    the seeds and zero counts. A lock makes each request atomic, so threads
    may share the cache.
    """

    def __init__(self, extend, *seeds: list):
        self._extend = extend
        self._seeds = seeds
        self._lock = threading.RLock()
        self.cache_clear()

    def cache_clear(self) -> None:
        with self._lock:
            self._lists = tuple(list(seed) for seed in self._seeds)
            self._hits = self._misses = 0

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, None, len(self._lists[-1]))

    def grow(self, order: int) -> tuple[list, ...]:
        """The lists, extended so that the served one reaches ``order``."""
        with self._lock:
            return self._grown(order)

    def _grown(self, order: int) -> tuple[list, ...]:
        if order < 0:
            raise ValueError("order must be nonnegative")
        lists = self._lists
        if order < len(lists[-1]):
            self._hits += 1
            return lists
        lengths = [len(v) for v in lists]
        try:
            self._extend(order, *lists)
        except BaseException:
            for v, length in zip(lists, lengths):
                del v[length:]
            raise
        self._misses += 1
        return lists

    def series(self, order: int) -> PowerSeries:
        """Entries 0..order of the served int list, as an int PowerSeries."""
        with self._lock:
            return PowerSeries._of(tuple(self._grown(order)[-1][: order + 1]))

    def serves(self, builder):
        """Decorator: ``builder`` gets this cache's cache_info and cache_clear."""
        builder.cache_info = self.cache_info
        builder.cache_clear = self.cache_clear
        return builder


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! for n >= 0, with the empty product (-1)!! = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = 1
    for k in range(1, n + 1):
        result *= 2 * k - 1
    return result


def _extend_all_diagrams(order: int, d: list[int]) -> None:
    for n in range(len(d), order + 1):
        d.append(d[-1] * (2 * n - 1))


_all_diagrams = GrowOnly(_extend_all_diagrams, [1])


@_all_diagrams.serves
def series_all_diagrams(order: int) -> PowerSeries:
    """D: coefficient n counts all rooted diagrams on n chords, (2n-1)!!."""
    return _all_diagrams.series(order)


def _pair_sum(y: list[int], k: int, low: int = 1) -> int:
    """The sum of y_i * y_j over i + j = k, by symmetry, when y_i = 0 for i < low.

    It reads y at indices low..k-low only, so it can run while y ends at
    index k - low.
    """
    half = sum(y[i] * y[k - i] for i in range(low, (k + 1) // 2))
    return 2 * half + (y[k // 2] ** 2 if k % 2 == 0 else 0)


def _extend_connected(order: int, c: list[int]) -> None:
    for n in range(len(c), order + 1):
        c.append((n - 1) * _pair_sum(c, n))


_connected = GrowOnly(_extend_connected, [0, 1])


@_connected.serves
def series_connected(order: int) -> PowerSeries:
    """C: coefficient n counts connected diagrams on n chords.

    Recurrence: C_1 = 1 and C_n = (n-1) * sum(C_i * C_{n-i}, i=1..n-1),
    the coefficient form of 2xCC' = C(1+C) - x. The sum is symmetric in i
    and n-i, so ``_pair_sum`` takes half of it.
    """
    return _connected.series(order)


def _extend_connected_sq_div_x(order: int, t: list[int]) -> None:
    c = series_connected(order + 1).coefficients
    for k in range(len(t), order + 1):
        t_k, rest = divmod(c[k + 1], k)
        if rest:
            raise AssertionError(f"C^2/x needs C_{k + 1} divisible by {k} for the connected family")
        t.append(t_k)


_connected_sq_div_x = GrowOnly(_extend_connected_sq_div_x, [0])


@_connected_sq_div_x.serves
def connected_sq_div_x(order: int) -> PowerSeries:
    """C^2/x relates connected and 2-connected counts; its x^k term is C_{k+1}/k."""
    return _connected_sq_div_x.series(order)


def _extend_two_connected(order: int, p: list[int], y: list[int]) -> None:
    for m in range(len(y), order + 1):
        p.append(_pair_sum(y, m + 1, 2))
        y.append(-2 * y[m - 1] + m * p[m + 1] + p[m])


_two_connected = GrowOnly(_extend_two_connected, [0, 0, 0, 0], [0, 0, 1])


@_two_connected.serves
def series_two_connected(order: int) -> PowerSeries:
    """C2: coefficient n counts 2-connected diagrams on n chords.

    y = C2 solves 2t*y*(1 - y') = (t - y)(t^2 - t*y + y), which follows from
    the paper's relation C = t - C2(t), t = C^2/x, and 2xCC' = C(1+C) - x
    (see the module docstring). Its coefficient form: y_0 = y_1 = 0,
    y_2 = 1 and, for m >= 3,

        y_m = -2*y_{m-1} + m * P_{m+1} + P_m,

    where P_k = [x^k]C2^2 (only y_i, i >= 2, contribute). P_{m+1} reaches
    only up to y_{m-1}, so each coefficient costs one convolution of
    integers; ``two_connected_sq`` serves the P_k, kept one index ahead.
    """
    return _two_connected.series(order)


def two_connected_sq(order: int) -> PowerSeries:
    """C2^2, the P_k of C2's recurrence; order n >= 1 grows C2 to n - 1.

    It shares C2's cache, whose growth counts as misses of
    ``series_two_connected``, so it carries no cache methods of its own.
    A negative order asks the cache for a negative one, which it refuses.
    """
    p = _two_connected.grow(order - 1 if order else 0)[0]
    return PowerSeries._of(tuple(p[: order + 1]))


def series_connectivity_one(order: int) -> PowerSeries:
    """C1 = C - C2: connected diagrams that a single removal can disconnect."""
    c = _connected.grow(order)[0]
    y = _two_connected.grow(order)[-1]
    return PowerSeries([c[n] - y[n] for n in range(order + 1)])


def _extend_sequences(order: int, s: list[int]) -> None:
    for m in range(len(s), order + 1):
        s.append(s[m - 1] + (m - 1) * _pair_sum(s, m))


_sequences = GrowOnly(_extend_sequences, [1, 1])


@_sequences.serves
def series_two_connected_sequences(order: int) -> PowerSeries:
    """S = 1/(1 - C2/x): sequences of 2-connected diagrams, one less chord each.

    y = C2 = x(1 - 1/S) turns C2's equation into 2xS'(S - 1) = S(S - 1 - x),
    whose coefficients, symmetrised, give S_0 = S_1 = 1 and
    S_m = S_{m-1} + (m-1) * sum(S_i * S_{m-i}, i=1..m-1): S grows no C2.
    """
    return _sequences.series(order)


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


def verify_derivative_identity(order: int) -> bool:
    """C' = (C - x)/x^2 * [1 - C2'(C^2/x)], exactly to order-1.

    Internally everything is computed with extra truncation margin so the
    comparison at order-1 is fully determined.
    """
    if order < 3:
        raise ValueError("order must be at least 3")
    margin = order + 3
    c = series_connected(margin)
    x = PowerSeries.x(margin)
    lhs = series_connected(order).derivative()
    t = connected_sq_div_x(margin)
    c2_deriv = series_two_connected(margin).derivative()
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
    csq = t.mul_x_pow(1).truncate(middle.order)  # C^2 = x * (C^2/x)
    row3 = csq * middle
    row4 = (c - PowerSeries.x(c.order)).div_x_pow(1) * row3
    return {
        "C^2/x": t,
        "C2(t)/t^2 at t=C^2/x": middle,
        "C^2 * [C2(t)/t^2]": row3,
        "(C-x)/x * C^2 * [C2(t)/t^2]": row4,
    }
