"""Pure-Python census kernel.

Same contract as the compiled twin in ``_census.c``: one export,
``class_census(n, root_partner=0, k=2, shortest=0)``, enumerates every
rooted diagram on n chords (smallest free position matched first, partners
tried left to right) and returns the counts of the j-connected ones for
j = 0..k, or walks one rotation class of them (below). Kept dependency-free
and allocation-light so it stays usable up to n = 8 when the extension is
not built.

One walker, ``_walk``, reads connectivity off the intervals of positions
with no graph search. It scans the positions left to right, opening a chord
at each free one and closing one at each taken one, and keeps the external
count of every interval [a, b-1] ending at the current position: the number
of its endpoints whose partner lies outside it. Two facts turn those counts
into a classification:

- A diagram is disconnected exactly when some proper interval is closed
  (external count 0): no chord can cross out of it. Such an interval is
  fixed once its last position is closed, so the walk tests for one before
  each close and leaves the subtree, all of whose completions are
  disconnected, unwalked.
- A connected diagram's level, the highest j for which it has at least j
  chords and survives every removal of fewer than j chords, is the least
  of n and e(I) over the intervals I with at least one chord wholly inside
  and one wholly outside. Removing the e(I) chords that leave I separates
  those two; a removal that disconnects the diagram leaves a closed proper
  interval, all of whose external endpoints belong to removed chords. For
  e = 1 these are the cut-chord intervals of 3..2n-3 positions that
  ``oracle.find_reasons_connectivity1`` lists.

The least e is reached at an interval that ends with a close whose partner
lies in it (otherwise dropping that end lowers e and keeps both bounds). So
the walk carries a level, starting at min(k, n), and before closing (p, b)
lowers it to the least v below it for which some interval [a, b], a <= p,
of at most 2n - v - 2 positions has e = v. The chord (p, b) lies inside
such an interval and the size bound leaves a chord outside it. Every
diagram the walk reaches is therefore connected, and its level is read off
at the leaf with no graph search.

The closes between a new chord and the next free position do not depend on
that chord's partner, so they run once per node, not once per child, and
without the closed test, which cannot fire there (``_walk`` says why). The
child whose chord joins two adjacent positions is not entered. The last
chord enters no child at all: its only possible partner is the next free
position, so the parent places it, runs the remaining closes and visits
the leaf itself.

Crossings are defined on the circle, so every level is invariant under the
2n rotations. Class l walks root partner l + 1 and only the diagrams with
no chord of cyclic length min(v - u, 2n - v + u) below l: every chord
opened at b takes a partner in b+l..b+2n-l. A diagram M with shortest
length l has c(M) positions whose partner lies l on (mod 2n), two per chord
when l = n, and c(M) of its 2n rotations (with repeats when M is symmetric)
bring one of them to position 1 and so lie in the class. So the weights
2n/c over the class sum, at each level, to the diagrams whose shortest
chord has length l. The closes carry c in the packed state.

A pinned root partner r > n + 1 is first sent to 2n + 2 - r by the
reflection i -> 2 - i (mod 2n), which fixes position 1 and keeps every
crossing. So root partner 2n becomes 2, whose chord (1, 2) closes a proper
interval at the walk's first close when n >= 2, and root partner 2 keeps
the plain walk. Every other r, now in 3..n+1, is folded onto itself. The
reflection i -> r + 1 - i (mod 2n) fixes the root chord (1, r), keeps
every crossing and so every level, and swaps positions 2 and r - 1. It
swaps f = partner(2) - 2, how far the chord at 2 reaches forward, with
g = (r - 1 - partner(r - 1)) mod 2n, how far the chord at r - 1 reaches
backward. So the fold walks only the diagrams with f <= g, each standing
for 2, or for 1 when f = g. It pins the chord at 2 and reads g one way.
When that chord already places the one at r - 1 (r = 3, where the two
positions coincide, or the chord (2, r - 1)), it walks if g >= f.
Otherwise it pins the chord at r - 1 to each free q whose
g = (r - 1 - q) mod 2n is at least f. Then it walks the rest from position
2, with n in the ends field when f < g and 0 at a tie.

Every walk leaves the same leaf: ``visit(partner, level, ends)``. A leaf
with ``ends`` e >= 1 stands for 2n/e diagrams, and one with ``ends`` 0 for
one diagram: a class leaf carries its c, a fold leaf n or 0, and a leaf of
a plain walk 0. ``class_census`` adds lcm(1..2n)/e for each leaf, or
lcm(1..2n)/2n for e = 0, to one integer tally per level, and turns each
tally into a count with one exact division by lcm(1..2n)/2n. A remainder
raises ArithmeticError, whatever the walk.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod

MAX_K = 10  # the compiled twin's bound on k (its MAX_CHORDS), so both reject alike


def _width(n: int) -> int:
    """Bits per field of the packed state: counts up to 2n and a spare top bit."""
    return (2 * n + 1).bit_length() + 1


@lru_cache(maxsize=None)
def _tables(n: int, deep: bool, shortest: int) -> tuple[tuple, ...]:
    """The walk's tables for n chords, in class ``shortest`` or plain (0).

    ``opens``, ``closes``, ``deeper``, ``first`` and ``stop`` are built on
    first use and shared by every walk on n chords in the class, so they
    are tuples: no walk can change them for the next. ``closes[b][p]`` and
    ``deeper[b][p]`` with p > b serve a chord pinned before the walk
    reaches b: they open it at b, with nothing to test, through one shared
    entry per row. ``closes[b][b]`` is None, since no chord is (b, b).
    ``deeper`` is empty unless ``deep``: only a walk that starts above level
    2 reads it.

    Field a of the packed state is ``width`` bits wide with a spare top bit.
    ``opens[b]`` has ones over fields 0..b. ``closes[b][p]`` holds the
    tests and the update for closing (p, b): ones and top bits over the
    fields tested for a closed interval, twos, ones and top bits over those
    tested for a cut (level 1), and the update. ``deeper[b][p]`` holds the
    tests for the levels v >= 2 whose window of fields a >= b - 2n + v + 3
    (intervals of at most 2n - v - 2 positions) is not empty, each as v
    with v + 1s, ones and top bits over the window. A chord opened at b
    takes a partner in ``first[b]``..``stop[b]`` - 1: any but b + 1, which
    closes a proper interval when n >= 2, or in class ``shortest`` those at
    a cyclic distance of at least ``shortest``. There the update for
    closing (p, b) also adds, in field 2n above the counts, the ends of
    (p, b) whose partner lies ``shortest`` positions on (mod 2n): p when
    b - p is ``shortest``, b when it is 2n - ``shortest``. A plain walk has
    no such ends, since 0 < b - p < 2n.
    """
    size = 2 * n
    width = _width(n)

    def ones(lo: int, hi: int) -> int:
        return sum(1 << a * width for a in range(lo, hi + 1))

    def level_tests(b: int, p: int) -> tuple:
        # the window of v, [b - 2n + v + 3, p], is empty from v = p - b + 2n - 2 on
        vs = range(2, min(n, p - b + size - 2))
        windows = ((v, ones(max(0, b - size + v + 3), p)) for v in vs)
        return tuple((v, w * (v + 1), w, w << width - 1) for v, w in windows)

    opens = [ones(0, b) for b in range(size)]
    closes = []
    for b in range(size):
        row = []
        for p in range(b):
            closed = ones(1 if b == size - 1 else 0, p)  # [0, 2n-1] is the whole diagram
            near = ones(max(0, b - size + 4), p)  # at most 2n-3 positions
            row.append((
                closed, closed << width - 1, near << 1, near, near << width - 1,
                ones(p + 1, b) - ones(0, p)
                + ((b - p == shortest) + (b - p == size - shortest) << size * width),
            ))
        # p = b is never read; a chord pinned to p > b opens at b, testing nothing
        row += [None] + [(0, 0, 0, 0, 0, opens[b])] * (size - b - 1)
        closes.append(tuple(row))
    deeper = tuple(
        tuple(level_tests(b, p) if p < b else () for p in range(size))
        for b in range(size)
        if deep
    )
    gap = max(shortest, 1 + (n >= 2))
    first = tuple(b + gap for b in range(size))
    stop = tuple(min(size, b + size - shortest + 1) for b in range(size))
    return tuple(opens), tuple(closes), deeper, first, stop


def _deeper_level(state: int, tests: tuple, level: int) -> int:
    """The least v in 2..level-1 whose test in ``tests`` hits, else level."""
    for v, values, window, highs in tests:
        if v >= level:
            break
        y = state ^ values
        if (y - window) & ~y & highs:
            return v
    return level


def _walk(n: int, root_partner: int, visit, k: int = 2, shortest: int = 0) -> None:
    """Call ``visit(partner, level, ends)`` once per connected diagram on n chords.

    ``partner[i]`` is the 0-based partner of position i; the list is reused,
    so ``visit`` must not keep it. ``level`` is the highest j <= k for which
    the diagram is j-connected, so with n >= 2 a level of 1 means that one
    chord's removal disconnects it. ``ends`` says how many diagrams the leaf
    stands for, by the leaf rule of the module docstring. Diagrams are
    visited in enumeration order, and the empty diagram (n = 0) is visited
    too, at level 0. ``root_partner`` (1-based position, 0 for
    unrestricted) pins the partner of position 1. The disconnected diagrams
    are not visited.

    The counts live in one integer: field a holds the external count of
    [a, b-1] while position b is next. Opening a chord at b adds 1 to fields
    0..b; closing one at b with partner p adds 1 to fields p+1..b and takes
    1 from fields 0..p. A field a <= p about to drop to 0 marks [a, b]
    closed, and one about to drop to v marks level v when [a, b] has at most
    2n - v - 2 positions. Each is found by the zero-field test
    ``(y - ones) & ~y & highs`` on ``y = state ^ value``, with ``ones`` only
    over the tested fields: a zero field below them would otherwise borrow
    and give a false hit. The v = 1 test runs inline; only when it misses
    below a level above 2 do the tests for v >= 2 run.

    After opening a chord at the free position b, the closes at b+1..f-1,
    where f is the next free position, have partners before b and do not
    depend on b's partner. So they run once, before the loop over partners
    j >= f, and each child starts at f. This hoisted run keeps the level
    tests and drops the closed test, which cannot fire there: each interval
    it would test, [a, q] with a <= p < b < q, contains b, whose partner
    lies beyond q. When b+1 is free and n >= 2, the child j = b+1 is not
    entered: the chord (b, b+1) closes the proper interval [b, b+1], so all
    of its completions are disconnected.

    When the chord opened at b is the n-th one and f is not the skipped
    b+1, its partner can only be f, the one other free position. So the
    parent pairs b with f and runs the closes f..2n-1 itself, with both
    tests, instead of calling ``place`` once more per leaf. The leaf is
    visited unless a closed hit there shows it disconnected. Both partner
    entries are restored before ``place`` returns.

    A ``shortest`` of l in 1..n walks class l instead: root partner l + 1,
    and only the diagrams with no chord of cyclic length below l, so each
    chord opened at b, the last one too, takes a partner in b+l..b+2n-l.
    There ``ends`` is the number of positions whose partner lies l
    positions on (mod 2n), which the closes sum in a field above the
    counts; a chord of length n has two such ends.

    A root partner r > n + 1 is walked as 2n + 2 - r, whose diagrams are
    the reflections of r's (the module docstring says why), so root
    partner 2n on n >= 2 chords visits nothing. A root partner in 3..n+1,
    given or reflected, with no ``shortest``, is folded: the walk visits
    only the diagrams of its fold (the module docstring says which), each
    with ``ends`` n, or 0 when f = g. The chords at positions 2 and r - 1
    are pinned before ``place`` starts, and a chord pinned to a later
    position opens through ``closes[b][p]`` with p > b, which tests
    nothing. The hoisted run's closed test still cannot fire. An interval
    it would test that starts after b ends at the far end of the chord at
    r - 1. It holds r, the root's partner, when that chord runs forward,
    and otherwise the positions between the chord's ends, which are not
    adjacent and whose partners lie before b.
    """
    if n < 0:
        raise ValueError("n must be at least 0")
    size = 2 * n
    if root_partner and not 2 <= root_partner <= size:
        raise ValueError(f"root partner must lie in 2..{size}")
    if shortest:
        if root_partner or not 1 <= shortest <= n:
            raise ValueError(f"a class lies in 1..{n} and fixes the root partner")
        root_partner = shortest + 1
    if root_partner > n + 1:  # i -> 2 - i (mod 2n) keeps every level; 2n becomes 2
        root_partner = size + 2 - root_partner
    fold = not shortest and root_partner >= 3
    opens, closes, deeper, first, stop = _tables(n, min(k, n) > 2, shortest)
    shift = size * _width(n)  # the ends field of the state
    partner = [-1] * size

    def place(b: int, c: int, state: int, level: int) -> None:
        while b < size and (p := partner[b]) >= 0:
            closed, closed_highs, twos, near, near_highs, update = closes[b][p]
            y = state ^ closed
            if (y - closed) & ~y & closed_highs:
                return
            if level > 1:
                y = state ^ twos
                if (y - near) & ~y & near_highs:
                    level = 1
                elif level > 2:
                    level = _deeper_level(state, deeper[b][p], level)
            state += update
            b += 1
        if b == size:
            visit(partner, level, state >> shift)
            return
        state += opens[b]
        f = b + 1
        while (p := partner[f]) >= 0:  # b's partner is still free, so f < size
            _, _, twos, near, near_highs, update = closes[f][p]
            if level > 1:
                y = state ^ twos
                if (y - near) & ~y & near_highs:
                    level = 1
                elif level > 2:
                    level = _deeper_level(state, deeper[f][p], level)
            state += update
            f += 1
        start = f
        if f < first[b]:  # (b, b+1) closes a proper interval, or f is too near
            start = first[b]
        # the last chord: f is the only free partner left, and below stop[b],
        # since its opener b follows n - 1 others, so b + 2n - l >= 2n - 1 for l <= n
        if c + 1 == n:
            if start == f:
                partner[b] = f
                partner[f] = b
                q = f
                while q < size:
                    closed, closed_highs, twos, near, near_highs, update = closes[q][partner[q]]
                    y = state ^ closed
                    if (y - closed) & ~y & closed_highs:
                        break
                    if level > 1:
                        y = state ^ twos
                        if (y - near) & ~y & near_highs:
                            level = 1
                        elif level > 2:
                            level = _deeper_level(state, deeper[q][partner[q]], level)
                    state += update
                    q += 1
                else:
                    visit(partner, level, state >> shift)
                partner[b] = partner[f] = -1
            return
        for j in range(start, stop[b]):
            if partner[j] < 0:
                partner[b] = j
                partner[j] = b
                place(f, c + 1, state, level)
                partner[j] = -1
        partner[b] = -1

    def pinned(c: int, ends: int) -> None:
        # c chords are pinned, the root chord among them
        place(1, c, opens[0] + (ends << shift), min(k, n))

    def pin(a: int, b: int) -> None:
        partner[a] = b
        partner[b] = a

    if not root_partner:
        place(0, 0, 0, min(k, n))
        return
    pin(0, root_partner - 1)
    if not fold:
        pinned(1, 0)
        return
    mirror = root_partner - 2  # position r - 1, 0-based
    for j in range(first[1], size):  # position 1's partner, f = j - 1
        if partner[j] >= 0:
            continue
        reach = j - 1
        pin(1, j)
        if partner[mirror] >= 0:  # r = 3, or the chord (2, r - 1)
            g = (mirror - partner[mirror]) % size
            if g >= reach:
                pinned(2, n * (g > reach))
        else:  # the mirror's partner q, at g = (mirror - q) mod 2n >= f
            for q in range(2, size):
                g = (mirror - q) % size
                if partner[q] < 0 and g >= reach:
                    pin(q, mirror)
                    pinned(3, n * (g > reach))
                    partner[q] = partner[mirror] = -1
        partner[j] = -1


def class_census(
    n: int, root_partner: int = 0, k: int = 2, shortest: int = 0
) -> tuple[int, ...]:
    """Counts of the j-connected diagrams on n chords, for j = 0..k.

    k lies in 1..MAX_K, and the default k = 2 gives (total, connected,
    2-connected). ``root_partner`` (1-based position, 0 for unrestricted)
    pins the partner of position 1, partitioning the enumeration. Each
    diagram the walk visits is connected and counts at its level: the least
    of min(k, n) and e(I), the external endpoints of an interval I with a
    chord wholly inside and one wholly outside, tested before each close on
    the intervals [a, b] of at most 2n - v - 2 positions for each v below
    the level. The walk leaves the disconnected diagrams uncounted, so
    entry 0 is the size of the walked set in closed form: (2n-1)!!, or
    (2n-3)!! with a pinned root partner. Levels above n stay 0.

    A ``root_partner`` r other than 2 and 2n folds the partition onto
    itself by the reflection that fixes its root chord, as the module
    docstring explains.

    A ``shortest`` of l in 1..n counts, for j >= 1, the j-connected
    diagrams whose shortest chord has cyclic length l, min(v - u, 2n - v + u)
    for the chord (u, v). Crossings, and so every level, are invariant under
    the 2n rotations of the circle, so each rotation class with shortest
    length l is walked through its members with a chord (1, l + 1), each
    weighted 2n/c for the c positions whose partner lies l on (mod 2n); the
    weights of a class sum to its size. Entry 0 then repeats entry 1.

    Every walk's leaves count by the one rule of the module docstring, and
    a level whose count is not an integer raises ArithmeticError.
    """
    if n < 0:
        raise ValueError("n must be at least 0")
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be at least 1 and at most {MAX_K}")
    size = 2 * n
    lcm_ends = lcm(*range(1, size + 1))
    # what a leaf adds to its level's tally, by ends; n = 0 has one leaf, at level 0
    weight = [lcm_ends // max(size, 1)] + [lcm_ends // e for e in range(1, size + 1)]
    tally = [0] * (min(k, n) + 1)  # lcm_ends/2n times the diagrams of each level

    def visit(partner: list[int], level: int, ends: int) -> None:
        tally[level] += weight[ends]

    _walk(n, root_partner, visit, k, shortest)
    counts = [0] * (k + 2)  # levels above n stay 0
    for level in range(min(k, n), 0, -1):
        count, rest = divmod(size * tally[level], lcm_ends)
        if rest:
            raise ArithmeticError(f"level {level} sums to no integer")
        counts[level] = counts[level + 1] + count
    # a plain walk covers (2m-1)!! diagrams, m the chords not pinned by the root
    counts[0] = counts[1] if shortest else prod(range(1, 2 * (n - bool(root_partner)), 2))
    return tuple(counts[: k + 1])
