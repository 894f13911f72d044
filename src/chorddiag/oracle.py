"""Brute-force ground truth for rooted chord diagrams.

A rooted chord diagram on n chords is a fixed-point-free involution of the
positions 1..2n, drawn in linear order with position 1 as the root. Two
chords {a<b} and {c<d} cross when a<c<b<d or c<a<d<b; the intersection graph
has one vertex per chord and an edge per crossing, and all connectivity
notions for diagrams are read off that graph.

The census helpers at the bottom dispatch to a compiled kernel when the
extension module is available and to a pure-Python twin otherwise; both
enumerate diagrams in the same deterministic order (smallest free position
is matched first, partners tried left to right), skip the same disconnected
subtrees and read connectivity off the intervals of positions, as
``_census_py`` explains. A census of every diagram on n >= 2 chords walks
one rotation class per shortest chord length. A census pinned to one root
partner r walks that partition alone; for every r but 2 and 2n the kernel
folds it onto itself by the reflection that fixes the root chord. Both
count their diagrams by the kernels' one leaf rule, which ``_census_py``
states. The decomposition-case census drives the pure-Python walker, so it
visits only the connected diagrams, and runs the same start-1 witness
sweep as ``decompose_connected`` on each one that has a cut chord.
"""

from __future__ import annotations

import enum
import os
from collections import namedtuple
from itertools import combinations
from typing import Iterator, Optional, Sequence

try:  # compiled census kernel, with a pure-Python fallback
    from . import _census as _census_impl

    CENSUS_BACKEND = "compiled"
except ImportError:  # pragma: no cover - depends on the build environment
    from . import _census_py as _census_impl

    CENSUS_BACKEND = "python"

from . import _census_py
from .gf import double_factorial_odd

DEFAULT_CAP = 8
HARD_CAP = 10


class CapExceededError(ValueError):
    """Raised when an enumeration request exceeds the configured cap."""


def _check_cap(what: str, n: int, cap: Optional[int]) -> None:
    if cap is not None and n > cap:
        raise CapExceededError(
            f"{what} of n={n} exceeds the cap of {cap} chords "
            f"((2n-1)!! diagrams); raise the cap explicitly to proceed"
        )


class ChordDiagram:
    """A rooted chord diagram, stored as its 1-based partner array."""

    __slots__ = ("_pairing",)

    def __init__(self, pairing):
        p = tuple(map(int, pairing))
        size = len(p)
        if size % 2 != 0:
            raise ValueError("a diagram has an even number of endpoints")
        for i, v in enumerate(p, start=1):
            if not 1 <= v <= size:
                raise ValueError(f"partner {v} of position {i} out of range")
            if v == i:
                raise ValueError(f"position {i} is matched with itself")
            if p[v - 1] != i:
                raise ValueError(f"pairing is not an involution at position {i}")
        self._pairing = p

    @classmethod
    def _from_involution(cls, pairing: tuple[int, ...]) -> "ChordDiagram":
        """A diagram on ``pairing``, which the library built as an involution.

        Skips the checks of ``__init__``, which exist for user input.
        """
        diagram = object.__new__(cls)
        diagram._pairing = pairing
        return diagram

    @property
    def n(self) -> int:
        return len(self._pairing) // 2

    @property
    def size(self) -> int:
        """Number of endpoints, 2n."""
        return len(self._pairing)

    @property
    def pairing(self) -> tuple[int, ...]:
        return self._pairing

    def partner(self, position: int) -> int:
        if not 1 <= position <= self.size:
            raise IndexError(f"position {position} out of range 1..{self.size}")
        return self._pairing[position - 1]

    def chords(self) -> tuple[tuple[int, int], ...]:
        """Chords as sorted (left, right) pairs, ordered by left endpoint."""
        return tuple(
            (i, self._pairing[i - 1])
            for i in range(1, self.size + 1)
            if i < self._pairing[i - 1]
        )

    def root_chord(self) -> tuple[int, int]:
        if self.n == 0:
            raise ValueError("the empty diagram has no root chord")
        return (1, self._pairing[0])

    def to_text(self) -> str:
        """Text form "n: p1 p2 ... p2n"; the crossing pair is "2: 3 4 1 2"."""
        return f"{self.n}: " + " ".join(str(v) for v in self._pairing)

    @classmethod
    def from_text(cls, text: str) -> "ChordDiagram":
        head, _, body = text.partition(":")
        try:
            n = int(head)
            values = [int(tok) for tok in body.split()]
        except ValueError:
            raise ValueError(f"diagram text must read 'n: p1 ... p2n', got {text!r}") from None
        if len(values) != 2 * n:
            raise ValueError(f"expected {2 * n} partners, got {len(values)}")
        return cls(values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChordDiagram):
            return NotImplemented
        return self._pairing == other._pairing

    def __hash__(self) -> int:
        return hash(self._pairing)

    def __repr__(self) -> str:
        return f"ChordDiagram({list(self._pairing)})"


EMPTY_DIAGRAM = ChordDiagram(())


def crossing(chord_a: tuple[int, int], chord_b: tuple[int, int]) -> bool:
    a, b = chord_a
    c, d = chord_b
    return a < c < b < d or c < a < d < b


def _crossing_masks(pairing: tuple[int, ...]) -> list[int]:
    """Mask c has bit d set when chord c crosses chord d, chords numbered by left end.

    One sweep: ``open_mask`` holds the chords opened and not yet closed. A
    chord crosses the chords open at its opening and closed before it, plus
    those opened after it and open at its closing: the bits in which
    ``open_mask`` at its opening and at its closing differ.
    """
    masks = []
    chord_at = [0] * (len(pairing) + 1)  # chord closing at a position
    open_mask = 0
    for i, p in enumerate(pairing, start=1):
        if i < p:
            chord_at[p] = c = len(masks)
            masks.append(open_mask)
            open_mask |= 1 << c
        else:
            c = chord_at[i]
            open_mask ^= 1 << c
            masks[c] ^= open_mask
    return masks


def _spans(masks: Sequence[int], keep: int) -> bool:
    """True when the chords in ``keep``, a bitmask, are a non-empty connected set."""
    if not keep:
        return False
    seen = frontier = keep & -keep
    while frontier:
        low = frontier & -frontier
        grown = masks[low.bit_length() - 1] & keep & ~seen
        seen |= grown
        frontier = (frontier ^ low) | grown
    return seen == keep


def _two_connected(masks: Sequence[int]) -> bool:
    """True when the chords stay connected after the removal of any one chord.

    ``masks`` are crossing masks as ``_crossing_masks`` gives them. The
    chords other than chord 0 connected, and chord 0 crossing one of them,
    make all of them connected, so no separate pass over the whole diagram
    is needed.
    """
    if not masks[0]:
        return False
    every = (1 << len(masks)) - 1
    bit = 1
    while bit <= every:
        if not _spans(masks, every ^ bit):
            return False
        bit <<= 1
    return True


def enumerate_diagrams(n: int, cap: Optional[int] = DEFAULT_CAP) -> Iterator[ChordDiagram]:
    """All (2n-1)!! rooted diagrams on n chords, in deterministic order.

    The smallest free position is always matched first, and its partners are
    tried left to right, so the diagrams come grouped by the partner of
    position 1, in increasing order. ``cap`` bounds n (pass None to lift it;
    the double factorial growth is on the caller by then).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_cap("enumeration", n, cap)
    if n == 0:
        yield EMPTY_DIAGRAM
        return
    size = 2 * n
    partner = [0] * (size + 2)  # 1-based; the free slot size + 1 ends each search
    free_from = partner.index
    new_diagram = object.__new__
    # Depth first, with the placed chords (i, j) on an explicit stack: i was
    # the smallest free position when the chord was placed, j its partner.
    stack = []
    i = j = 1
    while True:
        j = free_from(0, j + 1)
        if j > size:  # every partner of i tried: take back the chord before
            if not stack:
                return
            i, j = stack.pop()
            partner[i] = partner[j] = 0
            continue
        partner[i] = j
        partner[j] = i
        first_free = free_from(0, i + 1)
        if first_free > size:
            # a leaf, built as ChordDiagram._from_involution does
            diagram = new_diagram(ChordDiagram)
            diagram._pairing = tuple(partner[1:-1])
            yield diagram
            partner[i] = partner[j] = 0
        else:
            stack.append((i, j))
            i = j = first_free


def is_connected(diagram: ChordDiagram) -> bool:
    """True when the intersection graph is connected; undefined for n = 0."""
    pairing = diagram.pairing
    if not pairing:
        raise ValueError("connectivity is undefined for the empty diagram")
    return _spans(_crossing_masks(pairing), (1 << (len(pairing) // 2)) - 1)


def is_k_connected(diagram: ChordDiagram, k: int) -> bool:
    """True when no removal of fewer than k chords disconnects the diagram.

    A diagram must have at least k chords to count as k-connected; this makes
    the single chord connected but not 2-connected, matching the connectivity
    censuses.
    """
    pairing = diagram.pairing
    n = len(pairing) // 2
    if n < 1:
        raise ValueError("k-connectivity is undefined for the empty diagram")
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        return False
    masks = _crossing_masks(pairing)
    if k == 2:  # the common case: one removal per chord
        return _two_connected(masks)
    every = (1 << n) - 1
    if not _spans(masks, every):
        return False
    bits = [1 << c for c in range(n)]
    return all(
        _spans(masks, every & ~sum(removed))
        for r in range(1, min(k - 1, n - 1) + 1)
        for removed in combinations(bits, r)
    )


class Reason(namedtuple("Reason", ["start", "end", "cut_position", "cut_chord"])):
    """A consecutive endpoint interval witnessing a single-chord cut.

    Every endpoint in positions start..end is matched inside the interval
    except ``cut_position``, whose chord ``cut_chord`` is the cut: removing
    it separates the chords inside the interval from the rest.
    """

    __slots__ = ()


def find_reasons_connectivity1(diagram: ChordDiagram) -> list[Reason]:
    """All interval witnesses for connectivity 1, in (start, end) order.

    Intervals are consecutive in the linear order (not cyclically), have odd
    length with at least one complete chord inside (length >= 3, so that the
    cut genuinely disconnects something), and stay below 2n-1 endpoints. For
    a connected diagram on n >= 2 chords the list is empty exactly when the
    diagram is 2-connected.
    """
    return list(_reasons(diagram.pairing, range(1, diagram.size + 1)))


def _reasons(pairing: tuple[int, ...], starts) -> Iterator[Reason]:
    """The witnesses that begin at each of ``starts``, one at a time.

    One sweep per start: ``external`` counts the endpoints in start..end
    matched outside it and ``outside`` sums their positions, so when one is
    left, ``outside`` is the cut position.
    """
    size = len(pairing)
    for start in starts:
        external = outside = 0
        for end in range(start, min(size, start + size - 3) + 1):
            p = pairing[end - 1]
            if start <= p < end:
                external -= 1
                outside -= p
            else:
                external += 1
                outside += end
            if external == 1 and end - start >= 2:
                partner = pairing[outside - 1]
                chord = (min(outside, partner), max(outside, partner))
                yield Reason(start, end, outside, chord)


class DecompositionCase(enum.Enum):
    SINGLE_CHORD = "single-chord"
    ROOT_FREE = "root-free"
    ROOT_COVERED = "root-covered"


class ReasonRemoval(
    namedtuple("ReasonRemoval", ["start", "end", "cut_position", "removed_pairs"])
):
    """One step of the decomposition: the attachment hanging off a cut endpoint.

    ``start``/``end`` are the removed interval's bounds in the coordinates of
    the diagram the step was applied to, ``cut_position`` the surviving
    endpoint of the cut chord, and ``removed_pairs`` (a tuple of sorted
    pairs) the matching among the removed positions. Together these suffice
    to re-insert the attachment.
    """

    __slots__ = ()


class Decomposition(namedtuple("Decomposition", ["case", "core", "removals"])):
    """Reversible split of a connected diagram into a 2-connected core.

    ``case`` is a DecompositionCase and ``core`` a ChordDiagram.
    ``removals`` lists the extracted attachments (ReasonRemovals) in
    extraction order; for a root-covered diagram the first removal is the
    interval containing the root endpoint. ``recompose`` replays them in
    reverse.
    """

    __slots__ = ()


def _remove_interval(diagram: ChordDiagram, removal: ReasonRemoval) -> ChordDiagram:
    removed = {
        pos
        for pos in range(removal.start, removal.end + 1)
        if pos != removal.cut_position
    }
    pairing = diagram.pairing
    keep = [pos for pos in range(1, diagram.size + 1) if pos not in removed]
    index = {pos: i + 1 for i, pos in enumerate(keep)}
    # the removed positions pair among themselves, so the kept ones form an involution
    return ChordDiagram._from_involution(tuple(index[pairing[pos - 1]] for pos in keep))


def _insert_interval(diagram: ChordDiagram, removal: ReasonRemoval) -> ChordDiagram:
    removed = sorted(
        pos
        for pos in range(removal.start, removal.end + 1)
        if pos != removal.cut_position
    )
    total = diagram.size + len(removed)
    removed_set = set(removed)
    keep = [pos for pos in range(1, total + 1) if pos not in removed_set]
    if len(keep) != diagram.size:
        raise ValueError("attachment does not fit the diagram it is re-inserted into")
    original = {i + 1: pos for i, pos in enumerate(keep)}
    pairing = [0] * total
    for i in range(1, diagram.size + 1):
        pairing[original[i] - 1] = original[diagram.partner(i)]
    for u, v in removal.removed_pairs:
        if not (u in removed_set and v in removed_set):
            raise ValueError("removed pairs must match positions inside the interval")
        pairing[u - 1] = v
        pairing[v - 1] = u
    return ChordDiagram(pairing)


def decompose_connected(diagram: ChordDiagram) -> Decomposition:
    """Split a connected diagram into a 2-connected core plus attachments.

    Each step peels the longest cut witness from the smallest start that
    has one, removed without its cut chord, until no witness is left; the
    core that remains is 2-connected. A witness contains the root endpoint
    exactly when it starts at position 1, so the diagram is root-covered
    when its first peel starts there and root-free otherwise. The single
    chord has no witness and is its own (degenerate) decomposition.
    """
    if not is_connected(diagram):
        raise ValueError("decomposition is defined for connected diagrams only")
    removals: list[ReasonRemoval] = []
    current = diagram
    start = 1
    while start <= current.size:
        pairing = current.pairing
        witnesses = list(_reasons(pairing, (start,)))
        if not witnesses:
            start += 1
            continue
        reason = witnesses[-1]  # the sweep yields the ends in increasing order
        pairs = set()
        for pos in range(reason.start, reason.end + 1):
            if pos == reason.cut_position:
                continue
            q = pairing[pos - 1]
            pairs.add((min(pos, q), max(pos, q)))
        removal = ReasonRemoval(
            reason.start, reason.end, reason.cut_position, tuple(sorted(pairs))
        )
        removals.append(removal)
        current = _remove_interval(current, removal)
        start = 1
    if diagram.n == 1:
        case = DecompositionCase.SINGLE_CHORD
    elif removals and removals[0].start == 1:
        case = DecompositionCase.ROOT_COVERED
    else:
        case = DecompositionCase.ROOT_FREE
    return Decomposition(case, current, tuple(removals))


def recompose(decomposition: Decomposition) -> ChordDiagram:
    """Inverse of decompose_connected: re-insert attachments in reverse order."""
    current = decomposition.core
    for removal in reversed(decomposition.removals):
        current = _insert_interval(current, removal)
    return current


# -- censuses ---------------------------------------------------------------------


def census_backend() -> str:
    """Which census kernel is active: "compiled" or "python"."""
    return CENSUS_BACKEND


def class_census(
    n: int,
    cap: Optional[int] = DEFAULT_CAP,
    root_partner: int = 0,
    workers: int = 1,
) -> dict[str, int]:
    """Counts of all / connected / 2-connected diagrams on n chords.

    The brute-force cross-check for the generating series, through the
    active kernel as ``_census`` describes: one walk per rotation class
    l = 2..n, or the folded walk of the partition a ``root_partner``
    pins. With ``workers`` > 1 the walks are split into
    min(``workers``, walks) shares on either kernel: the calling process
    runs the first, and each other share runs in a forked child process.
    Where ``os.fork`` is missing (Windows) the shares run one after another.
    """
    total, connected, two_connected = _census(n, 2, cap, root_partner, workers)
    return {"all": total, "connected": connected, "2connected": two_connected}


def k_connected_census(n: int, k: int, cap: Optional[int] = DEFAULT_CAP) -> int:
    """Count of k-connected diagrams on n chords by exhaustive enumeration."""
    return _census(n, k, cap)[-1]


def _census(
    n: int, k: int, cap: Optional[int], root_partner: int = 0, workers: int = 1
) -> tuple[int, ...]:
    """Counts of the j-connected diagrams on n chords, for j = 0..k.

    Checks every census input. The kernel leaves a subtree unwalked as soon
    as a closed interval of positions shows it disconnected, and classifies
    each connected diagram on its own. Crossings are defined on the circle,
    so every level is invariant under the 2n rotations, and for n >= 2 no
    connected diagram has a chord of cyclic length 1. So the kernel walks
    the classes l = 2..n, each rotation class with shortest chord length l
    once through its members with a root chord (1, l + 1), weighted so that
    class l gives the diagrams at each level j >= 1 whose shortest chord has
    length l. Their sums are the census, and level 0 holds all (2n-1)!!.
    A fixed ``root_partner`` walks its own partition, which the kernel
    folds onto itself by the reflection that fixes the root chord unless
    the root partner is 2 or 2n (``_census_py`` explains). The census
    keeps the plain walk for n <= 1, and so does ``case_census``: whether a
    diagram is root-covered depends on position 1, so that count is not
    rotation-invariant. A k-connected diagram has at least k chords, so a
    k above both n and 2 (``class_census`` asks k = 2 of every n) gives
    (0,) with no walk.

    With ``workers`` > 1 the walks are dealt to min(``workers``, walks)
    shares in snake order: 0, 1, ..., count - 1, count - 1, ..., 0, 0, 1,
    and so on, since a class costs less the longer its shortest chord.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be at least 1")
    if workers < 1 or (workers > 1 and root_partner):
        raise ValueError("workers must be at least 1, and exactly 1 with a root_partner")
    _check_cap("census", n, cap)
    if root_partner and not 2 <= root_partner <= 2 * n:
        raise ValueError(f"root partner must lie in 2..{2 * n}")
    if k > max(n, 2):
        return (0,)
    by_class = not root_partner and n >= 2
    walks = [(0, shortest) for shortest in range(2, n + 1)] if by_class else [(root_partner, 0)]
    count = min(workers, len(walks)) if hasattr(os, "fork") else 1
    shares = [walks[i :: 2 * count] + walks[2 * count - 1 - i :: 2 * count] for i in range(count)]
    counts = tuple(map(sum, zip(*_run_shares(n, k, shares))))
    return (double_factorial_odd(n),) + counts[1:] if by_class else counts


def _share_counts(n: int, k: int, share: list[tuple[int, int]]) -> tuple[int, ...]:
    """The kernel's counts over (root partner, class) walks, summed."""
    parts = [_census_impl.class_census(n, rp, k, shortest) for rp, shortest in share]
    return tuple(map(sum, zip(*parts)))


def _run_shares(n: int, k: int, shares: list) -> list[tuple[int, ...]]:
    """The counts of each share: the first run here, every other in a forked child.

    A child runs only the kernel, which takes no lock that another thread
    of the caller could hold at the fork. It writes its counts to a pipe as
    text and leaves with ``os._exit``, so nothing of the caller's (buffered
    output, atexit hooks, a test runner's frames) runs twice. The parent
    reads each pipe to its end and reaps the child, and a nonzero exit
    status raises. When anything raises first, the ``finally`` kills and
    reaps every child not yet reaped.
    """
    children = []  # (pid, read end of its pipe), oldest first
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    # a few hundred bytes at most: one write below PIPE_BUF is never split
                    os.write(write, " ".join(map(str, _share_counts(n, k, share))).encode())
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, os.fdopen(read)))
        results = [_share_counts(n, k, shares[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                text = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status:
                raise RuntimeError(
                    f"a census share exited with status {os.waitstatus_to_exitcode(status)}"
                )
            results.append(tuple(map(int, text.split())))
        return results
    finally:
        if children:
            from signal import SIGKILL

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def case_census(n: int, cap: Optional[int] = DEFAULT_CAP) -> dict[DecompositionCase, int]:
    """Decomposition-case counts over all connected diagrams on n chords.

    The pure-Python census walker visits exactly the connected diagrams,
    each with its level; on n >= 2 chords level 1 flags a cut chord. A
    diagram without one has no witness interval, so it is root-free; one
    with a cut chord is root-covered when a witness starts at position 1,
    which is when ``decompose_connected`` peels first from there.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_cap("census", n, cap)
    counts = {case: 0 for case in DecompositionCase}
    if n == 1:
        counts[DecompositionCase.SINGLE_CHORD] = 1
    elif n >= 2:
        by_case = [0, 0]  # root-free, root-covered

        def visit(partner: list[int], level: int, ends: int) -> None:
            # _reasons reads 1-based partners and yields truthy witnesses
            root_covered = level == 1 and any(_reasons([q + 1 for q in partner], (1,)))
            by_case[root_covered] += 1

        _census_py._walk(n, 0, visit)
        counts[DecompositionCase.ROOT_FREE], counts[DecompositionCase.ROOT_COVERED] = by_case
    return counts


def pure_python_census_module():
    """The pure-Python kernel, importable regardless of the active backend."""
    return _census_py
