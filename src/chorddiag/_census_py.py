"""Pure-Python census kernel.

Same contract as the compiled twin in ``_census.c``: enumerate every
rooted diagram on n chords (smallest free position matched first) and count
connectivity classes with bitmask graph searches. Kept dependency-free and
allocation-light so it stays usable up to n = 7 when the extension is not
built.

One walker, ``_walk``, places the chords and hands each finished diagram
that the prunes below keep to one classifier, which gives it the highest j <= k for which it is
j-connected. Chords are numbered by left endpoint, and each chord's
crossing mask is kept current as chords are placed: when the smallest free
position i is matched with j, the new chord crosses exactly the placed
chords whose right endpoint lies in (i, j), so those bits are set on
placement and cleared on backtrack. No leaf rebuilds a mask.

Two O(1) prunes skip subtrees in which every diagram is disconnected, and
count them in bulk: a subtree with m chords still to place holds (2m-1)!!
diagrams.

- Adjacent positions. When n >= 2, a chord on the adjacent positions
  (i, i+1) has no endpoint between its own, so it crosses nothing and is
  an isolated vertex of the intersection graph.
- Closed prefix. When the smallest free position i equals 2c with c >= 1
  chords placed, positions before i hold both ends of every placed chord.
  No chord still to place can cross them, so the diagram splits into two
  non-empty parts.

Every diagram that may be connected still reaches the classifier, so the
connected and k-connected counts stay enumeration counts, and the total is
still a sum over the walk's branches.
"""

from __future__ import annotations

from itertools import accumulate, combinations


def _closure(adj: list[int], mask: int, start: int) -> int:
    comp = start
    frontier = start
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        nxt &= mask
        frontier = nxt & ~comp
        comp |= nxt
    return comp


def _connected_masked(adj: list[int], mask: int) -> bool:
    if mask == 0:
        return False
    low = mask & -mask
    return _closure(adj, mask, low) == mask


def _kept_after_removals(n: int, k: int) -> list[int]:
    """Masks of the chords left after removing r of n chords, 1 <= r < min(k, n)."""
    full = (1 << n) - 1
    return [
        full & ~sum(1 << c for c in removed)
        for r in range(1, min(k - 1, n - 1) + 1)
        for removed in combinations(range(n), r)
    ]


def _walk(n: int, root_partner: int, visit) -> int:
    """Call ``visit(adj)`` once per diagram on n chords that the prunes keep.

    Diagrams are visited in enumeration order. ``adj[c]`` is the crossing
    mask of chord c (chords numbered by left endpoint); the list is reused,
    so ``visit`` must not keep it. ``root_partner`` (1-based position, 0 for
    unrestricted) pins the partner of position 1. Returns the number of
    diagrams skipped, all of them disconnected.
    """
    size = 2 * n
    owner = [-1] * size  # chord whose right endpoint sits at a position
    adj = [0] * n
    rest = [1] * (n + 1)  # rest[c] = (2(n - c) - 1)!!, completions of c placed chords
    for c in range(n - 1, -1, -1):
        rest[c] = rest[c + 1] * (2 * (n - c) - 1)
    skipped = 0

    def place(i: int, c: int) -> None:
        nonlocal skipped
        while i < size and owner[i] >= 0:
            i += 1
        if i == size:
            visit(adj)
            return
        if c and i == 2 * c:  # closed prefix
            skipped += rest[c]
            return
        bit = 1 << c
        cross = 0
        first = i + 1
        if owner[first] < 0 and n > 1:  # the chord (i, i + 1) crosses nothing
            skipped += rest[c + 1]
            first += 1
        for j in range(first, size):
            d = owner[j]
            if d >= 0:
                cross |= 1 << d
                continue
            owner[j] = c
            adj[c] = cross
            m = cross
            while m:
                low = m & -m
                adj[low.bit_length() - 1] |= bit
                m ^= low
            place(i + 1, c + 1)
            m = cross
            while m:
                low = m & -m
                adj[low.bit_length() - 1] ^= bit
                m ^= low
            owner[j] = -1

    if root_partner:
        if not 2 <= root_partner <= size:
            raise ValueError(f"root partner must lie in 2..{size}")
        owner[root_partner - 1] = 0
        place(1, 1)
    else:
        place(0, 0)
    return skipped


def _census(n: int, k: int, root_partner: int = 0) -> list[int]:
    """Counts of the j-connected diagrams on n chords, for j = 0..k.

    Each diagram the walk visits is classified once, by the highest j <= k
    for which it is connected, has at least j chords, and survives every
    removal of fewer than j chords. The diagrams it skips are disconnected
    and count at level 0.
    """
    full = (1 << n) - 1
    kept = _kept_after_removals(n, k)  # ascending in the number removed
    top = min(k, n)
    by_level = [0] * (k + 1)

    def visit(adj: list[int]) -> None:
        if not _connected_masked(adj, full):
            by_level[0] += 1
            return
        for mask in kept:
            if not _connected_masked(adj, mask):
                by_level[n - mask.bit_count()] += 1
                return
        by_level[top] += 1

    skipped = _walk(n, root_partner, visit)  # visit updates by_level[0] during the walk
    by_level[0] += skipped
    return list(accumulate(reversed(by_level)))[::-1]


def class_census(n: int, root_partner: int = 0) -> tuple[int, int, int]:
    """(total, connected, 2-connected) over all diagrams on n chords.

    ``root_partner`` (1-based position, 0 for unrestricted) pins the partner
    of position 1, partitioning the enumeration.
    """
    return tuple(_census(n, 2, root_partner))


def k_connected_count(n: int, k: int) -> int:
    """Count of k-connected diagrams on n chords (removal characterization)."""
    if n < k:
        return 0
    return _census(n, k)[k]
