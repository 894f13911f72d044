"""Diagram oracle: enumeration, connectivity, cut witnesses, decomposition."""

import os
import time
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorddiag import _census_py, oracle
from chorddiag._census_py import class_census as py_class_census
from chorddiag.oracle import (
    CapExceededError,
    ChordDiagram,
    DecompositionCase,
    _crossing_masks,
    crossing,
    decompose_connected,
    enumerate_diagrams,
    find_reasons_connectivity1,
    is_connected,
    is_k_connected,
    recompose,
)

CROSSING = ChordDiagram([3, 4, 1, 2])
NESTED = ChordDiagram([4, 3, 2, 1])
SINGLE = ChordDiagram([2, 1])


def odd_double_factorial(n: int) -> int:
    result = 1
    for k in range(1, n + 1):
        result *= 2 * k - 1
    return result


def graph_level(diagram: ChordDiagram, k: int) -> int:
    """The highest j <= k for which the diagram is j-connected, by graph search."""
    j = 0
    while j < k and is_k_connected(diagram, j + 1):
        j += 1
    return j


ALL_LEVELS_N7 = (135135, 38232, 10113, 2187, 339, 29, 1, 1)
ALL_LEVELS_N8 = (2027025, 593859, 161935, 37041, 6641, 771, 47, 1, 1)


@lru_cache(maxsize=None)
def unfolded_tallies(n: int, k: int) -> dict[int, tuple[int, ...]]:
    """``class_census(n, r, k)`` for every root partner r, from the one
    unpinned walk, which visits every connected diagram once: each leaf
    counts in the partition of its position 1's partner."""
    by_partner = {rp: [0] * (k + 2) for rp in range(2, 2 * n + 1)}

    def visit(partner, level, ends):
        by_partner[partner[0] + 1][level] += 1

    _census_py._walk(n, 0, visit, k)
    return {
        rp: (odd_double_factorial(n - 1), *(sum(by_level[j:]) for j in range(1, k + 1)))
        for rp, by_level in by_partner.items()
    }


def unfolded_tally(n: int, root_partner: int, k: int) -> tuple[int, ...]:
    return unfolded_tallies(n, k)[root_partner]


@lru_cache(maxsize=None)
def unpinned_leaves(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every leaf (partner, level) of the unpinned walk, in the walk's order."""
    leaves = []

    def visit(partner, level, ends):
        assert ends == 0 and level >= 1, (partner, level, ends)
        leaves.append((tuple(partner), level))

    _census_py._walk(n, 0, visit, k)
    return tuple(leaves)


def reaches(partner: list[int], root_partner: int) -> tuple[int, int]:
    """(f, g) of a diagram with the root chord (1, r), from 0-based partners:
    how far the chord at 2 reaches forward and the chord at r - 1 backward."""
    size = len(partner)
    return partner[1] - 1, (root_partner - 2 - partner[root_partner - 2]) % size


class TestChordDiagram:
    def test_validation(self):
        with pytest.raises(ValueError, match="involution"):
            ChordDiagram([2, 3, 1, 4])
        with pytest.raises(ValueError, match="itself"):
            ChordDiagram([1, 2])
        with pytest.raises(ValueError, match="even"):
            ChordDiagram([2, 1, 3])
        with pytest.raises(ValueError, match="partner 5 of position 3 out of range"):
            ChordDiagram([2, 1, 5, 3])

    def test_chords_and_root(self):
        assert CROSSING.chords() == ((1, 3), (2, 4))
        assert CROSSING.root_chord() == (1, 3)
        assert CROSSING.partner(2) == 4

    def test_text_round_trip(self):
        assert CROSSING.to_text() == "2: 3 4 1 2"
        assert ChordDiagram.from_text("2: 3 4 1 2") == CROSSING
        with pytest.raises(ValueError, match="expected 4 partners"):
            ChordDiagram.from_text("2: 3 4 1")

    @pytest.mark.parametrize("text", ["bad", "2: 3 4 1 x", "two: 3 4 1 2", "3 4 1 2"])
    def test_malformed_text_names_the_form(self, text):
        with pytest.raises(ValueError) as caught:
            ChordDiagram.from_text(text)
        assert str(caught.value) == f"diagram text must read 'n: p1 ... p2n', got {text!r}"

    def test_text_with_an_invalid_pairing_rejected(self):
        with pytest.raises(ValueError, match="not an involution at position 1"):
            ChordDiagram.from_text("2: 3 1 4 2")
        with pytest.raises(ValueError, match="position 1 is matched with itself"):
            ChordDiagram.from_text("1: 1 2")


class TestEnumeration:
    def test_single_chord(self):
        assert list(enumerate_diagrams(1)) == [SINGLE]

    def test_counts_small(self):
        for n in range(0, 6):
            got = sum(1 for _ in enumerate_diagrams(n))
            assert got == odd_double_factorial(n)

    def test_deterministic_order(self):
        got = [d.pairing for d in enumerate_diagrams(2)]
        assert got == [(2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]

    def test_distinct_and_valid(self):
        seen = set(enumerate_diagrams(4))
        assert len(seen) == 105

    def test_order_matches_recursive_reference(self):
        def reference(n, root_partner):
            """The recursive enumeration: smallest free position, partners left to right."""
            size = 2 * n
            partner = [0] * (size + 1)

            def fill(first_free):
                i = first_free
                while i <= size and partner[i]:
                    i += 1
                if i > size:
                    yield tuple(partner[1:])
                    return
                for j in range(i + 1, size + 1):
                    if not partner[j]:
                        partner[i], partner[j] = j, i
                        yield from fill(i + 1)
                        partner[i] = partner[j] = 0

            if root_partner:
                partner[1], partner[root_partner] = root_partner, 1
            yield from fill(1)

        for n in range(1, 6):
            whole = [d.pairing for d in enumerate_diagrams(n)]
            assert whole == list(reference(n, None)), n
            for rp in range(2, 2 * n + 1):
                got = [p for p in whole if p[0] == rp]
                assert got == list(reference(n, rp)), (n, rp)

    def test_cap(self):
        with pytest.raises(CapExceededError, match="cap of 8"):
            next(enumerate_diagrams(9))
        assert sum(1 for _ in enumerate_diagrams(3, cap=3)) == 15

    def test_census_n8_count(self, compiled_census):
        assert compiled_census.class_census(8)[0] == odd_double_factorial(8) == 2027025


class TestConnectivity:
    def test_crossing_connected(self):
        assert is_connected(CROSSING)

    def test_nested_disconnected(self):
        assert not is_connected(NESTED)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_connected(oracle.EMPTY_DIAGRAM)

    def test_connected_count_n5(self):
        got = sum(1 for d in enumerate_diagrams(5) if is_connected(d))
        assert got == 248

    def test_intersection_graph(self):
        assert _crossing_masks(CROSSING.pairing) == [0b10, 0b01]
        assert _crossing_masks(NESTED.pairing) == [0, 0]


def pairwise_crossings(diagram):
    chords = diagram.chords()
    return tuple(
        (i, j)
        for i in range(len(chords))
        for j in range(i + 1, len(chords))
        if crossing(chords[i], chords[j])
    )


def shuffled_matching(points):
    """Pair off consecutive entries of a permutation of the 2n positions."""
    pairing = [0] * len(points)
    for a, b in zip(points[::2], points[1::2]):
        pairing[a - 1], pairing[b - 1] = b, a
    return ChordDiagram(pairing)


matchings = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.permutations(range(1, 2 * n + 1))
).map(shuffled_matching)


def crossing_bits(diagram):
    """The ordered chord pairs (i, j) whose bit j ``_crossing_masks`` sets in mask i."""
    masks = _crossing_masks(diagram.pairing)
    assert len(masks) == diagram.n, diagram.to_text()
    return {(i, j) for i, mask in enumerate(masks) for j in range(mask.bit_length()) if mask >> j & 1}


def both_ways(edges):
    return {*edges, *((j, i) for i, j in edges)}


class TestCrossingMasks:
    def test_edges_match_pairwise_crossing_exhaustively(self):
        for n in range(0, 7):
            for diagram in enumerate_diagrams(n):
                edges = pairwise_crossings(diagram)
                assert crossing_bits(diagram) == both_ways(edges), diagram.to_text()

    @given(matchings)
    @settings(max_examples=300, deadline=None)
    def test_edges_and_two_connectivity_on_shuffled_matchings(self, diagram):
        assert crossing_bits(diagram) == both_ways(pairwise_crossings(diagram))
        assert is_k_connected(diagram, 2) == (
            is_connected(diagram)
            and diagram.n >= 2
            and not find_reasons_connectivity1(diagram)
        )


def bfs_k_connected(diagram, k):
    """k-connectivity by a search over pairwise_crossings after each removal."""
    n = diagram.n
    if n < k:
        return False
    neighbours = [set() for _ in range(n)]
    for i, j in pairwise_crossings(diagram):
        neighbours[i].add(j)
        neighbours[j].add(i)
    for r in range(min(k - 1, n - 1) + 1):  # r = 0: the diagram itself is connected
        for removed in combinations(range(n), r):
            rest = set(range(n)).difference(removed)
            seen, queue = {min(rest)}, [min(rest)]
            while queue:
                grown = (neighbours[queue.pop(0)] & rest) - seen
                seen |= grown
                queue.extend(grown)
            if seen != rest:
                return False
    return True


class TestKConnectivity:
    @given(matchings, st.sampled_from([1, 2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_matches_a_search_after_each_removal(self, diagram, k):
        assert is_k_connected(diagram, k) == bfs_k_connected(diagram, k), diagram.to_text()
        if k == 1:
            assert is_connected(diagram) == bfs_k_connected(diagram, 1)

    def test_crossing_two_connected(self):
        assert is_k_connected(CROSSING, 2)

    def test_single_chord_not_two_connected(self):
        assert not is_k_connected(SINGLE, 2)
        assert is_k_connected(SINGLE, 1)

    def test_count_n4(self):
        got = sum(1 for d in enumerate_diagrams(4) if is_k_connected(d, 2))
        assert got == 7

    def test_monotone_in_k(self):
        for n in range(1, 6):
            for d in enumerate_diagrams(n):
                for k in (3, 2):
                    if is_k_connected(d, k):
                        assert is_k_connected(d, k - 1)

    def test_three_connected_triple(self):
        # three mutually crossing chords survive any single removal
        triple = ChordDiagram([4, 5, 6, 1, 2, 3])
        assert is_k_connected(triple, 3)
        assert not is_k_connected(triple, 4)


class TestReasons:
    def test_crossing_empty(self):
        assert find_reasons_connectivity1(CROSSING) == []

    def test_single_chord_empty(self):
        assert find_reasons_connectivity1(SINGLE) == []

    def test_reason_details(self):
        # positions 2..4 are matched inside except 3, whose chord {3,6} is the cut
        d = ChordDiagram([5, 4, 6, 2, 1, 3])
        reasons = find_reasons_connectivity1(d)
        assert any(
            (r.start, r.end, r.cut_position, r.cut_chord) == (2, 4, 3, (3, 6))
            for r in reasons
        )

    def test_matches_naive_oracle(self):
        def naive(diagram):
            p = diagram.pairing
            size = diagram.size
            out = []
            for a in range(1, size + 1):
                for b in range(a, size + 1):
                    length = b - a + 1
                    if length < 3 or length % 2 == 0 or length >= size - 1:
                        continue
                    outside = [
                        i for i in range(a, b + 1) if not (a <= p[i - 1] <= b)
                    ]
                    if len(outside) == 1:
                        out.append((a, b, outside[0]))
            return sorted(out)

        for n in range(1, 6):
            for d in enumerate_diagrams(n):
                got = sorted(
                    (r.start, r.end, r.cut_position)
                    for r in find_reasons_connectivity1(d)
                )
                assert got == naive(d)

    def test_empty_reasons_count_n4(self):
        connected = [d for d in enumerate_diagrams(4) if is_connected(d)]
        empty = [d for d in connected if not find_reasons_connectivity1(d)]
        assert len(empty) == 7

    def test_equivalence_with_two_connected(self):
        for n in range(2, 6):
            for d in enumerate_diagrams(n):
                if not is_connected(d):
                    continue
                assert (not find_reasons_connectivity1(d)) == is_k_connected(d, 2)


class TestDecomposition:
    def test_single_chord_case(self):
        dec = decompose_connected(SINGLE)
        assert dec.case is DecompositionCase.SINGLE_CHORD
        assert dec.core == SINGLE
        assert recompose(dec) == SINGLE

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            decompose_connected(NESTED)

    def test_case_census_n3(self):
        counts = oracle.case_census(3)
        assert counts[DecompositionCase.ROOT_FREE] == 3
        assert counts[DecompositionCase.ROOT_COVERED] == 1
        assert counts[DecompositionCase.SINGLE_CHORD] == 0

    def test_case_census_n6(self):
        counts = oracle.case_census(6)
        assert counts[DecompositionCase.ROOT_FREE] == 2232
        assert counts[DecompositionCase.ROOT_COVERED] == 598
        assert counts[DecompositionCase.SINGLE_CHORD] == 0

    def test_case_census_n7_matches_series_rows(self):
        from chorddiag import gf

        rows = gf.decomposition_table_series(8)
        counts = oracle.case_census(7)
        assert counts[DecompositionCase.ROOT_FREE] == rows["C^2 * [C2(t)/t^2]"][7]
        assert (
            counts[DecompositionCase.ROOT_COVERED]
            == rows["(C-x)/x * C^2 * [C2(t)/t^2]"][7]
        )

    def test_case_census_matches_graph_search(self):
        """The walker-driven census equals the count over the graph-search route."""
        for n in range(1, 7):
            expected = {case: 0 for case in DecompositionCase}
            for d in enumerate_diagrams(n):
                if is_connected(d):
                    expected[decompose_connected(d).case] += 1
            assert oracle.case_census(n) == expected, n

    def test_case_census_edges(self):
        assert set(oracle.case_census(0).values()) == {0}
        assert oracle.case_census(1) == {
            DecompositionCase.SINGLE_CHORD: 1,
            DecompositionCase.ROOT_FREE: 0,
            DecompositionCase.ROOT_COVERED: 0,
        }
        with pytest.raises(ValueError, match="nonnegative"):
            oracle.case_census(-1)
        with pytest.raises(CapExceededError, match="cap of 8"):
            oracle.case_census(9)
        with pytest.raises(CapExceededError, match="cap of 4"):
            oracle.case_census(5, cap=4)

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for d in enumerate_diagrams(n):
                if not is_connected(d):
                    continue
                dec = decompose_connected(d)
                assert recompose(dec) == d
                if dec.case is not DecompositionCase.SINGLE_CHORD:
                    assert is_k_connected(dec.core, 2)
                covered = any(r.start == 1 for r in find_reasons_connectivity1(d))
                assert (dec.case is DecompositionCase.ROOT_COVERED) == covered, d

    def test_peels_the_longest_leftmost_witness(self):
        d = ChordDiagram.from_text("4: 3 5 1 7 2 8 4 6")
        assert decompose_connected(d).removals == (
            oracle.ReasonRemoval(1, 5, 4, ((1, 3), (2, 5))),
        )
        for n in range(1, 6):
            for d in enumerate_diagrams(n):
                if not is_connected(d):
                    continue
                dec = decompose_connected(d)
                for step, removal in enumerate(dec.removals):
                    # the diagram this step was applied to
                    current = recompose(
                        oracle.Decomposition(dec.case, dec.core, dec.removals[step:])
                    )
                    witnesses = find_reasons_connectivity1(current)
                    start = min(r.start for r in witnesses)
                    end = max(r.end for r in witnesses if r.start == start)
                    assert (removal.start, removal.end) == (start, end), (d, step)

    def test_malformed_attachment_rejected(self):
        d = ChordDiagram([5, 4, 6, 2, 1, 3])
        dec = decompose_connected(d)
        assert dec.removals
        removal = dec.removals[0]
        tampered = oracle.ReasonRemoval(
            removal.start,
            removal.end,
            removal.cut_position,
            tuple((u, v + 99) for u, v in removal.removed_pairs),
        )
        bad = oracle.Decomposition(dec.case, dec.core, (tampered,))
        with pytest.raises(ValueError):
            recompose(bad)

    def test_root_covered_witness_n4(self):
        witnesses = [
            d
            for d in enumerate_diagrams(4)
            if is_connected(d)
            and decompose_connected(d).case is DecompositionCase.ROOT_COVERED
        ]
        assert len(witnesses) == 7
        for d in witnesses:
            dec = decompose_connected(d)
            assert dec.removals
            assert dec.removals[0].start == 1  # root reason peeled first
            assert recompose(dec) == d


class TestCensusBackends:
    def test_fallback_selected_when_extension_missing(self):
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'chorddiag._census':\n"
            "            raise ImportError('blocked for fallback test')\n"
            "sys.meta_path.insert(0, Block())\n"
            "import chorddiag\n"
            "assert chorddiag.census_backend() == 'python'\n"
            "assert chorddiag.class_census(4) == "
            "{'all': 105, 'connected': 27, '2connected': 7}\n"
            "print('fallback-ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert "fallback-ok" in result.stdout

    def test_parity_small_n(self, census_kernels):
        for n in range(0, 6):
            pure = py_class_census(n)
            assert oracle.class_census(n) == {
                "all": pure[0],
                "connected": pure[1],
                "2connected": pure[2],
            }
            for kernel in census_kernels:
                assert tuple(kernel.class_census(n)) == pure, kernel.__name__

    def test_partitions_match_enumeration(self, census_kernels):
        for n in range(1, 7):
            for rp in (0, *range(2, 2 * n + 1)):
                diagrams = [d for d in enumerate_diagrams(n) if not rp or d.pairing[0] == rp]
                expected = (
                    len(diagrams),
                    sum(1 for d in diagrams if is_connected(d)),
                    sum(1 for d in diagrams if is_k_connected(d, 2)),
                )
                for kernel in census_kernels:
                    got = tuple(kernel.class_census(n, rp))
                    assert got == expected, (kernel.__name__, n, rp)

    def test_prunes_skip_only_disconnected_diagrams(self):
        def connected(partner):
            chords = [(i, j) for i, j in enumerate(partner) if i < j]
            seen = {0}
            frontier = [0]
            while frontier:
                a, b = chords[frontier.pop()]
                for d, (c, e) in enumerate(chords):
                    if d not in seen and (a < c < b < e or c < a < e < b):
                        seen.add(d)
                        frontier.append(d)
            return len(seen) == len(chords)

        for n in range(1, 7):
            top = {}  # the full level of each connected diagram
            for d in enumerate_diagrams(n):
                partner = tuple(q - 1 for q in d.pairing)
                if connected(partner):
                    top[partner] = graph_level(d, n + 1)
            # r = 2 walks plain, and 2n is its reflection
            plain = {2, 2 * n}
            for k in (1, 2, 3, n + 1):
                expected = tuple((partner, min(level, k)) for partner, level in top.items())
                assert unpinned_leaves(n, k) == expected, (n, k)  # in enumeration order
                for rp in plain:
                    leaves = []

                    def visit(partner, level, ends):
                        assert ends == 0, (partner, level, ends)
                        leaves.append((tuple(partner), level))

                    _census_py._walk(n, rp, visit, k)
                    part = [leaf for leaf in expected if leaf[0][0] == 1]
                    assert leaves == part, (n, rp, k)
        assert len(top) == 2830  # n = 6

    def test_walk_totals_n7(self):
        by_level = [0] * 8
        sample = []

        def visit(partner, level, ends):
            assert -1 not in partner
            if sum(by_level) % 97 == 0:
                sample.append((ChordDiagram([q + 1 for q in partner]), level))
            by_level[level] += 1

        _census_py._walk(7, 0, visit, 7)
        assert by_level == [0, 28119, 7926, 1848, 310, 28, 0, 1]  # no leaf at level 0
        assert sum(by_level) == ALL_LEVELS_N7[1]
        for diagram, level in sample:  # every 97th leaf against the graph search
            assert level == graph_level(diagram, 7), diagram

    def test_bad_input_rejected(self, census_kernels):
        for kernel in census_kernels:
            for call in (
                lambda: kernel.class_census(-1),
                lambda: kernel.class_census(-1, 0, 2)[2],
            ):
                with pytest.raises(ValueError, match="n must"):
                    call()
            for k in (0, -1):
                with pytest.raises(ValueError, match="k must be at least 1"):
                    kernel.class_census(3, 0, k)[k]
            with pytest.raises(ValueError, match="k must be at least 1 and at most 10"):
                kernel.class_census(3, 0, 11)
        with pytest.raises(ValueError, match="n must"):
            _census_py._walk(-1, 0, lambda partner, level, ends: None)

    def test_k_census_matches_predicate(self, census_kernels, monkeypatch):
        for n in range(1, 7):
            diagrams = list(enumerate_diagrams(n))
            for k in range(1, n + 2):  # k = n + 1 checks the all-zero top column
                brute = sum(1 for d in diagrams if is_k_connected(d, k))
                for kernel in census_kernels:
                    monkeypatch.setattr(oracle, "_census_impl", kernel)
                    assert oracle.k_connected_census(n, k) == brute, (kernel.__name__, n, k)
                    assert kernel.class_census(n, 0, k)[k] == brute, (kernel.__name__, n, k)

    def test_all_levels_n7_pinned(self, census_kernels):
        for kernel in census_kernels:
            assert tuple(kernel.class_census(7, 0, 7)) == ALL_LEVELS_N7, kernel.__name__

    def test_root_partner_partition_sums(self, census_kernels):
        total = sum(
            oracle.class_census(4, root_partner=rp)["all"] for rp in range(2, 9)
        )
        assert total == 105
        for kernel in census_kernels:
            for n in range(1, 7):
                parts = [kernel.class_census(n, rp) for rp in range(2, 2 * n + 1)]
                whole = tuple(kernel.class_census(n))
                assert tuple(map(sum, zip(*parts))) == whole, kernel.__name__

    def test_reflected_partitions_count_alike(self):
        # j -> 2n+2-j fixes position 1 and keeps every crossing; the plain walk
        # visits both partitions diagram by diagram
        for n in range(1, 8):
            for rp in range(2, 2 * n + 1):
                mirrored = unfolded_tally(n, 2 * n + 2 - rp, 2)
                assert unfolded_tally(n, rp, 2) == mirrored, (n, rp)

    def test_folded_partitions_match_the_unfolded_walk(self, census_kernels):
        for kernel in census_kernels:
            for n in range(2, 9):
                for k in (2,) if n == 8 else sorted({1, 2, 3, n}):
                    for rp in range(2, 2 * n + 1):
                        got = tuple(kernel.class_census(n, rp, k))
                        assert got == unfolded_tally(n, rp, k), (kernel.__name__, n, rp, k)

    def test_fold_visits_the_diagrams_with_f_at_most_g(self):
        # i -> r+1-i fixes the root chord (1, r) and swaps f and g
        for n in range(2, 7):
            for rp in range(3, 2 * n):
                mirrored = min(rp, 2 * n + 2 - rp)
                expected = {}
                for partner, level in unpinned_leaves(n, 3):
                    if partner[0] == mirrored - 1:
                        f, g = reaches(partner, mirrored)
                        if f <= g:  # a leaf of ends n stands for 2 diagrams, of ends 0 for 1
                            expected[partner] = (level, n if f < g else 0)
                folded = {}

                def visit(partner, level, ends):
                    assert tuple(partner) not in folded, partner
                    folded[tuple(partner)] = (level, ends)

                _census_py._walk(n, rp, visit, 3)
                assert folded == expected, (n, rp)

    def test_class_census_matches_full_walk(self, census_kernels, monkeypatch):
        for kernel in census_kernels:
            monkeypatch.setattr(oracle, "_census_impl", kernel)
            for n in range(0, 9 if kernel is not _census_py else 8):
                total, connected, two_connected = kernel.class_census(n)
                full = {"all": total, "connected": connected, "2connected": two_connected}
                assert oracle.class_census(n) == full, (kernel.__name__, n)
                assert oracle.class_census(n, workers=3) == full, (kernel.__name__, n)
                for k in (1, 2, 3, 4):
                    got = oracle.k_connected_census(n, k)
                    assert got == kernel.class_census(n, 0, k)[k], (kernel.__name__, n, k)

    def test_pinned_partition_counted_once(self, census_kernels, monkeypatch):
        for kernel in census_kernels:
            monkeypatch.setattr(oracle, "_census_impl", kernel)
            for rp in range(2, 11):
                total, connected, two_connected = kernel.class_census(5, rp)
                assert oracle.class_census(5, root_partner=rp) == {
                    "all": total, "connected": connected, "2connected": two_connected
                }, (kernel.__name__, rp)
            with pytest.raises(ValueError, match="root partner must lie in 2..10"):
                oracle.class_census(5, root_partner=3_000_000_000)  # past a C int

    def test_root_chord_to_last_position_is_skipped_whole(self, census_kernels):
        for n in range(2, 8):
            visited = []
            for k in (2, n):
                _census_py._walk(n, 2 * n, lambda partner, level, ends: visited.append(level), k)
                assert visited == [], (n, k)
            for kernel in census_kernels:
                got = tuple(kernel.class_census(n, 2 * n))
                assert got == (odd_double_factorial(n - 1), 0, 0), (kernel.__name__, n)
        for kernel in census_kernels:
            assert tuple(kernel.class_census(1, 2)) == (1, 1, 0), kernel.__name__

    def test_entry_zero_is_the_walked_set(self, census_kernels, monkeypatch):
        # (2n-1)!! diagrams in all, (2n-3)!! with the root's partner pinned
        for kernel in census_kernels:
            for n in range(0, 9):
                if n == 8 and kernel is _census_py:
                    # a plain python walk there takes over a second, and entry 0
                    # does not read it
                    monkeypatch.setattr(_census_py, "_walk", lambda *args: None)
                for k in (1, n + 1):
                    got = kernel.class_census(n, 0, k)[0]
                    assert got == odd_double_factorial(n), (kernel.__name__, n, k)
                    for rp in range(2, 2 * n + 1):
                        got = kernel.class_census(n, rp, k)[0]
                        assert got == odd_double_factorial(n - 1), (kernel.__name__, n, rp, k)

    def test_compiled_kernel_rejects_more_than_ten_chords(self, compiled_census):
        for call, message in (
            (lambda: compiled_census.class_census(11), "0..10"),
            (lambda: compiled_census.class_census(11, 0, 2)[2], "0..10"),
            (lambda: compiled_census.class_census(5, 0, 11), "at most 10"),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_workers_rejected_when_they_cannot_apply(self):
        for kwargs in ({"workers": 0}, {"workers": -1}, {"workers": 2, "root_partner": 3}):
            with pytest.raises(ValueError, match="workers"):
                oracle.class_census(4, **kwargs)
        assert oracle.class_census(4, root_partner=3, workers=1)["all"] == 15

    def test_compiled_partitions_on_processes_n8(self, compiled_census, monkeypatch):
        from chorddiag import gf

        monkeypatch.setattr(oracle, "_census_impl", compiled_census)
        assert oracle.class_census(8, workers=2) == {
            "all": int(gf.series_all_diagrams(8)[8]),
            "connected": int(gf.series_connected(8)[8]),
            "2connected": int(gf.series_two_connected(8)[8]),
        }

    def test_census_cap(self):
        with pytest.raises(CapExceededError):
            oracle.class_census(9)
        with pytest.raises(CapExceededError):
            oracle.k_connected_census(9, 2)


def shortest_chord(diagram: ChordDiagram) -> int:
    """The least cyclic length min(v - u, 2n - v + u) over the chords (u, v)."""
    return min(min(v - u, diagram.size - v + u) for u, v in diagram.chords())


class TestRotationClasses:
    """``shortest`` walks one rotation class of the census, weighted 2n/c."""

    def test_classes_sum_to_the_plain_walk(self, census_kernels):
        for kernel in census_kernels:
            for n in range(1, 9):
                # a plain python walk at n = 8 takes over a second per k, so the
                # pinned levels stand in for it
                ks = (2,) if n == 8 and kernel is _census_py else (1, 2, 3, 4)
                for k in ks:
                    if n == 8:
                        plain = ALL_LEVELS_N8[: k + 1]
                    else:
                        plain = tuple(kernel.class_census(n, 0, k))
                    classes = [tuple(kernel.class_census(n, 0, k, l)) for l in range(1, n + 1)]
                    for counts in classes:  # the disconnected diagrams go uncounted
                        assert counts[0] == counts[1], (kernel.__name__, n, k, classes)
                    if n >= 2:  # a chord of length 1 crosses nothing
                        assert set(classes[0]) == {0}, (kernel.__name__, n, k)
                    summed = tuple(map(sum, zip(*classes)))
                    assert summed[1:] == plain[1:], (kernel.__name__, n, k, summed, plain)
        if census_kernels[-1] is not _census_py:
            assert tuple(census_kernels[-1].class_census(8, 0, 8)) == ALL_LEVELS_N8

    def test_class_counts_by_shortest_chord(self, census_kernels):
        for n in range(1, 7):
            hist = {}  # (shortest chord, level) -> diagrams
            for d in enumerate_diagrams(n):
                key = (shortest_chord(d), graph_level(d, 4))
                hist[key] = hist.get(key, 0) + 1
            for l in range(1, n + 1):
                levels = [hist.get((l, j), 0) for j in range(min(4, n) + 1)]
                expected = tuple(sum(levels[j:]) for j in range(1, 5))  # levels 1..4
                for kernel in census_kernels:
                    got = tuple(kernel.class_census(n, 0, 4, l))
                    assert got[1:] == expected, (kernel.__name__, n, l)

    def test_class_input_rejected(self, census_kernels):
        for kernel in census_kernels:
            for n, rp, shortest in ((3, 0, -1), (3, 0, 4), (0, 0, 1), (3, 2, 1), (3, 3, 2)):
                with pytest.raises(ValueError, match="a class lies in 1.."):
                    kernel.class_census(n, rp, 2, shortest)

    def test_non_integer_weight_sum_raises(self, monkeypatch):
        def walk(n, root_partner, visit, k, shortest):
            visit([1, 0, 3, 2, 5, 4], 1, 4)  # one leaf standing for 6/4 diagrams

        monkeypatch.setattr(_census_py, "_walk", walk)
        for rp, shortest in ((0, 0), (3, 0), (0, 2)):  # a plain walk, a fold and a class
            with pytest.raises(ArithmeticError, match="level 1 sums to no integer"):
                _census_py.class_census(3, rp, 2, shortest)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCensusShares:
    """``workers`` > 1 splits the walked partitions across forked processes."""

    def test_shares_match_the_serial_driver(self, census_kernels, monkeypatch):
        for kernel in census_kernels:
            monkeypatch.setattr(oracle, "_census_impl", kernel)
            for n in range(0, 9):
                serial = {k: oracle._census(n, k, None) for k in (1, 2, 3, 4)}
                total, connected, two_connected = serial[2]
                for workers in (2, 3, n + 5):
                    assert oracle.class_census(n, workers=workers) == {
                        "all": total, "connected": connected, "2connected": two_connected
                    }, (kernel.__name__, n, workers)
                    for k in (1, 3, 4):
                        got = oracle._census(n, k, None, workers=workers)
                        assert got == serial[k], (kernel.__name__, n, k, workers)
        assert_no_child_left()

    def test_one_fork_per_share_after_the_first(self, monkeypatch):
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        # n = 0 walks once and n = 4 walks the classes 2..4; k = 5 > max(4, 2) walks none
        for n, k, workers, expected in (
            (0, 2, 2, 0), (4, 2, 1, 0), (4, 2, 2, 1), (4, 2, 3, 2), (4, 2, 4, 2), (4, 5, 4, 0),
        ):
            forks.clear()
            oracle._census(n, k, None, workers=workers)
            assert len(forks) == expected, (n, k, workers)
        assert_no_child_left()

    def test_failing_child_raises(self, monkeypatch):
        def kernel(n, rp, k, shortest):  # n = 4 in two shares: class 2 here, 3 and 4 in the child
            if shortest == 3:
                raise ZeroDivisionError("planted")
            return _census_py.class_census(n, rp, k, shortest)

        monkeypatch.setattr(oracle, "_census_impl", SimpleNamespace(class_census=kernel))
        with pytest.raises(RuntimeError, match="census share exited with status 1"):
            oracle.class_census(4, workers=2)
        assert_no_child_left()

    def test_failing_parent_kills_and_reaps_every_child(self, monkeypatch):
        parent = os.getpid()

        def kernel(n, rp, k, shortest):  # n = 4 in three shares: class 2 here, 3 and 4 in children
            if os.getpid() == parent:
                raise ZeroDivisionError("planted")
            time.sleep(60)

        monkeypatch.setattr(oracle, "_census_impl", SimpleNamespace(class_census=kernel))
        start = time.monotonic()
        with pytest.raises(ZeroDivisionError, match="planted"):
            oracle.class_census(4, workers=3)
        assert time.monotonic() - start < 30  # killed, not waited for
        assert_no_child_left()

    def test_serial_without_fork(self, monkeypatch):
        expected = oracle.class_census(6)
        monkeypatch.delattr(os, "fork")
        assert oracle.class_census(6, workers=3) == expected
        assert oracle._census(6, 3, None, workers=4) == _census_py.class_census(6, 0, 3)
