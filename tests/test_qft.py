"""Partition functions and the diagram-to-graph correspondence."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from test_oracle import matchings

from chorddiag import gf, qft
from chorddiag.oracle import (
    ChordDiagram,
    _crossing_masks,
    enumerate_diagrams,
    find_reasons_connectivity1,
    is_connected,
    is_k_connected,
)
from chorddiag.qft import (
    PHI3,
    Action,
    QedGraph,
    Subdivergence,
    chord_to_qed,
    find_subdivergences,
    is_one_particle_irreducible,
    is_primitive,
    loop_number,
    partition_function,
    phi3_coefficient,
    qed_to_chord,
    verify_bijection,
)
from chorddiag.series import PowerSeries, truncated_product


def loop_number_cycle_rank(graph: QedGraph) -> int:
    """Cycle-space rank via spanning-tree growth: a second route to loop_number."""
    parent = list(range(graph.path_length + 1))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    edges = [(i, i + 1) for i in range(1, graph.path_length)] + list(graph.photons)
    rank = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            rank += 1
        else:
            parent[ru] = rv
    return rank


CROSSING = ChordDiagram([3, 4, 1, 2])
NESTED = ChordDiagram([4, 3, 2, 1])
# connected with a cut chord {3,6} that is not the root
ONE_CUT = ChordDiagram([5, 4, 6, 2, 1, 3])


class TestAction:
    def test_phi3(self):
        assert PHI3.a == 1
        assert PHI3.couplings == ((3, Fraction(1)),)
        assert PHI3.potential_coefficients(4) == [0, 0, 0, Fraction(1, 6), 0]

    def test_low_valency_rejected(self):
        with pytest.raises(ValueError, match="starts at x\\^3"):
            Action(1, {2: 1})

    def test_nonpositive_quadratic_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Action(0, {3: 1})


def reference_partition_function(action: Action, order: int) -> PowerSeries:
    """The partition function by a loop over Fraction lists, V^m one product at a time."""
    root_a = qft._sqrt_exact(action.a)
    n_max = 3 * order
    degree = 2 * n_max
    v = action.potential_coefficients(degree)
    coeffs = [Fraction(0)] * (order + 1)
    v_power = [Fraction(1)] + [Fraction(0)] * degree
    m_factorial = 1
    for m in range(0, 2 * n_max + 1):
        if m:
            v_power = truncated_product(v_power, v, degree)
            m_factorial *= m
            if all(c == 0 for c in v_power):
                break
        for n in range(m, n_max + 1):
            j = n - m
            if j > order:
                continue
            contribution = v_power[2 * n]
            if contribution:
                coeffs[j] += (
                    action.a**n * gf.double_factorial_odd(n) * contribution / m_factorial
                )
    return PowerSeries([root_a * c for c in coeffs])


class TestPartitionFunction:
    @pytest.mark.parametrize("a", [1, 4, Fraction(1, 9)])
    @pytest.mark.parametrize(
        "couplings",
        [
            {},
            {3: Fraction(2, 3)},
            {4: Fraction(-1, 5)},
            {6: Fraction(7, 2)},
            {3: Fraction(2, 3), 4: Fraction(-1, 5), 6: Fraction(7, 2)},
        ],
    )
    def test_matches_the_fraction_loop(self, a, couplings):
        action = Action(a, couplings)
        # coefficient j is complete at every order >= j, so one reference serves all orders
        reference = reference_partition_function(action, 15).coefficients
        for order in range(16):
            got = partition_function(action, order).coefficients
            assert got == reference[: order + 1]
            assert all(type(c) is Fraction for c in got)

    def test_phi3_first_coefficients(self):
        series = partition_function(PHI3, 2)
        assert list(series.coefficients) == [1, Fraction(5, 24), Fraction(385, 1152)]

    def test_phi3_closed_form(self):
        series = partition_function(PHI3, 10)
        for n in range(11):
            assert series[n] == phi3_coefficient(n)
            expected = Fraction(
                gf.double_factorial_odd(3 * n), 6 ** (2 * n) * factorial(2 * n)
            )
            assert series[n] == expected

    def test_zero_potential_is_gaussian_constant(self):
        series = partition_function(Action(1, {}), 5)
        assert list(series.coefficients) == [1, 0, 0, 0, 0, 0]
        assert partition_function(Action(4, {}), 2)[0] == 2

    def test_irrational_normalization_rejected(self):
        with pytest.raises(ValueError, match="perfect"):
            partition_function(Action(2, {}), 1)

    def test_quartic_theory(self):
        # only the figure-eight vacuum graph contributes at first order and
        # its automorphism group has size 8: moment (2*2-1)!! = 3 over 4! = 24
        series = partition_function(Action(1, {4: 1}), 1)
        assert series[1] == Fraction(3, 24) == Fraction(1, 8)


class TestGraphMapping:
    def test_crossing_pair(self):
        graph = chord_to_qed(CROSSING)
        assert graph.path_length == 3
        assert graph.photons == ((1, 3),)
        assert graph.root_position == 2
        assert loop_number(graph) == 1

    def test_text_round_trip(self):
        graph = chord_to_qed(CROSSING)
        assert graph.to_text() == "3: 1-3 r2"
        assert QedGraph.from_text("3: 1-3 r2") == graph
        bare = chord_to_qed(ChordDiagram([2, 1]))
        assert bare.to_text() == "1: r1"
        assert QedGraph.from_text("1: r1") == bare

    @pytest.mark.parametrize("text", ["x: 1-3 r2", "3: 1-x r2", "3: 1 r2", "3: 1-3 rx"])
    def test_malformed_text_names_the_form(self, text):
        with pytest.raises(ValueError) as caught:
            QedGraph.from_text(text)
        assert str(caught.value) == f"graph text must read 'L: u-v ... rK', got {text!r}"

    def test_text_with_an_invalid_graph_rejected(self):
        with pytest.raises(ValueError, match="root marker"):
            QedGraph.from_text("3: 1-3")
        with pytest.raises(ValueError, match="leaves the path"):
            QedGraph.from_text("3: 1-4 r2")
        with pytest.raises(ValueError, match="exactly one photon endpoint"):
            QedGraph.from_text("3: 1-2 r2")

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for diagram in enumerate_diagrams(n):
                graph = chord_to_qed(diagram)
                assert qed_to_chord(graph) == diagram

    def test_structure_counts(self):
        for n in range(1, 6):
            for diagram in enumerate_diagrams(n):
                graph = chord_to_qed(diagram)
                assert graph.path_length == 2 * n - 1
                assert len(graph.photons) == n - 1
                assert loop_number(graph) == n - 1
                assert loop_number(graph) == loop_number_cycle_rank(graph)

    @given(matchings)
    @settings(max_examples=300, deadline=None)
    def test_image_is_the_checked_graph_and_inverts(self, diagram):
        graph = chord_to_qed(diagram)
        assert type(graph) is QedGraph
        assert graph == QedGraph(graph.path_length, graph.photons, graph.root_position)
        assert graph.path_length == diagram.size - 1
        assert graph.root_position == diagram.partner(1) - 1
        assert qed_to_chord(graph) == diagram

    def test_validation(self):
        with pytest.raises(ValueError, match="exactly one photon"):
            QedGraph(3, [(1, 2)], 2)  # vertex 3 uncovered, vertex 2 doubly used
        with pytest.raises(ValueError, match="leaves the path"):
            QedGraph(3, [(1, 4)], 2)
        with pytest.raises(ValueError, match="path vertex"):
            QedGraph(3, [(1, 3)], 4)


class TestSubdivergences:
    def test_two_connected_image_clean(self):
        assert find_subdivergences(chord_to_qed(CROSSING)) == []

    def test_disconnected_image_has_propagator(self):
        subs = find_subdivergences(chord_to_qed(NESTED))
        assert any(s.kind == "propagator" for s in subs)

    def test_cut_image_has_vertex(self):
        subs = find_subdivergences(chord_to_qed(ONE_CUT))
        assert any(s.kind == "vertex" for s in subs)
        assert all(s.kind == "vertex" for s in subs)

    def test_primitive_examples(self):
        assert is_primitive(chord_to_qed(CROSSING))
        assert not is_primitive(chord_to_qed(NESTED))
        assert not is_primitive(chord_to_qed(ChordDiagram([2, 1])))  # tree level

    def test_primitive_census(self):
        expected = {1: 0, 2: 1, 3: 1, 4: 7, 5: 63}
        for n, want in expected.items():
            got = sum(
                1 for d in enumerate_diagrams(n) if is_primitive(chord_to_qed(d))
            )
            assert got == want


def interval_by_interval_subdivergences(graph):
    """The scan that rebuilds the photon lists for every interval."""
    found = []
    length = graph.path_length
    for start in range(1, length + 1):
        for end in range(start, length + 1):
            if start == 1 and end == length:
                continue
            internal = [(u, v) for u, v in graph.photons if start <= u and v <= end]
            if not internal:
                continue
            stubs = sum(
                1
                for u, v in graph.photons
                if (start <= u <= end) != (start <= v <= end)
            )
            if start <= graph.root_position <= end:
                stubs += 1
            if stubs > 1:
                continue
            if not all(any(u <= i < v for u, v in internal) for i in range(start, end)):
                continue
            found.append(
                Subdivergence(start, end, "propagator" if stubs == 0 else "vertex")
            )
    return found


def random_diagram(n, rng):
    points = list(range(1, 2 * n + 1))
    rng.shuffle(points)
    pairing = [0] * (2 * n)
    for i in range(0, 2 * n, 2):
        a, b = points[i], points[i + 1]
        pairing[a - 1], pairing[b - 1] = b, a
    return ChordDiagram(pairing)


class TestSubdivergenceSweep:
    def test_matches_interval_scan_exhaustively(self):
        for n in range(1, 6):
            for diagram in enumerate_diagrams(n):
                graph = chord_to_qed(diagram)
                assert find_subdivergences(graph) == interval_by_interval_subdivergences(
                    graph
                ), diagram.to_text()

    def test_matches_interval_scan_on_a_sample(self):
        rng = random.Random(20201)
        for n in range(6, 10):
            for _ in range(300):
                graph = chord_to_qed(random_diagram(n, rng))
                assert find_subdivergences(graph) == interval_by_interval_subdivergences(
                    graph
                ), graph.to_text()


class TestClaimCrossChecks:
    def test_propagator_kind_iff_disconnected(self):
        for n in range(1, 6):
            for diagram in enumerate_diagrams(n):
                subs = find_subdivergences(chord_to_qed(diagram))
                has_propagator = any(s.kind == "propagator" for s in subs)
                assert has_propagator == (not is_connected(diagram))

    def test_vertex_kind_iff_cut_witness(self):
        for n in range(1, 6):
            for diagram in enumerate_diagrams(n):
                if not is_connected(diagram):
                    continue
                subs = find_subdivergences(chord_to_qed(diagram))
                has_vertex = any(s.kind == "vertex" for s in subs)
                assert has_vertex == bool(find_reasons_connectivity1(diagram))

    def test_connected_diagram_gives_1pi_image(self):
        for n in range(1, 6):
            for diagram in enumerate_diagrams(n):
                graph = chord_to_qed(diagram)
                if is_connected(diagram):
                    assert is_one_particle_irreducible(graph)

    def test_1pi_image_counts_pinned(self):
        # more than the connected counts 1, 1, 4, 27, 248, 2830: the converse fails
        counts = [
            sum(is_one_particle_irreducible(chord_to_qed(d)) for d in enumerate_diagrams(n))
            for n in range(1, 7)
        ]
        assert counts == [1, 1, 6, 50, 518, 6354]


class TestFirstHit:
    def test_primitive_and_irreducible_match_full_scans(self):
        for n in range(1, 7):
            for diagram in enumerate_diagrams(n):
                g = chord_to_qed(diagram)
                per_edge = all(
                    any(u <= i < v for u, v in g.photons)
                    for i in range(1, g.path_length)
                )
                assert is_one_particle_irreducible(g) == per_edge, g.to_text()
                assert is_primitive(g) == (
                    bool(g.photons)
                    and is_one_particle_irreducible(g)
                    and not find_subdivergences(g)
                ), g.to_text()

    @given(matchings)
    @settings(max_examples=300, deadline=None)
    def test_primitive_matches_its_definition_on_matchings(self, diagram):
        g = chord_to_qed(diagram)
        assert is_primitive(g) == (
            bool(g.photons) and is_one_particle_irreducible(g) and not find_subdivergences(g)
        ), g.to_text()


class TestBijection:
    def test_small_n(self):
        for n, expected in ((2, 1), (3, 1), (4, 7), (5, 63)):
            report = verify_bijection(n)
            assert report.passed
            assert report.primitive_count == expected

    # a 2-connected diagram, and a connected one with a cut chord
    @pytest.mark.parametrize("text", ["4: 5 6 7 8 1 2 3 4", "4: 3 5 1 7 2 8 4 6"])
    def test_a_flipped_connectivity_check_is_reported(self, monkeypatch, text):
        """The walk compares with what ``qft._two_connected`` says, diagram by diagram.

        No other diagram on 4 chords has the crossing masks of either one, so
        flipping the verdict on those masks flips it for that diagram alone.
        """
        flipped = _crossing_masks(ChordDiagram.from_text(text).pairing)
        original = qft._two_connected
        monkeypatch.setattr(
            qft, "_two_connected", lambda masks: original(masks) != (masks == flipped)
        )
        report = verify_bijection(4)
        assert not report.passed
        assert report.counterexamples == (text,)
        assert report.primitive_count == 7  # the graph side does not change

    # a primitive image, and one with a vertex subdivergence
    @pytest.mark.parametrize(
        "text, count", [("4: 5 6 7 8 1 2 3 4", 6), ("4: 3 5 1 7 2 8 4 6", 8)]
    )
    def test_a_flipped_primitivity_check_is_reported(self, monkeypatch, text, count):
        """The walk compares with what ``qft._primitive_image`` says, diagram by diagram."""
        flipped = [p - 1 for p in ChordDiagram.from_text(text).pairing[1:]]
        original = qft._primitive_image
        monkeypatch.setattr(
            qft,
            "_primitive_image",
            lambda length, partner, spanned: original(length, partner, spanned)
            != (partner[1 : length + 1] == flipped),
        )
        report = verify_bijection(4)
        assert report.counterexamples == (text,)
        assert report.primitive_count == count

    def test_the_pairing_is_the_partner_array_of_the_image(self):
        """The 0-based pairing reads as the image's partner array, root vertex marked 0.

        The bijection walk hands this array to ``_subdivergences``, so it must
        scan like the array ``find_subdivergences`` builds from ``chord_to_qed``.
        """
        for n in range(1, 7):
            for diagram in enumerate_diagrams(n):
                partner = [p - 1 for p in diagram.pairing]
                assert qft._subdivergences(2 * n - 1, partner) == find_subdivergences(
                    chord_to_qed(diagram)
                ), diagram.to_text()

    def test_matches_two_connectivity_pointwise(self):
        for n in range(1, 5):
            for diagram in enumerate_diagrams(n):
                assert is_primitive(chord_to_qed(diagram)) == is_k_connected(
                    diagram, 2
                )
