"""Zero-dimensional partition functions and the vertex-graph correspondence.

The formal Gaussian map turns an action -x^2/(2a) + V(x) into a power series
in hbar: moment n of the Gaussian weight contributes sqrt(a)*(a*hbar)^n*(2n-1)!!
times the x^(2n) coefficient of exp(V(x)/hbar), which is a polynomial in
1/hbar, so every hbar coefficient is a finite exact sum.

The second half realizes the bijection between rooted chord diagrams and
photon-decorated fermion paths: the root chord becomes the external photon,
the remaining chords become internal photons on the path, and a diagram is
2-connected exactly when its graph is one-particle irreducible with no
divergent proper subgraph. The subdivergence scan works entirely on the
graph side (path intervals with at most one photon stub), which makes the
equivalence with the chord-side predicates a genuine cross-check.
``verify_bijection`` checks it on every diagram in one depth-first walk per
n, which keeps the crossing masks, the image's partner array and its span
mask current as chords are placed and taken back: the 0-based pairing is
the partner array of the image, with the root chord's right end marked 0
as the external photon's vertex. Each diagram's two verdicts come from the
helpers that ``is_k_connected(diagram, 2)`` and ``is_primitive`` call.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, isqrt
from typing import Iterable, Mapping

from . import gf
from .oracle import DEFAULT_CAP, ChordDiagram, _check_cap, _two_connected
from .series import PowerSeries, _cleared, truncated_product


class Action(namedtuple("Action", ["a", "couplings"])):
    """Quadratic coefficient a > 0 plus the interaction couplings.

    The constructor takes ``couplings`` as a mapping, or as (k, coupling)
    pairs, from valency k >= 3 to the coupling of the x^k/k! term of the
    potential; only finitely many may be nonzero. The field ``couplings``
    holds the nonzero ones as (k, Fraction) pairs in increasing k.
    """

    __slots__ = ()

    def __new__(
        cls,
        a,
        couplings: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]] | None = None,
    ):
        a = Fraction(a)
        items = []
        for k, lam in sorted(dict(couplings or {}).items()):
            if k < 3:
                raise ValueError(
                    f"coupling at valency {k}: the potential starts at x^3"
                )
            lam = Fraction(lam)
            if lam:
                items.append((int(k), lam))
        if a <= 0:
            raise ValueError("the quadratic coefficient a must be positive")
        return super().__new__(cls, a, tuple(items))

    def _replace(self, **changes) -> "Action":
        """A copy with ``changes``, checked like any new action."""
        return Action(**{**self._asdict(), **changes})

    def potential_coefficients(self, degree: int) -> list[Fraction]:
        """Coefficients of V(x) = sum lam_k x^k / k! up to the given degree."""
        coeffs = [Fraction(0)] * (degree + 1)
        for k, lam in self.couplings:
            if k <= degree:
                coeffs[k] = lam / factorial(k)
        return coeffs


PHI3 = Action(1, {3: 1})


def _sqrt_exact(value: Fraction) -> Fraction:
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(
            f"sqrt({value}) is irrational; exact coefficients need a perfect "
            f"square quadratic coefficient (rescale the action)"
        )
    return Fraction(rn, rd)


def partition_function(action: Action, order: int) -> PowerSeries:
    """The perturbative partition function as a series in hbar.

    hbar^j collects the Gaussian moments n = j..3j: moment n contributes
    sqrt(a) * a^n * (2n-1)!! * [x^(2n)] V^m / m! at m = n - j (the potential
    starts at x^3, so [x^(2n)] V^m vanishes beyond m = 2n/3, and no m above
    2 * order reaches hbar^order). a^n * [x^(2n)] V^m is [x^(2n)] W^m for
    W(x) = V(sqrt(a) * x), and W is cleared of denominators once, W = w/dw
    for an int list w: W^m/m! is the int list w^m over m! * dw^m, each
    power costs one convolution with the few nonzero terms of w, and each
    nonzero term adds one Fraction. The sqrt(a) prefactor must be an exact
    rational, i.e. a a perfect square.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    root_a = _sqrt_exact(action.a)
    degree = 6 * order
    v = action.potential_coefficients(degree)
    w, dw = _cleared([c * root_a**k if c else c for k, c in enumerate(v)])
    double_factorials = gf.series_all_diagrams(3 * order).coefficients
    coeffs = [Fraction(0)] * (order + 1)
    power = [1] + [0] * degree  # w^m
    scale = 1  # m! * dw^m
    for m in range(2 * order + 1):
        if m:
            power = truncated_product(w, power, degree)
            scale *= m * dw
        for n in range(m, m + order + 1):
            if power[2 * n]:
                coeffs[n - m] += Fraction(double_factorials[n] * power[2 * n], scale)
    return PowerSeries([root_a * c for c in coeffs])


def phi3_coefficient(n: int) -> Fraction:
    """Closed form (6n-1)!! / ((3!)^(2n) * (2n)!) for the cubic theory."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(gf.double_factorial_odd(3 * n), 6 ** (2 * n) * factorial(2 * n))


# -- graphs ---------------------------------------------------------------------


class QedGraph(namedtuple("QedGraph", ["path_length", "photons", "root_position"])):
    """A photon-decorated fermion path with one external photon.

    The fermion path runs through ``path_length`` vertices from leg f1 to
    leg f2; ``photons`` are internal photon edges between path vertices, and
    the external photon attaches at ``root_position``. Every vertex carries
    exactly one photon endpoint. The constructor stores each photon as a
    (u, v) pair with u < v, in increasing order, and checks the graph;
    ``QedGraph._make`` stores its fields as given, for graphs built in that
    form already, as ``chord_to_qed`` builds its images.
    """

    __slots__ = ()

    def __new__(cls, path_length, photons, root_position):
        photons = tuple(sorted([(u, v) if u < v else (v, u) for u, v in photons]))
        length = int(path_length)
        root = int(root_position)
        if not 1 <= root <= length:
            raise ValueError("the external photon must attach to a path vertex")
        covered = [0] * (length + 1)
        covered[root] = 1
        for u, v in photons:
            if not 1 <= u < v <= length:
                raise ValueError(f"photon ({u},{v}) leaves the path")
            covered[u] += 1
            covered[v] += 1
        if covered.count(1) != length:
            bad = [i for i in range(1, length + 1) if covered[i] != 1]
            raise ValueError(
                f"vertices {bad} do not carry exactly one photon endpoint"
            )
        return super().__new__(cls, length, photons, root)

    def _replace(self, **changes) -> "QedGraph":
        """A copy with ``changes``, checked like any new graph."""
        return QedGraph(**{**self._asdict(), **changes})

    def internal_edge_count(self) -> int:
        return (self.path_length - 1) + len(self.photons)

    def to_text(self) -> str:
        """Dump as "path_length: photon pairs r root_position"."""
        pairs = " ".join(f"{u}-{v}" for u, v in self.photons)
        middle = f" {pairs}" if pairs else ""
        return f"{self.path_length}:{middle} r{self.root_position}"

    @classmethod
    def from_text(cls, text: str) -> "QedGraph":
        head, _, body = text.partition(":")
        tokens = body.split()
        if not tokens or not tokens[-1].startswith("r"):
            raise ValueError("graph text must end with the root marker rK")
        try:
            root = int(tokens[-1][1:])
            photons = []
            for token in tokens[:-1]:
                u, _, v = token.partition("-")
                photons.append((int(u), int(v)))
            length = int(head)
        except ValueError:
            raise ValueError(f"graph text must read 'L: u-v ... rK', got {text!r}") from None
        return cls(length, photons, root)


_new_tuple = tuple.__new__  # what QedGraph._make calls, without its length check


def chord_to_qed(diagram: ChordDiagram) -> QedGraph:
    """Straighten a diagram into its fermion-path graph.

    Positions 2..2n become the path vertices 1..2n-1; the root chord turns
    into the external photon at the vertex of its right endpoint, and every
    other chord into an internal photon. Inverse of qed_to_chord. The
    photons come out as (left, right) pairs in increasing order, the form
    the QedGraph constructor normalises to, and a diagram's image is always
    a valid graph, so the graph is built as a plain tuple of its fields,
    without the constructor's checks.
    """
    pairing = diagram.pairing
    if not pairing:
        raise ValueError("the empty diagram has no graph image")
    photons = tuple([(v, p - 1) for v, p in enumerate(pairing[1:], 1) if v < p - 1])
    return _new_tuple(QedGraph, (len(pairing) - 1, photons, pairing[0] - 1))


def qed_to_chord(graph: QedGraph) -> ChordDiagram:
    size = graph.path_length + 1
    pairing = [0] * size
    pairing[0] = graph.root_position + 1
    pairing[graph.root_position] = 1
    for u, v in graph.photons:
        pairing[u] = v + 1
        pairing[v] = u + 1
    return ChordDiagram(pairing)


def loop_number(graph: QedGraph) -> int:
    """Independent cycles from the Euler relation |E| - |V| + 1.

    Equals the internal photon count: the fermion path contributes
    |V| - 1 edges, so each internal photon closes exactly one cycle.
    """
    return graph.internal_edge_count() - graph.path_length + 1


class Subdivergence(namedtuple("Subdivergence", ["start", "end", "kind"])):
    """A divergent proper subgraph on a fermion-path interval.

    ``kind`` is "propagator" or "vertex".
    """

    __slots__ = ()


def _bridgeless(photons, length: int) -> bool:
    """True when photons span every fermion edge (i, i + 1), 1 <= i < length.

    Bit i of the span mask stands for the edge (i, i + 1); the photon (u, v)
    spans bits u..v-1.
    """
    spanned = 0
    for u, v in photons:
        spanned |= (1 << v) - (1 << u)
    return spanned == (1 << length) - 2


def find_subdivergences(graph: QedGraph) -> list[Subdivergence]:
    """Divergent proper 1PI subgraphs, scanned over path intervals.

    Since every vertex lies on the fermion path and fermion loops are absent,
    a divergent one-piece subgraph occupies a contiguous path interval. An
    interval with all photon endpoints internal is a propagator insertion
    (two fermion stubs); one photon stub makes it a vertex insertion, the
    external photon counting as a stub like any other. Candidates need at
    least one internal photon (a loop) and no uncovered fermion edge.
    """
    length = graph.path_length
    partner = [0] * (length + 1)  # 0 marks the external photon's vertex
    for u, v in graph.photons:
        partner[u], partner[v] = v, u
    return _subdivergences(length, partner)


def _subdivergences(length: int, partner: list[int], first: bool = False) -> list[Subdivergence]:
    """The subdivergences of a graph in (start, end) order; with ``first``, at most one.

    The graph is given by its path length and the partner of each vertex
    1..length along its photon, 0 for the external photon's vertex.

    One sweep per start: as ``end`` moves right, the stubs of [start, end]
    (photons with one endpoint inside, plus the external photon) and the
    mask of fermion edges its internal photons span (bit i for the edge
    (i, i + 1)) stay current; no edge is uncovered when the mask holds bits
    start..end-1. Only the photon of vertex ``start`` spans the edge
    (start, start + 1), so a start whose photon goes left or out is skipped;
    a stub going left or out stays one, so a start stops at its second.
    The whole graph, [1, length], is not a proper subgraph, so start 1
    stops at length - 1.
    """
    found = []
    for start in range(1, length):
        if partner[start] < start:
            continue
        stubs, spanned, low, stuck = 1, 0, 1 << start, False
        for end in range(start + 1, length + 1 if start > 1 else length):
            other = partner[end]
            if other > end:
                stubs += 1
            elif other >= start:
                stubs -= 1
                spanned |= (1 << end) - (1 << other)
            elif stuck:
                break
            else:
                stubs += 1
                stuck = True
            if stubs <= 1 and spanned == (1 << end) - low:
                found.append(Subdivergence(start, end, "propagator" if stubs == 0 else "vertex"))
                if first:
                    return found
    return found


def is_one_particle_irreducible(graph: QedGraph) -> bool:
    """No internal-edge bridge: every fermion edge is spanned by a photon."""
    return _bridgeless(graph.photons, graph.path_length)


def is_primitive(graph: QedGraph) -> bool:
    """1PI, at least one loop, and free of subdivergences.

    Tree-level graphs (no internal photon) are the unit of the counting
    series, not counted primitives, hence the loop requirement. One loop
    over the photons builds the partner array and the span mask of the 1PI
    test (bit i for the edge (i, i + 1), as in ``_bridgeless``); the
    subdivergence scan is the sweep of ``find_subdivergences`` and stops at
    the first one it finds.
    """
    length, photons, _ = graph
    partner = [0] * (length + 1)
    spanned = 0
    for u, v in photons:
        partner[u], partner[v] = v, u
        spanned |= (1 << v) - (1 << u)
    return _primitive_image(length, partner, spanned)


def _primitive_image(length: int, partner: list[int], spanned: int) -> bool:
    """The verdict of ``is_primitive`` on a graph given by its partner array and span mask.

    ``partner`` is read as ``_subdivergences`` reads it, and ``spanned`` has
    bit i set when an internal photon spans the fermion edge (i, i + 1). A
    loop (a nonzero mask), no uncovered edge and no subdivergence.
    """
    if not spanned or spanned != (1 << length) - 2:
        return False
    return not _subdivergences(length, partner, first=True)


class BijectionReport(
    namedtuple("BijectionReport", ["n", "primitive_count", "counterexamples"])
):
    """Outcome of verify_bijection: the primitive count and the offending diagrams."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def verify_bijection(n: int, cap: int | None = DEFAULT_CAP) -> BijectionReport:
    """Exhaustively check primitivity-of-image against 2-connectivity.

    For every diagram on n chords the graph image must be primitive exactly
    when the diagram is 2-connected; offending diagrams are reported in
    text form, in the order of enumerate_diagrams. ``cap`` bounds n as in
    enumerate_diagrams (None lifts it).

    One depth-first walk visits the diagrams in that order: the smallest
    free position i is matched first, with its partners j tried left to
    right. Placing and taking back a chord keeps three things current
    instead of rebuilding them per diagram:

    - the symmetric crossing masks of ``_crossing_masks``: the chord (i, j)
      crosses exactly the placed chords whose right end lies in (i, j), and
      as j moves right those chords only grow, so each is marked once per
      i and unmarked when i's partners run out;
    - the 0-based pairing. Read as a partner array, it is the image's: the
      position v + 1 is the path vertex v, and the root chord's right end
      has partner 0, the mark of the external photon's vertex. That is the
      array ``find_subdivergences`` builds from ``chord_to_qed``;
    - the image's span mask: a chord (i, j) other than the root spans the
      fermion edges i..j-1.

    Each diagram gets both verdicts, each from the helper its public
    predicate calls: ``oracle._two_connected`` on the crossing masks, as
    ``is_k_connected(diagram, 2)``, and ``_primitive_image`` on the partner
    array and span mask, as ``is_primitive(chord_to_qed(diagram))``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_cap("enumeration", n, cap)
    size = 2 * n
    length = size - 1
    two_connected, primitive_image = _two_connected, _primitive_image
    partner = [-1] * (size + 1)  # -1 marks a free position; the one at size ends each search
    free_from = partner.index
    chord_at = [0] * size  # the chord whose right end is at a position
    masks = [0] * n
    primitive = 0
    bad = []

    def place(i: int, c: int, spanned: int) -> None:
        # chord c opens at i, the smallest free position; every placed
        # chord opened left of i, so an occupied position right of i is
        # a right end
        nonlocal primitive
        bit = 1 << c
        crossed = []
        cross = 0
        j = i + 1
        while True:
            if partner[j] >= 0:
                d = chord_at[j]
                masks[d] |= bit
                crossed.append(d)
                cross |= 1 << d
                j += 1
                continue
            if j == size:
                break
            partner[i] = j
            partner[j] = i
            chord_at[j] = c
            masks[c] = cross
            # the root chord is the external photon and spans no fermion edge
            image = spanned | ((1 << j) - (1 << i)) if c else 0
            following = free_from(-1, i + 1)
            if following < size:
                place(following, c + 1, image)
            else:
                verdict = primitive_image(length, partner, image)
                if verdict:
                    primitive += 1
                if verdict != two_connected(masks):
                    pairing = tuple([p + 1 for p in partner[:size]])
                    bad.append(ChordDiagram._from_involution(pairing).to_text())
            partner[i] = partner[j] = -1
            j += 1
        for d in crossed:
            masks[d] ^= bit

    place(0, 0, 0)
    return BijectionReport(n, primitive, tuple(bad))
