"""Records as named tuples, and the constructors that skip user-input checks.

The library builds diagrams and graph images without re-checking them
(the enumerator's leaves, as ``ChordDiagram._from_involution`` builds them,
and ``chord_to_qed``'s graphs, as ``QedGraph._make`` does); the tests here
hold those objects equal to the ones the validating public constructors
build from the same data.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chorddiag import alien, asymptotics, oracle, qft
from chorddiag.oracle import ChordDiagram, enumerate_diagrams
from chorddiag.qft import Action, QedGraph, chord_to_qed

SRC = Path(__file__).resolve().parent.parent / "src"

CUT = ChordDiagram([3, 5, 1, 6, 2, 4])  # one cut chord, (2, 5)
STEP = alien.ChainStep("substituted-closed-form", True, None)
ESTIMATE = asymptotics.HighPrecisionDecimal(Fraction(1, 3), 5)

# How to build one record of each type, and its repr as the dataclasses had it.
RECORDS = {
    "Reason": (
        lambda: oracle.find_reasons_connectivity1(CUT)[0],
        "Reason(start=1, end=3, cut_position=2, cut_chord=(2, 5))",
    ),
    "ReasonRemoval": (
        lambda: oracle.decompose_connected(CUT).removals[0],
        "ReasonRemoval(start=1, end=3, cut_position=2, removed_pairs=((1, 3),))",
    ),
    "Decomposition": (
        lambda: oracle.decompose_connected(CUT),
        "Decomposition(case=<DecompositionCase.ROOT_COVERED: 'root-covered'>, "
        "core=ChordDiagram([3, 4, 1, 2]), removals=(ReasonRemoval(start=1, end=3, "
        "cut_position=2, removed_pairs=((1, 3),)),))",
    ),
    "AsymptoticImage": (
        lambda: alien.alien_two_connected(3),
        "AsymptoticImage(e_exp=Fraction(-2, 1), sqrt_two_pi_exp=-1, "
        "series=PowerSeries([1, -6, -4, -218/3]; order=3))",
    ),
    "ChainStep": (
        lambda: STEP,
        "ChainStep(name='substituted-closed-form', passed=True, first_mismatch=None)",
    ),
    "ChainReport": (
        lambda: alien.ChainReport(6, (STEP,)),
        "ChainReport(order=6, steps=(ChainStep(name='substituted-closed-form', "
        "passed=True, first_mismatch=None),))",
    ),
    "HighPrecisionDecimal": (
        lambda: ESTIMATE,
        "HighPrecisionDecimal(value=Fraction(1, 3), digits=5)",
    ),
    "ErrorRow": (
        lambda: asymptotics.ErrorRow(7, 2, ESTIMATE, 38232, Fraction(1, 2), Fraction(3)),
        "ErrorRow(n=7, terms=2, estimate=HighPrecisionDecimal(value=Fraction(1, 3), "
        "digits=5), exact=38232, relative_error=Fraction(1, 2), "
        "normalized_error=Fraction(3, 1))",
    ),
    "ProbabilityCheck": (
        lambda: asymptotics.ProbabilityCheck(4, Fraction(1, 15), ESTIMATE, ESTIMATE),
        "ProbabilityCheck(n=4, ratio=Fraction(1, 15), model=HighPrecisionDecimal("
        "value=Fraction(1, 3), digits=5), deviation=HighPrecisionDecimal("
        "value=Fraction(1, 3), digits=5))",
    ),
    "Action": (
        lambda: Action(4, {3: Fraction(1, 2), 4: 0}),
        "Action(a=Fraction(4, 1), couplings=((3, Fraction(1, 2)),))",
    ),
    "QedGraph": (
        lambda: chord_to_qed(CUT),
        "QedGraph(path_length=5, photons=((1, 4), (3, 5)), root_position=2)",
    ),
    "Subdivergence": (
        lambda: qft.find_subdivergences(chord_to_qed(ChordDiagram([4, 3, 2, 1])))[0],
        "Subdivergence(start=1, end=2, kind='propagator')",
    ),
    "BijectionReport": (
        lambda: qft.verify_bijection(3),
        "BijectionReport(n=3, primitive_count=1, counterexamples=())",
    ),
}


@pytest.mark.parametrize("build, text", RECORDS.values(), ids=RECORDS.keys())
class TestRecords:
    def test_repr_unchanged(self, build, text):
        assert repr(build()) == text

    def test_immutable(self, build, text):
        record = build()
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_hashable(self, build, text):
        record = build()
        assert hash(record) == hash(record._make(record))

    def test_unpacks_and_pickles(self, build, text):
        record = build()
        assert tuple(record) == tuple(getattr(record, name) for name in record._fields)
        assert pickle.loads(pickle.dumps(record)) == record


class TestValidationFreePaths:
    def test_enumerated_diagrams_equal_validated_ones(self):
        for n in range(1, 7):
            for d in enumerate_diagrams(n):
                rebuilt = ChordDiagram(list(d.pairing))
                assert rebuilt == d and hash(rebuilt) == hash(d), d

    def test_graph_images_equal_validated_ones(self):
        for n in range(1, 7):
            for d in enumerate_diagrams(n):
                image = chord_to_qed(d)
                assert QedGraph(*image) == image, d

    def test_public_constructors_still_validate(self):
        with pytest.raises(ValueError, match="even number"):
            ChordDiagram([2, 1, 4, 3, 6])
        with pytest.raises(ValueError, match="exactly one photon endpoint"):
            QedGraph(3, [(1, 2)], 2)
        with pytest.raises(ValueError, match="must be positive"):
            Action(0, {3: 1})
        with pytest.raises(ValueError, match="starts at x\\^3"):
            Action(1, {2: 1})

    def test_replace_checks_like_the_constructor(self):
        graph = chord_to_qed(CUT)
        with pytest.raises(ValueError, match="external photon"):
            graph._replace(root_position=9)
        assert graph._replace(photons=[(4, 1), (5, 3)]) == graph
        with pytest.raises(ValueError, match="must be positive"):
            qft.PHI3._replace(a=-1)
        assert qft.PHI3._replace(couplings={3: 2}) == Action(1, {3: 2})


def test_import_does_not_load_dataclasses():
    probe = "import sys, chorddiag; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
