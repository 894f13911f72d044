"""Acceptance gate: one test per criterion, exact tolerances, timed budgets.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output). All coefficient comparisons are exact equalities on
rationals; the timing budgets are generous relative to the measured costs.
"""

import time
from fractions import Fraction

from chorddiag import alien, gf, oracle, qft
from chorddiag.alien import alien_two_connected, verify_derivation_chain
from chorddiag.asymptotics import estimate, gamma_scale, probability_check
from chorddiag.oracle import DecompositionCase


def report(number: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {number}: {detail}"


def independent_e_squared() -> Fraction:
    total = Fraction(0)
    term = Fraction(1)
    for k in range(1, 70):
        total += term
        term = term * 2 / k
    return total


def test_criterion_1_exact_series():
    """Series coefficients, exact; fresh computation at order 30 in < 1 s."""
    gf.series_connected.cache_clear()
    gf.series_two_connected.cache_clear()
    gf.series_two_connected_sequences.cache_clear()
    gf.connected_sq_div_x.cache_clear()
    gf.series_all_diagrams.cache_clear()
    started = time.perf_counter()
    c = gf.series_connected(30)
    c1 = gf.series_connectivity_one(30)
    c2 = gf.series_two_connected(30)
    s = gf.series_two_connected_sequences(30)
    gf.series_all_diagrams(30)
    elapsed = time.perf_counter() - started
    ok = (
        [int(v) for v in c.coefficients[:7]] == [0, 1, 1, 4, 27, 248, 2830]
        and [int(v) for v in c1.coefficients[:7]] == [0, 1, 0, 3, 20, 185, 2101]
        and [int(v) for v in c2.coefficients[:7]] == [0, 0, 1, 1, 7, 63, 729]
        and c2[7] == 10113
        and [int(v) for v in s.coefficients[:7]] == [1, 1, 2, 10, 82, 898, 12018]
        and elapsed < 1.0
    )
    report(1, ok, f"series families exact at order 30, {elapsed:.2f}s < 1s", elapsed)


def test_criterion_2_reference_tables():
    """Every reference table row, exact, in < 5 s."""
    started = time.perf_counter()
    failures = []
    rows = gf.decomposition_table_series(8)
    for name, expected in gf.DECOMPOSITION_REFERENCE.items():
        got = tuple(rows[name][i] for i in range(len(expected)))
        if got != tuple(Fraction(e) for e in expected):
            failures.append(name)
    image_rows = alien.image_table_series(8)
    for name, expected in alien.IMAGE_REFERENCE.items():
        got = tuple(image_rows[name][i] for i in range(len(expected)))
        if got != tuple(Fraction(e) for e in expected):
            failures.append(name)
    scaled_exp = image_rows["e^2*exp(-[(S+x)^2-1]/(2x))"]
    if tuple(scaled_exp[i] for i in range(6)) != (
        Fraction(1),
        Fraction(-4),
        Fraction(-6),
        Fraction(-176, 3),
        Fraction(-2008, 3),
        Fraction(-46636, 5),
    ):
        failures.append("scaled exponential head")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 5.0
    report(2, ok, f"all table rows exact (failures: {failures or 'none'})", elapsed)


def test_criterion_3_oracle_equivalence():
    """Brute-force censuses equal series coefficients; n to 8 when compiled."""
    started = time.perf_counter()
    top = 8 if oracle.census_backend() == "compiled" else 7
    d = gf.series_all_diagrams(top)
    c = gf.series_connected(top)
    c2 = gf.series_two_connected(top)
    mismatches = []
    for n in range(1, top + 1):
        census = oracle.class_census(n)
        if (
            census["all"] != d[n]
            or census["connected"] != c[n]
            or census["2connected"] != c2[n]
        ):
            mismatches.append(n)
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 60.0
    detail = (
        f"censuses match series for n=1..{top} "
        f"({oracle.census_backend()} kernel)"
    )
    if top < 8:
        detail += "; n=8 extension skipped without the compiled kernel"
    report(3, ok, detail, elapsed)


def test_criterion_4_asymptotic_image():
    """2-connected image: prefactor e^-2/sqrt(2pi), exact first coefficients."""
    started = time.perf_counter()
    image = alien_two_connected(5)
    expected = (
        Fraction(1),
        Fraction(-6),
        Fraction(-4),
        Fraction(-218, 3),
        Fraction(-890),
        Fraction(-196838, 15),
    )
    ok = (
        image.e_exp == -2
        and image.sqrt_two_pi_exp == -1
        and tuple(image.series.coefficients) == expected
    )
    elapsed = time.perf_counter() - started
    report(4, ok, "image coefficients 0..5 and prefactor exact", elapsed)


def test_criterion_5_derivation_chain():
    """Every step of the image derivation holds exactly at order 20, < 10 s."""
    started = time.perf_counter()
    chain = verify_derivation_chain(20)
    elapsed = time.perf_counter() - started
    steps = ", ".join(f"{s.name}={'ok' if s.passed else s.first_mismatch}" for s in chain.steps)
    ok = chain.passed and elapsed < 10.0
    report(5, ok, f"derivation steps at order 20: {steps}", elapsed)


def test_criterion_6_decomposition_round_trip():
    """decompose/recompose identity for all connected n <= 6 + case censuses."""
    started = time.perf_counter()
    case2_expected = {3: 3, 4: 20, 5: 189, 6: 2232}
    case3_expected = {3: 1, 4: 7, 5: 59, 6: 598}
    bad_roundtrip = 0
    census_bad = []
    for n in range(1, 7):
        counts = {case: 0 for case in DecompositionCase}
        for diagram in oracle.enumerate_diagrams(n):
            if not diagram.n or not oracle.is_connected(diagram):
                continue
            decomposition = oracle.decompose_connected(diagram)
            counts[decomposition.case] += 1
            if oracle.recompose(decomposition) != diagram:
                bad_roundtrip += 1
        if n >= 3 and (
            counts[DecompositionCase.ROOT_FREE] != case2_expected[n]
            or counts[DecompositionCase.ROOT_COVERED] != case3_expected[n]
        ):
            census_bad.append(n)
    elapsed = time.perf_counter() - started
    ok = bad_roundtrip == 0 and not census_bad and elapsed < 60.0
    report(
        6,
        ok,
        "round trip identity, case censuses (3,20,189,2232)/(1,7,59,598)",
        elapsed,
    )


def test_criterion_7_bijection():
    """Primitive-image counts for n=2..6 plus the graph-side scan agreement."""
    started = time.perf_counter()
    expected = {2: 1, 3: 1, 4: 7, 5: 63, 6: 729}
    count_bad = []
    for n, want in expected.items():
        result = qft.verify_bijection(n)
        if not result.passed or result.primitive_count != want:
            count_bad.append(n)
    scan_bad = 0
    for n in range(1, 6):
        for diagram in oracle.enumerate_diagrams(n):
            subs = qft.find_subdivergences(qft.chord_to_qed(diagram))
            has_propagator = any(s.kind == "propagator" for s in subs)
            if has_propagator != (not oracle.is_connected(diagram)):
                scan_bad += 1
            if oracle.is_connected(diagram):
                has_vertex = any(s.kind == "vertex" for s in subs)
                if has_vertex != bool(oracle.find_reasons_connectivity1(diagram)):
                    scan_bad += 1
    elapsed = time.perf_counter() - started
    ok = not count_bad and scan_bad == 0
    report(
        7,
        ok,
        "bijection n=2..6 counts (1,1,7,63,729); graph-side scan agrees n<=5",
        elapsed,
    )


def test_criterion_8_partition_function():
    """Cubic-theory series head and closed form up to n = 10, exact."""
    started = time.perf_counter()
    series = qft.partition_function(qft.PHI3, 10)
    head_ok = list(series.coefficients[:3]) == [
        Fraction(1),
        Fraction(5, 24),
        Fraction(385, 1152),
    ]
    closed_ok = all(series[n] == qft.phi3_coefficient(n) for n in range(11))
    elapsed = time.perf_counter() - started
    report(8, head_ok and closed_ok, "phi^3 coefficients and closed form exact", elapsed)


def test_criterion_9_asymptotic_quality():
    """Empirical expansion quality at desk scale, < 30 s."""
    started = time.perf_counter()
    image = alien_two_connected(6)
    exact = gf.series_two_connected(40)
    e_squared = independent_e_squared()

    # (a) the 2-connected share: deviation * n^2 bounded, monotone approach
    bounded = True
    first_ratio = None
    previous_ratio = None
    monotone = True
    for n in range(20, 41):
        check = probability_check(n)
        if abs(check.scaled_deviation) > 1:
            bounded = False
        if previous_ratio is not None and check.ratio <= previous_ratio:
            monotone = False
        if first_ratio is None:
            first_ratio = check.ratio
        previous_ratio = check.ratio
    approaches_limit = previous_ratio < 1 / e_squared

    # (b) normalized remainder bounded by 10*|c_R| for each R <= 6
    remainder_ok = True
    for terms in range(1, 7):
        coefficient_bound = 10 * abs(image.series[terms])
        for n in range(terms + 5, 36):
            partial = sum(
                image.series[k] * gamma_scale(n, k) for k in range(terms)
            )
            normalized = abs(
                Fraction(int(exact[n])) * e_squared - partial
            ) / gamma_scale(n, terms)
            if normalized > coefficient_bound:
                remainder_ok = False

    # (c) relative error at n = 30 strictly decreasing in the term count
    errors = []
    for terms in range(1, 7):
        value = estimate(image, 30, terms, digits=40).value
        errors.append(abs(Fraction(int(exact[30])) - value))
    decreasing = all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))

    elapsed = time.perf_counter() - started
    ok = (
        bounded
        and monotone
        and approaches_limit
        and remainder_ok
        and decreasing
        and elapsed < 30.0
    )
    report(
        9,
        ok,
        "probability deviation*n^2 bounded, remainders bounded, errors "
        f"decreasing; share rises {float(first_ratio):.6f} -> "
        f"{float(previous_ratio):.6f} toward e^-2 = {float(1 / e_squared):.6f}",
        elapsed,
    )
