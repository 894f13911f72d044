"""Command line front end.

Subcommands: series, enumerate, verify, alien, estimate, qft. All numeric
output is exact (decimal strings for rationals) unless --digits asks for a
decimal evaluation. Exit codes: 0 success, 1 a verification failed, 2 usage
or precondition error.

The enumeration cap defaults to 8 chords; the environment variable
CHORDDIAG_CAP raises it (at most 10 -- (2*10-1)!! is about 6.5e8 matchings).
The orders that series, alien, estimate and qft compute (--order, --terms
and --n-to) are capped at 850, where the slowest of them, an alien image,
takes about 10 s as a cold process; CHORDDIAG_ORDER_CAP raises or lowers
the cap. The library functions and verify --order are not capped.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction

from . import _census_py, alien, asymptotics, gf, oracle, qft
from .series import PowerSeries, series_to_csv_rows, series_to_json_dict

DEFAULT_ORDER = 30
DEFAULT_DIGITS = 30
DEFAULT_CAP = oracle.DEFAULT_CAP
HARD_CAP = oracle.HARD_CAP
CAP_ENV_VAR = "CHORDDIAG_CAP"
DEFAULT_ORDER_CAP = 850
ORDER_CAP_ENV_VAR = "CHORDDIAG_ORDER_CAP"
SERIES_CSV_HEADER = ["index", "num", "den"]
CLASS_K = {"all": 0, "connected": 1, "2connected": 2}
# the families with an alien image: their image builder and exact series builder
IMAGE_FAMILIES = {
    "C": (alien.alien_connected, gf.series_connected),
    "C2": (alien.alien_two_connected, gf.series_two_connected),
}


class UsageError(Exception):
    pass


def _env_cap(name: str, default: int, top: int | None = None) -> int:
    """The cap set in the environment variable ``name``, or ``default``.

    A cap is an integer of at least 1, and at most ``top`` when given.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}") from None
    if not 1 <= cap <= (top or cap):
        bound = f"lie in 1..{top}" if top else "be at least 1"
        raise UsageError(f"{name} must {bound}, got {cap}")
    return cap


def configured_cap() -> int:
    return _env_cap(CAP_ENV_VAR, DEFAULT_CAP, HARD_CAP)


def _check_order(option: str, value: int) -> None:
    """Refuse a series order above the configured order cap."""
    cap = _env_cap(ORDER_CAP_ENV_VAR, DEFAULT_ORDER_CAP)
    if value > cap:
        raise UsageError(
            f"{option} {value} exceeds the order cap of {cap}; "
            f"set {ORDER_CAP_ENV_VAR} to raise it"
        )


def _rational_str(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


@contextmanager
def _long_ints():
    """Lift the interpreter's limit on int-to-decimal conversion, then restore it.

    Exact output may print coefficients of any length; C_n passes the
    default limit of 4300 digits near n = 1425.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7 there is no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _emit(fmt: str, record, header, rows, plain) -> None:
    """Print ``record`` as JSON, ``header`` and ``rows`` as CSV, or ``plain``."""
    if fmt == "json":
        print(json.dumps(record))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print(plain)


def _emit_series(f: PowerSeries, fmt: str) -> None:
    with _long_ints():
        _emit(
            fmt,
            series_to_json_dict(f),
            SERIES_CSV_HEADER,
            series_to_csv_rows(f),
            ", ".join(_rational_str(c) for c in f.coefficients),
        )


# -- subcommands --------------------------------------------------------------------


def cmd_series(args) -> int:
    _check_order("--order", args.order)
    f = gf.series_family(args.family, args.order)
    _emit_series(f, args.format)
    return 0


def cmd_enumerate(args) -> int:
    cap = configured_cap()
    n, cls = args.chords, args.cls
    if cls in CLASS_K:
        k = CLASS_K[cls]  # 0 selects every diagram
    elif cls.startswith("k:"):
        k = _parse(int, cls[2:], f"class {cls!r}: expected k:<integer>")
        if k < 1:
            raise UsageError("k must be at least 1")
    else:
        raise UsageError(
            f"unknown class {cls!r}: choose all, connected, 2connected or k:K"
        )
    if args.count_only:
        if k:
            count = oracle.k_connected_census(n, k, cap=cap)
        else:  # every diagram: (2n-1)!!, under the census's checks but with no walk
            oracle._check_cap("census", n, cap)
            count = gf.double_factorial_odd(n)
        record = {"n": n, "class": cls, "count": str(count)}
        _emit(args.format, record, ["n", "class", "count"], [[n, cls, count]], count)
        return 0
    for diagram in oracle.enumerate_diagrams(n, cap=cap):
        if k == 0 or (diagram.n and oracle.is_k_connected(diagram, k)):
            print(diagram.to_text())
    return 0


def cmd_alien(args) -> int:
    _check_order("--order", args.order)
    image = IMAGE_FAMILIES[args.family][0](args.order)
    with _long_ints():
        record = {
            "family": args.family,
            "e_exp": {
                "num": str(image.e_exp.numerator),
                "den": str(image.e_exp.denominator),
            },
            "sqrt_two_pi_exp": image.sqrt_two_pi_exp,
            "series": series_to_json_dict(image.series),
        }
        plain = (
            f"prefactor: e^{_rational_str(image.e_exp)} "
            f"* (2*pi)^({image.sqrt_two_pi_exp}/2)\n"
            + ", ".join(_rational_str(c) for c in image.series.coefficients)
        )
        _emit(
            args.format, record, SERIES_CSV_HEADER, series_to_csv_rows(image.series), plain
        )
    return 0


def cmd_estimate(args) -> int:
    if args.terms < 1:
        raise UsageError("terms must be at least 1")
    if args.n_to < args.n_from:
        raise UsageError("--n-to must not be below --n-from")
    _check_order("--terms", args.terms)
    _check_order("--n-to", args.n_to)
    order = max(args.terms - 1, 1)
    image_of, series_of = IMAGE_FAMILIES[args.family]
    image = image_of(order)
    exact_series = series_of(max(args.n_to, 2))  # an order both builders accept
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = asymptotics.error_table(
            image,
            exact_series.coefficients,
            range(args.n_from, args.n_to + 1),
            [args.terms],
            digits=args.digits,
        )
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "R", "estimate", "exact", "rel_error", "norm_error"])
    with _long_ints():
        for row in rows:
            writer.writerow(
                [
                    row.n,
                    row.terms,
                    row.estimate.to_decimal_string(),
                    row.exact,
                    asymptotics.format_significant(row.relative_error, 6)
                    if row.relative_error
                    else "0",
                    asymptotics.format_significant(row.normalized_error, 6)
                    if row.normalized_error
                    else "0",
                ]
            )
    return 0


def _parse(convert, text: str, expected: str):
    """convert(text), with malformed input reported as a usage error."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad {expected}") from None


def _coupling(text: str) -> tuple[int, Fraction]:
    k, _, lam = text.partition("=")
    return int(k), Fraction(lam)


def cmd_qft(args) -> int:
    _check_order("--order", args.order)
    if args.graph_of:
        diagram = oracle.ChordDiagram.from_text(args.graph_of)
        print(qft.chord_to_qed(diagram).to_text())
        return 0
    couplings = {}
    for item in args.coupling:
        k, lam = _parse(_coupling, item, f"coupling {item!r}: expected K=RATIONAL")
        if k in couplings:
            raise UsageError(f"--coupling given twice for valency {k}")
        couplings[k] = lam
    a = _parse(Fraction, args.quadratic, f"quadratic {args.quadratic!r}: expected RATIONAL")
    series = qft.partition_function(qft.Action(a, couplings or {3: 1}), args.order)
    _emit_series(series, args.format)
    return 0


# -- verification suites --------------------------------------------------------------


def _suite_lemmas(order: int, cap: int) -> list[tuple[str, bool, str]]:
    results = []
    for name, ok in gf.lemma_checks(order):
        results.append((f"lemmas: {name} at order {order}", ok, ""))
    return results


def _suite_proposition(order: int, cap: int) -> list[tuple[str, bool, str]]:
    top = min(6, cap)
    if top < 2:
        raise UsageError(
            "the proposition suite counts cases for n = 2..min(6, cap); "
            f"cap {cap} leaves nothing to check"
        )
    results = []
    residual = gf.functional_relation_residual(order)
    results.append(
        (
            f"proposition: C = C^2/x - C2(C^2/x) residual zero at order {order}",
            residual.is_zero(),
            "" if residual.is_zero() else str(residual),
        )
    )
    ok = gf.check_substitution_inverse(order)
    results.append(
        (f"proposition: inverse of C^2/x equals (x-C2)^2/x at order {order}", ok, "")
    )
    rows = gf.decomposition_table_series(top)
    root_free = rows["C^2 * [C2(t)/t^2]"]
    root_covered = rows["(C-x)/x * C^2 * [C2(t)/t^2]"]
    for n in range(2, top + 1):
        counts = oracle.case_census(n, cap=cap)
        ok = (
            counts[oracle.DecompositionCase.ROOT_FREE] == root_free[n]
            and counts[oracle.DecompositionCase.ROOT_COVERED] == root_covered[n]
        )
        results.append(
            (
                f"proposition: decomposition case census at n={n}",
                ok,
                str({c.value: v for c, v in counts.items()}),
            )
        )
    roundtrip_top = min(5, cap)
    bad = seen = 0

    def round_trip(partner: list[int], level: int, ends: int) -> None:
        nonlocal bad, seen
        seen += 1
        diagram = oracle.ChordDiagram._from_involution(tuple([q + 1 for q in partner]))
        try:
            ok = oracle.recompose(oracle.decompose_connected(diagram)) == diagram
        except ValueError:
            ok = False
        bad += not ok

    for n in range(1, roundtrip_top + 1):  # the walker visits exactly the connected diagrams
        _census_py._walk(n, 0, round_trip)
    connected = gf.series_connected(roundtrip_top)
    expected = sum(connected[n] for n in range(1, roundtrip_top + 1))
    results.append(
        (
            f"proposition: decompose/recompose identity for n <= {roundtrip_top}",
            bad == 0 and seen == expected,
            f"{bad} failures over {seen} connected diagrams, {expected} expected",
        )
    )
    return results


def _suite_chain_rule(order: int, cap: int) -> list[tuple[str, bool, str]]:
    order = max(order, 6)
    report = alien.verify_derivation_chain(order)
    results = []
    for step in report.steps:
        if step.passed:
            detail = ""
        elif step.first_mismatch is None:
            detail = "prefactor mismatch"
        else:
            detail = f"first mismatch at x^{step.first_mismatch}"
        results.append((f"chain-rule: {step.name} at order {order}", step.passed, detail))
    return results


def _suite_tables(order: int, cap: int) -> list[tuple[str, bool, str]]:
    results = []
    work = max(order, 8)
    rows = gf.decomposition_table_series(work)
    for kind, table, reference in (
        ("decomposition", rows, gf.DECOMPOSITION_REFERENCE),
        ("image", alien.image_table_series(work), alien.IMAGE_REFERENCE),
    ):
        for name, expected in reference.items():
            got = tuple(table[name][i] for i in range(len(expected)))
            ok = got == tuple(Fraction(e) for e in expected)
            results.append((f"tables: {kind} row {name}", ok, "" if ok else str(got)))
    identity = (
        PowerSeries.x(6)
        + rows["C^2 * [C2(t)/t^2]"].truncate(6)
        + rows["(C-x)/x * C^2 * [C2(t)/t^2]"].truncate(6)
        == gf.series_connected(6)
    )
    results.append(("tables: x + case rows sum to C", identity, ""))
    return results


def _suite_bijection(order: int, cap: int) -> list[tuple[str, bool, str]]:
    results = []
    top = min(order, 6, cap)
    if top < 2:
        raise UsageError(
            f"the bijection suite checks n = 2..min(order, 6, cap); "
            f"order {order} and cap {cap} leave nothing to check"
        )
    two_connected = gf.series_two_connected(top)
    for n in range(2, top + 1):
        report = qft.verify_bijection(n, cap=cap)
        ok = report.passed and report.primitive_count == two_connected[n]
        detail = f"{report.primitive_count} primitive"
        if report.counterexamples:
            detail += f"; counterexamples: {report.counterexamples[:3]}"
        results.append((f"bijection: n={n}", ok, detail))
    return results


SUITES = {
    "lemmas": _suite_lemmas,
    "proposition": _suite_proposition,
    "chain-rule": _suite_chain_rule,
    "tables": _suite_tables,
    "bijection": _suite_bijection,
}


def cmd_verify(args) -> int:
    if args.order < 1:
        raise UsageError(f"order must be at least 1, got {args.order}")
    cap = configured_cap()
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        started = time.perf_counter()
        for label, ok, detail in SUITES[name](args.order, cap):
            status = "PASS" if ok else "FAIL"
            suffix = f"  [{detail}]" if detail and not ok else ""
            print(f"{status} {label}{suffix}")
            if not ok:
                failures += 1
        elapsed = time.perf_counter() - started
        print(f"suite {name}: done in {elapsed:.2f}s")
    return 1 if failures else 0


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorddiag",
        description=(
            "Exact enumeration of rooted chord diagrams by connectivity, the "
            "series relations between the classes, their asymptotic expansions, "
            "and the correspondence with photon-decorated fermion paths."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print a counting series")
    p.add_argument("--family", required=True, choices=sorted(gf.FAMILIES))
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("enumerate", help="enumerate diagrams or count a class")
    p.add_argument("--chords", type=int, required=True)
    p.add_argument("--class", dest="cls", default="all")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=[*SUITES, "all"], required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("alien", help="asymptotic-expansion image of a family")
    p.add_argument("--family", choices=list(IMAGE_FAMILIES), required=True)
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--format", choices=["json", "csv", "plain"], default="json")
    p.set_defaults(func=cmd_alien)

    p = sub.add_parser("estimate", help="asymptotic estimates vs exact counts")
    p.add_argument("--family", choices=list(IMAGE_FAMILIES), default="C2")
    p.add_argument("--terms", type=int, default=6)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("qft", help="partition functions and graph images")
    p.add_argument("--quadratic", default="1", help="quadratic coefficient a")
    p.add_argument(
        "--coupling",
        action="append",
        default=[],
        metavar="K=RATIONAL",
        help="potential coupling at valency K (repeatable; without one, the cubic 3=1)",
    )
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--graph-of", metavar="DIAGRAM", help='diagram text, e.g. "2: 3 4 1 2"')
    p.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    p.set_defaults(func=cmd_qft)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, oracle.CapExceededError):
            print(
                f"set {CAP_ENV_VAR} (at most {HARD_CAP}) to raise the cap",
                file=sys.stderr,
            )
        return 2


if __name__ == "__main__":
    sys.exit(main())
