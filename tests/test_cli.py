"""Command line surface: output formats, exit codes, cap handling."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chorddiag import gf, oracle, qft
from chorddiag.cli import (
    DEFAULT_ORDER_CAP,
    DIGITS_PER_ORDER,
    _emit_series,
    build_parser,
    main,
)
from chorddiag.series import PowerSeries, series_from_json_dict

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def off_by_one_at_x4(series):
    return PowerSeries([c + (i == 4) for i, c in enumerate(series.coefficients)])


class TestSeries:
    def test_two_connected_plain(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "C2", "--order", "6")
        assert code == 0
        assert out.strip() == "0, 0, 1, 1, 7, 63, 729"

    def test_all_diagrams_plain(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "D", "--order", "3")
        assert code == 0
        assert out.strip() == "1, 1, 3, 15"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "S", "--order", "6", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        series = series_from_json_dict(data)
        assert [int(c) for c in series.coefficients] == [1, 1, 2, 10, 82, 898, 12018]

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "C1", "--order", "4", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,num,den"
        assert lines[1:] == ["0,0,1", "1,1,1", "2,0,1", "3,3,1", "4,20,1"]

    @pytest.mark.parametrize(
        "family, order, expected", [("C", "0", "0"), ("C2", "1", "0, 0"), ("D", "0", "1")]
    )
    def test_every_order_from_zero(self, capsys, family, order, expected):
        assert run(capsys, "series", "--family", family, "--order", order) == (
            0, expected + "\n", "",
        )

    @pytest.mark.parametrize("family", sorted(gf.FAMILIES))
    def test_negative_order_exits_2(self, capsys, family):
        assert run(capsys, "series", "--family", family, "--order", "-1") == (
            2, "", "error: order must be nonnegative\n",
        )

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["series", "--family", "X"])
        assert info.value.code == 2

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
    )
    def test_coefficients_past_the_int_digit_limit(self, capsys):
        sevens = "7" * 5000
        f = PowerSeries([(10**5000 - 1) // 9 * 7, Fraction(1, 3)])
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            _emit_series(f, "json")
            data = json.loads(capsys.readouterr().out)
            assert data["coefficients"][0] == {"num": sevens, "den": "1"}
            assert sys.get_int_max_str_digits() == 4300
            _emit_series(f, "csv")
            assert capsys.readouterr().out.splitlines()[1] == f"0,{sevens},1"
            assert sys.get_int_max_str_digits() == 4300
            _emit_series(f, "plain")
            assert capsys.readouterr().out.strip() == f"{sevens}, 1/3"
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(old)


class TestEnumerate:
    def test_two_connected_count(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--chords", "4", "--class", "2connected", "--count-only",
        )
        assert code == 0
        assert out.strip() == "7"

    def test_all_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--chords", "2", "--class", "all", "--count-only"
        )
        assert code == 0
        assert out.strip() == "3"

    def test_connected_count(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--chords", "3", "--class", "connected", "--count-only",
        )
        assert code == 0
        assert out.strip() == "4"

    def test_k_class_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--chords", "3", "--class", "k:3", "--count-only"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_all_count_walks_nothing(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the count of every diagram needs no walk")

        monkeypatch.setattr(oracle, "_census_impl", SimpleNamespace(class_census=refuse))
        for n, count in ((0, "1"), (1, "1"), (8, "2027025")):
            code, out, _ = run(capsys, "enumerate", "--chords", str(n), "--count-only")
            assert (code, out.strip()) == (0, count), n
        code, out, err = run(capsys, "enumerate", "--chords", "-1", "--count-only")
        assert (code, out, err) == (2, "", "error: n must be nonnegative\n")
        code, out, err = run(capsys, "enumerate", "--chords", "9", "--count-only")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: census of n=9 exceeds the cap of 8 chords ((2n-1)!! diagrams); "
            "raise the cap explicitly to proceed",
            "set CHORDDIAG_CAP (at most 10) to raise the cap",
        ]

    def test_count_json(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--chords", "5", "--class", "connected",
            "--count-only", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"n": 5, "class": "connected", "count": "248"}

    def test_k_class_above_n_counts_zero_on_the_compiled_kernel(
        self, capsys, monkeypatch, compiled_census
    ):
        monkeypatch.setattr(oracle, "_census_impl", compiled_census)
        code, out, _ = run(
            capsys,
            "enumerate", "--chords", "3", "--class", "k:3000000000", "--count-only",
        )
        assert code == 0
        assert out.strip() == "0"

    def test_listing_order_and_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--chords", "2", "--class", "all")
        assert code == 0
        assert out.splitlines() == ["2: 2 1 4 3", "2: 3 4 1 2", "2: 4 3 2 1"]

    def test_plain_listing_is_the_default(self, capsys):
        listed = run(capsys, "enumerate", "--chords", "2")
        assert run(capsys, "enumerate", "--chords", "2", "--format", "plain") == listed

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_listing_in_another_format_exits_2(self, capsys, fmt):
        code, out, err = run(capsys, "enumerate", "--chords", "2", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: --format {fmt} needs --count-only; diagrams list as plain text"
        ]

    def test_cap_exceeded(self, capsys):
        for extra in (["--count-only"], []):
            code, out, err = run(capsys, "enumerate", "--chords", "9", *extra)
            assert code == 2
            assert out == ""
            assert "cap" in err
            assert "CHORDDIAG_CAP" in err

    def test_env_raises_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CHORDDIAG_CAP", "7")
        code, out, _ = run(
            capsys,
            "enumerate", "--chords", "7", "--class", "connected", "--count-only",
        )
        assert code == 0
        assert out.strip() == "38232"

    def test_env_cap_hard_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("CHORDDIAG_CAP", "11")
        code, _, err = run(capsys, "enumerate", "--chords", "4", "--count-only")
        assert code == 2
        assert "1..10" in err

    @pytest.mark.parametrize("k_class, named", [("k:1", "connected"), ("k:2", "2connected")])
    def test_k_class_listing_matches_named_class(self, capsys, k_class, named):
        _, by_k, _ = run(capsys, "enumerate", "--chords", "4", "--class", k_class)
        _, by_name, _ = run(capsys, "enumerate", "--chords", "4", "--class", named)
        assert by_k == by_name
        assert len(by_k.splitlines()) == {"connected": 27, "2connected": 7}[named]

    def test_bad_class(self, capsys):
        code, _, err = run(capsys, "enumerate", "--chords", "3", "--class", "nope")
        assert code == 2
        assert "unknown class" in err


class TestVerify:
    def test_lemmas(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--order", "20")
        assert code == 0
        assert out.count("PASS") == 3

    def test_tables(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tables", "--order", "7")
        assert code == 0
        assert "FAIL" not in out

    def test_proposition(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "proposition", "--order", "12")
        assert code == 0
        assert "FAIL" not in out

    def test_chain_rule(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "chain-rule", "--order", "8")
        assert code == 0
        assert out.count("PASS") == 3

    def test_failed_reversion_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            PowerSeries, "compose", lambda self, inner: PowerSeries.zero(self.order)
        )
        code, _, err = run(capsys, "verify", "--suite", "proposition", "--order", "8")
        assert code == 2
        assert err.startswith("error: reversion failed its exact composition check")

    def test_bijection(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bijection", "--order", "5")
        assert code == 0
        assert out.count("PASS") == 4  # n = 2..5

    def test_bijection_reports_a_flipped_connectivity_check(self, capsys, monkeypatch):
        flipped = "4: 5 6 7 8 1 2 3 4"  # 2-connected, the only diagram with its crossings
        masks = oracle._crossing_masks(oracle.ChordDiagram.from_text(flipped).pairing)
        original = qft._two_connected
        monkeypatch.setattr(
            qft, "_two_connected", lambda m: original(m) != (m == masks)
        )
        code, out, _ = run(capsys, "verify", "--suite", "bijection", "--order", "5")
        assert code == 1
        (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert line.startswith("FAIL bijection: n=4")
        assert f"counterexamples: ('{flipped}',)" in line
        assert out.count("PASS") == 3

    def test_bijection_with_nothing_to_check_exits_2(self, capsys, monkeypatch):
        code, out, err = run(capsys, "verify", "--suite", "bijection", "--order", "1")
        assert code == 2
        assert "PASS" not in out
        assert "nothing to check" in err
        monkeypatch.setenv("CHORDDIAG_CAP", "1")
        code, out, err = run(capsys, "verify", "--suite", "bijection", "--order", "5")
        assert code == 2
        assert "PASS" not in out
        assert "nothing to check" in err

    @pytest.mark.parametrize(
        "suite, order", [("tables", "0"), ("chain-rule", "-1"), ("all", "0")]
    )
    def test_order_below_one_exits_2_before_any_suite(self, capsys, suite, order):
        code, out, err = run(capsys, "verify", "--suite", suite, "--order", order)
        assert code == 2
        assert out == ""
        assert err == f"error: order must be at least 1, got {order}\n"

    def test_proposition_with_nothing_to_check_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CHORDDIAG_CAP", "1")
        code, out, err = run(capsys, "verify", "--suite", "proposition")
        assert code == 2
        assert "PASS" not in out
        assert "nothing to check" in err

    def test_bijection_counts_come_from_the_series(self, capsys, monkeypatch):
        original = gf.series_two_connected
        monkeypatch.setattr(
            gf, "series_two_connected", lambda order: off_by_one_at_x4(original(order))
        )
        code, out, _ = run(capsys, "verify", "--suite", "bijection", "--order", "5")
        assert code == 1
        assert "FAIL bijection: n=4" in out
        assert out.count("PASS") == 3

    @pytest.mark.parametrize(
        "row", ["C^2 * [C2(t)/t^2]", "(C-x)/x * C^2 * [C2(t)/t^2]"]
    )
    def test_proposition_case_counts_come_from_the_series(self, capsys, monkeypatch, row):
        original = gf.decomposition_table_series

        def perturbed(order):
            rows = dict(original(order))
            rows[row] = off_by_one_at_x4(rows[row])
            return rows

        monkeypatch.setattr(gf, "decomposition_table_series", perturbed)
        code, out, _ = run(capsys, "verify", "--suite", "proposition", "--order", "5")
        assert code == 1
        assert "FAIL proposition: decomposition case census at n=4" in out
        assert out.count("FAIL") == 1

    def test_proposition_round_trip_error_is_a_failed_line(self, capsys, monkeypatch):
        from chorddiag import oracle

        original = oracle.decompose_connected

        def failing(diagram):
            if diagram.n == 3:
                raise ValueError("planted")
            return original(diagram)

        monkeypatch.setattr(oracle, "decompose_connected", failing)
        code, out, _ = run(capsys, "verify", "--suite", "proposition", "--order", "5")
        assert code == 1
        assert "FAIL proposition: decompose/recompose identity for n <= 5" in out
        assert "4 failures over 281 connected diagrams" in out  # C_3 = 4
        assert out.count("FAIL") == 1

    def test_proposition_round_trip_counts_its_diagrams(self, capsys, monkeypatch):
        from chorddiag import _census_py

        original = _census_py._walk

        def dropping(n, root_partner, visit):
            first = [n == 4]

            def keep_all_but_first(partner, level, ends):
                if first[0]:
                    first[0] = False
                else:
                    visit(partner, level, ends)

            return original(n, root_partner, keep_all_but_first)

        monkeypatch.setattr(_census_py, "_walk", dropping)
        code, out, _ = run(capsys, "verify", "--suite", "proposition", "--order", "5")
        assert code == 1
        assert "FAIL proposition: decompose/recompose identity for n <= 5" in out
        assert "0 failures over 280 connected diagrams, 281 expected" in out

    def test_chain_rule_prefactor_failure_names_the_prefactor(self, capsys, monkeypatch):
        from chorddiag import alien

        original = alien.alien_two_connected

        def shifted(order):
            image = original(order)
            return image._replace(e_exp=image.e_exp + 1)

        monkeypatch.setattr(alien, "alien_two_connected", shifted)
        code, out, _ = run(capsys, "verify", "--suite", "chain-rule", "--order", "8")
        assert code == 1
        assert "None" not in out
        assert "[prefactor mismatch]" in out

    def test_all_uses_each_suite_order(self, capsys):
        def bijection_lines(suite):
            code, out, _ = run(capsys, "verify", "--suite", suite, "--order", "4")
            assert code == 0
            return [line for line in out.splitlines() if "bijection: n=" in line]

        lines = bijection_lines("bijection")
        assert len(lines) == 3  # n = 2..4
        assert bijection_lines("all") == lines

    def test_failure_exits_1(self, capsys, monkeypatch):
        from chorddiag import cli

        def broken_suite(order, cap):
            return [("forced failure", False, "injected")]

        monkeypatch.setitem(cli.SUITES, "lemmas", broken_suite)
        code, out, _ = run(capsys, "verify", "--suite", "lemmas")
        assert code == 1
        assert "FAIL forced failure" in out
        assert "injected" in out


class TestAlien:
    def test_two_connected_json(self, capsys):
        code, out, _ = run(capsys, "alien", "--family", "C2", "--order", "5")
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "C2"
        assert data["e_exp"] == {"num": "-2", "den": "1"}
        assert data["sqrt_two_pi_exp"] == -1
        nums = [c["num"] for c in data["series"]["coefficients"]]
        dens = [c["den"] for c in data["series"]["coefficients"]]
        assert nums == ["1", "-6", "-4", "-218", "-890", "-196838"]
        assert dens == ["1", "1", "1", "3", "1", "15"]

    def test_connected_plain(self, capsys):
        code, out, _ = run(
            capsys, "alien", "--family", "C", "--order", "3", "--format", "plain"
        )
        assert code == 0
        assert "e^-1" in out
        assert "1, -5/2, -43/8, -579/16" in out

    @pytest.mark.parametrize("family", ["C", "C2"])
    def test_order_zero(self, capsys, family):
        code, out, _ = run(
            capsys, "alien", "--family", family, "--order", "0", "--format", "plain"
        )
        assert code == 0
        assert out.splitlines()[1] == "1"


class TestEstimate:
    def test_leading_term_row(self, capsys):
        code, out, _ = run(
            capsys,
            "estimate", "--family", "C2", "--terms", "1",
            "--n-from", "6", "--n-to", "6",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,R,estimate,exact,rel_error,norm_error"
        fields = lines[1].split(",")
        assert fields[0] == "6"
        assert fields[1] == "1"
        assert fields[2].startswith("1406.810269")
        assert fields[3] == "729"

    def test_connected_family(self, capsys):
        code, out, _ = run(
            capsys,
            "estimate", "--family", "C", "--terms", "2",
            "--n-from", "20", "--n-to", "22",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            rel = float(line.split(",")[4])
            assert rel < 0.05

    def test_range_validation(self, capsys):
        code, _, err = run(
            capsys,
            "estimate", "--family", "C2", "--terms", "1",
            "--n-from", "8", "--n-to", "6",
        )
        assert code == 2
        assert "n-to" in err

    def test_n_from_equal_to_terms(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys,
                "estimate", "--family", "C2", "--terms", "6",
                "--n-from", "6", "--n-to", "7",
            )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: the normalized error needs n > terms for every row, got n = 6 with terms = 6"
        ]
        assert not caught

    def test_unreliable_point_prints_one_warning_line(self):
        # a fresh process, so that a raw UserWarning would reach stderr
        result = subprocess.run(
            [
                sys.executable, "-m", "chorddiag.cli", "estimate", "--family", "C2",
                "--terms", "6", "--n-from", "7", "--n-to", "7",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.returncode == 0
        assert result.stdout.splitlines() == [
            "n,R,estimate,exact,rel_error,norm_error",
            "7,6,1168.94497542791846496523123788,10113,0.884412,8944.06",
        ]
        assert result.stderr.splitlines() == [
            "warning: asymptotic estimate with n - terms = 1 < 5 is unreliable"
        ]
        assert "UserWarning" not in result.stderr and ".py:" not in result.stderr

    @pytest.mark.parametrize("family", ["C", "C2"])
    def test_empty_range_gives_one_message_for_both_families(self, capsys, family):
        code, out, err = run(
            capsys, "estimate", "--family", family, "--n-from", "0", "--n-to", "0"
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: the normalized error needs n > terms for every row, got n = 0 with terms = 6"
        ]

    @pytest.mark.parametrize("family", ["C", "C2"])
    def test_negative_range_gives_one_message_for_both_families(self, capsys, family):
        code, out, err = run(
            capsys, "estimate", "--family", family, "--n-from", "-3", "--n-to", "-1"
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: order must be nonnegative"]

    @pytest.mark.parametrize("terms", ["0", "-2"])
    def test_terms_validation(self, capsys, monkeypatch, terms):
        from chorddiag import alien

        def refuse(order):
            raise AssertionError("no series work before the terms check")

        monkeypatch.setattr(alien, "alien_two_connected", refuse)
        code, out, err = run(
            capsys,
            "estimate", "--family", "C2", "--terms", terms,
            "--n-from", "20", "--n-to", "30",
        )
        assert code == 2
        assert out == ""
        assert "terms must be at least 1" in err

    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_digits_validation(self, capsys, digits):
        code, out, err = run(
            capsys,
            "estimate", "--family", "C2", "--terms", "1",
            "--n-from", "6", "--n-to", "6", "--digits", digits,
        )
        assert code == 2
        assert out == ""
        assert "digits must be positive" in err


# the options that the order cap bounds, by command, with their default caps
DEFAULT_DIGITS_CAP = DIGITS_PER_ORDER * DEFAULT_ORDER_CAP
CAPPED_ORDERS = {
    "series": {"--order": DEFAULT_ORDER_CAP},
    "alien": {"--order": DEFAULT_ORDER_CAP},
    "estimate": {"--terms": DEFAULT_ORDER_CAP, "--n-to": DEFAULT_ORDER_CAP, "--digits": DEFAULT_DIGITS_CAP},
    "qft": {"--order": DEFAULT_ORDER_CAP},
}


class TestOrderCap:
    ORDER_LINES = [
        ["series", "--family", "S", "--order"],
        ["alien", "--family", "C2", "--order"],
        ["estimate", "--n-from", "3", "--n-to", "5", "--terms"],
        ["estimate", "--terms", "2", "--n-from", "3", "--n-to"],
        ["qft", "--order"],
    ]

    @pytest.mark.parametrize("line", ORDER_LINES)
    def test_one_above_the_default_cap_exits_2_naming_the_variable(
        self, capsys, monkeypatch, line
    ):
        monkeypatch.delenv("CHORDDIAG_ORDER_CAP", raising=False)
        code, out, err = run(capsys, *line, str(DEFAULT_ORDER_CAP + 1))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: {line[-1]} {DEFAULT_ORDER_CAP + 1} exceeds the order cap of "
            f"{DEFAULT_ORDER_CAP}; set CHORDDIAG_ORDER_CAP to raise it"
        ]

    @pytest.mark.parametrize(
        "line, option",
        [
            (["series", "--family", "S", "--order", "6"], "--order"),
            (["alien", "--family", "C2", "--order", "6"], "--order"),
            (["estimate", "--terms", "6", "--n-from", "7", "--n-to", "7"], "--terms"),
            (["estimate", "--terms", "2", "--n-from", "6", "--n-to", "6"], "--n-to"),
            (["qft", "--order", "6"], "--order"),
        ],
    )
    def test_the_variable_lowers_and_raises_the_cap(self, capsys, monkeypatch, line, option):
        monkeypatch.setenv("CHORDDIAG_ORDER_CAP", "5")
        code, out, err = run(capsys, *line)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: {option} 6 exceeds the order cap of 5; set CHORDDIAG_ORDER_CAP to raise it"
        ]
        monkeypatch.setenv("CHORDDIAG_ORDER_CAP", "7")
        assert run(capsys, *line)[0] == 0

    def test_digits_are_capped_at_100_per_unit_of_the_order_cap(self, capsys, monkeypatch):
        line = ["estimate", "--terms", "2", "--n-from", "3", "--n-to", "3", "--digits"]
        monkeypatch.delenv("CHORDDIAG_ORDER_CAP", raising=False)
        assert run(capsys, *line, str(DEFAULT_ORDER_CAP + 1))[0] == 0
        code, out, err = run(capsys, *line, str(DEFAULT_DIGITS_CAP + 1))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: --digits {DEFAULT_DIGITS_CAP + 1} exceeds the digits cap of "
            f"{DEFAULT_DIGITS_CAP}; set CHORDDIAG_ORDER_CAP to raise it"
        ]
        monkeypatch.setenv("CHORDDIAG_ORDER_CAP", "3")
        assert run(capsys, *line[:-1])[0] == 0  # the default --digits fits under any cap
        assert run(capsys, *line, "300")[0] == 0
        code, out, err = run(capsys, *line, "301")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: --digits 301 exceeds the digits cap of 300; set CHORDDIAG_ORDER_CAP to raise it"
        ]

    @pytest.mark.parametrize("raw", ["x", "0", "-3", ""])
    def test_a_bad_value_exits_2_naming_the_variable(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("CHORDDIAG_ORDER_CAP", raw)
        code, out, err = run(capsys, "series", "--family", "C", "--order", "3")
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: CHORDDIAG_ORDER_CAP must")

    def test_verify_and_the_library_are_not_capped(self, capsys, monkeypatch):
        monkeypatch.setenv("CHORDDIAG_ORDER_CAP", "5")
        code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--order", "12")
        assert code == 0
        assert "order 12" in out
        assert gf.series_family("C", 12).order == 12


class TestQft:
    def test_phi3(self, capsys):
        code, out, _ = run(capsys, "qft", "--order", "2")
        assert code == 0
        assert out.strip() == "1, 5/24, 385/1152"

    def test_model_is_no_longer_an_option(self, capsys):
        # the cubic potential is the default of --coupling, so --model selected nothing
        with pytest.raises(SystemExit) as info:
            main(["qft", "--model", "phi3", "--order", "2"])
        assert info.value.code == 2
        _, err = capsys.readouterr()
        assert "unrecognized arguments: --model phi3" in err

    def test_custom_action(self, capsys):
        code, out, _ = run(
            capsys,
            "qft", "--quadratic", "1", "--coupling", "4=1", "--order", "1",
        )
        assert code == 0
        assert out.strip() == "1, 1/8"

    def test_graph_dump(self, capsys):
        code, out, _ = run(capsys, "qft", "--graph-of", "2: 3 4 1 2")
        assert code == 0
        assert out.strip() == "3: 1-3 r2"

    def test_graph_of_malformed_text_names_the_form(self, capsys):
        code, out, err = run(capsys, "qft", "--graph-of", "bad")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: diagram text must read 'n: p1 ... p2n', got 'bad'"]

    def test_phi3_json(self, capsys):
        code, out, _ = run(capsys, "qft", "--order", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"] == [
            {"num": "1", "den": "1"},
            {"num": "5", "den": "24"},
        ]

    def test_bad_coupling(self, capsys):
        code, _, err = run(capsys, "qft", "--coupling", "4:x", "--order", "1")
        assert code == 2
        assert "coupling" in err

    def test_repeated_coupling_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "qft", "--coupling", "3=1", "--coupling", "3=2", "--order", "1"
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: --coupling given twice for valency 3"]

    def test_bad_quadratic(self, capsys):
        code, _, err = run(capsys, "qft", "--quadratic", "1/0", "--coupling", "3=1")
        assert code == 2
        assert err.startswith("error:") and "quadratic" in err

    def test_quadratic_without_coupling_keeps_the_cubic_potential(self, capsys):
        code, out, _ = run(capsys, "qft", "--quadratic", "4", "--order", "3")
        assert code == 0
        assert out.strip() == "2, 80/3, 24640/9, 43563520/81"
        assert run(capsys, "qft", "--quadratic", "4", "--coupling", "3=1", "--order", "3")[1] == out

    @pytest.mark.parametrize("quadratic", ["2", "1/0"])
    def test_bad_quadratic_without_coupling(self, capsys, quadratic):
        code, out, err = run(capsys, "qft", "--quadratic", quadratic, "--order", "3")
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error:")


def _above(cap):
    return [str(cap + 1), str(10**9)]


ABOVE_A_CAP = {value for cap in (DEFAULT_ORDER_CAP, DEFAULT_DIGITS_CAP) for value in _above(cap)}


def _option_values(action, cap=None):
    """Argument strings for one option: its choices, small integers, or text built from them.

    An option with a default ``cap`` also draws values above it.
    """
    numbers = st.integers(-3, 12).map(str)
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if cap is not None:
        return st.one_of(numbers, st.sampled_from(_above(cap)))
    if action.type is int:
        return numbers
    return st.one_of(
        numbers,
        st.builds("{}/{}".format, numbers, numbers),
        st.builds("{}={}".format, numbers, numbers),
        st.builds("k:{}".format, numbers),
        st.builds("{}: {}".format, numbers, st.lists(numbers, max_size=6).map(" ".join)),
        st.sampled_from(["", "x", "connected", "1=1/0", "k:", "2: 3 4 1 2"]),
    )


@st.composite
def _argv(draw):
    """A command line: a subcommand and a random subset of its options."""
    (subparsers,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    command = draw(st.sampled_from(sorted(subparsers.choices)))
    argv = [command]
    for action in subparsers.choices[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        # a required option is left out one time in eight, so most lines get past argparse
        present = st.integers(0, 7).map(bool) if action.required else st.booleans()
        if not draw(present):
            continue
        option = action.option_strings[0]
        argv.append(option)
        if action.nargs != 0:
            argv.append(draw(_option_values(action, CAPPED_ORDERS.get(command, {}).get(option))))
    return argv


class TestExitCodeContract:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=_argv())
    def test_every_command_line_exits_0_1_or_2(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("CHORDDIAG_CAP", "5")
        monkeypatch.delenv("CHORDDIAG_ORDER_CAP", raising=False)
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse's usage errors
            code = stop.code
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert code != 1 or argv[0] == "verify", argv
        if any(value in ABOVE_A_CAP for value in argv):
            assert code == 2, argv
