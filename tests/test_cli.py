import ast
import contextlib
import csv
import decimal
import errno
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from intval import cli, lebesgue
from intval.algebra import INFINITY, decimal_str, ext
from intval.errors import IntvalError, LiteralTooLarge, ParseError
from intval.laws import LawResult
from intval.literals import parse_rational, rational_pair
from oracle_cli import build_parser


def _from_decimal(text):
    """int(text) in chunks short enough for Python's conversion limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def assert_written_as_json_dumps(out):
    """A JSON document main prints is json.dumps of what it encodes."""
    if out.startswith("{"):
        assert out == json.dumps(json.loads(out)) + "\n"


def run_cli(args, monkeypatch=None, capsys=None):
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert_written_as_json_dumps(out)
    return code, out, err


class TestIntegrate:
    def test_csv_table_and_convergence(self, capsys):
        code, out, err = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }", "--eps", "1/4",
             "--format", "csv"],
            capsys=capsys,
        )
        assert code == 0
        assert out.splitlines() == [
            "n,lo,hi,width",
            "0,0,1,1",
            "1,1/4,3/4,1/2",
            "2,3/8,5/8,1/4",
        ]

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }", "--eps", "1/4"],
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["depth"] == 2
        assert doc["rows"][-1] == {"n": 2, "lo": "3/8", "hi": "5/8", "width": "1/4"}

    def test_zero_function_converges_at_depth_zero(self, capsys):
        code, out, _ = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: 0 }", "--eps", "1/1000000"],
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["depth"] == 0
        assert doc["rows"] == [{"n": 0, "lo": "0", "hi": "0", "width": "0"}]

    def test_cap_exceeded_emits_partial_table_and_exit_2(self, capsys):
        code, out, _ = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }", "--eps", "1/1024",
             "--depth-cap", "3"],
            capsys=capsys,
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["converged"] is False
        assert doc["depth"] == 3
        assert len(doc["rows"]) == 4

    def test_rows_are_the_levels_of_refine(self, monkeypatch, capsys):
        # levels go through lebesgue.lebesgue_n, so a wrapper there sees them
        depths = []
        real = lebesgue.lebesgue_n
        monkeypatch.setattr(
            lebesgue, "lebesgue_n", lambda n, h, **kw: depths.append(n) or real(n, h, **kw)
        )
        code, out, _ = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }", "--eps", "1/1024",
             "--depth-cap", "3", "--format", "csv"],
            capsys=capsys,
        )
        assert code == 2
        assert depths == [0, 1, 2, 3]
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0", "1", "2", "3"]

    def test_malformed_spec_exits_1(self, capsys):
        code, out, err = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc x }"], capsys=capsys
        )
        assert code == 1
        assert "line 1" in err

    def test_non_monotone_piece_exits_1(self, capsys):
        code, _, err = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: 1 - x }"], capsys=capsys
        )
        assert code == 1
        assert "split the segment" in err

    def test_piece_turning_between_grid_points_exits_1(self, capsys):
        # p' = 3(x - 1/256)(x - 1/64) is negative between its two roots,
        # which lie inside the first of 16 equal sample steps
        code, out, err = run_cli(
            ["integrate", "--fn",
             "piecewise { [0,1] inc: x^3 - 15/512*x^2 + 3/16384*x }"],
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "split the segment" in err

    def test_bad_eps_exits_1(self, capsys):
        code, _, err = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }", "--eps", "0"],
            capsys=capsys,
        )
        assert code == 1

    def test_bad_depth_cap_exits_1(self, capsys):
        code, _, err = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }", "--depth-cap", "40"],
            capsys=capsys,
        )
        assert code == 1

    def test_file_input(self, tmp_path, capsys):
        spec = tmp_path / "fn.txt"
        spec.write_text("piecewise { [0,1] inc: x }\n")
        code, out, _ = run_cli(
            ["integrate", "--fn", str(spec), "--eps", "1/2", "--format", "csv"],
            capsys=capsys,
        )
        assert code == 0
        assert out.splitlines()[-1] == "1,1/4,3/4,1/2"

    def test_power_binds_before_division(self, capsys):
        code, out, _ = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: 3/2^2 }", "--eps", "1"],
            capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["rows"] == [{"n": 0, "lo": "3/4", "hi": "3/4", "width": "0"}]

    def test_approx_decimals_column(self, capsys):
        code, out, _ = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }", "--eps", "1/4",
             "--format", "csv", "--approx-decimals", "3"],
            capsys=capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,lo,hi,width,lo_approx,hi_approx"
        assert lines[-1].endswith("0.375,0.625")
        # a third is enclosed by its decimals, not rounded to 0.33 on both sides
        code, out, _ = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x^2 }", "--eps", "1/1000",
             "--format", "csv", "--approx-decimals", "2"],
            capsys=capsys,
        )
        assert out.splitlines()[-1] == "10,698027/2097152,700075/2097152,1/1024,0.33,0.34"

    def test_negative_approx_decimals_exits_1(self, capsys):
        code, out, err = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }",
             "--approx-decimals", "-3"],
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert err == "error: --approx-decimals must be >= 0\n"

    def test_approx_decimals_above_digit_cap_exits_1_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }",
             "--approx-decimals", "4301"],
            capsys=capsys,
        )
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert out == ""
        assert err == "error: --approx-decimals must be <= 4300\n"

    def test_options_are_checked_before_the_literal_is_parsed(self, capsys):
        # 8,450 characters whose direction checks take seconds: a bad option
        # is reported without waiting for them
        n = "1" + "0" * 4200
        fn = f"piecewise {{ [0,1/{n}] inc: x^64; [1/{n},1] inc: x^64 }}"
        assert len(fn) == 8450
        start = time.perf_counter()
        code, out, err = run_cli(
            ["integrate", "--fn", fn, "--depth-cap", "31"], capsys=capsys
        )
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert err == "error: --depth-cap must lie in [0, 30]\n"

    def test_rationals_over_4300_digits_print_exactly(self, capsys):
        # a 4933-digit constant: Python's str() refuses ints over 4300 digits
        big = "(2^64)^64*(2^64)^64*(2^64)^64*(2^64)^64"
        code, out, err = run_cli(
            ["integrate", "--fn", f"piecewise {{ [0,1] inc: {big} }}", "--eps", "1",
             "--format", "csv", "--approx-decimals", "4300"],
            capsys=capsys,
        )
        assert code == 0, err
        header, row = out.splitlines()
        assert header == "n,lo,hi,width,lo_approx,hi_approx"
        n, lo, hi, w, lo_approx, hi_approx = row.split(",")
        assert (n, w) == ("0", "0") and lo == hi
        assert len(lo) == 4933 and lo.startswith("1189731495357231765") and lo.endswith("6816")
        assert _from_decimal(lo) == 2**16384
        assert lo_approx == hi_approx == lo + "." + "0" * 4300

    def test_degree_above_cap_exits_1(self, capsys):
        code, _, err = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x^8000 }"], capsys=capsys
        )
        assert code == 1
        assert err.startswith("error: line 1") and "cap" in err

    def test_nested_constant_powers_exit_1_fast(self, capsys):
        # would build a 2^30-bit integer; the size bound rejects it first
        t0 = time.perf_counter()
        code, out, err = run_cli(
            ["integrate", "--fn",
             "piecewise { [0,1] inc: ((((2^64)^64)^64)^64)^64 }"],
            capsys=capsys,
        )
        assert time.perf_counter() - t0 < 0.5
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1") and "cap" in err

    @pytest.mark.parametrize("eps", ["0.25", "1e-2", "1/0", "-1/4", "inf", "1/4x", ""])
    def test_eps_outside_the_rational_grammar_exits_1(self, eps, capsys):
        code, out, err = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }", f"--eps={eps}"],
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"error: --eps must be a positive rational written p or p/q, got {eps!r}\n"
        )

    @pytest.mark.parametrize("eps, last", [("1", "0,0,1,1"), (" 1 / 4 ", "2,3/8,5/8,1/4")])
    def test_eps_in_the_rational_grammar(self, eps, last, capsys):
        code, out, _ = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: x }", "--eps", eps,
             "--format", "csv"],
            capsys=capsys,
        )
        assert code == 0
        assert out.splitlines()[-1] == last

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.text(alphabet="0123456789/ .-+einfx\t", max_size=12),
            st.from_regex(r"\A *[0-9]{1,6} *(/ *[0-9]{1,6})? *\Z"),
            st.sampled_from(["1" * 4300, "1/" + "3" * 4300, "1" * 4301, "1/" + "3" * 4301]),
        )
    )
    def test_eps_accepts_exactly_what_parse_rational_does(self, text):
        # the same values, and the same messages for everything else
        try:
            q = parse_rational(text)
        except LiteralTooLarge as exc:
            expected = f"--eps: {exc}"
            pair = (LiteralTooLarge, str(exc))
        except ParseError as exc:
            expected = f"--eps must be a positive rational written p or p/q, got {text!r}"
            pair = (ParseError, str(exc))
        else:
            assert type(q) is Fraction
            expected = ext(q) if q else (
                f"--eps must be a positive rational written p or p/q, got {text!r}"
            )
            pair = (q.numerator, q.denominator)
        try:
            got = cli._parse_eps(text)
        except IntvalError as exc:
            assert type(exc) is IntvalError
            got = str(exc)
        assert got == expected
        try:
            got_pair = rational_pair(text)
        except ParseError as exc:
            got_pair = (type(exc), str(exc))
        assert got_pair == pair


    @pytest.mark.parametrize(
        "args, col",
        [
            (["--fn", "piecewise { [0,1] inc: " + "1" * 5000 + "*x }"], 24),
            (["--fn", "piecewise { [0,1] inc: x^" + "1" * 5000 + " }"], 26),
            (["--fn", "piecewise { [0,1] inc: x }", "--eps", "1" * 5000], 1),
        ],
        ids=["coefficient", "exponent", "eps"],
    )
    def test_5000_digit_literal_exits_1_with_position(self, args, col, capsys):
        code, out, err = run_cli(["integrate"] + args, capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and f"line 1, col {col}: 5000 digits exceed the cap" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "fn, col",
        [
            ("piecewise { [0,1] inc: x^\u00b2 }", 26),
            ("piecewise { [0,\u0661] inc: x }", 16),
            ("piecewise { [0,1] inc: \uff12*x }", 24),
        ],
        ids=["superscript-two", "arabic-indic-one", "fullwidth-two"],
    )
    def test_non_ascii_digits_exit_1_with_position(self, fn, col, capsys):
        code, out, err = run_cli(["integrate", "--fn", fn], capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: line 1, col {col}: unexpected character ")
        assert len(err.splitlines()) == 1

    def test_5000_digit_coefficient_in_eval_exits_1_with_position(self, capsys):
        code, out, err = run_cli(
            ["eval", "--poset", "poset { x }", "--val", "val { " + "1" * 5000 + " @ x }",
             "--fn", "fn h { x -> 1 }"],
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1, col 7: 5000 digits exceed the cap")

    def test_deep_parentheses_exit_1(self, capsys):
        code, out, err = run_cli(
            ["integrate", "--fn", "piecewise { [0,1] inc: " + "(" * 300 + "x" + ")" * 300 + " }"],
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1, col ") and "nesting exceeds the cap" in err

    def test_depth_cap_bound_is_stated_and_enforced(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["integrate", "--help"])
        assert f"0 to {cli.MAX_DEPTH_CAP}" in capsys.readouterr().out
        fn = ["integrate", "--fn", "piecewise { [0,1] inc: 0 }"]
        code, _, _ = run_cli(fn + ["--depth-cap", str(cli.MAX_DEPTH_CAP)], capsys=capsys)
        assert code == 0
        code, out, err = run_cli(fn + ["--depth-cap", str(cli.MAX_DEPTH_CAP + 1)], capsys=capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: --depth-cap must lie in [0, {cli.MAX_DEPTH_CAP}]\n"


def _directed_oracle(value: Fraction, decimals: int, up: bool) -> str:
    """value rounded to `decimals` places by the decimal module, down
    (ROUND_FLOOR) or, when up, up (ROUND_CEILING).

    The division rounds in the same direction, at a precision that covers
    every digit of the scaled quotient and more than those of its
    denominator: an integer quotient is exact, and any other lies at least
    1/denominator from an integer, farther than the division's error.
    """
    num, den = value.numerator * 10**decimals, value.denominator
    rounding = decimal.ROUND_CEILING if up else decimal.ROUND_FLOOR
    with decimal.localcontext() as ctx:
        ctx.prec = len(str(num)) + 2 * len(str(den)) + 10
        ctx.rounding = rounding
        q = (decimal.Decimal(num) / decimal.Decimal(den)).quantize(
            decimal.Decimal(1), rounding=rounding
        )
        return format(q.scaleb(-decimals), f".{decimals}f")


_TIES = st.builds(
    lambda k, d: (Fraction(2 * k + 1, 2 * 10**d), d),
    st.integers(0, 10**12),
    st.integers(0, 8),
)
_EXACT = st.builds(
    lambda k, d, e: (Fraction(k, 10**d), d + e),
    st.integers(0, 10**12),
    st.integers(0, 8),
    st.integers(0, 3),
)
_RATIONALS = st.tuples(
    st.fractions(min_value=0, max_value=10**9, max_denominator=10**9),
    st.integers(0, 40),
)


def _of_the_fraction(value: Fraction, decimals: int, up: bool) -> str:
    """The floor, or when up the ceiling, of the Fraction as text, which
    _approx gives byte for byte without building one."""
    scaled = value * 10**decimals
    text = decimal_str(math.ceil(scaled) if up else math.floor(scaled)).rjust(decimals + 1, "0")
    return f"{text[:-decimals]}.{text[-decimals:]}" if decimals else text


class TestApprox:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_TIES, _EXACT, _RATIONALS))
    @example((Fraction(5, 2), 0))
    @example((Fraction(7, 3), 0))
    @example((Fraction(1, 4), 2))
    def test_rounds_down_and_up(self, case):
        value, decimals = case
        for up in (False, True):
            got = cli._approx(ext(value), decimals, up)
            assert got == _directed_oracle(value, decimals, up)
            assert got == _of_the_fraction(value, decimals, up)

    def test_rounds_as_the_fraction_does_at_4300_places(self):
        # ties, both neighbours of a tie, thirds and an integer, past
        # str()'s digit limit (hypothesis cannot repr these values)
        tie = Fraction(1, 2 * 10**4300)
        for value in (tie, 3 * tie, tie + Fraction(1, 10**4400), tie - Fraction(1, 10**4400),
                      Fraction(2, 3), Fraction(10**4299 + 1, 3), Fraction(7)):
            for up in (False, True):
                assert cli._approx(ext(value), 4300, up) == _of_the_fraction(value, 4300, up)

    def test_down_is_the_floor_and_up_the_ceiling(self):
        halves = [ext(Fraction(k, 2)) for k in (1, 3, 5, 7)]
        assert [cli._approx(h, 0, False) for h in halves] == ["0", "1", "2", "3"]
        assert [cli._approx(h, 0, True) for h in halves] == ["1", "2", "3", "4"]
        for value, down, up in [
            (Fraction(125, 1000), "0.12", "0.13"),
            (Fraction(375, 1000), "0.37", "0.38"),
            (Fraction(1, 3), "0.33", "0.34"),
            (Fraction(1, 4), "0.25", "0.25"),
        ]:
            assert (cli._approx(ext(value), 2, False), cli._approx(ext(value), 2, True)) == (
                down, up,
            )
        assert cli._approx(INFINITY, 3, False) == cli._approx(INFINITY, 3, True) == "inf"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
        st.integers(1, 6),
        st.sampled_from(["inc", "dec"]),
        st.integers(0, 12),
        st.integers(0, 6),
    )
    def test_decimal_columns_enclose_the_level(self, c, k, direction, e, decimals):
        body = f"{c}*x^{k}" if direction == "inc" else f"{c}*(1 - x)^{k}"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([
                "integrate", "--fn", f"piecewise {{ [0,1] {direction}: {body} }}",
                "--eps", f"1/{2**e}", "--format", "csv", "--approx-decimals", str(decimals),
            ])
        assert code == 0
        ulp = Fraction(1, 10**decimals)
        for row in csv.DictReader(io.StringIO(out.getvalue())):
            lo, hi = Fraction(row["lo"]), Fraction(row["hi"])
            lo_approx, hi_approx = Fraction(row["lo_approx"]), Fraction(row["hi_approx"])
            assert lo - ulp < lo_approx <= lo <= hi <= hi_approx < hi + ulp


class TestEval:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            [
                "eval",
                "--poset", "poset { x; y }",
                "--val", "val { [1/2,1/2] @ x; [1/4,1/3] @ y }",
                "--fn", "fn h { x -> [1,2]; y -> [0,3] }",
            ],
            capsys=capsys,
        )
        assert code == 0
        assert json.loads(out) == {"value": "[1/2,2]"}

    def test_dirac_returns_the_point_value(self, capsys):
        code, out, _ = run_cli(
            [
                "eval",
                "--poset", "poset { x; y; x <= y }",
                "--val", "val { [1,1] @ y }",
                "--fn", "fn h { x -> [0,5]; y -> [1,4] }",
                "--format", "csv",
            ],
            capsys=capsys,
        )
        assert code == 0
        assert out == 'value\n"[1,4]"\n'
        assert list(csv.reader(io.StringIO(out))) == [["value"], ["[1,4]"]]

    @pytest.mark.parametrize(
        "val, fn, line",
        [("val { 1/2 @ x }", "fn h { x -> 1 }", "1/2"), ("val { inf @ x }", "fn h { x -> 1 }", "inf")],
    )
    def test_csv_scalar_values_stay_unquoted(self, val, fn, line, capsys):
        code, out, _ = run_cli(
            ["eval", "--poset", "poset { x }", "--val", val, "--fn", fn, "--format", "csv"],
            capsys=capsys,
        )
        assert code == 0
        assert out == f"value\n{line}\n"
        assert list(csv.reader(io.StringIO(out))) == [["value"], [line]]

    def test_scalar_valued_evaluation(self, capsys):
        code, out, _ = run_cli(
            [
                "eval",
                "--poset", "poset { x; y }",
                "--val", "val { 1/2 @ x; inf @ y }",
                "--fn", "fn h { x -> 4; y -> 0 }",
            ],
            capsys=capsys,
        )
        assert code == 0
        # 1/2 * 4 + inf * 0 = 2 under the lower product
        assert json.loads(out) == {"value": "2"}

    def test_mixed_algebras_exit_1(self, capsys):
        code, _, err = run_cli(
            [
                "eval",
                "--poset", "poset { x }",
                "--val", "val { 1/2 @ x }",
                "--fn", "fn h { x -> [0,1] }",
            ],
            capsys=capsys,
        )
        assert code == 1
        assert "different algebras" in err

    def test_point_not_in_poset_exits_1(self, capsys):
        code, _, err = run_cli(
            [
                "eval",
                "--poset", "poset { x }",
                "--val", "val { [1,1] @ zz }",
                "--fn", "fn h { x -> [0,1] }",
            ],
            capsys=capsys,
        )
        assert code == 1
        assert "zz" in err

    def test_parse_failure_exits_1(self, capsys):
        code, _, err = run_cli(
            ["eval", "--poset", "poset {", "--val", "val { [1,1] @ x }",
             "--fn", "fn h { x -> [0,1] }"],
            capsys=capsys,
        )
        assert code == 1
        # the end of input is one column past the trailing '{'
        assert err == "error: line 1, col 8: expected a point name, found 'end of input'\n"

    # 16,000 points took 0.36 s, and peaked at 45.4 MiB under tracemalloc
    # (Python 3.11, 2 cores); frozenset up-sets needed 84.5 MiB at 2,000
    @pytest.mark.parametrize("n, peak_mib", [(1000, None), (16000, 60)])
    def test_thousand_point_chain_is_fast(self, capsys, n, peak_mib):
        # the order's closure is one sweep over the chain, not a fixpoint, and
        # the map is checked on the n - 1 covers, not on all n(n - 1)/2 pairs
        pts = [f"p{i}" for i in range(n)]
        poset = "poset { " + "; ".join(f"{a} <= {b}" for a, b in zip(pts, pts[1:])) + " }"
        fn = "fn h { " + "; ".join(f"{p} -> [1,1]" for p in pts) + " }"
        argv = ["eval", "--poset", poset, "--val", f"val {{ [1,1] @ p0; [1/2,2] @ {pts[-1]} }}",
                "--fn", fn]
        t0 = time.perf_counter()
        code, out, err = run_cli(argv, capsys=capsys)
        assert time.perf_counter() - t0 < 3
        assert code == 0, err
        assert json.loads(out) == {"value": "[3/2,3]"}
        if peak_mib is not None:
            tracemalloc.start()
            try:
                run_cli(argv, capsys=capsys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < peak_mib * 2**20


class TestSpecArguments:
    """An argument is an inline literal when its keyword is followed by
    whitespace or '{'; anything else is a path, even one that starts with
    the keyword."""

    def test_eval_files_named_after_their_keywords(self, tmp_path, monkeypatch, capsys):
        for name, text in (
            ("poset.txt", "poset { x; y }"),
            ("val.txt", "val { [1/2,1/2] @ x; [1/4,1/3] @ y }"),
            ("fn.txt", "fn h { x -> [1,2]; y -> [0,3] }"),
        ):
            (tmp_path / name).write_text(text + "\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            ["eval", "--poset", "poset.txt", "--val", "val.txt", "--fn", "fn.txt"],
            capsys=capsys,
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == {"value": "[1/2,2]"}

    def test_integrate_file_named_after_its_keyword(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "piecewise.txt").write_text("piecewise { [0,1] inc: x }\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            ["integrate", "--fn", "piecewise.txt", "--eps", "1/2", "--format", "csv"],
            capsys=capsys,
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "1,1/4,3/4,1/2"

    @pytest.mark.parametrize("spec", ["poset{ x }", " \n\tposet { x }", "poset\n{ x }"])
    def test_inline_literals(self, spec, capsys):
        code, out, _ = run_cli(
            ["eval", "--poset", spec, "--val", "val { 1 @ x }", "--fn", "fn h { x -> 3 }"],
            capsys=capsys,
        )
        assert (code, json.loads(out)) == (0, {"value": "3"})

    def test_keyword_then_a_space_is_a_literal(self, capsys):
        code, _, err = run_cli(
            ["eval", "--poset", "poset a; b }", "--val", "val { 1 @ a }",
             "--fn", "fn h { a -> 1 }"],
            capsys=capsys,
        )
        assert code == 1
        assert err == "error: line 1, col 7: expected '{', found 'a'\n"

    def test_missing_file_named_after_the_keyword(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            ["eval", "--poset", "poset.txt", "--val", "val { 1 @ a }",
             "--fn", "fn h { a -> 1 }"],
            capsys=capsys,
        )
        assert code == 1
        assert err.startswith("error: cannot read 'poset.txt'")

    @pytest.mark.parametrize("command", ["integrate", "eval"])
    def test_non_utf8_file_named_in_the_error(self, command, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_bytes(b"piecewise { [0,1] inc: x \xff }\n")
        if command == "integrate":
            argv = ["integrate", "--fn", str(spec)]
        else:
            argv = ["eval", "--poset", str(spec), "--val", "val { 1 @ a }",
                    "--fn", "fn h { a -> 1 }"]
        code, out, err = run_cli(argv, capsys=capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"error: cannot read {str(spec)!r}: 'utf-8' codec can't decode byte 0xff "
            "in position 25: invalid start byte\n"
        )

    def test_nul_byte_path_named_in_the_error(self, capsys):
        code, out, err = run_cli(["integrate", "--fn", "bad\x00.txt"], capsys=capsys)
        assert (code, out) == (1, "")
        assert err == "error: cannot read 'bad\\x00.txt': embedded null byte\n"


class TestLaws:
    @pytest.fixture
    def quick_families(self, monkeypatch):
        from intval import laws

        def fake_run_all(seed=0, cases=None):
            n = cases if cases is not None else 100
            return [
                laws.interval_axioms(seed, min(n, 100)),
                laws.lebesgue_chain(seed, 4),
            ]

        monkeypatch.setattr("intval.laws.run_all", fake_run_all)

    def test_all_pass_exit_0(self, quick_families, capsys):
        code, out, _ = run_cli(["laws"], capsys=capsys)
        assert code == 0
        assert "interval-axioms" in out
        assert "pass" in out

    def test_json_format(self, quick_families, capsys):
        code, out, _ = run_cli(["laws", "--format", "json"], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert {f["family"] for f in doc["families"]} == {
            "interval-axioms",
            "lebesgue-chain",
        }

    def test_seeded_runs_are_identical(self, quick_families, capsys):
        _, first, _ = run_cli(["laws", "--seed", "7", "--cases", "50"], capsys=capsys)
        _, second, _ = run_cli(["laws", "--seed", "7", "--cases", "50"], capsys=capsys)
        assert first == second

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_cases_below_1_exits_1(self, cases, monkeypatch, capsys):
        def must_not_run(seed=0, cases=None):
            raise AssertionError("law suites ran")

        monkeypatch.setattr("intval.laws.run_all", must_not_run)
        code, out, err = run_cli(["laws", "--cases", cases], capsys=capsys)
        assert code == 1
        assert out == ""
        assert err == "error: --cases must be >= 1\n"

    def test_cases_help_says_what_it_scales(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["laws", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "randomized draws per law family" in text
        assert "lebesgue-chain reads it as its depth, capped at 12" in text
        assert "The exhaustive cases always run" in text

    def test_violation_exits_3_with_counterexample(self, monkeypatch, capsys):
        broken = LawResult(
            "interval-axioms", 12, 1, "distributivity at x=[0,0], y=[1,1], z=[0,inf]"
        )
        monkeypatch.setattr("intval.laws.run_all", lambda seed=0, cases=None: [broken])
        code, out, _ = run_cli(["laws"], capsys=capsys)
        assert code == 3
        assert "FAIL" in out
        assert "counterexample" in out
        assert "distributivity" in out


class TestLawsDigest:
    """The byte-identity gate for `intval laws`: the full run at seed 1."""

    def test_seed_1_json_digest_and_case_counts(self, capsys):
        code, out, _ = run_cli(["laws", "--seed", "1", "--format", "json"], capsys=capsys)
        assert code == 0
        counts = [f["cases"] for f in json.loads(out)["families"]]
        assert counts == [10216, 404260, 300, 500, 2000, 30]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f351111bbe62603b82eb3a7644a916d140288fc36e799322bb1b03ff16ff68d2"
        )


class TestGoldenFixtures:
    data = __file__.rsplit("/", 1)[0] + "/data"

    def test_integrate_matches_golden_csv(self, capsys):
        code, out, _ = run_cli(
            ["integrate", "--fn", f"{self.data}/tent.piecewise", "--eps", "1/16",
             "--format", "csv"],
            capsys=capsys,
        )
        assert code == 0
        with open(f"{self.data}/tent_eps16.golden.csv") as fh:
            assert out == fh.read()

    def test_eval_from_fixture_files(self, capsys):
        code, out, _ = run_cli(
            [
                "eval",
                "--poset", f"{self.data}/two_point.poset",
                "--val", f"{self.data}/mix.val",
                "--fn", f"{self.data}/bounds.fn",
            ],
            capsys=capsys,
        )
        assert code == 0
        # [1/2,1/2]*[0,3] + [1/4,1/3]*[1,2] = [0,3/2] + [1/4,2/3]
        assert json.loads(out) == {"value": "[1/4,13/6]"}


class TestUsageErrors:
    """An argument error that argparse finds ends like every other input
    error: main returns 1 after one 'error:' line with argparse's message,
    and prints nothing on stdout."""

    CASES = pytest.mark.parametrize(
        "argv, message",
        [
            (["laws", "--cases", "x"], "argument --cases: invalid int value: 'x'"),
            (["integrate"], "the following arguments are required: --fn"),
            (["eval", "--poset", "x"], "the following arguments are required: --val, --fn"),
            (
                ["laws", "--format", "xml"],
                "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'table')",
            ),
            (
                ["integrate", "--fn", "x", "--format", "xml"],
                "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')",
            ),
            ([], "the following arguments are required: command"),
            (
                ["foo"],
                "argument command: invalid choice: 'foo' (choose from 'integrate', 'eval', 'laws')",
            ),
            (["integrate", "--f", "x"], "ambiguous option: --f could match --fn, --format"),
            (["integrate", "--fn"], "argument --fn: expected one argument"),
            (["laws", "extra"], "unrecognized arguments: extra"),
        ],
        ids=[
            "cases-not-int", "integrate-no-fn", "eval-no-val", "unknown-format",
            "unknown-integrate-format", "no-command", "unknown-command", "ambiguous-option",
            "missing-value", "extra-argument",
        ],
    )

    @staticmethod
    def _check(code, out, err, message):
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @CASES
    def test_in_process(self, argv, message, capsys):
        self._check(*run_cli(argv, capsys=capsys), message)

    @CASES
    def test_as_a_subprocess(self, argv, message):
        proc = subprocess.run(
            [sys.executable, "-m", "intval.cli", *argv], capture_output=True, text=True
        )
        self._check(proc.returncode, proc.stdout, proc.stderr, message)

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["laws", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: intval laws") and err == ""

    HELP_SCREENS = {
        "": """\
usage: intval [-h] {integrate,eval,laws} ...

Exact interval-valued valuations and guaranteed-enclosure integration.

positional arguments:
  {integrate,eval,laws}
    integrate           enclose a unit-interval integral
    eval                evaluate a valuation on a test function
    laws                run the algebraic law suites

options:
  -h, --help            show this help message and exit
""",
        "integrate": """\
usage: intval integrate [-h] --fn FN [--eps EPS] [--depth-cap DEPTH_CAP]
                        [--format {json,csv}]
                        [--approx-decimals APPROX_DECIMALS]

options:
  -h, --help            show this help message and exit
  --fn FN               piecewise literal or path to one
  --eps EPS             target enclosure width (rational)
  --depth-cap DEPTH_CAP
                        deepest refinement level, 0 to 30 (default 24)
  --format {json,csv}
  --approx-decimals APPROX_DECIMALS
                        add decimal columns with 0 to 4300 digits after the
                        point
""",
        "eval": """\
usage: intval eval [-h] --poset POSET --val VAL --fn FN [--format {json,csv}]

options:
  -h, --help           show this help message and exit
  --poset POSET        poset literal or path
  --val VAL            valuation literal or path
  --fn FN              fn literal or path
  --format {json,csv}
""",
        "laws": """\
usage: intval laws [-h] [--seed SEED] [--cases CASES]
                   [--format {json,csv,table}]

options:
  -h, --help            show this help message and exit
  --seed SEED
  --cases CASES         randomized draws per law family (default: each
                        family's own count); lebesgue-chain reads it as its
                        depth, capped at 12. The exhaustive cases always run
  --format {json,csv,table}
""",
    }

    @pytest.mark.parametrize("command", sorted(HELP_SCREENS))
    def test_help_screen_at_80_columns(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (self.HELP_SCREENS[command], "")


def _argv_alphabet():
    """argv drawn from a fixed alphabet: the command names and 'foo'; every
    prefix of every option, unique in some commands and ambiguous in others,
    alone or with '=value'; -h, --help, --, --bogus and extra; and values
    that are ints with a sign, spaces or '_', choices, literals, negative
    numbers and other values that start with '-'.  A third of the draws
    give a command its required options and often valid others."""
    options = {command: list(spec[2]) for command, spec in cli._COMMANDS.items()}
    required = {
        command: [name for name, option in spec[2].items() if option[2]]
        for command, spec in cli._COMMANDS.items()
    }
    prefixes = {
        command: sorted({o[:k] for o in ["--help", *names] for k in range(3, len(o) + 1)})
        for command, names in options.items()
    }
    every_prefix = ["-h"] + sorted(set().union(*prefixes.values()))
    values = [
        "+3", "-3", " 7 ", "1_0", "- 3", "-3 ", "12", "", "x", "json", "csv", "table", "xml",
        "piecewise { [0,1] inc: x }", "-1", "-1/2", "-", "-x y",
    ]
    words = ["integrate", "eval", "laws", "foo", "-h", "--help", "--", "--bogus", "extra"]
    token = st.one_of(
        st.sampled_from(words + values),
        st.sampled_from(every_prefix),
        st.builds("{}={}".format, st.sampled_from(every_prefix), st.sampled_from(values)),
    )
    loose = st.lists(
        st.one_of(
            token.map(lambda t: [t]),
            st.tuples(st.sampled_from(every_prefix), st.sampled_from(values)).map(list),
        ),
        max_size=6,
    ).map(lambda groups: [t for group in groups for t in group])

    def written(command, pairs):
        pairs = [(option, "x", False) for option in required[command]] + pairs
        return [command] + [
            t for option, value, joined in pairs
            for t in ([f"{option}={value}"] if joined else [option, value])
        ]

    def well_formed(command):
        pair = st.tuples(
            st.sampled_from(prefixes[command]),
            st.sampled_from(["+3", " 7 ", "1_0", "-1", "json", "csv", "table", "x"]),
            st.booleans(),
        )
        return st.lists(pair, max_size=3).map(lambda pairs: written(command, pairs))

    return st.one_of(
        st.lists(token, max_size=4),
        st.builds(lambda command, rest: [command, *rest], st.sampled_from(words[:4]), loose),
        st.sampled_from(sorted(options)).flatmap(well_formed),
    )


class TestArgvParity:
    """The option-table reader reads every argv as the argparse parser in
    tests/oracle_cli.py does: the same values, the same help screen (at 80
    columns), or an error with the same message.  The one exception is
    '--opt=--', which argparse stores as an empty list."""

    ORACLE = build_parser()

    @staticmethod
    def _outcome(read, argv):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                args = read(list(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue()
        except IntvalError as exc:
            assert type(exc) is IntvalError
            return "error", str(exc)
        assert out.getvalue() == ""
        return "args", vars(args)

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(_argv_alphabet())
    @example(["--", "integrate"])
    @example(["integrate", "--"])
    @example(["--"])
    @example(["--bogus", "laws", "extra"])
    @example(["laws", "-hh"])
    @example(["laws", "-hhx"])
    @example(["laws", "-h="])
    @example(["laws", "-h=hh"])
    @example(["laws", "--help="])
    @example(["-hx", "laws"])
    @example(["integrate", "--fn", "x", "--", "--help"])
    @example(["integrate", "--fn=--fn", "--eps", "-.5", "--depth-cap", "-1\n"])
    @example(["eval", "--f=x y", "--poset=p"])
    @example(["integrate", "--=x"])
    @example(["integrate", "--fn", "-"])
    def test_reader_agrees_with_argparse(self, argv):
        # parse_args keeps nothing between calls, and formats help when asked
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            expected = self._outcome(self.ORACLE.parse_args, argv)
        assert self._outcome(cli._read_args, argv) == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["integrate", "--fn=--"], "cannot read '--': "),
            (["laws", "--cases=--"], "argument --cases: invalid int value: '--'"),
            (["eval", "--poset", "p", "--val", "v", "--fn", "f", "--format=--"],
             "argument --format: invalid choice: '--' (choose from 'json', 'csv')"),
            (["laws", "--ca=--"], "argument --cases: invalid int value: '--'"),
            (["laws", "--fo=--"],
             "argument --format: invalid choice: '--' (choose from 'json', 'csv', 'table')"),
            (["laws", "--seed", "-1", "--cases=--"], "argument --cases: invalid int value: '--'"),
        ],
        ids=["fn", "cases", "format", "cases-prefix", "format-prefix", "after-a-negative-seed"],
    )
    def test_a_double_dash_after_equals_is_a_value(self, argv, message, capsys):
        # argparse drops it and stores an empty list, which ended in a
        # traceback; the reader reads '--' like any other value
        code, out, err = run_cli(argv, capsys=capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_help_without_a_stdout_goes_to_stderr(self, monkeypatch, capsys):
        # as argparse does when file descriptor 1 is closed
        monkeypatch.setattr(sys, "stdout", None)
        with pytest.raises(SystemExit) as exc:
            cli.main(["laws", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().err == TestUsageErrors.HELP_SCREENS["laws"]

    def test_a_prefix_is_read_by_argparse(self):
        # the table reader takes only full option names; argparse, loaded
        # for this argv alone, reads --dep as --depth-cap
        script = "\n".join([
            "import io, sys",
            "from contextlib import redirect_stdout",
            "import intval.cli",
            "runs = []",
            "for option in ['--depth-cap', '--dep']:",
            "    out = io.StringIO()",
            "    with redirect_stdout(out):",
            "        code = intval.cli.main(",
            "            ['integrate', '--fn', 'piecewise { [0,1] inc: x }', option, '3'])",
            "    runs.append((code, out.getvalue(), 'argparse' in sys.modules))",
            "print(repr(runs))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True, text=True
        )
        (code, rows, before), (prefix_code, prefix_rows, after) = ast.literal_eval(proc.stdout)
        assert (code, before, after) == (2, False, True)
        assert (prefix_code, prefix_rows) == (code, rows)
        assert '"depth": 3' in rows

    @pytest.mark.parametrize("columns", ["20", "200"])
    def test_help_screen_is_the_same_at_any_width(self, columns, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        out = io.StringIO()
        with pytest.raises(SystemExit), contextlib.redirect_stdout(out):
            cli.main(["integrate", "-h"])
        assert out.getvalue() == TestUsageErrors.HELP_SCREENS["integrate"]


class TestJsonParity:
    """integrate's document is json.dumps of its rows, byte for byte."""

    KEYS = ["n", "lo", "hi", "width", "lo_approx", "hi_approx"]
    SCALAR = st.one_of(
        st.just(INFINITY),
        st.builds(ext, st.fractions(min_value=0, max_value=10 ** 30, max_denominator=10 ** 20)),
    )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.tuples(st.integers(0, 30), SCALAR, SCALAR, SCALAR), max_size=5),
        st.one_of(st.none(), st.integers(0, 12)),
        st.booleans(),
        st.integers(0, 30),
    )
    def test_writer_matches_json_dumps(self, levels, decimals, converged, depth):
        rows = []
        for n, lo, hi, w in levels:
            rows.append([n, *map(cli.render_scalar, (lo, hi, w))])
            if decimals is not None:
                rows[-1] += [cli._approx(lo, decimals, False), cli._approx(hi, decimals, True)]
        doc = {
            "rows": [dict(zip(self.KEYS, row)) for row in rows],
            "converged": converged,
            "depth": depth,
        }
        assert cli._integrate_json(rows, converged, depth) == json.dumps(doc) + "\n"


class TestRepeatedCalls:
    """main keeps nothing between calls: no option of one call leaks into
    the next."""

    FN = ["--fn", "piecewise { [0,1/2] inc: 2*x; [1/2,1] dec: 2 - 2*x }", "--eps", "1/8"]

    @pytest.fixture
    def echo_laws(self, monkeypatch):
        # the law table shows the seed and case count each call passed on
        def run_all(seed=0, cases=None):
            return [LawResult(f"seed-{seed}", -1 if cases is None else cases, 0)]

        monkeypatch.setattr("intval.laws.run_all", run_all)

    @staticmethod
    def _call(argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        out, err = capsys.readouterr()
        assert_written_as_json_dumps(out)
        return code, out, err

    @pytest.mark.parametrize(
        "first, second",
        [
            (["integrate", *FN, "--format", "csv"], ["integrate", *FN]),
            (["integrate", *FN, "--approx-decimals", "3"], ["integrate", *FN]),
            (["laws", "--cases", "2"], ["laws"]),
            (["laws", "--seed", "5", "--format", "csv"], ["laws"]),
            (["integrate", "--help"], ["integrate", *FN]),
            (["integrate", *FN, "--depth-cap", "99"], ["integrate", *FN]),
        ],
        ids=["format", "approx", "cases", "seed-format", "help", "error"],
    )
    def test_second_call_prints_what_it_prints_alone(self, first, second, echo_laws, capsys):
        alone = self._call(second, capsys)
        assert self._call(first, capsys) != alone
        assert self._call(second, capsys) == alone

    def test_cli_runs_load_no_argparse_gettext_or_json(self):
        # the probe prints a literal rather than import json itself
        script = "\n".join([
            "import io, sys",
            "from contextlib import redirect_stdout",
            "unwanted = ['argparse', 'gettext', 'json']",
            "def loaded():",
            "    return [name for name in unwanted if name in sys.modules]",
            "import intval.cli",
            "steps = [loaded()]",
            "runs = [",
            f"    {['integrate', *self.FN]!r},",
            f"    {['integrate', *self.FN, '--format', 'csv', '--approx-decimals', '2']!r},",
            "    ['eval', '--poset', 'poset { a; b; a <= b }',",
            "     '--val', 'val { [1/2,1/2] @ a; [1/4,1/3] @ b }',",
            "     '--fn', 'fn h { a -> [0,3]; b -> [1,2] }'],",
            "]",
            "for argv in runs:",
            "    with redirect_stdout(io.StringIO()):",
            "        assert intval.cli.main(argv) == 0",
            "    steps.append(loaded())",
            "import intval.laws",
            "intval.laws.run_all = lambda seed, cases: [intval.laws.LawResult('stub', 1, 0)]",
            "steps.append(loaded())",
            "with redirect_stdout(io.StringIO()):",
            "    assert intval.cli.main(['laws', '--format', 'json']) == 0",
            "steps.append(loaded())",
            "print(steps)",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True, text=True
        )
        assert ast.literal_eval(proc.stdout) == [[], [], [], [], [], ["json"]]

    # the modules an integrate or eval run does without, the option of
    # another run that might load each one, and whether it does:
    # --approx-decimals rounds the int pairs and loads no fractions
    DEFERRED = {
        "fractions": (["integrate", *FN, "--approx-decimals", "3"], False),
        "decimal": (["integrate", *FN, "--approx-decimals", "3"], False),
        "numbers": (["integrate", *FN, "--approx-decimals", "3"], False),
        "csv": (["integrate", *FN, "--format", "csv"], True),
        "intval.laws": (["laws", "--cases", "1"], True),
    }

    def test_integrate_and_eval_load_no_fractions_csv_or_laws(self):
        script = "\n".join([
            "import io, json, sys",
            "from contextlib import redirect_stdout",
            f"deferred = {sorted(self.DEFERRED) + ['copy', 'pickle']!r}",
            "def loaded():",
            "    return [name for name in deferred if name in sys.modules]",
            "import intval.cli",
            "steps = [loaded()]",
            "runs = [",
            f"    {['integrate', *self.FN]!r},",
            "    ['eval', '--poset', 'poset { a; b; a <= b }',",
            "     '--val', 'val { [1/2,1/2] @ a; [1/4,1/3] @ b }',",
            "     '--fn', 'fn h { a -> [0,3]; b -> [1,2] }'],",
            "]",
            "for argv in runs:",
            "    with redirect_stdout(io.StringIO()):",
            "        assert intval.cli.main(argv) == 0",
            "    steps.append(loaded())",
            "print(json.dumps(steps))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True, text=True
        )
        assert json.loads(proc.stdout) == [[], [], []]

    @pytest.mark.parametrize("name", sorted(DEFERRED))
    def test_the_option_that_needs_a_module_loads_it(self, name):
        argv, loads = self.DEFERRED[name]
        script = "\n".join([
            "import io, json, sys",
            "from contextlib import redirect_stdout",
            "import intval.cli",
            f"before = {name!r} in sys.modules",
            "with redirect_stdout(io.StringIO()):",
            f"    code = intval.cli.main({argv!r})",
            f"print(json.dumps([before, code, {name!r} in sys.modules]))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True, text=True
        )
        assert json.loads(proc.stdout) == [False, 0, loads]

    def test_import_loads_no_dataclasses_or_inspect(self):
        script = "\n".join([
            "import json, sys",
            "heavy = {'dataclasses', 'inspect'}",
            "import intval",
            "loaded = [sorted(heavy & set(sys.modules))]",
            "import intval.cli",
            "loaded.append(sorted(heavy & set(sys.modules)))",
            "print(json.dumps(loaded))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True, text=True
        )
        assert json.loads(proc.stdout) == [[], []]


class TestOutputStreams:
    """Every run ends in a result or one 'error:' line, whatever stdout
    does: closed, a pipe whose reader has gone, or a device that is full.
    Nothing is printed at interpreter exit, where a failed flush would
    print 'Exception ignored' and exit 120."""

    RUNS = {
        "integrate-json": ["integrate", "--fn", "piecewise { [0,1] inc: x }", "--eps", "1/8"],
        "integrate-csv": [
            "integrate", "--fn", "piecewise { [0,1] inc: x }", "--eps", "1/8", "--format", "csv",
        ],
        "eval": [
            "eval", "--poset", "poset { a; b; a <= b }",
            "--val", "val { [1/2,1/2] @ a; [1/4,1/3] @ b }",
            "--fn", "fn h { a -> [0,3]; b -> [1,2] }",
        ],
        "laws-json": ["laws", "--cases", "1", "--format", "json"],
    }

    # what each condition's diagnostic says after 'cannot write output: '
    REASONS = {
        "closed": "standard output is closed",
        "pipe": f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}",
        "full": f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}",
    }

    @staticmethod
    def _run(argv, stream):
        cmd = [sys.executable, "-m", "intval", *argv]
        # stdout buffered, as it is by default: unwritten output then waits
        # for a flush, which must not be left to interpreter exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        run = functools.partial(subprocess.run, cmd, env=env, stderr=subprocess.PIPE, text=True)
        if stream == "closed":
            return run(preexec_fn=lambda: os.close(1))
        if stream == "pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                return run(stdout=write_end)
            finally:
                os.close(write_end)
        if not os.path.exists("/dev/full"):
            pytest.skip("this platform has no /dev/full")
        with open("/dev/full", "wb") as full:
            return run(stdout=full)

    @pytest.mark.parametrize("stream", sorted(REASONS))
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_a_failed_write_is_one_error_line(self, run, stream):
        proc = self._run(self.RUNS[run], stream)
        assert proc.returncode == 1
        assert proc.stderr == f"error: cannot write output: {self.REASONS[stream]}\n"
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("stream", sorted(REASONS))
    def test_help(self, stream):
        proc = self._run(["integrate", "--help"], stream)
        if stream == "closed":
            # to stderr without a stdout, as argparse prints it
            assert (proc.returncode, proc.stderr) == (0, TestUsageErrors.HELP_SCREENS["integrate"])
        else:
            assert proc.returncode == 1
            assert proc.stderr == f"error: cannot write output: {self.REASONS[stream]}\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_reader_that_stops_mid_document(self, unbuffered):
        # about 200 kB, more than a pipe holds, to a reader that takes 100
        # bytes and closes.  Under python -u stdout's bytes go to a raw
        # file, whose short write the text layer would drop unreported
        argv = [
            "integrate", "--fn", "piecewise { [0,1] inc: x^2 }", "--eps", "1/1000000000",
            "--approx-decimals", "4000",
        ]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "intval", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == f"error: cannot write output: {self.REASONS['pipe']}\n"

    def test_in_process_failure_closes_the_stream(self, monkeypatch, capsys):
        class Full(io.StringIO):
            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        full = Full()
        monkeypatch.setattr(sys, "stdout", full)
        assert cli.main(self.RUNS["eval"]) == 1
        assert capsys.readouterr().err == f"error: cannot write output: {self.REASONS['full']}\n"
        # closed, so the interpreter has nothing left to flush at exit; a
        # second run on it is the same error, not a traceback
        assert full.closed
        assert cli.main(self.RUNS["eval"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")


class TestDeterminism:
    def test_byte_identical_across_runs(self):
        base = [
            sys.executable,
            "-m",
            "intval.cli",
            "integrate",
            "--fn",
            "piecewise { [0,1/2] inc: 2*x; [1/2,3/4] dec: 2 - 2*x; [3/4,1] dec: 2 - 2*x }",
            "--eps",
            "1/64",
        ]
        outputs = set()
        for _ in range(4):
            proc = subprocess.run(base, capture_output=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_diagnostics_do_not_depend_on_the_hash_seed(self):
        # a NotMonotone message names the first failing covering pair in
        # point order (a kernel's also the separating test function, in
        # point order), and a poset's repr lists its covers in point order
        script = """
from intval import cli
from intval.algebra import ival
from intval.errors import NotMonotone
from intval.monad import Kernel
from intval.spaces import FinitePoset, singleton
from intval.valuations import ElementaryValuation

star = "poset { a; b; c; d; a <= b; a <= c; a <= d }"
fn = "fn h { a -> 2; b -> 1; c -> 1; d -> 1 }"
print(cli.main(["eval", "--poset", star, "--val", "val { 1 @ a }", "--fn", fn]), flush=True)
t = singleton("t")
source = FinitePoset("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
table = {p: ElementaryValuation(t, [(ival(1 + (p == "a"), 1 + (p == "a")), "t")]) for p in "abcd"}
try:
    Kernel(source, t, table)
except NotMonotone as exc:
    print(exc)
print(repr(FinitePoset("abc", [("a", "b"), ("a", "c")])))
"""
        outputs = set()
        for seed in range(8):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            outputs.add(proc.stdout)
        assert outputs == {
            b"error: map not monotone: 'a' <= 'b' but 2 !<= 1\n"
            b"1\n"
            b"kernel not monotone: 'a' <= 'b' but val { [2,2] @ t } !<= val { [1,1] @ t }; "
            b"separated by fn h { t -> [1,inf] }\n"
            b"poset { a; b; c; a <= b; a <= c }\n"
        }
