import csv
import decimal
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from intval import cli, lebesgue
from intval.algebra import INFINITY, ext
from intval.laws import LawResult


def _from_decimal(text):
    """int(text) in chunks short enough for Python's conversion limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def run_cli(args, monkeypatch=None, capsys=None):
    code = cli.main(args)
    out, err = capsys.readouterr()
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


def _half_even_oracle(value: Fraction, decimals: int) -> str:
    """value rounded half to even to `decimals` places by the decimal module.

    The precision covers every digit of the scaled quotient and of its
    denominator, so the one division rounds to within less than half the
    gap between value and the nearest tie, and an exact tie is exact.
    """
    num, den = value.numerator * 10**decimals, value.denominator
    with decimal.localcontext() as ctx:
        ctx.prec = len(str(num)) + 2 * len(str(den)) + 10
        q = (decimal.Decimal(num) / decimal.Decimal(den)).quantize(
            decimal.Decimal(1), rounding=decimal.ROUND_HALF_EVEN
        )
        return format(q.scaleb(-decimals), f".{decimals}f")


_TIES = st.builds(
    lambda k, d: (Fraction(2 * k + 1, 2 * 10**d), d),
    st.integers(0, 10**12),
    st.integers(0, 8),
)
_RATIONALS = st.tuples(
    st.fractions(min_value=0, max_value=10**9, max_denominator=10**9),
    st.integers(0, 40),
)


class TestApprox:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_TIES, _RATIONALS))
    def test_rounds_half_to_even(self, case):
        value, decimals = case
        assert cli._approx(ext(value), decimals) == _half_even_oracle(value, decimals)

    def test_ties_go_to_the_even_neighbour(self):
        assert [cli._approx(ext(Fraction(k, 2)), 0) for k in (1, 3, 5, 7)] == [
            "0", "2", "2", "4",
        ]
        assert cli._approx(ext(Fraction(125, 1000)), 2) == "0.12"
        assert cli._approx(ext(Fraction(375, 1000)), 2) == "0.38"
        assert cli._approx(INFINITY, 3) == "inf"


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

        monkeypatch.setattr(cli.law_suites, "run_all", fake_run_all)

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

        monkeypatch.setattr(cli.law_suites, "run_all", must_not_run)
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
        monkeypatch.setattr(
            cli.law_suites, "run_all", lambda seed=0, cases=None: [broken]
        )
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
            (["laws", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["cases-not-int", "integrate-no-fn", "eval-no-val", "unknown-format", "no-command"],
    )

    @staticmethod
    def _check(code, out, err, message):
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

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


class TestRepeatedCalls:
    """main builds its parser once per process, and each call parses afresh:
    no option of one call leaks into the next."""

    FN = ["--fn", "piecewise { [0,1/2] inc: 2*x; [1/2,1] dec: 2 - 2*x }", "--eps", "1/8"]

    @pytest.fixture
    def echo_laws(self, monkeypatch):
        # the law table shows the seed and case count each call passed on
        def run_all(seed=0, cases=None):
            return [LawResult(f"seed-{seed}", -1 if cases is None else cases, 0)]

        monkeypatch.setattr(cli.law_suites, "run_all", run_all)

    @staticmethod
    def _call(argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        out, err = capsys.readouterr()
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
    def test_second_call_prints_what_a_fresh_parser_prints(
        self, first, second, echo_laws, monkeypatch, capsys
    ):
        fresh = []
        for argv in (first, second):
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(self._call(argv, capsys))
        monkeypatch.setattr(cli, "_parser", None)
        assert self._call(first, capsys) == fresh[0]
        parser = cli._parser
        assert self._call(second, capsys) == fresh[1]
        assert cli._parser is parser
        assert fresh[0] != fresh[1]

    def test_import_builds_no_parser_and_main_builds_one(self):
        script = "\n".join([
            "import argparse, contextlib, io, json",
            "built = []",
            "init = argparse.ArgumentParser.__init__",
            "def counting(self, *args, **kwargs):",
            "    built.append(kwargs.get('prog'))",
            "    init(self, *args, **kwargs)",
            "argparse.ArgumentParser.__init__ = counting",
            "import intval.cli as cli",
            "counts = [len(built), cli._parser is None]",
            "argv = ['integrate', '--fn', 'piecewise { [0,1] inc: x }', '--eps', '1/4']",
            "for _ in range(3):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        cli.main(argv)",
            "    counts.append(len(built))",
            "print(json.dumps(counts))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True, text=True
        )
        # one top-level parser and one per subcommand, built on the first call
        assert json.loads(proc.stdout) == [0, True, 4, 4, 4]


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
        # point order, and a poset's repr lists its covers in point order
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
            b"kernel not monotone: 'a' <= 'b' but val { [2,2] @ t } !<= val { [1,1] @ t }\n"
            b"poset { a; b; c; a <= b; a <= c }\n"
        }
