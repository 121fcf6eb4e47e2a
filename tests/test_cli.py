import csv
import io
import json
import subprocess
import sys
import time

import pytest

from intval import cli, lebesgue
from intval.laws import LawResult


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
