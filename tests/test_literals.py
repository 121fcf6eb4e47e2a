import pytest

from intval.algebra import INTERVALS, SCALARS, ext, ival, rational
from intval.errors import NonEvaluablePiece, ParseError
from intval.literals import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    parse_fn,
    parse_measure,
    parse_piecewise,
    parse_poset,
    parse_valuation,
)


class TestPosetLiterals:
    def test_basic(self):
        p = parse_poset("poset { a; b; a <= b }")
        assert set(p.points) == {"a", "b"}
        assert p.leq("a", "b")

    def test_relation_declares_points(self):
        p = parse_poset("poset { a <= b }")
        assert set(p.points) == {"a", "b"}

    def test_multiline_and_trailing_semicolon(self):
        p = parse_poset("poset {\n  a;\n  b;\n  a <= b;\n}")
        assert p.leq("a", "b")

    def test_cycle_reported(self):
        with pytest.raises(ValueError):
            parse_poset("poset { a <= b; b <= a }")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as info:
            parse_poset("poset { a;\n b <= }")
        assert info.value.line == 2
        assert info.value.col == 7

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poset("poset { a } extra")


class TestFnLiterals:
    def test_interval_values(self):
        name, table, algebra = parse_fn("fn h { a -> [0,3]; b -> [1,2] }")
        assert name == "h"
        assert table == {"a": ival(0, 3), "b": ival(1, 2)}
        assert algebra is INTERVALS

    def test_scalar_values(self):
        _, table, algebra = parse_fn("fn g { a -> 3/4; b -> inf }")
        assert table["a"] == ext("3/4")
        assert table["b"].is_infinite
        assert algebra is SCALARS

    def test_mixed_values_rejected(self):
        with pytest.raises(ParseError):
            parse_fn("fn g { a -> 1; b -> [0,1] }")

    def test_duplicate_point_rejected(self):
        with pytest.raises(ParseError):
            parse_fn("fn g { a -> 1; a -> 2 }")


class TestValuationLiterals:
    def test_basic(self):
        terms, algebra = parse_valuation("val { [1/2,1/2] @ x; [1/4,1/3] @ y }")
        assert terms == [(ival("1/2", "1/2"), "x"), (ival("1/4", "1/3"), "y")]
        assert algebra is INTERVALS

    def test_interval_order_checked(self):
        with pytest.raises(ParseError):
            parse_valuation("val { [2,1] @ x }")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_valuation("val { }")


class TestMeasureLiterals:
    def test_basic(self):
        masses = parse_measure("measure { 1/2 @ x; 1/2 @ y }")
        assert masses == {"x": ext("1/2"), "y": ext("1/2")}

    def test_infinite_mass(self):
        masses = parse_measure("measure { inf @ x }")
        assert masses["x"].is_infinite

    def test_empty_is_the_zero_measure(self):
        assert parse_measure("measure { }") == {}


class TestPiecewiseLiterals:
    def test_two_piece_tent(self):
        fn = parse_piecewise("piecewise { [0,1/2] inc: 2*x; [1/2,1] dec: 2 - 2*x }")
        assert fn(rational(1, 4)) == rational(1, 2)
        assert fn(rational(1, 2)) == rational(1)

    def test_polynomial_grammar(self):
        fn = parse_piecewise("piecewise { [0,1] inc: (x^2 + x) / 2 }")
        assert fn(rational(1)) == rational(1)
        assert fn(rational(1, 2)) == rational(3, 8)

    def test_unary_minus_and_constants(self):
        fn = parse_piecewise("piecewise { [0,1] dec: 1 - x^2 }")
        assert fn(rational(1, 2)) == rational(3, 4)

    def test_division_by_polynomial_rejected(self):
        with pytest.raises(ParseError):
            parse_piecewise("piecewise { [0,1] inc: 1 / x }")

    def test_gap_between_segments_rejected(self):
        with pytest.raises(ParseError):
            parse_piecewise("piecewise { [0,1/4] inc: x; [1/2,1] inc: x }")

    def test_direction_spot_check_applies(self):
        with pytest.raises(NonEvaluablePiece):
            parse_piecewise("piecewise { [0,1] dec: x }")

    def test_degree_cap(self):
        top = parse_piecewise(f"piecewise {{ [0,1] inc: (x + 1)^{MAX_DEGREE} }}")
        assert top.pieces[0][1].degree == MAX_DEGREE
        for text in (
            f"x^{MAX_DEGREE + 1}",
            "x^8000",
            "2^100000",
            "x^40 * x^40",
            "(x^2 + 1)^40",
        ):
            with pytest.raises(ParseError):
                parse_piecewise(f"piecewise {{ [0,1] inc: {text} }}")

    def test_coefficient_size_cap(self):
        # (2^64)^64 has 4097 bits and stays under the cap
        top = parse_piecewise("piecewise { [0,1] inc: (2^64)^64 * x }")
        assert top.pieces[0][1].coeffs[1] == 2 ** 4096
        for text in (
            "(((2^64)^64)^64) * x",
            "((((2^64)^64)^64)^64)^64",
            " * ".join(["(2^64)^64"] * 17),
            " * ".join(["(2^64)^64"] * 15) + " / (2^64)^64",
            f"(x / 3 + 1)^{MAX_DEGREE} * 2^{MAX_COEFF_BITS}",
        ):
            with pytest.raises(ParseError, match="cap"):
                parse_piecewise(f"piecewise {{ [0,1] inc: {text} }}")

    def test_must_cover_unit_interval(self):
        with pytest.raises(ValueError):
            parse_piecewise("piecewise { [0,1/2] inc: x }")

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_piecewise("piecewise { [0,1] up: x }")
        assert info.value.line == 1
        assert info.value.col == 19
