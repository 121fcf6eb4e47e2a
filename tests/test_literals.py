import time

import pytest
from hypothesis import given, settings, strategies as st

from intval.algebra import INTERVALS, SCALARS, ext, ival, rational
from intval.errors import LiteralTooLarge, NonEvaluablePiece, ParseError
from intval.lebesgue import PiecewiseMonotoneFn
from intval.literals import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_NESTING,
    parse_fn,
    parse_measure,
    parse_piecewise,
    parse_poset,
    parse_rational,
    parse_valuation,
)
from intval.spaces import FinitePoset


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


class TestSizeCaps:
    @pytest.mark.parametrize(
        "parse, text, col",
        [
            (parse_piecewise, "piecewise { [0,1] inc: " + "1" * 5000 + "*x }", 24),
            (parse_piecewise, "piecewise { [0,1] inc: x^" + "1" * 5000 + " }", 26),
            (parse_piecewise, "piecewise { [0," + "1" * 5000 + "] inc: x }", 16),
            (parse_valuation, "val { " + "1" * 5000 + " @ x }", 7),
            (parse_fn, "fn h { a -> [0," + "2" * 5000 + "] }", 16),
            (parse_measure, "measure { 1/" + "3" * 5000 + " @ x }", 13),
            (parse_rational, "1" * 5000, 1),
        ],
    )
    def test_long_integer_literal_is_a_positioned_parse_error(self, parse, text, col):
        with pytest.raises(LiteralTooLarge, match="5000 digits exceed the cap") as info:
            parse(text)
        assert (info.value.line, info.value.col) == (1, col)

    def test_digit_cap_is_inclusive(self):
        assert parse_rational("1" * MAX_DIGITS) == rational(int("1" * MAX_DIGITS))
        with pytest.raises(LiteralTooLarge):
            parse_rational("1" * (MAX_DIGITS + 1))

    def test_nesting_cap(self):
        ok = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_piecewise(f"piecewise {{ [0,1] inc: {ok} }}").pieces[0][1].degree == 1
        with pytest.raises(LiteralTooLarge, match="nesting"):
            parse_piecewise(f"piecewise {{ [0,1] inc: ({ok}) }}")

    def test_long_runs_of_unary_minus(self):
        # an even run cancels, an odd one negates; neither recurses
        inc = parse_piecewise(f"piecewise {{ [0,1] inc: 2 + {'- ' * 2000}x }}")
        dec = parse_piecewise(f"piecewise {{ [0,1] dec: 2 + {'- ' * 2001}x }}")
        assert (inc(rational(1)), dec(rational(1))) == (3, 1)

    def test_degree_and_size_caps_are_literal_too_large(self):
        for text in ("x^65", "x^40 * x^40", "((((2^64)^64)^64)^64)^64"):
            with pytest.raises(LiteralTooLarge):
                parse_piecewise(f"piecewise {{ [0,1] inc: {text} }}")


# One valid literal of each form; the fuzz test mutates them.
_SEEDS = {
    "poset": (parse_poset, "poset { a; b; c; a <= b; b <= c }"),
    "fn": (parse_fn, "fn h { a -> [0,3]; b -> [1/2,inf] }"),
    "val": (parse_valuation, "val { [1/2,1/2] @ x; [1/4,1/3] @ y }"),
    "measure": (parse_measure, "measure { 1/2 @ x; inf @ y }"),
    "piecewise": (
        parse_piecewise,
        "piecewise { [0,1/2] inc: (x + 1)^2 / 3; [1/2,1] dec: 3 - 2*x^2 }",
    ),
}

_FRAGMENTS = (
    "{", "}", "[", "]", "(", ")", ";", ",", "@", ":", "->", "<=", "+", "-", "*", "/",
    "^", "^64", "^65", "x", "a", "b", "y", "inc", "dec", "inf", "0", "1", "1/2",
    "7/3", "1/0", " ", "\n", "((((", "))))", "- - -", "#", ".", "poset", "val",
)

_digit_runs = st.one_of(
    st.integers(1, 40), st.integers(MAX_DIGITS - 3, MAX_DIGITS + 3), st.integers(5000, 6000)
).flatmap(lambda n: st.sampled_from("0123456789").map(lambda d: d * n))

# long runs of what the expression grammar recurses on
_nesting_runs = st.tuples(
    st.sampled_from(("(", "- ", "(-", "((x)*")),
    st.sampled_from((MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 300, 3000)),
).map(lambda run: run[0] * run[1])

_fragment = st.one_of(
    st.sampled_from(_FRAGMENTS),
    _digit_runs,
    _nesting_runs,
    st.text("0123456789x^()+-*/[],;", max_size=6),
)


@st.composite
def _mutated_literal(draw):
    form = draw(st.sampled_from(sorted(_SEEDS)))
    parse, text = _SEEDS[form]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.one_of(st.just(""), _fragment)) + text[j:]
    return parse, text


@st.composite
def _token_soup(draw):
    form = draw(st.sampled_from(sorted(_SEEDS)))
    body = " ".join(draw(st.lists(_fragment, max_size=12)))
    return _SEEDS[form][0], f"{form} {{ {body} }}"


@st.composite
def _expression_soup(draw):
    """Fragments as the polynomial expression of a piece."""
    body = " ".join(draw(st.lists(_fragment, min_size=1, max_size=6)))
    return parse_piecewise, f"piecewise {{ [0,1] inc: {body} }}"


# Checks that are not about syntax (poset antisymmetry, covering [0, 1],
# piece direction and sign) live in these constructors, which the parsers
# call once a literal is well formed.
_CONSTRUCTORS = {FinitePoset.__init__.__code__, PiecewiseMonotoneFn.__init__.__code__}


def _raised_in_a_constructor(exc: BaseException) -> bool:
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code in _CONSTRUCTORS:
            return True
        tb = tb.tb_next
    return False


class TestFuzz:
    """Every input parses, raises ParseError, or is a well-formed literal
    that a constructor rejects; each within a time bound."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_mutated_literal(), _token_soup(), _expression_soup()))
    def test_parses_or_raises_parse_error(self, case):
        parse, text = case
        t0 = time.perf_counter()
        try:
            parse(text)
        except ParseError:
            pass
        except Exception as exc:  # noqa: BLE001 - classified below
            assert _raised_in_a_constructor(exc), (type(exc).__name__, exc, text[:200])
        assert time.perf_counter() - t0 < 2.0, text[:200]
