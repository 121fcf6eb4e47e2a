import json
import pathlib
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

import oracle_scanner

from intval.algebra import INTERVALS, SCALARS, ext, ival, rational, render_scalar
from intval.errors import LiteralTooLarge, NonEvaluablePiece, ParseError
from intval.lebesgue import PiecewiseMonotoneFn, Polynomial
from intval import literals
from intval.literals import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_DIGITS,
    MAX_NESTING,
    _RAW_DEN_BITS,
    _Parser,
    _position,
    _rough_bound,
    _scan,
    _size_bound,
    _tokenize,
    parse_fn,
    parse_measure,
    parse_piecewise,
    parse_poset,
    parse_rational,
    parse_valuation,
)
from intval.spaces import FinitePoset, MonotoneMap


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

    def test_points_are_collected_in_linear_time(self):
        names = [f"p{i}" for i in range(20_000)]
        t0 = time.perf_counter()
        assert parse_poset("poset { " + "; ".join(names) + " }").points == tuple(names)
        assert time.perf_counter() - t0 < 2.0

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


# Point names for generated literals, keywords of the grammar among them.
_NAMES = ("a", "b", "p0", "_q", "x1", "inf", "dec", "\u00e9")

_ext_values = st.one_of(
    st.fractions(0, 20, max_denominator=12).map(ext), st.just(ext("inf"))
)


@st.composite
def _monotone_maps(draw):
    """A monotone map on a poset of up to 6 points, into INTERVALS or SCALARS.

    The values come from an ascending chain (nested intervals, or rising
    scalars), inf included; a point's place on the chain is the weight of
    the points below it, which is monotone.
    """
    n = draw(st.integers(1, 6))
    names = draw(st.permutations(_NAMES))[:n]
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    space = FinitePoset(names, [(names[i], names[j]) for i, j in pairs if i < j])
    k = draw(st.integers(1, 3))
    rising = sorted(draw(st.lists(_ext_values, min_size=2 * k, max_size=2 * k)))
    algebra = draw(st.sampled_from((INTERVALS, SCALARS)))
    if algebra is INTERVALS:
        chain = [ival(rising[j], rising[-1 - j]) for j in range(k)]
    else:
        chain = rising
    weights = dict(zip(names, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
    table = {
        p: chain[min(len(chain) - 1, sum(weights[q] for q in names if space.leq(q, p)))]
        for p in names
    }
    return MonotoneMap(space, table, algebra)


@st.composite
def _flat_literals(draw):
    """A poset, fn, val or measure literal with generated contents."""
    h = draw(_monotone_maps())
    form = draw(st.sampled_from(("poset", "fn", "val", "measure")))
    if form == "poset":
        return parse_poset, repr(h.space)
    if form == "fn":
        return parse_fn, repr(h)
    points = st.sampled_from(h.space.points)
    if form == "val":
        values = st.sampled_from([v for _, v in h.items()])
        terms = draw(st.lists(st.tuples(values, points), min_size=1, max_size=6))
        body = "; ".join(f"{h.algebra.render(v)} @ {p}" for v, p in terms)
        return parse_valuation, f"val {{ {body} }}"
    masses = draw(st.dictionaries(points, _ext_values, max_size=6))
    body = "; ".join(f"{render_scalar(m)} @ {p}" for p, m in masses.items())
    return parse_measure, f"measure {{ {body} }}"


def _is_word(token):
    return token[0].isalnum() or token[0] == "_"


class TestRoundTrips:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_monotone_maps())
    def test_fn_repr_round_trips(self, h):
        name, table, algebra = parse_fn(repr(h))
        assert (name, table) == ("h", h.table())
        assert algebra is h.algebra

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_flat_literals(), st.data())
    def test_layout_between_tokens_does_not_matter(self, case, data):
        # the same tokens with other spaces, tabs and line breaks between
        # them (at least one between two words), and an optional ';' before
        # the closing brace of a nonempty body
        parse, text = case
        tokens = _tokenize(text)[:-1]
        if tokens[-2] != "{" and data.draw(st.booleans()):
            tokens.insert(len(tokens) - 1, ";")
        gaps = [
            data.draw(st.text(" \t\r\n", min_size=1 if _is_word(a) and _is_word(b) else 0,
                              max_size=3))
            for a, b in zip(tokens, tokens[1:])
        ] + [""]
        edges = st.text(" \t\r\n", max_size=3)
        laid_out = "".join(tok + gap for tok, gap in zip(tokens, gaps))
        laid_out = data.draw(edges) + laid_out + data.draw(edges)
        assert parse(laid_out) == parse(text)


class TestWorkBound:
    """Python calls into the literals module while a 1,000-item literal is
    parsed, per item: one call of the form's item reader, one per scalar,
    one per value and two per piece expression, not a chain of calls per
    token.  At least one call per item shows that the count sees them."""

    @pytest.mark.parametrize(
        "parse, head, item, per_item",
        [
            (parse_poset, "poset", "p{i} <= p{j}", 1),
            (parse_fn, "fn h", "p{i} -> [1/3,inf]", 4),
            (parse_valuation, "val", "[1/3,1/2] @ p{i}", 4),
            (parse_measure, "measure", "1/2 @ p{i}", 2),
            (parse_piecewise, "piecewise", "[{i}/1000,{j}/1000] inc: 1", 5),
        ],
        ids=["poset", "fn", "val", "measure", "piecewise"],
    )
    def test_calls_per_item(self, parse, head, item, per_item):
        n = 1000
        items = "; ".join(item.format(i=i, j=i + 1) for i in range(n))
        text = f"{head} {{ {items} }}"
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename == literals.__file__:
                calls += 1

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            parse(text)
        finally:
            sys.setprofile(outer)
        assert n <= calls <= per_item * n + 10, calls / n


def _poly(text):
    p = _Parser(text)
    poly = p.poly_piece()
    p.finish()
    return poly


class TestDivision:
    """An integer is an atom and '/' the only division, so '^' binds first."""

    @pytest.mark.parametrize(
        "text, coeffs",
        [
            ("3/2^2", [rational(3, 4)]),
            ("3/(2^2)", [rational(3, 4)]),
            ("6/(2)*x", [0, 3]),
            ("3/-4*x", [0, rational(-3, 4)]),
            ("2/3*x", [0, rational(2, 3)]),
            ("x - 1/3", [rational(-1, 3), 1]),
            ("(x + 1)^2 / 3", [rational(1, 3), rational(2, 3), rational(1, 3)]),
            ("1/2/2", [rational(1, 4)]),
        ],
    )
    def test_quotients(self, text, coeffs):
        assert _poly(text) == Polynomial(coeffs)

    def test_constant_expression_denominator(self):
        fn = parse_piecewise("piecewise { [0,1] inc: x / (1 + 1)^2 }")
        assert fn(rational(1)) == rational(1, 4)


_X = sympy.Symbol("x")


def _sympy_coeffs(text):
    """The coefficients of the expression text, low degree first, read by
    sympy with '^' as '**': Python's precedence is the grammar's, and its
    integers become exact rationals."""
    expr = sympy.parse_expr(text.replace("^", "**"), local_dict={"x": _X})
    cs = sympy.Poly(expr, _X).all_coeffs()[::-1]
    return [rational(int(c.p), int(c.q)) for c in cs]


class TestExpressionParser:
    """poly_expr reads an expression in one loop; each case is checked
    against an independent oracle."""

    @pytest.mark.parametrize(
        "text",
        [
            # left associativity
            "2-3-4", "8/2/2", "x/2*3", "x - 1 - x^2 + 4/2/2*x",
            # signs: '^' binds tighter than a unary minus, which may follow
            # any operator
            "-x^2", "2*-x", "x - -x", "- - x", "-(x + 1)^2", "2*(-x)^3", "3/-4*x",
            # powers
            "(x+1)^2*(x-1)", "3/2^2", "(x - 1/3)^3 - x^0 + 2^3*x",
        ],
    )
    def test_matches_sympy(self, text):
        assert _poly(text) == Polynomial(_sympy_coeffs(text))

    # a term's last product with a constant, and its sign, are folded into
    # the sum as one int scale
    @pytest.mark.parametrize(
        "text",
        [
            # a constant factor last and first
            "(x+1)^2*3/4", "3/4*(x+1)^2",
            # folded negated terms
            "1 - 3/4*(x - 1/3)^2", "-2*x + x", "x - 2*x",
            # left associativity of the folded quotient
            "x/2/3", "x*2/3",
            # a negated first term's sign folded into its constant factor
            "-2*x + 1", "-3/4*(x - 1)^2 + x", "-2*x", "-x*2", "-1*x + 1", "-0*x + 1",
            "2*-3*x + 1", "-x/2 + 1", "-(2*x) + 1", "-(-3*x)*2", "-(x - 1)^2*1/4 - x",
        ],
    )
    def test_folded_terms_match_sympy(self, text):
        assert _poly(text) == Polynomial(_sympy_coeffs(text))

    def test_a_quotient_chain_is_not_a_product_chain(self):
        assert _poly("x/2/3") == Polynomial([0, rational(1, 6)])
        assert _poly("x*2/3") == Polynomial([0, rational(2, 3)])

    def test_a_zero_factor_is_trimmed(self):
        text = "x - 0*(x+1)^3"
        raw_num, raw_den = _Parser(text).poly_expr()
        assert len(raw_num) == 2
        assert _poly(text) == Polynomial(_sympy_coeffs(text)) == Polynomial([0, 1])
        assert _poly(text).degree == 1

    def test_a_sum_over_the_raw_denominator_length_is_canonical(self):
        # each term's denominator is under _RAW_DEN_BITS, the sum's is over
        # it and has the common factor 2, which the sum takes out
        text = "1/(2*(3^40)^2) + 1/(2*(5^40)^2)"
        raw_num, raw_den = _Parser(text).poly_expr()
        assert raw_den == 15 ** 80 and raw_den.bit_length() > _RAW_DEN_BITS
        assert raw_num == [(3 ** 80 + 5 ** 80) // 2]
        assert _poly(text) == Polynomial(_sympy_coeffs(text))

    def test_flat_sum_of_5000_terms(self):
        terms = [(k % 7 - 3, k % 5 + 1, k % 4) for k in range(5000)]
        text = " + ".join(f"{a}/{b}*x^{e}" for a, b, e in terms)
        expected = [Fraction(0)] * 4
        for a, b, e in terms:
            expected[e] += Fraction(a, b)
        assert _poly(text) == Polynomial([rational(c.numerator, c.denominator) for c in expected])

    def test_nesting_cap_with_an_operator_after_each_paren(self):
        text = "x"
        for k in range(MAX_NESTING):
            text = f"({text}){('*2', ' + 1', '/3', ' - x', '^1', '*x', ' - -2')[k % 7]}"
        assert text.startswith("(" * MAX_NESTING + "x)")
        assert _poly(text) == Polynomial(_sympy_coeffs(text))
        with pytest.raises(LiteralTooLarge, match="nesting exceeds the cap"):
            _poly(f"({text})")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(x + 1", "line 1, col 7: expected ')', found 'end of input'"),
            ("x + (2*x", "line 1, col 9: expected ')', found 'end of input'"),
            ("(x ", "line 1, col 4: expected ')', found 'end of input'"),
            ("x^2^3", "line 1, col 4: unexpected trailing input '^'"),
            ("piecewise { [0,1] inc: (x + 1 }", "line 1, col 31: expected ')', found '}'"),
            ("piecewise { [0,1] inc: x^2^3 }", "line 1, col 27: expected ';' or '}', found '^'"),
            ("piecewise { [0,1] inc: (x ", "line 1, col 27: expected ')', found 'end of input'"),
        ],
    )
    def test_error_positions(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_piecewise(text) if text.startswith("piecewise") else _poly(text)
        assert str(info.value) == message


class TestScanner:
    def test_end_of_input_after_a_trailing_symbol(self):
        # the end of input sits one column past the last character
        with pytest.raises(ParseError) as info:
            parse_poset("poset {")
        assert str(info.value) == "line 1, col 8: expected a point name, found 'end of input'"
        with pytest.raises(ParseError) as info:
            parse_rational("1/")
        assert str(info.value) == "line 1, col 3: expected a denominator, found 'end of input'"

    def test_trailing_whitespace_is_scanned_once(self):
        t0 = time.perf_counter()
        assert parse_poset("poset { a }" + " " * 200_000).points == ("a",)
        assert time.perf_counter() - t0 < 1.0

    def test_bad_token_at_the_end_of_a_long_poset(self):
        names = [f"p{i}" for i in range(20_000)]
        t0 = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_poset("poset {\n" + ";\n".join(names) + " #\n}")
        assert time.perf_counter() - t0 < 2.0
        assert str(info.value) == "line 20001, col 8: unexpected character '#'"

    def test_exponent_cap_in_the_last_piece_of_a_long_literal(self):
        n = 3_000
        segments = [f"[{i}/{n},{i + 1}/{n}] inc: x" for i in range(n)]
        segments[-1] += "^65"
        t0 = time.perf_counter()
        with pytest.raises(LiteralTooLarge) as info:
            parse_piecewise("piecewise {\n" + ";\n".join(segments) + "\n}")
        assert time.perf_counter() - t0 < 2.0
        assert str(info.value) == "line 3001, col 30: exponent 65 exceeds the cap 64"

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.sampled_from(
                list("abx_0123456789\u00e9\u00b2\u0663\u00bd \t\r\f\n<>")
                + list(oracle_scanner.SYMBOLS)
            ),
            max_size=30,
        ).map("".join)
    )
    @example("1" * (MAX_DIGITS + 1))
    @example("a\n  b " + "7" * (MAX_DIGITS + 1) + "\u00b2")
    @example("x" + "7" * (MAX_DIGITS + 1))
    @example("")
    @example(" \n\t ")  # one end of input, though the pattern matches the end twice
    def test_matches_the_character_scanner(self, text):
        # The parser reads plain token strings, and the error path finds
        # lexical errors and offsets by rescanning with _scan; both must
        # agree with the character walk.
        try:
            expected = oracle_scanner.scan(text)
        except ParseError as exc:
            with pytest.raises(type(exc)) as info:
                list(_scan(text))
            assert type(info.value) is type(exc)
            assert (str(info.value), info.value.line, info.value.col) == (
                str(exc), exc.line, exc.col
            )
        else:
            located = list(_scan(text))
            assert [tok for tok, _ in located] == _tokenize(text)
            assert [
                (_kind(tok), tok, *_position(text, offset)) for tok, offset in located
            ] == expected


def _kind(token):
    """A token's kind as the character scanner names it: a symbol's kind is
    its text, the empty string is the end of input, and an integer or a
    name is told by its first character."""
    if not token:
        return "EOF"
    if token in oracle_scanner.SYMBOLS:
        return token
    return "INT" if "0" <= token[0] <= "9" else "IDENT"


class TestDigits:
    @pytest.mark.parametrize(
        "parse, text, col",
        [
            (parse_piecewise, "piecewise { [0,1] inc: x^\u00b2 }", 26),
            (parse_piecewise, "piecewise { [0,\u0661] inc: x }", 16),
            (parse_piecewise, "piecewise { [0,1] inc: \uff12*x }", 24),
            (parse_valuation, "val { \u0661 @ x }", 7),
            (parse_rational, "1\u0662", 2),
        ],
        ids=["superscript-two", "arabic-indic-one", "fullwidth-two", "val", "rational"],
    )
    def test_integers_are_ascii_digit_runs(self, parse, text, col):
        # str.isdigit() holds for these characters, which
        # algebra.parse_scalar rejects; the grammar takes 0-9 only
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse(text)
        assert (info.value.line, info.value.col) == (1, col)


# An expression tree is a leaf (an integer or 'x') or (op, children...);
# _render writes it fully parenthesized, so the parse follows the tree.
_trees = st.recursive(
    st.one_of(
        st.integers(0, 12),
        st.just("x"),
        # small fractions, so sums meet denominators with common factors
        st.tuples(st.just("/"), st.integers(0, 12), st.integers(1, 12)),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("^"), sub, st.integers(0, 3)),
    ),
    max_leaves=10,
)


# A pooled tree may also name a base of a pool of three, each a group
# written as (text, value): ('base', b, k) is base b to the power k, and
# ('run', b, exponents) the sum of j * (base b)^k over the exponents, in
# ascending, equal or descending order, as in a piece written in Taylor
# form.  The bases are flat groups (no '(' inside) and nested ones, linear
# and not, so a repeated group and a repeated power base meet every case.
_pairs = st.tuples(st.integers(-9, 9), st.integers(1, 9))


def _flat_base(pairs):
    monomials = ("", "*x", *(f"*x^{k}" for k in range(2, len(pairs))))
    text = " + ".join(f"{p}/{q}{m}" for (p, q), m in zip(pairs, monomials))
    return f"({text})", Polynomial([rational(p, q) for p, q in pairs])


_flat_bases = st.lists(_pairs, min_size=1, max_size=4).map(_flat_base)
_pool = st.lists(
    st.one_of(
        _flat_bases,
        st.tuples(_flat_bases, _flat_bases).map(
            lambda t: (f"({t[0][0]}*{t[1][0]})", t[0][1] * t[1][1])
        ),
    ),
    min_size=3,
    max_size=3,
)
_exponent_runs = st.tuples(
    st.lists(st.integers(0, 4), min_size=2, max_size=4),
    st.sampled_from([sorted, lambda ks: ks[:1] * len(ks), lambda ks: sorted(ks, reverse=True)]),
).map(lambda t: t[1](t[0]))
_pooled_trees = st.recursive(
    st.one_of(
        st.integers(0, 12),
        st.just("x"),
        st.tuples(st.just("base"), st.integers(0, 2), st.integers(0, 4)),
        st.tuples(st.just("run"), st.integers(0, 2), _exponent_runs),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("^"), sub, st.integers(0, 3)),
    ),
    max_leaves=8,
)


def _render(tree, pool=()):
    if isinstance(tree, int):
        return str(tree)
    if tree == "x":
        return "x"
    if tree[0] == "base":
        text = pool[tree[1]][0]
        return text if tree[2] == 1 else f"{text}^{tree[2]}"
    if tree[0] == "run":
        return " + ".join(f"{j}*{pool[tree[1]][0]}^{k}" for j, k in enumerate(tree[2], 1))
    if tree[0] == "neg":
        return f"-({_render(tree[1], pool)})"
    if tree[0] == "^":
        return f"({_render(tree[1], pool)})^{tree[2]}"
    op, a, b = tree
    return f"({_render(a, pool)}) {op} ({_render(b, pool)})"


def _evaluate(tree, degrees, pool=()):
    """The tree's value by the Polynomial operators, every intermediate
    degree appended to degrees; a division by anything but a nonzero
    constant raises ParseError, as the parser does."""
    if isinstance(tree, int):
        return Polynomial.constant(tree)
    if tree == "x":
        return Polynomial.identity()
    if tree[0] == "base":
        result = pool[tree[1]][1] ** tree[2]
    elif tree[0] == "run":
        result = Polynomial.constant(0)
        for j, k in enumerate(tree[2], 1):
            result = result + Polynomial.constant(j) * pool[tree[1]][1] ** k
            degrees.append(result.degree)
    elif tree[0] == "neg":
        return -_evaluate(tree[1], degrees, pool)
    elif tree[0] == "^":
        result = _evaluate(tree[1], degrees, pool) ** tree[2]
    else:
        op, a, b = tree
        a, b = _evaluate(a, degrees, pool), _evaluate(b, degrees, pool)
        if op == "/":
            if not b.is_constant or b == Polynomial.constant(0):
                raise ParseError("division is only defined by a nonzero constant", 1, 1)
            b = Polynomial.constant(1 / b.coeffs[0])
        if op == "+":
            result = a + b
        elif op == "-":
            result = a - b
        else:
            result = a * b
    degrees.append(result.degree)
    return result


class TestExpressionTrees:
    """Raw (num, den) building gives the Polynomial operators' canonical pair."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_trees)
    def test_parser_matches_the_polynomial_operators(self, tree):
        self.check(tree, ())

    # repeated groups and repeated power bases, which the parser reads once
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_pooled_trees, _pool)
    def test_repeated_bases_match_the_polynomial_operators(self, tree, pool):
        self.check(tree, pool)

    @staticmethod
    def check(tree, pool):
        degrees = [base.degree for _, base in pool]
        try:
            expected = _evaluate(tree, degrees, pool)
        except ParseError:
            expected = None
        assume(max(degrees, default=0) <= MAX_DEGREE)
        text = _render(tree, pool)
        if expected is None:
            with pytest.raises(ParseError, match="division is only defined"):
                _poly(text)
            return
        got = _poly(text)
        assert (got.num, got.den) == (expected.num, expected.den)
        raw_num, raw_den = _Parser(text).poly_expr()
        assert Polynomial._of(raw_num, raw_den) == expected


def _outcome(text):
    """poly_expr's raw pair and end index on text, or its error's type and
    message."""
    p = _Parser(text)
    try:
        num, den = p.poly_expr()
    except ParseError as exc:
        return type(exc), str(exc)
    return num, den, p.pos


def _leading_quotients_spelled_out(tokens):
    """(text, rewritten, wrapped): tokens joined with one space around
    each, the same text with every integer that a factor starts and a '/'
    follows written '(p)', which takes the general division step, and the
    indices of those integers.  The parentheses take the spaces, so every
    column, and every error message, is the same in both texts."""
    wrapped = []
    for j, tok in enumerate(tokens[:-1]):
        if not tok.isdigit() or tokens[j + 1] != "/":
            continue
        k = j - 1
        while k >= 0 and tokens[k] == "-":
            k -= 1
        before = tokens[k] if k >= 0 else "("
        # after a run of '-', a factor starts unless the run is an exponent's
        if before != "^" and (k < j - 1 or before in "(+*/"):
            wrapped.append(j)
    seps = [" "] * (len(tokens) + 1)
    text = "".join(sep + tok for sep, tok in zip(seps, tokens)) + " "
    for j in wrapped:
        seps[j], seps[j + 1] = "(", ")"
    rewritten = "".join(sep + tok for sep, tok in zip(seps, tokens)) + seps[-1]
    return text, rewritten, wrapped


_quotient_leaves = st.one_of(
    st.just("x"),
    st.integers(0, 12).map(str),
    st.sampled_from(["0", "00", "9" * 80, "7" * MAX_DIGITS, "1" * (MAX_DIGITS + 1)]),
)
_quotient_tokens = st.recursive(
    _quotient_leaves.map(lambda tok: [tok]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "/", "/"]), sub).map(
            lambda t: t[0] + [t[1]] + t[2]
        ),
        sub.map(lambda t: ["-"] + t),
        sub.map(lambda t: ["("] + t + [")"]),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: t[0] + ["^", str(t[1])]),
    ),
    max_leaves=12,
)


class TestLeadingQuotient:
    """A product that starts with p/q reads it as one atom, with the raw
    pair, end index, caps and errors of the general division step."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(
        _quotient_tokens,
        st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from(["(", ")", "/", "^", "-", "*", "0", "3"])),
            max_size=2,
        ),
    )
    @example(["x", "/", "2", "/", "3"], [])
    @example(["-", "3", "/", "4", "*", "x"], [])
    @example(["2", "*", "-", "3", "/", "4"], [])
    @example(["x", "-", "-", "3", "/", "4"], [])
    def test_same_as_the_general_division(self, tokens, noise):
        for at, tok in noise:
            tokens.insert(at % (len(tokens) + 1), tok)
        assume(tokens.count("(") < MAX_NESTING)
        text, rewritten, wrapped = _leading_quotients_spelled_out(tokens)
        got, want = _outcome(text), _outcome(rewritten)
        if len(got) == 3:  # the same raw pair, and the same token ends it
            num, den, pos = got
            got = num, den, pos + 2 * sum(j < pos for j in wrapped)
        assert got == want, (text, rewritten)

    @pytest.mark.parametrize(
        "text, raw, value",
        [
            ("x/2/3", ([0, 1], 6), [0, rational(1, 6)]),
            ("3/2^2", ([3], 4), [rational(3, 4)]),
            ("2*3/4", ([6], 4), [rational(3, 2)]),
            ("-3/4*x", ([0, -3], 4), [0, rational(-3, 4)]),
            ("(1/3 - x)^2", ([1, -6, 9], 9), [rational(1, 9), rational(-2, 3), 1]),
            ("1/2/2", ([1], 4), [rational(1, 4)]),
            ("x - 3/4", ([-3, 4], 4), [rational(-3, 4), 1]),
        ],
    )
    def test_pinned_raw_pairs(self, text, raw, value):
        assert _Parser(text).poly_expr() == raw
        assert _poly(text) == Polynomial(value)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("3/0", ParseError, "line 1, col 2: division is only defined by a nonzero constant"),
            ("x + 3/0", ParseError,
             "line 1, col 6: division is only defined by a nonzero constant"),
            ("3/" + "7" * (MAX_DIGITS + 1), LiteralTooLarge,
             "line 1, col 3: 4301 digits exceed the cap 4300"),
        ],
    )
    def test_general_division_errors(self, text, error, message):
        with pytest.raises(error) as info:
            _Parser(text).poly_expr()
        assert type(info.value) is error
        assert str(info.value) == message


def _counted_calls(monkeypatch, parse, text):
    """How many times parse(text) calls literals._power and literals._canonical."""
    counts = dict.fromkeys(("_power", "_canonical"), 0)
    for name in counts:
        def counted(*args, name=name, f=getattr(literals, name)):
            counts[name] += 1
            return f(*args)

        monkeypatch.setattr(literals, name, counted)
    parse(text)
    return counts


# a piece in Taylor form about 1/3, its terms in ascending order of degree
_TAYLOR_TERMS = ["1/4"] + [f"{j}/8*(1/3 - x)" + (f"^{j}" if j > 1 else "") for j in range(1, 9)]


class TestRepeatedBases:
    """One expression reads a repeat of its last flat group, and a power of
    its last powered base, from what it kept; nothing is kept across
    expressions, and the values, caps and errors are the first reading's."""

    def test_ascending_taylor_form_raises_its_base_once(self, monkeypatch):
        text = " + ".join(_TAYLOR_TERMS)
        assert _counted_calls(monkeypatch, _poly, text) == {"_power": 1, "_canonical": 1}
        assert _poly(text) == Polynomial(_sympy_coeffs(text))

    def test_descending_taylor_form_raises_each_power(self, monkeypatch):
        # a lower exponent is raised afresh, as before the bases were kept,
        # from the kept canonical form of the base
        text = " + ".join(_TAYLOR_TERMS[::-1])
        assert _counted_calls(monkeypatch, _poly, text) == {"_power": 7, "_canonical": 1}
        assert _poly(text) == Polynomial(_sympy_coeffs(text))

    def test_alternating_bases_are_each_raised(self, monkeypatch):
        # only the last group is kept, so the third (1/3 - x) is read again
        text = "(1/3 - x)^2 + (1/2 - x)^3 + (1/3 - x)^4"
        assert _counted_calls(monkeypatch, _poly, text) == {"_power": 3, "_canonical": 3}
        assert _poly(text) == Polynomial(_sympy_coeffs(text))

    def test_each_expression_keeps_its_own_bases(self, monkeypatch):
        text = "piecewise { [0,1/2] inc: (1 + x) + (1 + x)^2; [1/2,1] inc: (1 + x)^2 + (1 + x)^3 }"
        counts = _counted_calls(monkeypatch, parse_piecewise, text)
        assert counts == {"_power": 2, "_canonical": 2}

    @pytest.mark.parametrize(
        "text, value",
        [
            # groups that differ only in their last token
            ("(x - 1)^2 + (x - 2)^2", [5, -6, 2]),
            ("(x - 1)*(x - 2)", [2, -3, 1]),
            ("(x - 1)*(x - 1 + 1)", [0, -1, 1]),
            # a power of the last powered base with the same exponent
            ("(x + 1)*(x + 1)^2*(x + 1)^2", [1, 5, 10, 10, 5, 1]),
            # a repeated base under another denominator is another base
            ("(x + 1)^2 + (1/2*(x + 1))^2", [rational(5, 4), rational(5, 2), rational(5, 4)]),
            # a nested group and the flat group inside it
            ("((x + 1)*2)^2 + (x + 1)^3", [5, 11, 7, 1]),
        ],
    )
    def test_values(self, text, value):
        assert _poly(text) == Polynomial(value) == Polynomial(_sympy_coeffs(text))

    def test_a_repeated_flat_group_at_the_nesting_cap(self):
        def text(depth):  # a repeat of (x - 1) inside depth more '('
            return "(x - 1)*" + "(" * depth + "(x - 1)" + ")" * depth

        assert _poly(text(MAX_NESTING - 1)) == Polynomial([1, -2, 1])
        with pytest.raises(LiteralTooLarge) as info:
            _poly(text(MAX_NESTING))
        assert str(info.value) == "line 1, col 73: nesting exceeds the cap 64"

    def test_a_repeated_nested_group_checks_its_inner_nesting(self):
        # ((x)) holds a repeat of (x), and is repeated where its inner '('
        # stands one level over the cap
        inner = "(" * (MAX_NESTING - 2) + "((x))" + ")" * (MAX_NESTING - 2)
        assert _poly(f"(x)*((x))*{inner}") == Polynomial([0, 0, 0, 1])
        with pytest.raises(LiteralTooLarge) as info:
            _poly(f"(x)*((x))*({inner})")
        assert str(info.value) == "line 1, col 75: nesting exceeds the cap 64"

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("(x - 1/0) + (x - 1/0)", ParseError,
             "line 1, col 7: division is only defined by a nonzero constant"),
            ("(x + 1)*(x + 1)^65", LiteralTooLarge, "line 1, col 17: exponent 65 exceeds the cap 64"),
            ("(x + 1)^2*(x + 1)^63", LiteralTooLarge,
             "line 1, col 10: polynomial degree 65 exceeds the cap 64"),
        ],
    )
    def test_errors(self, text, error, message):
        with pytest.raises(error) as info:
            _poly(text)
        assert type(info.value) is error
        assert str(info.value) == message


# B^8 is accepted and a product with it is not: see test_cap_verdicts_are_pinned
_B = "(x + 1/(2^60)^20)"
_FLAT_B = f"(x + 1/{2 ** 1200})"  # the same base, 2^1200 written in digits


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

    # every case of TestPiecewiseLiterals' degree and coefficient-size cap
    # tests, with its verdict: accepted (None), or the cap message and column
    @pytest.mark.parametrize(
        "text, verdict",
        [
            (f"(x + 1)^{MAX_DEGREE}", None),
            (f"x^{MAX_DEGREE + 1}", ("exponent 65 exceeds the cap 64", 26)),
            ("x^8000", ("exponent 8000 exceeds the cap 64", 26)),
            ("2^100000", ("exponent 100000 exceeds the cap 64", 26)),
            ("x^40 * x^40", ("polynomial degree 80 exceeds the cap 64", 29)),
            ("(x^2 + 1)^40", ("polynomial degree 80 exceeds the cap 64", 33)),
            ("(2^64)^64 * x", None),
            (
                "(((2^64)^64)^64) * x",
                ("coefficients of up to 262400 bits exceed the cap 65536", 36),
            ),
            (
                "((((2^64)^64)^64)^64)^64",
                ("coefficients of up to 262400 bits exceed the cap 65536", 37),
            ),
            (
                " * ".join(["(2^64)^64"] * 17),
                ("coefficients of up to 65544 bits exceed the cap 65536", 202),
            ),
            (
                " * ".join(["(2^64)^64"] * 15) + " / (2^64)^64",
                ("coefficients of up to 65544 bits exceed the cap 65536", 202),
            ),
            (
                f"(x / 3 + 1)^{MAX_DEGREE} * 2^{MAX_COEFF_BITS}",
                ("exponent 65536 exceeds the cap 64", 43),
            ),
            # a base that is raised again, in a group read again (the flat
            # form) or a power of a repeated inner group (2^60)^20
            (f"{_B}^8", None),
            (f"1*{_B}^8", ("coefficients of up to 86414 bits exceed the cap 65536", 25)),
            (f"{_B}^8*1", ("coefficients of up to 86414 bits exceed the cap 65536", 43)),
            (f"{_B}^8 + 3*{_B}^8", ("coefficients of up to 86415 bits exceed the cap 65536", 47)),
            (f"{_B}^7 + 3*{_B}^8", ("coefficients of up to 86415 bits exceed the cap 65536", 47)),
            (f"{_FLAT_B}^8", None),
            (
                f"{_FLAT_B}^8 + 3*{_FLAT_B}^8",
                ("coefficients of up to 86415 bits exceed the cap 65536", 400),
            ),
        ],
    )
    def test_cap_verdicts_are_pinned(self, text, verdict):
        literal = f"piecewise {{ [0,1] inc: {text} }}"
        if verdict is None:
            parse_piecewise(literal)
            return
        message, col = verdict
        with pytest.raises(LiteralTooLarge) as info:
            parse_piecewise(literal)
        assert str(info.value) == f"line 1, col {col}: {message}"

    # products whose _rough_bound is over MAX_COEFF_BITS, so the verdict
    # is _size_bound's: at the cap (accepted) and just over it (rejected),
    # alone, negated and with a constant factor; recorded before constant
    # factors and signs were folded into the sum
    _BIG = "((2^60)^21)^13"  # 2^16380

    @pytest.mark.parametrize(
        "direction, text, verdict",
        [
            ("inc", f"(x + 1/{_BIG}) * (x + 1/{_BIG})", None),
            ("inc", f"(x + 1/{_BIG}) * (x + 1/(2*{_BIG}))", ("65538", 47)),
            ("dec", f"4 - (x + 1/{_BIG}) * (x + 1/{_BIG})", None),
            ("dec", f"4 - (x + 1/{_BIG}) * (x + 1/(2*{_BIG}))", ("65538", 51)),
            ("inc", f"3/4*(x + 1/{_BIG}) * (x + 1/{_BIG})", ("65546", 51)),
        ],
    )
    def test_size_bound_decides_at_the_boundary(self, direction, text, verdict):
        factor = _Parser(f"(x + 1/{self._BIG})").poly_expr()
        assert 2 * _rough_bound(*factor) > MAX_COEFF_BITS == 2 * _size_bound(*factor)
        literal = f"piecewise {{ [0,1] {direction}: {text} }}"
        if verdict is None:
            parse_piecewise(literal)
            return
        bits, col = verdict
        with pytest.raises(LiteralTooLarge) as info:
            parse_piecewise(literal)
        message = f"coefficients of up to {bits} bits exceed the cap {MAX_COEFF_BITS}"
        assert str(info.value) == f"line 1, col {col}: {message}"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.fractions(-(10 ** 30), 10 ** 30, max_denominator=10 ** 12),
            min_size=1,
            max_size=9,
        ),
        st.integers(0, 4),
    )
    def test_size_bound_matches_the_rational_formula(self, coeffs, power):
        poly = Polynomial([rational(c.numerator, c.denominator) for c in coeffs])
        for p in (poly, poly ** power, poly * poly.derivative()):
            cs = p.coeffs
            expected = len(cs).bit_length() + sum(
                c.numerator.bit_length() + 2 * c.denominator.bit_length() for c in cs
            )
            assert _size_bound(p.num, p.den) == expected
            # a raw pair with a common factor left in reads the same
            assert _size_bound([6 * v for v in p.num], 6 * p.den) == expected

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(-(10 ** 40), 10 ** 40), min_size=1, max_size=9),
        st.integers(1, 10 ** 20),
        st.integers(1, 10 ** 6),
    )
    @example([0], 1, 1)
    @example([0, 0, 5], 2 ** 64, 2 ** 64)
    def test_rough_bound_is_at_least_the_size_bound(self, num, den, factor):
        # the parser skips _size_bound while the rough bound is under the cap
        for n, d in ((num, den), ([factor * v for v in num], factor * den)):
            assert _rough_bound(n, d) >= _size_bound(n, d)



_NESTED = "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)

# One input per raise site in literals, with the error class and the full
# message; None marks an input that parses.  The last rows pin which error
# is reported when an input has several.
_DIAGNOSTICS = [
    (parse_rational, "", ParseError,
     "line 1, col 1: expected a rational number, found 'end of input'"),
    (parse_rational, "1/", ParseError,
     "line 1, col 3: expected a denominator, found 'end of input'"),
    (parse_rational, "1/0", ParseError, "line 1, col 3: denominator must be nonzero"),
    (parse_rational, "1/2 x", ParseError, "line 1, col 5: unexpected trailing input 'x'"),
    (parse_rational, "1.5", ParseError, "line 1, col 2: unexpected character '.'"),
    (parse_rational, "inf", ParseError,
     "line 1, col 1: expected a rational number, found 'inf'"),
    (parse_rational, "1" * 5000, LiteralTooLarge,
     "line 1, col 1: 5000 digits exceed the cap 4300"),
    (parse_poset, "", ParseError, "line 1, col 1: expected 'poset', found 'end of input'"),
    (parse_poset, "pose { a }", ParseError, "line 1, col 1: expected 'poset', found 'pose'"),
    (parse_poset, "poset a; b }", ParseError, "line 1, col 7: expected '{', found 'a'"),
    (parse_poset, "  poset { }", ParseError,
     "line 1, col 3: a poset needs at least one point"),
    (parse_poset, "poset { a b }", ParseError,
     "line 1, col 11: expected ';' or '}', found 'b'"),
    (parse_poset, "poset { a <= }", ParseError,
     "line 1, col 14: expected a point name, found '}'"),
    (parse_poset, "poset { 1 }", ParseError,
     "line 1, col 9: expected a point name, found '1'"),
    (parse_poset, "poset { a;\n b <= }", ParseError,
     "line 2, col 7: expected a point name, found '}'"),
    (parse_poset, "poset { a } extra", ParseError,
     "line 1, col 13: unexpected trailing input 'extra'"),
    (parse_poset, "poset { a # }", ParseError, "line 1, col 11: unexpected character '#'"),
    (parse_fn, "fn { a -> 1 }", ParseError,
     "line 1, col 4: expected a function name, found '{'"),
    (parse_fn, "fn h { a 1 }", ParseError, "line 1, col 10: expected '->', found '1'"),
    (parse_fn, "fn h { a -> }", ParseError,
     "line 1, col 13: expected a rational number, found '}'"),
    (parse_fn, "fn h { a -> [0 1] }", ParseError, "line 1, col 16: expected ',', found '1'"),
    (parse_fn, "fn h { a -> [0,1 }", ParseError, "line 1, col 18: expected ']', found '}'"),
    (parse_fn, "fn h { a -> [2,1] }", ParseError,
     "line 1, col 13: interval endpoints out of order: 2 > 1"),
    (parse_fn, "fn h { a -> inf; b -> infinity }", ParseError,
     "line 1, col 23: expected a rational number, found 'infinity'"),
    (parse_fn, "fn h { a -> 1; a -> 2 }", ParseError,
     "line 1, col 16: duplicate value for 'a'"),
    (parse_fn, "fn h { }", ParseError,
     "line 1, col 1: a function literal needs at least one value"),
    (parse_fn, "fn h { a -> 1; b -> [0,1] }", ParseError,
     "line 1, col 16: cannot mix interval and scalar values"),
    (parse_valuation, "val { [1/2,1/2] x }", ParseError,
     "line 1, col 17: expected '@', found 'x'"),
    (parse_valuation, "val { [1,1] @ 2 }", ParseError,
     "line 1, col 15: expected a point name, found '2'"),
    (parse_valuation, "val { [1/0,1] @ x }", ParseError,
     "line 1, col 10: denominator must be nonzero"),
    (parse_valuation, "val { }", ParseError,
     "line 1, col 1: a valuation needs at least one term"),
    (parse_valuation, "\n\n  val { }", ParseError,
     "line 3, col 3: a valuation needs at least one term"),
    (parse_valuation, "val { 1 @ x; [1,1] @ y }", ParseError,
     "line 1, col 14: cannot mix interval and scalar coefficients"),
    (parse_valuation, "val { ١ @ x }", ParseError,
     "line 1, col 7: unexpected character '١'"),
    (parse_measure, "measure 1 @ x }", ParseError, "line 1, col 9: expected '{', found '1'"),
    (parse_measure, "measure { [0,1] @ x }", ParseError,
     "line 1, col 11: expected a rational number, found '['"),
    (parse_measure, "measure { 1/2 @ x; 1/3 @ x }", ParseError,
     "line 1, col 20: duplicate mass for 'x'"),
    (parse_measure, "measure { 1/" + "3" * 5000 + " @ x }", LiteralTooLarge,
     "line 1, col 13: 5000 digits exceed the cap 4300"),
    (parse_piecewise, "piecewise { 0,1] inc: x }", ParseError,
     "line 1, col 13: expected '[', found '0'"),
    (parse_piecewise, "piecewise { [0;1] inc: x }", ParseError,
     "line 1, col 15: expected ',', found ';'"),
    (parse_piecewise, "piecewise { [0,1) inc: x }", ParseError,
     "line 1, col 17: expected ']', found ')'"),
    (parse_piecewise, "piecewise { [0,1/0] inc: x }", ParseError,
     "line 1, col 18: denominator must be nonzero"),
    (parse_piecewise, "piecewise { [0,1] 3: x }", ParseError,
     "line 1, col 19: expected 'inc' or 'dec', found '3'"),
    (parse_piecewise, "piecewise { [0,1] up: x }", ParseError,
     "line 1, col 19: expected 'inc' or 'dec', found 'up'"),
    (parse_piecewise, "piecewise { [0,1] inc x }", ParseError,
     "line 1, col 23: expected ':', found 'x'"),
    (parse_piecewise, "piecewise { [0,1] inc: }", ParseError,
     "line 1, col 24: expected a number, 'x' or '(', found '}'"),
    (parse_piecewise, "piecewise { [0,1] inc: y }", ParseError,
     "line 1, col 24: expected a number, 'x' or '(', found 'y'"),
    (parse_piecewise, "piecewise { [0,1] inc: (x }", ParseError,
     "line 1, col 27: expected ')', found '}'"),
    (parse_piecewise, "piecewise { [0,1] inc: x / (1 - 1) }", ParseError,
     "line 1, col 26: division is only defined by a nonzero constant"),
    (parse_piecewise, "piecewise { [0,1] inc: x^y }", ParseError,
     "line 1, col 26: expected an integer exponent, found 'y'"),
    (parse_piecewise, "piecewise { [0,1] inc: x^65 }", LiteralTooLarge,
     "line 1, col 26: exponent 65 exceeds the cap 64"),
    (parse_piecewise, "piecewise { [0,1] inc: x^40 * x^40 }", LiteralTooLarge,
     "line 1, col 29: polynomial degree 80 exceeds the cap 64"),
    (parse_piecewise, "piecewise { [0,1] inc: (((2^64)^64)^64) * x }", LiteralTooLarge,
     "line 1, col 36: coefficients of up to 262400 bits exceed the cap 65536"),
    (parse_piecewise, f"piecewise {{ [0,1] inc: {_NESTED} }}", LiteralTooLarge,
     "line 1, col 88: nesting exceeds the cap 64"),
    (parse_piecewise, "piecewise { [0,1] inc: x x }", ParseError,
     "line 1, col 26: expected ';' or '}', found 'x'"),
    (parse_piecewise, "piecewise { }", ParseError,
     "line 1, col 1: a piecewise function needs at least one segment"),
    (parse_piecewise, "piecewise { [0,1/4] inc: x; [1/2,1] inc: x }", ParseError,
     "line 1, col 29: segment [1/2,1] does not start where the previous one ended"),
    # rationals inside polynomials
    (parse_piecewise, "piecewise { [0,1] inc: 1 / x }", ParseError,
     "line 1, col 26: division is only defined by a nonzero constant"),
    (parse_piecewise, "piecewise { [0,1] inc: 1/0 + x }", ParseError,
     "line 1, col 25: division is only defined by a nonzero constant"),
    (parse_piecewise, "piecewise { [0,1] inc: 2/ + x }", ParseError,
     "line 1, col 27: expected a number, 'x' or '(', found '+'"),
    (parse_piecewise, "piecewise { [0,1] inc: 3/(2^2) }", None, None),
    (parse_piecewise, "piecewise { [0,1] dec: 1 + 3/-4*x }", None, None),
    # which error wins: syntax over a mixed algebra, trailing input over an
    # empty body, syntax over a segment gap
    (parse_fn, "fn h { a -> 1; b -> [0,1]; c }", ParseError,
     "line 1, col 30: expected '->', found '}'"),
    (parse_valuation, "val { } x", ParseError, "line 1, col 9: unexpected trailing input 'x'"),
    (parse_piecewise, "piecewise { [0,1/4] inc: x; [1/2,1] inc: x; [1,1] }", ParseError,
     "line 1, col 51: expected 'inc' or 'dec', found '}'"),
    # a lexical error anywhere wins over any other error before it
    (parse_poset, "poset { a <= ; } $", ParseError,
     "line 1, col 18: unexpected character '$'"),
    (parse_poset, "poset { a <= ; }\n  " + "1" * (MAX_DIGITS + 1), LiteralTooLarge,
     "line 2, col 3: 4301 digits exceed the cap 4300"),
    (parse_piecewise, "piecewise { [0,1] inc: x^65 } \u00b2", ParseError,
     "line 1, col 31: unexpected character '\u00b2'"),
    (parse_piecewise, "piecewise { [0,1/2] inc: x; [1/3,1] inc: x } #", ParseError,
     "line 1, col 46: unexpected character '#'"),
]

# Literals whose raw polynomial pairs would keep a common factor through
# every step: a raw denominator that grew with the literal would make each
# later gcd quadratic in its length.  Each parses, within a time bound.
_RAW_GROWTH = [
    (parse_piecewise, "piecewise { [0,1] inc: (((2/2)^64)^64)^64 }", None, None),
    (parse_piecewise, "piecewise { [0,1] inc: " + "*".join(["2/2"] * 1000) + " }",
     None, None),
    (parse_piecewise,
     "piecewise { [0,1] inc: " + "*".join(["(2^64)^64/(2^64)^64"] * 1000) + " }",
     None, None),
]
_DIAGNOSTICS += _RAW_GROWTH


class TestDiagnostics:
    @pytest.mark.parametrize(
        "parse, text, error, message",
        _DIAGNOSTICS,
        ids=[f"{row[0].__name__[6:]}:{row[1][:40]}" for row in _DIAGNOSTICS],
    )
    def test_every_raise_site_is_pinned(self, parse, text, error, message):
        if error is None:
            parse(text)
            return
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize(
        "parse, text, error, message",
        _RAW_GROWTH,
        ids=["nested-powers", "2000-factor-chain", "2000-power-chain"],
    )
    def test_raw_pairs_stay_small(self, parse, text, error, message):
        t0 = time.perf_counter()
        self.test_every_raise_site_is_pinned(parse, text, error, message)
        assert time.perf_counter() - t0 < 1.0


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


# Inputs drawn from the fuzz seeds and fragments, and the integrate-wide
# anchor literals, each with what the parsers made of it when recorded
# (tests/data/record_literal_outcomes.py): every value, error type,
# message, line and column must stay as it was.
_OUTCOMES = pathlib.Path(__file__).parent / "data" / "literal_outcomes.json"
_PARSERS = {form: parse for form, (parse, _) in _SEEDS.items()}
_PARSERS["rational"] = parse_rational


class TestOutcomeCorpus:
    def test_outcomes_match_the_recording(self):
        rows = json.loads(_OUTCOMES.read_text(encoding="ascii"))
        assert len(rows) >= 2000
        mismatches = []
        for form, text, expected in rows:
            try:
                got = ["ok", repr(_PARSERS[form](text))]
            except Exception as exc:  # noqa: BLE001 - every outcome is compared
                got = [type(exc).__name__, str(exc)]
            if got != expected:
                mismatches.append((form, text[:80], expected, got))
        assert not mismatches, (len(mismatches), mismatches[:3])
