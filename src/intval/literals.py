"""Parsers for the small text formats used by the CLI and test fixtures.

Five literal forms are accepted:

    poset { a; b; a <= b }
    fn h { a -> [0,3]; b -> [1,2] }
    val { [1/2,1/2] @ x; [1/4,1/3] @ y }
    measure { 1/2 @ x; 1/2 @ y }
    piecewise { [0,1/2] inc: x; [1/2,1] dec: 1 - x }

Scalars are written 'p', 'p/q' or 'inf'; intervals '[lo,hi]'.  Piecewise
segments carry a declared monotone direction and a polynomial expression
in x over the rationals (+, -, *, / by a constant, ^ with an integer
exponent, parentheses).  Degrees and exponents are capped at MAX_DEGREE
and coefficient sizes at MAX_COEFF_BITS, so a short literal cannot expand
into a huge polynomial or a huge number; integer literals are capped at
MAX_DIGITS digits and parentheses at MAX_NESTING levels.  All parse
failures raise ParseError with a 1-based line/column position, and a
literal over a cap raises its subclass LiteralTooLarge.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .algebra import (
    INFINITY,
    INTERVALS,
    SCALARS,
    ExtNonNeg,
    IntervalValue,
    ValueAlgebra,
    rational,
)
from .errors import LiteralTooLarge, ParseError
from .lebesgue import PiecewiseMonotoneFn, Polynomial
from .spaces import FinitePoset

# Largest polynomial degree, and largest exponent, a piecewise literal may
# use.  Without it x^8000 alone takes minutes to expand.
MAX_DEGREE = 64

# Largest coefficient size, in bits, a piecewise literal may build.  The
# degree cap alone lets nested powers of constants grow doubly
# exponentially: ((((2^64)^64)^64)^64)^64 stays at degree 0 but would
# build a 2^30-bit integer.  Products, quotients and powers are checked
# against a bound on their result's size (see _size_bound) before they
# are computed.
MAX_COEFF_BITS = 1 << 16

# Longest run of digits an integer literal may have: CPython's default
# limit on int() of a decimal string, which the library does not raise.
MAX_DIGITS = 4300

# Deepest nesting of parentheses in a polynomial expression; each level
# costs a few stack frames of the recursive-descent parser.
MAX_NESTING = 64


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_SYMBOLS = ("->", "<=", "{", "}", "[", "]", "(", ")", ";", ",", "@", ":", "+", "-", "*", "/", "^")


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        two = text[i : i + 2]
        if two in _SYMBOLS:
            tokens.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > MAX_DIGITS:
                message = f"{j - i} digits exceed the cap {MAX_DIGITS}"
                raise LiteralTooLarge(message, line, col)
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            label = what if what is not None else repr(kind)
            raise ParseError(
                f"expected {label}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise ParseError(
                f"expected {word!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)

    # ---- shared small pieces -------------------------------------------

    def rat(self):
        tok = self.expect("INT", "a rational number")
        num = int(tok.text)
        if self.peek().kind == "/":
            self.next()
            den_tok = self.expect("INT", "a denominator")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("denominator must be nonzero", den_tok.line, den_tok.col)
            return rational(num, den)
        return rational(num)

    def scalar(self) -> ExtNonNeg:
        if self.at_keyword("inf"):
            self.next()
            return INFINITY
        return ExtNonNeg(self.rat())

    def interval(self) -> IntervalValue:
        open_tok = self.expect("[", "'['")
        lo = self.scalar()
        self.expect(",", "','")
        hi = self.scalar()
        self.expect("]", "']'")
        if not lo <= hi:
            raise ParseError(
                f"interval endpoints out of order: {lo} > {hi}", open_tok.line, open_tok.col
            )
        return IntervalValue(lo, hi)

    def value(self):
        """An interval or a bare scalar, with the algebra it belongs to."""
        if self.peek().kind == "[":
            return self.interval(), INTERVALS
        return self.scalar(), SCALARS

    def semicolon_items(self, parse_item):
        """item (';' item)* with an optional trailing ';' before '}'."""
        items = []
        self.expect("{", "'{'")
        while self.peek().kind != "}":
            items.append(parse_item())
            if self.peek().kind == ";":
                self.next()
            elif self.peek().kind != "}":
                tok = self.peek()
                raise ParseError(
                    f"expected ';' or '}}', found {tok.text or 'end of input'!r}",
                    tok.line,
                    tok.col,
                )
        self.expect("}", "'}'")
        return items

    # ---- polynomial expressions ----------------------------------------

    def poly_expr(self) -> Polynomial:
        node = self.poly_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.poly_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def poly_term(self) -> Polynomial:
        node = self.poly_unary()
        while self.peek().kind in ("*", "/"):
            op_tok = self.next()
            rhs = self.poly_unary()
            if op_tok.kind == "*":
                self.check_degree(node.degree + rhs.degree, op_tok)
                self.check_size(_size_bound(node) + _size_bound(rhs), op_tok)
                node = node * rhs
            else:
                if not rhs.is_constant or rhs.coeffs[0] == 0:
                    raise ParseError(
                        "division is only defined by a nonzero constant",
                        op_tok.line,
                        op_tok.col,
                    )
                self.check_size(_size_bound(node) + _size_bound(rhs), op_tok)
                node = node.scaled(rational(1) / rhs.coeffs[0])
        return node

    def poly_unary(self) -> Polynomial:
        negate = False
        while self.peek().kind == "-":
            self.next()
            negate = not negate
        node = self.poly_power()
        return -node if negate else node

    def poly_power(self) -> Polynomial:
        base = self.poly_atom()
        if self.peek().kind == "^":
            caret = self.next()
            exp_tok = self.expect("INT", "an integer exponent")
            exp = int(exp_tok.text)
            if exp > MAX_DEGREE:
                raise LiteralTooLarge(
                    f"exponent {exp} exceeds the cap {MAX_DEGREE}",
                    exp_tok.line,
                    exp_tok.col,
                )
            self.check_degree(base.degree * exp, caret)
            self.check_size(_size_bound(base) * exp, caret)
            return base ** exp
        return base

    @staticmethod
    def check_degree(degree: int, tok: Token) -> None:
        if degree > MAX_DEGREE:
            raise LiteralTooLarge(
                f"polynomial degree {degree} exceeds the cap {MAX_DEGREE}",
                tok.line,
                tok.col,
            )

    @staticmethod
    def check_size(bits: int, tok: Token) -> None:
        if bits > MAX_COEFF_BITS:
            raise LiteralTooLarge(
                f"coefficients of up to {bits} bits exceed the cap {MAX_COEFF_BITS}",
                tok.line,
                tok.col,
            )

    def poly_atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "INT":
            return Polynomial.constant(self.rat())
        if tok.kind == "IDENT" and tok.text == "x":
            self.next()
            return Polynomial.identity()
        if tok.kind == "(":
            self.next()
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                message = f"nesting exceeds the cap {MAX_NESTING}"
                raise LiteralTooLarge(message, tok.line, tok.col)
            node = self.poly_expr()
            self.expect(")", "')'")
            self.nesting -= 1
            return node
        raise ParseError(
            f"expected a number, 'x' or '(', found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )


def _size_bound(poly: Polynomial) -> int:
    """An upper bound, in bits, on poly's coefficients that adds over products.

    Write poly = A / D with D the least common denominator and A an
    integer polynomial, and let E(p) be the bit length of D * ||A||_1.
    Every reduced coefficient's numerator and denominator are at most
    D * ||A||_1, and E(p * q) <= E(p) + E(q), so E(p^e) <= e * E(p).  This
    returns a cheap upper bound on E(poly) (D is at most the product of
    the denominators, each |A_i| at most |num_i| * D), so the sum of two
    operands' bounds, or e times a base's, bounds the result's coefficients.
    """
    cs = poly.coeffs
    bits = len(cs).bit_length()
    for c in cs:
        bits += c.numerator.bit_length() + 2 * c.denominator.bit_length()
    return bits


def parse_rational(text: str):
    """Parse a bare nonnegative rational, written 'p' or 'p/q'.

    This is the rational grammar of the literals (no sign, no decimal point,
    no exponent, nonzero denominator), used for numeric CLI options so
    they read the same on every rational backend.
    """
    p = _Parser(text)
    value = p.rat()
    p.finish()
    return value


def parse_poset(text: str) -> FinitePoset:
    """Parse ``poset { a; b; a <= b }``; names are declared on first mention."""
    p = _Parser(text)
    p.expect_keyword("poset")
    names: List[str] = []
    relation: List[Tuple[str, str]] = []

    def item():
        a = p.expect("IDENT", "a point name").text
        if a not in names:
            names.append(a)
        if p.peek().kind == "<=":
            p.next()
            b = p.expect("IDENT", "a point name").text
            if b not in names:
                names.append(b)
            relation.append((a, b))

    p.semicolon_items(item)
    p.finish()
    if not names:
        raise ParseError("a poset needs at least one point", 1, 1)
    return FinitePoset(names, relation)


def parse_fn(text: str) -> Tuple[str, dict, ValueAlgebra]:
    """Parse ``fn h { a -> [0,3]; ... }`` into (name, table, algebra)."""
    p = _Parser(text)
    p.expect_keyword("fn")
    name = p.expect("IDENT", "a function name").text
    table = {}
    algebras = []

    def item():
        point_tok = p.expect("IDENT", "a point name")
        point = point_tok.text
        p.expect("->", "'->'")
        v, alg = p.value()
        if point in table:
            raise ParseError(f"duplicate value for {point!r}", point_tok.line, point_tok.col)
        table[point] = v
        algebras.append((alg, point_tok))

    p.semicolon_items(item)
    p.finish()
    if not table:
        raise ParseError("a function literal needs at least one value", 1, 1)
    algebra = algebras[0][0]
    for alg, tok in algebras:
        if alg is not algebra:
            raise ParseError("cannot mix interval and scalar values", tok.line, tok.col)
    return name, table, algebra


def parse_valuation(text: str) -> Tuple[list, ValueAlgebra]:
    """Parse ``val { [1/2,1/2] @ x; ... }`` into ([(coeff, point)], algebra)."""
    p = _Parser(text)
    p.expect_keyword("val")
    terms = []
    algebras = []

    def item():
        start = p.peek()
        coeff, alg = p.value()
        p.expect("@", "'@'")
        point = p.expect("IDENT", "a point name").text
        terms.append((coeff, point))
        algebras.append((alg, start))

    p.semicolon_items(item)
    p.finish()
    if not terms:
        raise ParseError("a valuation needs at least one term", 1, 1)
    algebra = algebras[0][0]
    for alg, tok in algebras:
        if alg is not algebra:
            raise ParseError("cannot mix interval and scalar coefficients", tok.line, tok.col)
    return terms, algebra


def parse_measure(text: str) -> dict:
    """Parse ``measure { 1/2 @ x; ... }`` into a mass table."""
    p = _Parser(text)
    p.expect_keyword("measure")
    masses = {}

    def item():
        start = p.peek()
        m = p.scalar()
        p.expect("@", "'@'")
        point = p.expect("IDENT", "a point name").text
        if point in masses:
            raise ParseError(f"duplicate mass for {point!r}", start.line, start.col)
        masses[point] = m

    p.semicolon_items(item)
    p.finish()
    return masses


def parse_piecewise(text: str) -> PiecewiseMonotoneFn:
    """Parse ``piecewise { [0,1/2] inc: x; ... }`` into a function."""
    p = _Parser(text)
    p.expect_keyword("piecewise")
    segments = []

    def item():
        open_tok = p.expect("[", "'['")
        lo = p.rat()
        p.expect(",", "','")
        hi = p.rat()
        p.expect("]", "']'")
        dir_tok = p.expect("IDENT", "'inc' or 'dec'")
        if dir_tok.text not in ("inc", "dec"):
            raise ParseError(
                f"expected 'inc' or 'dec', found {dir_tok.text!r}",
                dir_tok.line,
                dir_tok.col,
            )
        p.expect(":", "':'")
        poly = p.poly_expr()
        segments.append((lo, hi, dir_tok.text, poly, open_tok))

    p.semicolon_items(item)
    p.finish()
    if not segments:
        raise ParseError("a piecewise function needs at least one segment", 1, 1)
    breakpoints = [segments[0][0]]
    pieces = []
    for lo, hi, direction, poly, tok in segments:
        if lo != breakpoints[-1]:
            raise ParseError(
                f"segment [{lo},{hi}] does not start where the previous one ended",
                tok.line,
                tok.col,
            )
        breakpoints.append(hi)
        pieces.append((direction, poly))
    return PiecewiseMonotoneFn(breakpoints, pieces)
