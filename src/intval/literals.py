"""Parsers for the small text formats used by the CLI and test fixtures.

Five literal forms are accepted, each a keyword (and, for fn, a name)
before a braced list of items separated by ';', with an optional ';'
before the closing brace:

    poset { a; b; a <= b }
    fn h { a -> [0,3]; b -> [1,2] }
    val { [1/2,1/2] @ x; [1/4,1/3] @ y }
    measure { 1/2 @ x; 1/2 @ y }
    piecewise { [0,1/2] inc: x; [1/2,1] dec: 1 - x }

Scalars and breakpoints are written 'p', 'p/q' or (scalars only) 'inf';
intervals '[lo,hi]'.  Piecewise segments carry a declared monotone
direction and a polynomial expression in x over the rationals: integers,
x, +, -, *, ^ with an integer exponent (binding tighter than * and /),
/ by a nonzero constant expression, and parentheses, so 3/2^2 is 3/4.
Degrees and exponents are capped at MAX_DEGREE and coefficient sizes at
MAX_COEFF_BITS, so a short literal cannot expand into a huge polynomial
or a huge number; integer literals are capped at MAX_DIGITS digits and
parentheses at MAX_NESTING levels.

All parse failures raise ParseError with a 1-based line/column position,
and a literal over a cap raises its subclass LiteralTooLarge.  If the
text holds a lexical error anywhere (an unexpected character, or a digit
run over MAX_DIGITS), the first one is reported, even when another error
comes before it: 'poset { a <= ; } $' fails at the '$', not at the ';'.
Otherwise the first error in reading order is reported.  A literal that
reads through to the end may still fail, in this order: an empty body (at
its keyword), values of both algebras, then a gap between segments.

One compiled regular expression scans the text: each match skips spaces,
tabs and line breaks and takes one token, a symbol, an ASCII digit run, a
word run or a single unexpected character, and the end of input is the
empty string.  A token that starts with an ASCII digit is an integer, and
one that starts with a letter or '_' is a name.  The parsers read the
token list by index: one routine reads a literal's braces and separators
and calls its form's item reader once per item, which takes its tokens
inline and each scalar through one helper, and an expression is read in
one loop with an explicit stack of open parentheses; a product that
starts with 'p/q', p and q integers, q nonzero and not raised to a
power, reads it as one rational atom, with the value, caps and error
positions of the general division, which it cannot fail.  Each token is
checked lexically as it is taken.  Only an error re-scans the text, to
find any lexical error and the token's offset, and from it the line and
column; the end of input sits one column past the last character.
"""

from __future__ import annotations

import re
from itertools import zip_longest
from math import gcd
from typing import TYPE_CHECKING, Dict, Iterator, List, NoReturn, Sequence, Tuple

from .algebra import INTERVALS, SCALARS, ExtNonNeg, IntervalValue, ValueAlgebra, rational
from .errors import LiteralTooLarge, ParseError
from .lebesgue import PiecewiseMonotoneFn, Polynomial
from .lebesgue import _canonical, _mul_ints, _power, _trimmed

if TYPE_CHECKING:
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

# Deepest nesting of parentheses in a polynomial expression: the length of
# the expression parser's explicit stack of open '(' (see poly_expr).
MAX_NESTING = 64

_DEGREE_MESSAGE = "polynomial degree {} exceeds the cap {}"
_SIZE_MESSAGE = "coefficients of up to {} bits exceed the cap {}"

# Longest denominator, in bits, a raw polynomial pair keeps before the
# parser takes its common factor out (see _raw).
_RAW_DEN_BITS = 256


def _position(source: str, offset: int) -> Tuple[int, int]:
    """The 1-based (line, column) of an offset into source."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


# After optional spaces, tabs and line breaks, one token: a symbol, an
# ASCII digit run, a run of \w (\w is exactly str.isalnum() or '_'), which
# is a name if it starts with a letter or '_', any other single character,
# or the end of the text (the empty string).  The last alternative lets
# trailing whitespace end a match; without it the match would backtrack and
# take a whitespace character as a token.  re compiles it on the first
# parse and caches it, so importing this module does not.
_TOKEN = r"[ \t\r\n]*(->|<=|[{}\[\]();,@:+\-*/^]|[0-9]+|\w+|.|\Z)"
# the symbols _TOKEN matches, for telling them from unexpected characters
_SYMBOLS = frozenset(("->", "<=", *"{}[]();,@:+-*/^"))


def _tokenize(text: str) -> List[str]:
    """The tokens of text, ending with one end of input."""
    tokens = re.findall(_TOKEN, text, re.DOTALL)
    if len(tokens) > 1 and not tokens[-2]:
        # a match that ends in trailing whitespace is followed by an empty
        # one at the very end
        del tokens[-1]
    return tokens


def _scan(text: str) -> Iterator[Tuple[str, int]]:
    """Each token of text with its offset, through the end of input.

    Raises the first lexical error: a token that is neither a symbol, an
    integer nor a name, or a digit run over MAX_DIGITS.
    """
    for m in re.finditer(_TOKEN, text, re.DOTALL):
        tok = m[1]
        offset = m.start(1)
        if "/" < tok < ":":  # starts with an ASCII digit: a digit run
            if len(tok) > MAX_DIGITS:
                message = f"{len(tok)} digits exceed the cap {MAX_DIGITS}"
                raise LiteralTooLarge(message, *_position(text, offset))
        elif tok and not (tok in _SYMBOLS or tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"unexpected character {tok[0]!r}", *_position(text, offset))
        yield tok, offset
        if not tok:
            return


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def fail(self, index: int, message: str, error=ParseError) -> NoReturn:
        """Raise error(message) at the line and column of token index.

        The offset comes from a rescan of the whole text, which raises the
        text's first lexical error instead if it has one: the parser checks
        only the tokens it takes, and a lexical error anywhere comes first.
        """
        for i, (_, offset) in enumerate(_scan(self.text)):
            if i == index:
                at = offset
        raise error(message, *_position(self.text, at))

    def unexpected(self, index: int, what: str) -> NoReturn:
        """Raise 'expected what' at token index.  For a digit run over
        MAX_DIGITS, a lexical error, the rescan in fail raises the cap."""
        tok = self.tokens[index]
        self.fail(index, f"expected {what}, found {tok or 'end of input'!r}")

    def check(self, value: int, cap: int, index: int, message: str) -> None:
        """If value is over cap, raise LiteralTooLarge(message.format(value,
        cap)) at token index."""
        if value > cap:
            self.fail(index, message.format(value, cap), LiteralTooLarge)

    def finish(self) -> None:
        tok = self.tokens[self.pos]
        if tok:
            self.fail(self.pos, f"unexpected trailing input {tok!r}")

    def block(self, keyword: str, item, empty=None, name=None) -> None:
        """keyword [name] '{' item (';' item)* [';'] '}', then the end of input.

        item(tokens, i) reads one item from token index i, keeps what it
        reads and returns the index after it.  A name is read when `name`
        describes one; with `empty` set, a literal without items fails with
        that message at its keyword.
        """
        tokens = self.tokens
        if tokens[0] != keyword:
            self.unexpected(0, repr(keyword))
        i = 1
        if name is not None:
            if not (tokens[1][:1].isalpha() or tokens[1][:1] == "_"):
                self.unexpected(1, name)
            i = 2
        if tokens[i] != "{":
            self.unexpected(i, "'{'")
        i += 1
        while tokens[i] != "}":
            i = item(tokens, i)  # an item takes at least one token
            if tokens[i] != ";":
                break
            i += 1
        if tokens[i] != "}":
            self.unexpected(i, "';' or '}'")
        self.pos = i + 1
        self.finish()
        if empty is not None and tokens[i - 1] == "{":  # no item
            self.fail(0, empty)

    def one_algebra(self, first: Dict[ValueAlgebra, int], noun: str) -> ValueAlgebra:
        """The algebra of a literal's values, given the token index of each
        algebra's first value; a second algebra fails at its first value."""
        if len(first) > 1:
            self.fail(max(first.values()), f"cannot mix interval and scalar {noun}")
        return next(iter(first))

    # ---- polynomial expressions ----------------------------------------
    #
    # An expression is built as a raw pair (num, den): integer coefficients,
    # low degree first, without trailing zeros, over one positive
    # denominator, with no common factor taken out.  poly_piece brings a
    # piece's expression to canonical form, and poly_expr each base of a
    # power (see _raw for the one other place).  Degrees and _size_bound
    # read the same on a raw pair as on its canonical form, so the caps
    # decide as they would on canonical operands.  _size_bound is exact but
    # costs a gcd per coefficient, so each check first sums _rough_bound,
    # from bit lengths alone, and takes the exact bound only over the cap.
    # A term's sign, and the constant factor of its last product, are not
    # applied to the term: they are carried as one int scale and multiplied
    # in by the comprehension that aligns the term's denominator with the
    # sum's and adds it.  A first term has no sum to fold into: its sign is
    # folded into the constant factor of its last product, if it has one,
    # so the term is built with one list.  The folded product's caps are
    # checked on its two operands by the same bounds as a product that is
    # built.

    def poly_piece(self) -> Polynomial:
        return Polynomial._of(*self.poly_expr())

    def poly_expr(self) -> Tuple[List[int], int]:
        """An expression, as a raw pair, read in one loop over the tokens.

        Loosest first: a sum of terms joined by '+' and '-', a term a product
        of factors joined by '*' and '/', both left associative; a factor a
        run of unary minus signs, an atom and an optional '^' exponent, which
        binds tighter than the signs (-x^2 is -(x^2)); an atom an integer, 'x'
        or a parenthesized expression.  A sign passes through products and
        quotients, so a unary minus anywhere in a term negates the term.  The
        pending sum and product are locals; '(' pushes them onto a stack and
        ')' pops them, so the loop does not recurse.  A term after the first
        of a sum is added to it in one comprehension, times an int scale:
        the term's sign, times the constant operand of its last product, if
        it has one.  A first term's sign is multiplied into that operand
        instead.  That product is not built, but its caps are checked on
        the same operands as when it is; every cap check is an inline
        comparison that calls check only when over.

        An integer p that is the first factor of a product (of a term, or
        inside '('), followed by '/' and a nonzero integer q that no '^'
        follows, is one atom: the raw pair ([p], q) that the division step
        would build, through _raw when q is over _RAW_DEN_BITS.  That
        division's checks cannot fail (p and q have at most MAX_DIGITS
        digits, so its size bound is under 30,000 bits, below
        MAX_COEFF_BITS), so the value, the caps and every error and its
        position are the general path's.
        Every other '/' is a division step: after a pending product (x/2/3
        is x/6), by zero, by an over-long digit run, or by a power q^k.
        """
        tokens, i = self.tokens, self.pos
        stack = []  # for each open '(', the state pending outside it
        total = prod = op = at = None  # the pending sum, product, '*' or '/', its index
        negate = False  # whether the pending term is negated
        while True:
            tok = tokens[i]
            i += 1
            if tok == "-":
                negate = not negate
                continue
            if tok == "(":
                if len(stack) >= MAX_NESTING:
                    self.check(len(stack) + 1, MAX_NESTING, i - 1, "nesting exceeds the cap {1}")
                stack.append((total, prod, op, at, negate))
                total, prod, negate = None, None, False
                continue
            if tok == "x":
                num, den = [0, 1], 1
            elif "/" < tok < ":" and len(tok) <= MAX_DIGITS:
                num, den = [int(tok)], 1
                if prod is None and tokens[i] == "/":
                    # a leading p/q: the raw pair the division step builds
                    tok = tokens[i + 1]
                    if "/" < tok < ":" and len(tok) <= MAX_DIGITS and tokens[i + 2] != "^":
                        q = int(tok)
                        if q:
                            den = q
                            i += 2
                            if q.bit_length() > _RAW_DEN_BITS:
                                num, den = _raw(num, den)
            else:
                self.unexpected(i - 1, "a number, 'x' or '('")
            # num / den is an atom: end its factor, and each '(' it closes
            while True:
                if tokens[i] == "^":
                    tok = tokens[i + 1]
                    if not ("/" < tok < ":" and len(tok) <= MAX_DIGITS):
                        self.unexpected(i + 1, "an integer exponent")
                    exp = int(tok)
                    if exp > MAX_DEGREE:
                        self.check(exp, MAX_DEGREE, i + 1, "exponent {} exceeds the cap {}")
                    if (len(num) - 1) * exp > MAX_DEGREE:
                        self.check((len(num) - 1) * exp, MAX_DEGREE, i, _DEGREE_MESSAGE)
                    if _rough_bound(num, den) * exp > MAX_COEFF_BITS:
                        self.check(_size_bound(num, den) * exp, MAX_COEFF_BITS, i, _SIZE_MESSAGE)
                    # a power of a canonical base is canonical (Gauss's lemma)
                    num, den = _canonical(num, den)
                    num, den = _power(num, exp), den ** exp
                    i += 2
                tok = tokens[i]
                scale = 1  # a constant factor of the term that num leaves out
                if prod is not None:
                    lnum, lden = prod
                    m, n = len(lnum), len(num)
                    if op == "*":
                        if m + n - 2 > MAX_DEGREE:
                            self.check(m + n - 2, MAX_DEGREE, at, _DEGREE_MESSAGE)
                    elif n > 1 or not num[0]:
                        self.fail(at, "division is only defined by a nonzero constant")
                    # _rough_bound of a one-coefficient operand, inline
                    bits = (1 + lnum[0].bit_length() + 2 * lden.bit_length()
                            if m == 1 else _rough_bound(lnum, lden))
                    bits += (1 + num[0].bit_length() + 2 * den.bit_length()
                             if n == 1 else _rough_bound(num, den))
                    if bits > MAX_COEFF_BITS:
                        bits = _size_bound(lnum, lden) + _size_bound(num, den)
                        self.check(bits, MAX_COEFF_BITS, at, _SIZE_MESSAGE)
                    if op == "/":  # times den / num[0], over a positive denominator
                        num, den = ([den], num[0]) if num[0] > 0 else ([-den], -num[0])
                    den *= lden
                    # both operands are trimmed, so only a zero factor leaves
                    # trailing zeros
                    if n == 1 or m == 1:
                        c, num = (num[0], lnum) if n == 1 else (lnum[0], num)
                        last = tok != "*" and tok != "/"  # the term's last factor
                        if last and total is None and negate:
                            c, negate = -c, False  # a first term's sign, folded into c
                        if last and total is not None:
                            scale = c  # fold c into the sum
                        elif c != 1:
                            num = [c * v for v in num] if c else [0]
                    else:
                        num = _mul_ints(lnum, num)
                    if den.bit_length() > _RAW_DEN_BITS:
                        num, den = _raw(num, den)
                if tok == "*" or tok == "/":
                    prod, op, at = (num, den), tok, i
                    i += 1
                    break
                # the term is complete
                if total is not None:
                    # _sum_ints times the scale, inline: the call would cost
                    # about 4% of the time to parse a 32-piece literal
                    tnum, tden = total
                    g = gcd(tden, den)
                    fa, fb = den // g, tden // g * (-scale if negate else scale)
                    num = [fa * u + fb * v for u, v in zip_longest(tnum, num, fillvalue=0)]
                    den = tden * fa
                    if not num[-1] or den.bit_length() > _RAW_DEN_BITS:
                        num, den = _raw(num, den)
                elif negate:
                    num = [-v for v in num]
                if tok == "+" or tok == "-":
                    total, prod, negate = (num, den), None, tok == "-"
                    i += 1
                    break
                # the sum is complete
                if not stack:
                    self.pos = i
                    return num, den
                if tok != ")":
                    self.unexpected(i, "')'")
                i += 1
                total, prod, op, at, negate = stack.pop()


def _raw(num: List[int], den: int) -> Tuple[List[int], int]:
    """The raw pair num / den with trailing zeros trimmed.

    A denominator longer than _RAW_DEN_BITS is brought to canonical form,
    so a common factor that the raw pairs leave in (2/2*2/2*...) cannot
    grow with the length of the literal: _size_bound takes a gcd with the
    denominator, which is quadratic in its length, and without this step
    2,000 factors (2^64)^64, alternately multiplied and divided, took over
    30 s to parse instead of 0.1 s.
    """
    num = _trimmed(num)
    if den.bit_length() > _RAW_DEN_BITS:
        num, den = _canonical(num, den)
        return list(num), den
    return num, den


def _size_bound(num: Sequence[int], den: int) -> int:
    """An upper bound, in bits, on the coefficients of num / den that adds
    over products.

    Write the polynomial as A / D with D the least common denominator and
    A an integer polynomial, and let E be the bit length of D * ||A||_1.
    Every reduced coefficient's numerator and denominator are at most
    D * ||A||_1, and E(p * q) <= E(p) + E(q), so E(p^e) <= e * E(p).  This
    returns a cheap upper bound on E (D is at most the product of the
    coefficients' reduced denominators d_i, each |A_i| at most |n_i| * D
    for the reduced numerators n_i), so the sum of two operands' bounds, or
    e times a base's, bounds the result's coefficients.  Coefficient i is
    read as n_i / d_i = (num_i / g) / (den / g) with g = gcd(num_i, den),
    so no rational is built, and a raw pair with a common factor left in
    gets the same bound as its canonical form.
    """
    bits = len(num).bit_length()
    for a in num:
        g = gcd(a, den)
        bits += (a // g).bit_length() + 2 * (den // g).bit_length()
    return bits


def _rough_bound(num: Sequence[int], den: int) -> int:
    """An upper bound on _size_bound(num, den) from bit lengths alone.

    Term by term it drops the gcd: |a // g| <= |a| and den // g <= den.
    """
    return (
        len(num).bit_length()
        + sum(map(int.bit_length, num))
        + 2 * len(num) * den.bit_length()
    )


def _scalar(p: _Parser, tokens: List[str], i: int) -> Tuple[int, int, int]:
    """The scalar 'p', 'p/q' or 'inf' at token index i, as the reduced pair
    (p, q), with q = 0 for inf, and the index after it."""
    tok = tokens[i]
    if tok == "inf":
        return 1, 0, i + 1
    if not ("/" < tok < ":" and len(tok) <= MAX_DIGITS):
        p.unexpected(i, "a rational number")
    num = int(tok)
    if tokens[i + 1] != "/":
        return num, 1, i + 1
    tok = tokens[i + 2]
    if not ("/" < tok < ":" and len(tok) <= MAX_DIGITS):
        p.unexpected(i + 2, "a denominator")
    den = int(tok)
    if not den:
        p.fail(i + 2, "denominator must be nonzero")
    g = gcd(num, den)
    return num // g, den // g, i + 3


def _value(p: _Parser, tokens: List[str], i: int) -> Tuple[object, ValueAlgebra, int]:
    """The '[lo,hi]' or bare scalar at token index i, its algebra and the next index."""
    if tokens[i] != "[":
        n, d, i = _scalar(p, tokens, i)
        return ExtNonNeg._make(n, d), SCALARS, i
    a, b, j = _scalar(p, tokens, i + 1)
    if tokens[j] != ",":
        p.unexpected(j, "','")
    c, d, j = _scalar(p, tokens, j + 1)
    if tokens[j] != "]":
        p.unexpected(j, "']'")
    lo, hi = ExtNonNeg._make(a, b), ExtNonNeg._make(c, d)
    if d and (not b or a * d > c * b):  # not lo <= hi
        p.fail(i, f"interval endpoints out of order: {lo} > {hi}")
    return IntervalValue._make(lo, hi), INTERVALS, j + 1


def parse_rational(text: str):
    """Parse a bare nonnegative rational, written 'p' or 'p/q'.

    This is the rational grammar of the literals (no sign, no decimal point,
    no exponent, nonzero denominator), used for numeric CLI options so
    that they accept exactly what a literal does.  Returns a Fraction; see
    ``rational_pair`` for the reduced int pair.
    """
    return rational(*rational_pair(text))


def rational_pair(text: str) -> Tuple[int, int]:
    """``parse_rational``'s value as the reduced pair (p, q), q > 0, with
    the same errors, so a caller that stays on int pairs builds no Fraction."""
    p = _Parser(text)
    num, den, p.pos = _scalar(p, p.tokens, 0)
    if not den:
        p.unexpected(0, "a rational number")
    p.finish()
    return num, den


def parse_poset(text: str) -> FinitePoset:
    """Parse ``poset { a; b; a <= b }``; names are declared on first mention."""
    from .spaces import FinitePoset

    p = _Parser(text)
    names: Dict[str, None] = {}  # in order of first mention
    relation: List[Tuple[str, str]] = []

    def item(tokens, i):
        a = tokens[i]
        if not (a[:1].isalpha() or a[:1] == "_"):
            p.unexpected(i, "a point name")
        names[a] = None
        if tokens[i + 1] != "<=":
            return i + 1
        b = tokens[i + 2]
        if not (b[:1].isalpha() or b[:1] == "_"):
            p.unexpected(i + 2, "a point name")
        names[b] = None
        relation.append((a, b))
        return i + 3

    p.block("poset", item, "a poset needs at least one point")
    return FinitePoset(list(names), relation)


def parse_fn(text: str) -> Tuple[str, dict, ValueAlgebra]:
    """Parse ``fn h { a -> [0,3]; ... }`` into (name, table, algebra)."""
    p = _Parser(text)
    table = {}
    first = {}  # each algebra's first value, as the index of its point

    def item(tokens, i):
        point = tokens[i]
        if not (point[:1].isalpha() or point[:1] == "_"):
            p.unexpected(i, "a point name")
        if tokens[i + 1] != "->":
            p.unexpected(i + 1, "'->'")
        v, alg, j = _value(p, tokens, i + 2)
        if point in table:
            p.fail(i, f"duplicate value for {point!r}")
        table[point] = v
        first.setdefault(alg, i)
        return j

    p.block("fn", item, "a function literal needs at least one value", "a function name")
    # the name is the token after the keyword
    return p.tokens[1], table, p.one_algebra(first, "values")


def parse_valuation(text: str) -> Tuple[list, ValueAlgebra]:
    """Parse ``val { [1/2,1/2] @ x; ... }`` into ([(coeff, point)], algebra)."""
    p = _Parser(text)
    terms = []
    first = {}  # each algebra's first coefficient, as its token index

    def item(tokens, i):
        coeff, alg, j = _value(p, tokens, i)
        if tokens[j] != "@":
            p.unexpected(j, "'@'")
        point = tokens[j + 1]
        if not (point[:1].isalpha() or point[:1] == "_"):
            p.unexpected(j + 1, "a point name")
        terms.append((coeff, point))
        first.setdefault(alg, i)
        return j + 2

    p.block("val", item, "a valuation needs at least one term")
    return terms, p.one_algebra(first, "coefficients")


def parse_measure(text: str) -> dict:
    """Parse ``measure { 1/2 @ x; ... }`` into a mass table."""
    p = _Parser(text)
    masses = {}

    def item(tokens, i):
        n, d, j = _scalar(p, tokens, i)
        if tokens[j] != "@":
            p.unexpected(j, "'@'")
        point = tokens[j + 1]
        if not (point[:1].isalpha() or point[:1] == "_"):
            p.unexpected(j + 1, "a point name")
        if point in masses:
            p.fail(i, f"duplicate mass for {point!r}")
        masses[point] = ExtNonNeg._make(n, d)
        return j + 2

    p.block("measure", item)
    return masses


def parse_piecewise(text: str) -> PiecewiseMonotoneFn:
    """Parse ``piecewise { [0,1/2] inc: x; ... }`` into a function."""
    p = _Parser(text)
    segments = []

    def item(tokens, i):
        if tokens[i] != "[":
            p.unexpected(i, "'['")
        a, b, j = _scalar(p, tokens, i + 1)
        if not b:
            p.unexpected(i + 1, "a rational number")
        if tokens[j] != ",":
            p.unexpected(j, "','")
        c, d, k = _scalar(p, tokens, j + 1)
        if not d:
            p.unexpected(j + 1, "a rational number")
        if tokens[k] != "]":
            p.unexpected(k, "']'")
        direction = tokens[k + 1]
        if direction != "inc" and direction != "dec":
            p.unexpected(k + 1, "'inc' or 'dec'")
        if tokens[k + 2] != ":":
            p.unexpected(k + 2, "':'")
        p.pos = k + 3
        lo, hi = ExtNonNeg._make(a, b), ExtNonNeg._make(c, d)
        segments.append((lo, hi, direction, p.poly_piece(), i))
        return p.pos

    p.block("piecewise", item, "a piecewise function needs at least one segment")
    breakpoints = [segments[0][0]]
    pieces = []
    for lo, hi, direction, poly, start in segments:
        if lo != breakpoints[-1]:
            p.fail(start, f"segment [{lo},{hi}] does not start where the previous one ended")
        breakpoints.append(hi)
        pieces.append((direction, poly))
    return PiecewiseMonotoneFn(breakpoints, pieces)
