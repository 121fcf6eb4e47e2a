"""Exact arithmetic for the two coefficient algebras of the library.

Scalars are extended nonnegative rationals: exact rationals >= 0 plus a
distinct infinity tag.  Interval values are pairs [lo, hi] of scalars with
lo <= hi, ordered by *reverse inclusion*: [a, b] <= [c, d] iff [c, d] is a
sub-interval of [a, b].  Under that order, wide intervals are coarse
approximations and refinement moves upward; the least element is [0, inf].

Interval addition is componentwise.  The interval product pairs two scalar
products that agree everywhere except at 0 * inf:

    mul_left:  0 * inf = 0     (the limit of 0 * r as r grows)
    mul_right: 0 * inf = inf   (the limit of r * inf as r shrinks to 0)

so that [a, b] * [c, d] = [a *l c, b *r d].  Rounding lower endpoints with
mul_left and upper endpoints with mul_right is exactly what keeps both
endpoint maps continuous under refinement; with a single product, one of
the two endpoints would jump at 0 * inf.  The price is that [0, 0] is an
additive unit but not multiplicatively absorbing ([0, 0] * [inf, inf] =
[0, inf]), so this algebra is weaker than a semiring: both operations are
associative and commutative with units [0, 0] and [1, 1], and * distributes
over +, but 0 * x = 0 fails.

Representation.  A scalar is a pair of Python ints: a finite value n/d is
stored reduced, with n >= 0, d >= 1 and gcd(n, d) = 1, and infinity is the
pair (1, 0).  Reduced pairs are canonical, so equality is two int
comparisons, the unit and zero tests are n == d and n == 0, products cancel
across with math.gcd, sums take one gcd and the order cross-multiplies.
An interval product with a [1, 1] factor returns the other operand itself
rather than a copy, as a scalar product with a finite unit factor does.
Values are immutable, so sharing one is safe, and results that share their
inputs' coefficients compare equal at the identity test, which makes == on
normal forms (tuples of terms) cheap.
``ExtNonNeg.value`` builds the exact ``fractions.Fraction`` on demand for
callers that compute with rationals, and ``rational`` builds Fractions.
Text has one grammar, 'inf', 'p' or 'p/q' at any length: the constructor
reads strings through ``parse_scalar``, the inverse of ``render_scalar``.

There is one arithmetic path.  The law suites spend their time in these
few int operations, not in a rational type, so a faster rational library
would not speed them up, and a second backend would be a second path whose
output bytes nothing here could check.  The unit shortcut is not a second
path: every interval product that is computed dispatches through
``IntervalValue.__mul__``, which tests for [1, 1] on the reduced pairs
before it calls mul_left and mul_right.  One caller computes none:
``monad.bind`` on a unit Dirac, ``algebra.one`` at a single point x,
returns the kernel's image f(x) itself.  That is exact, not a cache: the
products it skips are unit products, which would hand back each of f(x)'s
coefficients unchanged, so the result it would build equals f(x) term by
term.

The algebra R of the paper is a set with +, * and an order and nothing
else, so each of the two is one ``ValueAlgebra`` record of exactly that:
``SCALARS`` and ``INTERVALS``.  Code that runs at either takes the record
as its ``algebra`` parameter.

Everything is immutable and pure; values are safe to share across
threads.  No value is ever a float, so every algebraic identity in this
library can be checked with exact equality.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from typing import Union

RatLike = Union[int, str, Fraction, "ExtNonNeg"]

_new = object.__new__


def rational(value, denominator=None) -> Fraction:
    """Build an exact rational (reduced form) from ints, strings or rationals.

    Floats are rejected outright: a binary float smuggled in would carry
    rounding error while looking exact downstream.
    """
    if isinstance(value, float) or isinstance(denominator, float):
        raise TypeError("floats are not exact; pass a rational, int or string")
    if denominator is None:
        return Fraction(value)
    return Fraction(value, denominator)


class ExtNonNeg:
    """An exact nonnegative rational, or the distinguished value infinity.

    Infinity is a tag, not a large sentinel number: it compares strictly
    greater than every finite value and absorbs addition.  Stored as the
    reduced pair (numerator, denominator), with denominator 0 for infinity;
    see the module docstring.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, value: RatLike = 0):
        if type(value) is int:
            n, d = value, 1
        elif isinstance(value, ExtNonNeg):
            self._n, self._d = value._n, value._d
            return
        elif isinstance(value, Fraction):
            n, d = value.numerator, value.denominator
        elif isinstance(value, str):
            value = parse_scalar(value)
            self._n, self._d = value._n, value._d
            return
        else:
            q = rational(value)
            n, d = q.numerator, q.denominator
        if n < 0:
            raise ValueError(
                f"extended nonnegative value must be >= 0, got {_pair_str(n, d)}"
            )
        self._n, self._d = n, d

    @classmethod
    def _make(cls, n: int, d: int) -> "ExtNonNeg":
        # internal fast path: (n, d) is already a reduced pair, d == 0 for inf
        obj = _new(cls)
        obj._n = n
        obj._d = d
        return obj

    @property
    def is_infinite(self) -> bool:
        return not self._d

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def value(self) -> Fraction:
        """The exact rational value; raises on infinity."""
        if not self._d:
            raise ValueError("infinity has no finite rational value")
        return Fraction(self._n, self._d)

    def __add__(self, other: "ExtNonNeg") -> "ExtNonNeg":
        ad, bd = self._d, other._d
        if not ad or not bd:
            return INFINITY
        n = self._n * bd + other._n * ad
        d = ad * bd
        g = gcd(n, d)
        obj = _new(ExtNonNeg)
        obj._n = n // g
        obj._d = d // g
        return obj

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtNonNeg):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __le__(self, other: "ExtNonNeg") -> bool:
        if not other._d:
            return True
        if not self._d:
            return False
        return self._n * other._d <= other._n * self._d

    def __lt__(self, other: "ExtNonNeg") -> bool:
        if not self._d:
            return False
        if not other._d:
            return True
        return self._n * other._d < other._n * self._d

    def __ge__(self, other: "ExtNonNeg") -> bool:
        return other <= self

    def __gt__(self, other: "ExtNonNeg") -> bool:
        return other < self

    def __str__(self) -> str:
        return render_scalar(self)

    def __repr__(self) -> str:
        return render_scalar(self)


INFINITY = ExtNonNeg._make(1, 0)
ZERO = ExtNonNeg._make(0, 1)
ONE = ExtNonNeg._make(1, 1)


def ext(value: RatLike) -> ExtNonNeg:
    """Coerce ints, rationals, scalar text (see parse_scalar) or ExtNonNeg."""
    return value if isinstance(value, ExtNonNeg) else ExtNonNeg(value)


def mul_left(a: ExtNonNeg, b: ExtNonNeg) -> ExtNonNeg:
    """Scalar product rounding lower endpoints: 0 * inf = 0.

    Equals the ordinary product whenever neither rule 0 * inf applies.
    This is the product under which zero wins against infinity, making
    the product continuous in each argument from below.

    After the infinity rules, a unit factor returns the other operand and
    a zero factor returns ZERO.  Both are exact identities on reduced
    pairs (n == d is 1, n == 0 is 0) that skip the product most law-suite
    products would otherwise pay for.
    """
    an, ad, bn, bd = a._n, a._d, b._n, b._d
    if not ad:
        return INFINITY if bn else ZERO
    if not bd:
        return INFINITY if an else ZERO
    if an == ad:
        return b
    if bn == bd:
        return a
    if not an or not bn:
        return ZERO
    g = gcd(an, bd)
    h = gcd(bn, ad)
    obj = _new(ExtNonNeg)
    obj._n = (an // g) * (bn // h)
    obj._d = (ad // h) * (bd // g)
    return obj


def mul_right(a: ExtNonNeg, b: ExtNonNeg) -> ExtNonNeg:
    """Scalar product rounding upper endpoints: 0 * inf = inf.

    Infinity absorbs outright, making the product continuous in each
    argument from above.  Finite unit and zero factors take the same
    exact shortcuts as in mul_left, and the finite product is mul_left's,
    written out again rather than called: interval products run both, and
    a shared helper would add a call to every one of them.
    """
    an, ad, bn, bd = a._n, a._d, b._n, b._d
    if not ad or not bd:
        return INFINITY
    if an == ad:
        return b
    if bn == bd:
        return a
    if not an or not bn:
        return ZERO
    g = gcd(an, bd)
    h = gcd(bn, ad)
    obj = _new(ExtNonNeg)
    obj._n = (an // g) * (bn // h)
    obj._d = (ad // h) * (bd // g)
    return obj


class IntervalValue:
    """A closed interval [lo, hi] with 0 <= lo <= hi <= inf.

    Ordered by reverse inclusion; see the module docstring.  The additive
    unit is [0, 0], the multiplicative unit [1, 1], and the least element
    [0, inf], which is multiplicatively absorbing.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RatLike, hi: RatLike):
        lo = ext(lo)
        hi = ext(hi)
        if not lo <= hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        _set_lo(self, lo)
        _set_hi(self, hi)

    @classmethod
    def _make(cls, lo: ExtNonNeg, hi: ExtNonNeg) -> "IntervalValue":
        # internal fast path: endpoints already known to satisfy lo <= hi
        obj = _new(cls)
        _set_lo(obj, lo)
        _set_hi(obj, hi)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("IntervalValue is immutable")

    # The two operations build their result in place, through the slot
    # descriptors, so each costs one call per endpoint and no more.

    def __add__(self, other: "IntervalValue") -> "IntervalValue":
        obj = _new(IntervalValue)
        _set_lo(obj, self.lo + other.lo)
        _set_hi(obj, self.hi + other.hi)
        return obj

    def __mul__(self, other: "IntervalValue") -> "IntervalValue":
        # A [1, 1] factor (n == d at both endpoints; infinity is (1, 0), so
        # [1, inf] is not one) returns the other operand itself: exact,
        # since mul_left(1, a) = a and mul_right(1, b) = b, infinity
        # included.  Sharing is safe because values are immutable, and it
        # lets == on normal forms stop at the identity test.
        lo, hi = self.lo, self.hi
        if lo._n == lo._d and hi._n == hi._d:
            return other
        olo, ohi = other.lo, other.hi
        if olo._n == olo._d and ohi._n == ohi._d:
            return self
        # lo <= hi is preserved: mul_left <= mul_right pointwise and both
        # are monotone in each argument.
        obj = _new(IntervalValue)
        _set_lo(obj, mul_left(lo, olo))
        _set_hi(obj, mul_right(hi, ohi))
        return obj

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalValue):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __str__(self) -> str:
        return render_interval(self)

    def __repr__(self) -> str:
        return render_interval(self)


_set_lo = IntervalValue.lo.__set__
_set_hi = IntervalValue.hi.__set__

IZERO = IntervalValue(0, 0)
IONE = IntervalValue(1, 1)
BOTTOM = IntervalValue(ZERO, INFINITY)


def ival(lo: RatLike, hi: RatLike) -> IntervalValue:
    """Convenience constructor for interval values."""
    return IntervalValue(lo, hi)


def ival_add(x: IntervalValue, y: IntervalValue) -> IntervalValue:
    """Componentwise interval sum."""
    return x + y


def ival_mul(x: IntervalValue, y: IntervalValue) -> IntervalValue:
    """Interval product [x.lo *l y.lo, x.hi *r y.hi]; commutative."""
    return x * y


def ival_leq(x: IntervalValue, y: IntervalValue) -> bool:
    """Reverse-inclusion order on interval values."""
    return x.lo <= y.lo and y.hi <= x.hi


def width(x: IntervalValue) -> ExtNonNeg:
    """hi - lo, the certified imprecision of an enclosure.

    The precise point [inf, inf] has width 0; any interval with a finite
    lower endpoint and infinite upper endpoint has width inf.
    """
    lo, hi = x.lo, x.hi
    if not hi._d:
        return ZERO if not lo._d else INFINITY
    n = hi._n * lo._d - lo._n * hi._d
    d = hi._d * lo._d
    g = gcd(n, d)
    return ExtNonNeg._make(n // g, d // g)


# ---------------------------------------------------------------------------
# Canonical text rendering, used verbatim by the CLI's JSON/CSV output.
# Finite rationals render as "p/q" (reduced, q >= 1) or bare "p" when q == 1;
# infinity renders as "inf"; intervals as "[lo,hi]".
# ---------------------------------------------------------------------------


# int() and str() take this many digits under any limit Python allows (640)
_SHORT_DIGITS = 600
_SHORT = 10**_SHORT_DIGITS


def decimal_str(n: int) -> str:
    """An integer in decimal, at any length.

    str() refuses integers of more than 4300 digits (Python's int/str
    conversion limit), so long ones are split in halves at a power of ten
    and each half is rendered on its own.  Shorter ones take str() as is.
    """
    if -_SHORT < n < _SHORT:
        return str(n)
    if n < 0:
        return "-" + decimal_str(-n)
    half = n.bit_length() * 3 // 20  # about half the digit count
    high, low = divmod(n, 10**half)
    return decimal_str(high) + decimal_str(low).rjust(half, "0")


def decimal_int(text: str) -> int:
    """The inverse of decimal_str on a run of ASCII digits, at any length.

    Runs longer than _SHORT_DIGITS are split in halves, each half parsed
    on its own and the two joined at a power of ten, so int()'s 4300-digit
    limit never applies.  Anything but ASCII digits raises ValueError.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a run of decimal digits: {text!r}")
    if len(text) <= _SHORT_DIGITS:
        return int(text)
    half = len(text) // 2
    return decimal_int(text[:-half]) * 10**half + decimal_int(text[-half:])


def _pair_str(n: int, d: int) -> str:
    return decimal_str(n) if d == 1 else f"{decimal_str(n)}/{decimal_str(d)}"


def rational_str(q) -> str:
    """A rational as 'p/q', or 'p' when q == 1, like str(Fraction) at any length."""
    return _pair_str(q.numerator, q.denominator)


def render_scalar(v: ExtNonNeg) -> str:
    return _pair_str(v._n, v._d) if v._d else "inf"


def render_interval(v: IntervalValue) -> str:
    return f"[{render_scalar(v.lo)},{render_scalar(v.hi)}]"


def parse_scalar(text: str) -> ExtNonNeg:
    """Parse 'inf', 'p' or 'p/q' back into a scalar; inverse of render_scalar.

    p and q are runs of ASCII digits of any length, q nonzero; surrounding
    whitespace is ignored.  Anything else raises ValueError.
    """
    text = text.strip()
    if text == "inf":
        return INFINITY
    num, sep, den = text.partition("/")
    n = decimal_int(num)
    d = decimal_int(den) if sep else 1
    if not d:
        raise ValueError(f"zero denominator in scalar literal {text!r}")
    g = gcd(n, d)
    return ExtNonNeg._make(n // g, d // g)


def parse_interval(text: str) -> IntervalValue:
    """Parse '[lo,hi]' back into an interval; inverse of render_interval."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not an interval literal: {text!r}")
    lo, sep, hi = text[1:-1].partition(",")
    if not sep:
        raise ValueError(f"interval literal needs two endpoints: {text!r}")
    return IntervalValue(parse_scalar(lo), parse_scalar(hi))


# ---------------------------------------------------------------------------
# The coefficient algebra R.  Scalars and intervals both carry an Abelian
# additive monoid, a commutative multiplicative monoid distributing over +,
# and a partial order under which both operations are monotone.  Test
# functions, valuations and the law suites are parameterized by one of the
# two records below so the same code runs at both value types.
# ---------------------------------------------------------------------------


class ValueAlgebra:
    """A coefficient algebra: its elements, units, operations and order.

    An immutable record; ``bottom`` is the least element of the order.
    """

    __slots__ = ("name", "element", "one", "bottom", "add", "mul", "leq", "render")

    def __init__(self, name, element, one, bottom, add, mul, leq, render):
        fields = (name, element, one, bottom, add, mul, leq, render)
        for slot, value in zip(self.__slots__, fields):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("ValueAlgebra is immutable")

    def contains(self, v) -> bool:
        return isinstance(v, self.element)

    def __repr__(self):
        return f"<algebra {self.name}>"


# The scalar product is mul_left (0 * inf = 0), the measure-theoretic
# convention, continuous from below.  The interval add/mul are the
# operators, so they dispatch through IntervalValue.__add__/__mul__,
# whatever those are bound to at call time.
SCALARS = ValueAlgebra(
    "scalar", ExtNonNeg, ONE, ZERO, operator.add, mul_left, operator.le, render_scalar
)
INTERVALS = ValueAlgebra(
    "interval", IntervalValue, IONE, BOTTOM, operator.add, operator.mul, ival_leq, render_interval
)
