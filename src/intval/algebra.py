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
Where [0, 0] does not absorb (above), [0, inf] does: mul_left(0, c) = 0
and mul_right(inf, d) = inf for every c and d, so past the unit test an
interval product with a [0, inf] factor returns that factor itself.  The
rule is interval-only: the endpoint rules it skips return ZERO and
INFINITY already, so it has no scalar copy to keep in step with.  Values
are immutable, so sharing one is safe, and results that share their
inputs' coefficients compare equal at the identity test, which makes == on
normal forms (tuples of terms) cheap.
``ExtNonNeg.value`` builds the exact ``fractions.Fraction`` on demand for
callers that compute with rationals, and ``rational`` builds Fractions.
Both build them through ``_fraction``, the one place that imports
``fractions``, on its first call, and every other Fraction in the library
is built through ``rational``, so a caller that stays on reduced pairs
(the CLI's ``integrate`` and ``eval``) never loads ``fractions``, nor
``decimal`` and ``numbers`` with it.
Text has one grammar, 'inf', 'p' or 'p/q' at any length, and every number
a caller hands the library is read one way: ``_read_pair`` returns its
reduced int pair, (1, 0) for infinity, from an int, a scalar, a Fraction
(its own numerator and denominator) or text, and raises TypeError on a
float.  Text goes through ``_text_pair``, which ``parse_scalar``, the
inverse of ``render_scalar``, shares; a leading '-' is read except in a
scalar.  Its callers are ``rational``, ``ExtNonNeg`` and ``ext`` here, and
in ``lebesgue`` ``Polynomial`` (coefficients, ``constant`` and calls),
``nonnegative_on``, ``is_dyadic``, ``PiecewiseMonotoneFn`` (breakpoints,
calls and ``range_over``) and, through ``rational``, ``DyadicInterval``
(its ends and ``in``).
Those that need a finite value read through ``_finite_pair``, one
ValueError on infinity.  The literal parsers read their own tokens, with
positions in their errors and a cap on digits.

There is one arithmetic path.  The law suites spend their time in these
few int operations, not in a rational type, so a faster rational library
would not speed them up, and a second backend would be a second path whose
output bytes nothing here could check.  Each scalar rule is written twice,
once as the scalar function and once inside the interval operation, each
of which runs in one frame on the reduced pairs: ``IntervalValue.__add__``
carries ExtNonNeg.__add__ for both endpoints, ``IntervalValue.__mul__``
carries mul_left for the lower endpoint and mul_right for the upper one
(0 * inf, unit and zero shortcuts included; the [0, inf] factor rule
has no scalar counterpart), ``IntervalValue.__eq__``
carries ExtNonNeg.__eq__ and ``ival_leq`` carries ExtNonNeg.__le__.  The
copies are tied to the scalar functions by test, not by a call:
TestProductsAgainstReference in tests/test_algebra.py checks the scalar
functions and the interval operations against one Fraction model.  The
unit and [0, inf] shortcuts are not a second path: every interval product
that is computed dispatches through ``IntervalValue.__mul__``, which tests
for [1, 1] and then [0, inf] on the reduced pairs before either endpoint
rule.  One caller computes none:
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
from math import gcd
from typing import Tuple, Union

RatLike = Union[int, str, "Fraction", "ExtNonNeg"]

_new = object.__new__


def _fraction(*args) -> "Fraction":
    """fractions.Fraction(*args).  The first call imports fractions and
    rebinds this name to the class, so that only code that builds a
    Fraction loads the module, and later calls cost what Fraction's do."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(*args)


_FLOATS = "floats are not exact; pass a rational, int or string"
_INFINITE = "infinity has no finite rational value"


def rational(value, denominator=None) -> "Fraction":
    """Build an exact rational (reduced form).

    One argument is read by ``_read_pair`` and must be finite; two are
    handed to Fraction.  Floats are rejected outright: a binary float
    smuggled in would carry rounding error while looking exact downstream.
    """
    if denominator is None:
        n, d = _read_pair(value)
        if not d:
            raise ValueError(_INFINITE)
        # Fraction(n) skips the gcd that Fraction(n, d) takes
        return _fraction(n) if d == 1 else _fraction(n, d)
    if isinstance(value, float) or isinstance(denominator, float):
        raise TypeError(_FLOATS)
    return _fraction(value, denominator)


def _read_pair(value, signed: bool = True) -> Tuple[int, int]:
    """The reduced int pair (n, d), d >= 1, of a number a caller hands the
    library, or (1, 0) for infinity; the one reader of such numbers.

    Reads ints, scalars, Fractions (their own numerator and denominator)
    and text in ``parse_scalar``'s grammar at any length, after one '-'
    when ``signed``.  Floats raise TypeError; anything else goes to
    Fraction, which reads other exact rationals and raises TypeError.
    """
    if type(value) is int:
        return value, 1
    if isinstance(value, ExtNonNeg):
        return value._n, value._d
    if type(value) is _fraction:
        return value.as_integer_ratio()
    if isinstance(value, str):
        text = value.strip()
        if signed and text[:1] == "-":
            n, d = _text_pair(text[1:])
            if d:
                return -n, d
        return _text_pair(text)
    if isinstance(value, float):
        raise TypeError(_FLOATS)
    return _fraction(value).as_integer_ratio()


def _finite_pair(value) -> Tuple[int, int]:
    """``_read_pair(value)`` for callers that need a finite value."""
    n, d = _read_pair(value)
    if not d:
        raise ValueError(_INFINITE)
    return n, d


class ExtNonNeg:
    """An exact nonnegative rational, or the distinguished value infinity.

    Infinity is a tag, not a large sentinel number: it compares strictly
    greater than every finite value and absorbs addition.  Stored as the
    reduced pair (numerator, denominator), with denominator 0 for infinity;
    see the module docstring.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, value: RatLike = 0):
        # the reader's first case, inline: a call would add a third to
        # the time of the commonest construction, from an int
        if type(value) is int:
            n, d = value, 1
        else:
            n, d = _read_pair(value, False)
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
    def value(self) -> "Fraction":
        """The exact rational value; raises on infinity."""
        if not self._d:
            raise ValueError(_INFINITE)
        return _fraction(self._n, self._d)

    def __add__(self, other: "ExtNonNeg") -> "ExtNonNeg":
        # a non-scalar raises AttributeError here, so Python raises TypeError
        try:
            bn, bd = other._n, other._d
        except AttributeError:
            return NotImplemented
        ad = self._d
        if not ad or not bd:
            return INFINITY
        n = self._n * bd + bn * ad
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

    def __reduce__(self):
        # copy and pickle, at every protocol, rebuild through the checked text path
        return self.__class__, (render_scalar(self),)

    # Orderings are between scalars only: against anything else they return
    # NotImplemented, so Python raises TypeError.  A non-scalar is told by
    # the AttributeError it raises at other._d, so a scalar pays no check.

    def __le__(self, other: "ExtNonNeg") -> bool:
        try:
            od = other._d
        except AttributeError:
            return NotImplemented
        if not od:
            return True
        if not self._d:
            return False
        return self._n * od <= other._n * self._d

    def __lt__(self, other: "ExtNonNeg") -> bool:
        try:
            od = other._d
        except AttributeError:
            return NotImplemented
        if not self._d:
            return False
        if not od:
            return True
        return self._n * od < other._n * self._d

    def __ge__(self, other: "ExtNonNeg") -> bool:
        try:
            other._d
        except AttributeError:
            return NotImplemented
        return other <= self

    def __gt__(self, other: "ExtNonNeg") -> bool:
        try:
            other._d
        except AttributeError:
            return NotImplemented
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
    written out again rather than called.  Interval products do not call
    either function: ``IntervalValue.__mul__`` carries its own copy of
    both rules (see the module docstring), and the scalar functions stay
    the reference it is tested against.
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

    def __delattr__(self, name):
        raise AttributeError("IntervalValue is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ raises
        return self.__class__, (self.lo, self.hi)

    # Each operation is one frame: it reads the endpoints' reduced pairs
    # and builds its result in place, through the slot descriptors, with
    # the scalar rules written out rather than called (see the module
    # docstring for which rule lives where and the test that ties them).
    # The other operand's pairs are read first: a non-interval raises
    # AttributeError there, and NotImplemented makes Python raise TypeError.

    def __add__(self, other: "IntervalValue") -> "IntervalValue":
        lo, hi = self.lo, self.hi
        try:
            olo, ohi = other.lo, other.hi
            cn, cd, en, ed = olo._n, olo._d, ohi._n, ohi._d
        except AttributeError:
            return NotImplemented
        obj = _new(IntervalValue)
        ad = lo._d
        if ad and cd:
            n = lo._n * cd + cn * ad
            d = ad * cd
            g = gcd(n, d)
            s = _new(ExtNonNeg)
            s._n = n // g
            s._d = d // g
            _set_lo(obj, s)
        else:
            _set_lo(obj, INFINITY)
        ad = hi._d
        if ad and ed:
            n = hi._n * ed + en * ad
            d = ad * ed
            g = gcd(n, d)
            s = _new(ExtNonNeg)
            s._n = n // g
            s._d = d // g
            _set_hi(obj, s)
        else:
            _set_hi(obj, INFINITY)
        return obj

    def __mul__(self, other: "IntervalValue") -> "IntervalValue":
        # A [1, 1] factor (n == d at both endpoints; infinity is (1, 0), so
        # [1, inf] is not one) returns the other operand itself: exact,
        # since mul_left(1, a) = a and mul_right(1, b) = b, infinity
        # included.  Past the units, a [0, inf] factor (n == 0 below,
        # d == 0 above) returns itself: exact, since mul_left(0, c) = 0 and
        # mul_right(inf, d) = inf for every c and d.  Sharing is safe
        # because values are immutable, and it lets == on normal forms
        # stop at the identity test.
        lo, hi = self.lo, self.hi
        try:
            olo, ohi = other.lo, other.hi
            cn, cd, en, ed = olo._n, olo._d, ohi._n, ohi._d
        except AttributeError:
            return NotImplemented
        an, ad, bn, bd = lo._n, lo._d, hi._n, hi._d
        if an == ad and bn == bd:
            return other
        if cn == cd and en == ed:
            return self
        if not an and not bd:
            return self
        if not cn and not ed:
            return other
        # lo <= hi is preserved: mul_left <= mul_right pointwise and both
        # are monotone in each argument.
        obj = _new(IntervalValue)
        # lower endpoint: mul_left(lo, olo), 0 * inf = 0
        if not ad:
            _set_lo(obj, INFINITY if cn else ZERO)
        elif not cd:
            _set_lo(obj, INFINITY if an else ZERO)
        elif an == ad:
            _set_lo(obj, olo)
        elif cn == cd:
            _set_lo(obj, lo)
        elif not an or not cn:
            _set_lo(obj, ZERO)
        else:
            g = gcd(an, cd)
            h = gcd(cn, ad)
            s = _new(ExtNonNeg)
            s._n = (an // g) * (cn // h)
            s._d = (ad // h) * (cd // g)
            _set_lo(obj, s)
        # upper endpoint: mul_right(hi, ohi), 0 * inf = inf
        if not bd or not ed:
            _set_hi(obj, INFINITY)
        elif bn == bd:
            _set_hi(obj, ohi)
        elif en == ed:
            _set_hi(obj, hi)
        elif not bn or not en:
            _set_hi(obj, ZERO)
        else:
            g = gcd(bn, ed)
            h = gcd(en, bd)
            s = _new(ExtNonNeg)
            s._n = (bn // g) * (en // h)
            s._d = (bd // h) * (ed // g)
            _set_hi(obj, s)
        return obj

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalValue):
            return NotImplemented
        lo, hi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        return lo._n == olo._n and lo._d == olo._d and hi._n == ohi._n and hi._d == ohi._d

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
    """Reverse-inclusion order on interval values: x.lo <= y.lo and y.hi <= x.hi.

    The two scalar comparisons are ExtNonNeg.__le__'s, written out on the
    reduced pairs (see IntervalValue's operations).
    """
    lo, olo, ohi, hi = x.lo, y.lo, y.hi, x.hi
    d = olo._d
    if d:
        ld = lo._d
        if not ld or lo._n * d > olo._n * ld:
            return False
    d = hi._d
    if not d:
        return True
    od = ohi._d
    return od != 0 and ohi._n * d <= hi._n * od


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
    return ExtNonNeg._make(*_text_pair(text.strip()))


def _text_pair(text: str) -> Tuple[int, int]:
    """'inf', 'p' or 'p/q' as a reduced pair, (1, 0) for inf; the grammar
    of ``parse_scalar`` and ``_read_pair``."""
    if text == "inf":
        return 1, 0
    num, sep, den = text.partition("/")
    n = decimal_int(num)
    d = decimal_int(den) if sep else 1
    if not d:
        raise ValueError(f"zero denominator in scalar literal {text!r}")
    g = gcd(n, d)
    return n // g, d // g


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

    def __delattr__(self, name):
        raise AttributeError("ValueAlgebra is immutable")

    def __reduce__(self):
        # The library compares algebras with `is`, so SCALARS and INTERVALS
        # reduce to their module-level names: pickle stores the name and
        # loads the record itself, and copy returns it as is.  Any other
        # record is rebuilt from its fields.
        for name in ("SCALARS", "INTERVALS"):
            if globals()[name] is self:
                return name
        return self.__class__, tuple(getattr(self, slot) for slot in self.__slots__)

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
