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

Everything here is immutable and pure; values are safe to share across
threads.  Endpoints are arbitrary-precision rationals in reduced form,
never floats, so every algebraic identity in this library can be checked
with exact equality.  ``gmpy2.mpq`` is used when available (same semantics,
much faster); otherwise ``fractions.Fraction``.
"""

from __future__ import annotations

from typing import Sequence, Union

from .errors import NotAChain

try:  # pragma: no cover - exercised indirectly by the whole suite
    from gmpy2 import mpq as _ratio
except ImportError:  # pragma: no cover
    from fractions import Fraction as _ratio

RatLike = Union[int, str, "ExtNonNeg"]


def rational(value, denominator=None):
    """Build an exact rational (reduced form) from ints, strings or rationals.

    Floats are rejected outright: a binary float smuggled in would carry
    rounding error while looking exact downstream.
    """
    if isinstance(value, float) or isinstance(denominator, float):
        raise TypeError("floats are not exact; pass a rational, int or string")
    if denominator is None:
        return _ratio(value)
    return _ratio(value, denominator)


class ExtNonNeg:
    """An exact nonnegative rational, or the distinguished value infinity.

    Infinity is a tag, not a large sentinel number: it compares strictly
    greater than every finite value and absorbs addition.  Finite values
    are stored in canonical reduced form.
    """

    __slots__ = ("_num",)

    def __init__(self, value: RatLike = 0):
        if isinstance(value, ExtNonNeg):
            self._num = value._num
            return
        if isinstance(value, str) and value.strip() == "inf":
            self._num = None
            return
        num = rational(value)
        if num < 0:
            raise ValueError(f"extended nonnegative value must be >= 0, got {num}")
        self._num = num

    @classmethod
    def _make(cls, num) -> "ExtNonNeg":
        # internal fast path: num is a reduced nonnegative rational or None
        obj = object.__new__(cls)
        obj._num = num
        return obj

    @property
    def is_infinite(self) -> bool:
        return self._num is None

    @property
    def is_zero(self) -> bool:
        return self._num is not None and self._num == 0

    @property
    def value(self):
        """The underlying rational; raises on infinity."""
        if self._num is None:
            raise ValueError("infinity has no finite rational value")
        return self._num

    def __add__(self, other: "ExtNonNeg") -> "ExtNonNeg":
        if self._num is None or other._num is None:
            return INFINITY
        return ExtNonNeg._make(self._num + other._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtNonNeg):
            return NotImplemented
        return self._num == other._num

    def __hash__(self) -> int:
        return hash(self._num) if self._num is not None else hash("inf-tag")

    def __le__(self, other: "ExtNonNeg") -> bool:
        if other._num is None:
            return True
        if self._num is None:
            return False
        return self._num <= other._num

    def __lt__(self, other: "ExtNonNeg") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "ExtNonNeg") -> bool:
        return other <= self

    def __gt__(self, other: "ExtNonNeg") -> bool:
        return other < self

    def __str__(self) -> str:
        return render_scalar(self)

    def __repr__(self) -> str:
        return render_scalar(self)


INFINITY = ExtNonNeg._make(None)
ZERO = ExtNonNeg(0)
ONE = ExtNonNeg(1)


def ext(value: RatLike) -> ExtNonNeg:
    """Coerce ints, rationals, 'inf' or ExtNonNeg into an ExtNonNeg."""
    return value if isinstance(value, ExtNonNeg) else ExtNonNeg(value)


def ext_add(a: ExtNonNeg, b: ExtNonNeg) -> ExtNonNeg:
    """Exact scalar sum; infinity absorbs."""
    return a + b


def mul_left(a: ExtNonNeg, b: ExtNonNeg) -> ExtNonNeg:
    """Scalar product rounding lower endpoints: 0 * inf = 0.

    Equals the ordinary product whenever neither rule 0 * inf applies.
    This is the product under which zero wins against infinity, making
    the product continuous in each argument from below.

    After the infinity rules, a unit factor returns the other operand and
    a zero factor returns ZERO.  Both are exact identities (compared by
    value, so any rational 1 or 0 qualifies) that skip the rational
    product most law-suite products would otherwise pay for.
    """
    an, bn = a._num, b._num
    if an is None:
        return ZERO if bn == 0 else INFINITY
    if bn is None:
        return ZERO if an == 0 else INFINITY
    if an == 1:
        return b
    if bn == 1:
        return a
    if an == 0 or bn == 0:
        return ZERO
    return ExtNonNeg._make(an * bn)


def mul_right(a: ExtNonNeg, b: ExtNonNeg) -> ExtNonNeg:
    """Scalar product rounding upper endpoints: 0 * inf = inf.

    Infinity absorbs outright, making the product continuous in each
    argument from above.  Finite unit and zero factors take the same
    exact shortcuts as in mul_left.
    """
    an, bn = a._num, b._num
    if an is None or bn is None:
        return INFINITY
    if an == 1:
        return b
    if bn == 1:
        return a
    if an == 0 or bn == 0:
        return ZERO
    return ExtNonNeg._make(an * bn)


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
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _make(cls, lo: ExtNonNeg, hi: ExtNonNeg) -> "IntervalValue":
        # internal fast path: endpoints already known to satisfy lo <= hi
        obj = object.__new__(cls)
        object.__setattr__(obj, "lo", lo)
        object.__setattr__(obj, "hi", hi)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("IntervalValue is immutable")

    def __add__(self, other: "IntervalValue") -> "IntervalValue":
        return IntervalValue._make(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "IntervalValue") -> "IntervalValue":
        # lo <= hi is preserved: mul_left <= mul_right pointwise and both
        # are monotone in each argument.
        return IntervalValue._make(
            mul_left(self.lo, other.lo), mul_right(self.hi, other.hi)
        )

    def leq(self, other: "IntervalValue") -> bool:
        """Reverse-inclusion order: self <= other iff other refines self."""
        return self.lo <= other.lo and other.hi <= self.hi

    @property
    def is_precise(self) -> bool:
        return self.lo == self.hi

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
    if x.hi._num is None:
        return ZERO if x.lo._num is None else INFINITY
    return ExtNonNeg._make(x.hi._num - x.lo._num)


def chain_sup(xs: Sequence[IntervalValue]) -> IntervalValue:
    """Supremum of a finite ascending chain: [max of los, min of his].

    For an ascending chain that is just its last element, but computing
    both endpoints keeps this honest.  Raises NotAChain if a consecutive
    pair violates the order; this function never claims to compute limits
    of infinite families.
    """
    xs = list(xs)
    if not xs:
        raise NotAChain("chain_sup needs at least one interval")
    for a, b in zip(xs, xs[1:]):
        if not ival_leq(a, b):
            raise NotAChain(f"not ascending: {a} then {b}")
    lo = max((x.lo for x in xs), default=ZERO)
    hi = min((x.hi for x in xs), default=INFINITY)
    return IntervalValue._make(lo, hi)


# ---------------------------------------------------------------------------
# Canonical text rendering, used verbatim by the CLI's JSON/CSV output.
# Finite rationals render as "p/q" (reduced, q >= 1) or bare "p" when q == 1;
# infinity renders as "inf"; intervals as "[lo,hi]".
# ---------------------------------------------------------------------------


_SHORT = 1 << 2000  # under 640 digits, the least limit Python allows


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


def rational_str(q) -> str:
    """A rational as 'p/q', or 'p' when q == 1, like str(Fraction) at any length."""
    if q.denominator == 1:
        return decimal_str(q.numerator)
    return f"{decimal_str(q.numerator)}/{decimal_str(q.denominator)}"


def render_scalar(v: ExtNonNeg) -> str:
    return "inf" if v._num is None else rational_str(v._num)


def render_interval(v: IntervalValue) -> str:
    return f"[{render_scalar(v.lo)},{render_scalar(v.hi)}]"


def parse_scalar(text: str) -> ExtNonNeg:
    """Parse 'inf', 'p' or 'p/q' back into a scalar; inverse of render_scalar."""
    text = text.strip()
    if text == "inf":
        return INFINITY
    if "/" in text:
        num, _, den = text.partition("/")
        return ExtNonNeg(rational(int(num), int(den)))
    return ExtNonNeg(int(text))


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
# The shared algebra interface.  Scalars and intervals both carry an Abelian
# additive monoid, a commutative multiplicative monoid distributing over +,
# and a partial order under which both operations are monotone.  Test
# functions, valuations and the law suites are parameterized by one of the
# two instances below so the same code runs at both value types.
# ---------------------------------------------------------------------------


class ValueAlgebra:
    """Interface shared by the scalar and interval coefficient algebras."""

    name: str

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    @property
    def bottom(self):
        """Least element of the order (equals zero for scalars)."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def contains(self, v) -> bool:
        raise NotImplementedError

    def render(self, v) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<algebra {self.name}>"


class _ScalarAlgebra(ValueAlgebra):
    """Extended nonnegative rationals with the lower-endpoint product.

    The product is mul_left (0 * inf = 0), which is the standard convention
    for measure-theoretic scalars and is continuous from below.
    """

    name = "scalar"

    @property
    def zero(self):
        return ZERO

    @property
    def one(self):
        return ONE

    @property
    def bottom(self):
        return ZERO

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return mul_left(a, b)

    def leq(self, a, b):
        return a <= b

    def contains(self, v):
        return isinstance(v, ExtNonNeg)

    def render(self, v):
        return render_scalar(v)


class _IntervalAlgebra(ValueAlgebra):
    """Interval values under reverse inclusion."""

    name = "interval"

    @property
    def zero(self):
        return IZERO

    @property
    def one(self):
        return IONE

    @property
    def bottom(self):
        return BOTTOM

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def leq(self, a, b):
        return ival_leq(a, b)

    def contains(self, v):
        return isinstance(v, IntervalValue)

    def render(self, v):
        return render_interval(v)


SCALARS = _ScalarAlgebra()
INTERVALS = _IntervalAlgebra()
