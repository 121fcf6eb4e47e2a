"""Guaranteed enclosures of unit-interval integrals by dyadic refinement.

The integrator never produces an approximate number: at refinement depth n
it splits [0, 1] into the 2^n dyadic cells [(i-1)/2^n, i/2^n], evaluates an
interval-valued test function h on each cell, and returns the exact
interval

    level(n, h) = sum_i [1/2^n, 1/2^n] * h([(i-1)/2^n, i/2^n]).

Because h is monotone under reverse inclusion, the levels form an
ascending chain: each halving step rewrites a cell's weight as two halves
(distributivity) and then refines each half's argument, which can only
shrink the result interval.  Every level is therefore a certified
enclosure of the limit, and the enclosure's width is the exact price of
stopping at depth n.

Test functions are either written directly as evaluators on dyadic
intervals, or derived from a piecewise-monotone function f on [0, 1] via
the canonical extension

    ext(f)(I) = [ inf of f over I n [0,1], sup of f over I n [0,1] ],

computed exactly from piece endpoints: monotone pieces attain their
extrema at the ends of the overlap, so evaluating a cell needs no root
finding.  Piece monotonicity is declared in the input and decided exactly.
First, Descartes' rule of signs after the substitution
x = (lo + hi t)/(1 + t) bounds the roots of p' inside the segment by the
sign changes V of one integer polynomial: V == 0 proves p' keeps one
sign there, and V == 1 proves p' crosses zero once, so p turns.  Only
when V >= 2 is a Sturm sequence built, of p' or, when p' has repeated
roots, of the one square-free polynomial that Musser's gcd-only
square-free split gives for its roots of odd multiplicity; it counts
those roots inside the segment.  p' keeps its sign there exactly when
there are none, and the certificate's lowest coefficient gives that
sign.  The whole check reads the integer numerators of p', negated for
a decreasing piece, and every polynomial it builds is a list of ints
too.  A piece that fails the check must be split by the caller at its
turning point.

For a canonical extension the level is computed in closed form rather
than cell by cell.  A cell that touches no interior breakpoint lies
inside one monotone piece p, so its endpoints are p(i/2^n) and
p((i+1)/2^n); over the run of such cells i = a..b of one piece the
endpoint sums are sums of q(i) = p(i/2^n), which Newton's forward
differences give exactly from degree + 1 values:

    sum_{i=a}^{b} q(i) = sum_j (Delta^j q)(a) * C(b - a + 1, j + 1).

Only the cells that touch an interior breakpoint, at most two per
breakpoint, are read directly, since they take both pieces' values
there.  One walk over the breakpoints finds these cells, the pieces each
meets and the runs between them, so the cost of a level does not depend
on the depth.  Each piece is evaluated once per grid point strictly
inside it, at most degree + 2 times a level: a run's end values q(a)
and q(b + 1) are the ones the touched cells beside it take, and every
value at a breakpoint is read from the function's stored ends.
Hand-written test functions keep the per-cell sum, which is also the
oracle for the closed form and checks every cell against its parent, so
each level it returns ascends from the one before; canonical extensions
are monotone by construction.

A ``Polynomial`` is stored as integer coefficients over one positive
common denominator, in lowest terms (the layout of FLINT's fmpq_poly);
its rational ``coeffs`` are a view built on request.  Evaluation at p/q
is integer Horner on q^deg * f(p/q), giving the value as an unreduced
int pair (numerator, positive denominator), so a Sturm sign costs no
rational, the power sums above take forward differences of integers, and
the Sturm chain is built by pseudo-division on primitive integer parts.
A level stays in ints until it is returned.  Every value it adds has a
denominator dividing D_n = L * 2^(n M), where L is the lcm of the
pieces' denominators and of their stored end values' and M the highest
degree, so each is scaled onto D_n by an exact integer, and a level
reduces one numerator per endpoint against D_n * 2^n into its scalar
and builds no rational.
The monotonicity check runs on the breakpoint pairs too, so parsing and
integrating a piecewise literal never builds a ``fractions.Fraction``;
``range_over`` and ``breakpoints`` build them for their callers.

``refine`` is the one walk up the chain: it yields the levels from depth
0 until one is narrow enough, or up to the depth cap, and the
integrator, the chain check, the CLI and the law suites all read it.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from typing import Callable, Iterator, List, Sequence, Tuple

from .algebra import (
    IZERO,
    ExtNonNeg,
    IntervalValue,
    _finite_pair,
    _pair_str,
    _read_pair,
    ext,
    ival_leq,
    rational,
    rational_str,
)
from .errors import DepthCapExceeded, NonEvaluablePiece, NotMonotone, OutOfRange

DEFAULT_DEPTH_CAP = 24


def is_dyadic(r) -> bool:
    """True iff r is an integer multiple of some 1/2^n."""
    den = _finite_pair(r)[1]
    return den & (den - 1) == 0


class DyadicInterval:
    """A closed interval with dyadic endpoints, a point of the ground space.

    Ordered (like all intervals here) by reverse inclusion.  These are the
    arguments that test functions are evaluated at.  Immutable: equal
    endpoints make equal, equally hashed points.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = rational(lo)
        hi = rational(hi)
        if not is_dyadic(lo) or not is_dyadic(hi):
            raise ValueError(f"endpoints must be dyadic: [{rational_str(lo)}, {rational_str(hi)}]")
        if lo > hi:
            raise ValueError(f"endpoints out of order: [{rational_str(lo)}, {rational_str(hi)}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicInterval is immutable")

    def __delattr__(self, name):
        raise AttributeError("DyadicInterval is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ raises
        return self.__class__, (self.lo, self.hi)

    def refines(self, other: "DyadicInterval") -> bool:
        """True iff self is a sub-interval of other (other <= self)."""
        return other.lo <= self.lo and self.hi <= other.hi

    def __contains__(self, x) -> bool:
        return self.lo <= rational(x) <= self.hi

    def __repr__(self) -> str:
        return f"[{rational_str(self.lo)},{rational_str(self.hi)}]"


def _horner(num: Sequence[int], p: int, q: int) -> int:
    """q^deg * A(p/q) for the integer polynomial A = num, in ints.

    With q > 0 its sign is the sign of A(p/q).
    """
    acc = num[-1]
    qk = 1
    for i in range(len(num) - 2, -1, -1):
        qk *= q
        acc = acc * p + num[i] * qk
    return acc


def _mul_ints(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The product of two integer polynomials, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _binomial_row(a: int, b: int, n: int) -> List[int]:
    """The coefficients C(n, k) a^(n-k) b^k of (a + b t)^n, low degree first."""
    a_powers = [1]
    for _ in range(n):
        a_powers.append(a_powers[-1] * a)
    row = []
    b_power = 1
    for k in range(n + 1):
        row.append(comb(n, k) * a_powers[n - k] * b_power)
        b_power *= b
    return row


def _power(num: Sequence[int], n: int) -> List[int]:
    """num^n for the integer polynomial num, low degree first."""
    if len(num) == 2:
        return _binomial_row(*num, n)
    result = [1]
    while n:
        if n & 1:
            result = _mul_ints(result, num)
        n >>= 1
        if n:
            num = _mul_ints(num, num)
    return result


def _sum_ints(
    a: Sequence[int], da: int, b: Sequence[int], db: int
) -> Tuple[List[int], int]:
    """a/da + b/db as integer coefficients over lcm(da, db), untrimmed and
    with any common factor left in."""
    g = gcd(da, db)
    fa, fb = db // g, da // g
    den = da * fa
    if len(a) < len(b):
        a, b, fa, fb = b, a, fb, fa
    out = [fa * v for v in a]
    for i, v in enumerate(b):
        out[i] += fb * v
    return out, den


def _trimmed(num: List[int]) -> List[int]:
    while len(num) > 1 and not num[-1]:
        num.pop()
    return num


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> Tuple[int, List[int], List[int]]:
    """(m, Q, R) with m * a == Q * b + R, m > 0 and deg R < deg b, in ints.

    Each step cancels the top term of the running remainder against b after
    scaling it by |lead(b)|, so the multiplier m stays positive and R keeps
    the sign of the exact remainder a mod b.
    """
    d = len(b) - 1
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    r = list(a)
    q = [0] * max(1, len(r) - d)
    m = 1
    for k in range(len(r) - 1 - d, -1, -1):
        c = r[k + d]
        if not c:
            continue
        if scale != 1:
            r = [scale * v for v in r[: k + d]]
            q = [scale * v for v in q]
            m *= scale
        c *= sign
        q[k] = c
        for j in range(d):
            r[k + j] -= c * b[j]
    return m, q, _trimmed(r[:d] or [0])


def _primitive(num: Sequence[int]) -> List[int]:
    """num divided by the gcd of its entries (a positive scaling)."""
    g = gcd(*num)
    return [v // g for v in num]


def _canonical(num: List[int], den: int) -> Tuple[Tuple[int, ...], int]:
    """(num, den) with trailing zeros trimmed and the common factor removed."""
    num = _trimmed(num)
    g = gcd(den, *num)
    if g != 1:
        num = [v // g for v in num]
        den //= g
    return tuple(num), den


class Polynomial:
    """A polynomial with exact rational coefficients, low degree first.

    Stored as integer coefficients ``num`` over one positive common
    denominator ``den``, in canonical form: ``num`` has no trailing zeros,
    the gcd of its entries and ``den`` is 1, and zero is ``((0,), 1)``.
    Equal polynomials therefore have equal ``(num, den)``, which ``==`` and
    ``hash`` read.  ``coeffs``, the reduced rational coefficients, is a
    read-only view built on request.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Sequence[object]):
        pairs = [_finite_pair(c) for c in coeffs] or [(0, 1)]
        den = lcm(*(d for _, d in pairs))
        self.num, self.den = _canonical([n * (den // d) for n, d in pairs], den)

    @classmethod
    def _of(cls, num: List[int], den: int) -> "Polynomial":
        """The polynomial num / den, for den > 0, brought to canonical form."""
        poly = object.__new__(cls)
        poly.num, poly.den = _canonical(num, den)
        return poly

    @classmethod
    def constant(cls, c) -> "Polynomial":
        n, d = _finite_pair(c)
        return cls._of([n], d)

    @classmethod
    def identity(cls) -> "Polynomial":
        return cls._of([0, 1], 1)

    @property
    def coeffs(self) -> Tuple[object, ...]:
        return tuple(rational(a, self.den) for a in self.num)

    def __call__(self, x):
        return rational(*self._pair(*_finite_pair(x)))

    def _pair(self, p: int, q: int) -> Tuple[int, int]:
        """The value at p/q, for ints p and q > 0 in any common scale, as
        the unreduced ints (numerator, denominator), the latter positive."""
        return _horner(self.num, p, q), self.den * q ** (len(self.num) - 1)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._of(*_sum_ints(self.num, self.den, other.num, other.den))

    def __neg__(self) -> "Polynomial":
        return Polynomial._of([-v for v in self.num], self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._of(_mul_ints(self.num, other.num), self.den * other.den)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return Polynomial._of(_power(self.num, n), self.den ** n)

    def __divmod__(self, other: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder of division by a nonzero polynomial."""
        # m * A = Q * B + R gives A/a = (Q b / (m a)) * (B/b) + R / (m a)
        m, q, r = _pseudo_divmod(self.num, other.num)
        den = m * self.den
        return (
            Polynomial._of([v * other.den for v in q], den),
            Polynomial._of(r, den),
        )

    def derivative(self) -> "Polynomial":
        return Polynomial._of(
            [k * v for k, v in enumerate(self.num)][1:] or [0], self.den
        )

    @property
    def degree(self) -> int:
        """Degree, counting the zero polynomial as degree 0."""
        return len(self.num) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.num) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        def term(i, c):
            if i == 0:
                return rational_str(c)
            pow_part = "x" if i == 1 else f"x^{i}"
            return pow_part if c == 1 else f"{rational_str(c)}*{pow_part}"

        parts = [term(i, c) for i, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(parts) if parts else "0"


def _sturm_chain(g: Sequence[int]) -> List[Sequence[int]]:
    """g, g', then negated remainders until the last nonzero one, for the
    nonconstant integer polynomial g with a nonzero last entry.

    Every member after g is a primitive integer polynomial, a positive
    multiple of the exact remainder (see ``_pseudo_divmod``), so the signs
    at any point, and with them the Sturm counts, are the exact chain's.
    """
    chain = [g, _primitive([k * v for k, v in enumerate(g) if k])]
    while len(chain[-1]) > 1:
        rem = _pseudo_divmod(chain[-2], chain[-1])[2]
        if rem == [0]:
            break
        chain.append([-v for v in _primitive(rem)])
    return chain


def _sign(num: Sequence[int], x: Tuple[int, int]) -> int:
    """The sign of the integer polynomial num at the point x = (p, q),
    q > 0, read off the integer Horner value."""
    v = _horner(num, *x)
    return (v > 0) - (v < 0)


def _sign_changes(chain: Sequence[Sequence[int]], x: Tuple[int, int]) -> int:
    signs = [v > 0 for v in (_sign(c, x) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# Pascal's rows, the coefficients of (1 + t)^k at index k, shared by every
# call of _moebius: it extends the list to the highest degree it has met.
_PASCAL_ROWS: List[List[int]] = [[1]]


def _moebius(num: Sequence[int], lo: Tuple[int, int], hi: Tuple[int, int]) -> List[int]:
    """(q_lo q_hi)^d (1 + t)^d A((lo + hi t)/(1 + t)) for the integer
    polynomial A = num of degree d, as integer coefficients in t, for the
    points lo = (p_lo, q_lo) and hi = (p_hi, q_hi) with q_lo, q_hi > 0.

    The substitution maps t in (0, inf) onto (lo, hi), so A's roots inside
    (lo, hi) are the positive roots of the result, with the same
    multiplicities.  One homogeneous Horner pass: x = N/D with
    N = q_lo q_hi (lo + hi t) and D = q_lo q_hi (1 + t), both integral.
    Step k multiplies the running sum by the linear factor N = a + b t,
    a = p_lo q_hi and b = p_hi q_lo, and adds a coefficient times
    D^k = (q_lo q_hi)^k (1 + t)^k, built from one running power and
    Pascal's row k, in one comprehension.  The rows come from
    ``_PASCAL_ROWS``, which a call extends only past the highest degree
    any call before it has met, so once the table reaches a degree a
    check of that degree builds no row.
    """
    (lo_n, lo_d), (hi_n, hi_d) = lo, hi
    scale = lo_d * hi_d
    a, b = lo_n * hi_d, hi_n * lo_d
    rows = _PASCAL_ROWS
    while len(rows) < len(num):
        row = rows[-1]
        rows.append([u + v for u, v in zip(row + [0], [0] + row)])
    acc = [num[-1]]
    power = 1
    for row, c in zip(rows[1:], reversed(num[:-1])):
        power *= scale
        if c:
            c *= power
            acc = [a * u + b * v + c * r for u, v, r in zip(acc + [0], [0] + acc, row)]
        else:
            acc = [a * u + b * v for u, v in zip(acc + [0], [0] + acc)]
    return acc


def _odd_roots(g: Sequence[int], lo: Tuple[int, int], hi: Tuple[int, int]) -> int:
    """How many distinct roots of g in (lo, hi) have odd multiplicity,
    for a nonconstant integer polynomial g with a nonzero last entry and
    points lo < hi given as int pairs (p, q), q > 0.

    h = gcd(g, g') is the last member of g's Sturm chain, which counts when
    it is constant.  Otherwise Musser's square-free split (Geddes, Czapor
    and Labahn, "Algorithms for Computer Algebra", 1992, section 8.2)
    starts from w = g / h, which has each of g's roots once, and step i
    takes y = gcd(w, h): w / y holds the roots of multiplicity exactly i,
    and w, h = y, h / y.  It needs only gcds and exact
    quotients, and since only roots matter each quotient is the primitive
    part of a pseudo-quotient (see ``_quotient``), so every polynomial it
    builds is a primitive integer one.  One more chain counts the roots of
    the product of the w / y of odd i.
    """
    chain = _sturm_chain(g)
    h = chain[-1]
    if len(h) > 1:
        w, odd, i = _quotient(g, h), [1], 1
        while len(w) > 1:
            y = _gcd(w, h)
            if i % 2:
                odd = _mul_ints(odd, _quotient(w, y))
            w, h, i = y, _quotient(h, y), i + 1
        # a constant is its own chain, with no roots
        chain = [odd] if len(odd) == 1 else _sturm_chain(odd)
    # chain[0] is square-free: V(lo) - V(hi) counts its roots in (lo, hi]
    return _sign_changes(chain, lo) - _sign_changes(chain, hi) - (_sign(chain[0], hi) == 0)


def _quotient(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The primitive part of a / b, for integer polynomials b dividing a:
    a positive multiple of the exact quotient, with its roots."""
    return _primitive(_pseudo_divmod(a, b)[1])


def _gcd(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """A primitive gcd of integer polynomials a and b != 0, by pseudo-remainders."""
    while True:
        r = _pseudo_divmod(a, b)[2]
        if r == [0]:
            return _primitive(b)
        a, b = b, _primitive(r)


def nonnegative_on(g: Polynomial, lo, hi) -> bool:
    """Exact decision of g(x) >= 0 for every x in [lo, hi], for rationals
    lo <= hi: ``_nonnegative_on`` on g's integer numerators and the ends'
    reduced int pairs."""
    return _nonnegative_on(g.num, _finite_pair(lo), _finite_pair(hi))


def _nonnegative_on(num: Sequence[int], lo: Tuple[int, int], hi: Tuple[int, int]) -> bool:
    """Exact decision of g(x) >= 0 for every x in [lo, hi], for the integer
    polynomial g = num, with a nonzero last entry or equal to [0], and
    points lo <= hi given as int pairs (p, q), q > 0.

    num may be any positive multiple of a rational polynomial, such as a
    slope's numerators over a denominator that is never divided out: only
    signs and roots are read.  For lo < hi this is the question on
    (lo, hi): by continuity, a negative value at an end makes g negative
    just inside.  First a certificate: by Descartes' rule of signs, the
    number V of sign changes among the nonzero coefficients of
    P = ``_moebius(num)`` exceeds the number of g's roots inside (lo, hi),
    counted with multiplicity, by an even number >= 0.  V == 0 means no
    root inside, so g has the common sign of those coefficients there;
    V == 1 means exactly one root inside, a simple one, where g changes
    sign, so the answer is no.  With lo == hi every t maps to lo, so each
    coefficient carries the sign of g(lo), and the certificate answers
    g(lo) >= 0.

    When V >= 2, g >= 0 exactly when g is positive just right of lo and
    has no root of odd multiplicity inside, the only places where it
    changes sign.  As t -> 0+, x -> lo+ and P(t) takes the sign of its
    lowest nonzero coefficient, so ``signs[0]`` is g's sign just right of lo.

    The decision order and its cost: a constant g is read off its one
    entry.  Otherwise, if every coefficient of P is >= 0, V == 0 and the
    answer is yes, read off the transform without counting V.  Otherwise,
    if V <= 1, the same transform decides.  If V >= 2, ``_odd_roots``
    builds g's Sturm chain by pseudo-division; when g has repeated roots it
    takes Musser's gcds and exact quotients, one step per multiplicity up
    to the highest, on primitive integer polynomials of degree no larger
    than g's, and builds at most one more chain.  No step builds a
    ``Polynomial`` or a rational.
    """
    if len(num) == 1:
        return num[0] >= 0
    coeffs = _moebius(num, lo, hi)
    if min(coeffs) >= 0:
        return True
    signs = [c > 0 for c in coeffs if c]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    if changes == 0:
        return all(signs)
    if changes == 1:
        return False
    return signs[0] and _odd_roots(num, lo, hi) == 0


def _bisect(bps: Sequence[Tuple[int, int]], n: int, d: int, lo: int, right: bool = False) -> int:
    """bisect_left(bps, n/d, lo), or bisect_right with right set, for
    ascending points bps given as int pairs (p, q), q > 0, and d > 0."""
    hi = len(bps)
    while lo < hi:
        mid = (lo + hi) // 2
        p, q = bps[mid]
        c = p * d - n * q  # the sign of bps[mid] - n/d
        if c < 0 or (right and not c):
            lo = mid + 1
        else:
            hi = mid
    return lo


class PiecewiseMonotoneFn:
    """A nonnegative function on [0, 1] given as monotone polynomial pieces.

    Each piece carries a declared direction ('inc' or 'dec'); the
    declaration is what makes exact range computation possible (extrema of
    a monotone piece sit at the ends of any sub-segment).  Directions are
    decided exactly (see ``nonnegative_on``), and nonnegativity is checked
    at piece endpoints, which bound the range once monotonicity holds.
    Adjacent pieces may disagree at a shared breakpoint; ranges then
    include both one-sided values, which is the tight enclosure of the
    jump.

    Breakpoints, points and range ends are read by ``algebra._read_pair``
    (ints, rationals, scalars as the literal parser passes them, or text);
    an infinite breakpoint fails the order checks.  Breakpoints are stored
    once, as reduced int pairs (numerator, denominator) in ``_bps``, and
    ``breakpoints``, the rationals, is a view built on request, as
    ``Polynomial.coeffs`` is.

    Construction also builds ``_plan``, everything a closed-form level
    reads, once: (L, M, ends, records).  ``ends`` holds each piece's
    values at its left and right breakpoints, two per piece in order, as
    integer numerators over L, the lcm of their denominators (every
    piece's ``den`` divides it too); M is the highest degree; a record is
    (direction is 'inc', ``num``, L // ``den``, degree) per piece.
    ``_span`` reads ``ends``; ``range_over`` and the closed-form levels
    both call it.
    """

    __slots__ = ("pieces", "_bps", "_plan")

    def __init__(
        self,
        breakpoints: Sequence[object],
        pieces: Sequence[Tuple[str, Polynomial]],
    ):
        bps = [_read_pair(b) for b in breakpoints]
        if len(bps) < 2 or len(pieces) != len(bps) - 1:
            raise ValueError("need k+1 breakpoints for k pieces")
        if bps[0] != (0, 1) or bps[-1] != (1, 1):
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(an * bd >= bn * ad for (an, ad), (bn, bd) in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        checked = []
        ends = []
        for (direction, poly), lo, hi in zip(pieces, bps, bps[1:]):
            if direction not in ("inc", "dec"):
                raise ValueError(f"unknown direction {direction!r}")
            # the slope's numerators over poly.den, negated for a dec piece
            sign = 1 if direction == "inc" else -1
            slope = [sign * k * v for k, v in enumerate(poly.num) if k] or [0]
            if not _nonnegative_on(slope, lo, hi):
                raise NonEvaluablePiece(
                    f"piece on [{_pair_str(*lo)},{_pair_str(*hi)}] is not {direction}; "
                    f"split the segment at the turning point"
                )
            left, right = poly._pair(*lo), poly._pair(*hi)
            if (right if direction == "dec" else left)[0] < 0:
                raise ValueError(
                    f"piece on [{_pair_str(*lo)},{_pair_str(*hi)}] takes negative values"
                )
            ends += left, right
            checked.append((direction, poly))
        den = lcm(*(d for _, d in ends))
        self.pieces = tuple(checked)
        self._bps = tuple(bps)
        self._plan = (
            den,
            max(poly.degree for _, poly in checked),
            tuple(v * (den // d) for v, d in ends),
            tuple(
                (direction == "inc", poly.num, den // poly.den, poly.degree)
                for direction, poly in checked
            ),
        )

    @property
    def breakpoints(self) -> Tuple[object, ...]:
        return tuple(rational(n, d) for n, d in self._bps)

    def __call__(self, x):
        """Pointwise value; at interior breakpoints the left piece wins."""
        n, d = _finite_pair(x)
        if not 0 <= n <= d:
            raise OutOfRange(f"{_pair_str(n, d)} is outside [0, 1]")
        return rational(*self.pieces[_bisect(self._bps, n, d, 1) - 1][1]._pair(n, d))

    def range_over(self, lo, hi) -> Tuple[object, object]:
        """Exact (min, max) of the function over [lo, hi] within [0, 1].

        The ends are read as ``__call__`` reads x, into reduced int pairs.
        Finds the pieces [lo, hi] meets by bisection on the breakpoint
        pairs and passes ``_span`` the first one's value at lo and the
        last one's at hi.  A piece is evaluated only where lo or hi lies
        strictly inside it: at or left of the first piece's left end the
        value passed is its stored left end, and at its right breakpoint
        its stored right end; hi at or right of the last piece's right end,
        or at its left breakpoint, is read from ``ends`` the same way.
        Raises OutOfRange when lo > hi or [lo, hi] misses [0, 1].
        """
        lo, hi = _finite_pair(lo), _finite_pair(hi)
        if lo[0] * hi[1] > hi[0] * lo[1]:
            raise OutOfRange(f"endpoints out of order: [{_pair_str(*lo)},{_pair_str(*hi)}]")
        # pieces k with bps[k] <= hi and lo <= bps[k + 1]
        first = _bisect(self._bps, *lo, 1) - 1
        last = min(_bisect(self._bps, *hi, 0, right=True), len(self.pieces)) - 1
        if first > last:
            raise OutOfRange(f"[{_pair_str(*lo)},{_pair_str(*hi)}] misses [0, 1]")
        (s_n, s_d), (t_n, t_d) = self._bps[first], self._bps[last + 1]
        den, _, ends, _ = self._plan
        # both ends and the breakpoints are reduced pairs, so == is equality
        if lo[0] * s_d <= s_n * lo[1]:
            low = ends[2 * first], den
        elif lo == self._bps[first + 1]:
            low = ends[2 * first + 1], den
        else:
            low = self.pieces[first][1]._pair(*lo)
        if hi[0] * t_d >= t_n * hi[1]:
            high = ends[2 * last + 1], den
        elif hi == self._bps[last]:
            high = ends[2 * last], den
        else:
            high = self.pieces[last][1]._pair(*hi)
        low, high = self._span(first, last, low, high)
        return rational(*low), rational(*high)

    def _span(self, first: int, last: int, low, high) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """(min, max) over a cell of pieces first..last, the pieces that
        the cell meets, as unreduced int pairs.

        low is piece first's value at the cell's left end, or at its own
        left end when the cell starts there or before, and high is piece
        last's value at the cell's right end, or at its own right end:
        int pairs (p, q) standing for p/q with q > 0.  A monotone piece
        takes its extrema at the ends of its part of the cell, so the
        cell's are among low, high and the stored ``ends`` between them:
        piece first's right end, both ends of every piece between and
        piece last's left end.  Those share the denominator L and are
        compared as ints; low and high by cross-multiplication.
        """
        if low[0] * high[1] > high[0] * low[1]:
            low, high = high, low
        if first < last:
            den, _, ends, _ = self._plan
            inner = ends[2 * first + 1 : 2 * last + 1]
            least, greatest = min(inner), max(inner)
            if least * low[1] < low[0] * den:
                low = least, den
            if greatest * high[1] > high[0] * den:
                high = greatest, den
        return low, high

    def __repr__(self) -> str:
        segs = []
        for (direction, poly), lo, hi in zip(self.pieces, self._bps, self._bps[1:]):
            segs.append(f"[{_pair_str(*lo)},{_pair_str(*hi)}] {direction}: {poly!r}")
        return "piecewise { " + "; ".join(segs) + " }"


class IntervalTestFn:
    """An interval-valued test function on dyadic intervals.

    The evaluator must be monotone under reverse inclusion: shrinking the
    argument interval may only refine the result.  Construction evaluates
    nothing; ``lebesgue_n`` checks each cell it sums against its parent
    cell and raises NotMonotone where the order fails.
    """

    __slots__ = ("_evaluator", "name")

    def __init__(
        self,
        evaluator: Callable[[DyadicInterval], IntervalValue],
        *,
        name: str = "",
    ):
        self._evaluator = evaluator
        self.name = name

    def __call__(self, interval: DyadicInterval) -> IntervalValue:
        value = self._evaluator(interval)
        if not isinstance(value, IntervalValue):
            raise TypeError("evaluator must return an IntervalValue")
        return value

    def __repr__(self) -> str:
        return f"<test fn {self.name or 'anonymous'}>"


class CanonicalExtension(IntervalTestFn):
    """ext(f) for a piecewise-monotone f, which it keeps as ``fn``.

    ``lebesgue_n`` recognises it and sums its levels in closed form.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: PiecewiseMonotoneFn):
        super().__init__(self._range)
        self.fn = fn

    def _range(self, interval: DyadicInterval) -> IntervalValue:
        return IntervalValue(*self.fn.range_over(interval.lo, interval.hi))

    def __repr__(self) -> str:
        return f"<test fn {self.fn!r}>"


def canonical_extension(f: PiecewiseMonotoneFn) -> CanonicalExtension:
    """The tight interval extension of a piecewise-monotone function.

    Sends an interval I to [inf f, sup f] over I n [0, 1], which is
    monotone under refinement by construction.  Raises OutOfRange when I
    misses [0, 1] entirely.
    """
    return CanonicalExtension(f)


def dyadic_grid(n: int) -> List[DyadicInterval]:
    """The 2^n closed dyadic cells of depth n covering [0, 1]."""
    step = rational(1, 2 ** n)
    return [DyadicInterval(i * step, (i + 1) * step) for i in range(2 ** n)]


def _power_sums(
    num: Sequence[int], size: int, a: int, b: int, first: int, after: int
) -> Tuple[int, int]:
    """(sum of q(i), sum of q(i + 1)) over i = a..b, where q(i) =
    size^deg * A(i/size) for the integer polynomial A = num, given
    first = q(a) and after = q(b + 1).

    Newton's forward differences: the sum is sum_j (Delta^j q)(a) *
    C(b - a + 1, j + 1), and Delta^j q vanishes beyond the degree.  With
    fewer cells than coefficients the same formula sums them directly.
    Only q(a + 1), ..., q(a + deg) are evaluated here, and only those
    below b + 1.
    """
    count = b - a + 1
    diffs = [first] + [_horner(num, a + j, size) for j in range(1, min(count, len(num)))]
    total = 0
    for j in range(len(diffs)):
        # differenced in place: diffs[j] is now (Delta^j q)(a)
        total += diffs[j] * comb(count, j + 1)
        for i in range(len(diffs) - 1, j, -1):
            diffs[i] -= diffs[i - 1]
    return total, total - first + after


def _closed_form_sums(h: CanonicalExtension, n: int) -> Tuple[int, int, int]:
    """Sums over the 2^n cells of the lower and of the upper endpoints of h,
    as (lower, upper, D) for the sums lower/D and upper/D, D > 0.

    One walk over the interior breakpoints finds both kinds of cell.
    Breakpoint k + 1 touches cell i when it lies inside [i/size,
    (i+1)/size], and cells i - 1 and i when it equals i/size; each cell
    it touches meets pieces k and k + 1, and is read once, through
    ``fn._span`` over every piece it meets.  Piece k's run lies strictly
    between the last cell touching its left end and the first touching
    its right end, from cell 0 and to cell size - 1 at the ends of
    [0, 1], and is one ``_power_sums``.

    Piece k is evaluated only at grid points strictly inside it, each
    once: its run's ends q(a) and q(b + 1) are also the values that the
    touched cells beside the run take from piece k, and its value at 0
    or 1 is read off its coefficients.  A touched cell takes every other
    value, where piece k ends inside it, from the stored ``ends``.  So a
    level evaluates a piece of degree d at most d + 2 times, and a piece
    that no run of cells reaches not at all.

    Every run sum and grid value of piece k lies over den_k *
    2^(n deg_k), and every stored end over L, so all of them lie over
    D = L * 2^(n M) (see ``PiecewiseMonotoneFn``): each is scaled onto D
    by an exact integer, and the sums are never reduced here.
    """
    fn = h.fn
    den, top_degree, ends, records = fn._plan
    size = 1 << n
    shift = n * top_degree
    whole = den << shift
    top = len(records) - 1
    lower = upper = 0
    touched = {}  # cell: [first piece, last piece, value at its left end, at its right end]
    start = 0  # the first cell of piece k's run
    for k, (inc, num, scale, degree) in enumerate(records):
        if k < top:
            # the cells near..i touch breakpoint k + 1
            bn, bd = fn._bps[k + 1]
            i, r = divmod(bn << n, bd)
            near = i if r else i - 1
        else:
            near, i = size, size - 1  # the last run ends at the last cell
        if start <= near:
            # grid values over den_k * size^deg_k, and f scales them onto D
            f = scale << (shift - n * degree)
            if not start:
                at_start = num[0] << n * degree  # p(0) = num[0] / den
            elif start < size:
                at_start = _horner(num, start, size)
            else:
                at_start = sum(num) << n * degree  # p(1) = sum(num) / den
            if near == start:
                at_near = at_start
            elif near < size:
                at_near = _horner(num, near, size)
            else:
                at_near = sum(num) << n * degree
            if start < near:
                low, high = _power_sums(num, size, start, near - 1, at_start, at_near)
                if not inc:
                    low, high = high, low
                lower += low * f
                upper += high * f
            if k:
                touched[start - 1][3] = at_start * f
            if k < top:
                touched[near] = [k, k + 1, at_near * f, None]
        for c in range(near, i + 1):
            touched.setdefault(c, [k, k + 1, None, None])[1] = k + 1
        start = i + 1
    for first, last, low, high in touched.values():
        # None: the piece ends inside the cell, at a stored end
        low = (ends[2 * first + 1], den) if low is None else (low, whole)
        high = (ends[2 * last], den) if high is None else (high, whole)
        (low, low_den), (high, high_den) = fn._span(first, last, low, high)
        lower += low if low_den == whole else low << shift
        upper += high if high_den == whole else high << shift
    return lower, upper, whole


def lebesgue_n(
    n: int,
    h: IntervalTestFn,
    *,
    cap: int = DEFAULT_DEPTH_CAP,
) -> IntervalValue:
    """The depth-n enclosure: sum of uniformly weighted cell values.

    Computed entirely in interval arithmetic; equals the pair of endpoint
    sums (weighted lower endpoints, weighted upper endpoints) because the
    cell weight is finite and positive.  A canonical extension's endpoint
    sums are taken in closed form (see the module docstring), with a
    number of operations independent of n.  Any other h is summed cell
    by cell, each value checked against its parent cell's (evaluated once
    per two cells); NotMonotone names both where the order fails.  A
    PiecewiseMonotoneFn itself raises TypeError: its interval extension is
    ``canonical_extension(f)``.
    """
    if n < 0 or cap < 0:
        raise ValueError("depth must be nonnegative")
    if n > cap:
        raise DepthCapExceeded(f"depth {n} exceeds the cap {cap}", depth=cap)
    if isinstance(h, CanonicalExtension):
        lo_num, hi_num, den = _closed_form_sums(h, n)
        # each cell weighs 1/2^n; each endpoint is reduced once
        den <<= n
        g = gcd(lo_num, den)
        lo = ExtNonNeg._make(lo_num // g, den // g)
        g = gcd(hi_num, den)
        hi = ExtNonNeg._make(hi_num // g, den // g)
        if lo._n * hi._d > hi._n * lo._d:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        return IntervalValue._make(lo, hi)
    if isinstance(h, PiecewiseMonotoneFn):
        raise TypeError(
            "a PiecewiseMonotoneFn is not an interval test function; "
            "pass canonical_extension(f)"
        )
    step = rational(1, 2 ** n)
    w = IntervalValue(step, step)
    acc = IZERO
    for i, cell in enumerate(dyadic_grid(n)):
        value = h(cell)
        if n:
            if not i & 1:
                parent = DyadicInterval(cell.lo, cell.lo + 2 * step)
                bound = h(parent)
            if not ival_leq(bound, value):
                raise NotMonotone(
                    f"evaluator is not monotone under refinement at "
                    f"{parent} -> {cell}"
                )
        acc = acc + w * value
    return acc


def _within(level: IntervalValue, eps: ExtNonNeg) -> bool:
    """width(level) <= eps, decided on the endpoints without building the
    width: for finite ends lo = a/b and hi = c/d and eps = e/f,
    (c b - a d) / (b d) <= e / f is (c b - a d) f <= e b d.  [inf, inf]
    has width 0 and [a, inf] width inf, as ``width`` reads them."""
    lo, hi = level.lo, level.hi
    if not hi._d:
        return not lo._d or not eps._d
    if not eps._d:
        return True
    return (hi._n * lo._d - lo._n * hi._d) * eps._d <= eps._n * hi._d * lo._d


def refine(
    h: IntervalTestFn, eps, *, cap: int = DEFAULT_DEPTH_CAP
) -> Iterator[Tuple[int, IntervalValue]]:
    """Yield (n, level n) from depth 0 until a level's width is at most eps.

    If the cap comes first, the cap level is still yielded and then
    DepthCapExceeded is raised, carrying that level and the cap.  With eps
    None there is no width target, and the walk ends at the cap.  This is
    the one loop over refinement depths in the library.  NotMonotone
    propagates from the first level of a hand-written h that shows it.
    A negative cap raises ValueError, at the first step of the walk.
    """
    if cap < 0:
        raise ValueError("depth must be nonnegative")
    eps = None if eps is None else ext(eps)
    level = None
    for n in range(cap + 1):
        level = lebesgue_n(n, h, cap=cap)
        yield n, level
        if eps is not None and _within(level, eps):
            return
    if eps is not None:
        message = f"width target {eps} not reached by depth {cap}"
        raise DepthCapExceeded(message, enclosure=level, depth=cap)


def lebesgue_integrate(
    h: IntervalTestFn,
    eps,
    *,
    cap: int = DEFAULT_DEPTH_CAP,
) -> Tuple[IntervalValue, int]:
    """Refine until the enclosure width is at most eps.

    Returns (enclosure, depth) for the smallest depth n <= cap with
    width(level n) <= eps.  Every returned interval is a certified
    enclosure of the limit from below in the refinement order.  If the cap
    is hit first, raises DepthCapExceeded carrying the deepest enclosure
    computed, so callers still see the best certified result.
    """
    eps = ext(eps)
    if eps.is_infinite or eps.is_zero:
        raise ValueError("eps must be a positive rational width target")
    *_, (depth, enclosure) = refine(h, eps, cap=cap)
    return enclosure, depth


def ascends(levels: Sequence[IntervalValue]) -> bool:
    """Exact check that each level lies below the next in the refinement order."""
    return all(ival_leq(a, b) for a, b in zip(levels, levels[1:]))


def chain_check(h: IntervalTestFn, n_max: int) -> bool:
    """Exact check that the dyadic levels ascend up to depth n_max.

    n_max may not exceed DEFAULT_DEPTH_CAP, and a negative n_max raises
    ValueError (through ``refine``).  NotMonotone propagates from a
    hand-written h (see ``lebesgue_n``).
    """
    cap = DEFAULT_DEPTH_CAP
    if n_max > cap:
        raise DepthCapExceeded(f"depth {n_max} exceeds the cap {cap}", depth=cap)
    return ascends([level for _, level in refine(h, None, cap=n_max)])

