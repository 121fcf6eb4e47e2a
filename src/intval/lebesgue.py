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
when V >= 2 do Sturm sequences over the rationals, one per multiplicity
level of p', count its roots of odd multiplicity inside the segment: p'
keeps its sign there exactly when there are none, and the certificate's
lowest coefficient gives that sign.  A piece that fails the check must
be split by the caller at its turning point.

For a canonical extension the level is computed in closed form rather
than cell by cell.  A cell that touches no interior breakpoint lies
inside one monotone piece p, so its endpoints are p(i/2^n) and
p((i+1)/2^n); over the run of such cells i = a..b of one piece the
endpoint sums are sums of q(i) = p(i/2^n), which Newton's forward
differences give exactly from degree + 1 values:

    sum_{i=a}^{b} q(i) = sum_j (Delta^j q)(a) * C(b - a + 1, j + 1).

Only the at most two cells per interior breakpoint that touch it are
evaluated directly, since they take both pieces' values there; the
pieces each one meets are found by integer index, and the cost of a
level does not depend on the depth.  Hand-written test functions
keep the per-cell sum, which is also the oracle for the closed form and
checks every cell against its parent, so each level it returns ascends
from the one before; canonical extensions are monotone by construction.

A ``Polynomial`` is stored as integer coefficients over one positive
common denominator, in lowest terms (the layout of FLINT's fmpq_poly);
its rational ``coeffs`` are a view built on request.  Evaluation at p/q
is integer Horner on q^deg * f(p/q), giving the value as an unreduced
int pair (numerator, positive denominator), so a Sturm sign costs no
rational, the power sums above take forward differences of integers, and
the Sturm chain is built by pseudo-division on primitive integer parts.
A level stays in ints until it is returned: piece ranges and cell values
are int pairs, compared by cross-multiplication, and the endpoint sums
are kept over the lcm of their denominators, so a level builds one
rational per endpoint.  ``range_over`` likewise reduces its pair once.

``refine`` is the one walk up the chain: it yields the levels from depth
0 until one is narrow enough, or up to the depth cap, and the
integrator, the chain check, the CLI and the law suites all read it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb, gcd, lcm
from typing import Callable, Iterator, List, Sequence, Tuple

from .algebra import (
    IZERO,
    IntervalValue,
    ext,
    ival_leq,
    rational,
    rational_str,
    width,
)
from .errors import DepthCapExceeded, NonEvaluablePiece, NotMonotone, OutOfRange

DEFAULT_DEPTH_CAP = 24

_ZERO_RAT = rational(0)


def is_dyadic(r) -> bool:
    """True iff r is an integer multiple of some 1/2^n."""
    den = int(r.denominator)
    return den & (den - 1) == 0


@dataclass(frozen=True, slots=True)
class DyadicInterval:
    """A closed interval with dyadic endpoints, a point of the ground space.

    Ordered (like all intervals here) by reverse inclusion.  These are the
    arguments that test functions are evaluated at.
    """

    lo: object
    hi: object

    def __post_init__(self):
        object.__setattr__(self, "lo", rational(self.lo))
        object.__setattr__(self, "hi", rational(self.hi))
        if not is_dyadic(self.lo) or not is_dyadic(self.hi):
            raise ValueError(f"endpoints must be dyadic: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"endpoints out of order: [{self.lo}, {self.hi}]")

    def refines(self, other: "DyadicInterval") -> bool:
        """True iff self is a sub-interval of other (other <= self)."""
        return other.lo <= self.lo and self.hi <= other.hi

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


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
        cs = [rational(c) for c in coeffs] or [_ZERO_RAT]
        den = lcm(*(c.denominator for c in cs))
        self.num, self.den = _canonical(
            [c.numerator * (den // c.denominator) for c in cs], den
        )

    @classmethod
    def _of(cls, num: List[int], den: int) -> "Polynomial":
        """The polynomial num / den, for den > 0, brought to canonical form."""
        poly = object.__new__(cls)
        poly.num, poly.den = _canonical(num, den)
        return poly

    @classmethod
    def constant(cls, c) -> "Polynomial":
        c = rational(c)
        return cls._of([c.numerator], c.denominator)

    @classmethod
    def identity(cls) -> "Polynomial":
        return cls._of([0, 1], 1)

    @property
    def coeffs(self) -> Tuple[object, ...]:
        return tuple(rational(a, self.den) for a in self.num)

    def __call__(self, x):
        return rational(*self._pair(x.numerator, x.denominator))

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


def _sturm_chain(g: Polynomial) -> List[Polynomial]:
    """g, g', then negated remainders until the last nonzero one.

    Every member after g is a primitive integer polynomial, a positive
    multiple of the exact remainder (see ``_pseudo_divmod``), so the signs
    at any point, and with them the Sturm counts, are the exact chain's.
    """
    chain = [g, Polynomial._of(_primitive(g.derivative().num), 1)]
    while not chain[-1].is_constant:
        rem = _pseudo_divmod(chain[-2].num, chain[-1].num)[2]
        if rem == [0]:
            break
        chain.append(Polynomial._of([-v for v in _primitive(rem)], 1))
    return chain


def _sign(poly: Polynomial, x) -> int:
    """The sign of poly(x), read off the integer Horner value."""
    v = _horner(poly.num, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def _sign_changes(chain: Sequence[Polynomial], x) -> int:
    signs = [v > 0 for v in (_sign(c, x) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _moebius(num: Sequence[int], lo, hi) -> List[int]:
    """(q_lo q_hi)^d (1 + t)^d A((lo + hi t)/(1 + t)) for the integer
    polynomial A = num of degree d, as integer coefficients in t.

    The substitution maps t in (0, inf) onto (lo, hi), so A's roots inside
    (lo, hi) are the positive roots of the result, with the same
    multiplicities.  One homogeneous Horner pass: x = N/D with
    N = q_lo q_hi (lo + hi t) and D = q_lo q_hi (1 + t), both integral.
    Step k adds a coefficient times D^k = (q_lo q_hi)^k (1 + t)^k, built
    from one running power and one Pascal row.
    """
    scale = lo.denominator * hi.denominator
    n = (lo.numerator * hi.denominator, hi.numerator * lo.denominator)
    acc = [num[-1]]
    power, row = 1, [1]
    for c in reversed(num[:-1]):
        acc = _mul_ints(acc, n)
        power *= scale
        row = [a + b for a, b in zip(row + [0], [0] + row)]
        if c:
            c *= power
            acc = [a + c * b for a, b in zip(acc, row)]
    return acc


def _odd_roots(g: Polynomial, lo, hi) -> int:
    """How many distinct roots of g in (lo, hi) have odd multiplicity,
    for nonconstant g and lo < hi.

    h_1 = g and h_(j+1) = gcd(h_j, h_j'), the last member of h_j's Sturm
    chain, give square-free parts h_j / h_(j+1) whose roots are g's roots
    of multiplicity >= j (Yun), so with N_j their counts inside,
    N_1 - N_2 + N_3 - ... counts each root of odd multiplicity once.  When
    every root of h_j is double, its square-free part is h_(j+1) up to a
    constant: h_(j+1) is square-free, N_(j+1) = N_j, and the sum ends with
    N_j - N_j, so neither count is taken.
    """
    total, sign = 0, 1
    chain = _sturm_chain(g)
    while True:
        gcd_part = chain[-1]
        if not gcd_part.is_constant:
            part = divmod(chain[0], gcd_part)[0]
            if _proportional(part.num, gcd_part.num):
                return total
            chain = _sturm_chain(part)
        # chain[0] is square-free: V(lo) - V(hi) counts its roots in (lo, hi]
        count = _sign_changes(chain, lo) - _sign_changes(chain, hi)
        total += sign * (count - (_sign(chain[0], hi) == 0))
        if gcd_part.is_constant:
            return total
        sign = -sign
        chain = _sturm_chain(gcd_part)


def _proportional(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the nonzero integer polynomials a and b are multiples of
    each other by a constant."""
    return len(a) == len(b) and all(a[-1] * v == b[-1] * u for u, v in zip(a, b))


def nonnegative_on(g: Polynomial, lo, hi) -> bool:
    """Exact decision of g(x) >= 0 for every x in [lo, hi], for lo <= hi.

    For lo < hi this is the question on (lo, hi): by continuity, a negative
    value at an end makes g negative just inside.  First a certificate: by
    Descartes' rule of signs, the number V of sign changes among the
    nonzero coefficients of P = ``_moebius(g)`` exceeds the number of g's
    roots inside (lo, hi), counted with multiplicity, by an even number
    >= 0.  V == 0 means no root inside, so g has the common sign of those
    coefficients there; V == 1 means exactly one root inside, a simple
    one, where g changes sign, so the answer is no.  With lo == hi every t
    maps to lo, so each coefficient carries the sign of g(lo), and the
    certificate answers g(lo) >= 0.

    When V >= 2, g >= 0 exactly when g is positive just right of lo and
    has no root of odd multiplicity inside, the only places where it
    changes sign.  As t -> 0+, x -> lo+ and P(t) takes the sign of its
    lowest nonzero coefficient, so ``signs[0]`` is g's sign just right of lo.
    """
    if g.is_constant:
        return g.num[0] >= 0
    signs = [c > 0 for c in _moebius(g.num, lo, hi) if c]
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    if changes == 0:
        return all(signs)
    if changes == 1:
        return False
    return signs[0] and _odd_roots(g, lo, hi) == 0


class PiecewiseMonotoneFn:
    """A nonnegative function on [0, 1] given as monotone polynomial pieces.

    Each piece carries a declared direction ('inc' or 'dec'); the
    declaration is what makes exact range computation possible (extrema of
    a monotone piece sit at the ends of any sub-segment).  Directions are
    decided exactly (see ``nonnegative_on``), and nonnegativity is checked
    at piece endpoints, which bound the range once monotonicity holds.
    Adjacent pieces may disagree at a shared breakpoint; ranges then
    include both one-sided values, which is the tight enclosure of the
    jump.  Construction stores the breakpoints once more as int pairs
    (numerator, denominator), and each piece's (min, max) over its whole
    segment, its two end values ordered by the declared direction, as
    unreduced int pairs with positive denominators, for ``_span`` to
    read; ``range_over`` and the closed-form levels both call it.
    """

    __slots__ = ("breakpoints", "pieces", "_bps", "_ranges")

    def __init__(
        self,
        breakpoints: Sequence[object],
        pieces: Sequence[Tuple[str, Polynomial]],
    ):
        bps = [rational(b) for b in breakpoints]
        if len(bps) < 2 or len(pieces) != len(bps) - 1:
            raise ValueError("need k+1 breakpoints for k pieces")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(not a < b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        checked = []
        ranges = []
        for (direction, poly), lo, hi in zip(pieces, bps, bps[1:]):
            if direction not in ("inc", "dec"):
                raise ValueError(f"unknown direction {direction!r}")
            slope = poly.derivative()
            if not nonnegative_on(slope if direction == "inc" else -slope, lo, hi):
                raise NonEvaluablePiece(
                    f"piece on [{lo},{hi}] is not {direction}; "
                    f"split the segment at the turning point"
                )
            low = poly._pair(lo.numerator, lo.denominator)
            high = poly._pair(hi.numerator, hi.denominator)
            if direction == "dec":
                low, high = high, low
            if low[0] < 0:
                raise ValueError(f"piece on [{lo},{hi}] takes negative values")
            ranges.append((low, high))
            checked.append((direction, poly))
        self.breakpoints = tuple(bps)
        self.pieces = tuple(checked)
        self._bps = tuple((b.numerator, b.denominator) for b in bps)
        self._ranges = tuple(ranges)

    def __call__(self, x):
        """Pointwise value; at interior breakpoints the left piece wins."""
        x = rational(x)
        if not (0 <= x <= 1):
            raise OutOfRange(f"{x} is outside [0, 1]")
        return self.pieces[bisect_left(self.breakpoints, x, 1) - 1][1](x)

    def range_over(self, lo, hi) -> Tuple[object, object]:
        """Exact (min, max) of the function over [lo, hi] within [0, 1].

        Finds the pieces [lo, hi] meets by bisection and reads them through
        ``_span``.  Raises OutOfRange when lo > hi or [lo, hi] misses [0, 1].
        """
        if lo > hi:
            raise OutOfRange(f"endpoints out of order: [{lo},{hi}]")
        bps = self.breakpoints
        # pieces k with bps[k] <= hi and lo <= bps[k + 1]
        first = bisect_left(bps, lo, 1) - 1
        last = min(bisect_right(bps, hi), len(self.pieces)) - 1
        if first > last:
            raise OutOfRange(f"[{lo},{hi}] misses [0, 1]")
        left = (lo.numerator, lo.denominator) if lo > bps[first] else None
        right = (hi.numerator, hi.denominator) if hi < bps[last + 1] else None
        low, high = self._span(first, last, left, right)
        return rational(*low), rational(*high)

    def _span(self, first: int, last: int, left, right) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """(min, max) over pieces first..last, piece first cut at left and
        piece last at right, as unreduced int pairs.

        A cut is a point (p, q) standing for p/q with q > 0, or None for the
        piece's own end.  Each piece between contributes its stored (min,
        max).  A cut piece is evaluated at its cut end or ends only, and its
        direction orders the two end values: an inc piece is least at its
        left end, a dec piece at its right.  Every denominator is positive,
        so the least and greatest are chosen by cross-multiplication.
        """
        if first == last:
            return self._clipped(first, left, right)
        (low_n, low_d), (high_n, high_d) = self._clipped(first, left, None)
        rest = (*self._ranges[first + 1 : last], self._clipped(last, None, right))
        for (a, b), (c, d) in rest:
            if a * low_d < low_n * b:
                low_n, low_d = a, b
            if c * high_d > high_n * d:
                high_n, high_d = c, d
        return (low_n, low_d), (high_n, high_d)

    def _clipped(self, k: int, a, b) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """(min, max) of piece k over [a, b] as int pairs, cuts as in ``_span``."""
        direction, poly = self.pieces[k]
        low, high = self._ranges[k]
        if direction == "dec":
            a, b = b, a
        return (low if a is None else poly._pair(*a)), (high if b is None else poly._pair(*b))

    def __repr__(self) -> str:
        segs = []
        for (direction, poly), lo, hi in zip(
            self.pieces, self.breakpoints, self.breakpoints[1:]
        ):
            segs.append(f"[{rational_str(lo)},{rational_str(hi)}] {direction}: {poly!r}")
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
    poly: Polynomial, size: int, a: int, b: int
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """(sum of q(i), sum of q(i + 1)) over i = a..b, where q(i) = poly(i/size),
    as unreduced int pairs over one positive denominator.

    Newton's forward differences: the sum is sum_j (Delta^j q)(a) *
    C(b - a + 1, j + 1), and Delta^j q vanishes beyond the degree.  With
    fewer cells than coefficients the same formula sums them directly.
    The differences are taken of the integers den * size^deg * q(i), and
    that scale is the denominator of both sums.
    """
    num = poly.num
    count = b - a + 1
    diffs = [_horner(num, a + j, size) for j in range(min(count, len(num)))]
    q_a = diffs[0]
    total = 0
    for j in range(len(diffs)):
        total += diffs[0] * comb(count, j + 1)
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    scale = poly.den * size ** poly.degree
    shifted = total - q_a + _horner(num, b + 1, size)
    return (total, scale), (shifted, scale)


def _cell_ranges(
    fn: PiecewiseMonotoneFn, size: int, cells: Sequence[int]
) -> Iterator[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """fn._span over each i of the ascending cells [i/size, (i+1)/size],
    the int pairs that fn.range_over would reduce.

    Piece k on [s, t] meets cell i iff s*size - 1 <= i <= t*size, which is
    decided on the breakpoints' integer numerators and denominators; the
    first and last piece a cell meets only move forward as i grows, so one
    sweep finds them all without comparing rationals.
    """
    bps = fn._bps
    top = len(fn.pieces) - 1
    first = 0
    for i in cells:
        while bps[first + 1][0] * size < i * bps[first + 1][1]:
            first += 1
        last = first
        while last < top and bps[last + 1][0] * size <= (i + 1) * bps[last + 1][1]:
            last += 1
        (s_num, s_den), (t_num, t_den) = bps[first], bps[last + 1]
        left = (i, size) if i * s_den > s_num * size else None
        right = (i + 1, size) if (i + 1) * t_den < t_num * size else None
        yield fn._span(first, last, left, right)


def _closed_form_sums(h: CanonicalExtension, n: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Sums over the 2^n cells of the lower and of the upper endpoints of h,
    as int pairs (num, den) with den > 0.

    Each addend is an int pair; the sum is kept over the lcm of the
    denominators seen, at one gcd per addition, and never reduced.
    """
    size = 2 ** n
    fn = h.fn
    bps = fn._bps
    addends = []
    for (direction, poly), (s_num, s_den), (t_num, t_den) in zip(fn.pieces, bps, bps[1:]):
        # cells i with s < i/size and (i+1)/size < t, except at 0 and 1
        a = 0 if s_num == 0 else s_num * size // s_den + 1
        b = size - 1 if t_num == t_den else -(-t_num * size // t_den) - 2
        if a > b:
            continue
        low, high = _power_sums(poly, size, a, b)
        addends.append((high, low) if direction == "dec" else (low, high))
    # the cells that touch an interior breakpoint, ascending: i when b lies
    # inside [i/size, (i+1)/size], and i - 1 and i when b = i/size
    cells: List[int] = []
    for bp_num, bp_den in bps[1:-1]:
        i, r = divmod(bp_num * size, bp_den)
        for c in (i - 1, i) if r == 0 else (i,):
            if not cells or cells[-1] != c:
                cells.append(c)
    addends.extend(_cell_ranges(fn, size, cells))
    lo_num, hi_num, lo_den, hi_den = 0, 0, 1, 1
    for (ln, ld), (hn, hd) in addends:
        g = gcd(lo_den, ld)
        lo_num = lo_num * (ld // g) + ln * (lo_den // g)
        lo_den = lo_den // g * ld
        g = gcd(hi_den, hd)
        hi_num = hi_num * (hd // g) + hn * (hi_den // g)
        hi_den = hi_den // g * hd
    return (lo_num, lo_den), (hi_num, hi_den)


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
    per two cells); NotMonotone names both where the order fails.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if n > cap:
        raise DepthCapExceeded(f"depth {n} exceeds the cap {cap}", depth=cap)
    if isinstance(h, CanonicalExtension):
        (lo_num, lo_den), (hi_num, hi_den) = _closed_form_sums(h, n)
        size = 2 ** n
        return IntervalValue(rational(lo_num, lo_den * size), rational(hi_num, hi_den * size))
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


def refine(
    h: IntervalTestFn, eps, *, cap: int = DEFAULT_DEPTH_CAP
) -> Iterator[Tuple[int, IntervalValue]]:
    """Yield (n, level n) from depth 0 until a level's width is at most eps.

    If the cap comes first, the cap level is still yielded and then
    DepthCapExceeded is raised, carrying that level and the cap.  With eps
    None there is no width target, and the walk ends at the cap.  This is
    the one loop over refinement depths in the library.  NotMonotone
    propagates from the first level of a hand-written h that shows it.
    """
    eps = None if eps is None else ext(eps)
    level = None
    for n in range(cap + 1):
        level = lebesgue_n(n, h, cap=cap)
        yield n, level
        if eps is not None and width(level) <= eps:
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

    n_max may not exceed DEFAULT_DEPTH_CAP.  NotMonotone propagates from a
    hand-written h (see ``lebesgue_n``).
    """
    cap = DEFAULT_DEPTH_CAP
    if n_max > cap:
        raise DepthCapExceeded(f"depth {n_max} exceeds the cap {cap}", depth=cap)
    return ascends([level for _, level in refine(h, None, cap=n_max)])

