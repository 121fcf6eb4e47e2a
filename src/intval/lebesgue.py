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
finding.  Piece monotonicity is declared in the input and decided exactly: a Sturm
sequence over the rationals counts the roots of p' inside the segment,
bisection isolates them, and the sign of p' between them is fixed by
exact evaluation.  A piece that fails the check must be split by the
caller at its turning point.

For a canonical extension the level is computed in closed form rather
than cell by cell.  A cell that touches no interior breakpoint lies
inside one monotone piece p, so its endpoints are p(i/2^n) and
p((i+1)/2^n); over the run of such cells i = a..b of one piece the
endpoint sums are sums of q(i) = p(i/2^n), which Newton's forward
differences give exactly from degree + 1 values:

    sum_{i=a}^{b} q(i) = sum_j (Delta^j q)(a) * C(b - a + 1, j + 1).

Only the at most two cells per interior breakpoint that touch it are
evaluated directly, since they take both pieces' values there; the cost
of a level no longer depends on the depth.  Hand-written test functions
keep the per-cell sum, which is also the oracle for the closed form.

``refine`` is the one walk up the chain: it yields the levels from depth
0 until one is narrow enough, or up to the depth cap, and the
integrator, the chain check, the CLI and the law suites all read it.

``dyadic_round`` is the grid-rounding companion: it sends a number
x in [0, 1] to the depth-n dyadic interval [round_down(x), round_up(x)],
an ascending (in n) chain of enclosures of the precise point [x, x].
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import ceil, comb, floor
from typing import Callable, Iterator, List, Sequence, Tuple

from .algebra import (
    IZERO,
    IntervalValue,
    ext,
    ival_leq,
    rational,
    width,
)
from .errors import DepthCapExceeded, NonEvaluablePiece, OutOfRange

DEFAULT_DEPTH_CAP = 24

_ZERO_RAT = rational(0)
_ONE_RAT = rational(1)


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


class Polynomial:
    """A polynomial with exact rational coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[object]):
        cs = [rational(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs) if cs else (_ZERO_RAT,)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls([c])

    @classmethod
    def identity(cls) -> "Polynomial":
        return cls([0, 1])

    def __call__(self, x):
        acc = _ZERO_RAT
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [_ZERO_RAT] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder of division by a nonzero polynomial."""
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        quot = [_ZERO_RAT] * max(1, len(rem) - d)
        for k in range(len(rem) - 1 - d, -1, -1):
            c = rem[k + d] / lead
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
        return Polynomial(quot), Polynomial(rem[:d] or [0])

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:] or [0])

    def monic(self) -> "Polynomial":
        """Scaled by a positive constant to leading coefficient +-1."""
        return self.scaled(1 / abs(self.coeffs[-1]))

    @property
    def degree(self) -> int:
        """Degree, counting the zero polynomial as degree 0."""
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) == 1

    def scaled(self, c) -> "Polynomial":
        return Polynomial([rational(c) * a for a in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        def term(i, c):
            if i == 0:
                return str(c)
            pow_part = "x" if i == 1 else f"x^{i}"
            return pow_part if c == 1 else f"{c}*{pow_part}"

        parts = [term(i, c) for i, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(parts) if parts else "0"


def _sturm_chain(g: Polynomial) -> List[Polynomial]:
    """g, g', then negated remainders until the last nonzero one."""
    chain = [g, g.derivative().monic()]
    while not chain[-1].is_constant:
        rem = divmod(chain[-2], chain[-1])[1]
        if rem.coeffs == (_ZERO_RAT,):
            break
        chain.append((-rem).monic())
    return chain


def _sign_changes(chain: Sequence[Polynomial], x) -> int:
    signs = [v > 0 for v in (p(x) for p in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def nonnegative_on(g: Polynomial, lo, hi) -> bool:
    """Exact decision of g(x) >= 0 for every x in the open segment (lo, hi).

    g is replaced by its square-free part s (same roots, all simple), whose
    Sturm sequence counts the roots in any (u, v) exactly.  Bisection at
    rational midpoints then isolates the roots; g has constant sign on each
    gap between consecutive roots, and that sign is read off an exact
    evaluation at a non-root point of the gap.
    """
    if g.is_constant:
        return g.coeffs[0] >= 0
    chain = _sturm_chain(g)
    if not chain[-1].is_constant:
        # the last remainder is gcd(g, g'): divide the repeated roots out
        chain = _sturm_chain(divmod(g, chain[-1])[0])
    s = chain[0]

    def roots_inside(u, v) -> int:
        # Sturm: for square-free s, V(u) - V(v) counts the roots in (u, v]
        return _sign_changes(chain, u) - _sign_changes(chain, v) - (s(v) == 0)

    # (u, v, u_pos, v_pos): x_pos says g(x) > 0 was seen at that endpoint
    # (never for lo and hi, which may be roots); such an endpoint fixes the
    # sign of the gap next to it
    todo = [(lo, hi, False, False)]
    while todo:
        u, v, u_pos, v_pos = todo.pop()
        count = roots_inside(u, v)
        if count == 0 and (u_pos or v_pos) or count == 1 and u_pos and v_pos:
            continue
        mid = (u + v) / 2
        g_mid = g(mid)
        if g_mid < 0:
            return False
        if count:
            todo.append((u, mid, u_pos, g_mid > 0))
            todo.append((mid, v, g_mid > 0, v_pos))
    return True


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
    """

    __slots__ = ("breakpoints", "pieces")

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
        for (direction, poly), lo, hi in zip(pieces, bps, bps[1:]):
            if direction not in ("inc", "dec"):
                raise ValueError(f"unknown direction {direction!r}")
            self._check_piece(direction, poly, lo, hi)
            checked.append((direction, poly))
        self.breakpoints = tuple(bps)
        self.pieces = tuple(checked)

    @staticmethod
    def _check_piece(direction: str, poly: Polynomial, lo, hi) -> None:
        slope = poly.derivative()
        if not nonnegative_on(slope if direction == "inc" else -slope, lo, hi):
            raise NonEvaluablePiece(
                f"piece on [{lo},{hi}] is not {direction}; "
                f"split the segment at the turning point"
            )
        if poly(lo if direction == "inc" else hi) < 0:
            raise ValueError(f"piece on [{lo},{hi}] takes negative values")

    def __call__(self, x):
        """Pointwise value; at interior breakpoints the left piece wins."""
        x = rational(x)
        if not (0 <= x <= 1):
            raise OutOfRange(f"{x} is outside [0, 1]")
        return self.pieces[bisect_left(self.breakpoints, x, 1) - 1][1](x)

    def range_over(self, lo, hi) -> Tuple[object, object]:
        """Exact (min, max) of the function over [lo, hi] within [0, 1]."""
        bps = self.breakpoints
        # pieces k with bps[k] <= hi and lo <= bps[k + 1]
        first = bisect_left(bps, lo, 1) - 1
        last = min(bisect_right(bps, hi), len(self.pieces)) - 1
        best_lo = None
        best_hi = None
        for k in range(first, last + 1):
            a = max(bps[k], lo)
            b = min(bps[k + 1], hi)
            if a > b:
                continue
            poly = self.pieces[k][1]
            va, vb = poly(a), poly(b)
            lo_k, hi_k = (va, vb) if va <= vb else (vb, va)
            best_lo = lo_k if best_lo is None else min(best_lo, lo_k)
            best_hi = hi_k if best_hi is None else max(best_hi, hi_k)
        if best_lo is None:
            raise OutOfRange(f"[{lo},{hi}] misses [0, 1]")
        return best_lo, best_hi

    def __repr__(self) -> str:
        segs = []
        for (direction, poly), lo, hi in zip(
            self.pieces, self.breakpoints, self.breakpoints[1:]
        ):
            segs.append(f"[{lo},{hi}] {direction}: {poly!r}")
        return "piecewise { " + "; ".join(segs) + " }"


class IntervalTestFn:
    """An interval-valued test function on dyadic intervals.

    The evaluator must be monotone under reverse inclusion: shrinking the
    argument interval may only refine the result.  That is spot-validated
    on nested dyadic pairs at construction.
    """

    __slots__ = ("_evaluator", "name")

    def __init__(
        self,
        evaluator: Callable[[DyadicInterval], IntervalValue],
        *,
        validate: bool = True,
        name: str = "",
    ):
        self._evaluator = evaluator
        self.name = name
        if validate:
            self._spot_check()

    def _spot_check(self) -> None:
        for n in range(3):
            step = rational(1, 2 ** n)
            half = step / 2
            for i in range(2 ** n):
                parent = DyadicInterval(i * step, (i + 1) * step)
                for child in (
                    DyadicInterval(i * step, i * step + half),
                    DyadicInterval(i * step + half, (i + 1) * step),
                    DyadicInterval(i * step + half, i * step + half),
                ):
                    if not ival_leq(self(parent), self(child)):
                        raise ValueError(
                            f"evaluator is not monotone under refinement at "
                            f"{parent} -> {child}"
                        )

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
        super().__init__(self._range, validate=False, name=repr(fn))
        self.fn = fn

    def _range(self, interval: DyadicInterval) -> IntervalValue:
        lo = max(_ZERO_RAT, interval.lo)
        hi = min(_ONE_RAT, interval.hi)
        if lo > hi:
            raise OutOfRange(f"{interval} misses [0, 1]")
        return IntervalValue(*self.fn.range_over(lo, hi))


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


def _power_sums(poly: Polynomial, size: int, a: int, b: int) -> Tuple[object, object]:
    """(sum of q(i), sum of q(i + 1)) over i = a..b, where q(i) = poly(i/size).

    Newton's forward differences: the sum is sum_j (Delta^j q)(a) *
    C(b - a + 1, j + 1), and Delta^j q vanishes beyond the degree.  With
    fewer cells than coefficients the same formula sums them directly.
    """
    count = b - a + 1
    diffs = [poly(rational(a + j, size)) for j in range(min(count, len(poly.coeffs)))]
    q_a = diffs[0]
    total = _ZERO_RAT
    for j in range(len(diffs)):
        total += diffs[0] * comb(count, j + 1)
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    return total, total - q_a + poly(rational(b + 1, size))


def _cells_touching(b, size: int) -> Tuple[int, ...]:
    """Indices of the depth cells [i/size, (i+1)/size] that contain b."""
    x = b * size
    i = int(floor(x))
    return (i - 1, i) if x == i else (i,)


def _closed_form_sums(h: CanonicalExtension, n: int) -> Tuple[object, object]:
    """Sums over the 2^n cells of the lower and of the upper endpoints of h."""
    size = 2 ** n
    bps = h.fn.breakpoints
    lo_sum = hi_sum = _ZERO_RAT
    for (direction, poly), s, t in zip(h.fn.pieces, bps, bps[1:]):
        # cells i with s < i/size and (i+1)/size < t, except at 0 and 1
        a = 0 if s == 0 else int(floor(s * size)) + 1
        b = size - 1 if t == 1 else int(ceil(t * size)) - 2
        if a > b:
            continue
        low, high = _power_sums(poly, size, a, b)
        if direction == "dec":
            low, high = high, low
        lo_sum += low
        hi_sum += high
    step = rational(1, size)
    for i in {i for bp in bps[1:-1] for i in _cells_touching(bp, size)}:
        value = h(DyadicInterval(i * step, (i + 1) * step))
        lo_sum += value.lo.value
        hi_sum += value.hi.value
    return lo_sum, hi_sum


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
    number of operations independent of n.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if n > cap:
        raise DepthCapExceeded(f"depth {n} exceeds the cap {cap}", depth=cap)
    if isinstance(h, CanonicalExtension):
        lo_sum, hi_sum = _closed_form_sums(h, n)
        return IntervalValue(lo_sum / 2 ** n, hi_sum / 2 ** n)
    w = IntervalValue(rational(1, 2 ** n), rational(1, 2 ** n))
    acc = IZERO
    for cell in dyadic_grid(n):
        acc = acc + w * h(cell)
    return acc


def refine(
    h: IntervalTestFn, eps, *, cap: int = DEFAULT_DEPTH_CAP
) -> Iterator[Tuple[int, IntervalValue]]:
    """Yield (n, level n) from depth 0 until a level's width is at most eps.

    If the cap comes first, the cap level is still yielded and then
    DepthCapExceeded is raised, carrying that level and the cap.  With eps
    None there is no width target, and the walk ends at the cap.  This is
    the one loop over refinement depths in the library.
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


def chain_check(h: IntervalTestFn, n_max: int, *, cap: int = DEFAULT_DEPTH_CAP) -> bool:
    """Exact check that the dyadic levels ascend up to depth n_max."""
    if n_max > cap:
        raise DepthCapExceeded(f"depth {n_max} exceeds the cap {cap}", depth=cap)
    return ascends([level for _, level in refine(h, None, cap=n_max)])


def dyadic_round(n: int, x) -> DyadicInterval:
    """Round x in [0, 1] outward to the depth-n dyadic grid.

    The lower endpoint is the largest grid point strictly approximating x
    from below (grid point i/2^n for x in (i/2^n, (i+1)/2^n], and 0 on
    [0, 1/2^n]); the upper endpoint mirrors it: 1 - round_down(1 - x).
    The results ascend with n and squeeze onto the precise point [x, x].
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    x = rational(x)
    if not (0 <= x <= 1):
        raise OutOfRange(f"{x} is outside [0, 1]")
    lo = _round_down(n, x)
    hi = 1 - _round_down(n, 1 - x)
    return DyadicInterval(lo, hi)


def _round_down(n: int, x):
    scaled = x * 2 ** n
    ceil = -((-scaled.numerator) // scaled.denominator)
    return rational(max(0, ceil - 1), 2 ** n)
