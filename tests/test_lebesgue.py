import copy
import json
import math
import pathlib
import pickle
import subprocess
import sys
import time
from fractions import Fraction
from typing import List

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from oracle_dyadic import FIXTURE_INTEGRALS, brute_force_level

from intval.algebra import (
    INFINITY,
    IntervalValue,
    decimal_str,
    ext,
    ival,
    ival_leq,
    rational,
    width,
)
from intval.errors import DepthCapExceeded, NonEvaluablePiece, NotMonotone, OutOfRange
from intval.laws import fixture_functions
from intval.lebesgue import (
    DyadicInterval,
    IntervalTestFn,
    PiecewiseMonotoneFn,
    Polynomial,
    canonical_extension,
    chain_check,
    dyadic_grid,
    is_dyadic,
    lebesgue_integrate,
    lebesgue_n,
    nonnegative_on,
    refine,
)
from intval import laws, lebesgue
from intval.literals import MAX_DEGREE, parse_piecewise

EXAMPLES = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _rat(q: Fraction):
    return rational(q.numerator, q.denominator)


def _pt(q) -> tuple:
    """A rational as the int pair (numerator, denominator) that the Sturm
    and Moebius helpers read."""
    return q.numerator, q.denominator


def _grid(h: IntervalTestFn) -> IntervalTestFn:
    """The same test function, summed cell by cell by lebesgue_n."""
    return IntervalTestFn(lambda c: h(c))


# interior breakpoints: dyadic (jumps land on cell edges from some depth
# on, including 1/4096 at depth 12) and non-dyadic (always inside a cell)
_BREAKPOINTS = sorted(
    {Fraction(i, 16) for i in range(1, 16)}
    | {Fraction(1, 4096), Fraction(4095, 4096), Fraction(683, 2048)}
    | {Fraction(i, d) for d in (3, 5, 7, 12) for i in range(1, d)}
)


@st.composite
def piecewise_fns(draw):
    """Piecewise functions with independent pieces of degree <= 8.

    An inc piece on [s, t] is sum_k c_k (x - s)^k with c_k >= 0 and a dec
    piece sum_k c_k (t - x)^k, so every piece is monotone and nonnegative
    by construction; adjacent pieces generally disagree at the breakpoint.
    """
    inner = draw(st.lists(st.sampled_from(_BREAKPOINTS), max_size=4, unique=True))
    bps = [Fraction(0)] + sorted(inner) + [Fraction(1)]
    pieces = []
    for s, t in zip(bps, bps[1:]):
        direction = draw(st.sampled_from(("inc", "dec")))
        degree = draw(st.integers(0, 8))
        coeffs = draw(
            st.lists(
                st.fractions(0, 4, max_denominator=3),
                min_size=degree + 1,
                max_size=degree + 1,
            )
        )
        base = (
            Polynomial([-_rat(s), 1]) if direction == "inc" else Polynomial([_rat(t), -1])
        )
        poly = Polynomial.constant(0)
        for k, c in enumerate(coeffs):
            poly = poly + base ** k * Polynomial.constant(_rat(c))
        pieces.append((direction, poly))
    return PiecewiseMonotoneFn([_rat(b) for b in bps], pieces)


class TestDyadicInterval:
    def test_dyadic_check(self):
        assert is_dyadic(rational(3, 8))
        assert not is_dyadic(rational(1, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            DyadicInterval(rational(1, 3), 1)
        with pytest.raises(ValueError):
            DyadicInterval(1, 0)

    def test_refines(self):
        assert DyadicInterval("1/4", "1/2").refines(DyadicInterval(0, 1))
        assert not DyadicInterval(0, 1).refines(DyadicInterval("1/4", "1/2"))

    def test_equality_and_hash_across_endpoint_spellings(self):
        a = DyadicInterval("1/4", "1/2")
        b = DyadicInterval(Fraction(1, 4), Fraction(2, 4))
        assert a == b
        assert not a != b
        assert hash(a) == hash(b) == hash((Fraction(1, 4), Fraction(1, 2)))
        assert a != DyadicInterval("1/4", "3/4")
        assert len({a, b, DyadicInterval(0, 1)}) == 2

    def test_not_equal_to_its_endpoint_pair(self):
        d = DyadicInterval(0, 1)
        assert (d == (d.lo, d.hi)) is False
        assert d != (0, 1)

    def test_immutable(self):
        d = DyadicInterval(0, 1)
        with pytest.raises(AttributeError):
            d.lo = rational(1, 2)
        with pytest.raises(AttributeError):
            del d.hi
        assert d.lo == 0
        assert d == DyadicInterval(0, 1)

    def test_copy_and_pickle(self):
        d = DyadicInterval("1/4", 1)
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert twin == d
            assert type(twin.lo) is type(d.lo)

    def test_keyword_construction(self):
        assert DyadicInterval(lo="1/8", hi=1) == DyadicInterval("1/8", 1)

    def test_validation_messages(self):
        with pytest.raises(ValueError) as dyadic:
            DyadicInterval(rational(1, 3), 1)
        assert str(dyadic.value) == "endpoints must be dyadic: [1/3, 1]"
        with pytest.raises(ValueError) as order:
            DyadicInterval(1, "1/2")
        assert str(order.value) == "endpoints out of order: [1, 1/2]"
        # ends past int's 4300-digit limit render too
        tiny, den = Fraction(1, 2**17000), decimal_str(2**17000)
        with pytest.raises(ValueError) as dyadic:
            DyadicInterval(tiny, rational(1, 3))
        assert str(dyadic.value) == f"endpoints must be dyadic: [1/{den}, 1/3]"
        with pytest.raises(ValueError) as order:
            DyadicInterval(1, tiny)
        assert str(order.value) == f"endpoints out of order: [1, 1/{den}]"

    def test_repr(self):
        assert repr(DyadicInterval("1/4", 1)) == "[1/4,1]"
        assert repr(DyadicInterval(Fraction(1, 2**17000), 1)) == f"[1/{decimal_str(2**17000)},1]"


class TestPolynomial:
    def test_horner(self):
        p = Polynomial([1, -2, 1])  # (x-1)^2
        assert p(rational(3)) == rational(4)

    def test_arithmetic(self):
        x = Polynomial.identity()
        assert (x * x - x)(rational(2)) == rational(2)
        assert (x ** 3).coeffs == (0, 0, 0, 1)

    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 0, 0]).coeffs == (1,)

    def test_power_matches_repeated_product(self):
        p = Polynomial([1, rational(1, 3), -2])
        product = Polynomial.constant(1)
        for k in range(12):
            assert p ** k == product, k
            product = product * p

    @settings(EXAMPLES, max_examples=40)
    @given(
        st.fractions(-1000, 1000, max_denominator=50),
        st.fractions(-1000, 1000, max_denominator=50).filter(bool),
    )
    @example(Fraction(0), Fraction(-3, 7))
    @example(Fraction(0), Fraction(1))
    def test_linear_power_matches_repeated_product(self, a, b):
        # a linear base takes the binomial row; both signs, zero constant term
        base = Polynomial([_rat(a), _rat(b)])
        row = [1]
        product = Polynomial.constant(1)
        for n in range(MAX_DEGREE + 1):
            assert lebesgue._binomial_row(*base.num, n) == row, n
            assert base ** n == product, n
            row = lebesgue._mul_ints(row, base.num)
            product = product * base

    def test_divmod_and_derivative(self):
        x = Polynomial.identity()
        a = (x - Polynomial.constant(2)) * (x * x + Polynomial.constant(1))
        quot, rem = divmod(a + Polynomial.constant(5), x * x + Polynomial.constant(1))
        assert quot == x - Polynomial.constant(2)
        assert rem == Polynomial.constant(5)
        assert (x ** 3).derivative() == x ** 2 * Polynomial.constant(3)
        assert Polynomial.constant(7).derivative() == Polynomial.constant(0)


class TestPiecewiseMonotoneFn:
    def test_rejects_misdeclared_direction(self):
        with pytest.raises(NonEvaluablePiece):
            PiecewiseMonotoneFn([0, 1], [("inc", Polynomial([1, -1]))])

    def test_rejects_non_monotone_piece(self):
        # x(1-x) turns at 1/2; declared monotone on all of [0,1] it must fail
        bump = Polynomial([0, 1, -1])
        with pytest.raises(NonEvaluablePiece):
            PiecewiseMonotoneFn([0, 1], [("inc", bump)])
        # split at the turning point it is fine
        PiecewiseMonotoneFn(
            [0, rational(1, 2), 1], [("inc", bump), ("dec", bump)]
        )

    def test_rejects_turn_between_grid_points(self):
        # p' = 3(x - 1/256)(x - 1/64): p dips between two roots that both
        # lie inside the first of 16 equal steps of the segment
        p = Polynomial([1, rational(3, 16384), rational(-15, 512), 1])
        with pytest.raises(NonEvaluablePiece):
            PiecewiseMonotoneFn([0, 1], [("inc", p)])
        PiecewiseMonotoneFn(
            [0, rational(1, 256), rational(1, 64), 1],
            [("inc", p), ("dec", p), ("inc", p)],
        )

    def test_inflection_is_monotone(self):
        # (x - 1/3)^3 + 1: p' has a double root at 1/3 and never turns
        x = Polynomial.identity()
        p = (x - Polynomial.constant(rational(1, 3))) ** 3 + Polynomial.constant(1)
        PiecewiseMonotoneFn([0, 1], [("inc", p)])
        with pytest.raises(NonEvaluablePiece):
            PiecewiseMonotoneFn([0, 1], [("dec", p)])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            PiecewiseMonotoneFn([0, 1], [("inc", Polynomial([-1, 1]))])

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseMonotoneFn([0, rational(1, 2)], [("inc", Polynomial.identity())])
        with pytest.raises(ValueError):
            PiecewiseMonotoneFn(
                [0, 0, 1],
                [("inc", Polynomial.identity()), ("inc", Polynomial.identity())],
            )

    def test_pointwise_value(self):
        fn = fixture_functions()["tent"]
        assert fn(rational(1, 4)) == rational(1, 2)
        assert fn(rational(1, 2)) == rational(1)
        assert fn(rational(7, 8)) == rational(1, 4)


@st.composite
def planted_slopes(draw):
    """a * prod (x - r)^m + shift: turning points at chosen rationals.

    Multiplicities 1 and 2 give cubics' crossings and touching (even)
    roots; a nonzero shift moves the roots off the rationals or removes
    them.
    """
    roots = draw(
        st.lists(
            st.tuples(st.fractions(-1, 2, max_denominator=16), st.integers(1, 2)),
            min_size=1,
            max_size=3,
        )
    )
    slope = Polynomial.constant(draw(st.sampled_from((1, -1, rational(1, 5)))))
    for r, m in roots:
        slope = slope * Polynomial([-_rat(r), 1]) ** m
    shift = draw(st.sampled_from((0, 0, rational(1, 64), rational(-1, 1000))))
    return slope + Polynomial.constant(shift)


def _sympy_odd_roots(g: Polynomial, lo, hi) -> int:
    """The distinct real roots of g strictly inside (lo, hi) whose
    multiplicity, read from sympy.real_roots, is odd."""
    lo, hi = sympy.Rational(str(lo)), sympy.Rational(str(hi))
    return sum(
        1
        for root, mult in sympy.real_roots(_sym(g), multiple=False)
        if mult % 2 == 1 and bool(lo < root) and bool(root < hi)
    )


def _sympy_nonnegative(poly: Polynomial, lo, hi) -> bool:
    """poly >= 0 on (lo, hi) decided from sympy.real_roots.

    A polynomial keeps its sign across roots of even multiplicity and
    changes it at odd ones; without odd roots inside, any nonzero sample
    shows the sign.
    """
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(str(c)) for c in poly.coeffs]
    g = sympy.Poly(sum(c * x ** k for k, c in enumerate(coeffs)), x)
    if g.is_zero:
        return True
    if g.degree() > 0 and _sympy_odd_roots(poly, lo, hi):
        return False
    lo, hi = sympy.Rational(str(lo)), sympy.Rational(str(hi))
    d = g.degree() + 2
    return all(g.eval(lo + (hi - lo) * k / d) >= 0 for k in range(1, d))


X = sympy.Symbol("x")


def _sym(poly: Polynomial) -> sympy.Poly:
    """The same polynomial as a sympy.Poly over QQ, built from ``coeffs``."""
    cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly.coeffs)]
    return sympy.Poly(cs, X, domain=sympy.QQ)


def _sym_value(g: sympy.Poly, x: Fraction):
    v = g.eval(sympy.Rational(x.numerator, x.denominator))
    return rational(int(v.p), int(v.q))


_small_rationals = st.fractions(-5, 5, max_denominator=12)

# coefficient lists, low degree first: degree 0 and negative leading
# coefficients included
polys = st.lists(_small_rationals, min_size=1, max_size=7).map(
    lambda cs: Polynomial([_rat(c) for c in cs])
)


class TestIntegerForm:
    def test_canonical_pair(self):
        x = Polynomial.identity()
        built = (x + Polynomial.constant(rational(1, 3))) ** 2
        parsed = parse_piecewise("piecewise { [0,1] inc: x^2 + 2/3*x + 1/9 }").pieces[0][1]
        listed = Polynomial([rational(1, 9), rational(2, 3), 1, 0, 0])
        assert built.num == parsed.num == listed.num == (1, 6, 9)
        assert built.den == parsed.den == listed.den == 9
        assert hash(built) == hash(parsed) == hash(listed)
        assert built.coeffs == (rational(1, 9), rational(2, 3), rational(1))

    def test_zero(self):
        zero = Polynomial([0, 0, 0])
        assert (zero.num, zero.den) == ((0,), 1)
        assert Polynomial([rational(1, 3)]) - Polynomial([rational(1, 3)]) == zero
        assert Polynomial([rational(1, 3), 2]) * Polynomial.constant(0) == zero

    def test_coeffs_is_a_read_only_view(self):
        p = Polynomial([rational(1, 2), rational(1, 3)])
        with pytest.raises(AttributeError):
            p.coeffs = (rational(1),)

    @EXAMPLES
    @given(polys, polys)
    def test_results_are_canonical(self, f, g):
        c = Polynomial.constant(rational(-6, 35))
        for p in (f + g, f - g, f * g, f ** 3, f.derivative(), f * c):
            # gcd(den, 0) == den, so zero must be ((0,), 1)
            assert p.den > 0 and math.gcd(p.den, *p.num) == 1
            assert p.num[-1] != 0 or p.num == (0,)
            for c in p.coeffs:
                assert type(c) is Fraction and math.gcd(c.numerator, c.denominator) == 1
            assert p.coeffs[-1] != 0 or p.coeffs == (0,)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.fractions(-(10 ** 6), 10 ** 6, max_denominator=10 ** 4), max_size=7),
        st.integers(0, 9),
    )
    @example([], 0)
    @example([], 3)
    @example([Fraction(0), Fraction(0)], 2)
    @example([Fraction(3, 4)], 0)
    @example([Fraction(-1, 3), Fraction(1)], 0)
    def test_power_is_built_canonical(self, coeffs, n):
        # __pow__ skips the canonical form (Gauss's lemma); _of of the raw
        # product of n copies takes it, and the two pairs must agree
        p = Polynomial([_rat(c) for c in coeffs])
        raw = [1]
        for _ in range(n):
            raw = lebesgue._mul_ints(raw, p.num)
        expected = Polynomial._of(raw, p.den ** n)
        power = p ** n
        assert (power.num, power.den) == (expected.num, expected.den)
        assert type(power.num) is tuple


class TestArithmeticOracle:
    """Every operation against sympy.Poly over QQ, which shares no code."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(polys, polys, st.integers(0, 5), _small_rationals, _small_rationals)
    @example(
        Polynomial([rational(1, 3), -2, rational(-7, 4)]),
        Polynomial([rational(-5, 2)]),
        3,
        Fraction(-1, 3),
        Fraction(0),
    )
    def test_agrees_with_sympy(self, f, g, k, c, x):
        sf, sg = _sym(f), _sym(g)
        assert _sym(f + g) == sf + sg
        assert _sym(f - g) == sf - sg
        assert _sym(-f) == -sf
        assert _sym(f * g) == sf * sg
        assert _sym(f ** k) == sf ** k
        assert _sym(f.derivative()) == sf.diff(X)
        sc = sympy.Rational(c.numerator, c.denominator)
        assert _sym(f * Polynomial.constant(_rat(c))) == sf * sc
        if not sg.is_zero:
            quot, rem = divmod(f, g)
            squot, srem = sympy.div(sf, sg)
            assert (_sym(quot), _sym(rem)) == (squot, srem)
        assert f(_rat(x)) == _sym_value(sf, x)
        assert f(x.numerator) == _sym_value(sf, Fraction(x.numerator))


def _direct_sums(poly: Polynomial, size: int, a: int, b: int):
    return (
        sum((poly(rational(i, size)) for i in range(a, b + 1)), rational(0)),
        sum((poly(rational(i + 1, size)) for i in range(a, b + 1)), rational(0)),
    )


def _as_rationals(pairs):
    """Int pairs (num, den), each checked to have den > 0, as rationals."""
    assert all(den > 0 for _, den in pairs)
    return tuple(rational(num, den) for num, den in pairs)


def _power_sums(poly, size, a, b):
    """lebesgue._power_sums of poly's integer form, given its values at a
    and b + 1, as the rationals it stands for."""
    first, after = (lebesgue._horner(poly.num, c, size) for c in (a, b + 1))
    scale = poly.den * size ** poly.degree
    sums = lebesgue._power_sums(poly.num, size, a, b, first, after)
    return _as_rationals([(s, scale) for s in sums])


class TestPowerSums:
    @EXAMPLES
    @given(polys, st.sampled_from((1, 2, 3, 12, 64, 1024)), st.data())
    def test_matches_the_direct_sum(self, poly, size, data):
        a = data.draw(st.integers(0, size - 1))
        b = data.draw(st.integers(a, min(size - 1, a + 40)))
        assert _power_sums(poly, size, a, b) == _direct_sums(poly, size, a, b)

    @pytest.mark.parametrize(
        "size, a, b",
        [
            (64, 10, 11),  # a run shorter than degree + 1
            (64, 5, 5),  # a == b
            (64, 60, 63),  # b + 1 == size
            (8, 0, 7),  # the whole interval
            (1, 0, 0),
        ],
    )
    def test_edge_runs(self, size, a, b):
        poly = Polynomial([rational(1, 3), -2, 0, rational(5, 7), 0, 0, rational(-1, 9)])
        assert _power_sums(poly, size, a, b) == _direct_sums(poly, size, a, b)


_roots = st.fractions(-2, 2, max_denominator=8)


@st.composite
def square_free_polys(draw):
    """lead * prod (x - r) over distinct rational r, times x^2 - 2, x^2 + 1 or 1."""
    roots = draw(st.lists(_roots, min_size=0, max_size=5, unique=True))
    poly = Polynomial.constant(draw(st.sampled_from((1, -1, rational(-3, 7), 5))))
    for r in roots:
        poly = poly * Polynomial([-_rat(r), 1])
    extra = draw(st.sampled_from(((-2, 0, 1), (1, 0, 1), (1,))))
    poly = poly * Polynomial(extra)
    assume(poly.degree >= 1)
    return poly


@st.composite
def repeated_root_polys(draw):
    """A polynomial with at least one rational root of multiplicity 2 or 3."""
    roots = draw(st.lists(_roots, min_size=1, max_size=3, unique=True))
    mults = [draw(st.integers(1, 3)) for _ in roots]
    mults[0] = draw(st.integers(2, 3))
    poly = Polynomial.constant(draw(st.sampled_from((1, -1, rational(2, 9)))))
    for r, m in zip(roots, mults):
        poly = poly * Polynomial([-_rat(r), 1]) ** m
    return poly * Polynomial(draw(st.sampled_from(((1, 0, 1), (1,)))))


class TestSturmCounts:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(square_free_polys(), _roots, _roots)
    def test_counts_agree_with_sympy(self, poly, u, v):
        assume(u < v)
        chain = lebesgue._sturm_chain(poly)
        assert chain[-1].is_constant
        u, v = _rat(u), _rat(v)
        su, sv = (sympy.Rational(w.numerator, w.denominator) for w in (u, v))
        g = _sym(poly)
        # Sturm counts the roots in (u, v]; count_roots counts [u, v]
        expected = g.count_roots(su, sv) - (g.eval(su) == 0)
        got = lebesgue._sign_changes(chain, _pt(u)) - lebesgue._sign_changes(chain, _pt(v))
        assert got == expected

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(repeated_root_polys(), _roots, _roots)
    def test_repeated_roots_agree_with_sympy(self, poly, lo, hi):
        assume(lo < hi)
        assert not lebesgue._sturm_chain(poly)[-1].is_constant
        for g in (poly, -poly):
            assert nonnegative_on(g, _rat(lo), _rat(hi)) == _sympy_nonnegative(
                g, _rat(lo), _rat(hi)
            )


# factors with a double root inside (0, 1): rational and irrational
_DOUBLE_FACTORS = (
    Polynomial.constant(1),
    Polynomial([rational(-1, 3), 1]) ** 2,
    Polynomial([rational(-1, 2), 0, 1]) ** 2,
)


@st.composite
def certificate_cases(draw):
    """(g, lo, hi): a planted slope or a polynomial with a repeated root,
    times one of ``_DOUBLE_FACTORS``, on a segment whose ends may be
    rational roots of g and may lie below 0."""
    g = draw(st.one_of(planted_slopes(), repeated_root_polys()))
    g = g * draw(st.sampled_from(_DOUBLE_FACTORS))
    ends = st.fractions(-1, 2, max_denominator=16)
    roots = sorted(Fraction(int(r.p), int(r.q)) for r in _sym(g).ground_roots())
    if roots:
        ends = st.one_of(st.sampled_from(roots), ends)
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return g, _rat(lo), _rat(hi)


def _sign_variations(g: Polynomial, lo, hi) -> int:
    """V, the certificate's count of sign changes for g on (lo, hi)."""
    signs = [c > 0 for c in lebesgue._moebius(g.num, _pt(lo), _pt(hi)) if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_nonnegative(g: Polynomial, lo, hi) -> bool:
    """nonnegative_on's verdict when the certificate abstains, taken for
    any V: g's sign just right of lo, from the lowest nonzero coefficient of
    the real ``_moebius(g)``, and no root of odd multiplicity inside."""
    lo, hi = _pt(lo), _pt(hi)
    lowest = next(c for c in lebesgue._moebius(g.num, lo, hi) if c)
    return lowest > 0 and lebesgue._odd_roots(g, lo, hi) == 0


def _moebius_by_rows(num, lo: Fraction, hi: Fraction) -> List[int]:
    """``_moebius(num, lo, hi)`` by the binomial row formula: step k of the
    Horner pass adds c * (scale + scale t)^k, built entry by entry."""
    scale = lo.denominator * hi.denominator
    n = (lo.numerator * hi.denominator, hi.numerator * lo.denominator)
    acc = [num[-1]]
    for k, c in enumerate(reversed(num[:-1]), 1):
        acc = lebesgue._mul_ints(acc, n)
        acc = [a + c * b for a, b in zip(acc, lebesgue._binomial_row(scale, scale, k))]
    return acc


def _count_sturm_chains(monkeypatch) -> list:
    """The list that every later _sturm_chain call appends its argument to."""
    calls = []
    build = lebesgue._sturm_chain
    monkeypatch.setattr(lebesgue, "_sturm_chain", lambda g: calls.append(g) or build(g))
    return calls


_OUTCOMES = pathlib.Path(__file__).parent / "data" / "literal_outcomes.json"
_DEGREE_64 = "piecewise { [0,1] inc: (x + 1/3)^64 + (x + 1/7)^63 + (x + 1/11)^61 }"
_CLUSTERED_SIMPLE = (
    "piecewise { [0,1] inc: x^3/3 - (2/3 + 1/((2^64)^64)^4)/2*x^2"
    " + 1/3*(1/3 + 1/((2^64)^64)^4)*x + 1 }"
)
_CLUSTERED_DOUBLE = (
    "piecewise { [0,1] inc: (x - 1/3)^5/5 - (x - 1/3)^4/(2*((2^64)^64)^4)"
    " + (x - 1/3)^3/(3*(((2^64)^64)^4)^2) + 1 }"
)


class TestExactMonotonicity:
    @EXAMPLES
    @given(
        planted_slopes(),
        st.fractions(-1, 1, max_denominator=32),
        st.fractions(0, 2, max_denominator=32),
    )
    def test_agrees_with_sympy_real_roots(self, slope, a, b):
        segments = [(rational(0), rational(1))]
        if a < b:
            segments.append((_rat(a), _rat(b)))
        for lo, hi in segments:
            for g in (slope, -slope):
                assert nonnegative_on(g, lo, hi) == _sympy_nonnegative(g, lo, hi)

    @EXAMPLES
    @given(planted_slopes())
    def test_pieces_accepted_exactly_when_monotone(self, slope):
        # p = 100 + integral of slope is positive on [0, 1]
        p = Polynomial(
            [100] + [c / (k + 1) for k, c in enumerate(slope.coeffs)]
        )
        for direction, g in (("inc", slope), ("dec", -slope)):
            monotone = _sympy_nonnegative(g, 0, 1)
            try:
                PiecewiseMonotoneFn([0, 1], [(direction, p)])
                accepted = True
            except NonEvaluablePiece:
                accepted = False
            assert accepted == monotone, (direction, p)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(certificate_cases())
    @example((Polynomial([rational(-1, 3), 1]) ** 2, rational(0), rational(1)))
    @example((Polynomial([rational(-1, 2), 0, 1]) ** 2, rational(-1), rational(0)))
    @example((Polynomial([rational(-1, 3), 1]) * Polynomial([-1, 1]), rational(1, 3), rational(1)))
    @example((Polynomial([rational(-1, 2), 1]) * Polynomial([1, 1]), rational(0), rational(1)))
    def test_certificate_agrees_with_sturm_and_sympy(self, case):
        g0, lo, hi = case
        for g in (g0, -g0):
            expected = _sympy_nonnegative(g, lo, hi)
            assert nonnegative_on(g, lo, hi) == expected
            if _sign_variations(g, lo, hi) <= 1:
                assert _sturm_nonnegative(g, lo, hi) == expected

    @EXAMPLES
    @given(
        polys,
        st.fractions(-2, 2, max_denominator=12),
        st.fractions(Fraction(1, 12), 3, max_denominator=12),
        st.fractions(Fraction(1, 9), 9, max_denominator=9),
    )
    def test_moebius_transform_identity(self, g, lo, size, t):
        # _moebius reads the integer coefficients num, i.e. the polynomial den * g
        hi = lo + size
        d = g.degree
        coeffs = lebesgue._moebius(g.num, _pt(lo), _pt(hi))
        x = (lo + hi * t) / (1 + t)
        expected = (lo.denominator * hi.denominator) ** d * (1 + t) ** d * sum(
            c * x ** k for k, c in enumerate(g.num)
        )
        assert sum(c * t ** k for k, c in enumerate(coeffs)) == expected

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(-(10 ** 9), 10 ** 9), min_size=1, max_size=12),
        st.fractions(-2, 2, max_denominator=10 ** 9),
        st.fractions(Fraction(1, 10 ** 9), 3, max_denominator=10 ** 9),
    )
    def test_moebius_rows_match_the_binomial_row_formula(self, num, lo, size):
        assume(num[-1] != 0)
        lo, hi = _rat(lo), _rat(lo + size)
        assert lebesgue._moebius(num, _pt(lo), _pt(hi)) == _moebius_by_rows(num, lo, hi)
        # the shared rows, grown from [1] by this example alone
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lebesgue, "_PASCAL_ROWS", [[1]])
            assert lebesgue._moebius(num, _pt(lo), _pt(hi)) == _moebius_by_rows(num, lo, hi)
            assert len(lebesgue._PASCAL_ROWS) == len(num)

    def test_moebius_rows_grow_out_of_order(self, monkeypatch):
        # degrees 63, 2 and 64 in one process: the second call reads rows
        # the first built, the third extends them by one
        monkeypatch.setattr(lebesgue, "_PASCAL_ROWS", [[1]])
        lo, hi = rational(-1, 3), rational(5, 7)
        for degree, rows in ((63, 64), (2, 64), (64, 65)):
            num = [(-1) ** k * (k + 2) for k in range(degree + 1)]
            assert lebesgue._moebius(num, _pt(lo), _pt(hi)) == _moebius_by_rows(num, lo, hi)
            assert len(lebesgue._PASCAL_ROWS) == rows
        assert lebesgue._PASCAL_ROWS == [[math.comb(k, j) for j in range(k + 1)] for k in range(65)]

    def test_import_builds_no_pascal_row(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import intval.lebesgue as m; print(m._PASCAL_ROWS)"],
            capture_output=True, check=True, text=True,
        )
        assert proc.stdout == "[[1]]\n"

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(certificate_cases())
    @example((Polynomial([rational(-1, 3), 1]) ** 2, rational(1, 3), rational(1, 3)))
    @example((Polynomial([1, 2, 3]), rational(0), rational(1)))
    def test_early_yes_agrees_with_the_full_sign_count(self, case):
        # the decision before the shortcut: count V over the nonzero
        # coefficients, then the certificate or the Sturm count
        g, lo, hi = case
        lo, hi = _pt(lo), _pt(hi)
        coeffs = lebesgue._moebius(g.num, lo, hi)
        for negate in (False, True):
            signs = [c < 0 if negate else c > 0 for c in coeffs if c]
            changes = sum(a != b for a, b in zip(signs, signs[1:]))
            if changes == 0:
                expected = all(signs)
            elif changes == 1:
                expected = False
            else:
                expected = signs[0] and lebesgue._odd_roots(g, lo, hi) == 0
            assert lebesgue._nonnegative_on(g, lo, hi, negate) == expected

    def test_certificate_decides_anchor_and_degree_64_literals(self, monkeypatch):
        # the integrate-wide anchor literals (32 pieces) and their invalid variants
        rows = json.loads(_OUTCOMES.read_text(encoding="ascii"))
        anchors = [
            (text, outcome[0])
            for form, text, outcome in rows
            if form == "piecewise" and text.count(";") == 31
        ]
        assert [kind for _, kind in anchors].count("ok") == 10
        calls = _count_sturm_chains(monkeypatch)
        for text, kind in anchors + [(_DEGREE_64, "ok")]:
            try:
                parse_piecewise(text)
                got = "ok"
            except Exception as exc:  # noqa: BLE001 - compared with the recording
                got = type(exc).__name__
            assert got == kind, text[:80]
        assert calls == []

    @pytest.mark.parametrize(
        "coeffs, a, expected",
        [
            ((rational(-1, 3), 1), rational(1, 3), True),  # g(a) == 0
            ((rational(-1, 3), 1), rational(1, 2), True),  # g(a) > 0
            ((rational(-1, 3), 1), rational(1, 4), False),  # g(a) < 0
            ((0, 1, -5, 6), rational(1, 2), True),  # x(2x - 1)(3x - 1)
            ((0, 1, -5, 6), 1, True),
            ((0, 1, -5, 6), rational(2, 5), False),
        ],
    )
    def test_degenerate_segment_is_decided_by_the_certificate(
        self, monkeypatch, coeffs, a, expected
    ):
        # every t maps to a, so the transformed coefficients all carry the
        # sign of g(a)
        def forbidden(g):
            raise AssertionError("the Sturm chain was built")

        monkeypatch.setattr(lebesgue, "_sturm_chain", forbidden)
        a = rational(a)
        assert nonnegative_on(Polynomial(coeffs), a, a) is expected

    def test_sturm_chain_decides_when_the_certificate_abstains(self, monkeypatch):
        calls = _count_sturm_chains(monkeypatch)
        # slope 3(x - 1/256)(x - 1/64): two roots inside, V == 2
        with pytest.raises(NonEvaluablePiece):
            parse_piecewise("piecewise { [0,1] inc: x^3 - 15/512*x^2 + 3/16384*x }")
        assert calls
        calls.clear()
        # slope 3(x - 1/3)^2: a double root inside, V == 2
        parse_piecewise("piecewise { [0,1] inc: (x - 1/3)^3 + 1 }")
        assert calls

    @pytest.mark.parametrize(
        "text, slope_degree, rejected",
        [
            # slope (x - 1/3)(x - 1/3 - e), two simple roots e = 2^-16384 apart
            (_CLUSTERED_SIMPLE, 2, True),
            # slope ((x - 1/3)(x - 1/3 - e))^2, two double roots e apart
            (_CLUSTERED_DOUBLE, 4, False),
        ],
    )
    def test_clustered_roots_take_bounded_work(
        self, monkeypatch, text, slope_degree, rejected
    ):
        calls = _count_sturm_chains(monkeypatch)
        t0 = time.perf_counter()
        try:
            parse_piecewise(text)
            got = False
        except NonEvaluablePiece:
            got = True
        elapsed = time.perf_counter() - t0
        assert got == rejected
        assert 1 <= len(calls) <= 2 * slope_degree
        assert elapsed < 2.0, elapsed


@st.composite
def high_multiplicity_polys(draw):
    """A product of up to three rational linear factors and x^2 - 1/2, each
    to a multiplicity of 1 to 7."""
    roots = draw(st.lists(_roots, min_size=0, max_size=3, unique=True))
    factors = [Polynomial([-_rat(r), 1]) for r in roots]
    if draw(st.booleans()) or not factors:
        factors.append(Polynomial([rational(-1, 2), 0, 1]))
    poly = Polynomial.constant(draw(st.sampled_from((1, -1, rational(2, 9)))))
    for f in factors:
        poly = poly * f ** draw(st.integers(1, 7))
    return poly


class TestOddRoots:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(high_multiplicity_polys(), _roots, _roots)
    def test_high_multiplicities_agree_with_sympy(self, g, lo, hi):
        assume(lo < hi)
        assert lebesgue._odd_roots(g, _pt(lo), _pt(hi)) == _sympy_odd_roots(g, lo, hi)

    @pytest.mark.parametrize(
        "g, expected",
        [
            (Polynomial([rational(-1, 3), 1]) ** 62, 0),
            (-(Polynomial([rational(-1, 3), 1]) ** 63), 1),
            (Polynomial([rational(-1, 3), 1]) ** 31 * Polynomial([rational(-1, 2), 1]) ** 31, 2),
        ],
    )
    def test_high_multiplicities_build_at_most_two_chains(self, monkeypatch, g, expected):
        # g's own chain, and one for the product of its odd-multiplicity factors
        calls = _count_sturm_chains(monkeypatch)
        assert lebesgue._odd_roots(g, (0, 1), (1, 1)) == expected
        assert 1 <= len(calls) <= 2

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(repeated_root_polys(), _roots, _roots)
    def test_repeated_roots_agree_with_sympy(self, g, lo, hi):
        assume(lo < hi)
        assert lebesgue._odd_roots(g, _pt(lo), _pt(hi)) == _sympy_odd_roots(g, lo, hi)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(certificate_cases())
    def test_certificate_cases_agree_with_sympy(self, case):
        g, lo, hi = case
        assert lebesgue._odd_roots(g, _pt(lo), _pt(hi)) == _sympy_odd_roots(g, lo, hi)

    @pytest.mark.parametrize(
        "g, expected",
        [
            (Polynomial([rational(-1, 3), 1]) ** 3, 1),
            (Polynomial([rational(-1, 3), 1]) ** 2, 0),
            (Polynomial([rational(-1, 3), 1]) ** 2 * Polynomial([rational(-1, 2), 1]) ** 3, 1),
            # roots at lo and at hi are not inside
            (Polynomial([0, 1]) * Polynomial([-1, 1]), 0),
        ],
    )
    def test_pinned_counts_on_the_unit_segment(self, g, expected):
        assert lebesgue._odd_roots(g, (0, 1), (1, 1)) == expected


class TestCanonicalExtension:
    def test_identity_clips(self):
        h = canonical_extension(fixture_functions()["id"])
        assert h(DyadicInterval("1/4", "1/2")) == ival("1/4", "1/2")
        assert h(DyadicInterval(0, 2)) == ival(0, 1)

    def test_constant(self):
        fn = PiecewiseMonotoneFn([0, 1], [("inc", Polynomial.constant(rational(2, 3)))])
        h = canonical_extension(fn)
        assert h(DyadicInterval("1/8", "3/8")) == ival("2/3", "2/3")

    def test_square_on_subinterval(self):
        h = canonical_extension(fixture_functions()["square"])
        assert h(DyadicInterval("1/4", "1/2")) == ival("1/16", "1/4")

    def test_misses_domain(self):
        h = canonical_extension(fixture_functions()["id"])
        with pytest.raises(OutOfRange, match=r"^\[2,3\] misses \[0, 1\]$"):
            h(DyadicInterval(2, 3))

    def test_repr_names_the_function(self):
        assert repr(canonical_extension(fixture_functions()["id"])) == (
            "<test fn piecewise { [0,1] inc: x }>"
        )

    def test_construction_does_not_render_the_function(self, monkeypatch):
        def fail(self):
            raise AssertionError("repr built at construction")

        fn = fixture_functions()["tent"]
        monkeypatch.setattr(PiecewiseMonotoneFn, "__repr__", fail)
        h = canonical_extension(fn)
        assert h.fn is fn

    def test_jump_at_breakpoint_takes_both_sides(self):
        step = PiecewiseMonotoneFn(
            [0, rational(1, 2), 1],
            [("inc", Polynomial.constant(0)), ("inc", Polynomial.constant(1))],
        )
        h = canonical_extension(step)
        assert h(DyadicInterval("1/2", "1/2")) == ival(0, 1)

    def test_monotone_under_refinement(self):
        for fn in fixture_functions().values():
            h = canonical_extension(fn)
            for n in range(4):
                for cell in dyadic_grid(n):
                    mid = (cell.lo + cell.hi) / 2
                    for sub in (
                        DyadicInterval(cell.lo, mid),
                        DyadicInterval(mid, cell.hi),
                        DyadicInterval(mid, mid),
                    ):
                        assert ival_leq(h(cell), h(sub))


def _range_oracle(fn: PiecewiseMonotoneFn, lo, hi):
    """(min, max) of fn over [lo, hi] n [0, 1], from the values at the
    clipped ends and both one-sided values at every breakpoint inside.

    Monotone pieces take their extrema at the ends of each overlap, and
    those ends are exactly these points; every piece whose closed segment
    holds a point contributes its value there, so a jump gives both sides.
    """
    bps = fn.breakpoints
    a, b = max(lo, Fraction(0)), min(hi, Fraction(1))
    points = {a, b} | {x for x in bps if a <= x <= b}
    values = []
    for k, (_, poly) in enumerate(fn.pieces):
        for x in points:
            if bps[k] <= x <= bps[k + 1]:
                acc = Fraction(0)
                for c in reversed(poly.coeffs):
                    acc = acc * x + c
                values.append(acc)
    return min(values), max(values)


# inc, dec, inc, dec, with a jump at each interior breakpoint
_JUMPY = PiecewiseMonotoneFn(
    [0, rational(1, 3), rational(1, 2), rational(5, 7), 1],
    [
        ("inc", Polynomial([1, 0, 1])),
        ("dec", Polynomial([3, -2])),
        ("inc", Polynomial([0, rational(1, 2)])),
        ("dec", Polynomial([5, 0, 0, -4])),
    ],
)


class TestRangeOver:
    @pytest.mark.parametrize(
        "lo, hi",
        [
            ("1/10", "1/5"),  # inside one piece
            ("2/5", "9/20"),  # inside a dec piece
            ("1/7", "6/7"),  # spanning every interior breakpoint
            ("0", "1"),  # every piece whole
            ("1/3", "1/2"),  # one piece whole, closed at both jumps
            ("1/2", "1/2"),  # degenerate at a jump
            ("3/5", "3/5"),  # degenerate inside a piece
            ("-1", "0"),  # touches [0, 1] at 0 only
            ("1", "3/2"),  # touches [0, 1] at 1 only
            ("-1", "2"),  # covers [0, 1]
        ],
    )
    def test_agrees_with_the_oracle(self, lo, hi):
        lo, hi = rational(lo), rational(hi)
        got = _JUMPY.range_over(lo, hi)
        assert got == _range_oracle(_JUMPY, lo, hi)
        # _span compares unreduced int pairs; range_over reduces them
        for value in got:
            assert type(value) is Fraction
            assert math.gcd(value.numerator, value.denominator) == 1

    @pytest.mark.parametrize("lo, hi", [("2", "3"), ("-2", "-1/3"), ("11/10", "11/10")])
    def test_misses_domain(self, lo, hi):
        with pytest.raises(OutOfRange, match=r"misses \[0, 1\]$"):
            _JUMPY.range_over(rational(lo), rational(hi))

    @pytest.mark.parametrize("lo, hi", [("1/3", "1/4"), ("2/5", "7/20"), ("1", "0"), ("3", "2")])
    def test_endpoints_out_of_order(self, lo, hi):
        with pytest.raises(OutOfRange, match=rf"^endpoints out of order: \[{lo},{hi}\]$"):
            _JUMPY.range_over(rational(lo), rational(hi))

    def test_text_int_and_fraction_ends_agree(self):
        # the ends are read as __call__ reads a point, so text is compared
        # by value: "9/10" sorts after "10/10" as a string
        identity = PiecewiseMonotoneFn([0, 1], [("inc", Polynomial.identity())])
        assert identity.range_over("1/4", "1/2") == (Fraction(1, 4), Fraction(1, 2))
        assert identity.range_over("9/10", "10/10") == (Fraction(9, 10), Fraction(1))
        for lo, hi in [(0, 1), ("1/3", "1/2"), (0, "5/7"), ("2/5", 1), ("-1", "2")]:
            want = _JUMPY.range_over(rational(lo), rational(hi))
            assert _JUMPY.range_over(lo, hi) == want
            assert _JUMPY.range_over(str(lo), str(hi)) == want
            assert _JUMPY.range_over(Fraction(lo), Fraction(hi)) == want
        with pytest.raises(OutOfRange, match=r"^endpoints out of order: \[1/2,1/4\]$"):
            identity.range_over("2/4", "1/4")
        with pytest.raises(OutOfRange, match=r"misses \[0, 1\]$"):
            identity.range_over(2, "3")

    @settings(EXAMPLES, max_examples=200)
    @given(piecewise_fns(), st.data())
    def test_hypothesis_intervals_agree_with_the_oracle(self, fn, data):
        # rational, mostly non-dyadic ends, with breakpoints drawn often
        end = st.one_of(
            st.fractions(Fraction(-1, 2), Fraction(3, 2), max_denominator=60),
            st.sampled_from(fn.breakpoints),
        )
        lo, hi = sorted((data.draw(end), data.draw(end)))
        lo, hi = _rat(lo), _rat(hi)
        if hi < 0 or lo > 1:
            with pytest.raises(OutOfRange, match="misses"):
                fn.range_over(lo, hi)
        else:
            assert fn.range_over(lo, hi) == _range_oracle(fn, lo, hi)
        if lo < hi:
            with pytest.raises(OutOfRange, match="out of order"):
                fn.range_over(hi, lo)


def _range_evaluations(fn: PiecewiseMonotoneFn, lo, hi):
    """fn.range_over(lo, hi) and the number of ``_horner`` calls it makes."""
    calls = []
    original = lebesgue._horner

    def counting(num, p, q):
        calls.append((p, q))
        return original(num, p, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lebesgue, "_horner", counting)
        got = fn.range_over(lo, hi)
    return got, len(calls)


class TestRangeOverStoredEnds:
    """range_over evaluates a piece only where lo or hi lies strictly
    inside it; at a breakpoint it reads the stored end value."""

    @pytest.mark.parametrize(
        "lo, hi, evaluations",
        [
            ("1/2", "1/2", 0),  # at a breakpoint: piece 0's right end, piece 1's left
            ("1/2", "3/4", 0),  # piece 0's right end, piece 2's left end
            ("1/3", "1/2", 1),  # piece 0 at 1/3; piece 1's left end
            ("0", "1", 0),
            ("-1", "2", 0),
            ("1/3", "5/8", 2),
            ("5/8", "5/8", 2),
        ],
    )
    def test_tent(self, lo, hi, evaluations):
        tent = fixture_functions()["tent"]  # interior breakpoints 1/2 and 3/4
        lo, hi = rational(lo), rational(hi)
        got, count = _range_evaluations(tent, lo, hi)
        assert count == evaluations
        assert got == _range_oracle(tent, lo, hi)

    @settings(EXAMPLES, max_examples=120)
    @given(piecewise_fns(), st.data())
    def test_cell_ends_on_breakpoints(self, fn, data):
        # one end, or both, on a breakpoint; the other may lie inside a piece
        bps = fn.breakpoints
        inside = st.fractions(0, 1, max_denominator=64)
        ends = (data.draw(st.sampled_from(bps)), data.draw(st.one_of(st.sampled_from(bps), inside)))
        lo, hi = sorted(ends)
        lo, hi = _rat(lo), _rat(hi)
        got, count = _range_evaluations(fn, lo, hi)
        assert got == _range_oracle(fn, lo, hi)
        assert count == (lo not in bps) + (hi not in bps)


@st.composite
def piecewise_literals(draw):
    """(text, breakpoints, pieces): a piecewise literal whose pieces, as in
    ``piecewise_fns``, are written sum_k c_k*(x - s)^k (inc on [s, t]) or
    sum_k c_k*(t - x)^k (dec), with its breakpoints as Fractions and each
    piece as (direction, s or t, [c_k]) for a Fraction reference."""
    inner = draw(st.lists(st.sampled_from(_BREAKPOINTS), max_size=4, unique=True))
    bps = [Fraction(0)] + sorted(inner) + [Fraction(1)]
    segments, pieces = [], []
    for s, t in zip(bps, bps[1:]):
        direction = draw(st.sampled_from(("inc", "dec")))
        coeffs = draw(st.lists(st.fractions(0, 4, max_denominator=3), min_size=1, max_size=9))
        base = f"(x - {s})" if direction == "inc" else f"({t} - x)"
        expr = " + ".join(f"{c}*{base}^{k}" for k, c in enumerate(coeffs))
        segments.append(f"[{s},{t}] {direction}: {expr}")
        pieces.append((direction, s if direction == "inc" else t, coeffs))
    return "piecewise { " + "; ".join(segments) + " }", bps, pieces


def _piece_value(piece, x: Fraction) -> Fraction:
    direction, anchor, coeffs = piece
    u = x - anchor if direction == "inc" else anchor - x
    return sum((c * u ** k for k, c in enumerate(coeffs)), Fraction(0))


class TestBreakpointPairs:
    """The breakpoints are stored once, as int pairs; the rational view,
    pointwise values and ranges read as they did from Fraction breakpoints."""

    def test_breakpoints_are_the_same_fractions(self):
        pieces = [("inc", Polynomial.identity())] * 4
        fn = PiecewiseMonotoneFn([0, "1/3", Fraction(2, 4), ext("3/4"), 1], pieces)
        assert fn._bps == ((0, 1), (1, 3), (1, 2), (3, 4), (1, 1))
        assert fn.breakpoints == (
            Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)
        )
        assert all(type(b) is Fraction for b in fn.breakpoints)
        assert repr(fn).startswith("piecewise { [0,1/3] inc: x; [1/3,1/2] inc: x;")

    @pytest.mark.parametrize(
        "bps, message",
        [
            ([0, INFINITY], "breakpoints must start at 0 and end at 1"),
            ([INFINITY, 1], "breakpoints must start at 0 and end at 1"),
            ([0, INFINITY, 1], "breakpoints must be strictly ascending"),
            ([0, "1/2", "1/2", 1], "breakpoints must be strictly ascending"),
            ([0, "2/3", "1/3", 1], "breakpoints must be strictly ascending"),
            ([-1, 1], "breakpoints must start at 0 and end at 1"),
        ],
    )
    def test_bad_breakpoints_keep_their_messages(self, bps, message):
        pieces = [("inc", Polynomial.identity())] * (len(bps) - 1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            PiecewiseMonotoneFn(bps, pieces)

    def test_piece_messages_name_the_segment(self):
        with pytest.raises(NonEvaluablePiece, match=r"^piece on \[1/3,1\] is not dec; "):
            PiecewiseMonotoneFn(
                [0, "1/3", 1], [("inc", Polynomial.identity()), ("dec", Polynomial.identity())]
            )
        with pytest.raises(ValueError, match=r"^piece on \[0,1/3\] takes negative values$"):
            PiecewiseMonotoneFn(
                [0, "1/3", 1], [("inc", Polynomial([-1, 1])), ("inc", Polynomial.identity())]
            )

    @settings(EXAMPLES, max_examples=100)
    @given(piecewise_literals(), st.data())
    def test_literals_agree_with_a_fraction_reference(self, literal, data):
        text, bps, pieces = literal
        fn = parse_piecewise(text)
        assert fn.breakpoints == tuple(bps)
        assert all(type(b) is Fraction for b in fn.breakpoints)
        # pointwise, the left piece wins at an interior breakpoint
        point = st.one_of(st.fractions(0, 1, max_denominator=60), st.sampled_from(bps))
        for x in data.draw(st.lists(point, min_size=1, max_size=4)):
            k = next(k for k in range(len(pieces)) if x <= bps[k + 1])
            got = fn(x)
            assert type(got) is Fraction and got == _piece_value(pieces[k], x)
        # ranges take every piece whose closed segment meets [lo, hi] n [0, 1]
        end = st.one_of(
            st.fractions(Fraction(-1, 2), Fraction(3, 2), max_denominator=60),
            st.sampled_from(bps),
        )
        lo, hi = sorted((data.draw(end), data.draw(end)))
        if hi < 0 or lo > 1:
            with pytest.raises(OutOfRange, match="misses"):
                fn.range_over(lo, hi)
            return
        a, b = max(lo, Fraction(0)), min(hi, Fraction(1))
        points = {a, b} | {x for x in bps if a <= x <= b}
        values = [
            _piece_value(piece, x)
            for piece, s, t in zip(pieces, bps, bps[1:])
            for x in points
            if s <= x <= t
        ]
        got = fn.range_over(lo, hi)
        assert got == (min(values), max(values))
        assert all(type(v) is Fraction for v in got)


_LONG = 10 ** 4000


class TestNonnegativePairCore:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        polys,
        st.fractions(-2, 2, max_denominator=10 ** 6),
        st.fractions(0, 2, max_denominator=10 ** 6),
        st.sampled_from([1, 3, _LONG + 1]),
        st.booleans(),
    )
    @example(Polynomial([rational(-1, 3), 1]), Fraction(1, 3), Fraction(0), 1, False)
    @example(Polynomial([rational(-1, 3), 0, 1]), Fraction(_LONG // 3 + 1, _LONG),
             Fraction(1, _LONG + 7), 1, False)
    @example(Polynomial([rational(-1, 9), 0, 1]), Fraction(_LONG // 3, _LONG),
             Fraction(0), 1, True)
    def test_agrees_with_the_rational_entry_point(self, g, lo, size, scale, shifted):
        # the core reads any positive denominators: the ends are also passed
        # unreduced, scaled by up to 4001 digits; shifted ends have
        # multi-thousand-digit denominators themselves
        if shifted:
            lo += Fraction(1, _LONG + 3)
        hi = lo + size
        expected = nonnegative_on(g, lo, hi)
        assert lebesgue._nonnegative_on(g, _pt(lo), _pt(hi)) is expected
        scaled = [(q.numerator * scale, q.denominator * scale) for q in (lo, hi)]
        assert lebesgue._nonnegative_on(g, *scaled) is expected
        if max(lo.denominator, hi.denominator) < 10 ** 7:
            assert expected == _sympy_nonnegative(g, lo, hi)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        polys,
        st.fractions(-2, 2, max_denominator=10 ** 6),
        st.fractions(0, 2, max_denominator=10 ** 6),
    )
    @example(Polynomial([rational(-1, 3), 1]), Fraction(0), Fraction(1))
    @example(Polynomial([rational(-1, 9), 0, 1]), Fraction(1, 3), Fraction(0))
    @example(Polynomial([-2]), Fraction(0), Fraction(1))
    @example(Polynomial([0]), Fraction(0), Fraction(1))
    def test_negate_decides_the_negated_polynomial(self, g, lo, size):
        # negate reads g's signs flipped; no -g is built
        hi = lo + size
        got = lebesgue._nonnegative_on(g, _pt(lo), _pt(hi), True)
        assert got is nonnegative_on(-g, lo, hi)
        assert got == _sympy_nonnegative(-g, lo, hi)

    def test_a_dec_piece_is_checked_without_its_negated_slope(self, monkeypatch):
        # one Polynomial per piece, its slope, whatever its direction
        built = []
        original = Polynomial.__dict__["_of"].__func__
        monkeypatch.setattr(
            Polynomial, "_of", classmethod(lambda cls, *a: built.append(a) or original(cls, *a))
        )
        pieces = [("inc", Polynomial([0, 1])), ("dec", Polynomial([3, -2, 1])),
                  ("dec", Polynomial([2, -1]))]
        PiecewiseMonotoneFn([0, rational(1, 4), rational(1, 2), 1], pieces)
        assert len(built) == len(pieces)
        with pytest.raises(NonEvaluablePiece, match="is not dec"):
            PiecewiseMonotoneFn([0, 1], [("dec", Polynomial([0, 1]))])


def _touched_cells(fn, size):
    """The cells [i/size, (i+1)/size] that hold an interior breakpoint."""
    cells = set()
    for b in fn.breakpoints[1:-1]:
        x = b * size
        i = math.floor(x)
        cells |= {i - 1, i} if x.denominator == 1 else {i}
    return sorted(cells)


def _expected_call(fn, i, size):
    """(first, last, low, high) of the ``_span`` call for the cell
    [i/size, (i+1)/size]: the pieces it meets, piece first's value where
    the cell or that piece starts and piece last's where either ends."""
    bps = fn.breakpoints
    lo, hi = Fraction(i, size), Fraction(i + 1, size)
    met = [k for k in range(len(fn.pieces)) if bps[k] <= hi and lo <= bps[k + 1]]
    first, last = met[0], met[-1]
    low = fn.pieces[first][1](_rat(max(lo, bps[first])))
    high = fn.pieces[last][1](_rat(min(hi, bps[last + 1])))
    return first, last, low, high


def _record_spans(fn, n):
    """(first, last, low, high, result) of each ``_span`` call of fn's
    closed-form level n."""
    calls = []
    original = PiecewiseMonotoneFn._span

    def recording(self, first, last, low, high):
        result = original(self, first, last, low, high)
        calls.append((first, last, low, high, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PiecewiseMonotoneFn, "_span", recording)
        lebesgue_n(n, canonical_extension(fn))
    return calls


def _cells_agree(fn, depths):
    """Each level reads the cells that touch an interior breakpoint, in
    ascending order, through one ``_span`` call each (see
    ``_expected_call``), and each call returns range_over on its cell."""
    for n in depths:
        size = 2 ** n
        calls = _record_spans(fn, n)
        cells = _touched_cells(fn, size)
        got = [(first, last, *_as_rationals([low, high])) for first, last, low, high, _ in calls]
        assert got == [_expected_call(fn, i, size) for i in cells], n
        for i, (*_, pairs) in zip(cells, calls):
            want = fn.range_over(rational(i, size), rational(i + 1, size))
            assert _as_rationals(pairs) == want, (n, i)


def _many_pieces(bps):
    """Alternating inc and dec pieces on the breakpoints, with jumps."""
    pieces = []
    for k, (s, t) in enumerate(zip(bps, bps[1:])):
        if k % 2:
            pieces.append(("dec", Polynomial([_rat(t) + k, -1])))
        else:
            pieces.append(("inc", Polynomial([k, -_rat(s), 1]) if k % 4 else Polynomial([1, 1])))
    return PiecewiseMonotoneFn([_rat(b) for b in bps], pieces)


class TestBreakpointCells:
    """A level reads each cell that touches an interior breakpoint through
    one ``_span`` call over the pieces it meets, given their values at the
    cell's ends, and each call equals range_over on that cell."""

    @settings(EXAMPLES, max_examples=60)
    @given(piecewise_fns())
    def test_breakpoint_cells_to_depth_8(self, fn):
        _cells_agree(fn, range(9))

    @pytest.mark.parametrize(
        "bps",
        [
            # 32 pieces on grid points: at depths 0-3 a cell covers several
            # whole pieces, and from depth 5 every breakpoint is a cell edge
            [Fraction(k, 32) for k in range(33)],
            # 32 pieces off the grid, and 31 short pieces in [0, 1/8]
            # before one long one
            [Fraction(k, 33) for k in range(32)] + [Fraction(1)],
            [Fraction(k, 256) for k in range(32)] + [Fraction(1)],
        ],
        ids=["grid", "off-grid", "crowded"],
    )
    def test_many_pieces_per_cell(self, bps):
        assert len(bps) == 33
        _cells_agree(_many_pieces(bps), range(9))


def _evaluations(fn, n):
    """(piece, point) for each ``_horner`` call of fn's closed-form level n;
    piece None for a point that lies strictly inside no piece with the
    polynomial evaluated (a breakpoint of the piece, or outside it)."""
    bps = fn.breakpoints
    calls = []
    original = lebesgue._horner

    def recording(num, p, q):
        x = Fraction(p, q)
        inside = [
            k for k, (_, poly) in enumerate(fn.pieces)
            if poly.num is num and bps[k] < x < bps[k + 1]
        ]
        calls.append((inside[0] if inside else None, x))
        return original(num, p, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lebesgue, "_horner", recording)
        lebesgue_n(n, canonical_extension(fn))
    return calls


def _evaluated_once(fn, depths):
    """A level evaluates each piece only strictly inside it, at each grid
    point at most once, and at most degree + 2 times."""
    for n in depths:
        calls = _evaluations(fn, n)
        assert all(k is not None for k, _ in calls), (n, calls)
        assert len(set(calls)) == len(calls), (n, calls)
        for k, (_, poly) in enumerate(fn.pieces):
            points = [x for j, x in calls if j == k]
            assert len(points) <= poly.degree + 2, (n, k)
            assert all((x * 2 ** n).denominator == 1 for x in points), (n, k)


class TestEvaluationCounts:
    """One evaluation per piece and grid point in a level, none at a stored
    end; the level reads every other value from the plan."""

    def test_tent_to_depth_24(self):
        _evaluated_once(fixture_functions()["tent"], range(25))

    def test_crowded_pieces(self):
        crowded = _many_pieces([Fraction(k, 256) for k in range(32)] + [Fraction(1)])
        _evaluated_once(crowded, range(25))

    @settings(EXAMPLES, max_examples=60)
    @given(piecewise_fns())
    def test_piecewise_functions_to_depth_12(self, fn):
        _evaluated_once(fn, range(13))

    def test_integrate_deep_total(self):
        # the three functions of the benchmark's integrate-deep load, every
        # level to a width of 2^-14: 401 evaluations when the run ends and
        # the breakpoint cells each evaluated their own
        literals = [
            "piecewise { [0,1/2] inc: 2*x; [1/2,3/4] dec: 2 - 2*x; [3/4,1] dec: 2 - 2*x }",
            "piecewise { [0,1] inc: 0 + 1*(x - 0)^2 }",
            "piecewise { [0,1/3] inc: 0 + 9/2*(x - 0)^3; [1/3,1] inc: 1/6 + 1/2*(x - 1/3) }",
        ]
        total = 0
        for literal in literals:
            fn = parse_piecewise(literal)
            *_, (depth, _) = refine(canonical_extension(fn), rational(1, 2 ** 14))
            total += sum(len(_evaluations(fn, n)) for n in range(depth + 1))
        assert total == 184


class TestLevels:
    def test_identity_levels(self):
        h = canonical_extension(fixture_functions()["id"])
        assert lebesgue_n(1, h) == ival("1/4", "3/4")
        assert lebesgue_n(2, h) == ival("3/8", "5/8")

    def test_square_level_one(self):
        h = canonical_extension(fixture_functions()["square"])
        assert lebesgue_n(1, h) == ival("1/8", "5/8")

    def test_constant_is_exact_at_depth_zero(self):
        h = canonical_extension(fixture_functions()["half"])
        assert lebesgue_n(0, h) == ival("1/2", "1/2")

    def test_against_brute_force_oracle(self):
        """The closed form equals the per-cell sum and the oracle."""
        for name, fn in fixture_functions().items():
            h = canonical_extension(fn)
            for n in range(13):
                level = lebesgue_n(n, h)
                assert level == lebesgue_n(n, _grid(h)), (name, n)
                assert level == brute_force_level(fn, n), (name, n)

    def test_endpoint_sum_identity(self):
        """Interval-arithmetic path equals separate weighted endpoint sums."""
        from intval.algebra import ZERO, mul_left, mul_right

        for fn in fixture_functions().values():
            h = canonical_extension(fn)
            for n in range(7):
                w = ext(rational(1, 2 ** n))
                lo_sum, hi_sum = ZERO, ZERO
                for cell in dyadic_grid(n):
                    lo_sum = lo_sum + mul_left(w, h(cell).lo)
                    hi_sum = hi_sum + mul_right(w, h(cell).hi)
                assert lebesgue_n(n, h) == IntervalValue(lo_sum, hi_sum)

    @staticmethod
    def _differential(fn, n_max):
        h = canonical_extension(fn)
        for n in range(n_max + 1):
            level = lebesgue_n(n, h)
            assert level == lebesgue_n(n, _grid(h)), n
            assert level == brute_force_level(fn, n), n

    # the grid and the oracle cost about 0.7 s per function to depth 12,
    # so many functions are checked to depth 8 and a few to depth 12
    @settings(EXAMPLES, max_examples=40)
    @given(piecewise_fns())
    def test_closed_form_equals_grid_and_oracle(self, fn):
        self._differential(fn, 8)

    @settings(EXAMPLES, max_examples=6)
    @given(piecewise_fns())
    @example(
        parse_piecewise(
            "piecewise { [0,1/4096] inc: 3 + x; [1/4096,1/3] dec: 2*(1/3 - x)^8;"
            " [1/3,1/2] inc: 1/5 + (x - 1/3)^3; [1/2,1] dec: 7/3 - x^2 }"
        )
    )
    def test_closed_form_equals_grid_and_oracle_to_depth_12(self, fn):
        self._differential(fn, 12)

    def test_only_breakpoint_cells_are_evaluated(self, monkeypatch):
        # every cell the level loop evaluates goes through _span, once per
        # distinct cell that touches a breakpoint and over the pieces it
        # meets, no cell through range_over, and each piece's run through
        # at most one _power_sums
        spans, sums = [], []
        span, power_sums = PiecewiseMonotoneFn._span, lebesgue._power_sums

        def counting_span(self, first, last, low, high):
            spans.append((first, last, *_as_rationals([low, high])))
            return span(self, first, last, low, high)

        def counting_sums(num, size, a, b, first, after):
            sums.append((a, b))
            return power_sums(num, size, a, b, first, after)

        def forbidden(self, lo, hi):
            raise AssertionError("the level loop called range_over")

        monkeypatch.setattr(PiecewiseMonotoneFn, "_span", counting_span)
        monkeypatch.setattr(lebesgue, "_power_sums", counting_sums)
        monkeypatch.setattr(PiecewiseMonotoneFn, "range_over", forbidden)
        tent = fixture_functions()["tent"]  # interior breakpoints 1/2 and 3/4
        crowded = _many_pieces([Fraction(k, 256) for k in range(32)] + [Fraction(1)])
        for fn, depths in ((tent, (0, 1, 2, 12, 24)), (crowded, (0, 5, 8, 24))):
            for n in depths:
                spans.clear()
                sums.clear()
                lebesgue_n(n, canonical_extension(fn))
                cells = _touched_cells(fn, 2 ** n)
                assert spans == [_expected_call(fn, i, 2 ** n) for i in cells], n
                assert 0 < len(spans) <= 2 * (len(fn.breakpoints) - 2), n
                # the runs are disjoint and ascending, at most one per piece
                assert len(sums) <= len(fn.pieces), n
                assert all(b < c for (_, b), (c, _) in zip(sums, sums[1:])), n
        spans.clear()
        sums.clear()
        lebesgue_n(24, canonical_extension(fixture_functions()["square"]))
        assert spans == [] and sums == [(0, 2 ** 24 - 1)]

    def test_closed_form_builds_no_rationals(self, monkeypatch):
        # the sums run in int pairs, and the two endpoints are scalars built
        # from their reduced pairs
        h = canonical_extension(
            _many_pieces([Fraction(k, 33) for k in range(32)] + [Fraction(1)])
        )
        expected = {n: lebesgue_n(n, h) for n in (0, 3, 8, 24)}
        built = []
        monkeypatch.setattr(
            lebesgue, "rational", lambda *args: built.append(args) or rational(*args)
        )
        for n, level in expected.items():
            built.clear()
            assert lebesgue_n(n, h) == level
            assert built == [], n

    def test_depth_24_is_fast(self):
        fixtures = fixture_functions()
        t0 = time.perf_counter()
        square = lebesgue_n(24, canonical_extension(fixtures["square"]))
        tent = lebesgue_n(24, canonical_extension(fixtures["tent"]))
        assert time.perf_counter() - t0 < 1.0
        p = 2 ** 24
        assert square == ival(
            rational((p - 1) * (2 * p - 1), 6 * p * p),
            rational((p + 1) * (2 * p + 1), 6 * p * p),
        )
        assert width(tent) == ext(rational(2, p))

    def test_depth_cap(self):
        h = canonical_extension(fixture_functions()["id"])
        with pytest.raises(DepthCapExceeded):
            lebesgue_n(5, h, cap=4)


class TestIntegrate:
    def test_identity_to_eighth(self):
        h = canonical_extension(fixture_functions()["id"])
        assert lebesgue_integrate(h, "1/8") == (ival("7/16", "9/16"), 3)

    def test_zero_function_converges_immediately(self):
        fn = PiecewiseMonotoneFn([0, 1], [("inc", Polynomial.constant(0))])
        h = canonical_extension(fn)
        assert lebesgue_integrate(h, "1/1000000") == (ival(0, 0), 0)

    def test_loose_target_stops_at_depth_zero(self):
        # the depth-0 enclosure of the square fixture is [0, 1], width 1,
        # already within a width target of 1
        h = canonical_extension(fixture_functions()["square"])
        assert lebesgue_integrate(h, 1) == (ival(0, 1), 0)

    def test_cap_exceeded_carries_partial_result(self):
        h = canonical_extension(fixture_functions()["id"])
        with pytest.raises(DepthCapExceeded) as info:
            lebesgue_integrate(h, "1/1024", cap=3)
        assert info.value.depth == 3
        assert info.value.enclosure == ival("7/16", "9/16")

    def test_rejects_bad_eps(self):
        h = canonical_extension(fixture_functions()["id"])
        for bad in (0, "inf"):
            with pytest.raises(ValueError):
                lebesgue_integrate(h, bad)


class TestRefine:
    def _id(self):
        return canonical_extension(fixture_functions()["id"])

    def test_yields_levels_until_the_first_narrow_enough(self):
        h = self._id()
        # id has width 1/2^n at depth n, so 1/8 is first met at depth 3
        assert list(refine(h, "1/8")) == [(n, lebesgue_n(n, h)) for n in range(4)]

    def test_cap_level_is_yielded_before_the_cap_is_reported(self):
        h = self._id()
        seen = []
        with pytest.raises(DepthCapExceeded) as info:
            for pair in refine(h, "1/1024", cap=3):
                seen.append(pair)
        assert seen == [(n, lebesgue_n(n, h)) for n in range(4)]
        assert info.value.depth == 3
        assert info.value.enclosure == seen[-1][1]

    def test_no_target_walks_every_depth_to_the_cap(self):
        # the constant half has width 0 at once; without a target the walk
        # still goes to the cap, and reaching it is not an error
        h = canonical_extension(fixture_functions()["half"])
        assert [n for n, _ in refine(h, None, cap=5)] == list(range(6))

    def test_a_negative_cap_raises_before_any_level(self, monkeypatch):
        h = self._id()
        monkeypatch.setattr(lebesgue, "lebesgue_n", lambda n, h, **kw: pytest.fail("level"))
        walks = [
            lambda: lebesgue_n(0, h, cap=-1),  # the function itself, not the patched global
            lambda: list(refine(h, None, cap=-1)),
            lambda: list(refine(h, "1/8", cap=-1)),
            lambda: lebesgue_integrate(h, "1/8", cap=-1),
        ]
        for walk in walks:
            with pytest.raises(ValueError, match="^depth must be nonnegative$"):
                walk()

    def test_levels_are_computed_once_through_the_module_global(self, monkeypatch):
        depths = []
        real = lebesgue.lebesgue_n
        monkeypatch.setattr(
            lebesgue, "lebesgue_n", lambda n, h, **kw: depths.append(n) or real(n, h, **kw)
        )
        assert lebesgue_integrate(self._id(), "1/8")[1] == 3
        assert depths == [0, 1, 2, 3]


_ENDS = st.one_of(st.fractions(0, 4, max_denominator=12), st.just(INFINITY))


@st.composite
def _walks(draw):
    """Up to six levels, some with infinite ends, and a width target: a
    rational, inf, or the width of one of the levels."""
    levels = []
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = sorted((ext(draw(_ENDS)), ext(draw(_ENDS))))
        levels.append(IntervalValue(lo, hi))
    eps = draw(
        st.one_of(
            st.fractions(0, 5, max_denominator=12),
            st.just(INFINITY),
            st.sampled_from([width(level) for level in levels]),
        )
    )
    return levels, eps


class TestStopRule:
    """refine stops at the first level whose width is at most eps, and
    decides that on the level's endpoints."""

    @settings(EXAMPLES, max_examples=300)
    @given(_walks())
    @example(([ival(0, "inf"), ival(1, 3)], 2))  # [a, inf], then width == eps
    @example(([ival(0, "inf"), ival("inf", "inf")], 1))  # [inf, inf] has width 0
    @example(([ival(1, "inf")], "inf"))  # [a, inf] is within an infinite eps
    @example(([ival(0, "1/3"), ival(0, "1/4")], "1/4"))
    def test_stops_exactly_where_the_width_is_within_eps(self, walk):
        levels, eps = walk
        within = [width(level) <= ext(eps) for level in levels]
        stop = within.index(True) if True in within else len(levels) - 1
        seen, cap = [], None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lebesgue, "lebesgue_n", lambda n, h, **kw: levels[n])
            try:
                for pair in refine(None, eps, cap=len(levels) - 1):
                    seen.append(pair)
            except DepthCapExceeded as exc:
                cap = exc.depth
        assert seen == list(enumerate(levels[: stop + 1]))
        assert cap == (None if True in within else stop)


class TestChainAndSqueeze:
    def test_lebesgue_chain_computes_each_level_once(self, monkeypatch):
        calls = []
        real = lebesgue.lebesgue_n
        monkeypatch.setattr(
            lebesgue, "lebesgue_n", lambda n, h, **kw: calls.append(n) or real(n, h, **kw)
        )
        result = laws.lebesgue_chain()
        assert (result.cases, result.failures) == (30, 0)
        # four fixtures at depths 0..12, each level once
        assert sorted(calls) == sorted(list(range(13)) * 4)

    def test_chain_check_fixtures(self):
        for name, fn in fixture_functions().items():
            assert chain_check(canonical_extension(fn), 10), name

    def test_chain_check_stops_past_the_default_cap(self, monkeypatch):
        # the guard raises before any level is computed
        monkeypatch.setattr(lebesgue, "lebesgue_n", lambda n, h, **kw: pytest.fail("level"))
        h = canonical_extension(fixture_functions()["id"])
        with pytest.raises(DepthCapExceeded) as info:
            chain_check(h, 25)
        assert str(info.value) == "depth 25 exceeds the cap 24"
        assert info.value.depth == 24
        assert info.value.enclosure is None

    def test_chain_check_rejects_a_negative_depth(self):
        h = canonical_extension(fixture_functions()["id"])
        with pytest.raises(ValueError, match="^depth must be nonnegative$"):
            chain_check(h, -1)
        assert chain_check(h, 0)

    def test_squeeze_and_monotone_convergence(self):
        for name, fn in fixture_functions().items():
            target = ext(FIXTURE_INTEGRALS[name])
            h = canonical_extension(fn)
            prev = None
            for n in range(11):
                enc = lebesgue_n(n, h)
                assert enc.lo <= target <= enc.hi, (name, n)
                if prev is not None:
                    assert prev.lo <= enc.lo
                    assert enc.hi <= prev.hi
                prev = enc

    def test_lipschitz_width_bounds(self):
        bounds = {"id": 1, "square": 2, "half": 0, "tent": 2}
        for name, fn in fixture_functions().items():
            h = canonical_extension(fn)
            L = rational(bounds[name])
            for n in range(9):
                assert width(lebesgue_n(n, h)) <= ext(L / 2 ** n), (name, n)


class TestInfinityBranch:
    @staticmethod
    def spike():
        """A test function with an infinite upper endpoint at 1/2."""
        half = rational(1, 2)

        def evaluator(cell: DyadicInterval) -> IntervalValue:
            lo = max(rational(0), cell.lo)
            hi = min(rational(1), cell.hi)
            if lo > hi:
                raise OutOfRange(f"{cell} misses [0, 1]")
            upper = INFINITY if half in cell else ext(hi)
            return IntervalValue(ext(lo), upper)

        return IntervalTestFn(evaluator, name="spike at 1/2")

    def test_spot_validation_accepts_it(self):
        # every cell refines its parent, so the walk to the cap succeeds
        levels = list(refine(self.spike(), None, cap=8))
        assert [n for n, _ in levels] == list(range(9))

    def test_upper_endpoint_pinned_at_infinity(self):
        h = self.spike()
        for n in range(9):
            enc = lebesgue_n(n, h)
            assert enc.hi.is_infinite
            assert not enc.lo.is_infinite

    def test_never_converges(self):
        with pytest.raises(DepthCapExceeded):
            lebesgue_integrate(self.spike(), "1/2", cap=6)


class TestEvaluatorValidation:
    def test_a_raw_piecewise_function_names_canonical_extension(self):
        f = parse_piecewise("piecewise { [0,1] inc: x }")
        message = r"^a PiecewiseMonotoneFn .*canonical_extension\(f\)$"
        for n in (0, 3):
            with pytest.raises(TypeError, match=message):
                lebesgue_n(n, f)
        seen = []
        with pytest.raises(TypeError, match=message):
            for level in refine(f, "1/4"):
                seen.append(level)
        assert seen == []
        with pytest.raises(TypeError, match=message):
            lebesgue_integrate(f, "1/4")
        with pytest.raises(TypeError, match=message):
            chain_check(f, 3)
        assert lebesgue_integrate(canonical_extension(f), "1/4") == (ival("3/8", "5/8"), 2)

    def test_non_monotone_evaluator_rejected(self):
        calls = []

        def bad(cell: DyadicInterval) -> IntervalValue:
            # wider intervals get tighter values: wrong way around
            calls.append(cell)
            w = cell.hi - cell.lo
            return ival(0, str(1 / w)) if w > 0 else ival(0, "inf")

        h = IntervalTestFn(bad)
        assert calls == []
        with pytest.raises(NotMonotone, match=r"at \[0,1\] -> \[0,1/2\]$"):
            lebesgue_n(1, h)

    @staticmethod
    def _late_failure() -> IntervalTestFn:
        """[0,1] on cells of width >= 1/8 or 0, [0,2] on the rest.

        Monotone on every cell of depth below 4, so the first level that
        can show the failure is depth 4.
        """

        def evaluator(cell: DyadicInterval) -> IntervalValue:
            w = cell.hi - cell.lo
            return ival(0, 1) if w >= rational(1, 8) or w == 0 else ival(0, 2)

        return IntervalTestFn(evaluator)

    def test_failure_below_the_sampled_depths_is_caught(self):
        h = self._late_failure()
        message = r"refinement at \[0,1/8\] -> \[0,1/16\]$"
        seen = []
        with pytest.raises(NotMonotone, match=message):
            for n, level in refine(h, None, cap=5):
                seen.append((n, level))
        assert seen == [(n, ival(0, 1)) for n in range(4)]
        with pytest.raises(NotMonotone, match=message):
            lebesgue_integrate(h, "1/2", cap=5)
        with pytest.raises(NotMonotone, match=message):
            chain_check(h, 5)
        assert chain_check(h, 3)
