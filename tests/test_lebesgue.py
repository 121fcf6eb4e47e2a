import json
import math
import pathlib
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from oracle_dyadic import FIXTURE_INTEGRALS, brute_force_level

from intval.algebra import INFINITY, IntervalValue, ext, ival, ival_leq, rational, width
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


class TestPowerSums:
    @EXAMPLES
    @given(polys, st.sampled_from((1, 2, 3, 12, 64, 1024)), st.data())
    def test_matches_the_direct_sum(self, poly, size, data):
        a = data.draw(st.integers(0, size - 1))
        b = data.draw(st.integers(a, min(size - 1, a + 40)))
        got = _as_rationals(lebesgue._power_sums(poly, size, a, b))
        assert got == _direct_sums(poly, size, a, b)

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
        got = _as_rationals(lebesgue._power_sums(poly, size, a, b))
        assert got == _direct_sums(poly, size, a, b)


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
        got = lebesgue._sign_changes(chain, u) - lebesgue._sign_changes(chain, v)
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
    signs = [c > 0 for c in lebesgue._moebius(g.num, lo, hi) if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_nonnegative(g: Polynomial, lo, hi) -> bool:
    """nonnegative_on's verdict when the certificate abstains, taken for
    any V: g's sign just right of lo, from the lowest nonzero coefficient of
    the real ``_moebius(g)``, and no root of odd multiplicity inside."""
    lowest = next(c for c in lebesgue._moebius(g.num, lo, hi) if c)
    return lowest > 0 and lebesgue._odd_roots(g, lo, hi) == 0


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
        coeffs = lebesgue._moebius(g.num, _rat(lo), _rat(hi))
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
        # step k of the Horner pass adds c * (scale + scale t)^k; the old
        # row formula builds that row entry by entry
        assume(num[-1] != 0)
        lo, hi = _rat(lo), _rat(lo + size)
        scale = lo.denominator * hi.denominator
        n = (lo.numerator * hi.denominator, hi.numerator * lo.denominator)
        acc = [num[-1]]
        for k, c in enumerate(reversed(num[:-1]), 1):
            acc = lebesgue._mul_ints(acc, n)
            acc = [a + c * b for a, b in zip(acc, lebesgue._binomial_row(scale, scale, k))]
        assert lebesgue._moebius(num, lo, hi) == acc

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


class TestOddRoots:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(repeated_root_polys(), _roots, _roots)
    def test_repeated_roots_agree_with_sympy(self, g, lo, hi):
        assume(lo < hi)
        lo, hi = _rat(lo), _rat(hi)
        assert lebesgue._odd_roots(g, lo, hi) == _sympy_odd_roots(g, lo, hi)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(certificate_cases())
    def test_certificate_cases_agree_with_sympy(self, case):
        g, lo, hi = case
        assert lebesgue._odd_roots(g, lo, hi) == _sympy_odd_roots(g, lo, hi)

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
        assert lebesgue._odd_roots(g, rational(0), rational(1)) == expected


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


def _cells_agree(fn, depths):
    for n in depths:
        size = 2 ** n
        got = [_as_rationals(pairs) for pairs in lebesgue._cell_ranges(fn, size, range(size))]
        want = [fn.range_over(rational(i, size), rational(i + 1, size)) for i in range(size)]
        assert got == want, n


def _many_pieces(bps):
    """Alternating inc and dec pieces on the breakpoints, with jumps."""
    pieces = []
    for k, (s, t) in enumerate(zip(bps, bps[1:])):
        if k % 2:
            pieces.append(("dec", Polynomial([_rat(t) + k, -1])))
        else:
            pieces.append(("inc", Polynomial([k, -_rat(s), 1]) if k % 4 else Polynomial([1, 1])))
    return PiecewiseMonotoneFn([_rat(b) for b in bps], pieces)


class TestCellRanges:
    """The level loop's integer-indexed cells equal range_over on every cell."""

    @settings(EXAMPLES, max_examples=60)
    @given(piecewise_fns())
    def test_every_cell_to_depth_8(self, fn):
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
        # every cell the level loop evaluates goes through _span, and no
        # cell through range_over
        spans = []
        original = PiecewiseMonotoneFn._span

        def counting(self, first, last, left, right):
            spans.append((first, last, left, right))
            return original(self, first, last, left, right)

        def forbidden(self, lo, hi):
            raise AssertionError("the level loop called range_over")

        monkeypatch.setattr(PiecewiseMonotoneFn, "_span", counting)
        monkeypatch.setattr(PiecewiseMonotoneFn, "range_over", forbidden)
        fn = fixture_functions()["tent"]  # interior breakpoints 1/2 and 3/4
        h = canonical_extension(fn)
        for n in (0, 1, 2, 12, 24):
            spans.clear()
            lebesgue_n(n, h)
            assert 0 < len(spans) <= 2 * (len(fn.breakpoints) - 2), n
        spans.clear()
        lebesgue_n(24, canonical_extension(fixture_functions()["square"]))
        assert spans == []

    def test_closed_form_builds_two_rationals(self, monkeypatch):
        # the sums run in int pairs; only the two returned endpoints are rationals
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
            assert len(built) == 2, n

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

    def test_levels_are_computed_once_through_the_module_global(self, monkeypatch):
        depths = []
        real = lebesgue.lebesgue_n
        monkeypatch.setattr(
            lebesgue, "lebesgue_n", lambda n, h, **kw: depths.append(n) or real(n, h, **kw)
        )
        assert lebesgue_integrate(self._id(), "1/8")[1] == 3
        assert depths == [0, 1, 2, 3]


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
