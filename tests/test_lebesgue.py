import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from oracle_dyadic import brute_force_level

from intval.algebra import INFINITY, IntervalValue, ext, ival, ival_leq, rational, width
from intval.errors import DepthCapExceeded, NonEvaluablePiece, OutOfRange
from intval.laws import FIXTURE_INTEGRALS, fixture_functions
from intval.lebesgue import (
    DyadicInterval,
    IntervalTestFn,
    PiecewiseMonotoneFn,
    Polynomial,
    canonical_extension,
    chain_check,
    dyadic_grid,
    dyadic_round,
    is_dyadic,
    lebesgue_integrate,
    lebesgue_n,
    nonnegative_on,
    refine,
)
from intval import laws, lebesgue
from intval.literals import parse_piecewise

EXAMPLES = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _rat(q: Fraction):
    return rational(q.numerator, q.denominator)


def _grid(h: IntervalTestFn) -> IntervalTestFn:
    """The same test function, summed cell by cell by lebesgue_n."""
    return IntervalTestFn(lambda c: h(c), validate=False)


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
            poly = poly + (base ** k).scaled(_rat(c))
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

    def test_divmod_and_derivative(self):
        x = Polynomial.identity()
        a = (x - Polynomial.constant(2)) * (x * x + Polynomial.constant(1))
        quot, rem = divmod(a + Polynomial.constant(5), x * x + Polynomial.constant(1))
        assert quot == x - Polynomial.constant(2)
        assert rem == Polynomial.constant(5)
        assert (x ** 3).derivative() == (x ** 2).scaled(3)
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


def _sympy_nonnegative(poly: Polynomial, lo, hi) -> bool:
    """poly >= 0 on (lo, hi) decided from sympy.real_roots.

    A polynomial keeps its sign across roots of even multiplicity and
    changes it at odd ones; without odd roots inside, any nonzero sample
    shows the sign.
    """
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(str(c)) for c in poly.coeffs]
    g = sympy.Poly(sum(c * x ** k for k, c in enumerate(coeffs)), x)
    lo, hi = sympy.Rational(str(lo)), sympy.Rational(str(hi))
    if g.is_zero:
        return True
    if g.degree() > 0:
        for root, mult in sympy.real_roots(g, multiple=False):
            if mult % 2 == 1 and bool(lo < root) and bool(root < hi):
                return False
    d = g.degree() + 2
    return all(g.eval(lo + (hi - lo) * k / d) >= 0 for k in range(1, d))


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
        with pytest.raises(OutOfRange):
            h(DyadicInterval(2, 3))

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
        calls = []
        original = PiecewiseMonotoneFn.range_over

        def counting(self, lo, hi):
            calls.append((lo, hi))
            return original(self, lo, hi)

        monkeypatch.setattr(PiecewiseMonotoneFn, "range_over", counting)
        fn = fixture_functions()["tent"]  # interior breakpoints 1/2 and 3/4
        h = canonical_extension(fn)
        for n in (0, 1, 2, 12, 24):
            calls.clear()
            lebesgue_n(n, h)
            assert len(calls) <= 2 * (len(fn.breakpoints) - 2), n
        calls.clear()
        lebesgue_n(24, canonical_extension(fixture_functions()["square"]))
        assert calls == []

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
        self.spike()

    def test_upper_endpoint_pinned_at_infinity(self):
        h = self.spike()
        for n in range(9):
            enc = lebesgue_n(n, h)
            assert enc.hi.is_infinite
            assert not enc.lo.is_infinite

    def test_never_converges(self):
        with pytest.raises(DepthCapExceeded):
            lebesgue_integrate(self.spike(), "1/2", cap=6)


class TestDyadicRound:
    def test_examples(self):
        assert dyadic_round(1, "1/2") == DyadicInterval(0, 1)
        assert dyadic_round(2, 1) == DyadicInterval("3/4", 1)
        for n in range(6):
            assert dyadic_round(n, 0) == DyadicInterval(0, rational(1, 2 ** n))

    def test_encloses_and_ascends(self):
        xs = [rational(0), rational(1, 3), rational(1, 2), rational(5, 8), rational(1)]
        for x in xs:
            prev = None
            for n in range(10):
                cell = dyadic_round(n, x)
                assert cell.lo <= x <= cell.hi
                if prev is not None:
                    assert cell.refines(prev)
                prev = cell
            assert cell.hi - cell.lo <= rational(2, 2 ** 9)

    def test_squeezes_evaluations(self):
        h = canonical_extension(fixture_functions()["square"])
        x = rational(3, 8)
        point = DyadicInterval(x, x)
        prev = None
        for n in range(9):
            enc = h(dyadic_round(n, x))
            assert ival_leq(enc, h(point))
            if prev is not None:
                assert ival_leq(prev, enc)
            prev = enc

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            dyadic_round(3, 2)


class TestEvaluatorValidation:
    def test_non_monotone_evaluator_rejected(self):
        def bad(cell: DyadicInterval) -> IntervalValue:
            # wider intervals get tighter values: wrong way around
            w = cell.hi - cell.lo
            return ival(0, str(w)) if w > 0 else ival(0, 1)

        with pytest.raises(ValueError):
            IntervalTestFn(bad)
