import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from intval import valuations
from intval.algebra import BOTTOM, INTERVALS, IONE, IZERO, SCALARS, IntervalValue, ext, ival
from intval.errors import NotMonotone, PointNotInSpace, SpaceMismatch
from intval.laws import (
    COEFF_GRID,
    random_interval,
    random_monotone_kernel,
    random_monotone_map,
    random_poset,
    random_scalar,
    random_valuation,
)
from intval.monad import Kernel
from intval.spaces import FinitePoset, MonotoneMap, antichain, chain, enumerate_posets, singleton
from intval.valuations import (
    ElementaryValuation,
    add,
    bottom_valuation,
    dirac,
    eq_on,
    evaluate,
    scale,
    separating_function,
    valuation_leq,
)
from oracle_support import down_closure, up_closure
from oracle_tables import random_refining_pair
from oracle_valuations import (
    SCALAR_TEST_GRID,
    assert_separates,
    enumerated_leq,
    exhaustive_tests,
    leq_on,
)


@pytest.fixture
def xy():
    return antichain(["x", "y"])


@pytest.fixture
def h_xy(xy):
    return MonotoneMap(xy, {"x": ival(1, 2), "y": ival(0, 3)})


class TestDirac:
    def test_evaluates_to_the_point_value(self, xy, h_xy):
        assert evaluate(dirac(xy, "x"), h_xy) == ival(1, 2)

    def test_singleton_space(self):
        s = singleton("a")
        d = dirac(s, "a")
        assert d.terms == ((IONE, "a"),)

    def test_constant_zero_function(self, xy):
        h0 = MonotoneMap(xy, {"x": IZERO, "y": IZERO})
        assert evaluate(dirac(xy, "y"), h0) == IZERO

    def test_point_must_exist(self, xy):
        with pytest.raises(PointNotInSpace):
            dirac(xy, "nope")


class TestEvaluate:
    def test_worked_example(self, xy, h_xy):
        nu = ElementaryValuation(
            xy, [(ival("1/2", "1/2"), "x"), (ival("1/4", "1/3"), "y")]
        )
        assert evaluate(nu, h_xy) == ival("1/2", 2)

    def test_constant_one_sums_coefficients(self, xy):
        nu = ElementaryValuation(xy, [(ival(1, 2), "x"), (ival("1/2", "1/2"), "y")])
        h1 = MonotoneMap(xy, {"x": IONE, "y": IONE})
        assert evaluate(nu, h1) == ival("3/2", "5/2")

    def test_bottom_valuation_evaluates_to_bottom(self, xy, h_xy):
        assert evaluate(bottom_valuation(xy), h_xy) == BOTTOM

    @pytest.mark.parametrize("algebra", [INTERVALS, SCALARS])
    def test_bottom_valuation_on_an_empty_poset_is_the_empty_sum(self, algebra):
        with pytest.raises(ValueError, match="the empty sum is not a valuation"):
            bottom_valuation(FinitePoset([]), algebra)

    def test_space_mismatch(self, h_xy):
        other = singleton("z")
        with pytest.raises(SpaceMismatch):
            evaluate(dirac(other, "z"), h_xy)

    def test_algebra_mismatch(self, xy):
        nu = dirac(xy, "x")
        h = MonotoneMap(xy, {"x": ext(1), "y": ext(1)}, SCALARS)
        with pytest.raises(SpaceMismatch):
            evaluate(nu, h)


class TestScaleAndAdd:
    def test_scale_by_unit(self, xy):
        nu = random_valuation(random.Random(0), xy)
        assert scale(IONE, nu) == nu

    def test_scale_by_bottom_gives_bottom_coefficients(self, xy):
        nu = ElementaryValuation(xy, [(ival(1, 2), "x"), (ival(3, 3), "y")])
        scaled = scale(BOTTOM, nu)
        assert all(c == BOTTOM for c, _ in scaled.terms)

    def test_scale_single_term(self):
        s = singleton("a")
        assert scale(ival(2, 2), dirac(s, "a")).terms == ((ival(2, 2), "a"),)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([INTERVALS, SCALARS]))
    def test_scale_keeps_the_normal_form(self, seed, algebra):
        rng = random.Random(seed)
        space = random_poset(rng, 6)
        nu = random_valuation(rng, space, 4, algebra)
        zero = IZERO if algebra is INTERVALS else ext(0)
        a = rng.choice((zero, algebra.bottom, _coefficient(rng, algebra)))
        out = scale(a, nu)
        general = ElementaryValuation(
            space, [(algebra.mul(a, c), p) for c, p in nu.terms], algebra, validate=False
        )
        assert out.space is space and out.algebra is algebra
        assert type(out.terms) is tuple and out.terms == general.terms

    @pytest.mark.parametrize("algebra", [INTERVALS, SCALARS], ids=["interval", "scalar"])
    def test_scale_rejects_a_foreign_scalar(self, xy, algebra):
        wrong = IONE if algebra is SCALARS else ext(1)
        with pytest.raises(ValueError) as err:
            scale(wrong, dirac(xy, "x", algebra))
        assert str(err.value) == f"scalar {wrong!r} is not a {algebra.name} element"

    def test_add_merges_equal_points(self, xy):
        d = dirac(xy, "x")
        assert add(d, d).terms == ((ival(2, 2), "x"),)

    def test_add_keeps_disjoint_points(self, xy):
        out = add(dirac(xy, "x"), dirac(xy, "y"))
        assert len(out.terms) == 2

    def test_add_with_bottom_absorbs_upper_endpoint(self, xy, h_xy):
        nu = ElementaryValuation(xy, [(ival(1, 1), "x")])
        summed = evaluate(add(nu, bottom_valuation(xy)), h_xy)
        direct = evaluate(nu, h_xy)
        assert summed.lo == direct.lo
        assert summed.hi.is_infinite


class TestLinearity:
    def test_homogeneity_and_additivity(self):
        rng = random.Random(42)
        for _ in range(300):
            space = random_poset(rng, 4)
            nu = random_valuation(rng, space)
            h = random_monotone_map(rng, space)
            h2 = random_monotone_map(rng, space)
            a = random_interval(rng)
            scaled_h = MonotoneMap(
                space,
                {p: a * h(p) for p in space.points},
                INTERVALS,
                validate=False,
            )
            assert evaluate(nu, scaled_h) == a * evaluate(nu, h)
            assert evaluate(scale(a, nu), h) == a * evaluate(nu, h)
            sum_h = MonotoneMap(
                space,
                {p: h(p) + h2(p) for p in space.points},
                INTERVALS,
                validate=False,
            )
            assert evaluate(nu, sum_h) == evaluate(nu, h) + evaluate(nu, h2)

    def test_monotone_in_test_function(self):
        rng = random.Random(43)
        for _ in range(300):
            space = random_poset(rng, 4)
            nu = random_valuation(rng, space)
            coarse, fine = random_refining_pair(rng, space)
            assert INTERVALS.leq(evaluate(nu, coarse), evaluate(nu, fine))


class TestNormalForm:
    def test_idempotent_and_order_insensitive(self, xy):
        terms = [(ival(1, 2), "y"), (ival("1/2", 1), "x"), (ival(0, 1), "y")]
        nu = ElementaryValuation(xy, terms)
        nu2 = ElementaryValuation(xy, list(reversed(terms)))
        renormalized = ElementaryValuation(xy, nu.terms)
        assert nu == nu2 == renormalized

    def test_evaluation_invariant_under_permutation(self, xy, h_xy):
        terms = [(ival(1, 2), "y"), (ival("1/2", 1), "x"), (ival(0, 1), "y")]
        nu = ElementaryValuation(xy, terms)
        nu2 = ElementaryValuation(xy, list(reversed(terms)))
        assert evaluate(nu, h_xy) == evaluate(nu2, h_xy)

    def test_zero_coefficients_are_kept(self, xy):
        nu = ElementaryValuation(xy, [(IZERO, "x"), (IONE, "y")])
        assert len(nu.terms) == 2
        # and they matter: against an infinite upper endpoint, [0,0] widens
        h = MonotoneMap(xy, {"x": ival("inf", "inf"), "y": IONE})
        assert evaluate(nu, h) == ival(1, "inf")

    def test_empty_rejected(self, xy):
        with pytest.raises(ValueError):
            ElementaryValuation(xy, [])

    def test_repr_round_trips(self, xy):
        from intval.literals import parse_valuation

        nu = ElementaryValuation(xy, [(ival("1/2", "1/2"), "x"), (ival("1/4", "1/3"), "y")])
        terms, algebra = parse_valuation(repr(nu))
        assert ElementaryValuation(xy, terms, algebra) == nu


class TestEquality:
    """== compares normal forms, and != is its negation; one object is
    equal to itself, and a foreign type is unequal both ways."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([INTERVALS, SCALARS]),
        st.integers(1, 3),
        st.booleans(),
    )
    def test_ne_is_the_negation_of_eq(self, seed, algebra, max_terms, on_twin):
        rng = random.Random(seed)
        space = random_poset(rng, 3)
        # an equal poset that is not the same object
        twin = FinitePoset(space.points, space.cover_pairs())
        assert twin == space and twin is not space
        mu = random_valuation(rng, space, max_terms, algebra)
        nu = random_valuation(rng, twin if on_twin else space, max_terms, algebra)
        copy = ElementaryValuation(twin if on_twin else space, mu.terms, algebra)
        for a, b in [(mu, nu), (nu, mu), (mu, copy), (copy, mu), (mu, mu)]:
            assert (a != b) is not (a == b)
            if a == b:
                assert hash(a) == hash(b)
        assert mu == copy and mu is not copy
        assert mu == mu and (mu != mu) is False

    def test_a_foreign_type_is_unequal(self, xy):
        nu = dirac(xy, "x")
        assert (nu == 5) is False and (5 == nu) is False
        assert (nu != 5) is True and (5 != nu) is True
        assert nu.__eq__(5) is NotImplemented and nu.__ne__(5) is NotImplemented


def _coefficient(rng, algebra):
    return random_interval(rng) if algebra is INTERVALS else random_scalar(rng)


class TestOneTermNormalForm:
    """A one-term sum is taken as its own normal form, without merging."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([INTERVALS, SCALARS]))
    def test_matches_the_merging_path(self, seed, algebra):
        rng = random.Random(seed)
        space = random_poset(rng, 4)
        a, b = _coefficient(rng, algebra), _coefficient(rng, algebra)
        p = rng.choice(space.points)
        one = ElementaryValuation(space, [(algebra.add(a, b), p)], algebra)
        merged = ElementaryValuation(space, [(a, p), (b, p)], algebra)
        assert one.terms == merged.terms == ((algebra.add(a, b), p),)
        assert one == merged and hash(one) == hash(merged)
        from_generator = ElementaryValuation(
            space, ((c, q) for c, q in [(algebra.add(a, b), p)]), algebra
        )
        assert from_generator.terms == one.terms
        # a term given as a list still lands in the terms as a tuple
        assert ElementaryValuation(space, [[a, p]], algebra).terms == ((a, p),)

    @pytest.mark.parametrize("algebra", [INTERVALS, SCALARS], ids=["interval", "scalar"])
    def test_validation_still_runs(self, xy, algebra):
        with pytest.raises(PointNotInSpace):
            ElementaryValuation(xy, [(algebra.one, "nope")], algebra)
        wrong = IONE if algebra is SCALARS else ext(1)
        with pytest.raises(ValueError) as err:
            ElementaryValuation(xy, [(wrong, "x")], algebra)
        assert str(err.value) == f"coefficient {wrong!r} is not a {algebra.name} element"
        # unvalidated, the term is taken as given
        assert ElementaryValuation(xy, [(wrong, "x")], algebra, validate=False).terms == (
            (wrong, "x"),
        )


class TestComparisons:
    def test_bottom_is_least(self):
        rng = random.Random(44)
        for poset_size in (1, 2, 3):
            space = random_poset(rng, poset_size)
            tests = exhaustive_tests(space)
            for _ in range(20):
                nu = random_valuation(rng, space)
                assert leq_on(bottom_valuation(space), nu, tests)

    def test_reflexive(self, xy):
        nu = random_valuation(random.Random(1), xy)
        assert leq_on(nu, nu, exhaustive_tests(xy))
        assert eq_on(nu, nu, exhaustive_tests(xy))

    def test_dirac_order_follows_point_order(self):
        p = chain(["p", "q"])
        tests = exhaustive_tests(p)
        assert leq_on(dirac(p, "p"), dirac(p, "q"), tests)
        assert not leq_on(dirac(p, "q"), dirac(p, "p"), tests)

    def test_needs_tests(self, xy):
        with pytest.raises(ValueError):
            leq_on(dirac(xy, "x"), dirac(xy, "x"), [])


def grid_valuations(space, algebra):
    """Every valuation with one test-grid coefficient per chosen point."""
    grid = COEFF_GRID if algebra is INTERVALS else SCALAR_TEST_GRID
    pts = space.points
    return [
        ElementaryValuation(space, list(zip(coeffs, subset)), algebra)
        for r in range(1, len(pts) + 1)
        for subset in combinations(pts, r)
        for coeffs in product(grid, repeat=r)
    ]


def proof_family(space, algebra):
    """The test functions that valuation_leq's proof reduces the order to.

    [1_U, inf] per upper set U, [0, 1_D] and [0, inf . 1_D] per down-set D,
    and [0, 0]; at SCALARS, 1_U per upper set.  Built from the poset's
    closures, with no code shared with valuation_leq.
    """
    pts = space.points
    subsets = [frozenset(c) for r in range(len(pts) + 1) for c in combinations(pts, r)]
    uppers = [u for u in subsets if up_closure(space, u) == u]
    downs = [d for d in subsets if down_closure(space, d) == d]
    if algebra is SCALARS:
        tables = [{p: ext(int(p in u)) for p in pts} for u in uppers]
    else:
        tables = [{p: ival(int(p in u), "inf") for p in pts} for u in uppers]
        tables += [{p: ival(0, int(p in d)) for p in pts} for d in downs]
        tables += [{p: ival(0, "inf" if p in d else 0) for p in pts} for d in downs]
        tables.append({p: IZERO for p in pts})
    return [MonotoneMap(space, t, algebra) for t in tables]


def _differential(space, pairs, algebra):
    """Check (a) exact => grid family and (b) exact == proof family.

    Returns the number of pairs the grid family orders but the decision
    does not.
    """
    grid_tests = exhaustive_tests(space, algebra=algebra)
    family = proof_family(space, algebra)
    grid_only = 0
    for mu, nu in pairs:
        exact = valuation_leq(mu, nu)
        grid = leq_on(mu, nu, grid_tests)
        assert grid or not exact, (mu, nu)
        assert exact == leq_on(mu, nu, family), (mu, nu)
        grid_only += grid and not exact
    return grid_only


class TestValuationLeq:
    def test_grid_accepted_pair_on_the_two_chain_is_not_ordered(self):
        ab = chain(["a", "b"])
        mu = ElementaryValuation(ab, [(IZERO, "a"), (ival(1, 2), "b")])
        nu = ElementaryValuation(ab, [(ival("1/2", "1/2"), "a"), (IONE, "b")])
        assert leq_on(mu, nu, exhaustive_tests(ab))
        assert not valuation_leq(mu, nu)
        h = MonotoneMap(ab, {"a": ival(0, 1), "b": IZERO})
        assert (evaluate(mu, h), evaluate(nu, h)) == (IZERO, ival(0, "1/2"))

    def test_complete_where_equality_is_not(self):
        qp = chain(["q", "p"])
        top = ival("inf", "inf")
        mu = ElementaryValuation(qp, [(top, "p"), (ival(1, "inf"), "q")])
        nu = ElementaryValuation(qp, [(top, "p"), (ival(2, "inf"), "q")])
        assert mu != nu
        assert valuation_leq(mu, nu) and valuation_leq(nu, mu)

    def test_kept_zero_terms_matter(self):
        xy = antichain(["x", "y"])
        zx = ElementaryValuation(xy, [(IZERO, "x")])
        zxy = ElementaryValuation(xy, [(IZERO, "x"), (IZERO, "y")])
        assert valuation_leq(zxy, zx)
        assert not valuation_leq(zx, zxy)

    def test_mismatches_raise(self, xy):
        with pytest.raises(SpaceMismatch):
            valuation_leq(dirac(xy, "x"), dirac(chain(["x", "y"]), "x"))
        with pytest.raises(SpaceMismatch):
            valuation_leq(dirac(xy, "x"), dirac(xy, "x", SCALARS))

    @pytest.mark.parametrize("algebra", [INTERVALS, SCALARS], ids=["interval", "scalar"])
    def test_every_grid_pair_on_posets_up_to_two_points(self, algebra):
        grid_only = 0
        for space in enumerate_posets(2):
            vals = grid_valuations(space, algebra)
            grid_only += _differential(space, [(m, n) for m in vals for n in vals], algebra)
        # the grid family contains every 1_U at SCALARS, so there it decides
        # the order; on intervals it misses exactly two pairs, on the 2-chain
        assert grid_only == (2 if algebra is INTERVALS else 0)

    @pytest.mark.parametrize("algebra", [INTERVALS, SCALARS], ids=["interval", "scalar"])
    def test_seeded_grid_pairs_on_three_point_posets(self, algebra):
        rng = random.Random(6)
        three_point = [p for p in enumerate_posets(3) if len(p) == 3]
        assert len(three_point) == 5
        for space in three_point:
            vals = grid_valuations(space, algebra)
            pairs = [(rng.choice(vals), rng.choice(vals)) for _ in range(1000)]
            _differential(space, pairs, algebra)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([INTERVALS, SCALARS]))
    def test_ordered_pairs_agree_on_random_test_functions(self, seed, algebra):
        rng = random.Random(seed)
        space = random_poset(rng, 6)
        if algebra is INTERVALS and rng.random() < 0.5:
            # images along a 2-chain of a monotone kernel are ordered
            f = random_monotone_kernel(rng, chain(["s", "t"]), space, max_terms=4)
            mu, nu = f("s"), f("t")
            assert valuation_leq(mu, nu)
        else:
            mu = random_valuation(rng, space, 4, algebra)
            nu = random_valuation(rng, space, 4, algebra)
        if valuation_leq(mu, nu):
            for _ in range(20):
                h = random_monotone_map(rng, space, algebra)
                assert algebra.leq(evaluate(mu, h), evaluate(nu, h))


# ---- the flow decision against the enumeration ------------------------------

# the corners [0,inf], [1,inf], [inf,inf] and [0,0]
_CORNERS = (BOTTOM, ival(1, "inf"), ival("inf", "inf"), IZERO)
_HALF = {INTERVALS: ival("1/2", "1/2"), SCALARS: ext("1/2")}


def _coefficient(rng, algebra):
    if algebra is SCALARS:
        return random_scalar(rng)
    return rng.choice(_CORNERS) if rng.random() < 0.4 else random_interval(rng)


def near_pair(rng, space, algebra):
    """A pair (mu, nu) near the order's boundary.

    mu has 1-6 random terms.  A quarter of the time nu is drawn the same
    way; otherwise each of mu's terms moves up the order, narrowed to one
    of its endpoints or split in halves at two points above, which gives
    an ordered pair with up to 12 terms, and half of those pairs then get
    one of nu's terms redrawn.
    """
    pts = space.points

    def draw():
        return [(_coefficient(rng, algebra), rng.choice(pts)) for _ in range(rng.randint(1, 6))]

    mu_terms = draw()
    if rng.random() < 0.25:
        nu_terms = draw()
    else:
        nu_terms = []
        for c, p in mu_terms:
            above = [q for q in pts if space.leq(p, q)]
            if algebra is INTERVALS and rng.random() < 0.4:
                end = rng.choice((c.lo, c.hi))
                c = IntervalValue(end, end)
            if rng.random() < 0.5:
                half = algebra.mul(c, _HALF[algebra])
                nu_terms += [(half, rng.choice(above)), (half, rng.choice(above))]
            else:
                nu_terms.append((c, rng.choice(above)))
        if rng.random() < 0.5:
            nu_terms[rng.randrange(len(nu_terms))] = draw()[0]
    return (
        ElementaryValuation(space, mu_terms, algebra),
        ElementaryValuation(space, nu_terms, algebra),
    )


def seeded_pairs(seed, count):
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        algebra = (INTERVALS, SCALARS)[i % 2]
        pairs.append(near_pair(rng, random_poset(rng, 8), algebra))
    return pairs


class TestFlowDecision:
    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([INTERVALS, SCALARS]))
    def test_agrees_with_the_enumeration_and_certifies_every_no(self, seed, algebra):
        rng = random.Random(seed)
        space = random_poset(rng, 8)
        for _ in range(8):
            mu, nu = near_pair(rng, space, algebra)
            verdict = valuation_leq(mu, nu)
            assert verdict == enumerated_leq(mu, nu), (mu, nu)
            h = separating_function(mu, nu)
            if verdict:
                assert h is None
            else:
                assert_separates(mu, nu, h)

    def test_the_pairs_reach_every_verdict(self, monkeypatch):
        # the generated pairs exercise both verdicts, every kind of cut,
        # and flows with more than one source point on both outcomes
        flows = []
        real = valuations._transport

        def spy(supply, demand, reach):
            reached = real(supply, demand, reach)
            flows.append(reached is None)
            return reached

        monkeypatch.setattr(valuations, "_transport", spy)
        kinds = [valuations._refutation(mu, nu) for mu, nu in seeded_pairs(3, 400)]
        seen = {None if k is None else k[0] for k in kinds}
        assert seen == {None, "upper", "down", "support"}
        assert True in flows and False in flows

    def test_the_checker_catches_a_cut_on_the_wrong_side(self, monkeypatch):
        # planted defect: the stuck search's complement, the sink side of
        # the cut, is reported as the violated source set
        real = valuations._transport

        def wrong_side(supply, demand, reach):
            reached = real(supply, demand, reach)
            return None if reached is None else [not r for r in reached]

        monkeypatch.setattr(valuations, "_transport", wrong_side)
        caught = 0
        for mu, nu in seeded_pairs(3, 400):
            h = separating_function(mu, nu)
            if h is not None:
                try:
                    assert_separates(mu, nu, h)
                except AssertionError:
                    caught += 1
        assert caught > 0


# ---- polynomial time: the dyadic cells -------------------------------------


def dyadic_cells(depth):
    """D_depth: the dyadic cells of [0,1] of depth <= depth under reverse
    inclusion.  Cell 'n.i' is [i/2^n, (i+1)/2^n], below its two halves."""
    points = [f"{n}.{i}" for n in range(depth + 1) for i in range(2**n)]
    halves = [
        (f"{n}.{i}", f"{n + 1}.{2 * i + c}")
        for n in range(depth)
        for i in range(2**n)
        for c in (0, 1)
    ]
    return FinitePoset(points, halves)


def uniform_cells(space, n):
    """lambda_n: mass [2^-n, 2^-n] on each depth-n cell."""
    w = ival(f"1/{2**n}", f"1/{2**n}")
    return ElementaryValuation(space, [(w, f"{n}.{i}") for i in range(2**n)])


class TestPolynomialTime:
    # Budgets from the slowest of 5 runs on a 2-core machine (Python
    # 3.11.7): the D_4 kernel took 0.25 ms (budget 50 ms, 200x; the 2^24
    # trace enumeration took 72 s) and the D_7 chain 6.6 ms (budget
    # 0.25 s, about 40x).
    def test_kernel_on_d4_with_images_lambda3_and_lambda4(self):
        # 24 term points: 2^24 traces for an enumeration
        d4 = dyadic_cells(4)
        lam3, lam4 = uniform_cells(d4, 3), uniform_cells(d4, 4)
        t0 = time.perf_counter()
        Kernel(chain(["s", "t"]), d4, {"s": lam3, "t": lam4})
        assert time.perf_counter() - t0 < 0.05
        with pytest.raises(NotMonotone, match="; separated by fn h { 0.0 -> "):
            Kernel(chain(["s", "t"]), d4, {"s": lam4, "t": lam3})

    def test_lambda_chain_on_d7(self):
        d7 = dyadic_cells(7)
        lam = [uniform_cells(d7, n) for n in range(8)]
        t0 = time.perf_counter()
        assert all(valuation_leq(lam[n], lam[n + 1]) for n in range(7))
        assert not valuation_leq(lam[7], lam[6])
        assert time.perf_counter() - t0 < 0.25
        assert_separates(lam[7], lam[6], separating_function(lam[7], lam[6]))
