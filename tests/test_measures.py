import random

import pytest
from hypothesis import given, settings, strategies as st

from intval.algebra import (
    INFINITY,
    INTERVALS,
    IONE,
    SCALARS,
    ZERO,
    ExtNonNeg,
    IntervalValue,
    ext,
    ival,
    ival_leq,
    mul_left,
    mul_right,
)
from intval.errors import (
    NotMonotone,
    PointNotInSpace,
    SpaceMismatch,
    UnboundedMeasure,
    ZeroMeasure,
)
from intval.laws import (
    random_antitone_table,
    random_measure,
    random_monotone_map,
    random_monotone_table,
    random_poset,
    random_table,
    random_valuation,
)
from intval.measures import (
    FiniteSupportMeasure,
    choquet_integral,
    interval_integral,
    least_interval_extension,
    lower_integral,
    pushforward,
    scalar_view,
    upper_integral,
)
from intval.spaces import MonotoneMap, antichain, chain, singleton
from intval.valuations import dirac, evaluate
from oracle_support import down_closure, is_mu_bounded
from oracle_valuations import exhaustive_tests


class TestMeasureBasics:
    def test_zero_masses_dropped(self):
        p = antichain(["x", "y"])
        mu = FiniteSupportMeasure(p, {"x": 0, "y": "1/2"})
        assert mu.mass_points == frozenset({"y"})
        assert mu.mass("x") == ZERO

    def test_boundedness(self):
        p = singleton("x")
        assert FiniteSupportMeasure(p, {"x": 5}).is_bounded
        assert not FiniteSupportMeasure(p, {"x": "inf"}).is_bounded

    def test_zero_measure(self):
        p = singleton("x")
        assert FiniteSupportMeasure(p, {}).is_zero

    def test_repr_round_trips(self):
        from intval.literals import parse_measure

        p = antichain(["x", "y"])
        mu = FiniteSupportMeasure(p, {"x": "1/2", "y": "1/2"})
        assert FiniteSupportMeasure(p, parse_measure(repr(mu))) == mu


class TestLowerIntegral:
    def test_worked_example(self):
        p = antichain(["x", "y"])
        mu = FiniteSupportMeasure(p, {"x": "1/2", "y": "1/2"})
        assert lower_integral({"x": ext(1), "y": ext(3)}, mu) == ext(2)

    def test_almost_everywhere_zero_with_infinite_scale(self):
        # f vanishes at every mass point, is inf elsewhere: both the
        # integral of inf*f and inf times the integral are zero.
        p = antichain(["x", "y"])
        mu = FiniteSupportMeasure(p, {"x": 2})
        f = {"x": ZERO, "y": INFINITY}
        scaled = {q: mul_left(INFINITY, v) for q, v in f.items()}
        assert lower_integral(scaled, mu) == ZERO
        assert mul_left(INFINITY, lower_integral(f, mu)) == ZERO

    def test_infinite_value_at_mass_point(self):
        p = singleton("x")
        mu = FiniteSupportMeasure(p, {"x": "1/3"})
        assert lower_integral({"x": INFINITY}, mu) == INFINITY

    def test_additive_and_homogeneous(self):
        rng = random.Random(10)
        for _ in range(400):
            space = random_poset(rng, 5)
            mu = random_measure(rng, space, max_points=5)
            f = random_table(rng, space)
            g = random_table(rng, space)
            fg = {p: f[p] + g[p] for p in space.points}
            assert lower_integral(fg, mu) == lower_integral(f, mu) + lower_integral(g, mu)
            for a in (ZERO, INFINITY, ext("2/3")):
                af = {p: mul_left(a, f[p]) for p in space.points}
                assert lower_integral(af, mu) == mul_left(a, lower_integral(f, mu))


class TestChoquetOracle:
    def test_worked_example(self):
        p = antichain(["x", "y"])
        mu = FiniteSupportMeasure(p, {"x": "1/2", "y": "1/2"})
        f = {"x": ext(1), "y": ext(3)}
        assert choquet_integral(f, mu) == ext(2) == lower_integral(f, mu)

    def test_constant(self):
        p = antichain(["x", "y"])
        mu = FiniteSupportMeasure(p, {"x": "1/4", "y": "3/4"})
        assert choquet_integral({"x": ext(5), "y": ext(5)}, mu) == ext(5)

    def test_zero_integrand(self):
        p = singleton("x")
        mu = FiniteSupportMeasure(p, {"x": "inf"})
        assert choquet_integral({"x": ZERO}, mu) == ZERO

    def test_agrees_with_lower_integral_on_corners(self):
        rng = random.Random(11)
        for _ in range(500):
            space = random_poset(rng, 5)
            mu = random_measure(rng, space, max_points=5)
            f = random_table(rng, space)
            assert choquet_integral(f, mu) == lower_integral(f, mu)


class TestPushforward:
    def test_identity(self):
        p = antichain(["x", "y"])
        mu = FiniteSupportMeasure(p, {"x": 1, "y": 2})
        assert pushforward(lambda q: q, mu, p) == mu

    def test_constant_collapses(self):
        p = antichain(["x", "y"])
        mu = FiniteSupportMeasure(p, {"x": 1, "y": 2})
        out = pushforward(lambda q: "x", mu, p)
        assert out == FiniteSupportMeasure(p, {"x": 3})

    def test_change_of_variables(self):
        rng = random.Random(12)
        for _ in range(300):
            X, Y = random_poset(rng, 4), random_poset(rng, 4)
            g = {x: rng.choice(Y.points) for x in X.points}
            mu = random_measure(rng, X, max_points=4)
            f = random_table(rng, Y)
            lhs = lower_integral(f, pushforward(g, mu, Y))
            rhs = lower_integral({x: f[g[x]] for x in X.points}, mu)
            assert lhs == rhs


class TestMuBoundedness:
    def test_point_mass_at_top(self):
        p = chain(["p", "q"])
        mu = FiniteSupportMeasure(p, {"q": 1})
        decision = is_mu_bounded({"p": ext(9), "q": ext(5)}, mu)
        assert decision.bounded
        assert decision.witness.members == frozenset({"q"})

    def test_infinite_on_core(self):
        p = chain(["p", "q"])
        mu = FiniteSupportMeasure(p, {"q": 1})
        decision = is_mu_bounded({"p": INFINITY, "q": INFINITY}, mu)
        assert not decision.bounded

    def test_antichain_core_is_mass_points(self):
        p = antichain(["a", "b", "c"])
        mu = FiniteSupportMeasure(p, {"a": 1, "b": 1})
        f = {"a": ext(3), "b": ext(1), "c": INFINITY}
        decision = is_mu_bounded(f, mu)
        assert decision.bounded

    def test_zero_measure_rejected(self):
        p = singleton("x")
        with pytest.raises(ZeroMeasure):
            is_mu_bounded({"x": ext(1)}, FiniteSupportMeasure(p, {}))

    def test_requires_antitone(self):
        p = chain(["p", "q"])
        mu = FiniteSupportMeasure(p, {"q": 1})
        with pytest.raises(NotMonotone):
            is_mu_bounded({"p": ext(0), "q": ext(5)}, mu)


class TestUpperIntegral:
    def test_point_mass(self):
        p = chain(["p", "q"])
        mu = FiniteSupportMeasure(p, {"q": 1})
        assert upper_integral({"p": ext(9), "q": ext(5)}, mu) == ext(5)

    def test_unbounded_branch(self):
        p = chain(["p", "q"])
        mu = FiniteSupportMeasure(p, {"p": 1})
        # inf at the mass point sits inside the witness intersection
        assert upper_integral({"p": INFINITY, "q": ext(1)}, mu) == INFINITY

    def test_constant(self):
        p = antichain(["x", "y"])
        mu = FiniteSupportMeasure(p, {"x": "1/2", "y": "1/4"})
        assert upper_integral({"x": ext(4), "y": ext(4)}, mu) == ext(3)

    def test_preconditions(self):
        p = singleton("x")
        with pytest.raises(ZeroMeasure):
            upper_integral({"x": ext(1)}, FiniteSupportMeasure(p, {}))
        with pytest.raises(UnboundedMeasure):
            upper_integral({"x": ext(1)}, FiniteSupportMeasure(p, {"x": "inf"}))

    def test_additive_and_right_homogeneous(self):
        rng = random.Random(13)
        for _ in range(400):
            space = random_poset(rng, 5)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=5)
            f = random_antitone_table(rng, space)
            g = random_antitone_table(rng, space)
            fg = {p: f[p] + g[p] for p in space.points}
            assert upper_integral(fg, mu) == upper_integral(f, mu) + upper_integral(g, mu)
            for a in (ZERO, INFINITY, ext("3/2")):
                af = {p: mul_right(a, f[p]) for p in space.points}
                assert upper_integral(af, mu) == mul_right(a, upper_integral(f, mu))

    def test_dominates_lower_integral(self):
        rng = random.Random(14)
        for _ in range(400):
            space = random_poset(rng, 5)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=5)
            f = random_antitone_table(rng, space)
            support = set(mu.mass_points) | {
                p for p in space.points if rng.random() < 0.4
            }
            core = support & down_closure(space, mu.mass_points)
            g = {}
            for p in space.points:
                if p in core:
                    g[p] = ZERO if rng.random() < 0.5 else f[p]
                else:
                    g[p] = random_table(rng, space)[p]
            assert lower_integral(g, mu) <= upper_integral(f, mu)

    def test_cocontinuous_on_descending_chains(self):
        rng = random.Random(15)
        for _ in range(300):
            space = random_poset(rng, 4)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=4)
            bottom_fn = random_antitone_table(rng, space)
            chain_fns = [bottom_fn]
            for _ in range(3):
                bump = random_antitone_table(rng, space)
                chain_fns.insert(
                    0, {p: chain_fns[0][p] + bump[p] for p in space.points}
                )
            minimum = chain_fns[-1]
            values = [upper_integral(fn, mu) for fn in chain_fns]
            assert upper_integral(minimum, mu) == min(values)


class TestIntervalIntegral:
    def test_dirac_case(self):
        rng = random.Random(16)
        for _ in range(200):
            space = random_poset(rng, 4)
            q = rng.choice(space.points)
            mu = FiniteSupportMeasure(space, {q: 1})
            h = random_monotone_map(rng, space)
            assert interval_integral(mu, h) == h(q)

    def test_precise_constant(self):
        p = antichain(["x", "y"])
        mu = FiniteSupportMeasure(p, {"x": "1/2", "y": "1/4"})
        c = ext("2/3")
        h = MonotoneMap(p, {"x": ival(c, c), "y": ival(c, c)})
        total = mul_left(c, mu.total_mass())
        assert interval_integral(mu, h) == IntervalValue(total, total)

    def test_unbounded_upper_branch(self):
        p = chain(["p", "q"])
        mu = FiniteSupportMeasure(p, {"p": 1})
        h = MonotoneMap(p, {"p": ival(1, "inf"), "q": ival(2, 3)})
        out = interval_integral(mu, h)
        assert out.lo == ext(1)
        assert out.hi.is_infinite

    def test_linear(self):
        rng = random.Random(17)
        for _ in range(300):
            space = random_poset(rng, 4)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=4)
            h = random_monotone_map(rng, space)
            h2 = random_monotone_map(rng, space)
            summed = MonotoneMap(
                space,
                {p: h(p) + h2(p) for p in space.points},
                INTERVALS,
                validate=False,
            )
            assert interval_integral(mu, summed) == interval_integral(
                mu, h
            ) + interval_integral(mu, h2)
            from intval.laws import random_interval

            a = random_interval(rng)
            scaled = MonotoneMap(
                space,
                {p: a * h(p) for p in space.points},
                INTERVALS,
                validate=False,
            )
            assert interval_integral(mu, scaled) == a * interval_integral(mu, h)

    def test_monotone_in_test_function(self):
        from intval.laws import random_refining_pair

        rng = random.Random(18)
        for _ in range(300):
            space = random_poset(rng, 4)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=4)
            coarse, fine = random_refining_pair(rng, space)
            assert ival_leq(interval_integral(mu, coarse), interval_integral(mu, fine))

    def test_approximation_soundness(self):
        rng = random.Random(19)
        for _ in range(400):
            space = random_poset(rng, 4)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=4)
            h = random_monotone_map(rng, space)
            f = {}
            for p in space.points:
                lo, hi = h(p).lo, h(p).hi
                if hi.is_infinite:
                    f[p] = INFINITY if rng.random() < 0.5 else lo + ext(3)
                else:
                    f[p] = rng.choice(
                        (lo, hi, ExtNonNeg((lo.value + hi.value) / 2))
                    )
            enclosure = interval_integral(mu, h)
            value = lower_integral(f, mu)
            assert enclosure.lo <= value <= enclosure.hi

    def test_largest_approximant_at_small_scale(self):
        """Valuations that enclose every squeezed integral sit below the
        measure's interval functional on the exhaustive test family."""
        rng = random.Random(20)
        space = chain(["p", "q"])
        mu = FiniteSupportMeasure(space, {"q": 1})
        tests = exhaustive_tests(space)
        scalar_grid = (ZERO, ext("1/2"), ext(1), ext(2), INFINITY)
        tables = [
            {"p": a, "q": b} for a in scalar_grid for b in scalar_grid
        ]
        from intval.valuations import bottom_valuation

        candidates = [bottom_valuation(space), dirac(space, "q")] + [
            random_valuation(rng, space) for _ in range(60)
        ]
        passers = 0
        for nu in candidates:
            approximates = True
            for h in tests:
                for f in tables:
                    if not all(h(p).lo <= f[p] <= h(p).hi for p in space.points):
                        continue
                    got = evaluate(nu, h)
                    target = lower_integral(f, mu)
                    if not (got.lo <= target <= got.hi):
                        approximates = False
                        break
                if not approximates:
                    break
            if approximates:
                passers += 1
                for h in tests:
                    assert ival_leq(evaluate(nu, h), interval_integral(mu, h))
        assert passers >= 2  # at least the bottom valuation and the Dirac


_X = chain(["p", "q"])
_Y = antichain(["x"])


def _h(table):
    return MonotoneMap(_X, table, INTERVALS, validate=False)


_MU = FiniteSupportMeasure(_X, {"q": 1})
_ZERO_MU = FiniteSupportMeasure(_X, {})
_INF_MU = FiniteSupportMeasure(_X, {"p": "inf"})
_H = _h({"p": ival(0, 2), "q": ival(1, 2)})
_SCALAR_H = MonotoneMap(_X, {"p": ext(0), "q": ext(1)}, SCALARS)
_RISING = {"p": ext(0), "q": ext(5)}

# One input per raise of the two integrals, with the error class and the
# full message; the rows that break two preconditions pin which is checked
# first.
_RAISES = [
    ("interval:other space", interval_integral, (_MU, MonotoneMap(_Y, {"x": IONE})),
     SpaceMismatch, "test function lives on a different space"),
    ("interval:other space, zero", interval_integral, (_ZERO_MU, MonotoneMap(_Y, {"x": IONE})),
     SpaceMismatch, "test function lives on a different space"),
    ("interval:scalar h", interval_integral, (_MU, _SCALAR_H),
     ValueError, "endpoint_maps needs an interval-valued map"),
    ("interval:zero", interval_integral, (_ZERO_MU, _H),
     ZeroMeasure, "interval integration needs a non-zero measure"),
    ("interval:zero, scalar h", interval_integral, (_ZERO_MU, _SCALAR_H),
     ZeroMeasure, "interval integration needs a non-zero measure"),
    ("interval:unbounded", interval_integral, (_INF_MU, _H),
     UnboundedMeasure, "interval integration needs a bounded measure"),
    ("interval:unbounded, scalar h", interval_integral, (_INF_MU, _SCALAR_H),
     UnboundedMeasure, "interval integration needs a bounded measure"),
    ("interval:lower falls", interval_integral, (_MU, _h({"p": ival(2, 3), "q": ival(1, 3)})),
     NotMonotone, "lower endpoint map fails monotonicity at 'p' <= 'q'"),
    ("interval:upper rises", interval_integral, (_MU, _h({"p": ival(0, 1), "q": ival(0, 2)})),
     NotMonotone, "upper endpoint map fails antitonicity at 'p' <= 'q'"),
    ("interval:not total", interval_integral, (_MU, _h({"p": ival(0, 1)})),
     PointNotInSpace, "point 'q' is not in the space"),
    ("upper:other space", upper_integral, ({"x": ext(1)}, _MU),
     ValueError, "integrand not total: missing ['p', 'q']"),
    ("upper:zero", upper_integral, ({"p": ext(1), "q": ext(1)}, _ZERO_MU),
     ZeroMeasure, "upper integrals need a non-zero measure"),
    ("upper:zero, rising", upper_integral, (_RISING, _ZERO_MU),
     ZeroMeasure, "upper integrals need a non-zero measure"),
    ("upper:unbounded", upper_integral, ({"p": ext(1), "q": ext(1)}, _INF_MU),
     UnboundedMeasure, "upper integrals need a bounded measure"),
    ("upper:unbounded, rising", upper_integral, (_RISING, _INF_MU),
     UnboundedMeasure, "upper integrals need a bounded measure"),
    ("upper:rising", upper_integral, (_RISING, _MU),
     NotMonotone, "integrand not antitone: 'p' <= 'q' but values increase"),
    ("upper:not total", upper_integral, ({"q": ext(1)}, _MU),
     ValueError, "integrand not total: missing ['p']"),
    ("upper:not total, rising", upper_integral, ({"p": ext(0)}, _MU),
     ValueError, "integrand not total: missing ['q']"),
    ("lower:not total", lower_integral, ({"q": ext(1)}, _MU),
     ValueError, "integrand not total: missing ['p']"),
    ("choquet:not total", choquet_integral, ({"p": ext(1)}, _MU),
     ValueError, "integrand not total: missing ['q']"),
]


class TestRaises:
    @pytest.mark.parametrize(
        "integral, args, error, message",
        [row[1:] for row in _RAISES],
        ids=[row[0] for row in _RAISES],
    )
    def test_every_raise_is_pinned(self, integral, args, error, message):
        with pytest.raises(Exception) as info:
            integral(*args)
        assert (type(info.value), str(info.value)) == (error, message)


def _oracle_interval(mu, h):
    """[lower integral of h_lo, upper endpoint by the support witness]."""
    lo = {p: h(p).lo for p in mu.space.points}
    hi = {p: h(p).hi for p in mu.space.points}
    upper = lower_integral(hi, mu) if is_mu_bounded(hi, mu).bounded else INFINITY
    return IntervalValue(lower_integral(lo, mu), upper)


class TestSupportOracleAgreement:
    """interval_integral reads h at the mass points only; the oracle
    decides boundedness on the support core, as the definition does."""

    @pytest.mark.parametrize(
        "space, masses, table, upper",
        [
            # hi = inf at the mass point, which is on the core
            (chain(["p", "q"]), {"p": 1}, {"p": ival(1, "inf"), "q": ival(2, 3)}, INFINITY),
            # hi = inf only below the mass point, off the core
            (chain(["p", "q"]), {"q": 2}, {"p": ival(0, "inf"), "q": ival(1, 3)}, ext(6)),
            # on an antichain the core is just the mass points
            (
                antichain(["a", "b", "c"]),
                {"a": 1, "b": "1/2"},
                {"a": ival(1, 3), "b": ival(0, 2), "c": ival(0, "inf")},
                ext(4),
            ),
        ],
        ids=["inf on core", "inf off core", "antichain"],
    )
    def test_examples(self, space, masses, table, upper):
        mu = FiniteSupportMeasure(space, masses)
        h = MonotoneMap(space, table)
        assert interval_integral(mu, h) == _oracle_interval(mu, h)
        assert interval_integral(mu, h).hi == upper

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agrees_on_drawn_measures(self, seed):
        rng = random.Random(seed)
        space = random_poset(rng, 5)
        mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=5)
        h = random_monotone_map(rng, space)
        assert interval_integral(mu, h) == _oracle_interval(mu, h)


class TestScalarView:
    def test_dirac_functional(self):
        space = antichain(["x", "y"])
        nu = dirac(space, "x")
        F = lambda h: evaluate(nu, h)
        f = MonotoneMap(space, {"x": ext(3), "y": ext(7)}, SCALARS)
        assert scalar_view(F, f) == ext(3)

    def test_independent_of_upper_part(self):
        rng = random.Random(21)
        for _ in range(200):
            space = random_poset(rng, 4)
            nu = random_valuation(rng, space)
            F = lambda h: evaluate(nu, h)
            f = random_monotone_table(rng, space, allow_inf=False)
            # admissible upper parts are antitone and dominate f pointwise
            ceiling = max(f.values())
            g1 = {
                p: ceiling + b
                for p, b in random_antitone_table(rng, space).items()
            }
            g2 = {p: INFINITY for p in space.points}
            h1 = MonotoneMap(
                space,
                {p: IntervalValue(f[p], g1[p]) for p in space.points},
                INTERVALS,
            )
            h2 = MonotoneMap(
                space,
                {p: IntervalValue(f[p], g2[p]) for p in space.points},
                INTERVALS,
            )
            fmap = MonotoneMap(space, f, SCALARS, validate=False)
            assert F(h1).lo == F(h2).lo == scalar_view(F, fmap)

    def test_of_interval_integral_is_lower_integral(self):
        rng = random.Random(22)
        for _ in range(200):
            space = random_poset(rng, 4)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=4)
            F = lambda h: interval_integral(mu, h)
            f = random_monotone_table(rng, space)
            fmap = MonotoneMap(space, f, SCALARS, validate=False)
            assert scalar_view(F, fmap) == lower_integral(f, mu)


class TestLeastExtension:
    def test_dirac(self):
        space = antichain(["x", "y"])
        nu_eval = lambda f: f("x")
        F = least_interval_extension(nu_eval)
        h = MonotoneMap(space, {"x": ival(1, 2), "y": ival(0, 5)})
        assert F(h) == ival(1, "inf")

    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(200):
            space = random_poset(rng, 4)
            scalar_nu = random_valuation(rng, space, algebra=SCALARS)
            nu_eval = lambda f: evaluate(scalar_nu, f)
            F = least_interval_extension(nu_eval)
            f = random_monotone_table(rng, space)
            fmap = MonotoneMap(space, f, SCALARS, validate=False)
            assert scalar_view(F, fmap) == nu_eval(fmap)

    def test_below_the_interval_integral(self):
        rng = random.Random(24)
        for _ in range(200):
            space = random_poset(rng, 4)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=4)
            F = least_interval_extension(lambda f: lower_integral(f.table(), mu))
            h = random_monotone_map(rng, space)
            assert ival_leq(F(h), interval_integral(mu, h))
