import random

import pytest
from hypothesis import given, settings, strategies as st

from intval.algebra import BOTTOM, INTERVALS, IONE, IZERO, SCALARS, ext, ival
from intval.errors import NotMonotone, PointNotInSpace, SpaceMismatch
from intval.laws import (
    random_interval,
    random_monotone_kernel,
    random_monotone_map,
    random_poset,
    random_scalar,
    random_valuation,
)
from intval.monad import (
    Kernel,
    bind,
    dual_strength,
    kleisli_compose,
    map_valuation,
    product,
    strength,
    unit,
)
from intval.spaces import FinitePoset, MonotoneMap, antichain, chain, product_poset
from intval.valuations import (
    ElementaryValuation,
    dirac,
    evaluate,
    scale,
)
from oracle_valuations import exhaustive_tests, functional_bind, leq_on


@pytest.fixture
def spaces():
    return antichain(["x", "y"]), chain(["u", "v"])


@pytest.fixture
def kernel(spaces):
    X, Y = spaces
    half = ival("1/2", "1/2")
    return Kernel(
        X,
        Y,
        {
            "x": dirac(Y, "u"),
            "y": ElementaryValuation(Y, [(half, "u"), (half, "v")]),
        },
    )


class TestKernel:
    def test_unit_coefficient_bind(self, spaces, kernel):
        X, Y = spaces
        out = bind(kernel, ElementaryValuation(X, [(IONE, "y")]))
        assert out == kernel("y")

    def test_rejects_non_monotone(self):
        p = chain(["a", "b"])
        with pytest.raises(NotMonotone):
            Kernel(
                p,
                p,
                {"a": dirac(p, "b"), "b": dirac(p, "a")},
            )

    def test_rejects_images_the_test_grid_cannot_separate(self):
        ab = chain(["a", "b"])
        xy = chain(["x", "y"])
        table = {
            "x": ElementaryValuation(ab, [(ival(0, 0), "a"), (ival(1, 2), "b")]),
            "y": ElementaryValuation(ab, [(ival("1/2", "1/2"), "a"), (IONE, "b")]),
        }
        with pytest.raises(NotMonotone):
            Kernel(xy, ab, table)

    def test_large_targets_are_validated_exactly(self):
        big = antichain([f"t{i}" for i in range(5)])
        src = chain(["a", "b"])
        coarse = ElementaryValuation(big, [(ival(0, 2), p) for p in big.points])
        fine = ElementaryValuation(big, [(ival(1, 1), p) for p in big.points])
        Kernel(src, big, {"a": coarse, "b": fine})
        Kernel(src, big, {"a": dirac(big, "t0"), "b": dirac(big, "t0")})
        with pytest.raises(NotMonotone):
            Kernel(src, big, {"a": dirac(big, "t0"), "b": dirac(big, "t4")})
        with pytest.raises(NotMonotone):
            Kernel(src, big, {"a": fine, "b": coarse})
        Kernel(src, big, {"a": fine, "b": coarse}, validate=False)

    def test_accepts_random_monotone_kernels(self):
        rng = random.Random(7)
        for _ in range(100):
            X, Y = random_poset(rng, 6), random_poset(rng, 6)
            f = random_monotone_kernel(rng, X, Y, max_terms=3)
            Kernel(X, Y, {x: f(x) for x in X.points})

    def test_space_mismatch(self, spaces, kernel):
        X, Y = spaces
        with pytest.raises(SpaceMismatch):
            bind(kernel, dirac(Y, "u"))

    def test_point_outside_the_kernel_source(self, spaces, kernel):
        X, _ = spaces
        for terms in ([(IONE, "z")], [(IONE, "x"), (ival(1, 2), "z")]):
            nu = ElementaryValuation(X, terms, INTERVALS, validate=False)
            with pytest.raises(PointNotInSpace) as caught:
                bind(kernel, nu)
            assert str(caught.value) == "point 'z' is not in the kernel source"
            assert caught.value.__cause__ is None


class TestMonadLaws:
    def test_unit_law_pointwise(self, spaces, kernel):
        X, _ = spaces
        for x in X.points:
            assert bind(kernel, unit(X, x)) == kernel(x)

    def test_extension_of_unit_is_identity(self, spaces):
        X, _ = spaces
        eta = Kernel(X, X, {x: dirac(X, x) for x in X.points})
        rng = random.Random(0)
        for _ in range(50):
            nu = random_valuation(rng, X)
            assert bind(eta, nu) == nu

    def test_composition_law_randomized(self):
        rng = random.Random(1)
        for _ in range(100):
            X, Y, Z = (random_poset(rng, 4) for _ in range(3))
            f = random_monotone_kernel(rng, X, Y)
            g = random_monotone_kernel(rng, Y, Z)
            nu = random_valuation(rng, X)
            assert bind(kleisli_compose(g, f), nu) == bind(g, bind(f, nu))

    def test_bind_matches_functional_description(self):
        rng = random.Random(2)
        for _ in range(150):
            X, Y = random_poset(rng, 4), random_poset(rng, 4)
            f = random_monotone_kernel(rng, X, Y)
            nu = random_valuation(rng, X)
            k = random_monotone_map(rng, Y)
            assert evaluate(bind(f, nu), k) == functional_bind(f, nu, k)

    def test_bind_of_bottom_coefficient(self, spaces, kernel):
        X, _ = spaces
        nu = ElementaryValuation(X, [(BOTTOM, "y")])
        out = bind(kernel, nu)
        assert out == scale(BOTTOM, kernel("y"))
        assert all(c == BOTTOM for c, _ in out.terms)

    def test_bind_preserves_chains(self):
        """Element-wise images of ascending chains stay ascending."""
        rng = random.Random(3)
        for _ in range(30):
            X, Y = random_poset(rng, 3), random_poset(rng, 3)
            f = random_monotone_kernel(rng, X, Y)
            nu = random_valuation(rng, X, max_terms=2)
            chain_in = [scale(BOTTOM, nu), scale(ival(0, 3), nu), nu]
            tests_X = exhaustive_tests(X)
            tests_Y = exhaustive_tests(Y)
            ok_in = all(
                leq_on(a, b, tests_X) for a, b in zip(chain_in, chain_in[1:])
            )
            if not ok_in:
                continue
            chain_out = [bind(f, v) for v in chain_in]
            assert all(
                leq_on(a, b, tests_Y) for a, b in zip(chain_out, chain_out[1:])
            )


def _scalar_kernel(f: Kernel) -> Kernel:
    """f read at its lower endpoints: the scalar order is the interval
    order's lower side, so the result is monotone (and validated)."""
    table = {
        x: ElementaryValuation(f.target, [(c.lo, y) for c, y in f(x).terms], SCALARS)
        for x in f.source.points
    }
    return Kernel(f.source, f.target, table)


def _one_term_coefficient(rng, algebra, kind):
    if algebra is INTERVALS:
        return {"zero": IZERO, "bottom": BOTTOM, "drawn": random_interval(rng)}[kind]
    return {"zero": ext(0), "bottom": ext("inf"), "drawn": random_scalar(rng)}[kind]


class TestOneTermBind:
    """bind of r . delta_x is r . f(x), built in normal form without merging."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([INTERVALS, SCALARS]),
        st.sampled_from(["zero", "bottom", "drawn"]),
    )
    def test_matches_the_general_path(self, seed, algebra, kind):
        rng = random.Random(seed)
        X, Y = random_poset(rng, 6), random_poset(rng, 6)
        f = random_monotone_kernel(rng, X, Y, max_terms=3)
        if algebra is SCALARS:
            f = _scalar_kernel(f)
        x = rng.choice(X.points)
        r = _one_term_coefficient(rng, algebra, kind)
        nu = ElementaryValuation(X, [(r, x)], algebra)
        out = bind(f, nu)
        general = ElementaryValuation(
            f.target, [(algebra.mul(r, c), y) for c, y in f(x).terms], algebra, validate=False
        )
        assert out.space is f.target and out.algebra is algebra
        assert type(out.terms) is tuple and out.terms == general.terms
        assert out == general and hash(out) == hash(general)
        for _ in range(5):
            k = random_monotone_map(rng, Y, algebra)
            assert evaluate(out, k) == functional_bind(f, nu, k)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([INTERVALS, SCALARS]))
    def test_unit_dirac_returns_the_image(self, seed, algebra):
        # alg.one . delta_x gives f(x) itself, also for a composite's images;
        # a separately built [1, 1] (or 1) takes the general path, which is
        # just as exact but builds a new object
        rng = random.Random(seed)
        X, Y, Z = (random_poset(rng, 5) for _ in range(3))
        f = random_monotone_kernel(rng, X, Y, max_terms=3)
        g = random_monotone_kernel(rng, Y, Z, max_terms=3)
        if algebra is SCALARS:
            f, g = _scalar_kernel(f), _scalar_kernel(g)
        separate_one = ival(1, 1) if algebra is INTERVALS else ext(1)
        assert separate_one is not algebra.one and separate_one == algebra.one
        for h in (f, kleisli_compose(g, f)):
            for x in h.source.points:
                assert bind(h, dirac(h.source, x, algebra)) is h(x)
                assert bind(h, unit(h.source, x, algebra)) is h(x)
                nu = ElementaryValuation(h.source, [(separate_one, x)], algebra)
                out = bind(h, nu)
                assert out == h(x) and out is not h(x)
                assert out.space is h.target and out.algebra is algebra

    def test_unit_dirac_on_an_equal_target_is_relabelled(self, spaces):
        # an image on a poset equal to f.target but not f.target itself is
        # rebuilt on f.target, so every result of bind lives on f.target
        X, Y = spaces
        twin = FinitePoset(Y.points, Y.cover_pairs())
        assert twin == Y and twin is not Y
        image = ElementaryValuation(twin, [(ival("1/2", 1), "v")])
        f = Kernel(X, Y, {"x": image, "y": dirac(Y, "v")})
        out = bind(f, dirac(X, "x"))
        assert out.space is Y and out is not image
        assert out.terms == image.terms and out.terms[0][0] is image.terms[0][0]
        assert bind(f, dirac(X, "y")) is f("y")

    def test_unit_dirac_outside_the_source(self, kernel):
        # the lookup that feeds the shortcut raises as the general path does
        for f in (kernel, _scalar_kernel(kernel)):
            alg = f.algebra
            nu = ElementaryValuation(f.source, [(alg.one, "z")], alg, validate=False)
            with pytest.raises(PointNotInSpace) as caught:
                bind(f, nu)
            assert str(caught.value) == "point 'z' is not in the kernel source"
            assert caught.value.__cause__ is None


class TestKleisliComposite:
    """The composite skips Kernel's checks; full validation still passes."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([INTERVALS, SCALARS]))
    def test_passes_full_validation(self, seed, algebra):
        rng = random.Random(seed)
        X, Y, Z = (random_poset(rng, 4) for _ in range(3))
        f = random_monotone_kernel(rng, X, Y)
        g = random_monotone_kernel(rng, Y, Z)
        if algebra is SCALARS:
            f, g = _scalar_kernel(f), _scalar_kernel(g)
        else:
            f, g = Kernel(X, Y, f._table), Kernel(Y, Z, g._table)
        gf = kleisli_compose(g, f)
        checked = Kernel(f.source, g.target, gf._table, validate=True)
        assert checked.source is gf.source and checked.target is gf.target
        assert checked.algebra is gf.algebra is algebra
        assert checked._table == gf._table

    def test_mismatched_kernels(self, kernel):
        with pytest.raises(SpaceMismatch) as caught:
            kleisli_compose(kernel, kernel)
        assert str(caught.value) == "kernels do not compose: target/source mismatch"


class TestMap:
    def test_identity(self, spaces):
        X, _ = spaces
        nu = random_valuation(random.Random(4), X)
        assert map_valuation(lambda p: p, nu, X) == nu

    def test_constant_collapses(self, spaces):
        X, Y = spaces
        nu = ElementaryValuation(X, [(ival(1, 2), "x"), (ival("1/2", 1), "y")])
        out = map_valuation(lambda p: "u", nu, Y)
        assert out.terms == ((ival("3/2", 3), "u"),)

    def test_change_of_variables(self):
        rng = random.Random(5)
        for _ in range(100):
            X, Y = random_poset(rng, 4), random_poset(rng, 4)
            from intval.laws import random_monotone_point_map

            g = random_monotone_point_map(rng, X, Y)
            nu = random_valuation(rng, X)
            k = random_monotone_map(rng, Y)
            pushed = map_valuation(g, nu, Y)
            composed = MonotoneMap(
                X, {x: k(g[x]) for x in X.points}, INTERVALS, validate=False
            )
            assert evaluate(pushed, k) == evaluate(nu, composed)

    def test_rejects_non_monotone_map(self):
        p = chain(["a", "b"])
        nu = dirac(p, "a")
        with pytest.raises(NotMonotone):
            map_valuation({"a": "b", "b": "a"}, nu, p)

    def test_map_is_unit_then_bind(self):
        rng = random.Random(6)
        for _ in range(50):
            X, Y = random_poset(rng, 3), random_poset(rng, 3)
            from intval.laws import random_monotone_point_map

            g = random_monotone_point_map(rng, X, Y)
            nu = random_valuation(rng, X)
            eta_after_g = Kernel(
                X,
                Y,
                {x: dirac(Y, g[x]) for x in X.points},
                validate=False,
            )
            assert map_valuation(g, nu, Y) == bind(eta_after_g, nu)


# Coefficients the strength tests draw from: both zeros, the bottom, and
# infinite values, besides finite ones.
_STRENGTH_COEFFS = {
    INTERVALS: (IZERO, BOTTOM, ival(1, "inf"), ival("inf", "inf"), IONE, ival("1/2", 3)),
    SCALARS: (ext(0), ext("inf"), ext(1), ext("2/3")),
}


class TestStrength:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([INTERVALS, SCALARS]))
    def test_terms_are_the_hand_built_pairs(self, seed, algebra):
        rng = random.Random(seed)
        X, Y = random_poset(rng, 4), random_poset(rng, 4)
        prod = product_poset(X, Y)
        pool = _STRENGTH_COEFFS[algebra]

        def draw(space):
            points = rng.sample(space.points, rng.randint(1, len(space.points)))
            return ElementaryValuation(space, [(rng.choice(pool), p) for p in points], algebra)

        x, y = rng.choice(X.points), rng.choice(Y.points)
        nu, mu = draw(Y), draw(X)
        left = ElementaryValuation(prod, [(c, (x, q)) for c, q in nu.terms], algebra)
        right = ElementaryValuation(prod, [(c, (p, y)) for c, p in mu.terms], algebra)
        for got, want in ((strength(X, x, nu), left), (dual_strength(mu, Y, y), right)):
            assert got.space == prod and got.algebra is algebra
            assert got.terms == want.terms
        with pytest.raises(PointNotInSpace) as caught:
            strength(X, "q", nu)
        assert str(caught.value) == "point 'q' is not in the space"
        with pytest.raises(PointNotInSpace) as caught:
            dual_strength(mu, Y, "q")
        assert str(caught.value) == "point 'q' is not in the space"

    def test_on_dirac(self, spaces):
        X, Y = spaces
        prod = product_poset(X, Y)
        assert strength(X, "x", dirac(Y, "u")) == dirac(prod, ("x", "u"))
        assert dual_strength(dirac(X, "x"), Y, "u") == dirac(prod, ("x", "u"))

    def test_on_scaled_dirac(self, spaces):
        X, Y = spaces
        r = ival("1/3", 2)
        nu = ElementaryValuation(Y, [(r, "v")])
        assert strength(X, "x", nu).terms == ((r, ("x", "v")),)
        assert dual_strength(ElementaryValuation(X, [(r, "y")]), Y, "v").terms == (
            (r, ("y", "v")),
        )


class TestScalarInstance:
    """The same structure runs at the plain scalar algebra."""

    def test_scalar_kernel_validation_and_bind(self):
        from intval.algebra import SCALARS, ext

        X = chain(["a", "b"])
        Y = chain(["u", "v"])
        f = Kernel(
            X,
            Y,
            {
                "a": dirac(Y, "u", SCALARS),
                "b": ElementaryValuation(
                    Y, [(ext("1/2"), "u"), (ext("1/2"), "v")], SCALARS
                ),
            },
        )
        nu = ElementaryValuation(X, [(ext(2), "a"), (ext("inf"), "b")], SCALARS)
        out = bind(f, nu)
        # 2 delta_u + inf*(1/2 delta_u + 1/2 delta_v)
        assert out == ElementaryValuation(
            Y, [(ext("inf"), "u"), (ext("inf"), "v")], SCALARS
        )
        with pytest.raises(NotMonotone):
            Kernel(X, Y, {"a": dirac(Y, "v", SCALARS), "b": dirac(Y, "u", SCALARS)})

    def test_scalar_monad_laws_spot(self):
        from intval.algebra import SCALARS

        rng = random.Random(8)
        X = chain(["a", "b"])
        eta = Kernel(X, X, {x: dirac(X, x, SCALARS) for x in X.points})
        for _ in range(50):
            nu = random_valuation(rng, X, algebra=SCALARS)
            assert bind(eta, nu) == nu


class TestProduct:
    def test_single_terms(self, spaces):
        X, Y = spaces
        a, b = ival(1, 2), ival("1/2", "1/2")
        mu = ElementaryValuation(X, [(a, "x")])
        nu = ElementaryValuation(Y, [(b, "u")])
        assert product(mu, nu).terms == ((a * b, ("x", "u")),)

    def test_distributes_over_terms(self, spaces):
        X, Y = spaces
        mu = ElementaryValuation(X, [(IONE, "x"), (IONE, "y")])
        nu = dirac(Y, "u")
        out = product(mu, nu)
        assert len(out.terms) == 2
        assert {p for _, p in out.terms} == {("x", "u"), ("y", "u")}
