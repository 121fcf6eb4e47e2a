import random

import pytest

from intval.algebra import IONE, ONE, ZERO, IntervalValue, ival
from intval.laws import (
    COEFF_GRID,
    FAMILIES,
    all_grid_valuations,
    choquet_oracle,
    interval_axioms,
    fubini_exchange,
    lebesgue_chain,
    random_poset,
    random_valuation,
    strength_identities,
    _shrink_valuation,
)
from intval import laws, measures, monad
from intval.monad import Kernel, bind
from intval.spaces import all_monotone_point_maps, antichain, chain, enumerate_posets
from intval.valuations import (
    ElementaryValuation,
    eq_on,
    evaluate,
    scale,
)
from oracle_support import strict_pairs
from oracle_valuations import exhaustive_tests, functional_bind


class TestFamilies:
    def test_registry_names(self):
        assert list(FAMILIES) == [
            "interval-axioms",
            "monad-laws",
            "strength",
            "fubini",
            "choquet",
            "lebesgue-chain",
        ]

    def test_interval_axioms_small(self):
        assert interval_axioms(seed=1, cases=300).passed

    def test_strength_small(self):
        assert strength_identities(seed=1, cases=40).passed

    def test_fubini_small(self):
        assert fubini_exchange(seed=1, cases=40).passed

    def test_choquet_small(self):
        assert choquet_oracle(seed=1, cases=150).passed

    def test_lebesgue_chain_small(self):
        r = lebesgue_chain(cases=4)
        assert r.passed

    def test_seeded_reproducibility(self):
        a = fubini_exchange(seed=9, cases=30)
        b = fubini_exchange(seed=9, cases=30)
        assert (a.cases, a.failures, a.counterexample) == (
            b.cases,
            b.failures,
            b.counterexample,
        )


class TestPlantedDefects:
    """Each family reports a planted defect as one failure naming its law."""

    def test_interval_axioms(self, monkeypatch):
        # the upper endpoint of a sum takes the second operand's twice
        monkeypatch.setattr(
            IntervalValue, "__add__", lambda a, b: IntervalValue._make(a.lo, a.hi + b.hi)
        )
        r = interval_axioms(seed=1)
        assert r.failures == 1
        assert r.counterexample.startswith("+ commutativity at ")

    def test_monad_laws(self, monkeypatch):
        # bind that drops the valuation's coefficients: law (ii) fails at once
        real = laws.bind

        def unit_coefficients_bind(f, nu):
            terms = [(IONE, p) for _, p in nu.terms]
            return real(f, ElementaryValuation(nu.space, terms, validate=False))

        monkeypatch.setattr(laws, "bind", unit_coefficients_bind)
        r = laws.monad_laws(seed=1)
        assert (r.cases, r.failures) == (1, 1)
        assert r.counterexample == "unit extension fails on val { [0,0] @ a }"

    def test_monad_laws_first_wins_bind(self, monkeypatch):
        # no exhaustive case merges terms at a target point, so the merge
        # defect survives them and the randomized composition law finds it
        monkeypatch.setattr(monad, "bind", _first_wins_bind)
        monkeypatch.setattr(laws, "bind", _first_wins_bind)
        r = laws.monad_laws(seed=1)
        assert (r.cases, r.failures) == (402853, 1)
        assert r.counterexample.startswith("composition law fails for nu=")

    def test_monad_laws_unscaled_one_term_bind(self, monkeypatch):
        # the image comes back without its coefficient: [0,0] . delta_a
        # under the unit kernel reads as delta_a, so law (ii) fails at once
        planted = _one_term_bind(lambda f, r, x: f(x))
        monkeypatch.setattr(monad, "bind", planted)
        monkeypatch.setattr(laws, "bind", planted)
        r = laws.monad_laws(seed=1)
        assert (r.cases, r.failures) == (1, 1)
        assert r.counterexample.startswith("unit extension fails on val { ")

    def test_monad_laws_source_labelled_one_term_bind(self, monkeypatch):
        # law (ii)'s unit kernels have source == target, so the first
        # kernel between two different posets, in law (i), finds it
        def on_source(f, r, x):
            out = object.__new__(ElementaryValuation)
            out.space, out.algebra = f.source, f.algebra
            out.terms = tuple((f.algebra.mul(r, c), y) for c, y in f(x).terms)
            return out

        planted = _one_term_bind(on_source)
        monkeypatch.setattr(monad, "bind", planted)
        monkeypatch.setattr(laws, "bind", planted)
        r = laws.monad_laws(seed=1)
        assert (r.cases, r.failures) == (1161, 1)
        assert r.counterexample.startswith("unit law fails at x='a' for kernel ")

    def test_monad_laws_unit_shortcut_on_lower_endpoint(self, monkeypatch):
        # the unit-Dirac shortcut tests r.lo == 1 only, so [1,2] . delta_a
        # comes back as f(a) and the unit kernel leaves it unscaled
        def on_lower_endpoint(f, r, x):
            return f(x) if r.lo == ONE else _scaled_image(f, r, x)

        planted = _one_term_bind(on_lower_endpoint)
        monkeypatch.setattr(monad, "bind", planted)
        monkeypatch.setattr(laws, "bind", planted)
        r = laws.monad_laws(seed=1)
        assert (r.cases, r.failures) == (4, 1)
        assert r.counterexample.startswith("unit extension fails on val { [1,2] @ a }")

    def test_monad_laws_unit_shortcut_at_the_first_point(self, monkeypatch):
        # the shortcut returns the image of the source's first point.  Law
        # (ii)'s one-term grid valuations carry a separately built [1,1], so
        # they take the general path; law (i) binds unit(X, x) and fails at
        # the first x other than the source's first point, x='b'
        def first_image(f, r, x):
            if r is f.algebra.one:
                return f(f.source.points[0])
            return _scaled_image(f, r, x)

        planted = _one_term_bind(first_image)
        monkeypatch.setattr(monad, "bind", planted)
        monkeypatch.setattr(laws, "bind", planted)
        r = laws.monad_laws(seed=1)
        assert (r.cases, r.failures) == (1382, 1)
        assert r.counterexample.startswith("unit law fails at x='b' for kernel ")

    def test_strength(self, monkeypatch):
        real = laws.strength
        monkeypatch.setattr(
            laws, "strength", lambda X, x, nu: real(X, x, scale(ival(2, 2), nu))
        )
        r = strength_identities(seed=1)
        assert r.failures == 1
        assert r.counterexample.startswith("strength identity fails at ")

    def test_strength_through_product(self, monkeypatch):
        # the strengths are products with a Dirac mass, so a product that
        # drops its last term (while it has two) breaks the strength identity
        real = monad.product

        def drops_last_term(mu, nu):
            out = real(mu, nu)
            if len(out.terms) > 1:
                out = ElementaryValuation(out.space, out.terms[:-1], out.algebra, validate=False)
            return out

        monkeypatch.setattr(monad, "product", drops_last_term)
        r = strength_identities(seed=1)
        assert r.failures == 1
        assert r.counterexample.startswith("strength identity fails at ")

    def test_fubini(self, monkeypatch):
        real = laws.product
        monkeypatch.setattr(laws, "product", lambda mu, nu: real(scale(ival(2, 2), mu), nu))
        r = fubini_exchange(seed=1)
        assert r.failures == 1
        assert r.counterexample.startswith("iterated orders disagree: mu=val { ")
        # the reported mu is shrunk to a single term
        mu_text = r.counterexample.split("mu=", 1)[1].split(", nu=", 1)[0]
        assert ";" not in mu_text

    def test_choquet(self, monkeypatch):
        monkeypatch.setattr(measures, "lower_integral", lambda f, mu: ZERO)
        r = choquet_oracle(seed=1)
        assert r.failures == 1
        assert r.counterexample.startswith("lower integral 0 != layer-cake ")

    def test_lebesgue_chain(self, monkeypatch):
        monkeypatch.setattr(laws, "_square_level", laws._identity_level)
        r = lebesgue_chain(seed=1)
        assert r.failures == 1
        assert r.counterexample.startswith("fixture square at depth 1: ")


class TestEnumerators:
    def test_grid_valuation_count(self):
        # one grid coefficient per chosen point over every nonempty subset
        space = antichain(["a", "b", "c"])
        assert len(all_grid_valuations(space)) == 3 * 5 + 3 * 25 + 125

    def test_coeff_grid_values_and_order(self):
        assert COEFF_GRID == (
            ival(0, 0), ival(1, 1), ival("1/2", "1/2"), ival(1, 2), ival(0, "inf")
        )
        # an equal [1, 1] that is not the algebra's one object, so bind
        # takes its product path on it
        assert COEFF_GRID[1] == IONE and COEFF_GRID[1] is not IONE

    def test_constant_kernels_target_point_first(self):
        # x -> c . delta_y for each target point y, then each coefficient c
        for X in enumerate_posets(2):
            for Y in enumerate_posets(3):
                kernels = laws._dirac_kernels(
                    X, Y, laws._constant_maps(X, Y), COEFF_GRID
                )
                expected = [(y, c) for y in Y.points for c in COEFF_GRID]
                assert len(kernels) == len(expected)
                for f, (y, c) in zip(kernels, expected):
                    nu = ElementaryValuation(Y, [(c, y)])
                    assert all(f(x) == nu for x in X.points)


def _first_wins_bind(f, nu):
    """A planted bug: like bind, but when two terms land on the same target
    point it keeps the first coefficient instead of adding them."""
    kept = {}
    for r, x in nu.terms:
        for c, y in f(x).terms:
            kept.setdefault(y, r * c)
    return ElementaryValuation(f.target, [(c, y) for y, c in kept.items()])


def _scaled_image(f, r, x):
    """r . f(x) computed by the real bind."""
    nu = ElementaryValuation(f.source, [(r, x)], f.algebra, validate=False)
    return bind(f, nu)


def _one_term_bind(closed_form):
    """A planted bug on bind's one-term path: r . delta_x goes to
    closed_form(f, r, x); longer arguments take the real bind."""
    real = monad.bind

    def planted(f, nu):
        if len(nu.terms) == 1:
            ((r, x),) = nu.terms
            return closed_form(f, r, x)
        return real(f, nu)

    return planted


class TestBindOracle:
    """functional_bind computes bind(f, nu)(k) as nu(x -> f(x)(k))."""

    def setup_method(self):
        X, Y = antichain(["a", "b"]), chain(["u", "v"])
        # both source points send mass to u
        self.f = Kernel(
            X,
            Y,
            {
                "a": ElementaryValuation(Y, [(IONE, "u")]),
                "b": ElementaryValuation(Y, [(ival("1/2", "1/2"), "u"), (IONE, "v")]),
            },
        )
        self.nu = ElementaryValuation(X, [(IONE, "a"), (ival(1, 2), "b")])
        self.tests = exhaustive_tests(Y)

    def test_flags_planted_bind(self, monkeypatch):
        real = bind(self.f, self.nu)
        assert all(
            evaluate(real, k) == functional_bind(self.f, self.nu, k) for k in self.tests
        )
        # the oracle does not go through bind, so it stays right while
        # every bind the law suites can reach is the planted one
        monkeypatch.setattr(monad, "bind", _first_wins_bind)
        monkeypatch.setattr(laws, "bind", _first_wins_bind)
        planted = _first_wins_bind(self.f, self.nu)
        assert planted != real
        assert any(
            evaluate(planted, k) != functional_bind(self.f, self.nu, k)
            for k in self.tests
        )
        # comparing a bind result with itself, as a re-check after
        # structural equality does, cannot tell the planted bind apart
        assert eq_on(planted, planted, self.tests)


# coefficient pairs (first Dirac, second Dirac) that between them use
# every value of COEFF_GRID
_PAIRS = ((IONE, ival("1/2", "1/2")), (ival(1, 2), ival(0, "inf")), (ival(0, 0), ival(1, 2)))


def _two_dirac_cases():
    """(f, nu, tests) on every diagonal poset of enumerate_posets(3) with two
    or more points, tests being the exhaustive family on it.

    f(x) = c1 . delta_{g(x)} + c2 . delta_y for every monotone point map g,
    every point y and every pair (c1, c2) in _PAIRS; f is monotone since g
    and the constant map to y are.  nu puts a term with a different grid
    coefficient on every point, so the images of different source points
    merge at y (and wherever g collides) with different coefficients.
    """
    cases = []
    for X in enumerate_posets(3)[1:]:
        tests = exhaustive_tests(X)
        nu = ElementaryValuation(X, list(zip(COEFF_GRID[1:], X.points)))
        for g in all_monotone_point_maps(X, X):
            for y in X.points:
                for c1, c2 in _PAIRS:
                    table = {
                        x: ElementaryValuation(X, [(c1, g[x]), (c2, y)]) for x in X.points
                    }
                    f = Kernel(X, X, table, validate=False)
                    cases.append((f, nu, tests))
    return cases


def _oracle_mismatches(bind_fn, cases):
    """Cases (f, nu) where bind_fn(f, nu) and functional_bind differ on some k."""
    bad = []
    for f, nu, tests in cases:
        got = bind_fn(f, nu)
        if any(evaluate(got, k) != functional_bind(f, nu, k) for k in tests):
            bad.append((f, nu))
    return bad


@pytest.fixture(scope="module")
def two_dirac_cases():
    return _two_dirac_cases()


class TestBindOracleOnMergedTerms:
    """The oracle on multi-term kernels, where bind must add merged terms."""

    def test_terms_do_merge(self, two_dirac_cases):
        # bind leaves fewer terms than the images carry in total
        assert all(
            len(bind(f, nu).terms) < sum(len(f(x).terms) for _, x in nu.terms)
            for f, nu, _ in two_dirac_cases
        )

    def test_bind_matches_the_functional_description(self, two_dirac_cases):
        assert _oracle_mismatches(bind, two_dirac_cases) == []

    def test_flags_planted_first_wins_bind(self, two_dirac_cases, monkeypatch):
        # functional_bind never goes through bind, so it stays right while
        # every bind the law suites can reach is the planted one
        monkeypatch.setattr(monad, "bind", _first_wins_bind)
        monkeypatch.setattr(laws, "bind", _first_wins_bind)
        bad = _oracle_mismatches(_first_wins_bind, two_dirac_cases)
        assert len(bad) > len(two_dirac_cases) // 2


class TestShrinking:
    def test_drops_irrelevant_terms(self):
        space = antichain(["a", "b", "c"])
        nu = ElementaryValuation(
            space, [(ival(1, 2), "a"), (IONE, "b"), (ival(0, 3), "c")]
        )
        # pretend the failure only needs a term at 'b'
        fails = lambda v: any(p == "b" for _, p in v.terms)
        small = _shrink_valuation(nu, fails)
        assert [p for _, p in small.terms] == ["b"]
        assert fails(small)

    def test_simplifies_coefficients(self):
        space = antichain(["a"])
        nu = ElementaryValuation(space, [(ival("1/3", "22/7"), "a")])
        fails = lambda v: True
        small = _shrink_valuation(nu, fails)
        assert small.terms[0][0] == IONE


class TestGenerators:
    def test_random_posets_are_valid_and_varied(self):
        rng = random.Random(0)
        sizes = set()
        for _ in range(100):
            p = random_poset(rng, 6)
            sizes.add(len(p))
            for a, b in strict_pairs(p):
                assert not p.leq(b, a)
        assert sizes == {1, 2, 3, 4, 5, 6}

    def test_random_valuations_are_normalized(self):
        rng = random.Random(1)
        space = chain(["a", "b", "c"])
        for _ in range(100):
            nu = random_valuation(rng, space)
            again = ElementaryValuation(space, nu.terms, nu.algebra)
            assert nu == again
