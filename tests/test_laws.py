import random

import pytest

from intval.algebra import IONE, ival
from intval.laws import (
    COEFF_GRID,
    FAMILIES,
    all_grid_valuations,
    choquet_oracle,
    functional_bind,
    interval_axioms,
    fubini_exchange,
    lebesgue_chain,
    random_poset,
    random_valuation,
    strength_identities,
    _shrink_valuation,
)
from intval import laws, monad
from intval.monad import Kernel, bind
from intval.spaces import all_monotone_point_maps, antichain, chain, enumerate_posets
from intval.valuations import ElementaryValuation, eq_on, evaluate, exhaustive_tests


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


class TestEnumerators:
    def test_grid_valuation_count(self):
        # one grid coefficient per chosen point over every nonempty subset
        space = antichain(["a", "b", "c"])
        assert len(all_grid_valuations(space)) == 3 * 5 + 3 * 25 + 125


def _first_wins_bind(f, nu):
    """A planted bug: like bind, but when two terms land on the same target
    point it keeps the first coefficient instead of adding them."""
    kept = {}
    for r, x in nu.terms:
        for c, y in f(x).terms:
            kept.setdefault(y, r * c)
    return ElementaryValuation(f.target, [(c, y) for y, c in kept.items()])


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
                    f = Kernel(X, X, table, declared_monotone=True, validate=False)
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
            for a, b in p.strict_pairs():
                assert p.leq(a, b)
        assert sizes == {1, 2, 3, 4, 5, 6}

    def test_random_valuations_are_normalized(self):
        rng = random.Random(1)
        space = chain(["a", "b", "c"])
        for _ in range(100):
            nu = random_valuation(rng, space)
            again = ElementaryValuation(space, nu.terms, nu.algebra)
            assert nu == again
