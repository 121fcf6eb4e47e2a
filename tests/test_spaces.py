import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from intval import monad
from intval.algebra import INTERVALS, SCALARS, ext, ival
from intval.errors import NotMonotone, PointNotInSpace
from intval.laws import COEFF_GRID
from intval.measures import FiniteSupportMeasure, upper_integral
from intval.monad import Kernel, map_valuation
from intval.spaces import (
    FinitePoset,
    MonotoneMap,
    _linear_extension,
    all_monotone_maps,
    all_monotone_point_maps,
    antichain,
    chain,
    endpoint_maps,
    enumerate_posets,
    product_poset,
    singleton,
)
from intval.valuations import ElementaryValuation, dirac
from oracle_support import UpperSet, closed_support, min_upper_support, strict_pairs


class TestFinitePoset:
    def test_transitive_closure_is_taken(self):
        p = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            FinitePoset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FinitePoset(["a", "a"], [])

    def test_rejects_unknown_relation_points(self):
        with pytest.raises(PointNotInSpace):
            FinitePoset(["a"], [("a", "b")])

    def test_equality_ignores_listing_order(self):
        p = FinitePoset(["a", "b"], [("a", "b")])
        q = FinitePoset(["b", "a"], [("a", "b")])
        assert p == q and hash(p) == hash(q)

    def test_same_points_in_different_orders_are_unequal(self):
        pts = ["a", "b", "c"]
        posets = [
            FinitePoset(pts, []),
            FinitePoset(pts, [("a", "b")]),
            FinitePoset(pts, [("b", "a")]),
            FinitePoset(pts, [("a", "c")]),
            FinitePoset(pts, [("a", "b"), ("b", "c")]),
        ]
        for i, p in enumerate(posets):
            for j, q in enumerate(posets):
                assert (p == q) == (i == j)

    def test_equal_posets_hash_equal(self):
        covers = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        closed = FinitePoset(["c", "b", "a"], [("a", "b"), ("b", "c"), ("a", "c"), ("b", "b")])
        assert covers == closed and hash(covers) == hash(closed)
        x, y = chain(["a", "b"]), antichain(["u", "v"])
        assert hash(product_poset(x, y)) == hash(product_poset(x, y))

    def test_rejects_a_three_cycle(self):
        with pytest.raises(ValueError, match="antisymmetry fails: 'a' and 'b' are equivalent"):
            FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_names_the_first_point_on_a_cycle(self):
        # 'a' and 'b' only lie above the cycle c -> d -> e -> c
        rel = [("a", "b"), ("c", "d"), ("d", "e"), ("e", "c"), ("e", "a")]
        with pytest.raises(ValueError, match="antisymmetry fails: 'c' and 'd' are equivalent"):
            FinitePoset(["a", "b", "c", "d", "e"], rel)

    def test_closure_matches_a_fixpoint_closure(self):
        # random relations on five points, cycles and self-pairs included,
        # against the closure iterated until nothing changes
        rng = random.Random(3)
        pts = ["a", "b", "c", "d", "e"]
        for _ in range(500):
            rel = [(a, b) for a in pts for b in pts if rng.random() < 0.15]
            up = {a: {a} | {b for x, b in rel if x == a} for a in pts}
            changed = True
            while changed:
                changed = False
                for a in pts:
                    extra = set().union(*(up[b] for b in up[a]))
                    if not extra <= up[a]:
                        up[a] |= extra
                        changed = True
            twins = [(a, b) for a in pts for b in pts if a != b and b in up[a] and a in up[b]]
            if twins:
                a, b = twins[0]
                with pytest.raises(ValueError, match=f"'{a}' and '{b}' are equivalent"):
                    FinitePoset(pts, rel)
            else:
                p = FinitePoset(pts, rel)
                assert all(p.leq(a, b) == (b in up[a]) for a in pts for b in pts)

    def test_repr_round_trips(self):
        from intval.literals import parse_poset

        p = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert parse_poset(repr(p)) == p


@st.composite
def generated_posets(draw, max_points=8):
    """A poset on up to max_points points from arbitrary generating pairs.

    The pairs are arbitrary: repeated, reflexive and transitive (redundant)
    pairs all occur.  Each is oriented along a hidden linear extension, so
    the relation has no cycle.
    """
    n = draw(st.integers(1, max_points))
    pts = [f"p{i}" for i in range(n)]
    rank = draw(st.permutations(range(n)))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    rel = [(pts[i], pts[j]) if rank[i] <= rank[j] else (pts[j], pts[i]) for i, j in pairs]
    return FinitePoset(pts, rel)


def _accepts(build) -> bool:
    try:
        build()
    except NotMonotone:
        return False
    return True


_EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestCovers:
    """The stored covers and every check that reads them, against oracles
    written over all comparable pairs (oracle_support.strict_pairs)."""

    @_EXAMPLES
    @given(generated_posets())
    def test_covers_are_the_transitive_reduction(self, p):
        pts = p.points
        assert all(type(p.leq(a, b)) is bool for a in pts for b in pts)
        reduction = tuple(
            (a, b) for a, b in strict_pairs(p)
            if not any(p.leq(a, c) and p.leq(c, b) for c in pts if c not in (a, b))
        )
        assert p.cover_pairs() == reduction

    @_EXAMPLES
    @given(generated_posets(), generated_posets(), st.randoms(use_true_random=False))
    def test_equal_exactly_when_the_orders_are(self, p, q, rnd):
        # the same order from its closure plus self-pairs, points reordered
        pts = list(p.points)
        rnd.shuffle(pts)
        closed = strict_pairs(p) + [(a, a) for a in pts]
        rnd.shuffle(closed)
        same = FinitePoset(pts, closed)
        assert same == p and hash(same) == hash(p)
        # no cover follows from the others, so dropping one changes the order
        for dropped in p.cover_pairs():
            assert FinitePoset(pts, [c for c in p.cover_pairs() if c != dropped]) != p
        equal = set(q.points) == set(pts) and set(strict_pairs(q)) == set(strict_pairs(p))
        assert (q == p) == equal
        if equal:
            assert hash(q) == hash(p)

    @_EXAMPLES
    @given(generated_posets(), st.data())
    def test_checks_accept_exactly_the_ordered_tables(self, p, data):
        pts, less = p.points, strict_pairs(p)
        n = len(pts)
        values = data.draw(st.lists(st.sampled_from(COEFF_GRID), min_size=n, max_size=n))
        h = dict(zip(pts, values))
        monotone = all(INTERVALS.leq(h[a], h[b]) for a, b in less)
        assert _accepts(lambda: MonotoneMap(p, h)) == monotone
        loose = MonotoneMap(p, h, validate=False)
        ends_ordered = all(h[a].lo <= h[b].lo and h[b].hi <= h[a].hi for a, b in less)
        assert _accepts(lambda: endpoint_maps(loose)) == ends_ordered
        # scalar tables, with their monotone and antitone hulls
        ranks = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        f = dict(zip(pts, ranks))
        hulls = [
            f,
            {q: max(f[r] for r in pts if p.leq(r, q)) for q in pts},
            {q: min(f[r] for r in pts if p.leq(r, q)) for q in pts},
        ]
        mu = FiniteSupportMeasure(p, {pts[0]: 1})
        levels = chain(["0", "1", "2"])
        for g in hulls:
            scalars = {q: ext(g[q]) for q in pts}
            up = all(g[a] <= g[b] for a, b in less)
            down = all(g[b] <= g[a] for a, b in less)
            assert _accepts(lambda: MonotoneMap(p, scalars, SCALARS)) == up
            assert _accepts(lambda: upper_integral(scalars, mu)) == down
            point_map = {q: str(g[q]) for q in pts}
            nu = dirac(p, pts[-1])
            assert _accepts(lambda: map_valuation(point_map, nu, levels)) == up
            images = {q: dirac(levels, point_map[q]) for q in pts}
            assert _accepts(lambda: Kernel(p, levels, images)) == up
        # point maps of the poset into itself
        images = data.draw(st.lists(st.sampled_from(pts), min_size=n, max_size=n))
        g = dict(zip(pts, images))
        up = all(p.leq(g[a], g[b]) for a, b in less)
        assert _accepts(lambda: map_valuation(g, dirac(p, pts[0]), p)) == up


def _lifted_product(x, y):
    """The product built the generic way: the factors' covers, lifted,
    closed by the constructor."""
    pts = [(a, b) for a in x.points for b in y.points]
    rel = [((a, b), (c, b)) for a, c in x.cover_pairs() for b in y.points]
    rel += [((a, b), (a, d)) for a in x.points for b, d in y.cover_pairs()]
    return FinitePoset(pts, rel)


def _assert_indistinguishable(got, want):
    pts = want.points
    assert got.points == pts
    assert all(got.leq(a, b) == want.leq(a, b) for a in pts for b in pts)
    assert got.cover_pairs() == want.cover_pairs()
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want)


class TestProductPoset:
    def test_two_chains_make_a_diamond(self):
        d = product_poset(chain(["a", "b"]), chain(["u", "v"]))
        assert len(d) == 4
        assert d.leq(("a", "u"), ("b", "v"))
        assert not d.leq(("a", "v"), ("b", "u"))
        assert not d.leq(("b", "u"), ("a", "v"))

    def test_singleton_is_a_unit(self):
        p = chain(["x", "y"])
        prod = product_poset(singleton("s"), p)
        assert len(prod) == len(p)
        assert prod.leq(("s", "x"), ("s", "y"))

    def test_antichains_stay_antichains(self):
        prod = product_poset(antichain(["a", "b"]), antichain(["u", "v"]))
        assert len(prod) == 4
        assert not strict_pairs(prod)
        assert prod.cover_pairs() == ()

    def test_matches_the_all_pairs_definition(self):
        # the componentwise order, written out over every pair of points
        posets = enumerate_posets(3)
        for x in posets:
            for y in posets:
                prod = product_poset(x, y)
                pts = [(a, b) for a in x.points for b in y.points]
                assert prod.points == tuple(pts)
                for a, b in pts:
                    for c, d in pts:
                        want = x.leq(a, c) and y.leq(b, d)
                        assert prod.leq((a, b), (c, d)) == want

    # product_poset builds its up-sets and covers in closed form; the
    # result must be the constructor's closure of the lifted covers
    def test_all_pairs_of_small_posets(self):
        posets = enumerate_posets(3)
        assert len(posets) == 8
        for x in posets:
            for y in posets:
                _assert_indistinguishable(product_poset(x, y), _lifted_product(x, y))

    @_EXAMPLES
    @given(generated_posets(), generated_posets())
    def test_generated_pairs(self, x, y):
        _assert_indistinguishable(product_poset(x, y), _lifted_product(x, y))

    @_EXAMPLES
    @given(generated_posets(4), generated_posets(4), generated_posets(4))
    def test_nested_products(self, x, y, z):
        want = _lifted_product(_lifted_product(x, y), z)
        _assert_indistinguishable(product_poset(product_poset(x, y), z), want)

    @_EXAMPLES
    @given(generated_posets())
    def test_a_singleton_or_an_empty_factor_on_either_side(self, p):
        for s in (singleton("s"), FinitePoset([])):
            _assert_indistinguishable(product_poset(s, p), _lifted_product(s, p))
            _assert_indistinguishable(product_poset(p, s), _lifted_product(p, s))

    def test_products_make_no_generic_build(self, monkeypatch):
        # eight points each: a chain, and a poset with a fork and a join
        x = chain(list("abcdefgh"))
        y = FinitePoset(
            list("stuvwxyz"),
            [("s", "t"), ("s", "u"), ("t", "v"), ("u", "v"), ("v", "w"), ("x", "y")],
        )
        mu = ElementaryValuation(x, [(ival(1, 2), "a"), (ival("1/2", "1/2"), "h")])
        nu = ElementaryValuation(y, [(ival(0, 1), "s"), (ival(1, 1), "z")])
        builds = []
        init = FinitePoset.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FinitePoset, "__init__", counting)
        space = product_poset(x, y)
        assert monad.product(mu, nu).space == space
        assert monad.strength(x, "c", nu).space == space
        assert monad.dual_strength(mu, y, "w").space == space
        assert builds == []
        # the counter does see a generic build
        assert _lifted_product(x, y) == space
        assert len(builds) == 1


class TestMonotoneMap:
    def test_requires_totality(self):
        p = chain(["a", "b"])
        with pytest.raises(ValueError):
            MonotoneMap(p, {"a": ival(0, 1)})

    def test_requires_monotone(self):
        p = chain(["a", "b"])
        with pytest.raises(NotMonotone):
            MonotoneMap(p, {"a": ival(2, 2), "b": ival(1, 1)})

    def test_scalar_maps_use_scalar_order(self):
        p = chain(["a", "b"])
        MonotoneMap(p, {"a": ext(1), "b": ext(2)}, SCALARS)
        with pytest.raises(NotMonotone):
            MonotoneMap(p, {"a": ext(2), "b": ext(1)}, SCALARS)

    def test_lookup_off_space(self):
        p = singleton("a")
        h = MonotoneMap(p, {"a": ival(0, 1)})
        with pytest.raises(PointNotInSpace):
            h("zz")


class TestEndpointMaps:
    def test_constant(self):
        p = antichain(["a", "b"])
        h = MonotoneMap(p, {"a": ival(2, 5), "b": ival(2, 5)})
        lower, upper = endpoint_maps(h)
        assert lower == {"a": ext(2), "b": ext(2)}
        assert upper == {"a": ext(5), "b": ext(5)}

    def test_precise(self):
        p = singleton("a")
        h = MonotoneMap(p, {"a": ival("1/3", "1/3")})
        lower, upper = endpoint_maps(h)
        assert lower["a"] == upper["a"] == ext("1/3")

    def test_projections_on_a_chain(self):
        p = chain(["p", "q"])
        h = MonotoneMap(p, {"p": ival(0, 3), "q": ival(1, 2)})
        lower, upper = endpoint_maps(h)
        assert lower == {"p": ext(0), "q": ext(1)}
        assert upper == {"p": ext(3), "q": ext(2)}


class TestSupports:
    def test_upper_support_of_top_point(self):
        p = chain(["p", "q"])
        assert min_upper_support(p, ["q"]).members == frozenset({"q"})

    def test_upper_support_closes_upward(self):
        p = chain(["p", "q"])
        assert min_upper_support(p, ["p"]).members == frozenset({"p", "q"})

    def test_upper_support_on_antichain(self):
        p = antichain(["a", "b"])
        assert min_upper_support(p, ["a"]).members == frozenset({"a"})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_upper_support(singleton(), [])

    def test_closed_support(self):
        p = chain(["p", "q"])
        assert closed_support(p, ["q"]) == frozenset({"p", "q"})
        assert closed_support(p, []) == frozenset()
        assert closed_support(antichain(["a", "b"]), ["a"]) == frozenset({"a"})

    def test_intersection_contains_mass_points(self):
        for p in enumerate_posets(3):
            pts = list(p.points)[:2]
            core = min_upper_support(p, pts).members & closed_support(p, pts)
            assert set(pts) <= core

    def test_intersection_equals_antichain_of_maximal_points(self):
        p = FinitePoset(["a", "b", "t"], [("a", "t")])
        # {b, t} is an antichain of maximal elements
        s = {"b", "t"}
        core = min_upper_support(p, s).members & closed_support(p, s)
        assert core == frozenset(s)

    def test_upper_set_validation(self):
        p = chain(["p", "q"])
        UpperSet(p, {"q"})
        with pytest.raises(ValueError):
            UpperSet(p, {"p"})


class TestEnumeration:
    def test_poset_counts_up_to_isomorphism(self):
        assert len(enumerate_posets(1)) == 1
        assert len(enumerate_posets(2)) == 1 + 2
        assert len(enumerate_posets(3)) == 1 + 2 + 5
        assert len(enumerate_posets(4)) == 1 + 2 + 5 + 16

    def test_monotone_maps_on_antichain_are_all_maps(self):
        maps = all_monotone_maps(antichain(["a", "b"]), COEFF_GRID)
        assert len(maps) == len(COEFF_GRID) ** 2

    def test_monotone_maps_on_chain_respect_order(self):
        maps = all_monotone_maps(chain(["a", "b"]), COEFF_GRID)
        for h in maps:
            assert INTERVALS.leq(h("a"), h("b"))
        # pairs must be comparable-in-order, strictly fewer than all pairs
        assert len(maps) < len(COEFF_GRID) ** 2

    def test_tables_come_out_in_lexicographic_order(self):
        # along the linear extension, values tried in their given order
        posets = enumerate_posets(3)
        for x in posets:
            pts = _linear_extension(x)
            for y in posets:
                expected = [
                    dict(zip(pts, images))
                    for images in product(y.points, repeat=len(pts))
                    if all(y.leq(images[i], images[j])
                           for i, a in enumerate(pts) for j, b in enumerate(pts) if x.leq(a, b))
                ]
                assert all_monotone_point_maps(x, y) == expected
            grid = COEFF_GRID
            expected = [
                dict(zip(pts, values))
                for values in product(grid, repeat=len(pts))
                if all(INTERVALS.leq(values[i], values[j])
                       for i, a in enumerate(pts) for j, b in enumerate(pts) if x.leq(a, b))
            ]
            assert [h.table() for h in all_monotone_maps(x, grid)] == expected

    def test_monotone_point_maps(self):
        maps = all_monotone_point_maps(chain(["a", "b"]), chain(["u", "v"]))
        assert {tuple(sorted(m.items())) for m in maps} == {
            (("a", "u"), ("b", "u")),
            (("a", "u"), ("b", "v")),
            (("a", "v"), ("b", "v")),
        }
