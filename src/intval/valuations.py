"""Weighted Dirac sums: the concrete, finitely-presented valuations.

An elementary valuation is a formal sum of at least one weighted Dirac
mass, sum(r_i x delta_{p_i}), acting on test functions by

    evaluate(nu, h) = sum_i r_i * h(p_i)

computed in the coefficient algebra.  Evaluation is linear (additive and
homogeneous) and monotone in h, with exact equality throughout.

Terms are kept in normal form: sorted by point, one term per point, equal
points merged by coefficient addition.  A single term is already in normal
form, so the constructor takes it as it is, with no merge or sort.
Multiplying coefficients moves no point, so ``scale`` and bind on a
one-term argument (monad.bind) build their results in normal form
directly, without the constructor.  Zero coefficients are *kept*: in
the interval algebra [0, 0] * [inf, inf] = [0, inf], so a [0, 0]-weighted
term still contributes wherever the test function has an infinite upper
endpoint, and dropping it would change the functional.  The empty sum is
rejected: the constant-zero functional fails homogeneity (it would force
a * 0 = 0, which fails for intervals) and is deliberately unrepresentable.

The order is decided exactly.  ``valuation_leq(mu, nu)`` decides
mu(h) <= nu(h) for every monotone test function h from the terms alone:
the masses of the lower endpoints must move up the order from mu into
nu, and those of the upper endpoints down from nu into mu, and each is
one exact int max-flow on the pair's term points, polynomial in their
number (see its docstring for the proof).  A "no" comes with a
certificate: ``separating_function`` turns the flow's minimum cut into a
monotone h with mu(h) !<= nu(h), and the kernels of the monad are
validated with it.  Functional equality is the order in both directions;
``==`` is structural equality of normal forms, which is sound but
incomplete (on the chain q <= p, [inf,inf] x delta_p + [1,inf] x delta_q
and [inf,inf] x delta_p + [2,inf] x delta_q are different normal forms
of one functional).  ``valuation_leq`` is the one order on valuations
that the library offers; the grid-relative oracles and the 2^k trace
enumeration the tests compare it with live in tests/oracle_valuations.py.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, List, Sequence, Tuple

from .algebra import (
    BOTTOM,
    INFINITY,
    INTERVALS,
    IZERO,
    ONE,
    ZERO,
    IntervalValue,
    ValueAlgebra,
)
from .errors import SpaceMismatch
from .spaces import FinitePoset, MonotoneMap, Point

_new = object.__new__


class ElementaryValuation:
    """A normal-form weighted sum of Dirac masses on a finite poset.

    ``==`` is structural equality of normal forms, as the module docstring
    says: sound but incomplete for functional equality, which is
    ``valuation_leq`` both ways.  One object is equal to itself at the
    identity test, before any coefficient is compared, and ``!=`` is the
    negation of ``==``, with NotImplemented for a foreign type.
    """

    __slots__ = ("space", "algebra", "terms")

    def __init__(
        self,
        space: FinitePoset,
        terms: Iterable[Tuple[object, Point]],
        algebra: ValueAlgebra = INTERVALS,
        validate: bool = True,
    ):
        if not isinstance(terms, (list, tuple)):
            terms = list(terms)
        if validate:
            for coeff, point in terms:
                space.require(point)
                if not algebra.contains(coeff):
                    raise ValueError(
                        f"coefficient {coeff!r} is not a {algebra.name} element"
                    )
        self.space = space
        self.algebra = algebra
        if len(terms) == 1:
            # one term is already merged and sorted
            ((coeff, point),) = terms
            self.terms = ((coeff, point),)
            return
        merged = {}
        for coeff, point in terms:
            if point in merged:
                merged[point] = algebra.add(merged[point], coeff)
            else:
                merged[point] = coeff
        if not merged:
            raise ValueError(
                "an elementary valuation needs at least one term; "
                "the empty sum is not a valuation"
            )
        self.terms = tuple(
            (coeff, point)
            for point, coeff in sorted(merged.items(), key=lambda kv: _point_key(kv[0]))
        )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ElementaryValuation):
            return NotImplemented
        return (
            (self.space is other.space or self.space == other.space)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    def __ne__(self, other) -> bool:
        # written out so that one object is decided in this frame; the
        # inherited __ne__ reaches __eq__ through object's slot
        if self is other:
            return False
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash((self.space, self.algebra.name, self.terms))

    def __repr__(self) -> str:
        body = "; ".join(
            f"{self.algebra.render(c)} @ {p}" for c, p in self.terms
        )
        return "val { " + body + " }"


def _point_key(point):
    # points within one space are mutually orderable (strings, or tuples of
    # orderables for product spaces); wrap strings so sorting stays stable
    # if a space ever mixes tuple depths
    return (0, point) if isinstance(point, str) else (1, point)


def dirac(space: FinitePoset, point: Point, algebra: ValueAlgebra = INTERVALS) -> ElementaryValuation:
    """The Dirac mass at a point: evaluate(dirac(x), h) = h(x)."""
    space.require(point)
    return ElementaryValuation(space, [(algebra.one, point)], algebra, validate=False)


def evaluate(nu: ElementaryValuation, h: MonotoneMap):
    """Evaluate sum_i r_i * h(p_i) exactly in the coefficient algebra."""
    if h.space is not nu.space and h.space != nu.space:
        raise SpaceMismatch("test function lives on a different space")
    if h.algebra is not nu.algebra:
        raise SpaceMismatch(
            f"test function is {h.algebra.name}-valued but the valuation is "
            f"{nu.algebra.name}-valued"
        )
    alg = nu.algebra
    acc = None
    for coeff, point in nu.terms:
        term = alg.mul(coeff, h(point))
        acc = term if acc is None else alg.add(acc, term)
    return acc


def scale(a, nu: ElementaryValuation) -> ElementaryValuation:
    """Multiply every coefficient by a; evaluation is homogeneous in a."""
    alg = nu.algebra
    if not alg.contains(a):
        raise ValueError(f"scalar {a!r} is not a {alg.name} element")
    # scaling moves no point, so nu's normal form is the result's
    mul = alg.mul
    out = _new(ElementaryValuation)
    out.space = nu.space
    out.algebra = alg
    out.terms = tuple([(mul(a, c), p) for c, p in nu.terms])
    return out


def add(mu: ElementaryValuation, nu: ElementaryValuation) -> ElementaryValuation:
    """Pointwise sum: concatenate terms and renormalize."""
    if mu.space != nu.space:
        raise SpaceMismatch("cannot add valuations on different spaces")
    if mu.algebra is not nu.algebra:
        raise SpaceMismatch("cannot add valuations over different algebras")
    return ElementaryValuation(
        mu.space, mu.terms + nu.terms, mu.algebra, validate=False
    )


def eq_on(
    mu: ElementaryValuation,
    nu: ElementaryValuation,
    tests: Sequence[MonotoneMap],
) -> bool:
    """Functional equality relative to a family of test functions.

    No library code calls it: it stays because the benchmark's tracer
    (perfbench/trace.py) wraps it, until that span is dropped.
    """
    if mu.space != nu.space:
        raise SpaceMismatch("cannot compare valuations on different spaces")
    if not tests:
        raise ValueError("eq_on needs at least one test function")
    return all(evaluate(mu, h) == evaluate(nu, h) for h in tests)


def valuation_leq(mu: ElementaryValuation, nu: ElementaryValuation) -> bool:
    """Decide mu <= nu: evaluate(mu, h) <= evaluate(nu, h) for every monotone h.

    Write a_i, b_i for the lower and upper endpoints of mu's coefficients
    at its points p_i, and c_j, d_j for nu's at q_j; at SCALARS a
    coefficient is its own lower endpoint and there is no upper side.

    Decoupling.  The lower endpoint of mu(h) is L_mu(f) = sum_i a_i *l f(p_i)
    with f = lo(h) monotone, the upper endpoint is H_mu(g) =
    sum_i b_i *r g(p_i) with g = hi(h) antitone, and mu(h) <= nu(h) means
    L_mu(f) <= L_nu(f) and H_nu(g) <= H_mu(g).  Every monotone f into
    [0, inf] gives the test function [f, inf], and every antitone g the
    test function [0, g], so the order holds iff L_mu <= L_nu on all
    monotone f and H_nu <= H_mu on all antitone g, separately.

    Lower side.  Let 0 < v_1 < ... < v_m be the nonzero values of f (v_m
    may be inf) and U_k = {f >= v_k}, upper sets.  Then f =
    sum_k (v_k - v_(k-1)) 1_(U_k) with v_0 = 0, and since *l (0 * inf = 0)
    distributes over sums on [0, inf], L_mu(f) =
    sum_k (v_k - v_(k-1)) *l mu_lo(U_k) with mu_lo(U) = sum of the a_i at
    p_i in U.  The product is monotone, so mu_lo(U) <= nu_lo(U) for every
    upper set U gives L_mu <= L_nu; conversely f = 1_U gives that
    inequality.  So the lower side holds iff mu_lo(U) <= nu_lo(U) on every
    upper set U.

    Upper side.  If some b_i is inf, H_mu(g) = inf for every g (*r lets
    inf absorb even 0), and the side holds.  Otherwise it holds iff
      (1) every q_j lies above some p_i: else g = inf . 1_D with D the
          complement of the up-closure of mu's points (a down-set) gives
          H_mu(g) = 0 and H_nu(g) = inf;
      (2) nu_hi(D) <= mu_hi(D) on every down-set D: g = 1_D.  With D the
          whole poset, (2) also makes every d_j finite.
    These suffice.  Take an antitone g.  If g(p_i) = inf for some i, then
    H_mu(g) = inf.  Otherwise, by (1) and antitonicity, g is finite at
    every q_j too, so both sums are finite, and the layer cake over the
    down-sets {g >= v_k} reduces H_nu(g) <= H_mu(g) to (2).

    Flows.  Each side asks whether a source mass can move along the order
    into a sink mass: mu_lo up into nu_lo (from p_i to q_j when
    p_i <= q_j), and nu_hi down into mu_hi (from q_j to p_i when
    p_i <= q_j).  By the splitting lemma of Jones and Plotkin, a Hall
    condition, it can iff every set S of source points carries at most the
    sink mass of its reach; that is the mass condition on the upper set
    up(S) (down-set down(S)), and for any upper (down) set it follows from
    the one for S = the source points inside.  So a side holds iff the
    network source -> p (capacity p's mass), p -> q uncapped where p may
    move to q, q -> sink (capacity q's mass) has a flow that carries the
    whole source mass, a transport plan.  Infinite masses are settled
    first: a sink point of infinite mass absorbs every source point that
    reaches it, so both are dropped, and a source point of infinite mass
    left over reaches finite mass only and fails, with S = {p}.  The other
    masses are finite rationals, scaled to ints over one common
    denominator; zero masses are dropped.  Breadth-first augmenting paths
    (Edmonds-Karp), served source by source, find the flow in time
    polynomial in the k term points and independent of the numbers'
    size.  If the search from a source gets stuck, the source points S and
    sink points T it reached are the source side of a minimum cut: every
    sink point in T is full, filled from S alone, and S reaches only T, so
    S's mass exceeds its routed flow, which is T's mass, at least that of
    S's reach.  up(S) (down(S)) is a set that breaks the side, and
    ``separating_function`` turns it into a test function.

    Shortcuts.  Equal normal forms are one functional, so mu.terms ==
    nu.terms is ordered without a flow.  A one-point source moves into
    the sink points it reaches iff its mass is at most theirs, one int
    comparison.
    """
    return _refutation(mu, nu) is None


def separating_function(
    mu: ElementaryValuation, nu: ElementaryValuation
) -> MonotoneMap | None:
    """None when mu <= nu, else a test function h with mu(h) !<= nu(h).

    h certifies the "no" of ``valuation_leq``: it is built from the cut
    that refutes the order (see there), in point order, and is checked
    monotone.  An upper set U that breaks the lower side gives
    h = [1_U, inf] (1_U at SCALARS), a down-set D that breaks (2) gives
    h = [0, 1_D], and a nu point above none of mu's points gives
    h = [0, inf . 1_D] with D the complement of the up-closure of mu's
    points, so that evaluate(mu, h) is not below evaluate(nu, h).
    """
    found = _refutation(mu, nu)
    if found is None:
        return None
    kind, mask = found
    space, alg = mu.space, mu.algebra
    if alg is not INTERVALS:
        outside, inside = ZERO, ONE
    elif kind is _UPPER:
        outside, inside = BOTTOM, IntervalValue._make(ONE, INFINITY)
    elif kind is _DOWN:
        outside, inside = IZERO, IntervalValue._make(ZERO, ONE)
    else:
        outside, inside = IZERO, BOTTOM
    table = {p: inside if mask >> i & 1 else outside for i, p in enumerate(space.points)}
    return MonotoneMap(space, table, alg)


# The kinds of set a refutation names: an upper set, a down-set breaking
# (2), or the down-set that support condition (1) finds.
_UPPER, _DOWN, _SUPPORT = "upper", "down", "support"


def _refutation(mu: ElementaryValuation, nu: ElementaryValuation):
    """None when mu <= nu, else (kind, bitmask over point indices)."""
    if mu.space is not nu.space and mu.space != nu.space:
        raise SpaceMismatch("cannot compare valuations on different spaces")
    if mu.algebra is not nu.algebra:
        raise SpaceMismatch("cannot compare valuations over different algebras")
    if mu.terms == nu.terms:
        return None
    space = mu.space
    # the poset's own index and up-set bitmasks (see spaces.FinitePoset)
    index, up = space._index, space._up
    if mu.algebra is not INTERVALS:
        stuck = _hall(
            [(c, index[p]) for c, p in mu.terms],
            [(c, index[q]) for c, q in nu.terms],
            up,
            True,
        )
        return None if stuck is None else (_UPPER, _up_closure(stuck, up))
    mu_lo, mu_hi, nu_lo, nu_hi = [], [], [], []
    mu_up = 0
    for c, p in mu.terms:
        i = index[p]
        mu_lo.append((c.lo, i))
        mu_hi.append((c.hi, i))
        mu_up |= up[i]
    for c, q in nu.terms:
        j = index[q]
        nu_lo.append((c.lo, j))
        nu_hi.append((c.hi, j))
    stuck = _hall(mu_lo, nu_lo, up, True)
    if stuck is not None:
        return _UPPER, _up_closure(stuck, up)
    for m, _ in mu_hi:
        if not m._d:
            return None
    for _, q in nu_hi:
        if not mu_up >> q & 1:
            return _SUPPORT, ((1 << len(up)) - 1) & ~mu_up
    stuck = _hall(nu_hi, mu_hi, up, False)
    if stuck is None:
        return None
    seeds = sum(1 << q for q in stuck)
    return _DOWN, sum(1 << i for i, mask in enumerate(up) if mask & seeds)


def _up_closure(points: List[int], up: List[int]) -> int:
    closure = 0
    for i in points:
        closure |= up[i]
    return closure


def _hall(src, dst, up: List[int], upward: bool):
    """None if src's masses move into dst's along the order, else the
    indices of a set of source points whose mass exceeds their reach's.

    src and dst are (mass, point index) lists; a source point p may move
    to q when p <= q (upward) or q <= p.
    """
    sources = [(m, p) for m, p in src if m._n]
    if not sources:
        return None
    sinks = [(m, q) for m, q in dst if m._n]
    # each source's reach as a bitmask over point indices
    if upward:
        masks = [up[p] for _, p in sources]
    else:
        masks = [sum(1 << q for _, q in sinks if up[q] >> p & 1) for _, p in sources]
    infinite = 0
    for m, q in sinks:
        if not m._d:
            infinite |= 1 << q
    if infinite:
        # an infinite sink absorbs every source point that reaches it
        kept = [i for i, mask in enumerate(masks) if not mask & infinite]
        if not kept:
            return None
        sources = [sources[i] for i in kept]
        masks = [masks[i] for i in kept]
        sinks = [(m, q) for m, q in sinks if m._d]
    for m, p in sources:
        if not m._d:
            return [p]
    # finite masses as ints over one common denominator; reduced pairs
    # (see algebra) keep the scaling exact
    den = lcm(*[m._d for m, _ in sources], *[m._d for m, _ in sinks])
    if len(sources) == 1:
        ((m, p),) = sources
        mask = masks[0]
        reached = sum([n._n * (den // n._d) for n, q in sinks if mask >> q & 1])
        return None if m._n * (den // m._d) <= reached else [p]
    reached = _transport(
        [m._n * (den // m._d) for m, _ in sources],
        [m._n * (den // m._d) for m, _ in sinks],
        [[j for j, (_, q) in enumerate(sinks) if mask >> q & 1] for mask in masks],
    )
    if reached is None:
        return None
    return [p for (_, p), r in zip(sources, reached) if r]


def _transport(supply: List[int], demand: List[int], reach: List[List[int]]):
    """Route every supply[i] into the demands of the sinks reach[i].

    Sources are served in order: direct routes first, then breadth-first
    augmenting paths, which may reroute earlier sources' flow.  Returns
    None when all supply is routed; otherwise, per source, whether the
    stuck search reached it.
    """
    left = list(demand)
    into = [{} for _ in demand]  # sink -> {source: flow}, positive entries
    for i, s in enumerate(supply):
        for j in reach[i]:
            d = left[j]
            if d:
                x = s if s < d else d
                into[j][i] = x
                left[j] = d - x
                s -= x
                if not s:
                    break
        while s:
            via = {i: None}  # source -> the sink it was reached through
            came = {}  # sink -> the source it was reached from
            queue, end = [i], None
            for a in queue:
                for j in reach[a]:
                    if j in came:
                        continue
                    came[j] = a
                    if left[j]:
                        end = j
                        break
                    for b in into[j]:
                        if b not in via:
                            via[b] = j
                            queue.append(b)
                if end is not None:
                    break
            if end is None:
                return [k in via for k in range(len(supply))]
            x, j = min(s, left[end]), end
            while via[came[j]] is not None:
                a = came[j]
                j = via[a]
                x = min(x, into[j][a])
            s -= x
            left[end] -= x
            j = end
            while True:
                a = came[j]
                flows = into[j]
                flows[a] = flows.get(a, 0) + x
                j = via[a]
                if j is None:
                    break
                flows = into[j]
                if flows[a] == x:
                    del flows[a]
                else:
                    flows[a] -= x
    return None


def bottom_valuation(space: FinitePoset, algebra: ValueAlgebra = INTERVALS) -> ElementaryValuation:
    """The least valuation: the algebra's bottom element times any Dirac.

    Its value on every test function is the bottom element, because bottom
    is multiplicatively absorbing in the interval algebra.  An empty space
    has no Dirac, and raises the empty sum's ValueError.
    """
    terms = [(algebra.bottom, p) for p in space.points[:1]]
    return ElementaryValuation(space, terms, algebra, validate=False)
