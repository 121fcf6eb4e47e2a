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
mu(h) <= nu(h) for every monotone test function h from the terms alone,
by comparing masses on upper and down sets (see its docstring for the
proof); the kernels of the monad are validated with it.  Functional
equality is the order in both directions; ``==`` is structural equality
of normal forms, which is sound but incomplete (on the chain q <= p,
[inf,inf] x delta_p + [1,inf] x delta_q and [inf,inf] x delta_p +
[2,inf] x delta_q are different normal forms of one functional).
``valuation_leq`` is the one order on valuations that the library offers;
the grid-relative oracles the tests compare it with live in
tests/oracle_valuations.py.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .algebra import INTERVALS, ZERO, ValueAlgebra
from .errors import SpaceMismatch
from .spaces import FinitePoset, MonotoneMap, Point

_new = object.__new__


class ElementaryValuation:
    """A normal-form weighted sum of Dirac masses on a finite poset."""

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
        if not isinstance(other, ElementaryValuation):
            return NotImplemented
        return (
            (self.space is other.space or self.space == other.space)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

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

    Traces.  Every mass above depends only on the trace of U (or D) on
    the k distinct term points of the pair.  A subset T of those points
    is such a trace iff the up-closure of T meets them in T exactly, and
    the down-set traces are the complements of the upper-set traces.  So
    the decision enumerates the 2^k subsets once, with no cap on the
    poset's size.
    """
    if mu.space is not nu.space and mu.space != nu.space:
        raise SpaceMismatch("cannot compare valuations on different spaces")
    if mu.algebra is not nu.algebra:
        raise SpaceMismatch("cannot compare valuations over different algebras")
    space, intervals = mu.space, mu.algebra is INTERVALS
    # mu's points come first, so mu's support is the low len(mu.terms) bits
    points = list(dict.fromkeys(p for _, p in mu.terms + nu.terms))
    above = [
        sum(1 << j for j, q in enumerate(points) if space.leq(p, q)) for p in points
    ]
    full = (1 << len(points)) - 1
    uppers = [t for t in range(full + 1) if _up_closure(above, t) == t]

    def masses(val, endpoint):
        at = {p: endpoint(c) for c, p in val.terms}
        return [at.get(p, ZERO) for p in points]

    lower = (lambda c: c.lo) if intervals else (lambda c: c)
    mu_lo, nu_lo = masses(mu, lower), masses(nu, lower)
    if not all(_mass(mu_lo, t) <= _mass(nu_lo, t) for t in uppers):
        return False
    if not intervals or any(c.hi.is_infinite for c, _ in mu.terms):
        return True
    nu_support = sum(1 << points.index(p) for _, p in nu.terms)
    if nu_support & ~_up_closure(above, (1 << len(mu.terms)) - 1):
        return False
    mu_hi, nu_hi = masses(mu, lambda c: c.hi), masses(nu, lambda c: c.hi)
    return all(_mass(nu_hi, full ^ t) <= _mass(mu_hi, full ^ t) for t in uppers)


def _up_closure(above: List[int], subset: int) -> int:
    closure = 0
    for i, mask in enumerate(above):
        if subset >> i & 1:
            closure |= mask
    return closure


def _mass(masses: List[object], subset: int):
    total = ZERO
    for i, m in enumerate(masses):
        if subset >> i & 1:
            total = total + m
    return total


def bottom_valuation(space: FinitePoset, algebra: ValueAlgebra = INTERVALS) -> ElementaryValuation:
    """The least valuation: the algebra's bottom element times any Dirac.

    Its value on every test function is the bottom element, because bottom
    is multiplicatively absorbing in the interval algebra.
    """
    return ElementaryValuation(
        space, [(algebra.bottom, space.points[0])], algebra, validate=False
    )
