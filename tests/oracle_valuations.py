"""Grid-relative oracles for the valuation and monad tests.

The library decides the order on valuations exactly (``valuation_leq``);
these oracles compare relative to an explicit family of test functions
instead.  ``leq_on`` checks the order on every function of the family,
``exhaustive_tests`` builds the family of *all* monotone maps into a fixed
coefficient grid, and ``functional_bind`` computes bind(f, nu)(k) by its
defining description.  They are independent checks, not decision
procedures: the grid family does not separate interval-valued valuations.
On the chain a <= b, the pair mu = [0,0] x delta_a + [1,2] x delta_b and
nu = [1/2,1/2] x delta_a + [1,1] x delta_b passes ``leq_on`` over the
grid family, yet h = {a -> [0,1], b -> [0,0]} gives mu(h) = [0,0], which
is not below nu(h) = [0,1/2].

``enumerated_leq`` decides the exact order by enumeration: it compares
the masses on all 2^k traces of upper and down sets on the pair's k term
points, so it is the oracle for ``valuation_leq``'s flows at small k.  ``assert_separates`` checks the certificate that
comes with a "no": a monotone h on which mu exceeds nu.
"""

from __future__ import annotations

from typing import List, Sequence

from intval.algebra import INTERVALS, ZERO, ValueAlgebra, ext
from intval.errors import NotMonotone, SpaceMismatch
from intval.laws import COEFF_GRID
from intval.monad import Kernel
from intval.spaces import FinitePoset, MonotoneMap, all_monotone_maps
from intval.valuations import ElementaryValuation, evaluate

# The scalar counterpart of laws.COEFF_GRID, the default interval grid.
SCALAR_TEST_GRID = tuple(ext(v) for v in (0, "1/2", 1, 2, "inf"))


def leq_on(
    mu: ElementaryValuation,
    nu: ElementaryValuation,
    tests: Sequence[MonotoneMap],
) -> bool:
    """Pointwise order relative to a family of test functions.

    True iff evaluate(mu, h) <= evaluate(nu, h) for every supplied h.  A
    sound necessary check for the full pointwise order, complete only
    relative to the family.
    """
    if mu.space != nu.space:
        raise SpaceMismatch("cannot compare valuations on different spaces")
    if not tests:
        raise ValueError("leq_on needs at least one test function")
    alg = mu.algebra
    return all(alg.leq(evaluate(mu, h), evaluate(nu, h)) for h in tests)


def exhaustive_tests(
    space: FinitePoset,
    grid: Sequence[object] | None = None,
    algebra: ValueAlgebra = INTERVALS,
) -> List[MonotoneMap]:
    """All monotone test functions into a finite coefficient grid.

    The default grid matches the algebra (interval or scalar).  Affordable
    for posets with at most 4-5 points; the family grows like
    |grid|^|points| on antichains.
    """
    if grid is None:
        grid = COEFF_GRID if algebra is INTERVALS else SCALAR_TEST_GRID
    return all_monotone_maps(space, grid, algebra)


def functional_bind(f: Kernel, nu: ElementaryValuation, k: MonotoneMap):
    """bind(f, nu) applied to k by its defining description nu(x -> f(x)(k)).

    Computes sum_i r_i * f(x_i)(k) from `evaluate` and coefficient
    arithmetic alone, never through bind, scale or add, so it shares no
    code with bind's closed form: it sums per source term where bind
    merges image terms per target point first.
    """
    alg = nu.algebra
    acc = None
    for coeff, point in nu.terms:
        term = alg.mul(coeff, evaluate(f(point), k))
        acc = term if acc is None else alg.add(acc, term)
    return acc


def enumerated_leq(mu: ElementaryValuation, nu: ElementaryValuation) -> bool:
    """mu <= nu by enumerating the 2^k traces on the k term points.

    The conditions are those of ``valuation_leq``'s docstring: the lower
    endpoints' masses on every upper set, then (unless some upper endpoint
    of mu is infinite) support condition (1) and the upper endpoints'
    masses on every down-set.  A subset T of the term points is the trace
    of an upper set iff the up-closure of T meets them in T exactly, and
    the down-set traces are the complements of the upper-set traces.
    """
    if mu.space != nu.space:
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


def assert_separates(mu: ElementaryValuation, nu: ElementaryValuation, h: MonotoneMap) -> None:
    """Check a refutation of mu <= nu: h is monotone and mu(h) !<= nu(h).

    h is rebuilt from its table, so its monotonicity is checked here
    again, and both sides are evaluated with ``evaluate`` alone.
    """
    assert h is not None, "a refuted pair needs a separating test function"
    try:
        MonotoneMap(h.space, h.table(), h.algebra)
    except NotMonotone as exc:
        raise AssertionError(f"the separating function is not monotone: {exc}") from None
    lhs, rhs = evaluate(mu, h), evaluate(nu, h)
    assert not mu.algebra.leq(lhs, rhs), (mu, nu, h, lhs, rhs)
