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
"""

from __future__ import annotations

from typing import List, Sequence

from intval.algebra import INTERVALS, ValueAlgebra, ext
from intval.errors import SpaceMismatch
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
