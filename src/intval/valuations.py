"""Weighted Dirac sums: the concrete, finitely-presented valuations.

An elementary valuation is a formal sum of at least one weighted Dirac
mass, sum(r_i x delta_{p_i}), acting on test functions by

    evaluate(nu, h) = sum_i r_i * h(p_i)

computed in the coefficient algebra.  Evaluation is linear (additive and
homogeneous) and monotone in h, with exact equality throughout.

Terms are kept in normal form: sorted by point, one term per point, equal
points merged by coefficient addition.  Zero coefficients are *kept*: in
the interval algebra [0, 0] * [inf, inf] = [0, inf], so a [0, 0]-weighted
term still contributes wherever the test function has an infinite upper
endpoint, and dropping it would change the functional.  The empty sum is
rejected: the constant-zero functional fails homogeneity (it would force
a * 0 = 0, which fails for intervals) and is deliberately unrepresentable.

Equality of valuations as functionals is not decidable from terms alone;
structural equality of normal forms is sound but incomplete (for example
[0,0] x delta_x and [0,0] x delta_y act identically unless some test
function has an infinite upper endpoint at exactly one of the points).
``leq_on``/``eq_on`` compare relative to an explicit family of test
functions, and ``exhaustive_tests`` builds the family of *all* monotone
maps into a fixed coefficient grid, which is affordable on small posets.
Whether that family separates all pairs of interval-valued valuations on
finite posets is not settled; treat these as sound checks, not decision
procedures.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .algebra import INTERVALS, IntervalValue, ValueAlgebra, ext, ival
from .errors import SpaceMismatch
from .spaces import FinitePoset, MonotoneMap, Point, all_monotone_maps

# Default coefficient grids for exhaustive test families: the additive and
# multiplicative units, a precise non-unit value, a genuinely wide interval,
# and the absorbing least element (and the scalar counterpart).
DEFAULT_TEST_GRID: Tuple[IntervalValue, ...] = (
    ival(0, 0),
    ival(1, 1),
    ival("1/2", "1/2"),
    ival(1, 2),
    ival(0, "inf"),
)

SCALAR_TEST_GRID = tuple(ext(v) for v in (0, "1/2", 1, 2, "inf"))


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
        merged = {}
        for coeff, point in terms:
            if validate:
                space.require(point)
                if not algebra.contains(coeff):
                    raise ValueError(
                        f"coefficient {coeff!r} is not a {algebra.name} element"
                    )
            if point in merged:
                merged[point] = algebra.add(merged[point], coeff)
            else:
                merged[point] = coeff
        if not merged:
            raise ValueError(
                "an elementary valuation needs at least one term; "
                "the empty sum is not a valuation"
            )
        self.space = space
        self.algebra = algebra
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

    def to_json_obj(self) -> dict:
        """JSON shape mirroring the ``val { coeff @ point; ... }`` literal."""
        return {
            "terms": [
                {"coeff": self.algebra.render(c), "point": str(p)}
                for c, p in self.terms
            ]
        }


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
    return ElementaryValuation(
        nu.space, [(alg.mul(a, c), p) for c, p in nu.terms], alg, validate=False
    )


def add(mu: ElementaryValuation, nu: ElementaryValuation) -> ElementaryValuation:
    """Pointwise sum: concatenate terms and renormalize."""
    if mu.space != nu.space:
        raise SpaceMismatch("cannot add valuations on different spaces")
    if mu.algebra is not nu.algebra:
        raise SpaceMismatch("cannot add valuations over different algebras")
    return ElementaryValuation(
        mu.space, mu.terms + nu.terms, mu.algebra, validate=False
    )


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


def eq_on(
    mu: ElementaryValuation,
    nu: ElementaryValuation,
    tests: Sequence[MonotoneMap],
) -> bool:
    """Functional equality relative to a family of test functions."""
    if mu.space != nu.space:
        raise SpaceMismatch("cannot compare valuations on different spaces")
    if not tests:
        raise ValueError("eq_on needs at least one test function")
    return all(evaluate(mu, h) == evaluate(nu, h) for h in tests)


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
        grid = DEFAULT_TEST_GRID if algebra is INTERVALS else SCALAR_TEST_GRID
    return all_monotone_maps(space, grid, algebra)


def bottom_valuation(space: FinitePoset, algebra: ValueAlgebra = INTERVALS) -> ElementaryValuation:
    """The least valuation: the algebra's bottom element times any Dirac.

    Its value on every test function is the bottom element, because bottom
    is multiplicatively absorbing in the interval algebra.
    """
    return ElementaryValuation(
        space, [(algebra.bottom, space.points[0])], algebra, validate=False
    )
