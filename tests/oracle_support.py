"""Independent support-witness oracle for the upper-integral tests.

Decides whether an antitone integrand is bounded against a measure the
way the definition reads: it is bounded on Q n Supp(mu) for some compact
saturated support Q of mu.  On a finite poset the compact saturated sets
are the upper sets, the least upper set that supports mu is the upward
closure of its mass points, and the closed support is their downward
closure; the intersection of the two is built and inspected point by
point.  The library instead reads the integrand at the mass points only,
so exact agreement between the two is a real check.
"""

from typing import Iterable, List, NamedTuple, Tuple

from intval.errors import NotMonotone, ZeroMeasure
from intval.spaces import FinitePoset, Point


def strict_pairs(poset: FinitePoset) -> List[Tuple[Point, Point]]:
    """Every pair (a, b) with a < b, read off `leq` over all pairs of points.

    Independent of the stored covering pairs, so checks written over these
    pairs are oracles for the library's cover-based checks.
    """
    pts = poset.points
    return [(a, b) for a in pts for b in pts if a != b and poset.leq(a, b)]


def up_closure(poset: FinitePoset, points: Iterable[Point]) -> frozenset:
    """The points of poset above some point of points."""
    pts = list(points)
    for p in pts:
        poset.require(p)
    return frozenset(q for q in poset.points if any(poset.leq(p, q) for p in pts))


def down_closure(poset: FinitePoset, points: Iterable[Point]) -> frozenset:
    """The points of poset below some point of points."""
    pts = list(points)
    for p in pts:
        poset.require(p)
    return frozenset(q for q in poset.points if any(poset.leq(q, p) for p in pts))


class UpperSet:
    """An upward-closed subset of a finite poset."""

    __slots__ = ("poset", "members")

    def __init__(self, poset: FinitePoset, members: Iterable[Point]):
        mem = frozenset(members)
        if up_closure(poset, mem) != mem:
            raise ValueError("set is not upward closed")
        self.poset = poset
        self.members = mem

    def __contains__(self, point: Point) -> bool:
        return point in self.members

    def __repr__(self) -> str:
        return "upper{" + ", ".join(sorted(map(str, self.members))) + "}"


def min_upper_support(poset: FinitePoset, mass_points: Iterable[Point]) -> UpperSet:
    """The least upper set supporting a measure with the given mass points.

    Any upward-closed support must contain every positive-mass point (a
    point outside it could be swapped for the empty set without changing
    intersections), hence must contain the whole upward closure; and the
    upward closure itself is a support.
    """
    pts = list(mass_points)
    if not pts:
        raise ValueError("no mass points: the minimal upper support is undefined")
    return UpperSet(poset, up_closure(poset, pts))


def closed_support(poset: FinitePoset, mass_points: Iterable[Point]) -> frozenset:
    """The smallest closed (= downward-closed) set containing the mass points."""
    return down_closure(poset, mass_points)


class BoundednessWitness(NamedTuple):
    bounded: bool
    witness: UpperSet


def is_mu_bounded(fplus, mu) -> BoundednessWitness:
    """Decide boundedness of an antitone table fplus over the measure.

    Returns whether fplus is finite on the intersection of the minimal
    compact saturated support with the closed support, together with
    that minimal witness.  Every compact saturated support contains all
    mass points, so the minimal witness decides the existential
    definition.
    """
    if mu.is_zero:
        raise ZeroMeasure("the zero measure has no support witness")
    space = mu.space
    missing = [p for p in space.points if p not in fplus]
    if missing:
        raise ValueError(f"integrand not total: missing {missing!r}")
    for a, b in strict_pairs(space):
        if not fplus[b] <= fplus[a]:
            raise NotMonotone(f"integrand not antitone: {a!r} <= {b!r} but values increase")
    witness = min_upper_support(space, mu.mass_points)
    core = witness.members & closed_support(space, mu.mass_points)
    bounded = all(not fplus[p].is_infinite for p in core)
    return BoundednessWitness(bounded, witness)
