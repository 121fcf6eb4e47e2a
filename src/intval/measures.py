"""Finite-support measures and exact lower/upper integrals.

A finite-support measure assigns a positive mass (possibly infinite) to
finitely many points of a finite poset.  Every set is measurable and every
measure restricts to a continuous assignment on opens, so the entire
integration theory below is computed exactly, with no limits.

The *lower* integral is the supremum of integrals of truncations; for a
finite weighted sum it collapses to

    lower_integral(f, mu) = sum_x mass(x) *l f(x)

using the lower product (so an infinite mass at an f = 0 point contributes
nothing, while any positive-mass point with f = inf forces inf).  The
Choquet layer-cake formula - integrate the mass of the superlevel sets
over thresholds - computes the same number by a genuinely different route
and serves as the oracle for it.

The *upper* integral of an antitone (= upper semicontinuous) integrand is
the lower integral when the integrand is bounded on Q n Supp(mu) for some
compact saturated support Q of mu, and inf otherwise.  On a finite poset
that definition needs no supports.  The least such Q is the upward
closure of the mass points, so every point c of Q n Supp(mu) lies above
some mass point x, where an antitone integrand takes a value >= f(c);
and the mass points lie in Q n Supp(mu).  So the integrand is unbounded
there exactly when it is inf at a mass point, and the upper integral is
the interval algebra's upper product

    upper_integral(f, mu) = sum_x mass(x) *r f(x)

and a non-zero bounded measure acts as the valuation sum_x [m_x, m_x] . d_x,
the most precise interval valuation approximating it (the paper's result
(2)).

A measure then induces the interval-valued functional

    interval_integral(mu, h) = evaluate(sum_x [m_x, m_x] . d_x, h)
                             = [ lower_integral(h_lo, mu),
                                 upper_integral(h_hi, mu) ]

which is linear and monotone in h, and encloses lower_integral(f, mu) for
every measurable f squeezed between the endpoint maps of h.  Conversely,
every interval-valued functional determines an ordinary valuation through
its lower endpoints alone (``scalar_view``), and every ordinary valuation
admits a least interval-valued functional inducing it, namely
h -> [nu(h_lo), inf] (``least_interval_extension``).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping

from .algebra import (
    INFINITY,
    INTERVALS,
    SCALARS,
    ZERO,
    ExtNonNeg,
    IntervalValue,
    ext,
    mul_left,
    mul_right,
)
from .errors import NotMonotone, SpaceMismatch, UnboundedMeasure, ZeroMeasure
from .spaces import FinitePoset, MonotoneMap, Point, PointFn, _apply, endpoint_maps
from .valuations import ElementaryValuation, _point_key, evaluate

# An integrand: a table of values, total on the measure's space.
Table = Mapping[Point, ExtNonNeg]


class FiniteSupportMeasure:
    """A finite weighted sum of point masses on a finite poset.

    Zero masses are dropped on construction, so the stored table contains
    exactly the positive-mass points.  The measure may be unbounded (some
    mass infinite, or just a large total); upper integrals additionally
    require it to be non-zero and bounded.
    """

    __slots__ = ("space", "_masses")

    def __init__(self, space: FinitePoset, masses: Mapping[Point, object]):
        table: Dict[Point, ExtNonNeg] = {}
        for point, m in masses.items():
            space.require(point)
            m = ext(m)
            if not m.is_zero:
                table[point] = m
        self.space = space
        self._masses = table

    def mass(self, point: Point) -> ExtNonNeg:
        self.space.require(point)
        return self._masses.get(point, ZERO)

    @property
    def mass_points(self) -> frozenset:
        return frozenset(self._masses)

    def items(self):
        return self._masses.items()

    @property
    def is_zero(self) -> bool:
        return not self._masses

    def total_mass(self) -> ExtNonNeg:
        total = ZERO
        for m in self._masses.values():
            total = total + m
        return total

    @property
    def is_bounded(self) -> bool:
        return not self.total_mass().is_infinite

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteSupportMeasure):
            return NotImplemented
        return self.space == other.space and self._masses == other._masses

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self._masses.items())))

    def __repr__(self) -> str:
        body = "; ".join(
            f"{m} @ {p}"
            for p, m in sorted(self._masses.items(), key=lambda kv: _point_key(kv[0]))
        )
        return "measure { " + (body if body else "") + " }"


def _lookup(f: Table, point: Point) -> ExtNonNeg:
    return ext(f[point])


def _require_total(f: Table, space: FinitePoset) -> None:
    missing = [p for p in space.points if p not in f]
    if missing:
        raise ValueError(f"integrand not total: missing {missing!r}")


def lower_integral(f: Table, mu: FiniteSupportMeasure) -> ExtNonNeg:
    """Supremum-of-truncations integral, evaluated in closed form.

    Equals sum over mass points of mass *l f; the lower product encodes
    exactly what the truncation supremum does at the 0/inf corners.
    """
    _require_total(f, mu.space)
    total = ZERO
    for point, m in mu.items():
        total = total + mul_left(m, _lookup(f, point))
    return total


def choquet_integral(f: Table, mu: FiniteSupportMeasure) -> ExtNonNeg:
    """Layer-cake integral: sum of threshold-rectangle areas.

    The superlevel mass t -> mu(f > t) is a decreasing step function; its
    area is accumulated rectangle by rectangle over the sorted distinct
    finite values of f, with an infinite tail whenever some positive-mass
    point has f = inf.  Independent of ``lower_integral`` by construction;
    the two must agree exactly on every instance.
    """
    _require_total(f, mu.space)
    values = {}
    infinite_tail = False
    for point, m in mu.items():
        v = _lookup(f, point)
        if v.is_infinite:
            infinite_tail = True
        elif not v.is_zero:
            values.setdefault(v, None)
    total = ZERO
    prev = ZERO
    for v in sorted(values):
        level_mass = ZERO
        for point, m in mu.items():
            if v <= _lookup(f, point):
                level_mass = level_mass + m
        rect_width = ExtNonNeg(v.value - prev.value)
        total = total + mul_left(rect_width, level_mass)
        prev = v
    if infinite_tail:
        return INFINITY
    return total


def pushforward(g: PointFn, mu: FiniteSupportMeasure, target: FinitePoset) -> FiniteSupportMeasure:
    """Transport masses along a point map and merge collisions.

    Satisfies the change-of-variables identity
    lower_integral(f, pushforward(g, mu)) = lower_integral(f o g, mu).
    """
    out: Dict[Point, ExtNonNeg] = {}
    for point, m in mu.items():
        y = _apply(g, point)
        target.require(y)
        out[y] = out.get(y, ZERO) + m
    return FiniteSupportMeasure(target, out)


def _check_antitone(f: Table, space: FinitePoset) -> None:
    for a, b in space.cover_pairs():
        if not _lookup(f, b) <= _lookup(f, a):
            raise NotMonotone(
                f"integrand not antitone: {a!r} <= {b!r} but values increase"
            )


def upper_integral(fplus: Table, mu: FiniteSupportMeasure) -> ExtNonNeg:
    """Upper integral of an antitone integrand against a bounded measure.

    Equals sum over mass points of mass *r f: the lower integral when f is
    finite at every mass point, and inf otherwise (see the module notes
    for why no support needs to be built).
    """
    if mu.is_zero:
        raise ZeroMeasure("upper integrals need a non-zero measure")
    if not mu.is_bounded:
        raise UnboundedMeasure("upper integrals need a bounded measure")
    _require_total(fplus, mu.space)
    _check_antitone(fplus, mu.space)
    total = ZERO
    for point, m in mu.items():
        total = total + mul_right(m, _lookup(fplus, point))
    return total


def interval_integral(mu: FiniteSupportMeasure, h: MonotoneMap) -> IntervalValue:
    """The interval enclosing all integrals compatible with h.

    The value of h under the precise valuation sum_x [m_x, m_x] . d_x:
    its lower endpoint is the lower integral of h's lower endpoints and
    its upper endpoint the upper integral of h's upper endpoints.  h must
    be interval-valued with monotone lower and antitone upper endpoints.
    """
    if h.space != mu.space:
        raise SpaceMismatch("test function lives on a different space")
    if mu.is_zero:
        raise ZeroMeasure("interval integration needs a non-zero measure")
    if not mu.is_bounded:
        raise UnboundedMeasure("interval integration needs a bounded measure")
    endpoint_maps(h)  # raises for a scalar h or endpoints out of order
    precise = ElementaryValuation(
        mu.space,
        [(IntervalValue._make(m, m), p) for p, m in mu.items()],
        INTERVALS,
        validate=False,
    )
    return evaluate(precise, h)


def scalar_view(F, f: MonotoneMap) -> ExtNonNeg:
    """Recover the ordinary valuation hidden in an interval functional.

    F is any evaluator of a linear monotone interval-valued functional;
    f is a monotone scalar test function.  The value of the induced scalar
    valuation at f is the lower endpoint of F at [f, inf], and it does not
    depend on the choice of upper part: adding the absorbing bottom to any
    h with the same lower endpoints flattens the upper endpoint to inf
    without touching the lower one.
    """
    if f.algebra is not SCALARS:
        raise ValueError("scalar_view needs a scalar-valued test function")
    h = MonotoneMap(
        f.space,
        {p: IntervalValue._make(f(p), INFINITY) for p in f.space.points},
        INTERVALS,
        validate=False,
    )
    return F(h).lo


def least_interval_extension(nu) -> Callable[[MonotoneMap], IntervalValue]:
    """The least interval functional whose scalar view is nu.

    nu is an evaluator of an ordinary valuation (monotone scalar test
    functions to scalars).  The returned evaluator sends h to
    [nu(h_lo), inf]: the least precise interval functional compatible
    with nu, since inf upper endpoints are least in reverse inclusion.
    """

    def extended(h: MonotoneMap) -> IntervalValue:
        lower, _ = endpoint_maps(h)
        f = MonotoneMap(h.space, lower, SCALARS, validate=False)
        return IntervalValue._make(nu(f), INFINITY)

    return extended
