"""Exact interval-valued valuations and guaranteed-enclosure integration.

The library computes with weighted Dirac sums whose coefficients live in
an algebra of closed intervals [a, b], 0 <= a <= b <= inf, ordered by
reverse inclusion.  Everything is exact rational arithmetic: evaluation of
valuations, their monad structure (unit, bind, image, strength, product),
lower/upper integrals against finite-support measures, and a dyadic
refinement integrator for the unit interval whose every intermediate
result is a certified enclosure.
"""

from .algebra import (
    BOTTOM,
    INFINITY,
    INTERVALS,
    IONE,
    IZERO,
    ONE,
    SCALARS,
    ZERO,
    ExtNonNeg,
    IntervalValue,
    ValueAlgebra,
    ext,
    ival,
    ival_add,
    ival_leq,
    ival_mul,
    mul_left,
    mul_right,
    parse_interval,
    parse_scalar,
    rational,
    render_interval,
    render_scalar,
    width,
)
from .errors import (
    DepthCapExceeded,
    IntvalError,
    LiteralTooLarge,
    NonEvaluablePiece,
    NotMonotone,
    OutOfRange,
    ParseError,
    PointNotInSpace,
    SpaceMismatch,
    UnboundedMeasure,
    ZeroMeasure,
)
from .spaces import (
    FinitePoset,
    MonotoneMap,
    all_monotone_maps,
    all_monotone_point_maps,
    antichain,
    chain,
    endpoint_maps,
    enumerate_posets,
    product_poset,
    singleton,
)
from .valuations import (
    ElementaryValuation,
    add,
    bottom_valuation,
    dirac,
    eq_on,
    evaluate,
    scale,
    valuation_leq,
)
from .monad import (
    Kernel,
    bind,
    dual_strength,
    kleisli_compose,
    map_valuation,
    product,
    strength,
    unit,
)
from .measures import (
    FiniteSupportMeasure,
    choquet_integral,
    interval_integral,
    least_interval_extension,
    lower_integral,
    pushforward,
    scalar_view,
    upper_integral,
)
from .lebesgue import (
    DEFAULT_DEPTH_CAP,
    DyadicInterval,
    IntervalTestFn,
    PiecewiseMonotoneFn,
    Polynomial,
    canonical_extension,
    chain_check,
    dyadic_grid,
    is_dyadic,
    lebesgue_integrate,
    lebesgue_n,
    refine,
)
from .literals import (
    parse_fn,
    parse_measure,
    parse_piecewise,
    parse_poset,
    parse_valuation,
)

__version__ = "0.1.0"
