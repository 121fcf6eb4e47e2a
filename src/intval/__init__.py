"""Exact interval-valued valuations and guaranteed-enclosure integration.

The library computes with weighted Dirac sums whose coefficients live in
an algebra of closed intervals [a, b], 0 <= a <= b <= inf, ordered by
reverse inclusion.  Everything is exact rational arithmetic: evaluation of
valuations, their monad structure (unit, bind, image, strength, product),
lower/upper integrals against finite-support measures, and a dyadic
refinement integrator for the unit interval whose every intermediate
result is a certified enclosure.

The public names below, and the submodules that define them, load on
first use (PEP 562): ``import intval`` imports no submodule, and
``intval.bind`` or ``from intval import bind`` imports ``intval.monad``
then.  So ``import intval.cli``, and an ``integrate`` run, load only
``algebra``, ``errors``, ``lebesgue``, ``literals`` and ``cli``; an
``eval`` run adds ``spaces`` and ``valuations``, and neither loads
``monad`` or ``measures``.
"""

from importlib import import_module as _import_module

# Each submodule and the public names it defines.
_EXPORTS = {
    "algebra": (
        "BOTTOM", "INFINITY", "INTERVALS", "IONE", "IZERO", "ONE", "SCALARS", "ZERO",
        "ExtNonNeg", "IntervalValue", "ValueAlgebra", "ext", "ival", "ival_add",
        "ival_leq", "ival_mul", "mul_left", "mul_right", "parse_interval",
        "parse_scalar", "rational", "render_interval", "render_scalar", "width",
    ),
    "errors": (
        "DepthCapExceeded", "IntvalError", "LiteralTooLarge", "NonEvaluablePiece",
        "NotMonotone", "OutOfRange", "ParseError", "PointNotInSpace", "SpaceMismatch",
        "UnboundedMeasure", "ZeroMeasure",
    ),
    "spaces": (
        "FinitePoset", "MonotoneMap", "all_monotone_maps", "all_monotone_point_maps",
        "antichain", "chain", "endpoint_maps", "enumerate_posets", "product_poset",
        "singleton",
    ),
    "valuations": (
        "ElementaryValuation", "add", "bottom_valuation", "dirac", "eq_on", "evaluate",
        "scale", "valuation_leq",
    ),
    "monad": (
        "Kernel", "bind", "dual_strength", "kleisli_compose", "map_valuation",
        "product", "strength", "unit",
    ),
    "measures": (
        "FiniteSupportMeasure", "choquet_integral", "interval_integral",
        "least_interval_extension", "lower_integral", "pushforward", "scalar_view",
        "upper_integral",
    ),
    "lebesgue": (
        "DEFAULT_DEPTH_CAP", "DyadicInterval", "IntervalTestFn", "PiecewiseMonotoneFn",
        "Polynomial", "canonical_extension", "chain_check", "dyadic_grid", "is_dyadic",
        "lebesgue_integrate", "lebesgue_n", "refine",
    ),
    "literals": (
        "parse_fn", "parse_measure", "parse_piecewise", "parse_poset", "parse_valuation",
    ),
}

# Each lazy name and its home submodule; a submodule is its own home.
_HOME = {module: module for module in _EXPORTS}
_HOME.update((name, module) for module, names in _EXPORTS.items() for name in names)

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home submodule of a public name on its first use and keep
    the name in the package, so later lookups do not come back here."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
