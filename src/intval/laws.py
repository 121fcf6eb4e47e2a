"""Algebraic law suites: exhaustive small-scale and seeded randomized checks.

Every identity in this library is exact, so a law check is an equality (or
order) test on rationals, never a tolerance comparison.  Each family below
returns a LawResult; the CLI renders them as a table and the acceptance
tests assert on them.

Exhaustive scope.  Checks marked exhaustive quantify over every poset with
at most three points up to order isomorphism (eight posets: the one- and
two-point posets and the five three-point ones) and over the coefficient
grid COEFF_GRID.  Valuations are enumerated completely over that grid (one
grid coefficient per chosen point, every nonempty point subset).  Kernels
cannot be enumerated completely - the number of multi-term monotone
kernels explodes combinatorially - so the exhaustive kernel family is, by
definition here: every kernel of the form x -> c . delta_{g(x)} with g a
monotone point map and c a grid coefficient, plus every constant kernel
at a single-term valuation.  The unit-extension and composition laws are
checked over all ordered pairs/triples of the eight posets with that
family (composition restricts the coefficient choice to the unit and the
absorbing bottom to stay within its time budget, and runs the full grid on
the diagonal triples); a seeded randomized pass over posets with up to six
points and multi-term kernels covers what the enumeration cannot.

Monad-law oracle.  Every monad-law case compares normal forms
structurally, which is sound but incomplete (see valuations).  On all of
law (i), all of law (ii) and the diagonal core triples of law (iii)
(19,739 cases) the suite also checks bind against its defining
functional description: for every k in the target's exhaustive test
family, evaluate(bind(f, nu), k) must equal functional_bind(f, nu, k),
the sum of r_i * f(x_i)(k) computed without bind.  For law (iii) that is
the law in functional form, bind(g o f, nu)(k) == bind(f, nu)(y -> g(y)(k)).
Re-evaluating a structurally equal result instead could never fail,
since evaluate depends only on the terms.  The oracle's cases use
single-term kernels with Dirac or unit-kernel arguments, so no two terms
ever merge at one target point there; merged terms are exercised by the
randomized pass, which compares normal forms.

Randomized scope.  Generators below produce posets, monotone/antitone
tables, valuations, kernels and measures from fixed seeds; all randomness
flows through one random.Random instance per family, so a (seed, cases)
pair reproduces a run bit for bit.  On failure, a small greedy minimizer
shrinks the counterexample (dropping terms, simplifying coefficients)
before it is reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product as iproduct
from typing import Callable, Dict, List, Optional, Tuple

from .algebra import (
    INFINITY,
    INTERVALS,
    IONE,
    IZERO,
    ExtNonNeg,
    IntervalValue,
    ival,
    ival_leq,
    rational,
)
from .lebesgue import (
    PiecewiseMonotoneFn,
    Polynomial,
    ascends,
    canonical_extension,
    refine,
)
from .monad import Kernel, bind, dual_strength, kleisli_compose, map_valuation, product, strength, unit
from .spaces import (
    FinitePoset,
    MonotoneMap,
    all_monotone_point_maps,
    enumerate_posets,
    product_poset,
)
from .valuations import (
    ElementaryValuation,
    dirac,
    evaluate,
    exhaustive_tests,
)

# Coefficient grid for the exhaustive monad suite: both units, a precise
# non-unit, a wide interval, and the absorbing bottom.
COEFF_GRID: Tuple[IntervalValue, ...] = (
    ival(0, 0),
    ival(1, 1),
    ival("1/2", "1/2"),
    ival(1, 2),
    ival(0, "inf"),
)

# Grid for the interval-algebra axiom suite; includes the precise infinity.
AXIOM_GRID: Tuple[IntervalValue, ...] = (
    ival(0, 0),
    ival(1, 1),
    ival("1/2", 2),
    ival(0, "inf"),
    ival("inf", "inf"),
    ival(3, 3),
)


@dataclass
class LawResult:
    family: str
    cases: int
    failures: int
    counterexample: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


# ---------------------------------------------------------------------------
# Seeded random generators.  These are also the building blocks of the
# randomized acceptance checks, so they are public.
# ---------------------------------------------------------------------------

_FINITE_POOL = tuple(
    rational(n, d) for n, d in [(0, 1), (1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (5, 2), (7, 1)]
)


def random_scalar(rng: random.Random, allow_inf: bool = True) -> ExtNonNeg:
    if allow_inf and rng.random() < 0.15:
        return INFINITY
    return ExtNonNeg(rng.choice(_FINITE_POOL))


def random_interval(rng: random.Random, allow_inf: bool = True) -> IntervalValue:
    a = random_scalar(rng, allow_inf)
    b = random_scalar(rng, allow_inf)
    return IntervalValue(a, b) if a <= b else IntervalValue(b, a)


def random_poset(rng: random.Random, max_points: int) -> FinitePoset:
    n = rng.randint(1, max_points)
    labels = [f"p{i}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)
    relation = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                relation.append((order[i], order[j]))
    return FinitePoset(labels, relation)


def _levels(rng: random.Random, space: FinitePoset, max_level: int) -> Dict:
    """A monotone assignment of chain levels to poset points."""
    levels: Dict = {}
    pts = sorted(
        space.points, key=lambda p: sum(1 for q in space.points if space.leq(q, p))
    )
    for p in pts:
        base = max(
            (levels[q] for q in levels if space.leq(q, p)),
            default=0,
        )
        levels[p] = min(max_level, base + rng.choice((0, 0, 1, 1, 2)))
    return levels


def _interval_chain(rng: random.Random, length: int) -> List[IntervalValue]:
    """An ascending (nested) chain of interval values."""
    mid = rng.choice(_FINITE_POOL)
    radius = rational(2)
    chain = []
    hi_inf = rng.random() < 0.3
    for k in range(length):
        lo = max(rational(0), mid - radius)
        if hi_inf and k < length - 1:
            chain.append(IntervalValue(ExtNonNeg(lo), INFINITY))
        else:
            hi_inf = False
            chain.append(ival(lo, mid + radius))
        radius = radius / 2 if rng.random() < 0.8 else radius
    return chain


def _scalar_chain(rng: random.Random, length: int) -> List[ExtNonNeg]:
    """A nondecreasing chain of scalars, possibly ending at infinity."""
    acc = ExtNonNeg(rng.choice(_FINITE_POOL))
    chain = [acc]
    for _ in range(length - 1):
        if not acc.is_infinite and rng.random() < 0.1:
            acc = INFINITY
        elif not acc.is_infinite:
            acc = acc + ExtNonNeg(rng.choice(_FINITE_POOL))
        chain.append(acc)
    return chain


def random_monotone_map(
    rng: random.Random, space: FinitePoset, algebra=INTERVALS
) -> MonotoneMap:
    """A random monotone test function (factored through a value chain)."""
    depth = 3
    levels = _levels(rng, space, depth)
    chain = (
        _interval_chain(rng, depth + 1)
        if algebra is INTERVALS
        else _scalar_chain(rng, depth + 1)
    )
    return MonotoneMap(
        space, {p: chain[levels[p]] for p in space.points}, algebra, validate=False
    )


def random_refining_pair(
    rng: random.Random, space: FinitePoset
) -> Tuple[MonotoneMap, MonotoneMap]:
    """Two monotone interval maps (coarse, fine) with coarse <= fine pointwise.

    The coarse map scales lower endpoints down by a constant factor and
    widens upper endpoints by an antitone bump, which preserves
    monotonicity on both sides.
    """
    fine = random_monotone_map(rng, space)
    t = rng.choice((rational(0), rational(1, 2), rational(1)))
    bump = random_antitone_table(rng, space)
    table = {}
    for p in space.points:
        v = fine(p)
        lo = ExtNonNeg(v.lo.value * t)
        table[p] = IntervalValue(lo, v.hi + bump[p])
    return MonotoneMap(space, table, INTERVALS), fine


def random_monotone_table(
    rng: random.Random, space: FinitePoset, allow_inf: bool = True
) -> Dict:
    """A random monotone scalar table (dict form)."""
    depth = 3
    levels = _levels(rng, space, depth)
    chain = _scalar_chain(rng, depth + 1)
    if not allow_inf:
        chain = [c if not c.is_infinite else ExtNonNeg(rational(100)) for c in chain]
    return {p: chain[levels[p]] for p in space.points}


def random_antitone_table(
    rng: random.Random, space: FinitePoset, allow_inf: bool = True
) -> Dict:
    """A random antitone scalar table: higher points get smaller values."""
    depth = 3
    levels = _levels(rng, space, depth)
    chain = _scalar_chain(rng, depth + 1)
    if not allow_inf:
        chain = [c if not c.is_infinite else ExtNonNeg(rational(100)) for c in chain]
    return {p: chain[depth - levels[p]] for p in space.points}


def random_table(rng: random.Random, space: FinitePoset, allow_inf: bool = True) -> Dict:
    """An arbitrary (merely measurable) scalar table."""
    return {p: random_scalar(rng, allow_inf) for p in space.points}


_COEFF_POOL = COEFF_GRID + (ival(2, 3), ival("1/3", "1/2"), ival(0, 1))


def random_valuation(
    rng: random.Random,
    space: FinitePoset,
    max_terms: int = 3,
    algebra=INTERVALS,
) -> ElementaryValuation:
    k = rng.randint(1, max_terms)
    terms = []
    for _ in range(k):
        point = rng.choice(space.points)
        if algebra is INTERVALS:
            coeff = rng.choice(_COEFF_POOL)
        else:
            coeff = random_scalar(rng)
        terms.append((coeff, point))
    return ElementaryValuation(space, terms, algebra, validate=False)


def _refine_interval(rng: random.Random, v: IntervalValue) -> IntervalValue:
    """A value above v in the refinement order."""
    if rng.random() < 0.4:
        return v
    lo, hi = v.lo, v.hi
    if hi.is_infinite:
        new_hi = INFINITY if rng.random() < 0.5 else lo + ExtNonNeg(rng.choice(_FINITE_POOL))
    else:
        new_hi = hi
    if not new_hi.is_infinite and not lo.is_infinite:
        gap = new_hi.value - lo.value
        new_lo = ExtNonNeg(lo.value + gap * rng.choice((0, 0, 1)) / 4)
    else:
        new_lo = lo
    return IntervalValue(new_lo, new_hi)


def _raise_point(rng: random.Random, space: FinitePoset, p):
    ups = [q for q in space.points if space.leq(p, q)]
    return rng.choice(ups)


def random_monotone_kernel(
    rng: random.Random, source: FinitePoset, target: FinitePoset, max_terms: int = 2
) -> Kernel:
    """A random monotone kernel, built as a chain of refining valuations."""
    depth = 2
    base = random_valuation(rng, target, max_terms)
    chain = [base]
    for _ in range(depth):
        prev = chain[-1]
        terms = [
            (_refine_interval(rng, c), _raise_point(rng, target, p))
            for c, p in prev.terms
        ]
        chain.append(ElementaryValuation(target, terms, prev.algebra, validate=False))
    levels = _levels(rng, source, depth)
    table = {x: chain[levels[x]] for x in source.points}
    return Kernel(source, target, table, declared_monotone=True, validate=False)


def random_measure(
    rng: random.Random,
    space: FinitePoset,
    *,
    bounded: bool = False,
    nonzero: bool = False,
    max_points: int = 3,
) -> "FiniteSupportMeasure":
    from .measures import FiniteSupportMeasure

    points = [p for p in space.points if rng.random() < 0.7]
    masses = {}
    for p in points[:max_points]:
        if not bounded and rng.random() < 0.15:
            masses[p] = INFINITY
        else:
            masses[p] = ExtNonNeg(rng.choice(_FINITE_POOL))
    if nonzero and all(m.is_zero for m in masses.values()):
        masses[rng.choice(space.points)] = ExtNonNeg(1)
    return FiniteSupportMeasure(space, masses)


def random_monotone_point_map(
    rng: random.Random, source: FinitePoset, target: FinitePoset
) -> Dict:
    """A random monotone point function between posets."""
    depth = len(target) - 1
    levels = _levels(rng, source, depth)
    chain_pts = [rng.choice(target.points)]
    for _ in range(depth):
        chain_pts.append(_raise_point(rng, target, chain_pts[-1]))
    return {p: chain_pts[levels[p]] for p in source.points}


# ---------------------------------------------------------------------------
# Family 1: interval-algebra axioms.
# ---------------------------------------------------------------------------


def _axiom_violations(x: IntervalValue, y: IntervalValue, z: IntervalValue) -> List[str]:
    bad = []
    if (x + y) + z != x + (y + z):
        bad.append("+ associativity")
    if x + y != y + x:
        bad.append("+ commutativity")
    if x + IZERO != x:
        bad.append("+ unit")
    if (x * y) * z != x * (y * z):
        bad.append("* associativity")
    if x * y != y * x:
        bad.append("* commutativity")
    if x * IONE != x:
        bad.append("* unit")
    if x * (y + z) != x * y + x * z:
        bad.append("distributivity")
    if ival_leq(x, y):
        if not ival_leq(x + z, y + z):
            bad.append("+ monotonicity")
        if not ival_leq(x * z, y * z):
            bad.append("* monotonicity")
    return bad


def interval_axioms(seed: int = 0, cases: int = 10_000) -> LawResult:
    """Units, associativity, commutativity, distributivity, monotonicity.

    Runs the full cross product of AXIOM_GRID plus `cases` random triples.
    """
    rng = random.Random(seed)
    total = 0
    for x, y, z in iproduct(AXIOM_GRID, repeat=3):
        total += 1
        bad = _axiom_violations(x, y, z)
        if bad:
            return LawResult(
                "interval-axioms", total, 1, f"{bad[0]} at x={x}, y={y}, z={z}"
            )
    for _ in range(cases):
        total += 1
        x, y, z = (random_interval(rng) for _ in range(3))
        bad = _axiom_violations(x, y, z)
        if bad:
            x, y, z = _shrink_triple(x, y, z)
            bad = _axiom_violations(x, y, z)
            return LawResult(
                "interval-axioms", total, 1, f"{bad[0]} at x={x}, y={y}, z={z}"
            )
    return LawResult("interval-axioms", total, 0)


def _shrink_triple(x, y, z):
    """Greedy shrink: replace components with simpler grid values while failing."""
    triple = [x, y, z]
    for i in range(3):
        for candidate in AXIOM_GRID:
            trial = list(triple)
            trial[i] = candidate
            if _axiom_violations(*trial):
                triple = trial
                break
    return tuple(triple)


# ---------------------------------------------------------------------------
# Family 2: monad laws.
# ---------------------------------------------------------------------------

_tests_cache: Dict[FinitePoset, List[MonotoneMap]] = {}
_point_maps_cache: Dict[Tuple[FinitePoset, FinitePoset], List[dict]] = {}


def _tests_for(space: FinitePoset) -> List[MonotoneMap]:
    if space not in _tests_cache:
        _tests_cache[space] = exhaustive_tests(space)
    return _tests_cache[space]


def _point_maps(source: FinitePoset, target: FinitePoset) -> List[dict]:
    key = (source, target)
    if key not in _point_maps_cache:
        _point_maps_cache[key] = all_monotone_point_maps(source, target)
    return _point_maps_cache[key]


def _unit_kernel(space: FinitePoset) -> Kernel:
    table = {x: dirac(space, x) for x in space.points}
    return Kernel(space, space, table, declared_monotone=True, validate=False)


def all_grid_valuations(space: FinitePoset, grid=COEFF_GRID) -> List[ElementaryValuation]:
    """Every normal-form valuation with one grid coefficient per chosen point."""
    out = []
    pts = space.points
    for r in range(1, len(pts) + 1):
        for subset in combinations(pts, r):
            for coeffs in iproduct(grid, repeat=r):
                out.append(
                    ElementaryValuation(
                        space, list(zip(coeffs, subset)), validate=False
                    )
                )
    return out


def _dirac_kernels(source: FinitePoset, target: FinitePoset, coeffs) -> List[Kernel]:
    kernels = []
    for g in _point_maps(source, target):
        for c in coeffs:
            table = {
                x: ElementaryValuation(target, [(c, g[x])], validate=False)
                for x in source.points
            }
            kernels.append(
                Kernel(source, target, table, declared_monotone=True, validate=False)
            )
    return kernels


def _const_kernels(source: FinitePoset, target: FinitePoset, coeffs) -> List[Kernel]:
    kernels = []
    for y in target.points:
        for c in coeffs:
            nu = ElementaryValuation(target, [(c, y)], validate=False)
            table = {x: nu for x in source.points}
            kernels.append(
                Kernel(source, target, table, declared_monotone=True, validate=False)
            )
    return kernels


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


def _bind_oracle_fails(
    got: ElementaryValuation, f: Kernel, nu: ElementaryValuation
) -> bool:
    """True iff got differs from functional_bind(f, nu, k) on some exhaustive k."""
    return any(
        evaluate(got, k) != functional_bind(f, nu, k) for k in _tests_for(f.target)
    )


def _law_i_fails(f: Kernel, x, dirac_x: ElementaryValuation) -> bool:
    got = bind(f, dirac_x)
    return got != f(x) or _bind_oracle_fails(got, f, dirac_x)


def _law_ii_fails(eta: Kernel, nu: ElementaryValuation) -> bool:
    got = bind(eta, nu)
    return got != nu or _bind_oracle_fails(got, eta, nu)


def _law_iii_fails(
    gf: Kernel,
    g: Kernel,
    nu: ElementaryValuation,
    mid: ElementaryValuation,
    functional: bool,
) -> bool:
    """Law (iii) at nu, given gf = kleisli_compose(g, f) and mid = bind(f, nu).

    With `functional`, also checks the law in functional form,
    bind(gf, nu)(k) == mid(y -> g(y)(k)), on every exhaustive k.
    """
    lhs = bind(gf, nu)
    if lhs != bind(g, mid):
        return True
    return functional and _bind_oracle_fails(lhs, g, mid)


def monad_laws(seed: int = 0, cases: int = 500) -> LawResult:
    """Unit/extension/composition laws, exhaustive small scale + randomized.

    See the module docstring for the precise exhaustive scope.
    """
    total = 0
    posets = enumerate_posets(3)

    # Law (ii), exhaustive: every grid valuation on every poset.
    for X in posets:
        eta = _unit_kernel(X)
        for nu in all_grid_valuations(X):
            total += 1
            if _law_ii_fails(eta, nu):
                return LawResult("monad-laws", total, 1, f"unit extension fails on {nu!r}")

    # Law (i), exhaustive: scaled-dirac and constant kernels over all pairs.
    for X in posets:
        units = [(x, unit(X, x)) for x in X.points]
        for Y in posets:
            kernels = _dirac_kernels(X, Y, COEFF_GRID) + _const_kernels(X, Y, COEFF_GRID)
            for f in kernels:
                for x, dirac_x in units:
                    total += 1
                    if _law_i_fails(f, x, dirac_x):
                        return LawResult(
                            "monad-laws",
                            total,
                            1,
                            f"unit law fails at x={x!r} for kernel {f!r}",
                        )

    # Law (iii), exhaustive core: unit/bottom coefficients over all triples,
    # Dirac arguments; structural equality, plus the functional oracle on
    # the diagonal triples.  The composite is built once per (f, g) and
    # bind(f, nu) once per (f, nu).
    core = (IONE, ival(0, "inf"))
    for X in posets:
        nus = [dirac(X, x) for x in X.points]
        for Y in posets:
            fs = _dirac_kernels(X, Y, (IONE,)) + _const_kernels(X, Y, core)
            for Z in posets:
                gs = _dirac_kernels(Y, Z, core)
                functional = X is Y and Y is Z
                for f in fs:
                    mids = [bind(f, nu) for nu in nus]
                    for g in gs:
                        gf = kleisli_compose(g, f)
                        for nu, mid in zip(nus, mids):
                            total += 1
                            if _law_iii_fails(gf, g, nu, mid, functional):
                                return LawResult(
                                    "monad-laws",
                                    total,
                                    1,
                                    f"composition law fails for nu={nu!r}, "
                                    f"f={f!r}, g={g!r}",
                                )

    # Law (iii), diagonal enrichment: full grid coefficients, richer arguments.
    for X in posets:
        fs = _dirac_kernels(X, X, COEFF_GRID)
        nus = [dirac(X, x) for x in X.points] + [
            ElementaryValuation(X, [(ival(0, "inf"), X.points[0])], validate=False)
        ]
        for f in fs:
            mids = [bind(f, nu) for nu in nus]
            for g in fs:
                gf = kleisli_compose(g, f)
                for nu, mid in zip(nus, mids):
                    total += 1
                    if _law_iii_fails(gf, g, nu, mid, functional=False):
                        return LawResult(
                            "monad-laws",
                            total,
                            1,
                            f"composition law fails for nu={nu!r}, f={f!r}, g={g!r}",
                        )

    # Randomized pass: multi-term kernels and valuations on posets <= 6.
    rng = random.Random(seed)
    for _ in range(cases):
        X = random_poset(rng, 6)
        Y = random_poset(rng, 6)
        Z = random_poset(rng, 6)
        f = random_monotone_kernel(rng, X, Y)
        g = random_monotone_kernel(rng, Y, Z)
        nu = random_valuation(rng, X)
        x = rng.choice(X.points)
        total += 3
        if bind(f, unit(X, x)) != f(x):
            return LawResult("monad-laws", total, 1, f"unit law fails at x={x!r} for kernel {f!r}")
        if bind(_unit_kernel(X), nu) != nu:
            return LawResult(
                "monad-laws", total, 1, f"unit extension fails on {_shrink_valuation(nu, lambda v: bind(_unit_kernel(X), v) != v)!r}"
            )
        if bind(kleisli_compose(g, f), nu) != bind(g, bind(f, nu)):
            nu_min = _shrink_valuation(
                nu, lambda v: bind(kleisli_compose(g, f), v) != bind(g, bind(f, v))
            )
            return LawResult(
                "monad-laws",
                total,
                1,
                f"composition law fails for nu={nu_min!r}, f={f!r}, g={g!r}",
            )
    return LawResult("monad-laws", total, 0)


def _shrink_valuation(
    nu: ElementaryValuation, fails: Callable[[ElementaryValuation], bool]
) -> ElementaryValuation:
    """Drop terms and simplify coefficients while the failure persists.

    Takes the first failing candidate (term drops first, then coefficients
    set to IONE or IZERO) and starts over, until no candidate fails.
    """
    simple = (IONE, IZERO)

    def candidates(terms):
        if len(terms) > 1:
            for i in range(len(terms)):
                yield terms[:i] + terms[i + 1 :]
        for i, (c, p) in enumerate(terms):
            if c not in simple:
                for simpler in simple:
                    yield terms[:i] + [(simpler, p)] + terms[i + 1 :]

    current = nu
    while True:
        for trial_terms in candidates(list(current.terms)):
            trial = ElementaryValuation(current.space, trial_terms, current.algebra, validate=False)
            if fails(trial):
                current = trial
                break
        else:
            return current


# ---------------------------------------------------------------------------
# Family 3: strength identities.
# ---------------------------------------------------------------------------


def _section_right(k: MonotoneMap, prod: FinitePoset, space_y: FinitePoset, x) -> MonotoneMap:
    return MonotoneMap(
        space_y, {y: k((x, y)) for y in space_y.points}, k.algebra, validate=False
    )


def _section_left(k: MonotoneMap, prod: FinitePoset, space_x: FinitePoset, y) -> MonotoneMap:
    return MonotoneMap(
        space_x, {x: k((x, y)) for x in space_x.points}, k.algebra, validate=False
    )


def strength_identities(seed: int = 0, cases: int = 300) -> LawResult:
    """Defining identities of both strengths plus a naturality spot check."""
    rng = random.Random(seed)
    total = 0
    for _ in range(cases):
        X = random_poset(rng, 3)
        Y = random_poset(rng, 3)
        x = rng.choice(X.points)
        y = rng.choice(Y.points)
        nu = random_valuation(rng, Y)
        mu = random_valuation(rng, X)
        prod = product_poset(X, Y)
        h = random_monotone_map(rng, prod)
        total += 1
        left = evaluate(strength(X, x, nu), h)
        right = evaluate(nu, _section_right(h, prod, Y, x))
        if left != right:
            return LawResult(
                "strength",
                total,
                1,
                f"strength identity fails at x={x!r}, nu={_shrink_valuation(nu, lambda v: evaluate(strength(X, x, v), h) != evaluate(v, _section_right(h, prod, Y, x)))!r}",
            )
        left = evaluate(dual_strength(mu, Y, y), h)
        right = evaluate(mu, _section_left(h, prod, X, y))
        if left != right:
            return LawResult(
                "strength", total, 1, f"dual strength identity fails at y={y!r}, mu={mu!r}"
            )
        # naturality in the left component: push x through a monotone map
        X2 = random_poset(rng, 3)
        g = random_monotone_point_map(rng, X, X2)
        prod2 = product_poset(X2, Y)
        pushed = map_valuation(
            lambda pq: (g[pq[0]], pq[1]), strength(X, x, nu), prod2, validate=False
        )
        direct = strength(X2, g[x], nu)
        if pushed != direct:
            return LawResult(
                "strength", total, 1, f"strength naturality fails at x={x!r}, g={g!r}"
            )
    return LawResult("strength", total, 0)


# ---------------------------------------------------------------------------
# Family 4: product / iterated-evaluation exchange.
# ---------------------------------------------------------------------------


def iterated_x_first(mu, nu, k: MonotoneMap, prod, X, Y) -> IntervalValue:
    inner = MonotoneMap(
        X,
        {x: evaluate(nu, _section_right(k, prod, Y, x)) for x in X.points},
        k.algebra,
        validate=False,
    )
    return evaluate(mu, inner)


def iterated_y_first(mu, nu, k: MonotoneMap, prod, X, Y) -> IntervalValue:
    inner = MonotoneMap(
        Y,
        {y: evaluate(mu, _section_left(k, prod, X, y)) for y in Y.points},
        k.algebra,
        validate=False,
    )
    return evaluate(nu, inner)


def fubini_exchange(seed: int = 0, cases: int = 500) -> LawResult:
    """Product valuation versus both iterated evaluation orders, exactly."""
    rng = random.Random(seed)
    total = 0
    for _ in range(cases):
        X = random_poset(rng, 4)
        Y = random_poset(rng, 4)
        mu = random_valuation(rng, X)
        nu = random_valuation(rng, Y)
        prod = product_poset(X, Y)
        k = random_monotone_map(rng, prod)
        total += 1
        direct = evaluate(product(mu, nu), k)
        xfirst = iterated_x_first(mu, nu, k, prod, X, Y)
        yfirst = iterated_y_first(mu, nu, k, prod, X, Y)
        if not (direct == xfirst == yfirst):
            mu_min = _shrink_valuation(
                mu,
                lambda v: not (
                    evaluate(product(v, nu), k)
                    == iterated_x_first(v, nu, k, prod, X, Y)
                    == iterated_y_first(v, nu, k, prod, X, Y)
                ),
            )
            return LawResult(
                "fubini",
                total,
                1,
                f"iterated orders disagree: mu={mu_min!r}, nu={nu!r}, k={k!r}",
            )
    return LawResult("fubini", total, 0)


# ---------------------------------------------------------------------------
# Family 5: Choquet oracle for the lower integral.
# ---------------------------------------------------------------------------


def choquet_oracle(seed: int = 0, cases: int = 2000) -> LawResult:
    """lower_integral against the layer-cake formula, with 0/inf corners."""
    from .measures import choquet_integral, lower_integral

    rng = random.Random(seed)
    total = 0
    for _ in range(cases):
        space = random_poset(rng, 5)
        mu = random_measure(rng, space, max_points=5)
        f = random_table(rng, space)
        total += 1
        direct = lower_integral(f, mu)
        layered = choquet_integral(f, mu)
        if direct != layered:
            return LawResult(
                "choquet",
                total,
                1,
                f"lower integral {direct} != layer-cake {layered} for mu={mu!r}, "
                f"f={ {p: str(v) for p, v in f.items()} }",
            )
    return LawResult("choquet", total, 0)


# ---------------------------------------------------------------------------
# Family 6: dyadic refinement chain on the fixture set.
# ---------------------------------------------------------------------------


def fixture_functions() -> Dict[str, PiecewiseMonotoneFn]:
    """The standing fixture set: identity, square, constant half, tent."""
    x = Polynomial.identity()
    two_x = Polynomial([0, 2])
    two_minus_2x = Polynomial([2, -2])
    return {
        "id": PiecewiseMonotoneFn([0, 1], [("inc", x)]),
        "square": PiecewiseMonotoneFn([0, 1], [("inc", Polynomial([0, 0, 1]))]),
        "half": PiecewiseMonotoneFn([0, 1], [("inc", Polynomial.constant(rational(1, 2)))]),
        "tent": PiecewiseMonotoneFn(
            [0, rational(1, 2), rational(3, 4), 1],
            [("inc", two_x), ("dec", two_minus_2x), ("dec", two_minus_2x)],
        ),
    }


# Exact unit-interval integrals of the fixtures, for squeeze checks.
FIXTURE_INTEGRALS = {
    "id": rational(1, 2),
    "square": rational(1, 3),
    "half": rational(1, 2),
    "tent": rational(1, 2),
}


def _identity_level(n: int) -> IntervalValue:
    """Closed form of the depth-n enclosure for the identity fixture."""
    p = 2 ** n
    return ival(rational(p - 1, 2 * p), rational(p + 1, 2 * p))


def _square_level(n: int) -> IntervalValue:
    """Closed form of the depth-n enclosure for the square fixture."""
    p = 2 ** n
    return ival(
        rational((p - 1) * (2 * p - 1), 6 * p * p),
        rational((p + 1) * (2 * p + 1), 6 * p * p),
    )


def lebesgue_chain(seed: int = 0, cases: int = 12) -> LawResult:
    """Levels ascend on every fixture; closed forms match where known.

    `cases` is the maximum depth checked, capped at 12.  Each fixture's
    levels are computed once and both checks read that one list.
    """
    n_max = max(1, min(12, cases))
    total = 0
    for name, fn in fixture_functions().items():
        levels = [level for _, level in refine(canonical_extension(fn), None, cap=n_max)]
        total += 1
        if not ascends(levels):
            return LawResult(
                "lebesgue-chain", total, 1, f"levels fail to ascend for fixture {name}"
            )
        closed = {"id": _identity_level, "square": _square_level}.get(name)
        if closed is not None:
            for n, got in enumerate(levels):
                total += 1
                if got != closed(n):
                    return LawResult(
                        "lebesgue-chain",
                        total,
                        1,
                        f"fixture {name} at depth {n}: {got} != {closed(n)}",
                    )
    return LawResult("lebesgue-chain", total, 0)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

FAMILIES: Dict[str, Callable[[int, int], LawResult]] = {
    "interval-axioms": interval_axioms,
    "monad-laws": monad_laws,
    "strength": strength_identities,
    "fubini": fubini_exchange,
    "choquet": choquet_oracle,
    "lebesgue-chain": lebesgue_chain,
}

_DEFAULT_CASES = {
    "interval-axioms": 10_000,
    "monad-laws": 500,
    "strength": 300,
    "fubini": 500,
    "choquet": 2000,
    "lebesgue-chain": 12,
}


def run_all(seed: int = 0, cases: Optional[int] = None) -> List[LawResult]:
    """Run every family; `cases` overrides each family's default count."""
    results = []
    for name, fn in FAMILIES.items():
        n = cases if cases is not None else _DEFAULT_CASES[name]
        results.append(fn(seed, n))
    return results
