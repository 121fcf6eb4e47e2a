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
at a single-term valuation (the same form, along a constant point map).
The unit-extension and composition laws are checked over all ordered
pairs/triples of the eight posets with that family (composition restricts
the coefficient choice to the unit and the absorbing bottom to stay within
its time budget, and runs the full grid on the diagonal triples); a seeded
randomized pass over posets with up to six points and multi-term kernels
covers what the enumeration cannot.

Monad-law comparisons.  Every monad-law case compares normal forms
structurally: bind(f, delta_x) with f(x) in law (i), bind(eta, nu) with
nu in law (ii), and bind(g o f, nu) with bind(g, bind(f, nu)) in law
(iii).  That is sound but incomplete (see valuations).  bind returns f(x)
itself for the unit Dirac, so law (i) checks that bind picks the image
at x and takes that shortcut only for the algebra's unit.  No functional
re-check against bind's functional description nu(x -> f(x)(k)) follows
a structural match, because on the exhaustive cases it could not fail:
the expected values would be [1,1] times f(x)'s own in law (i), the same
products and sums in the same term order as evaluate in law (ii), and,
since the law (iii) core's kernels are single-term, (c.d).k(z) =
c.(d.k(z)) with c, d in {[1,1], [0,inf]}, which interval-axioms checks.  None of those cases merges two
terms at one target point, which is where bind can part from its
functional description; the randomized pass's multi-term kernels do
(a bind that keeps the first coefficient at a merged point fails its
composition law), and the tests check bind against that description
(tests/oracle_valuations.py) on two-Dirac kernels whose terms merge.

Randomized scope.  Generators below produce posets, monotone/antitone
tables, valuations, kernels and measures from fixed seeds; all randomness
flows through one random.Random instance per family, so a (seed, cases)
pair reproduces a run bit for bit.

Runner.  Each family is a stream of cases, and each case is None when it
holds or its counterexample text when it fails; a draw that bundles
several identities (strength's three) is one case and reports the first
that fails.  `_run` counts the cases, stops at the first text and is the
only place that builds a LawResult.  Randomized counterexamples are
shrunk before they are reported, by a greedy minimizer that is handed the
case's own predicate: interval-axioms replaces the components of a random
triple by grid values, and monad-laws (unit extension and composition on
the randomized pass), strength (the strength identity) and fubini drop
terms of a valuation and simplify its coefficients.  Exhaustive cases,
the dual strength and naturality identities, choquet and lebesgue-chain
report their case unshrunk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product as iproduct
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

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
from . import measures
from .monad import Kernel, bind, dual_strength, kleisli_compose, map_valuation, product, strength, unit
from .spaces import (
    FinitePoset,
    MonotoneMap,
    Point,
    _linear_extension,
    all_monotone_point_maps,
    enumerate_posets,
    product_poset,
)
from .valuations import ElementaryValuation, dirac, evaluate

# Coefficient grid for the exhaustive monad suite: the additive and
# multiplicative units, a precise non-unit value, a genuinely wide
# interval, and the absorbing least element.  The unit is built by ival,
# not taken as IONE, so bind takes its product path on it.
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
    for p in _linear_extension(space):
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
    return _chain_table(rng, space, allow_inf, ascending=True)


def random_antitone_table(
    rng: random.Random, space: FinitePoset, allow_inf: bool = True
) -> Dict:
    """A random antitone scalar table: higher points get smaller values."""
    return _chain_table(rng, space, allow_inf, ascending=False)


def _chain_table(rng: random.Random, space: FinitePoset, allow_inf: bool, ascending: bool) -> Dict:
    """Chain levels on the points, read up a scalar chain or down it."""
    depth = 3
    levels = _levels(rng, space, depth)
    chain = _scalar_chain(rng, depth + 1)
    if not allow_inf:
        chain = [c if not c.is_infinite else ExtNonNeg(rational(100)) for c in chain]
    if not ascending:
        chain.reverse()
    return {p: chain[levels[p]] for p in space.points}


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
    return Kernel(source, target, table, validate=False)


def random_measure(
    rng: random.Random,
    space: FinitePoset,
    *,
    bounded: bool = False,
    nonzero: bool = False,
    max_points: int = 3,
) -> measures.FiniteSupportMeasure:
    points = [p for p in space.points if rng.random() < 0.7]
    masses = {}
    for p in points[:max_points]:
        if not bounded and rng.random() < 0.15:
            masses[p] = INFINITY
        else:
            masses[p] = ExtNonNeg(rng.choice(_FINITE_POOL))
    if nonzero and all(m.is_zero for m in masses.values()):
        masses[rng.choice(space.points)] = ExtNonNeg(1)
    return measures.FiniteSupportMeasure(space, masses)


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
# The runner (see the module docstring).
# ---------------------------------------------------------------------------


def _run(family: str, checks: Iterable[Optional[str]]) -> LawResult:
    """Count the cases `checks` yields, stopping at the first counterexample."""
    total = 0
    for failure in checks:
        total += 1
        if failure is not None:
            return LawResult(family, total, 1, failure)
    return LawResult(family, total, 0)


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


def _axiom_text(x: IntervalValue, y: IntervalValue, z: IntervalValue) -> Optional[str]:
    bad = _axiom_violations(x, y, z)
    return f"{bad[0]} at x={x}, y={y}, z={z}" if bad else None


def interval_axioms(seed: int = 0, cases: int = 10_000) -> LawResult:
    """Units, associativity, commutativity, distributivity, monotonicity.

    Runs the full cross product of AXIOM_GRID plus `cases` random triples.
    """
    return _run("interval-axioms", _axiom_cases(seed, cases))


def _axiom_cases(seed: int, cases: int) -> Iterator[Optional[str]]:
    for triple in iproduct(AXIOM_GRID, repeat=3):
        yield _axiom_text(*triple)
    rng = random.Random(seed)
    for _ in range(cases):
        triple = tuple(random_interval(rng) for _ in range(3))
        if _axiom_violations(*triple):
            yield _axiom_text(*_shrink_triple(triple, _axiom_violations))
        else:
            yield None


def _shrink_triple(triple: tuple, fails: Callable[..., object]) -> tuple:
    """Greedy shrink: replace components with AXIOM_GRID values while `fails` holds."""
    current = list(triple)
    for i in range(len(current)):
        for candidate in AXIOM_GRID:
            trial = current[:i] + [candidate] + current[i + 1 :]
            if fails(*trial):
                current = trial
                break
    return tuple(current)


# ---------------------------------------------------------------------------
# Family 2: monad laws.
# ---------------------------------------------------------------------------

# The exhaustive point maps are asked for on the same few posets many times.
_point_maps = cache(all_monotone_point_maps)


def _constant_maps(source: FinitePoset, target: FinitePoset) -> List[Dict]:
    """The constant point maps from source to target, in target point order."""
    return [dict.fromkeys(source.points, y) for y in target.points]


def _unit_kernel(space: FinitePoset) -> Kernel:
    table = {x: dirac(space, x) for x in space.points}
    return Kernel(space, space, table, validate=False)


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


def _dirac_kernels(source: FinitePoset, target: FinitePoset, maps, coeffs) -> List[Kernel]:
    """x -> c . delta_{g(x)} for each point map g in maps, then each c in coeffs."""
    kernels = []
    for g in maps:
        for c in coeffs:
            table = {
                x: ElementaryValuation(target, [(c, g[x])], validate=False)
                for x in source.points
            }
            kernels.append(Kernel(source, target, table, validate=False))
    return kernels


# Counterexample texts, filled in with repr of their arguments.
_UNIT_LAW = "unit law fails at x={!r} for kernel {!r}"
_UNIT_EXTENSION = "unit extension fails on {!r}"
_COMPOSITION = "composition law fails for nu={!r}, f={!r}, g={!r}"


def _composition_blocks(posets) -> Iterator[Tuple[list, List[Kernel], List[Kernel]]]:
    """The (nus, fs, gs) blocks of exhaustive law (iii), built as they are asked for.

    The core runs unit/bottom coefficients over all triples (X, Y, Z) with
    Dirac arguments, building nus once per X and fs once per (X, Y); the
    diagonal enrichment runs full grid coefficients on X = Y = Z, with a
    bottom-weighted argument besides the Diracs.
    """
    core = (IONE, ival(0, "inf"))
    for X in posets:
        nus = [dirac(X, x) for x in X.points]
        for Y in posets:
            fs = _dirac_kernels(X, Y, _point_maps(X, Y), (IONE,))
            fs += _dirac_kernels(X, Y, _constant_maps(X, Y), core)
            for Z in posets:
                yield nus, fs, _dirac_kernels(Y, Z, _point_maps(Y, Z), core)
    for X in posets:
        fs = _dirac_kernels(X, X, _point_maps(X, X), COEFF_GRID)
        nus = [dirac(X, x) for x in X.points] + [
            ElementaryValuation(X, [(ival(0, "inf"), X.points[0])], validate=False)
        ]
        yield nus, fs, fs


def monad_laws(seed: int = 0, cases: int = 500) -> LawResult:
    """Unit/extension/composition laws, exhaustive small scale + randomized.

    See the module docstring for the precise exhaustive scope.
    """
    return _run("monad-laws", _monad_cases(seed, cases))


def _monad_cases(seed: int, cases: int) -> Iterator[Optional[str]]:
    posets = enumerate_posets(3)

    # Law (ii), exhaustive: every grid valuation on every poset.
    for X in posets:
        eta = _unit_kernel(X)
        for nu in all_grid_valuations(X):
            yield _UNIT_EXTENSION.format(nu) if bind(eta, nu) != nu else None

    # Law (i), exhaustive: scaled-dirac and constant kernels over all pairs.
    for X in posets:
        units = [(x, unit(X, x)) for x in X.points]
        for Y in posets:
            kernels = _dirac_kernels(X, Y, _point_maps(X, Y), COEFF_GRID)
            kernels += _dirac_kernels(X, Y, _constant_maps(X, Y), COEFF_GRID)
            for f in kernels:
                for x, dirac_x in units:
                    yield _UNIT_LAW.format(x, f) if bind(f, dirac_x) != f(x) else None

    # Law (iii), exhaustive: the core blocks, then the diagonal ones.  The
    # composite is built once per (f, g) and bind(f, nu) once per (f, nu).
    for nus, fs, gs in _composition_blocks(posets):
        for f in fs:
            mids = [bind(f, nu) for nu in nus]
            for g in gs:
                gf = kleisli_compose(g, f)
                for nu, mid in zip(nus, mids):
                    failed = bind(gf, nu) != bind(g, mid)
                    yield _COMPOSITION.format(nu, f, g) if failed else None

    # Randomized pass: multi-term kernels and valuations on posets <= 6,
    # three cases per draw.
    rng = random.Random(seed)
    for _ in range(cases):
        X = random_poset(rng, 6)
        Y = random_poset(rng, 6)
        Z = random_poset(rng, 6)
        f = random_monotone_kernel(rng, X, Y)
        g = random_monotone_kernel(rng, Y, Z)
        nu = random_valuation(rng, X)
        x = rng.choice(X.points)
        eta = _unit_kernel(X)

        def extension_fails(v: ElementaryValuation) -> bool:
            return bind(eta, v) != v

        def composition_fails(v: ElementaryValuation) -> bool:
            return bind(kleisli_compose(g, f), v) != bind(g, bind(f, v))

        yield _UNIT_LAW.format(x, f) if bind(f, unit(X, x)) != f(x) else None
        if extension_fails(nu):
            yield _UNIT_EXTENSION.format(_shrink_valuation(nu, extension_fails))
        else:
            yield None
        if composition_fails(nu):
            yield _COMPOSITION.format(_shrink_valuation(nu, composition_fails), f, g)
        else:
            yield None


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


def _section(k: MonotoneMap, space: FinitePoset, at: Callable[[Point], Point]) -> MonotoneMap:
    """The map p -> k(at(p)) on `space`: k with one product coordinate fixed."""
    return MonotoneMap(space, {p: k(at(p)) for p in space.points}, k.algebra, validate=False)


def strength_identities(seed: int = 0, cases: int = 300) -> LawResult:
    """Defining identities of both strengths plus a naturality spot check."""
    rng = random.Random(seed)
    return _run("strength", (_strength_case(rng) for _ in range(cases)))


def _strength_case(rng: random.Random) -> Optional[str]:
    """The first of the three identities to fail on one draw, else None."""
    X = random_poset(rng, 3)
    Y = random_poset(rng, 3)
    x = rng.choice(X.points)
    y = rng.choice(Y.points)
    nu = random_valuation(rng, Y)
    mu = random_valuation(rng, X)
    h = random_monotone_map(rng, product_poset(X, Y))

    def strength_fails(v: ElementaryValuation) -> bool:
        return evaluate(strength(X, x, v), h) != evaluate(v, _section(h, Y, lambda b: (x, b)))

    if strength_fails(nu):
        nu_min = _shrink_valuation(nu, strength_fails)
        return f"strength identity fails at x={x!r}, nu={nu_min!r}"
    if evaluate(dual_strength(mu, Y, y), h) != evaluate(mu, _section(h, X, lambda a: (a, y))):
        return f"dual strength identity fails at y={y!r}, mu={mu!r}"
    # naturality in the left component: push x through a monotone map
    X2 = random_poset(rng, 3)
    g = random_monotone_point_map(rng, X, X2)
    pushed = map_valuation(lambda pq: (g[pq[0]], pq[1]), strength(X, x, nu), product_poset(X2, Y))
    if pushed != strength(X2, g[x], nu):
        return f"strength naturality fails at x={x!r}, g={g!r}"
    return None


# ---------------------------------------------------------------------------
# Family 4: product / iterated-evaluation exchange.
# ---------------------------------------------------------------------------


def _iterated(outer, inner, k: MonotoneMap, pair: Callable[[Point, Point], Point]) -> IntervalValue:
    """outer(a -> inner(b -> k(pair(a, b)))): one order of iterated evaluation."""
    table = {
        a: evaluate(inner, _section(k, inner.space, lambda b: pair(a, b)))
        for a in outer.space.points
    }
    return evaluate(outer, MonotoneMap(outer.space, table, k.algebra, validate=False))


def fubini_exchange(seed: int = 0, cases: int = 500) -> LawResult:
    """Product valuation versus both iterated evaluation orders, exactly."""
    rng = random.Random(seed)
    return _run("fubini", (_fubini_case(rng) for _ in range(cases)))


def _fubini_case(rng: random.Random) -> Optional[str]:
    X = random_poset(rng, 4)
    Y = random_poset(rng, 4)
    mu = random_valuation(rng, X)
    nu = random_valuation(rng, Y)
    k = random_monotone_map(rng, product_poset(X, Y))

    def orders_disagree(v: ElementaryValuation) -> bool:
        direct = evaluate(product(v, nu), k)
        x_first = _iterated(v, nu, k, lambda a, b: (a, b))
        y_first = _iterated(nu, v, k, lambda b, a: (a, b))
        return not direct == x_first == y_first

    if not orders_disagree(mu):
        return None
    mu_min = _shrink_valuation(mu, orders_disagree)
    return f"iterated orders disagree: mu={mu_min!r}, nu={nu!r}, k={k!r}"


# ---------------------------------------------------------------------------
# Family 5: Choquet oracle for the lower integral.
# ---------------------------------------------------------------------------


def choquet_oracle(seed: int = 0, cases: int = 2000) -> LawResult:
    """lower_integral against the layer-cake formula, with 0/inf corners."""
    rng = random.Random(seed)
    return _run("choquet", (_choquet_case(rng) for _ in range(cases)))


def _choquet_case(rng: random.Random) -> Optional[str]:
    space = random_poset(rng, 5)
    mu = random_measure(rng, space, max_points=5)
    f = random_table(rng, space)
    # read off the module at each call, so a patched or traced integral is used
    direct = measures.lower_integral(f, mu)
    layered = measures.choquet_integral(f, mu)
    if direct == layered:
        return None
    return (
        f"lower integral {direct} != layer-cake {layered} for mu={mu!r}, "
        f"f={ {p: str(v) for p, v in f.items()} }"
    )


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
    return _run("lebesgue-chain", _chain_cases(max(1, min(12, cases))))


def _chain_cases(n_max: int) -> Iterator[Optional[str]]:
    for name, fn in fixture_functions().items():
        levels = [level for _, level in refine(canonical_extension(fn), None, cap=n_max)]
        yield None if ascends(levels) else f"levels fail to ascend for fixture {name}"
        closed = {"id": _identity_level, "square": _square_level}.get(name)
        if closed is not None:
            for n, got in enumerate(levels):
                want = closed(n)
                yield None if got == want else f"fixture {name} at depth {n}: {got} != {want}"


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


def run_all(seed: int = 0, cases: Optional[int] = None) -> List[LawResult]:
    """Run every family; `cases`, when given, overrides each family's default count."""
    return [fn(seed) if cases is None else fn(seed, cases) for fn in FAMILIES.values()]
