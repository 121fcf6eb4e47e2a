"""Acceptance suite: one test per shipping criterion, exact tolerances.

Every check here is an exact rational comparison (equality or order);
the only numeric "tolerances" are the enclosure-width targets, which are
themselves exact rationals.  Each test prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -s`` to see them as they
happen) and enforces its runtime budget.

One check is expected to fail and is kept strict rather than loosened:
see test_c09_width_at_depth_12.  The tent fixture's enclosure width at
depth n is exactly (total variation)/2^n = 2/2^n, because the level-n
width is the sum of per-cell oscillations divided by 2^n, and any
function climbing to 1 and returning to 0 has total variation 2.  No
tent with peak 1 and unit-interval integral 1/2 can meet a 2^-12 width
target at depth 12 (a Lipschitz bound that tight forces integral >= 3/4).
The identity and square fixtures meet it with equality.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from oracle_dyadic import FIXTURE_INTEGRALS, brute_force_level
from oracle_support import down_closure

from intval.algebra import (
    INFINITY,
    INTERVALS,
    SCALARS,
    ZERO,
    ExtNonNeg,
    IntervalValue,
    ext,
    ival,
    ival_leq,
    mul_left,
    mul_right,
    rational,
    width,
)
from intval.errors import OutOfRange
from intval.laws import (
    choquet_oracle,
    interval_axioms,
    fixture_functions,
    fubini_exchange,
    monad_laws,
    random_antitone_table,
    random_interval,
    random_measure,
    random_monotone_map,
    random_monotone_table,
    random_poset,
    random_refining_pair,
    random_table,
    random_valuation,
)
from intval.lebesgue import (
    DyadicInterval,
    IntervalTestFn,
    canonical_extension,
    chain_check,
    lebesgue_n,
)
from intval.literals import parse_piecewise
from intval.measures import (
    FiniteSupportMeasure,
    interval_integral,
    least_interval_extension,
    lower_integral,
    scalar_view,
    upper_integral,
)
from intval.spaces import MonotoneMap
from intval.valuations import evaluate

SEED = 20260809


def _report(num: int, desc: str, started: float, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {desc} ({time.perf_counter() - started:.1f}s)")


def _budget(started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds the {limit:.0f}s budget"


def test_c01_interval_algebra_axioms():
    t0 = time.perf_counter()
    ok = False
    try:
        result = interval_axioms(seed=SEED, cases=10_000)
        assert result.passed, result.counterexample
        assert result.cases >= 10_000 + 6 ** 3
        _budget(t0, 5.0)
        ok = True
    finally:
        _report(1, "interval algebra axioms, 10k random triples + grid", t0, ok)


def test_c02_monad_laws():
    t0 = time.perf_counter()
    ok = False
    try:
        result = monad_laws(seed=SEED, cases=500)
        assert result.passed, result.counterexample
        _budget(t0, 60.0)
        ok = True
    finally:
        _report(2, "monad laws, exhaustive small scale + 500 randomized", t0, ok)


def test_c03_product_exchange():
    t0 = time.perf_counter()
    ok = False
    try:
        result = fubini_exchange(seed=SEED, cases=500)
        assert result.passed, result.counterexample
        _budget(t0, 30.0)
        ok = True
    finally:
        _report(3, "product valuation vs both iterated orders, 500 cases", t0, ok)


def test_c04_choquet_oracle():
    t0 = time.perf_counter()
    ok = False
    try:
        result = choquet_oracle(seed=SEED, cases=2_000)
        assert result.passed, result.counterexample
        _budget(t0, 10.0)
        ok = True
    finally:
        _report(4, "lower integral vs layer-cake oracle, 2000 cases", t0, ok)


def test_c05_integral_algebra():
    t0 = time.perf_counter()
    ok = False
    try:
        rng = random.Random(SEED + 5)
        scalars = (ZERO, INFINITY, ext("2/3"), ext(3))
        for _ in range(1000):
            space = random_poset(rng, 5)
            mu = random_measure(rng, space, max_points=5)
            f = random_table(rng, space)
            g = random_table(rng, space)
            fg = {p: f[p] + g[p] for p in space.points}
            assert lower_integral(fg, mu) == lower_integral(f, mu) + lower_integral(g, mu)
            a = rng.choice(scalars)
            af = {p: mul_left(a, f[p]) for p in space.points}
            assert lower_integral(af, mu) == mul_left(a, lower_integral(f, mu))
        for _ in range(1000):
            space = random_poset(rng, 5)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=5)
            f = random_antitone_table(rng, space)
            g = random_antitone_table(rng, space)
            fg = {p: f[p] + g[p] for p in space.points}
            assert upper_integral(fg, mu) == upper_integral(f, mu) + upper_integral(g, mu)
            a = rng.choice(scalars)
            af = {p: mul_right(a, f[p]) for p in space.points}
            assert upper_integral(af, mu) == mul_right(a, upper_integral(f, mu))
        for _ in range(1000):
            space = random_poset(rng, 5)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=5)
            f = random_antitone_table(rng, space)
            support = set(mu.mass_points) | {
                p for p in space.points if rng.random() < 0.4
            }
            core = support & down_closure(space, mu.mass_points)
            g = {
                p: (ZERO if rng.random() < 0.5 else f[p])
                if p in core
                else random_table(rng, space)[p]
                for p in space.points
            }
            assert lower_integral(g, mu) <= upper_integral(f, mu)
        for _ in range(1000):
            space = random_poset(rng, 4)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=4)
            descending = [random_antitone_table(rng, space)]
            for _ in range(2):
                bump = random_antitone_table(rng, space)
                descending.insert(
                    0, {p: descending[0][p] + bump[p] for p in space.points}
                )
            infimum = descending[-1]
            assert upper_integral(infimum, mu) == min(
                upper_integral(fn, mu) for fn in descending
            )
        _budget(t0, 30.0)
        ok = True
    finally:
        _report(
            5, "integral algebra: additivity, 0/inf homogeneity, domination", t0, ok
        )


def test_c06_measure_functional_properties():
    t0 = time.perf_counter()
    ok = False
    try:
        rng = random.Random(SEED + 6)
        for _ in range(1000):
            space = random_poset(rng, 4)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=4)
            h = random_monotone_map(rng, space)
            h2 = random_monotone_map(rng, space)
            # additivity and homogeneity
            summed = MonotoneMap(
                space,
                {p: h(p) + h2(p) for p in space.points},
                INTERVALS,
                validate=False,
            )
            assert interval_integral(mu, summed) == interval_integral(
                mu, h
            ) + interval_integral(mu, h2)
            a = random_interval(rng)
            scaled = MonotoneMap(
                space, {p: a * h(p) for p in space.points}, INTERVALS, validate=False
            )
            assert interval_integral(mu, scaled) == a * interval_integral(mu, h)
            # monotonicity in the test function
            coarse, fine = random_refining_pair(rng, space)
            assert ival_leq(
                interval_integral(mu, coarse), interval_integral(mu, fine)
            )
            # approximation soundness: any squeezed integrand stays inside
            f = {}
            for p in space.points:
                lo, hi = h(p).lo, h(p).hi
                if hi.is_infinite:
                    f[p] = INFINITY if rng.random() < 0.5 else lo + ext(2)
                else:
                    f[p] = rng.choice((lo, hi, ExtNonNeg((lo.value + hi.value) / 2)))
            enclosure = interval_integral(mu, h)
            assert enclosure.lo <= lower_integral(f, mu) <= enclosure.hi
            # point-mass case: the functional is evaluation at the point
            q = rng.choice(space.points)
            point_mass = FiniteSupportMeasure(space, {q: 1})
            assert interval_integral(point_mass, h) == h(q)
        _budget(t0, 30.0)
        ok = True
    finally:
        _report(
            6,
            "measure functional: linear, monotone, sound, point-mass exact",
            t0,
            ok,
        )


def test_c07_lower_endpoint_view():
    t0 = time.perf_counter()
    ok = False
    try:
        rng = random.Random(SEED + 7)
        for _ in range(200):
            space = random_poset(rng, 4)
            nu = random_valuation(rng, space)
            mu = random_measure(rng, space, bounded=True, nonzero=True, max_points=4)
            for F in (
                lambda h: evaluate(nu, h),
                lambda h: interval_integral(mu, h),
            ):
                f = random_monotone_table(rng, space, allow_inf=False)
                # admissible upper parts: antitone and above f everywhere
                ceiling = max(f.values())
                uppers = []
                for _ in range(2):
                    bump = random_antitone_table(rng, space)
                    uppers.append(
                        MonotoneMap(
                            space,
                            {
                                p: IntervalValue(f[p], ceiling + bump[p])
                                for p in space.points
                            },
                            INTERVALS,
                        )
                    )
                fm = MonotoneMap(space, f, SCALARS, validate=False)
                assert F(uppers[0]).lo == F(uppers[1]).lo == scalar_view(F, fm)
            # round trip through the least interval extension
            scalar_nu = random_valuation(rng, space, algebra=SCALARS)
            nu_eval = lambda fm: evaluate(scalar_nu, fm)
            F_ext = least_interval_extension(nu_eval)
            f2 = random_monotone_table(rng, space)
            fm2 = MonotoneMap(space, f2, SCALARS, validate=False)
            assert scalar_view(F_ext, fm2) == nu_eval(fm2)
        _budget(t0, 10.0)
        ok = True
    finally:
        _report(
            7, "lower-endpoint view: upper-part independence + round trip", t0, ok
        )


def test_c08_dyadic_levels_exact():
    t0 = time.perf_counter()
    ok = False
    try:
        fixtures = fixture_functions()
        for name, fn in fixtures.items():
            assert chain_check(canonical_extension(fn), 12), name
        ident = canonical_extension(fixtures["id"])
        square = canonical_extension(fixtures["square"])
        for n in range(13):
            p = 2 ** n
            id_expected = ival(rational(p - 1, 2 * p), rational(p + 1, 2 * p))
            sq_expected = ival(
                rational((p - 1) * (2 * p - 1), 6 * p * p),
                rational((p + 1) * (2 * p + 1), 6 * p * p),
            )
            assert lebesgue_n(n, ident) == id_expected == brute_force_level(
                fixtures["id"], n
            )
            assert lebesgue_n(n, square) == sq_expected == brute_force_level(
                fixtures["square"], n
            )
        _budget(t0, 30.0)
        ok = True
    finally:
        _report(8, "dyadic chain + closed forms vs brute-force oracle, n<=12", t0, ok)


def test_c09_precise_limit_squeeze():
    t0 = time.perf_counter()
    ok = False
    try:
        for name in ("id", "square", "tent"):
            fn = fixture_functions()[name]
            target = ext(FIXTURE_INTEGRALS[name])
            h = canonical_extension(fn)
            for n in range(13):
                enc = lebesgue_n(n, h)
                assert enc.lo <= target <= enc.hi, (name, n)
        _budget(t0, 30.0)
        ok = True
    finally:
        _report(9, "squeeze: every level encloses the exact integral", t0, ok)


@pytest.mark.parametrize("name", ["id", "square", "tent"])
def test_c09_width_at_depth_12(name):
    """Enclosure width at depth 12 must be at most 2^-12.

    Holds with equality for the identity and square fixtures.  For the
    tent it cannot hold (see the module docstring: the exact width is
    2^-11), and the bound is deliberately kept strict instead of being
    loosened to make the suite green.
    """
    t0 = time.perf_counter()
    ok = False
    try:
        h = canonical_extension(fixture_functions()[name])
        w = width(lebesgue_n(12, h))
        assert w <= ext(rational(1, 2 ** 12)), f"width of {name} at depth 12 is {w}"
        _budget(t0, 30.0)
        ok = True
    finally:
        _report(9, f"width(level 12) <= 2^-12 for {name}", t0, ok)


def test_c10_infinite_upper_branch():
    t0 = time.perf_counter()
    ok = False
    try:
        half = rational(1, 2)

        def evaluator(cell: DyadicInterval) -> IntervalValue:
            lo = max(rational(0), cell.lo)
            hi = min(rational(1), cell.hi)
            if lo > hi:
                raise OutOfRange(f"{cell} misses [0, 1]")
            upper = INFINITY if half in cell else ext(hi)
            return IntervalValue(ext(lo), upper)

        h = IntervalTestFn(evaluator, name="spike")
        for n in range(9):
            assert lebesgue_n(n, h).hi.is_infinite, n
        ok = True
    finally:
        _report(10, "infinite upper endpoint pins every level's width", t0, ok)


def test_c11_cli_determinism():
    t0 = time.perf_counter()
    ok = False
    try:
        specs = [
            "piecewise { [0,1] inc: x }",
            "piecewise { [0,1] inc: x^2 }",
            "piecewise { [0,1] inc: 1/2 }",
            "piecewise { [0,1/2] inc: 2*x; [1/2,3/4] dec: 2 - 2*x; [3/4,1] dec: 2 - 2*x }",
        ]
        for spec in specs:
            outputs = set()
            for _ in range(4):
                proc = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "intval.cli",
                        "integrate",
                        "--fn",
                        spec,
                        "--eps",
                        "1/64",
                    ],
                    capture_output=True,
                    check=True,
                )
                outputs.add(proc.stdout)
            assert len(outputs) == 1, spec
            json.loads(outputs.pop())
        ok = True
    finally:
        _report(11, "CLI output byte-identical across runs", t0, ok)


def test_c12_worst_short_literal():
    """A short literal whose monotonicity check decides a degree-63 slope."""
    t0 = time.perf_counter()
    ok = False
    try:
        fn = parse_piecewise(
            "piecewise { [0,1] inc: (x + 1/3)^64 + (x + 1/7)^63 + (x + 1/11)^61 }"
        )
        (direction, poly), = fn.pieces
        assert direction == "inc" and poly.degree == 64
        assert fn(0) == rational(1, 3 ** 64) + rational(1, 7 ** 63) + rational(1, 11 ** 61)
        _budget(t0, 30.0)
        ok = True
    finally:
        _report(12, "degree-64 literal accepted, its direction check within budget", t0, ok)


def test_c12_breakpoint_at_the_digit_cap():
    """Two degree-64 pieces split at 1/10^4200, a breakpoint within the
    4,300-digit cap: each direction check transforms a degree-63 slope
    into coefficients of up to about 0.9 Mbit."""
    t0 = time.perf_counter()
    ok = False
    try:
        n = 10 ** 4200
        fn = parse_piecewise(f"piecewise {{ [0,1/{n}] inc: x^64; [1/{n},1] inc: x^64 }}")
        assert fn.breakpoints == (0, rational(1, n), 1)
        assert [direction for direction, _ in fn.pieces] == ["inc", "inc"]
        _budget(t0, 20.0)
        ok = True
    finally:
        _report(12, "literal with a breakpoint at the digit cap within budget", t0, ok)
