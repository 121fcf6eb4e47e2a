"""The four workloads: seeded inputs, the timed calls, and their checks.

A workload is a fixed list of commands built from the seed.  Each command
has a stable ``key``, a ``call`` that the harness times, and a ``check``
that inspects the call's result with the independent code in
``oracle.py`` and returns None or a diagnostic.  Every call goes through
``intval.cli.main(argv)`` or the public library functions, looked up on
their modules at call time so that the traced run sees them wrapped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional

from . import oracle
from .oracle import INF

EPS_DEEP = Fraction(1, 2 ** 14)
EPS_WIDE = Fraction(1)
TENT_PATH = "perfbench/data/tent.piecewise"

# integrate-wide: batch size, share of invalid inputs, and the fixed seed
# of the anchor inputs whose stdout digests are recorded in expected.json.
WIDE_INPUTS = 100
WIDE_ANCHORS = 10
WIDE_PIECES = 32
ANCHOR_SEED = 20221122
FUNCTIONAL_ITEMS = 256


class Command(NamedTuple):
    key: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


class CliResult(NamedTuple):
    code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(iv, argv: List[str]) -> CliResult:
    """intval.cli.main(argv) with stdout/stderr captured; an escaping
    exception (a traceback for a CLI user) is recorded, not raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = iv.cli.main(argv)
    except SystemExit as exc:
        return CliResult(None, out.getvalue(), err.getvalue(), f"SystemExit({exc.code})")
    except Exception as exc:  # an uncaught error is a failed command
        return CliResult(None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}")
    return CliResult(code, out.getvalue(), err.getvalue(), None)


def _digest_check(expected: Dict[str, str], key: str, stdout: str) -> Optional[str]:
    want = expected.get(key)
    if want is None:
        return f"no recorded digest for {key}"
    if sha256(stdout) != want:
        return f"stdout digest of {key} differs from the recorded one"
    return None


# ---- integrate ------------------------------------------------------------


def _integrate_command(iv, key, fn_arg, eps, exact, digests) -> Command:
    argv = ["integrate", "--fn", fn_arg, "--eps", oracle.render_scalar(eps)]

    def check(res: CliResult) -> Optional[str]:
        if res.error or res.code != 0:
            return f"{key}: exit {res.code} {res.error or res.stderr.strip()}"
        try:
            doc = json.loads(res.stdout)
        except ValueError:
            return f"{key}: stdout is not JSON"
        bad = oracle.check_integrate_json(doc, eps, exact)
        if bad:
            return f"{key}: {bad}"
        if digests is not None:
            return _digest_check(digests, key, res.stdout)
        return None

    return Command(key, lambda: run_cli(iv, argv), check)


def _invalid_command(iv, key, literal, digests) -> Command:
    argv = ["integrate", "--fn", literal, "--eps", "1"]

    def check(res: CliResult) -> Optional[str]:
        if res.error or res.code != 1:
            return f"{key}: invalid input gave exit {res.code} {res.error or ''}"
        if res.stdout or not res.stderr.startswith("error:") or "Traceback" in res.stderr:
            return f"{key}: invalid input without a one-line diagnostic"
        if digests is not None:
            return _digest_check(digests, key, res.stdout)
        return None

    return Command(key, lambda: run_cli(iv, argv), check)


DEEP_FUNCTIONS = {
    # name: (--fn argument, pieces for the exact integral)
    "tent": (
        TENT_PATH,
        [
            oracle.Piece(Fraction(0), Fraction(1, 2), "inc", [0, 2]),
            oracle.Piece(Fraction(1, 2), Fraction(3, 4), "dec", [Fraction(1, 2), 2]),
            oracle.Piece(Fraction(3, 4), Fraction(1), "dec", [0, 2]),
        ],
    ),
    "square": (None, [oracle.Piece(Fraction(0), Fraction(1), "inc", [0, 0, 1])]),
    "cubic-linear": (
        None,
        [
            oracle.Piece(Fraction(0), Fraction(1, 3), "inc", [0, 0, 0, Fraction(9, 2)]),
            oracle.Piece(Fraction(1, 3), Fraction(1), "inc", [Fraction(1, 6), Fraction(1, 2)]),
        ],
    ),
}


def integrate_deep(iv, seed: int, expected: dict) -> List[Command]:
    """Three fixed few-piece functions refined to eps 2^-14; the seed only
    orders them."""
    names = sorted(DEEP_FUNCTIONS)
    random.Random(seed).shuffle(names)
    cmds = []
    for name in names:
        fn_arg, pieces = DEEP_FUNCTIONS[name]
        literal = fn_arg or oracle.piecewise_literal(pieces)
        cmds.append(
            _integrate_command(
                iv, f"deep:{name}", literal, EPS_DEEP, oracle.integral(pieces),
                expected["digests"],
            )
        )
    return cmds


# (coefficient scale, c0 range) per target depth class: about depth 7, 6-7, 5-6
_WIDE_CLASSES = ((10, 8), (14, 6), (20, 4))
_DENOMINATORS = (96, 100, 120, 128, 210, 256, 360, 1000)


def random_pieces(rng: random.Random, klass: int) -> List[oracle.Piece]:
    """WIDE_PIECES monotone nonnegative pieces of degree 1..8.

    Each piece is c0 + sum_j c_j (x - a)^j (inc) or c0 + sum_j c_j (b - x)^j
    (dec) with every c_j >= 0, so it is monotone and nonnegative on its
    segment by construction, whatever checker the program uses.
    """
    scale, c0_range = _WIDE_CLASSES[klass]
    den = rng.choice(_DENOMINATORS)
    cuts = sorted(rng.sample(range(1, den), WIDE_PIECES - 1))
    bps = [Fraction(0)] + [Fraction(k, den) for k in cuts] + [Fraction(1)]
    pieces = []
    for a, b in zip(bps, bps[1:]):
        m = max(1, int(1 / (b - a)))
        coeffs = [Fraction(rng.randint(0, c0_range), 4)]
        for j in range(1, rng.randint(1, 8) + 1):
            coeffs.append(Fraction(rng.randint(0, 9), scale) * m ** j)
        pieces.append(oracle.Piece(a, b, rng.choice(("inc", "dec")), coeffs))
    return pieces


def invalid_literal(rng: random.Random, pieces: List[oracle.Piece], kind: int) -> str:
    """A literal that every monotonicity checker must reject (exit 1):
    a piece (x - m)^2 declared inc with m inside its segment, a gap between
    two segments, or a zero denominator."""
    k = rng.randrange(1, len(pieces) - 1)
    segs = oracle.piecewise_literal(pieces)[len("piecewise { "):-len(" }")].split("; ")
    p = pieces[k]
    a, b = oracle.render_scalar(p.a), oracle.render_scalar(p.b)
    if kind == 0:
        mid = oracle.render_scalar((p.a + p.b) / 2)
        segs[k] = f"[{a},{b}] inc: (x - {mid})^2"
    elif kind == 1:
        segs[k] = f"[{oracle.render_scalar((p.a + p.b) / 2)},{b}] {p.direction}: {p.literal()}"
    else:
        segs[k] = f"[{a},{b}] {p.direction}: {rng.randint(1, 9)}/0 + {p.literal()}"
    return "piecewise { " + "; ".join(segs) + " }"


def _wide_batch(iv, rng: random.Random, count: int, tag: str, digests) -> List[Command]:
    cmds = []
    for i in range(count):
        pieces = random_pieces(rng, i % len(_WIDE_CLASSES))
        key = f"{tag}:{i}"
        if i % 10 == 9:
            cmds.append(_invalid_command(iv, key, invalid_literal(rng, pieces, (i // 10) % 3), digests))
        else:
            literal = oracle.piecewise_literal(pieces)
            cmds.append(
                _integrate_command(iv, key, literal, EPS_WIDE, oracle.integral(pieces), digests)
            )
    return cmds


def integrate_wide(iv, seed: int, expected: dict) -> List[Command]:
    """WIDE_ANCHORS inputs from a fixed seed (digest-checked) and the rest
    from the workload seed; one input in ten is invalid."""
    anchors = _wide_batch(iv, random.Random(ANCHOR_SEED), WIDE_ANCHORS, "wide-anchor", expected["digests"])
    seeded = _wide_batch(iv, random.Random(seed), WIDE_INPUTS - WIDE_ANCHORS, "wide", None)
    return anchors + seeded


# ---- laws -----------------------------------------------------------------


def laws(iv, seed: int, expected: dict) -> List[Command]:
    """One `intval laws --seed <seed>` at the default case counts."""
    argv = ["laws", "--seed", str(seed), "--format", "json"]
    floor = expected["law_cases"]

    def check(res: CliResult) -> Optional[str]:
        if res.error or res.code != 0:
            return f"laws: exit {res.code} {res.error or ''}"
        doc = json.loads(res.stdout)
        got = {f["family"]: f for f in doc["families"]}
        if doc.get("passed") is not True or set(got) != set(floor):
            return f"laws: families {sorted(got)} or verdict differ"
        for family, minimum in floor.items():
            if got[family]["failures"] != 0:
                return f"laws: {family} failed"
            if got[family]["cases"] < minimum:
                return f"laws: {family} ran {got[family]['cases']} < {minimum} cases"
        return None

    return [Command("laws", lambda: run_cli(iv, argv), check)]


# ---- functionals ------------------------------------------------------------

_COEFFS = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1), Fraction(2)),
    (Fraction(0), INF),
    (Fraction(2), Fraction(3)),
    (Fraction(1, 3), Fraction(1, 2)),
    (Fraction(0), Fraction(1)),
    (Fraction(3, 2), INF),
    (INF, INF),
)
_SCALARS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 2), INF)


class Poset(NamedTuple):
    points: List[str]
    covers: List[tuple]
    ups: Dict[str, frozenset]
    levels: Dict[str, int]

    def literal(self) -> str:
        items = self.points + [f"{a} <= {b}" for a, b in self.covers]
        return "poset { " + "; ".join(items) + " }"


# Kernel targets, cycled through so that the mix of cheap and costly kernel
# validations is the same for every seed (the exhaustive test family of a
# target grows with its antichains): chains, an antichain, V, wedge,
# diamond and an inverted Y, each with 10 to 32 monotone test maps.
TARGETS = (
    (2, ((0, 1),)),
    (2, ()),
    (3, ((0, 1), (1, 2))),
    (3, ((0, 1), (0, 2))),
    (3, ((0, 2), (1, 2))),
    (4, ((0, 1), (1, 2), (2, 3))),
    (4, ((0, 1), (0, 2), (1, 3), (2, 3))),
    (4, ((0, 2), (1, 2), (2, 3))),
)


def random_poset(rng: random.Random, prefix: str, n: int, covers=None) -> Poset:
    """Points prefix0.. with the given covering pairs (by index), or else two
    levels where each upper point covers two random lower points (a fixed
    number of comparable pairs keeps item costs alike across seeds); plus a
    random monotone level function."""
    points = [f"{prefix}{i}" for i in range(n)]
    order = points[:]
    rng.shuffle(order)
    if covers is None:
        lower, upper = order[: n // 2], order[n // 2 :]
        covers = [(a, b) for b in upper for a in rng.sample(lower, 2)]
    else:
        covers = [(points[a], points[b]) for a, b in covers]
    ups = oracle.up_sets(points, covers)
    # a monotone level: one more than the highest level strictly below, or equal
    levels: Dict[str, int] = {}
    for p in order:
        below = [levels[q] for q in levels if p in ups[q] and q != p]
        levels[p] = max(below, default=0) + rng.choice((0, 1))
    return Poset(points, covers, ups, levels)


def nested_chain(rng: random.Random, length: int) -> List[tuple]:
    """Intervals ascending under reverse inclusion, starting wide (0 / inf)."""
    lo, hi = Fraction(0), INF
    out = []
    for _ in range(length):
        out.append((lo, hi))
        if hi is INF:
            hi = INF if rng.random() < 0.3 else lo + rng.randint(4, 12)
        else:
            lo = lo + (hi - lo) * Fraction(rng.randint(0, 2), 4)
            hi = hi - (hi - lo) * Fraction(rng.randint(0, 1), 4)
    return out


def _val_literal(terms) -> str:
    return "val { " + "; ".join(f"{oracle.render_interval(c)} @ {p}" for c, p in terms) + " }"


def _fn_literal(table, render) -> str:
    return "fn h { " + "; ".join(f"{p} -> {render(v)}" for p, v in table.items()) + " }"


def _random_terms(rng, points, count):
    return [(rng.choice(_COEFFS), rng.choice(points)) for _ in range(count)]


def _functional_item(iv, rng: random.Random, index: int) -> Command:
    X = random_poset(rng, "p", 5 + index % 4)
    Y = random_poset(rng, "q", 5 + index // 4 % 4)
    T = random_poset(rng, "t", *TARGETS[index // 16 % len(TARGETS)])
    top = max(X.levels.values()) + max(Y.levels.values()) + 1
    chain = nested_chain(rng, top)
    h = {p: chain[X.levels[p]] for p in X.points}
    k = {(x, y): chain[X.levels[x] + Y.levels[y]] for x in X.points for y in Y.points}
    k_table = {
        xy: iv.algebra.ival(oracle.render_scalar(lo), oracle.render_scalar(hi))
        for xy, (lo, hi) in k.items()
    }
    nu_terms = _random_terms(rng, X.points, 4)
    w_terms = _random_terms(rng, Y.points, 3)
    masses = {
        p: Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))
        for p in rng.sample(X.points, rng.randint(1, len(X.points)))
    }
    f = {p: rng.choice(_SCALARS) for p in X.points}
    # kernel X -> T: a refining chain of valuations on T, indexed by level
    base = _random_terms(rng, T.points, 2)
    images = [base]
    for _ in range(2):
        images.append([
            (rng.choice([c] + [c2 for c2 in _COEFFS if _refines(c, c2)]),
             rng.choice(sorted(T.ups[t])))
            for c, t in images[-1]
        ])
    kernel_rows = {x: images[min(X.levels[x], 2)] for x in X.points}

    poset_x, poset_y, poset_t = X.literal(), Y.literal(), T.literal()
    val_nu, val_w = _val_literal(nu_terms), _val_literal(w_terms)
    fn_h = _fn_literal(h, oracle.render_interval)
    fn_f = _fn_literal(f, oracle.render_scalar)
    measure = "measure { " + "; ".join(f"{oracle.render_scalar(m)} @ {p}" for p, m in masses.items()) + " }"
    kernel_lits = {x: _val_literal(rows) for x, rows in kernel_rows.items()}
    argv = ["eval", "--poset", poset_x, "--val", val_nu, "--fn", fn_h]

    def call():
        lit = iv.literals
        out = {"eval": run_cli(iv, argv)}
        space_x = lit.parse_poset(poset_x)
        space_y = lit.parse_poset(poset_y)
        space_t = lit.parse_poset(poset_t)
        _, h_table, alg = lit.parse_fn(fn_h)
        h_map = iv.spaces.MonotoneMap(space_x, h_table, alg)
        mu = iv.measures.FiniteSupportMeasure(space_x, lit.parse_measure(measure))
        out["interval"] = iv.measures.interval_integral(mu, h_map)
        _, f_table, _ = lit.parse_fn(fn_f)
        out["lower"] = iv.measures.lower_integral(f_table, mu)
        out["choquet"] = iv.measures.choquet_integral(f_table, mu)
        terms, alg = lit.parse_valuation(val_nu)
        nu = iv.valuations.ElementaryValuation(space_x, terms, alg)
        terms, alg = lit.parse_valuation(val_w)
        w = iv.valuations.ElementaryValuation(space_y, terms, alg)
        k_map = iv.spaces.MonotoneMap(iv.spaces.product_poset(space_x, space_y), k_table, alg)
        out["product"] = iv.valuations.evaluate(iv.monad.product(nu, w), k_map)
        table = {}
        for x, text in kernel_lits.items():
            terms, alg = lit.parse_valuation(text)
            table[x] = iv.valuations.ElementaryValuation(space_t, terms, alg)
        kernel = iv.monad.Kernel(space_x, space_t, table)
        out["bind"] = iv.monad.bind(kernel, nu).terms
        return out

    def check(out) -> Optional[str]:
        key = f"functionals:{index}"
        res = out["eval"]
        want = oracle.weighted_sum((c, h[p]) for c, p in nu_terms)
        if res.error or res.code != 0 or json.loads(res.stdout) != {"value": oracle.render_interval(want)}:
            return f"{key}: eval gave {res.stdout.strip() or res.error or res.stderr.strip()}, want {oracle.render_interval(want)}"
        want = (
            oracle.lower_integral(masses, {p: v[0] for p, v in h.items()}),
            oracle.upper_integral(masses, {p: v[1] for p, v in h.items()}, X.ups),
        )
        if oracle.from_library_interval(out["interval"]) != want:
            return f"{key}: interval_integral is {out['interval']}, want {oracle.render_interval(want)}"
        want = oracle.lower_integral(masses, f)
        lower = oracle.from_library_scalar(out["lower"])
        if lower != want or oracle.from_library_scalar(out["choquet"]) != want:
            return f"{key}: lower {out['lower']} / choquet {out['choquet']}, want {oracle.render_scalar(want)}"
        want = oracle.weighted_sum(
            (oracle.imul(c, d), k[(x, y)]) for c, x in nu_terms for d, y in w_terms
        )
        if oracle.from_library_interval(out["product"]) != want:
            return f"{key}: product evaluates to {out['product']}, want {oracle.render_interval(want)}"
        normal_form: Dict[str, tuple] = {}
        for r, x in nu_terms:
            for c, t in kernel_rows[x]:
                part = oracle.imul(r, c)
                normal_form[t] = oracle.iadd(normal_form[t], part) if t in normal_form else part
        got = {p: oracle.from_library_interval(c) for c, p in out["bind"]}
        if got != normal_form:
            return f"{key}: bind normal form differs from the direct sum"
        return None

    return Command(f"functionals:{index}", call, check)


def _refines(c, c2) -> bool:
    """c <= c2 under reverse inclusion: c2 lies inside c."""
    return oracle.le(c[0], c2[0]) and oracle.le(c2[1], c[1])


def functionals(iv, seed: int, expected: dict) -> List[Command]:
    """FUNCTIONAL_ITEMS seeded items on 5-8-point posets."""
    rng = random.Random(seed)
    return [_functional_item(iv, rng, i) for i in range(FUNCTIONAL_ITEMS)]


WORKLOADS = {
    "integrate-deep": integrate_deep,
    "integrate-wide": integrate_wide,
    "laws": laws,
    "functionals": functionals,
}
