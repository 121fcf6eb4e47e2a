"""Independent exact arithmetic for checking the benchmark's outputs.

Nothing here imports intval.  Scalars are ``fractions.Fraction`` values
or ``INF`` (None); intervals are (lo, hi) pairs of scalars.  The two
interval-product rules are written out again from their definitions:
the lower endpoint takes 0 * inf = 0, the upper endpoint 0 * inf = inf.
Posets are point lists plus covering pairs, closed here by a separate
transitive closure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

INF = None


def add(a, b):
    return INF if a is INF or b is INF else a + b


def mul_lo(a, b):
    """Scalar product for lower endpoints: 0 * inf = 0."""
    if a is INF:
        return Fraction(0) if b == 0 else INF
    if b is INF:
        return Fraction(0) if a == 0 else INF
    return a * b


def mul_hi(a, b):
    """Scalar product for upper endpoints: 0 * inf = inf."""
    return INF if a is INF or b is INF else a * b


def le(a, b) -> bool:
    if b is INF:
        return True
    return a is not INF and a <= b


def iadd(x, y):
    return add(x[0], y[0]), add(x[1], y[1])


def imul(x, y):
    return mul_lo(x[0], y[0]), mul_hi(x[1], y[1])


def weighted_sum(terms: Iterable[Tuple[tuple, tuple]]):
    """sum_i r_i * h_i over (r_i, h_i) interval pairs; None for no terms."""
    acc = None
    for r, h in terms:
        t = imul(r, h)
        acc = t if acc is None else iadd(acc, t)
    return acc


def render_scalar(v) -> str:
    if v is INF:
        return "inf"
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def render_interval(x) -> str:
    return f"[{render_scalar(x[0])},{render_scalar(x[1])}]"


def parse_scalar(text: str):
    text = text.strip()
    return INF if text == "inf" else Fraction(text)


def from_library_scalar(v):
    """Read an intval ExtNonNeg through its public attributes."""
    if v.is_infinite:
        return INF
    q = v.value
    return Fraction(int(q.numerator), int(q.denominator))


def from_library_interval(v):
    return from_library_scalar(v.lo), from_library_scalar(v.hi)


# ---- piecewise polynomials ----------------------------------------------


class Piece:
    """c0 + sum_j c_j * t^j with t = x - a (inc) or t = b - x (dec), c_j >= 0."""

    __slots__ = ("a", "b", "direction", "coeffs")

    def __init__(self, a: Fraction, b: Fraction, direction: str, coeffs: Sequence[Fraction]):
        self.a, self.b, self.direction, self.coeffs = a, b, direction, tuple(coeffs)

    def integral(self) -> Fraction:
        """Exact integral over [a, b] from the antiderivative in t."""
        length = self.b - self.a
        return sum(
            (c * length ** (j + 1) / (j + 1) for j, c in enumerate(self.coeffs)),
            Fraction(0),
        )

    def literal(self) -> str:
        base = f"x - {render_scalar(self.a)}" if self.direction == "inc" else f"{render_scalar(self.b)} - x"
        terms = [render_scalar(self.coeffs[0])]
        for j, c in enumerate(self.coeffs[1:], start=1):
            if c == 0:
                continue
            power = f"({base})" if j == 1 else f"({base})^{j}"
            terms.append(f"{render_scalar(c)}*{power}")
        return " + ".join(terms)


def piecewise_literal(pieces: Sequence[Piece]) -> str:
    segs = [
        f"[{render_scalar(p.a)},{render_scalar(p.b)}] {p.direction}: {p.literal()}"
        for p in pieces
    ]
    return "piecewise { " + "; ".join(segs) + " }"


def integral(pieces: Sequence[Piece]) -> Fraction:
    return sum((p.integral() for p in pieces), Fraction(0))


def check_integrate_json(doc: dict, eps: Fraction, exact: Fraction) -> Optional[str]:
    """Rows ascend, every row encloses the exact integral, the last is <= eps wide."""
    rows = doc.get("rows")
    if not rows or doc.get("converged") is not True:
        return "integrate did not converge"
    if doc.get("depth") != rows[-1]["n"] or [r["n"] for r in rows] != list(range(len(rows))):
        return "row depths are not 0..depth"
    prev = None
    for r in rows:
        lo, hi, w = parse_scalar(r["lo"]), parse_scalar(r["hi"]), parse_scalar(r["width"])
        if lo is INF or hi is INF or w != hi - lo:
            return f"row {r['n']}: width is not hi - lo"
        if not lo <= exact <= hi:
            return f"row {r['n']}: [{r['lo']},{r['hi']}] misses the exact integral {exact}"
        if prev is not None and not (prev[0] <= lo and hi <= prev[1]):
            return f"row {r['n']}: enclosures do not ascend"
        prev = (lo, hi)
    if not w <= eps:
        return f"final width {w} exceeds eps {eps}"
    return None


# ---- finite posets --------------------------------------------------------


def up_sets(points: Sequence[str], covers: Sequence[Tuple[str, str]]) -> Dict[str, frozenset]:
    """Reflexive-transitive closure of the covering pairs, by depth-first search."""
    succ: Dict[str, List[str]] = {p: [] for p in points}
    for a, b in covers:
        succ[a].append(b)
    out = {}
    for p in points:
        seen = {p}
        todo = [p]
        while todo:
            for q in succ[todo.pop()]:
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
        out[p] = frozenset(seen)
    return out


def upper_integral(masses: Dict[str, Fraction], h_hi: Dict[str, object], ups) -> object:
    """sum m * h_hi over mass points, or inf when h_hi is infinite on the
    intersection of the mass points' upward and downward closures."""
    up = set().union(*(ups[p] for p in masses))
    down = {q for q in ups if ups[q] & set(masses)}
    if any(h_hi[p] is INF for p in up & down):
        return INF
    total = Fraction(0)
    for p, m in masses.items():
        total = add(total, mul_lo(m, h_hi[p]))
    return total


def lower_integral(masses: Dict[str, Fraction], f: Dict[str, object]) -> object:
    total = Fraction(0)
    for p, m in masses.items():
        total = add(total, mul_lo(m, f[p]))
    return total
