"""Independent endpoint-sum oracle for the dyadic integrator tests.

Evaluates piecewise functions directly with ``fractions.Fraction``: for
each dyadic cell the min/max over each overlapping piece is taken at the
overlap's endpoints (pieces are monotone), and the two weighted endpoint
sums are accumulated separately.  Shares no code with the library's
interval-arithmetic path, so exact agreement between the two is a real
check.  Also holds the exact integrals of the law suites' fixtures.
"""

from fractions import Fraction

from intval.algebra import IntervalValue, ival, rational
from intval.lebesgue import PiecewiseMonotoneFn

# Exact unit-interval integrals of the fixtures, for squeeze checks.
FIXTURE_INTEGRALS = {
    "id": rational(1, 2),
    "square": rational(1, 3),
    "half": rational(1, 2),
    "tent": rational(1, 2),
}


def brute_force_level(fn: PiecewiseMonotoneFn, n: int) -> IntervalValue:
    bps = [Fraction(int(b.numerator), int(b.denominator)) for b in fn.breakpoints]
    polys = [
        [Fraction(int(c.numerator), int(c.denominator)) for c in poly.coeffs]
        for _, poly in fn.pieces
    ]

    def poly_at(coeffs, x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    lo_sum, hi_sum = Fraction(0), Fraction(0)
    cell = Fraction(1, 2 ** n)
    for i in range(2 ** n):
        a, b = i * cell, (i + 1) * cell
        mins, maxs = [], []
        for k in range(len(polys)):
            u, v = max(bps[k], a), min(bps[k + 1], b)
            if u > v:
                continue
            va, vb = poly_at(polys[k], u), poly_at(polys[k], v)
            mins.append(min(va, vb))
            maxs.append(max(va, vb))
        lo_sum += min(mins) * cell
        hi_sum += max(maxs) * cell
    return ival(str(lo_sum), str(hi_sum))
