import random

import pytest

from fractions import Fraction
from itertools import product as iproduct

from intval.algebra import (
    BOTTOM,
    INFINITY,
    IONE,
    IZERO,
    ONE,
    SCALARS,
    ZERO,
    ExtNonNeg,
    IntervalValue,
    chain_sup,
    decimal_str,
    ext,
    ext_add,
    ival,
    ival_add,
    ival_leq,
    ival_mul,
    mul_left,
    mul_right,
    parse_interval,
    parse_scalar,
    rational,
    rational_str,
    render_interval,
    render_scalar,
    width,
)
from intval.errors import NotAChain
from intval.laws import AXIOM_GRID, random_interval, random_scalar


class TestScalars:
    def test_add_exact(self):
        assert ext("1/2") + ext("1/3") == ext("5/6")

    def test_add_zero(self):
        assert ZERO + ZERO == ZERO

    def test_add_infinity_absorbs(self):
        assert ext(7) + INFINITY == INFINITY
        assert ext_add(INFINITY, INFINITY) == INFINITY

    def test_mul_left_zero_infinity(self):
        assert mul_left(ZERO, INFINITY) == ZERO
        assert mul_left(INFINITY, ZERO) == ZERO

    def test_mul_left_ordinary(self):
        assert mul_left(ext(2), ext(3)) == ext(6)
        assert mul_left(INFINITY, ext(5)) == INFINITY

    def test_mul_right_zero_infinity(self):
        assert mul_right(ZERO, INFINITY) == INFINITY
        assert mul_right(INFINITY, ZERO) == INFINITY

    def test_mul_right_ordinary(self):
        assert mul_right(ZERO, ext(4)) == ZERO
        assert mul_right(INFINITY, INFINITY) == INFINITY

    def test_products_agree_off_corner(self):
        rng = random.Random(11)
        for _ in range(500):
            a, b = random_scalar(rng), random_scalar(rng)
            corner = (a.is_zero and b.is_infinite) or (a.is_infinite and b.is_zero)
            if corner:
                assert mul_left(a, b) == ZERO
                assert mul_right(a, b) == INFINITY
            else:
                assert mul_left(a, b) == mul_right(a, b)
            assert mul_left(a, b) <= mul_right(a, b)

    def test_order_total_with_infinity_on_top(self):
        assert ZERO < ONE < INFINITY
        assert not INFINITY < INFINITY
        assert INFINITY <= INFINITY

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExtNonNeg(-1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ExtNonNeg(0.5)
        with pytest.raises(TypeError):
            rational(1, 2.0)
        with pytest.raises(TypeError):
            ival(0.25, 1)

    def test_value_accessor(self):
        assert ext("3/4").value == rational(3, 4)
        with pytest.raises(ValueError):
            INFINITY.value


class TestIntervals:
    def test_add_componentwise(self):
        assert ival(1, 2) + ival(3, 5) == ival(4, 7)

    def test_add_partial_absorption(self):
        rng = random.Random(5)
        for _ in range(200):
            v = random_interval(rng)
            assert BOTTOM + v == IntervalValue(v.lo, INFINITY)

    def test_add_unit(self):
        assert IZERO + ival("1/3", "2/3") == ival("1/3", "2/3")

    def test_mul_bottom_absorbs(self):
        rng = random.Random(6)
        for _ in range(200):
            v = random_interval(rng)
            assert BOTTOM * v == BOTTOM
            assert v * BOTTOM == BOTTOM

    def test_mul_unit(self):
        assert IONE * ival("1/7", 3) == ival("1/7", 3)

    def test_zero_times_precise_infinity(self):
        assert IZERO * ival("inf", "inf") == ival(0, "inf")

    def test_endpoints_stay_ordered(self):
        rng = random.Random(7)
        for _ in range(500):
            x, y = random_interval(rng), random_interval(rng)
            for z in (x + y, x * y):
                assert z.lo <= z.hi

    def test_leq_examples(self):
        assert ival_leq(ival(1, 3), ival(2, "5/2"))
        assert ival_leq(BOTTOM, ival(17, "inf"))
        assert not ival_leq(ival(1, 2), ival(3, 4))

    def test_constructor_rejects_misordered(self):
        with pytest.raises(ValueError):
            IntervalValue(2, 1)

    def test_width(self):
        assert width(ival(1, 3)) == ext(2)
        assert width(ival(2, "inf")) == INFINITY
        assert width(ival("inf", "inf")) == ZERO
        assert width(IZERO) == ZERO


class TestAxioms:
    """Randomized exact checks of the algebra laws (see also the law suites)."""

    def test_ring_like_laws(self):
        rng = random.Random(1)
        for _ in range(2000):
            x, y, z = (random_interval(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z

    def test_operations_monotone(self):
        rng = random.Random(2)
        for _ in range(1000):
            x = random_interval(rng)
            y = random_interval(rng)
            z = random_interval(rng)
            if not ival_leq(x, y):
                x, y = (y, x) if ival_leq(y, x) else (x, x)
            assert ival_leq(ival_add(x, z), ival_add(y, z))
            assert ival_leq(ival_mul(x, z), ival_mul(y, z))


def _reference_product(a, b, zero_times_inf):
    """Plain rational product of two scalars given as Fraction or None (inf).

    zero_times_inf is the result of 0 * inf: Fraction(0) for the
    lower-endpoint product, None for the upper-endpoint product.
    """
    if a is None or b is None:
        finite = b if a is None else a
        return zero_times_inf if finite == 0 else None
    return a * b


def _as_reference(v):
    return None if v.is_infinite else Fraction(v.value)


class TestProductsAgainstReference:
    """mul_left/mul_right (with their unit and zero shortcuts) against
    an independent product over every pair of a value grid."""

    VALUES = ("0", "1", "1/2", "2", "7/3", "inf")

    def _check(self, a, b):
        ra, rb = _as_reference(a), _as_reference(b)
        assert _as_reference(mul_left(a, b)) == _reference_product(ra, rb, Fraction(0))
        assert _as_reference(mul_right(a, b)) == _reference_product(ra, rb, None)
        assert _as_reference(SCALARS.mul(a, b)) == _reference_product(ra, rb, Fraction(0))

    def test_scalar_pairs(self):
        for a, b in iproduct(self.VALUES, repeat=2):
            self._check(ext(a), ext(b))

    def test_unit_and_zero_compare_by_value(self):
        # 1 and 0 built as 2/2 and 0/5 are new objects, not ONE and ZERO
        one, zero = ext(rational(2, 2)), ext(rational(0, 5))
        assert one is not ONE and zero is not ZERO
        for v in self.VALUES:
            for special in (one, zero):
                self._check(special, ext(v))
                self._check(ext(v), special)

    def test_interval_product_over_axiom_grid(self):
        for x, y in iproduct(AXIOM_GRID, repeat=2):
            lo = _reference_product(_as_reference(x.lo), _as_reference(y.lo), Fraction(0))
            hi = _reference_product(_as_reference(x.hi), _as_reference(y.hi), None)
            got = x * y
            assert (_as_reference(got.lo), _as_reference(got.hi)) == (lo, hi)
            assert ival_mul(x, y) == got


class TestChainSup:
    def test_ascending_chain(self):
        xs = [ival(0, 1), ival("1/4", "3/4"), ival("1/2", "1/2")]
        assert chain_sup(xs) == ival("1/2", "1/2")

    def test_singleton(self):
        assert chain_sup([ival(1, 2)]) == ival(1, 2)

    def test_constant_bottom(self):
        assert chain_sup([BOTTOM, BOTTOM]) == BOTTOM

    def test_rejects_non_chain(self):
        with pytest.raises(NotAChain):
            chain_sup([ival(1, 2), ival(0, 3)])

    def test_rejects_empty(self):
        with pytest.raises(NotAChain):
            chain_sup([])


class TestRendering:
    def test_scalar_forms(self):
        assert render_scalar(ext("1/2")) == "1/2"
        assert render_scalar(ext(3)) == "3"
        assert render_scalar(INFINITY) == "inf"

    def test_interval_form(self):
        assert render_interval(ival("1/2", 2)) == "[1/2,2]"
        assert render_interval(BOTTOM) == "[0,inf]"

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(500):
            s = random_scalar(rng)
            assert parse_scalar(render_scalar(s)) == s
            v = random_interval(rng)
            assert parse_interval(render_interval(v)) == v

    def test_decimal_str_matches_str_below_the_conversion_limit(self):
        rng = random.Random(5)
        for bits in (0, 1, 64, 1999, 2000, 2001, 8000, 14000):
            for n in (rng.getrandbits(bits), (1 << bits) - 1, 1 << bits):
                if n < 10**4300:
                    assert decimal_str(n) == str(n)
                    assert decimal_str(-n) == str(-n)

    @pytest.mark.parametrize("digits", [4301, 5000, 20000])
    def test_decimal_str_beyond_the_conversion_limit(self, digits):
        # str() raises past 4300 digits; compare against 1000-digit chunks
        assert decimal_str(10**digits) == "1" + "0" * digits
        assert decimal_str(10**digits - 1) == "9" * digits
        n = random.Random(digits).randrange(10 ** (digits - 1), 10**digits)
        text = decimal_str(n)
        assert len(text) == digits
        value = 0
        for i in range(0, digits, 1000):
            chunk = text[i : i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == n
        assert decimal_str(-n) == "-" + text

    def test_rational_str_matches_fraction_str(self):
        for q in (Fraction(0), Fraction(7), Fraction(-3, 4), Fraction(5, 12)):
            assert rational_str(q) == str(q)
        big = Fraction(1, 2**16384)
        assert rational_str(big) == "1/" + decimal_str(2**16384)
        assert render_scalar(ExtNonNeg(big)) == rational_str(big)
