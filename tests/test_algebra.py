import copy
import operator
import pickle
import random

import pytest

from fractions import Fraction
from hypothesis import example, given, settings, strategies as st
from itertools import product as iproduct

from intval.algebra import (
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
    decimal_str,
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
    rational_str,
    render_interval,
    render_scalar,
    width,
)
from intval import laws
from intval.laws import AXIOM_GRID, random_interval, random_scalar
from intval.lebesgue import ascends
from intval.monad import Kernel, bind, product
from intval.spaces import MonotoneMap, antichain, chain
from intval.valuations import ElementaryValuation, dirac, evaluate


class TestScalars:
    def test_add_exact(self):
        assert ext("1/2") + ext("1/3") == ext("5/6")

    def test_add_zero(self):
        assert ZERO + ZERO == ZERO

    def test_add_infinity_absorbs(self):
        assert ext(7) + INFINITY == INFINITY
        assert INFINITY + INFINITY == INFINITY

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

    @pytest.mark.parametrize(
        "expr",
        [
            "1 <= ext(1)",
            "Fraction(1, 2) <= ext(1)",
            "ext(1) >= Fraction(1)",
            "ext(1) > 0",
            "ext(1) <= Fraction(1)",
            "ext(1) < 2",
        ],
    )
    def test_ordering_against_a_non_scalar_is_a_type_error(self, expr):
        # each side returns NotImplemented, so Python raises TypeError
        # (not RecursionError or AttributeError)
        with pytest.raises(TypeError, match="not supported between instances"):
            eval(expr, {"ext": ext, "Fraction": Fraction})

    @pytest.mark.parametrize("expr", ["ext(1) + 1", "1 + ext(1)", "ext('inf') + 1", "ext(1) + 'x'"])
    def test_sum_with_a_non_scalar_is_a_type_error(self, expr):
        with pytest.raises(TypeError, match="unsupported operand"):
            eval(expr, {"ext": ext})

    def test_equality_with_a_non_scalar_is_false_and_hash_is_the_pair(self):
        assert (ext(1) == Fraction(1)) is False
        assert hash(ext("1/2")) == hash((1, 2)) and hash(INFINITY) == hash((1, 0))

    @pytest.mark.parametrize("i, j", iproduct(range(5), repeat=2))
    def test_the_four_orderings_agree(self, i, j):
        ascending = [ZERO, ext("1/3"), ONE, ext(2), INFINITY]
        a, b = ascending[i], ascending[j]
        assert (a <= b, a < b, a >= b, a > b) == (i <= j, i < j, i >= j, i > j)

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

    def test_strings_are_read_at_any_length(self):
        big = ExtNonNeg(10**5000)
        text = render_scalar(big)  # 5,001 digits, past int()'s limit
        assert ext(text) == big
        assert ival(0, text) == IntervalValue(ZERO, big)
        assert ival(" 0 ", " inf ") == BOTTOM

    @pytest.mark.parametrize("text", ["1.5", "1e3", "+1", "1_000", "-1"])
    def test_strings_outside_the_scalar_grammar_are_rejected(self, text):
        with pytest.raises(ValueError):
            ext(text)
        with pytest.raises(ValueError):
            ival(0, text)


    @pytest.mark.parametrize(
        "x", [ZERO, ONE, INFINITY, ext("2/6"), ext(7), ext(decimal_str(10 ** 4400 + 1) + "/3")]
    )
    def test_copy_and_pickle(self, x):
        twins = [copy.copy(x), copy.deepcopy(x)]
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        twins += [pickle.loads(pickle.dumps(x, protocol)) for protocol in protocols]
        for twin in twins:
            assert type(twin) is ExtNonNeg
            assert (twin._n, twin._d) == (x._n, x._d) and hash(twin) == hash(x)

    def test_pickle_checks_what_it_reads(self):
        # the rebuild goes through the constructor, which rejects bad text
        forged = pickle.dumps(ext("1/3"), 0).replace(b"1/3", b"1/0")
        with pytest.raises(ValueError, match="zero denominator"):
            pickle.loads(forged)


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

    @pytest.mark.parametrize(
        "expr",
        [
            "IONE * 5",
            "5 * IONE",
            "ival(1, 1) * 'x'",
            "ival(1, 2) + 1",
            "1 + ival(1, 2)",
            "ival(1, 2) * 2",
            "IZERO + ext(1)",
            "BOTTOM * ext(1)",
        ],
    )
    def test_operations_with_a_non_interval_are_type_errors(self, expr):
        # the [1, 1] shortcut too reads the other operand first: each side
        # returns NotImplemented, not the operand or an AttributeError
        with pytest.raises(TypeError):
            eval(expr, {"IONE": IONE, "IZERO": IZERO, "BOTTOM": BOTTOM, "ival": ival, "ext": ext})

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

    def test_immutable(self):
        x = ival(1, 2)
        with pytest.raises(AttributeError, match="IntervalValue is immutable"):
            x.lo = ZERO
        with pytest.raises(AttributeError, match="IntervalValue is immutable"):
            del x.lo
        with pytest.raises(AttributeError, match="IntervalValue is immutable"):
            del x.hi
        assert repr(x) == "[1,2]"

    @pytest.mark.parametrize(
        "x", [ival(1, 2), ival("1/3", "inf"), BOTTOM, IZERO, ival("inf", "inf")]
    )
    def test_copy_and_pickle(self, x):
        twins = [copy.copy(x), copy.deepcopy(x)]
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        twins += [pickle.loads(pickle.dumps(x, protocol)) for protocol in protocols]
        for twin in twins:
            assert type(twin) is IntervalValue
            assert twin == x and hash(twin) == hash(x)
            assert (render_scalar(twin.lo), render_scalar(twin.hi)) == (
                render_scalar(x.lo),
                render_scalar(x.hi),
            )
            assert twin * IONE is twin and twin + IZERO == x

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


def _reference_sum(a, b):
    return None if a is None or b is None else a + b


def _reference_le(a, b):
    return b is None or (a is not None and a <= b)


def _reference_width(lo, hi):
    if hi is None:
        return Fraction(0) if lo is None else None
    return hi - lo


def _reference_digits(n):
    """Decimal digits of n >= 0 in 1000-digit chunks, independent of decimal_str."""
    chunks = []
    while True:
        n, low = divmod(n, 10**1000)
        if not n:
            chunks.append(str(low))
            return "".join(reversed(chunks))
        chunks.append(str(low).rjust(1000, "0"))


def _reference_render(a):
    if a is None:
        return "inf"
    if a.denominator == 1:
        return _reference_digits(a.numerator)
    return f"{_reference_digits(a.numerator)}/{_reference_digits(a.denominator)}"


def _as_reference(v):
    return None if v.is_infinite else Fraction(v.value)


def _scalar(a):
    return INFINITY if a is None else ExtNonNeg(a)


def _agrees(v, a):
    """v is the scalar a: the same value, and the same reduced pair, which
    equality, hashing and the rendered text all read."""
    return (
        _as_reference(v) == a
        and v == _scalar(a)
        and hash(v) == hash(_scalar(a))
        and render_scalar(v) == _reference_render(a)
    )


def _check_single(x, a):
    """The queries on the scalar x, which must be the reference value a."""
    assert x.is_infinite == (a is None)
    assert x.is_zero == (a == 0)
    assert render_scalar(x) == _reference_render(a)
    if a is None:
        with pytest.raises(ValueError):
            x.value
    else:
        assert type(x.value) is Fraction and x.value == a


def _check_pair(x, y):
    """Every binary scalar operation on x and y against the reference."""
    a, b = _as_reference(x), _as_reference(y)
    assert _agrees(x + y, _reference_sum(a, b))
    assert _agrees(SCALARS.add(x, y), _reference_sum(a, b))
    assert _agrees(mul_left(x, y), _reference_product(a, b, Fraction(0)))
    assert _agrees(SCALARS.mul(x, y), _reference_product(a, b, Fraction(0)))
    assert _agrees(mul_right(x, y), _reference_product(a, b, None))
    assert (x <= y) == SCALARS.leq(x, y) == _reference_le(a, b)
    assert (x < y) == (_reference_le(a, b) and a != b)
    assert (x >= y) == _reference_le(b, a)
    assert (x > y) == (_reference_le(b, a) and a != b)
    assert (x == y) == (a == b)
    assert (x != y) == (a != b)
    if a == b:
        assert hash(x) == hash(y)
    if _reference_le(a, b):
        assert _agrees(width(IntervalValue(x, y)), _reference_width(a, b))


def _fresh_builds(value):
    """0 or 1 built afresh in each way a caller can build it: from ints,
    strings and Fractions, by parsing, and as arithmetic results."""
    half, third = ext("1/2"), ext("1/3")
    if value == 1:
        return [
            ExtNonNeg(1),
            ext("1"),
            ext(" 2/2 "),
            ext(Fraction(2, 2)),
            ext(rational(5, 5)),
            parse_scalar("3/3"),
            half + half,
            mul_left(ext(3), third),
            mul_right(ext(2), half),
            width(ival("1/2", "3/2")),
        ]
    return [
        ExtNonNeg(0),
        ext("0"),
        ext("0/7"),
        ext(Fraction(0, 5)),
        parse_scalar("0/4"),
        ZERO + ZERO,
        width(ival("2/3", "2/3")),
    ]


class _Long(Fraction):
    """A rational that reprs by size: hypothesis reports its examples with
    repr(), which str()'s 4300-digit limit would turn into an error."""

    def __repr__(self):
        return f"<rational of {len(_reference_digits(self.numerator))} digits / {self.denominator}>"


_VALUES = ("0", "1", "1/2", "2", "7/3", "inf")

_operands = st.one_of(
    st.sampled_from([None if v == "inf" else Fraction(v) for v in _VALUES]),
    st.fractions(min_value=0, max_denominator=10**6),
    st.builds(Fraction, st.integers(0, 10**40), st.integers(1, 10**40)),
    # numerators past int()/str()'s 4300-digit limit, drawn from small
    # ints so that hypothesis never has to print a long one
    st.builds(
        lambda k, m, d: _Long(k * 10**4300 + m, d),
        st.integers(1, 10**10),
        st.integers(0, 10**40),
        st.integers(1, 10**6),
    ),
)


_UNIT_CORNERS = [ival(0, 0), ival(0, "inf"), ival("inf", "inf"), ival(1, "inf")]

# Intervals whose products meet 0 * inf at an endpoint, beside the units.
_ZERO_INF_CORNERS = _UNIT_CORNERS + [ival(0, 1), ival(1, 1), ival("1/2", 3)]


class TestProductsAgainstReference:
    """The scalar core against a reference built from Fraction, with None
    for inf: sums, both products with their unit and zero shortcuts, the
    order, equality, hashing, width, value and rendering; and the interval
    sum, product, equality, order and width, endpoint by endpoint."""

    def test_scalar_pairs(self):
        for v in _VALUES:
            _check_single(ext(v), None if v == "inf" else Fraction(v))
        for a, b in iproduct(_VALUES, repeat=2):
            _check_pair(ext(a), ext(b))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_operands, _operands)
    @example(_Long(10**4301 + 1, 3), None)
    def test_drawn_pairs(self, a, b):
        x, y = _scalar(a), _scalar(b)
        _check_single(x, a)
        _check_single(y, b)
        _check_pair(x, y)

    def test_unit_and_zero_compare_by_value(self):
        # every build is a new object, not ONE or ZERO
        for value, canonical in ((0, ZERO), (1, ONE)):
            for special in _fresh_builds(value):
                assert special is not canonical
                assert special == canonical and hash(special) == hash(canonical)
                _check_single(special, Fraction(value))
                for v in _VALUES:
                    _check_pair(special, ext(v))
                    _check_pair(ext(v), special)

    def test_equal_intervals_hash_equal(self):
        ones, zeros = _fresh_builds(1), _fresh_builds(0)
        for lo, hi in zip(zeros, ones):
            assert IntervalValue(lo, hi) == ival(0, 1)
            assert hash(IntervalValue(lo, hi)) == hash(ival(0, 1))
        for one in ones:
            assert IntervalValue(one, one) == IONE
            assert hash(IntervalValue(one, one)) == hash(IONE)
        assert hash(IZERO * ival("inf", "inf")) == hash(BOTTOM)

    def test_interval_product_over_axiom_grid(self):
        for x, y in iproduct(AXIOM_GRID, repeat=2):
            lo = _reference_product(_as_reference(x.lo), _as_reference(y.lo), Fraction(0))
            hi = _reference_product(_as_reference(x.hi), _as_reference(y.hi), None)
            got = x * y
            assert (_as_reference(got.lo), _as_reference(got.hi)) == (lo, hi)
            assert ival_mul(x, y) == got

    # The interval operations carry their own copy of the endpoint rules,
    # so these tests are what ties them to the reference and to the scalar
    # functions.

    def test_interval_operations_over_axiom_grid(self):
        for x, y in iproduct(AXIOM_GRID, repeat=2):
            _check_intervals(x, y)

    @pytest.mark.parametrize("x, y", list(iproduct(_ZERO_INF_CORNERS, repeat=2)), ids=str)
    def test_interval_operations_at_zero_times_infinity(self, x, y):
        _check_intervals(x, y)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_operands, _operands, _operands, _operands)
    @example(Fraction(0), Fraction(0), None, None)
    @example(Fraction(0), None, Fraction(1), Fraction(1))
    @example(_Long(10**4301 + 1, 3), None, Fraction(0), Fraction(1, 2))
    def test_interval_operations_on_drawn_intervals(self, a, b, c, d):
        _check_intervals(_interval_of(a, b), _interval_of(c, d))


def _check_intervals(x, y):
    """Every interval operation on x and y against the reference, endpoint
    by endpoint, and against the scalar functions it writes out."""
    a, b, c, d = (_as_reference(v) for v in (x.lo, x.hi, y.lo, y.hi))
    total = x + y
    assert _agrees(total.lo, _reference_sum(a, c))
    assert _agrees(total.hi, _reference_sum(b, d))
    assert total == IntervalValue._make(x.lo + y.lo, x.hi + y.hi)
    got = x * y
    assert _agrees(got.lo, _reference_product(a, c, Fraction(0)))
    assert _agrees(got.hi, _reference_product(b, d, None))
    lo, hi = mul_left(x.lo, y.lo), mul_right(x.hi, y.hi)
    assert got == IntervalValue._make(lo, hi)
    # past the [1, 1] shortcut (TestUnitFactor), a [0, inf] factor is the
    # product itself (TestBottomFactor); past both, where a scalar product
    # returns an operand or a constant, so does the interval product
    if IONE not in (x, y):
        if BOTTOM in (x, y):
            assert got is (x if x == BOTTOM else y)
        else:
            for end, scalar, operands in ((got.lo, lo, (x.lo, y.lo)), (got.hi, hi, (x.hi, y.hi))):
                if any(scalar is v for v in operands + (ZERO, INFINITY)):
                    assert end is scalar
    for v in (total, got):
        assert _reference_le(_as_reference(v.lo), _as_reference(v.hi))
    same = (a, b) == (c, d)
    assert (x == y) is same and (x != y) is not same
    if same:
        assert hash(x) == hash(y)
    # an equal copy built from fresh scalars is equal and hashes equal
    copy = IntervalValue(_scalar(a), _scalar(b))
    assert copy == x and hash(copy) == hash(x)
    assert x.__eq__(x.lo) is NotImplemented
    leq = ival_leq(x, y)
    assert type(leq) is bool
    assert leq == (_reference_le(a, c) and _reference_le(d, b))
    assert leq == (x.lo <= y.lo and y.hi <= x.hi) == INTERVALS.leq(x, y)
    assert _agrees(width(x), _reference_width(a, b))


def _interval_of(a, b):
    lo, hi = sorted((_scalar(a), _scalar(b)))
    return IntervalValue(lo, hi)


class TestUnitFactor:
    """A [1, 1] factor returns the other operand itself, and that operand is
    the full product's value; near-units take the full product."""

    @staticmethod
    def _check(one, x):
        assert one * x is x
        # a unit x is itself the first factor to be tested, and returns one
        assert x * one is (one if x == IONE else x)
        full = IntervalValue._make(mul_left(ONE, x.lo), mul_right(ONE, x.hi))
        assert one * x == full and x * one == full

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_operands, _operands)
    def test_unit_returns_the_other_operand(self, a, b):
        x = _interval_of(a, b)
        self._check(IONE, x)
        self._check(parse_interval("[1,1]"), x)

    @pytest.mark.parametrize("x", _UNIT_CORNERS + [IONE, ival(1, 2), ival(0, 1)], ids=str)
    def test_corners(self, x):
        self._check(IONE, x)

    def test_parsed_unit_is_a_different_object(self):
        one = parse_interval("[1,1]")
        assert one is not IONE and one == IONE
        for x in _UNIT_CORNERS:
            self._check(one, x)
        # a [1,1] built from fresh unit scalars takes the same path
        for fresh in _fresh_builds(1):
            self._check(IntervalValue(fresh, fresh), ival("1/2", 3))

    @pytest.mark.parametrize("near", ["[1,inf]", "[1,2]", "[0,1]"])
    def test_near_units_take_the_full_product(self, near):
        u = parse_interval(near)
        for x in _UNIT_CORNERS + [IONE, ival("1/2", 3)]:
            got = u * x
            assert got == IntervalValue._make(mul_left(u.lo, x.lo), mul_right(u.hi, x.hi))
            # a [0, inf] x absorbs the product (TestBottomFactor)
            if x == BOTTOM:
                assert got is x
            elif x is not IONE:
                assert got is not x and got is not u
        assert parse_interval("[1,inf]") * IZERO == ival(0, "inf")
        assert IZERO * parse_interval("[1,inf]") == ival(0, "inf")


def _fresh_infinities():
    """inf built afresh in each way a caller can build it."""
    return [ExtNonNeg("inf"), ext(" inf "), parse_scalar("inf"), ExtNonNeg._make(1, 0)]


class TestBottomFactor:
    """Past the unit rule, a [0, inf] factor returns itself, and it is the
    full product's value: [0, inf] absorbs every interval."""

    @staticmethod
    def _bottoms():
        """[0, inf] as the algebra's BOTTOM, built by ival, parsed, from
        fresh scalars and as a computed product."""
        builds = [BOTTOM, ival(0, "inf"), parse_interval("[0,inf]"), IZERO * ival("inf", "inf")]
        for zero in _fresh_builds(0):
            builds += [IntervalValue(zero, inf) for inf in _fresh_infinities()]
        return builds

    @staticmethod
    def _check(b, x):
        assert b * x is b
        # a [0, inf] x is itself the first factor to be tested, and returns x
        assert x * b is (x if x == BOTTOM else b)
        assert b * x == IntervalValue._make(mul_left(b.lo, x.lo), mul_right(b.hi, x.hi))
        assert x * b == IntervalValue._make(mul_left(x.lo, b.lo), mul_right(x.hi, b.hi))

    def test_builds_are_distinct_objects(self):
        bottoms = self._bottoms()
        assert len({id(b) for b in bottoms}) == len(bottoms)
        assert all(b == BOTTOM for b in bottoms)

    @pytest.mark.parametrize("x", _ZERO_INF_CORNERS + [IONE], ids=str)
    def test_corners(self, x):
        for b in self._bottoms():
            self._check(b, x)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_operands, _operands)
    @example(Fraction(0), Fraction(1))
    @example(Fraction(0), None)
    def test_drawn_intervals(self, a, c):
        x = _interval_of(a, c)
        for b in self._bottoms():
            self._check(b, x)


class TestValueAlgebra:
    def test_the_two_records(self):
        assert (SCALARS.one, SCALARS.bottom) == (ONE, ZERO)
        assert (INTERVALS.one, INTERVALS.bottom) == (IONE, BOTTOM)
        assert SCALARS.contains(ONE) and not SCALARS.contains(IONE)
        assert INTERVALS.contains(IONE) and not INTERVALS.contains(ONE)
        assert SCALARS.render(INFINITY) == "inf"
        assert INTERVALS.render(BOTTOM) == "[0,inf]"
        assert repr(SCALARS) == "<algebra scalar>"
        assert repr(INTERVALS) == "<algebra interval>"

    def test_records_are_immutable(self):
        for alg in (SCALARS, INTERVALS):
            with pytest.raises(AttributeError):
                alg.mul = mul_right
            with pytest.raises(AttributeError, match="ValueAlgebra is immutable"):
                del alg.mul
            assert alg.mul is (mul_left if alg is SCALARS else operator.mul)

    @pytest.mark.parametrize("alg", [SCALARS, INTERVALS])
    def test_copies_are_the_record_itself(self, alg):
        # the library compares algebras with `is`
        twins = [copy.copy(alg), copy.deepcopy(alg), copy.deepcopy([alg])[0]]
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        twins += [pickle.loads(pickle.dumps(alg, protocol)) for protocol in protocols]
        for twin in twins:
            assert twin is alg

    def test_a_record_of_ones_own_is_rebuilt_from_its_fields(self):
        alg = ValueAlgebra(
            "scalar", ExtNonNeg, ONE, ZERO, operator.add, mul_left, operator.le, render_scalar
        )
        for twin in (copy.copy(alg), pickle.loads(pickle.dumps(alg))):
            assert twin is not alg and twin is not SCALARS
            assert [getattr(twin, slot) for slot in ValueAlgebra.__slots__] == [
                getattr(alg, slot) for slot in ValueAlgebra.__slots__
            ]


class TestChainSup:
    """The sup of a finite ascending chain is its last element.

    The library keeps no sup function for intervals: ``lebesgue.ascends``
    checks the order, and the sup, [max of los, min of his], is then the
    last element, as the level chain's sup is the last level ``refine``
    yields.
    """

    @staticmethod
    def sup(xs):
        return ival(max(x.lo for x in xs), min(x.hi for x in xs))

    def test_ascending_chain(self):
        xs = [ival(0, 1), ival("1/4", "3/4"), ival("1/2", "1/2")]
        assert ascends(xs)
        assert all(ival_leq(x, xs[-1]) for x in xs)
        assert self.sup(xs) == xs[-1] == ival("1/2", "1/2")

    def test_singleton(self):
        assert ascends([ival(1, 2)])
        assert self.sup([ival(1, 2)]) == ival(1, 2)

    def test_constant_bottom(self):
        assert ascends([BOTTOM, BOTTOM])
        assert self.sup([BOTTOM, BOTTOM]) == BOTTOM

    def test_rejects_non_chain(self):
        assert not ascends([ival(1, 2), ival(0, 3)])


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

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(2**16384),  # 4,933 digits
            Fraction(3, 10**4999 + 7),  # a 5,000-digit denominator
            Fraction(10**5000 - 1, 10**4400 + 3),
            None,
        ],
        ids=["4933-digit-numerator", "5000-digit-denominator", "both-long", "inf"],
    )
    def test_round_trip_at_any_length(self, value):
        s = INFINITY if value is None else ExtNonNeg(value)
        text = render_scalar(s)
        assert text == _reference_render(value)
        assert parse_scalar(text) == s
        v = IntervalValue(ZERO, s)
        assert parse_interval(render_interval(v)) == v

    @pytest.mark.parametrize(
        "text", ["", "-1", "+1", "1_000", "1.5", "1/0", "1/", "/2", "1/2/3", "0x10", "\u0663"]
    )
    def test_parse_rejects_what_render_never_prints(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text)

    def test_parse_reduces_and_strips(self):
        assert parse_scalar(" 4/6 ") == ext("2/3")
        assert parse_scalar("0/9") == ZERO
        assert parse_scalar("007") == ext(7)
        long = "9" * 4301 + "/" + "3" * 5000
        assert parse_scalar(long) == ExtNonNeg(Fraction(10**4301 - 1, (10**5000 - 1) // 3))

    def test_rational_str_matches_fraction_str(self):
        for q in (Fraction(0), Fraction(7), Fraction(-3, 4), Fraction(5, 12)):
            assert rational_str(q) == str(q)
        big = Fraction(1, 2**16384)
        assert rational_str(big) == "1/" + decimal_str(2**16384)
        assert render_scalar(ExtNonNeg(big)) == rational_str(big)


# ---------------------------------------------------------------------------
# The interval operations build their results in place; they must stay
# immutable and must still dispatch through IntervalValue.__mul__/__add__.
# ---------------------------------------------------------------------------


class TestFlattenedIntervalOps:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ival(1, 2) * ival("1/2", 3),
            lambda: ival(1, 2) + ival(0, "inf"),
            lambda: IntervalValue._make(ONE, INFINITY),
            lambda: INTERVALS.mul(IONE, BOTTOM),
            lambda: INTERVALS.add(IONE, IZERO),
            lambda: ival(1, 2),
        ],
        ids=["mul", "add", "_make", "INTERVALS.mul", "INTERVALS.add", "ival"],
    )
    def test_results_are_immutable(self, make):
        v = make()
        for name in ("lo", "hi", "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, ONE)
        assert v.lo <= v.hi

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"mul": 0, "add": 0}
        mul, add = IntervalValue.__mul__, IntervalValue.__add__

        def counting_mul(x, y):
            counts["mul"] += 1
            return mul(x, y)

        def counting_add(x, y):
            counts["add"] += 1
            return add(x, y)

        monkeypatch.setattr(IntervalValue, "__mul__", counting_mul)
        monkeypatch.setattr(IntervalValue, "__add__", counting_add)
        return counts

    def test_patched_operations_are_counted(self, counts):
        x, y = ival(1, 2), ival("1/2", 3)
        assert INTERVALS.mul(x, y) == ival("1/2", 6)
        assert INTERVALS.add(x, y) == ival("3/2", 5)
        assert x * y == ival("1/2", 6) and x + y == ival("3/2", 5)
        assert counts == {"mul": 2, "add": 2}

        X, Y = antichain(["x", "y"]), chain(["u", "v"])
        half = ival("1/2", "1/2")
        nu = ElementaryValuation(X, [(ival(1, 2), "x"), (ival(0, 1), "y")])
        h = MonotoneMap(X, {"x": ival(1, 1), "y": ival(2, 3)})
        counts.update(mul=0, add=0)
        assert evaluate(nu, h) == ival(1, 5)
        assert counts == {"mul": 2, "add": 1}

        f = Kernel(
            X, Y, {"x": dirac(Y, "u"), "y": ElementaryValuation(Y, [(half, "u"), (half, "v")])}
        )
        counts.update(mul=0, add=0)
        assert bind(f, nu) == ElementaryValuation(
            Y, [(ival(1, "5/2"), "u"), (ival(0, "1/2"), "v")]
        )
        # one product per term of f(x) and f(y); one sum merges the masses at u
        assert counts == {"mul": 3, "add": 1}

        counts.update(mul=0, add=0)
        prod = product(nu, f("y"))
        assert len(prod.terms) == 4
        assert counts == {"mul": 4, "add": 0}

        # unit products return an operand, but still go through __mul__
        counts.update(mul=0, add=0)
        assert INTERVALS.mul(IONE, x) is x and INTERVALS.mul(x, IONE) is x
        assert counts == {"mul": 2, "add": 0}
        # bind on a unit Dirac returns the image itself: no product at all
        counts.update(mul=0, add=0)
        got = bind(f, dirac(X, "y"))
        assert got is f("y")
        assert counts == {"mul": 0, "add": 0}

    def test_monad_laws_product_budget(self, counts):
        # bind on a unit Dirac returns the image without a product; losing
        # that takes the seed-1 suite from about 361k products to 1.18M
        r = laws.monad_laws(seed=1)
        assert (r.cases, r.failures) == (404260, 0)
        assert counts["mul"] <= 400_000
