"""Every number a caller hands the library is read one way.

``algebra._read_pair`` reads ints, scalars, Fractions and text in
``parse_scalar``'s grammar ('inf', 'p', 'p/q', any length; a leading '-'
except where the value is a scalar), and every entry point below reads
through it.  So each spelling of a number must give what the number's
Fraction gives, at every entry point, and the spellings no entry point
reads must fail the same way at each of them.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from intval.algebra import INFINITY, ExtNonNeg, decimal_str, ext, rational
from intval.errors import OutOfRange
from intval.lebesgue import (
    DyadicInterval,
    PiecewiseMonotoneFn,
    Polynomial,
    is_dyadic,
    nonnegative_on,
)

X = Polynomial.identity()
IDENTITY = PiecewiseMonotoneFn([0, 1], [("inc", X)])


def _interior_breakpoint(v):
    return PiecewiseMonotoneFn([0, v, 1], [("inc", X), ("inc", X)])._bps


ENTRY_POINTS = {
    "rational": rational,
    "ExtNonNeg": ExtNonNeg,
    "ext": ext,
    "Polynomial": lambda v: Polynomial([v, 1]),
    "Polynomial.constant": Polynomial.constant,
    "Polynomial.__call__": X,
    "nonnegative_on": lambda v: (nonnegative_on(X, v, 1), nonnegative_on(X, -1, v)),
    "is_dyadic": is_dyadic,
    "breakpoint": _interior_breakpoint,
    "PiecewiseMonotoneFn.__call__": IDENTITY,
    "range_over": lambda v: (IDENTITY.range_over(v, 1), IDENTITY.range_over(0, v)),
    "DyadicInterval": lambda v: DyadicInterval(v, 1),
    "DyadicInterval.__contains__": lambda v: v in DyadicInterval(-1, 1),
}

_LONG = Fraction(2**17000 - 1, 2**17000)  # 5,118 digits on each side

# Each input and the number it spells: a Fraction, or INFINITY.
SPELLINGS = {
    "int": (0, Fraction(0)),
    "fraction": (Fraction(1, 2), Fraction(1, 2)),
    "scalar": (ext("1/4"), Fraction(1, 4)),
    "text": (" 6/8 ", Fraction(3, 4)),
    "long-text": (f"{decimal_str(_LONG.numerator)}/{decimal_str(_LONG.denominator)}", _LONG),
    "signed-text": ("-3/8", Fraction(-3, 8)),
    "inf-text": ("inf", INFINITY),
}

# What no entry point reads, and the error each raises for it.
UNREAD = {
    "decimal-text": ("0.5", ValueError),
    "exponent-text": ("1e3", ValueError),
    "plus-text": ("+1", ValueError),
    "underscore-text": ("1_000", ValueError),
    "float": (0.5, TypeError),
}

# The entry points that refuse a number once read: a scalar is not
# negative, [0, 1] holds every point and (0, 1) every interior breakpoint,
# and only scalars are infinite.  Each refusal's error type; anything else
# is taken.
REFUSED = {
    "zero": {"breakpoint": ValueError},
    "negative": {
        "ExtNonNeg": ValueError,
        "ext": ValueError,
        "breakpoint": ValueError,
        "PiecewiseMonotoneFn.__call__": OutOfRange,
        "range_over": OutOfRange,
    },
    "infinite": {
        name: ValueError for name in ENTRY_POINTS if name not in ("ExtNonNeg", "ext")
    },
}


def _outcome(entry, value):
    """What entry returns for value, or the type of what it raises."""
    try:
        return entry(value)
    except Exception as exc:  # any error: its type is the outcome
        return type(exc)


class TestOneReader:
    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_each_spelling_gives_what_its_number_gives(self, name, spelling):
        given, number = SPELLINGS[spelling]
        entry = ENTRY_POINTS[name]
        got = _outcome(entry, given)
        assert got == _outcome(entry, number)
        if number is INFINITY:
            kind = "infinite"
        else:
            kind = "negative" if number < 0 else "zero" if number == 0 else None
        refused = REFUSED.get(kind, {}).get(name)
        if refused is None:
            assert not isinstance(got, type), got
        else:
            assert got is refused

    @pytest.mark.parametrize("spelling", sorted(UNREAD))
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_what_no_entry_point_reads(self, name, spelling):
        given, error = UNREAD[spelling]
        with pytest.raises(error):
            ENTRY_POINTS[name](given)

    def test_scalar_text_takes_no_sign(self):
        # "-0" is zero to the signed entry points and no scalar at all
        assert rational("-0") == 0 and Polynomial(["-0"]) == Polynomial([0])
        for text in ("-0", "-1", "-inf", "- 1"):
            with pytest.raises(ValueError):
                ext(text)
        for text in ("-inf", "- 1", "--1", "-"):
            with pytest.raises(ValueError):
                rational(text)

    def test_fractions_come_back_as_fractions(self):
        q = Fraction(3, 7)
        assert ExtNonNeg(q) == ext("3/7")
        assert rational(q) == q and type(rational(q)) is Fraction
        assert type(rational(2)) is Fraction and rational(ext("1/2")) == Fraction(1, 2)

    def test_out_of_range_messages_at_any_length(self):
        big = Fraction(10**5000)
        text = decimal_str(10**5000)
        with pytest.raises(OutOfRange) as point:
            IDENTITY(big)
        assert str(point.value) == f"{text} is outside [0, 1]"
        with pytest.raises(OutOfRange) as ends:
            IDENTITY.range_over(big, big + 1)
        assert str(ends.value) == f"[{text},{decimal_str(10**5000 + 1)}] misses [0, 1]"
        with pytest.raises(OutOfRange) as order:
            IDENTITY.range_over(big, 0)
        assert str(order.value) == f"endpoints out of order: [{text},0]"

    def test_building_from_ints_text_and_scalars_loads_no_fractions(self):
        script = "\n".join([
            "import json, sys",
            "from intval.algebra import ext",
            "from intval.lebesgue import PiecewiseMonotoneFn, Polynomial",
            "from intval.lebesgue import is_dyadic, nonnegative_on",
            "p = Polynomial([0, '1/2', ext('1/4')]) + Polynomial.constant('1/8')",
            "q = Polynomial([1, -1]) + Polynomial.constant(ext(1))",
            "fn = PiecewiseMonotoneFn([0, '1/3', ext('2/3'), 1], [('inc', p)] * 2 + [('dec', q)])",
            "checks = [nonnegative_on(p, '1/4', ext(1)), is_dyadic('3/8'), is_dyadic(ext(5))]",
            "mods = ['fractions', 'decimal', 'numbers']",
            "print(json.dumps([checks, [m for m in mods if m in sys.modules]]))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True, text=True
        )
        assert json.loads(proc.stdout) == [[True, True, True], []]
