"""Seeded random monotone and antitone tables for the randomized tests.

No law family draws these: the law suites' generators stay in
``intval.laws``, and these build on two of them (``_levels`` and
``_scalar_chain``), so a seed draws the same tables it drew when they
lived there.
"""

import random
from typing import Dict, Tuple

from intval.algebra import INTERVALS, ExtNonNeg, IntervalValue, rational
from intval.laws import _levels, _scalar_chain, random_monotone_map
from intval.spaces import FinitePoset, MonotoneMap


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
