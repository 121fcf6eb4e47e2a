"""Finite posets and monotone test functions.

On a finite poset every directed set has a greatest element, so the
continuous maps are exactly the monotone ones and every topological notion
used elsewhere in the library is decidable: open sets are the upper sets,
closed sets the lower sets, and the compact saturated sets are again just
the upper sets.  That makes finite posets the ground spaces on which all
exact checks run.

Points are opaque identifiers (strings in literals, tuples for product
spaces); they must be hashable and mutually orderable within one poset so
normal forms can sort by point.  The constructor takes any generating set
of pairs and rejects cycles.  One sweep over a topological order of the
pairs finds each point's up-set, an int bitmask over point indices, and
the covering pairs (the Hasse diagram) in point order.  A finite order is
the reflexive-transitive closure of its covers, so they key equality and
repr, and, since value orders are transitive, every monotonicity check
reads the covers alone.  A product poset is built in closed form from
its factors instead: each up-set is one carry-free int product of the
factors' bitmasks, and the covers are the factors' covers, lifted.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple, Union

from .algebra import INTERVALS, ExtNonNeg, ValueAlgebra
from .errors import NotMonotone, PointNotInSpace

Point = Hashable
PointFn = Union[Mapping[Point, Point], Callable[[Point], Point]]


def _apply(g: PointFn, x: Point) -> Point:
    """g(x) for a point map given as a dict or a callable; a dict without
    an image for x raises PointNotInSpace."""
    if not isinstance(g, Mapping):
        return g(x)
    try:
        return g[x]
    except KeyError:
        raise PointNotInSpace(f"point map has no image for {x!r}") from None


class FinitePoset:
    """A finite set of points with an explicit partial order."""

    __slots__ = ("_points", "_index", "_up", "_covers", "_key")

    def __init__(self, points: Iterable[Point], relation: Iterable[Tuple[Point, Point]] = ()):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("poset points must be distinct")
        index = {p: i for i, p in enumerate(pts)}
        succ: List[set] = [set() for _ in pts]
        for a, b in relation:
            if a not in index or b not in index:
                unknown = [p for p in dict.fromkeys((a, b)) if p not in index]
                if len(unknown) == 2:
                    raise PointNotInSpace(f"relation mentions unknown points {a!r} and {b!r}")
                raise PointNotInSpace(f"relation mentions unknown point {unknown[0]!r}")
            if a != b:
                succ[index[a]].add(index[b])
        # Kahn's algorithm: a topological order of the given pairs, then each
        # up-set once, in reverse order, from its direct successors' up-sets
        below = [0] * len(pts)
        for js in succ:
            for j in js:
                below[j] += 1
        order = [i for i, n in enumerate(below) if n == 0]
        for i in order:
            for j in succ[i]:
                below[j] -= 1
                if below[j] == 0:
                    order.append(j)
        if len(order) < len(pts):
            _reject_cycle(pts, succ, set(range(len(pts))) - set(order))
        up = [0] * len(pts)
        covers: List[Tuple[int, int]] = []
        for i in reversed(order):
            above = 0
            for j in succ[i]:
                above |= up[j] ^ (1 << j)
            up[i] = above | 1 << i
            for j in succ[i]:
                # i -> j covers unless j lies strictly above another successor
                if not above >> j & 1:
                    up[i] |= 1 << j
                    covers.append((i, j))
        self._store(pts, index, up, covers)

    def _store(
        self,
        pts: Tuple[Point, ...],
        index: Dict[Point, int],
        up: List[int],
        covers: List[Tuple[int, int]],
    ) -> None:
        """Set the representation: the points, their indices, each point's
        up-set as a bitmask over indices, and the covers, given as index
        pairs in any order and kept as point pairs in point order."""
        self._points = pts
        self._index = index
        self._up = up
        self._covers = tuple([(pts[i], pts[j]) for i, j in sorted(covers)])
        # the points with their covers determine the order
        self._key = (frozenset(pts), frozenset(self._covers))

    @property
    def points(self) -> Tuple[Point, ...]:
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, point: Point) -> bool:
        return point in self._index

    def require(self, point: Point) -> None:
        if point not in self._index:
            raise PointNotInSpace(f"point {point!r} is not in the space")

    def leq(self, a: Point, b: Point) -> bool:
        index = self._index
        if a not in index or b not in index:
            self.require(a)
            self.require(b)
        return self._up[index[a]] >> index[b] & 1 == 1

    def cover_pairs(self) -> Tuple[Tuple[Point, Point], ...]:
        """The covering pairs (a, b): a < b with nothing strictly between, in point order."""
        return self._covers

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        items = [str(p) for p in self._points]
        items += [f"{a} <= {b}" for a, b in self._covers]
        return "poset { " + "; ".join(items) + " }"


def _reject_cycle(pts: Tuple[Point, ...], succ: List[set], unordered: set) -> None:
    """Raise for the first point, in point order, that lies on a cycle.

    Kahn's algorithm leaves unordered exactly the points on a cycle and
    those above one; a point's twins are the points it reaches and is
    reached from, and the error names the first of them in point order.
    """
    pred: List[list] = [[] for _ in pts]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    for i in sorted(unordered):
        twins = (_reach(i, succ) & _reach(i, pred)) - {i}
        if twins:
            a, b = pts[i], pts[min(twins)]
            raise ValueError(f"antisymmetry fails: {a!r} and {b!r} are equivalent")


def _reach(start: int, edges) -> set:
    """The indices reachable from `start` along `edges`, start included."""
    seen = {start}
    stack = [start]
    while stack:
        for j in edges[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def singleton(label: Point = "pt") -> FinitePoset:
    return FinitePoset([label])


def chain(labels: Sequence[Point]) -> FinitePoset:
    """A totally ordered poset: labels[0] < labels[1] < ..."""
    rel = list(zip(labels, labels[1:]))
    return FinitePoset(labels, rel)


def antichain(labels: Sequence[Point]) -> FinitePoset:
    return FinitePoset(labels, [])


def product_poset(x: FinitePoset, y: FinitePoset) -> FinitePoset:
    """Componentwise-ordered product; points are (x_point, y_point) pairs.

    Built in closed form from the factors, without the constructor's
    closure.  With m = |y|, the point (a_i, b_j) has index i*m + j, and its
    up-set up(a_i) x up(b_j) is the bitmask spread(up_x[i]) * up_y[j],
    where spread(u) moves bit k of u to bit k*m.  The product is
    carry-free: since up_y[j] < 2^m, it adds copies of up_y[j] shifted
    into disjoint m-bit blocks, one for each point of up(a_i).
    The covers are the factors' covers, lifted: (a, b) <= (c, b) for each
    cover a <= c of x and each b, and (a, b) <= (a, d) for each cover
    b <= d of y and each a.  Each moves one coordinate by a cover, so
    nothing lies strictly between its ends, and every (a, b) < (c, d)
    passes through (c, b) as a chain of them.  Distinct pairs are distinct
    points and a product of acyclic orders is acyclic, so nothing needs
    checking.
    """
    m = len(y)
    pts = tuple([(a, b) for a in x.points for b in y.points])
    up: List[int] = []
    for u in x._up:
        spread, k = 0, 0
        while u:
            spread |= (u & 1) << k
            u >>= 1
            k += m
        up += [spread * v for v in y._up]
    # covers as index pairs: an x cover joins two blocks at each offset,
    # a y cover two offsets within each block
    xi, yi = x._index, y._index
    x_covers = [(xi[a] * m, xi[c] * m) for a, c in x.cover_pairs()]
    y_covers = [(yi[b], yi[d]) for b, d in y.cover_pairs()]
    covers = [(s + j, t + j) for s, t in x_covers for j in range(m)]
    blocks = [i * m for i in range(len(x))]
    covers += [(s + j, s + l) for s in blocks for j, l in y_covers]
    prod = FinitePoset.__new__(FinitePoset)
    prod._store(pts, {p: i for i, p in enumerate(pts)}, up, covers)
    return prod


class MonotoneMap:
    """A total, monotone map from a finite poset into a value algebra.

    Monotonicity here is exactly continuity: on a finite poset, order
    preservation is all that continuity can require.  Both interval-valued
    and scalar-valued test functions use this one class, parameterized by
    the algebra.  Validation checks order on the covering pairs only, since
    every value order is transitive.
    """

    __slots__ = ("space", "algebra", "_table")

    def __init__(
        self,
        space: FinitePoset,
        table: Mapping[Point, object],
        algebra: ValueAlgebra = INTERVALS,
        validate: bool = True,
    ):
        self.space = space
        self.algebra = algebra
        self._table = dict(table)
        if validate:
            for p in space.points:
                if p not in self._table:
                    raise ValueError(f"map not total: missing value at {p!r}")
                if not algebra.contains(self._table[p]):
                    raise ValueError(
                        f"value at {p!r} is not a {algebra.name} element: {self._table[p]!r}"
                    )
            if len(self._table) != len(space.points):
                extra = set(self._table) - set(space.points)
                raise PointNotInSpace(f"map defined at unknown points {extra!r}")
            for a, b in space.cover_pairs():
                if not algebra.leq(self._table[a], self._table[b]):
                    raise NotMonotone(
                        f"map not monotone: {a!r} <= {b!r} but "
                        f"{self._table[a]} !<= {self._table[b]}"
                    )

    def __call__(self, point: Point):
        try:
            return self._table[point]
        except KeyError:
            raise PointNotInSpace(f"point {point!r} is not in the space") from None

    def items(self):
        return self._table.items()

    def table(self) -> dict:
        return dict(self._table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonotoneMap):
            return NotImplemented
        return (
            self.space == other.space
            and self.algebra is other.algebra
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash((self.space, self.algebra.name, frozenset(self._table.items())))

    def __repr__(self) -> str:
        body = "; ".join(
            f"{p} -> {self.algebra.render(self._table[p])}" for p in self.space.points
        )
        return "fn h { " + body + " }"


def endpoint_maps(h: MonotoneMap) -> Tuple[Dict[Point, ExtNonNeg], Dict[Point, ExtNonNeg]]:
    """Split an interval-valued map into its endpoint tables (lower, upper).

    The lower table is monotone and the upper table antitone; both facts
    follow from monotonicity of h under reverse inclusion and are
    re-checked here, on the covering pairs, as a guard.
    """
    if h.algebra is not INTERVALS:
        raise ValueError("endpoint_maps needs an interval-valued map")
    lower = {p: h(p).lo for p in h.space.points}
    upper = {p: h(p).hi for p in h.space.points}
    for a, b in h.space.cover_pairs():
        if not lower[a] <= lower[b]:
            raise NotMonotone(f"lower endpoint map fails monotonicity at {a!r} <= {b!r}")
        if not upper[b] <= upper[a]:
            raise NotMonotone(f"upper endpoint map fails antitonicity at {a!r} <= {b!r}")
    return lower, upper


# ---------------------------------------------------------------------------
# Enumeration helpers for exhaustive law checks.  Small posets and small
# value grids are cheap to enumerate completely, which turns several of the
# library's structural identities into finite, decidable checks.
# ---------------------------------------------------------------------------


def all_monotone_maps(
    space: FinitePoset,
    values: Sequence[object],
    algebra: ValueAlgebra = INTERVALS,
) -> List[MonotoneMap]:
    """Every monotone map from the poset into the given finite value grid."""
    return [
        MonotoneMap(space, table, algebra, validate=False)
        for table in _monotone_tables(space, values, algebra.leq)
    ]


def all_monotone_point_maps(source: FinitePoset, target: FinitePoset) -> List[dict]:
    """Every monotone function between two posets, as point tables."""
    return _monotone_tables(source, target.points, target.leq)


def _monotone_tables(space: FinitePoset, values: Sequence[object], leq) -> List[dict]:
    """Every table p -> value on the poset that `leq` orders monotonically.

    Fills the points along a linear extension, trying the values in their
    given order at each point, so the tables come out in that
    lexicographic order.
    """
    pts = _linear_extension(space)
    out: List[dict] = []
    table: Dict[Point, object] = {}

    def fill(i: int):
        if i == len(pts):
            out.append(dict(table))
            return
        p = pts[i]
        below = [q for q in pts[:i] if space.leq(q, p)]
        for v in values:
            if all(leq(table[q], v) for q in below):
                table[p] = v
                fill(i + 1)
        table.pop(p, None)

    fill(0)
    return out


def _linear_extension(space: FinitePoset) -> List[Point]:
    """The points sorted by how many points lie below them (stable)."""
    pts = list(space.points)
    pts.sort(key=lambda p: sum(1 for q in space.points if space.leq(q, p)))
    return pts


_POSET_LABELS = ("a", "b", "c", "d", "e")


def enumerate_posets(max_points: int) -> List[FinitePoset]:
    """All posets with 1..max_points points, up to order isomorphism.

    Enumerates by choosing, for each unordered pair, one of <, > or
    incomparable, keeping the transitive antisymmetric outcomes, and
    deduplicating by the minimal relation matrix over all relabelings.
    Intended for max_points <= 5 (1, 2, 5, 16, 63 posets).
    """
    if max_points > len(_POSET_LABELS):
        raise ValueError(f"enumeration supports at most {len(_POSET_LABELS)} points")
    found: List[FinitePoset] = []
    for n in range(1, max_points + 1):
        labels = _POSET_LABELS[:n]
        pairs = list(combinations(range(n), 2))
        seen = set()
        for choice in product((0, 1, 2), repeat=len(pairs)):
            rel = [[False] * n for _ in range(n)]
            for i in range(n):
                rel[i][i] = True
            for (i, j), c in zip(pairs, choice):
                if c == 1:
                    rel[i][j] = True
                elif c == 2:
                    rel[j][i] = True
            if not _is_transitive(rel, n):
                continue
            canon = min(
                tuple(
                    rel[perm[i]][perm[j]] for i in range(n) for j in range(n)
                )
                for perm in permutations(range(n))
            )
            if canon in seen:
                continue
            seen.add(canon)
            relation = [
                (labels[i], labels[j]) for i in range(n) for j in range(n) if rel[i][j]
            ]
            found.append(FinitePoset(labels, relation))
    return found


def _is_transitive(rel, n: int) -> bool:
    for i in range(n):
        for j in range(n):
            if rel[i][j]:
                for k in range(n):
                    if rel[j][k] and not rel[i][k]:
                        return False
    return True
