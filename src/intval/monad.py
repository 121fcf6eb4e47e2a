"""Monad structure on elementary valuations: unit, bind, image, strength.

The unit sends a point to its Dirac mass.  A kernel is a monotone map from
a source poset into valuations on a target poset, in the pointwise order
of valuations; on finite posets that is Scott continuity, and
valuations.valuation_leq decides it exactly, by one max-flow per side.
Its extension acts on an elementary valuation by the closed form

    bind(f, sum_i r_i x delta_{x_i}) = sum_i r_i . f(x_i)

(one product per pair of terms, then a single normalization that merges
equal target points by +), which agrees with the functional description
bind(f, nu)(k) = nu(x -> f(x)(k)) on every test function k.  Exact + is
associative and commutative, so this is the normal form that scaling each
image and adding would give.  A one-term argument r x delta_x needs no
normalization: r . f(x) has f(x)'s points in f(x)'s order, one term each
(zeros kept), so bind builds it directly in normal form.  When r is the
algebra's own unit object, the argument is the monad unit delta_x, and the
left unit law bind(f, delta_x) = f(x) holds on the nose: a unit product
returns its other operand, so r . f(x) would repeat f(x) term by term, and
bind returns f(x) itself, the object Kernel.__call__ hands out.  The closed
form is primary because it returns a value in normal form; the functional
description is kept as an oracle by the tests (functional_bind in
tests/oracle_valuations.py, one test function at a time, on kernels whose
images merge terms at a target point).  The Kleisli composite x -> bind(g, f(x)) is assembled from bind's
results without Kernel's checks, which cannot fail there (see
kleisli_compose).

With unit and bind come the derived operations: the pushforward along a
monotone point map, the product valuation

    product(mu, nu) = sum_ij (r_i x s_j) delta_{(x_i, y_j)}

whose evaluation matches both iterated orders exactly (the coefficient
algebra is commutative and distributive, so the exchange of summation is
an identity, not an approximation), and the two tensorial strengths,
products with a Dirac mass: strength(x, nu) = delta_x (x) nu and
dual_strength(mu, y) = mu (x) delta_y.  The Dirac's unit coefficient
leaves each coefficient of the other factor equal by value: a [1, 1]
interval factor returns the other operand itself (IntervalValue.__mul__,
which checks for [1, 1] before either endpoint rule), and a unit scalar
factor returns the other scalar (mul_left).  Ascending chains of
valuations are pushed through bind/product element-wise; no limit
objects are built.
"""

from __future__ import annotations

from typing import Mapping

from .algebra import INTERVALS, ValueAlgebra
from .errors import NotMonotone, PointNotInSpace, SpaceMismatch
from .spaces import FinitePoset, Point, PointFn, _apply, product_poset
from .valuations import ElementaryValuation, dirac, separating_function

_new = object.__new__


class Kernel:
    """A monotone map from source points to valuations on a target poset.

    Monotonicity in the pointwise order on valuations is exactly Scott
    continuity on a finite poset.  It is decided on the source's covering
    pairs (the order is transitive) by ``separating_function``, the flow
    decision of ``valuation_leq``, in time polynomial in the images' term
    points, for targets of any size.  A failing pair raises NotMonotone
    naming the pair and, as an ``fn h { ... }`` literal in point order,
    the test function h on which the lower image exceeds the upper one;
    a monotone kernel pays nothing for that certificate.
    ``validate=False`` skips the check for kernels that are monotone by
    construction; totality, the images' space and a single coefficient
    algebra are still checked.  ``kleisli_compose`` builds its composite
    without this constructor, since none of these checks can fail on it.
    """

    __slots__ = ("source", "target", "algebra", "_table")

    def __init__(
        self,
        source: FinitePoset,
        target: FinitePoset,
        table: Mapping[Point, ElementaryValuation],
        *,
        validate: bool = True,
    ):
        self.source = source
        self.target = target
        self._table = dict(table)
        algebra: ValueAlgebra | None = None
        for p in source.points:
            if p not in self._table:
                raise ValueError(f"kernel not total: missing image at {p!r}")
            img = self._table[p]
            if img.space is not target and img.space != target:
                raise SpaceMismatch(f"image at {p!r} lives off the target poset")
            if algebra is None:
                algebra = img.algebra
            elif img.algebra is not algebra:
                raise SpaceMismatch("kernel images mix coefficient algebras")
        if len(self._table) != len(source.points):
            extra = set(self._table) - set(source.points)
            raise PointNotInSpace(f"kernel defined at unknown points {extra!r}")
        self.algebra = algebra if algebra is not None else INTERVALS
        if validate:
            for a, b in source.cover_pairs():
                h = separating_function(self._table[a], self._table[b])
                if h is not None:
                    raise NotMonotone(
                        f"kernel not monotone: {a!r} <= {b!r} but "
                        f"{self._table[a]!r} !<= {self._table[b]!r}; "
                        f"separated by {h!r}"
                    )

    def __call__(self, x: Point) -> ElementaryValuation:
        try:
            return self._table[x]
        except KeyError:
            raise PointNotInSpace(f"point {x!r} is not in the kernel source") from None

    def __repr__(self) -> str:
        body = "; ".join(f"{p} -> {self._table[p]!r}" for p in self.source.points)
        return "kernel { " + body + " }"


def unit(space: FinitePoset, x: Point, algebra: ValueAlgebra = INTERVALS) -> ElementaryValuation:
    """The monad unit: the Dirac mass at x."""
    return dirac(space, x, algebra)


def bind(f: Kernel, nu: ElementaryValuation) -> ElementaryValuation:
    """Extend a kernel to valuations: sum_i r_i . f(x_i).

    One product per pair of terms, read straight off the kernel's table,
    each through the algebra's ``mul`` (for intervals, one call of
    ``IntervalValue.__mul__``); a [1, 1] coefficient (a Dirac term)
    returns the image's coefficient itself, so the result shares it.  A
    one-term argument r . delta_x gives r . f(x), whose terms sit at f(x)'s
    points in f(x)'s order, so it is built in normal form: a one-term
    image c . delta_y gives the single term (r . c, y) with one product and
    no loop.  More terms are normalized once.  TestOneTermBind and
    TestScaledDiracBind in tests/test_monad.py check one-term results
    against the full product list.  When r is the algebra's ``one``
    object, as ``dirac`` builds it, every product would return f(x)'s
    coefficient, so f(x) is returned itself if it lives on ``f.target``
    (an image on an equal poset is rebuilt there).  A [1, 1] built
    separately takes the product path, with an equal result.
    """
    if nu.space is not f.source and nu.space != f.source:
        raise SpaceMismatch("valuation lives off the kernel source")
    alg = nu.algebra
    if alg is not f.algebra:
        raise SpaceMismatch("valuation and kernel use different algebras")
    mul, table, terms = alg.mul, f._table, nu.terms
    try:
        if len(terms) == 1:
            ((r, x),) = terms
            image = table[x]
            if r is alg.one and image.space is f.target:
                return image
            out = _new(ElementaryValuation)
            out.space = f.target
            out.algebra = alg
            iterms = image.terms
            if len(iterms) == 1:
                ((c, y),) = iterms
                out.terms = ((mul(r, c), y),)
            else:
                out.terms = tuple([(mul(r, c), y) for c, y in iterms])
            return out
        products = [(mul(r, c), y) for r, x in terms for c, y in table[x].terms]
    except KeyError as exc:
        raise PointNotInSpace(
            f"point {exc.args[0]!r} is not in the kernel source"
        ) from None
    return ElementaryValuation(f.target, products, alg, validate=False)


def kleisli_compose(g: Kernel, f: Kernel) -> Kernel:
    """The kernel x -> bind(g, f(x)); the composite used by the third monad law."""
    if f.target is not g.source and f.target != g.source:
        raise SpaceMismatch("kernels do not compose: target/source mismatch")
    images = f._table
    table = {x: bind(g, images[x]) for x in f.source.points}
    # Kernel.__init__'s checks cannot fail here, so they are skipped: the
    # table's keys are f's checked source points, every image comes out of
    # bind(g, .) and so lives on g.target, and bind has checked that each
    # argument, hence each image, uses g.algebra, which is f.algebra.  The
    # composite of monotone maps is monotone.
    composite = _new(Kernel)
    composite.source = f.source
    composite.target = g.target
    composite.algebra = f.algebra
    composite._table = table
    return composite


def map_valuation(g: PointFn, nu: ElementaryValuation, target: FinitePoset) -> ElementaryValuation:
    """Pushforward along a monotone point map: sum_i r_i delta_{g(x_i)}.

    Satisfies evaluate(map_valuation(g, nu), k) = evaluate(nu, k o g) for
    every test function k, the usual image-measure identity.  g must send
    every source point into the target and be monotone, which is checked
    on the source's covering pairs.  g is applied once per source point.
    """
    source = nu.space
    images = {}
    for x in source.points:
        y = images[x] = _apply(g, x)
        if y not in target:
            raise PointNotInSpace(f"image point {y!r} is not in the target")
    for a, b in source.cover_pairs():
        if not target.leq(images[a], images[b]):
            raise NotMonotone(f"point map not monotone at {a!r} <= {b!r}")
    terms = [(c, images[p]) for c, p in nu.terms]
    return ElementaryValuation(terms=terms, space=target, algebra=nu.algebra, validate=False)


def strength(space_x: FinitePoset, x: Point, nu: ElementaryValuation) -> ElementaryValuation:
    """Pair a fixed left point with a valuation on the right factor.

    The product delta_x (x) nu = sum_i r_i delta_{(x, y_i)}, satisfying
    evaluate(strength(x, nu), h) = evaluate(nu, y -> h(x, y)).
    """
    return product(dirac(space_x, x, nu.algebra), nu)


def dual_strength(mu: ElementaryValuation, space_y: FinitePoset, y: Point) -> ElementaryValuation:
    """Mirror image of ``strength``: the product mu (x) delta_y."""
    return product(mu, dirac(space_y, y, mu.algebra))


def product(mu: ElementaryValuation, nu: ElementaryValuation) -> ElementaryValuation:
    """The product valuation sum_ij (r_i x s_j) delta_{(x_i, y_j)}.

    Its evaluation on any test function k equals both iterated forms:
    integrate in x then y, or in y then x.  Coefficient arithmetic is
    pure, so any evaluation schedule yields the same normalized result.
    """
    if mu.algebra is not nu.algebra:
        raise SpaceMismatch("cannot form the product over different algebras")
    alg = mu.algebra
    prod = product_poset(mu.space, nu.space)
    terms = [
        (alg.mul(c, d), (x, y))
        for c, x in mu.terms
        for d, y in nu.terms
    ]
    return ElementaryValuation(prod, terms, alg, validate=False)
