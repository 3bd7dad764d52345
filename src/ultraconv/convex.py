"""Convex sets over a valued field.

A nonempty convex set is a translate of a module of the form

    K-span(free generators) + O-span(integral generators),

and the empty set is an explicit variant.  Operations include hulls of
finite point sets, quasi-balls, Radon certificates, Caratheodory reduction,
membership, intersection, subset and equality tests, and flag and box
presentations of the module part.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from .field import Field, FieldElement
from .linalg import (
    FREE,
    INTEGRAL,
    DimensionError,
    Matrix,
    OrthoBasis,
    ScaleSystem,
    Vector,
    _drop_step,
    _kept_basis,
    _ring_member,
    solve,
)

FULL = "full"
ONLY_INFINITY = "only-infinity"


def _groom_free(field: Field, v: Vector) -> Vector:
    """Rescale a line generator to integral entries of least valuation 0."""
    w = v.groomed()
    if w.is_zero:
        return w
    shift = w.val()
    if shift:
        w = w.scale(field.uniformizer_pow(-shift))
    return w


class MixedModule:
    """K-span of the free generators plus O-span of the integral ones.

    Construction builds the normal form, a valuation-orthogonal basis of the
    free generators and one of the integral generators reduced modulo the
    free pivots, by the elimination that also drops zero generators, those
    the minimal-valuation drop rule finds dependent, and integral ones
    inside the free subspace; spans are kept.  Membership and line
    containment are read off the normal form.
    """

    __slots__ = ("field", "dim", "free_gens", "integral_gens", "_free_basis", "_int_basis")

    def __init__(self, field: Field, dim: int,
                 free_gens: Sequence[Vector] = (),
                 integral_gens: Sequence[Vector] = ()):
        for v in list(free_gens) + list(integral_gens):
            if v.dim != dim:
                raise DimensionError("generator dimension mismatch")
            if v.field != field:
                raise ValueError("generator from a different field")
        self.field = field
        self.dim = dim
        free = [_groom_free(field, v) for v in free_gens]
        kept, self._free_basis = _kept_basis(field, dim, free, free, range(dim))
        self.free_gens = tuple(free[i] for i in kept)
        gens, reduced = [], []
        for g in (v.groomed() for v in integral_gens):
            rest = self._free_basis._reduce(g)[1]
            if not rest.is_zero:
                gens.append(g)
                reduced.append(rest)
        kept, self._int_basis = _kept_basis(field, dim, gens, reduced, range(dim))
        self.integral_gens = tuple(gens[i] for i in kept)

    def normal_form(self) -> Tuple[OrthoBasis, OrthoBasis]:
        """(free basis, orthogonal basis of the integral part reduced modulo
        the free pivots).  The two pivot sets are disjoint."""
        return self._free_basis, self._int_basis

    # membership -------------------------------------------------------------

    def member(self, x: Vector) -> bool:
        """Membership decided through the normal form."""
        if x.dim != self.dim:
            raise DimensionError("point dimension mismatch")
        return _ring_member(x, self._free_basis._ring_rows(), self._int_basis._ring_rows())

    def contains_line(self, v: Vector) -> bool:
        """Whether the whole line K*v lies inside the module."""
        return _ring_member(v, self._free_basis._ring_rows(), ())


class ConvexSet:
    """Either empty, or translate + module."""

    __slots__ = ("field", "dim", "translate", "module")

    def __init__(self, field: Field, dim: int,
                 translate: Optional[Vector], module: Optional[MixedModule]):
        self.field = field
        self.dim = dim
        self.translate = translate
        self.module = module
        if (translate is None) != (module is None):
            raise ValueError("translate and module must be both present or both absent")
        if translate is not None and translate.dim != dim:
            raise DimensionError("translate dimension mismatch")

    @classmethod
    def empty(cls, field: Field, dim: int) -> "ConvexSet":
        return cls(field, dim, None, None)

    @classmethod
    def of(cls, translate: Vector, module: MixedModule) -> "ConvexSet":
        return cls(module.field, module.dim, translate, module)

    @classmethod
    def point(cls, x: Vector) -> "ConvexSet":
        return cls(x.field, x.dim, x, MixedModule(x.field, x.dim))

    @property
    def is_empty(self) -> bool:
        return self.translate is None

    def a_point(self) -> Vector:
        if self.is_empty:
            raise ValueError("the empty set has no points")
        return self.translate

    def contains(self, x: Vector) -> bool:
        if x.dim != self.dim:
            raise DimensionError("point dimension mismatch")
        if self.is_empty:
            return False
        return self.module.member(x - self.translate)

    def translate_by(self, a: Vector) -> "ConvexSet":
        if self.is_empty:
            return self
        return ConvexSet.of(self.translate + a, self.module)

    def __repr__(self) -> str:
        if self.is_empty:
            return f"ConvexSet(empty, dim={self.dim})"
        return (
            f"ConvexSet(t={self.translate!r}, free={len(self.module.free_gens)}, "
            f"integral={len(self.module.integral_gens)})"
        )


# ---------------------------------------------------------------------------
# constructors

def conv_hull(points: Sequence[Vector], field: Optional[Field] = None,
              dim: Optional[int] = None) -> ConvexSet:
    """Convex hull of finitely many points: the first point translated by
    the O-span of the differences to it."""
    if not points:
        if field is None or dim is None:
            raise ValueError("empty hull needs an explicit field and dimension")
        return ConvexSet.empty(field, dim)
    base = points[0]
    diffs = [p - base for p in points[1:]]
    module = MixedModule(base.field, base.dim, (), diffs)
    return ConvexSet.of(base, module)


def quasi_ball(center: Vector, radius: Union[int, str]) -> ConvexSet:
    """Points whose difference from the center has valuation >= radius;
    radius FULL gives the whole space."""
    field, d = center.field, center.dim
    units = [Vector.unit(field, d, i) for i in range(d)]
    if radius == FULL:
        module = MixedModule(field, d, units, ())
    elif isinstance(radius, int):
        pi_r = field.uniformizer_pow(radius)
        module = MixedModule(field, d, (), [u.scale(pi_r) for u in units])
    else:
        raise ValueError(f"bad radius {radius!r}")
    return ConvexSet.of(center, module)


# ---------------------------------------------------------------------------
# Radon and Caratheodory

class RadonCertificate:
    """Writes one point of a list as an integral combination, summing to 1,
    of the remaining points."""

    __slots__ = ("index", "coefficients")

    def __init__(self, index: int, coefficients: Sequence[FieldElement]):
        self.index = index
        self.coefficients = tuple(coefficients)

    def __repr__(self) -> str:
        return f"RadonCertificate(index={self.index}, coefficients={list(self.coefficients)!r})"


class TooFewPointsError(ValueError):
    """Not enough points for the requested construction."""


def _lifted(points: Sequence[Vector]) -> List[Vector]:
    """The points with a coordinate 1 appended: an affine dependency of the
    points is a linear dependency of these.  Points of unequal dimension
    raise ``DimensionError``."""
    field, d = points[0].field, points[0].dim
    if any(p.dim != d for p in points):
        raise DimensionError("points of unequal dimension")
    return [Vector(field, (*p, field.one)) for p in points]


def radon_point(points: Sequence[Vector]) -> RadonCertificate:
    """For at least d+2 points in dimension d, certify that one of them is
    an integral convex combination of the others.

    A nontrivial affine dependency sum a_i x_i = 0, sum a_i = 0 is read off
    the lifted points by the drop rule's step, which also names the index of
    minimal-valuation a_i (lowest index on ties); dividing by it makes every
    remaining coefficient integral.
    """
    if not points:
        raise TooFewPointsError("no points given")
    d, n = points[0].dim, len(points)
    if n < d + 2:
        raise TooFewPointsError(f"need at least {d + 2} points in dimension {d}, got {n}")
    a, best = _drop_step(points[0].field, _lifted(points), d + 1)
    pivot = a[best]
    return RadonCertificate(best, [-(a[j] / pivot) for j in range(n) if j != best])


def validate_radon(points: Sequence[Vector], cert: RadonCertificate) -> bool:
    """Recheck a certificate from scratch: integrality, sum 1, and the
    combination identity."""
    n = len(points)
    if not (0 <= cert.index < n) or len(cert.coefficients) != n - 1:
        return False
    field = points[0].field
    if any(not c.is_integral for c in cert.coefficients):
        return False
    if sum(cert.coefficients, field.zero) != field.one:
        return False
    others = [p for j, p in enumerate(points) if j != cert.index]
    combo = Matrix.from_cols(field, others, points[0].dim).mul_vec(
        Vector(field, cert.coefficients))
    return combo == points[cert.index]


def caratheodory_indices(points: Sequence[Vector]) -> List[int]:
    """Indices of a sublist of at most d+1 points with the same hull,
    obtained by repeatedly deleting the point the drop rule's step picks in
    an affine dependency of the remaining ones, as ``radon_point`` does."""
    if not points:
        return []
    field, d = points[0].field, points[0].dim
    lifted = _lifted(points)
    live = list(range(len(points)))
    while len(live) > d + 1:
        del live[_drop_step(field, [lifted[i] for i in live], d + 1)[1]]
    return live


# ---------------------------------------------------------------------------
# comparisons

def subset(c1: ConvexSet, c2: ConvexSet) -> bool:
    """Whether c1 is contained in c2.

    Containment of the free generators is decided exactly: K*v lies in a
    module precisely when v falls in its free subspace, which is read off
    the normal form.  (Probing finitely many scalings of v cannot certify
    this: a module like O * u/p^2 absorbs the scalings u/p and u/p^2 of u
    without containing the line K*u.)
    """
    if c1.dim != c2.dim:
        raise DimensionError("ambient dimension mismatch")
    if c1.is_empty:
        return True
    if c2.is_empty:
        return False
    if not c2.contains(c1.translate):
        return False
    m1, m2 = c1.module, c2.module
    return (all(m2.contains_line(v) for v in m1.free_gens)
            and all(m2.member(g) for g in m1.integral_gens))


def equals(c1: ConvexSet, c2: ConvexSet) -> bool:
    return subset(c1, c2) and subset(c2, c1)


# ---------------------------------------------------------------------------
# intersection

def _coset_shrink(module: "MixedModule", x: Vector) -> Vector:
    """A small representative of the coset x + module.

    Subtracts the full free-span component and the integral parts of the
    coefficients against the module's normal form; what is removed lies in
    the module, so the set x + module is unchanged.  Keeps coordinate sizes
    from compounding through chained intersections.
    """
    free_b, int_b = module.normal_form()
    if not len(free_b) and not len(int_b):
        return x
    ops = module.field.ops
    _, rest = free_b._reduce(x)
    cs, out = int_b._reduce(rest)
    for c, u in zip(cs, int_b.vectors):
        f = ops.sub(c, ops.integral_part(c))
        if not ops.is_zero(f):
            out = out + u._scale(f)
    return out


def _sum_system(c1: ConvexSet, c2: ConvexSet) -> Tuple[ScaleSystem, Optional[Vector]]:
    """The scale-constrained system over the generators of the first module
    and the negated generators of the second, with a box solution for the
    translate difference (None when the nonempty sets miss each other)."""
    m1, m2 = c1.module, c2.module
    cols = [*m1.free_gens, *m1.integral_gens] + [-v for v in m2.free_gens + m2.integral_gens]
    scales = ([FREE] * len(m1.free_gens) + [INTEGRAL] * len(m1.integral_gens)
              + [FREE] * len(m2.free_gens) + [INTEGRAL] * len(m2.integral_gens))
    G = Matrix.from_cols(c1.field, cols, nrows=c1.dim)
    sys = ScaleSystem(G, scales)
    return sys, sys.solve_box(c2.translate - c1.translate)


def intersect(c1: ConvexSet, c2: ConvexSet) -> ConvexSet:
    """Exact intersection.

    Nonempty exactly when the translate difference lies in the sum of the
    two modules; the common point and the intersection module are read off
    a scale-constrained system over the concatenated generators.
    """
    if c1.dim != c2.dim or c1.field != c2.field:
        raise DimensionError("cannot intersect sets from different ambients")
    if c1.is_empty:
        return c1
    if c2.is_empty:
        return c2
    field, d = c1.field, c1.dim
    sys, witness = _sum_system(c1, c2)
    if witness is None:
        return ConvexSet.empty(field, d)
    gens1 = c1.module.free_gens + c1.module.integral_gens
    G1 = Matrix.from_cols(field, gens1, nrows=d)

    def image1(c: Vector) -> Vector:
        return G1.mul_vec(c.project(range(len(gens1))))

    free = [image1(v) for v in sys.free_part]
    integral = [image1(v) for v in sys.integral_part]
    mod = MixedModule(field, d, free, integral)
    point = _coset_shrink(mod, c1.translate + image1(witness))
    return ConvexSet.of(point, mod)


# ---------------------------------------------------------------------------
# flag and box presentations

class FlagForm:
    """Ordered presentation of a module: full lines first, then integral
    directions u_i normalized to valuation 0 with weights gamma_i, so the
    module is  { sum c_i u_i :  c unrestricted on full entries,
    val(c_i) >= gamma_i on the others }."""

    __slots__ = ("field", "dim", "entries")

    def __init__(self, field: Field, dim: int,
                 entries: Sequence[Tuple[Vector, Union[str, int]]]):
        self.field = field
        self.dim = dim
        self.entries = tuple(entries)

    def gamma_multiset(self) -> Tuple[int, ...]:
        return tuple(sorted(g for _, g in self.entries if g != FULL))

    def member(self, x: Vector) -> bool:
        """Membership via coordinates in the entry vectors plus the
        per-entry valuation constraint.  Solves a fresh linear system, so it
        is an independent check against the solver-based membership."""
        got = solve(Matrix.from_cols(self.field, [v for v, _ in self.entries], nrows=x.dim), x)
        if got is None:
            return False
        for c, (_, delta) in zip(got[0], self.entries):
            if delta == FULL:
                continue
            if not c.val() >= delta:
                return False
        return True


def flag_decompose(c: ConvexSet) -> FlagForm:
    """Flag presentation of the module part of a nonempty convex set."""
    if c.is_empty:
        raise ValueError("the empty set has no flag decomposition")
    field = c.field
    free_basis, int_basis = c.module.normal_form()
    entries: List[Tuple[Vector, Union[str, int]]] = []
    for v in free_basis.vectors:
        entries.append((v, FULL))
    for u, g in zip(int_basis.vectors, int_basis.gammas):
        entries.append((u.scale(field.uniformizer_pow(-g)), g))
    return FlagForm(field, c.dim, entries)


class BoxPresentation:
    """An affine image of a product of one-dimensional valuation sets.

    ``deltas[i]`` is FULL, an integer g (valuation at least g), or
    ONLY_INFINITY (the coordinate is pinned to 0); the set equals
    translate + matrix * (product of the coordinate sets).
    """

    __slots__ = ("matrix", "translate", "deltas")

    def __init__(self, matrix: Matrix, translate: Vector,
                 deltas: Sequence[Union[str, int]]):
        self.matrix = matrix
        self.translate = translate
        self.deltas = tuple(deltas)


def box_presentation(c: ConvexSet) -> BoxPresentation:
    """Box presentation of a nonempty convex set, padding unused directions
    with ONLY_INFINITY columns."""
    if c.is_empty:
        raise ValueError("the empty set has no box presentation")
    field, d = c.field, c.dim
    flag = flag_decompose(c)
    cols = [v for v, _ in flag.entries]
    deltas: List[Union[str, int]] = [delta for _, delta in flag.entries]
    while len(cols) < d:
        cols.append(Vector.zero(field, d))
        deltas.append(ONLY_INFINITY)
    return BoxPresentation(Matrix.from_cols(field, cols, nrows=d), c.translate, deltas)
