"""Deterministic random instance generation.

All randomness flows through one ``random.Random`` (Mersenne Twister)
seeded with a 64-bit integer, so a fixed seed reproduces every instance
byte for byte.  Field elements are drawn as small exact fractions, then
shifted by a uniformizer power chosen uniformly in [-3, 3]:

* padic: numerator in [-1000, 1000], denominator in [1, 1000];
* ratfunc: numerator and denominator polynomials of degree at most 2 with
  integer coefficients of magnitude at most 9 (denominator nonzero).
"""
from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .field import Field, FieldElement
from .linalg import Matrix, Vector
from .convex import ConvexSet, MixedModule

_MASK64 = (1 << 64) - 1


class Sampler:
    """Seeded source of random field elements, vectors, modules and sets."""

    def __init__(self, field: Field, seed: int):
        self.field = field
        self.rng = random.Random(seed & _MASK64)

    # elements --------------------------------------------------------------

    def element(self, nonzero: bool = False) -> FieldElement:
        f = self.field
        while True:
            if f.kind == "padic":
                num = self.rng.randint(-1000, 1000)
                den = self.rng.randint(1, 1000)
                x = f.fraction(num, den)
            else:
                num = self._poly(allow_zero=True)
                den = self._poly(allow_zero=False)
                x = f.ratio(num, den)
            if x.is_zero:
                if nonzero:
                    continue
                return x
            shift = self.rng.randint(-3, 3)
            return x * f.uniformizer_pow(shift)

    def _poly(self, allow_zero: bool) -> List[int]:
        q = self.field.param
        while True:
            deg = self.rng.randint(0, 2)
            cs = [self.rng.randint(-9, 9) for _ in range(deg + 1)]
            if allow_zero:
                return cs
            if any(c % q for c in cs) if q else any(cs):
                return cs

    def integral_element(self) -> FieldElement:
        """An element of the valuation ring (possibly zero)."""
        x = self.element()
        v = x.val()
        if v >= 0:
            return x
        return x * self.field.uniformizer_pow(-v)

    def unit(self) -> FieldElement:
        """An element of valuation exactly 0."""
        x = self.element(nonzero=True)
        return x * self.field.uniformizer_pow(-x.val())

    # vectors and points ----------------------------------------------------

    def vector(self, d: int, nonzero: bool = False) -> Vector:
        while True:
            v = Vector(self.field, [self.element() for _ in range(d)])
            if not nonzero or not v.is_zero:
                return v

    def points(self, n: int, d: int) -> List[Vector]:
        return [self.vector(d) for _ in range(n)]

    # modules and convex sets -----------------------------------------------

    def module(self, d: int, max_free: int = 0) -> MixedModule:
        n_free = self.rng.randint(0, max_free) if max_free else 0
        n_int = self.rng.randint(0 if n_free else 1, d + 2)
        free = [self.vector(d, nonzero=True) for _ in range(n_free)]
        integral = [self.vector(d, nonzero=True) for _ in range(n_int)]
        return MixedModule(self.field, d, free, integral)

    def convex_set(self, d: int) -> ConvexSet:
        module = self.module(d, max_free=1)
        return ConvexSet.of(self.vector(d), module)

    def module_point(self, module: MixedModule) -> Vector:
        """A random element of the module: any combination of the free
        generators plus an integral combination of the integral ones."""
        gens = module.free_gens + module.integral_gens
        coeffs = ([self.element() for _ in module.free_gens]
                  + [self.integral_element() for _ in module.integral_gens])
        return Matrix.from_cols(self.field, gens, module.dim).mul_vec(Vector(self.field, coeffs))

    def hull_point(self, points: Sequence[Vector]) -> Vector:
        """A random 3-term integral combination of the given points with
        coefficient sum 1."""
        picks = [self.rng.randrange(len(points)) for _ in range(3)]
        a = self.integral_element()
        b = self.integral_element()
        c = self.field.one - a - b
        return Matrix.from_cols(self.field, [points[i] for i in picks]).mul_vec(
            Vector(self.field, [a, b, c]))

    def _unimodular(self, k: int, diagonal, entry, zero) -> list:
        """lo * hi with columns permuted: lo unit lower triangular, hi unit
        upper triangular, both drawn together row by row."""
        lo = [[zero] * k for _ in range(k)]
        hi = [[zero] * k for _ in range(k)]
        for i in range(k):
            lo[i][i] = diagonal()
            hi[i][i] = diagonal()
            for j in range(i):
                lo[i][j] = entry()
                hi[j][i] = entry()
        perm = list(range(k))
        self.rng.shuffle(perm)
        return [[sum((lo[i][m] * hi[m][perm[j]] for m in range(k)), zero) for j in range(k)]
                for i in range(k)]

    def unimodular_matrix(self, k: int) -> List[List[FieldElement]]:
        """A k x k matrix invertible over the valuation ring: a product of
        unit-diagonal triangular matrices and a permutation."""
        return self._unimodular(k, self.unit, self.integral_element, self.field.zero)

    def unimodular_int_matrix(self, k: int) -> List[List[FieldElement]]:
        """Ring-invertible matrix with small integer entries.

        Same triangular-times-permutation shape as unimodular_matrix, but
        the entries carry no uniformizer content, so re-presented
        generators keep their payload size over every backend.
        """
        ints = self._unimodular(k, lambda: self.rng.choice((-1, 1)),
                                lambda: self.rng.randint(-2, 2), 0)
        return [[self.field.from_int(x) for x in row] for row in ints]

    def common_point_family(self, n: int, d: int) -> Tuple["Family", Vector]:
        """A family sharing a hidden common point, with varied translates."""
        from .combinatorics import Family

        hidden = self.vector(d)
        members = []
        for _ in range(n):
            module = self.module(d, max_free=1 if self.rng.random() < 0.3 else 0)
            offset = self.module_point(module)
            members.append(ConvexSet.of(hidden - offset, module))
        return Family(self.field, d, members), hidden
