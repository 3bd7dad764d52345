"""Exact linear algebra over a valued field.

Everything here is generic over :class:`~ultraconv.field.Field` elements and
works by exact elimination (divisions are exact in the field).  Each
elimination keeps only the rows it answers from; no transform or
expression list is carried alongside.  This module provides:

* ``LinearSolver``: the reduced row echelon form of a matrix, its kernel,
  and particular solutions read off the reduced form of [A | b]; its row
  operations act on raw payloads through the field's operation table,
* ``independent_indices``: the one dependency-drop rule (drop the
  coefficient of least valuation in the first kernel vector), which keeps
  both the K-span and the O-span of a list of vectors,
* ``orthogonalize``: a valuation-orthogonal basis of the O-span of a list of
  vectors, built by valuation-pivoted elimination after that rule, with
  valuations and pivots read on all coordinates or on a chosen subset; its
  weights gamma_i are ints, the valuations of the basis vectors,
* ``ScaleSystem`` (``constrained_kernel`` / ``mixed_solve``): kernels and
  affine systems where a chosen subset of coordinates is constrained to
  the valuation ring O.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .field import Field, FieldElement, INFINITY


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


class Vector:
    """An immutable vector with entries in one field."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords: Iterable[FieldElement]):
        self.field = field
        self.coords = tuple(coords)

    @classmethod
    def zero(cls, field: Field, dim: int) -> "Vector":
        return cls(field, (field.zero,) * dim)

    @classmethod
    def unit(cls, field: Field, dim: int, index: int) -> "Vector":
        z, o = field.zero, field.one
        return cls(field, tuple(o if i == index else z for i in range(dim)))

    @classmethod
    def from_ints(cls, field: Field, values: Sequence[int]) -> "Vector":
        return cls(field, tuple(field.from_int(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> FieldElement:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector(self.field, tuple(-a for a in self.coords))

    def scale(self, c: FieldElement) -> "Vector":
        c = self.field.coerce(c)
        return Vector(self.field, tuple(c * a for a in self.coords))

    def _check(self, other: "Vector") -> None:
        if self.field != other.field:
            raise ValueError("mixed fields in vector arithmetic")
        if len(self.coords) != len(other.coords):
            raise DimensionError(
                f"dimension mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def val(self) -> int:
        """Minimum coordinate valuation, an int; INFINITY for the zero vector."""
        out = INFINITY
        for a in self.coords:
            v = a.val()
            if v < out:
                out = v
        return out

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.coords)

    def project(self, indices: Sequence[int]) -> "Vector":
        return Vector(self.field, tuple(self.coords[i] for i in indices))

    def groomed(self) -> "Vector":
        """Rescale by a unit so accumulated denominators cancel.

        Valuations, spans and O-multiples are unchanged; only the size of
        the stored payloads shrinks.
        """
        u = self.field.grooming_unit(list(self.coords))
        if u == self.field.one:
            return self
        return self.scale(u)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def render(self) -> List[str]:
        return [a.render() for a in self.coords]

    def __repr__(self) -> str:
        return "(" + ", ".join(self.render()) + ")"


class Matrix:
    """An immutable matrix with entries in one field, stored by rows."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: Field, rows: Sequence[Sequence[FieldElement]], ncols: Optional[int] = None):
        self.field = field
        self.entries = tuple(tuple(r) for r in rows)
        self.nrows = len(self.entries)
        if self.nrows:
            widths = {len(r) for r in self.entries}
            if len(widths) != 1:
                raise DimensionError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise DimensionError("declared column count does not match rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Vector], nrows: Optional[int] = None) -> "Matrix":
        if not cols:
            if nrows is None:
                raise DimensionError("cannot infer row count of an empty matrix")
            return cls(field, [()] * nrows, ncols=0)
        m = cols[0].dim
        for c in cols:
            if c.dim != m:
                raise DimensionError("columns of unequal dimension")
        rows = [tuple(c[i] for c in cols) for i in range(m)]
        return cls(field, rows, ncols=len(cols))

    def col(self, j: int) -> Vector:
        return Vector(self.field, tuple(r[j] for r in self.entries))

    def mul_vec(self, v: Vector) -> Vector:
        if v.dim != self.ncols:
            raise DimensionError("matrix-vector dimension mismatch")
        out = []
        for r in self.entries:
            acc = self.field.zero
            for a, b in zip(r, v.coords):
                if not (a.is_zero or b.is_zero):
                    acc = acc + a * b
            out.append(acc)
        return Vector(self.field, out)

    def render(self) -> List[List[str]]:
        return [[a.render() for a in r] for r in self.entries]

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"


class LinearSolver:
    """The reduced row echelon form of a matrix A, with its kernel and
    particular solutions of A c = b.

    Row operations act on raw payloads through ``field.ops``, one code path
    for every field; ``reduced`` holds payloads, and ``solve`` and
    ``kernel`` wrap what they return as field elements.  Only row
    operations on A itself are kept; each right-hand side is appended to A
    as a last column and reduced afresh.  The reduced form is unique, so
    answers do not depend on how the reduction is ordered.
    """

    def __init__(self, A: Matrix):
        self.A = A
        self.field = A.field
        ops = A.field.ops
        mul, sub, inv, is_zero = ops.mul, ops.sub, ops.inv, ops.is_zero
        m, n = A.nrows, A.ncols
        red = [[a.data for a in r] for r in A.entries]
        pivots: List[Tuple[int, int]] = []  # (row, col), rows in order 0..rank-1
        rank = 0
        for col in range(n):
            sel = None
            for r in range(rank, m):
                if not is_zero(red[r][col]):
                    sel = r
                    break
            if sel is None:
                continue
            if sel != rank:
                red[rank], red[sel] = red[sel], red[rank]
            # the pivot row vanishes left of col, so row operations start there
            row = red[rank]
            c = inv(row[col])
            piv = [mul(c, a) for a in row[col:]]
            row[col:] = piv
            for r in range(m):
                if r == rank:
                    continue
                row = red[r]
                f = row[col]
                if is_zero(f):
                    continue
                row[col:] = [a if is_zero(b) else sub(a, mul(f, b))
                             for a, b in zip(row[col:], piv)]
            pivots.append((rank, col))
            rank += 1
            if rank == m:
                break
        self.reduced = red
        self.pivots = pivots
        self.rank = rank
        pivot_cols = {c for _, c in pivots}
        self.free_cols = [c for c in range(n) if c not in pivot_cols]

    def solve(self, b: Vector) -> Optional[Vector]:
        """A particular solution with free coordinates set to 0, or None.

        Reduces [A | b]: b is outside the column space exactly when the
        last column becomes a pivot; otherwise that column holds the
        solution's pivot coordinates.
        """
        A = self.A
        if b.dim != A.nrows:
            raise DimensionError("right-hand side dimension mismatch")
        field = self.field
        n = A.ncols
        aug = LinearSolver(Matrix(field, [r + (x,) for r, x in zip(A.entries, b.coords)],
                                  ncols=n + 1))
        if aug.pivots and aug.pivots[-1][1] == n:
            return None
        out = [field.zero] * n
        for r, c in aug.pivots:
            out[c] = FieldElement(field, aug.reduced[r][n])
        return Vector(field, out)

    def kernel(self) -> List[Vector]:
        """A basis of the kernel, one vector per free column, in column order."""
        field = self.field
        ops = field.ops
        n = self.A.ncols
        out = []
        for f in self.free_cols:
            v = [field.zero] * n
            v[f] = field.one
            for r, c in self.pivots:
                entry = self.reduced[r][f]
                if not ops.is_zero(entry):
                    v[c] = FieldElement(field, ops.neg(entry))
            out.append(Vector(field, v))
        return out


def solve(A: Matrix, b: Vector) -> Optional[Tuple[Vector, List[Vector]]]:
    """Particular solution of A c = b plus a kernel basis, or None."""
    s = LinearSolver(A)
    part = s.solve(b)
    if part is None:
        return None
    return part, s.kernel()


def coords(basis: Sequence[Vector], x: Vector, field: Optional[Field] = None) -> Optional[Vector]:
    """Coefficients expressing x in a linearly independent family, or None."""
    if field is None:
        if not basis:
            raise ValueError("cannot infer field from an empty basis")
        field = basis[0].field
    A = Matrix.from_cols(field, list(basis), nrows=x.dim)
    got = solve(A, x)
    if got is None:
        return None
    part, ker = got
    if ker:
        raise ValueError("coords requires a linearly independent family")
    return part


class OrthoBasis:
    """A valuation-orthogonal family: vectors u_i with pivot coordinates
    pi(i) and int weights gamma_i = val(u_i) such that

        val(sum c_i u_i) = min_i (val(c_i) + gamma_i).

    Valuations are taken on the coordinates the family was orthogonalized
    on (all of them unless ``orthogonalize`` was given ``on``).  Later
    vectors vanish on every earlier pivot coordinate, so coefficients can
    be read off by successive pivot elimination.
    """

    __slots__ = ("field", "dim", "vectors", "pivot_indices", "gammas")

    def __init__(self, field: Field, dim: int, vectors: Sequence[Vector],
                 pivot_indices: Sequence[int], gammas: Sequence[int]):
        self.field = field
        self.dim = dim
        self.vectors = tuple(vectors)
        self.pivot_indices = tuple(pivot_indices)
        self.gammas = tuple(gammas)

    def __len__(self) -> int:
        return len(self.vectors)

    def reduce(self, x: Vector) -> Tuple[List[FieldElement], Vector]:
        """Coefficients c_i and the residual x - sum c_i u_i, which vanishes
        on every pivot coordinate."""
        cs = []
        rest = x
        for u, p in zip(self.vectors, self.pivot_indices):
            top = rest[p]
            if top.is_zero:
                cs.append(self.field.zero)
                continue
            c = top / u[p]
            cs.append(c)
            rest = rest - u.scale(c)
        return cs, rest

    def coefficients(self, x: Vector) -> Optional[List[FieldElement]]:
        """Coefficients of x in the family, or None when x is outside its span."""
        cs, rest = self.reduce(x)
        if not rest.is_zero:
            return None
        return cs

    def spans_integrally(self, x: Vector) -> bool:
        """Membership of x in the O-span of the family."""
        cs = self.coefficients(x)
        if cs is None:
            return False
        return all(c.val() >= 0 for c in cs)

    def gamma_multiset(self) -> Tuple[int, ...]:
        return tuple(sorted(self.gammas))


def least_valuation_index(items: Sequence) -> int:
    """Index of the item (field element or vector) of least valuation,
    lowest index on ties."""
    return min(range(len(items)), key=lambda i: items[i].val())


def independent_indices(field: Field, vectors: Sequence[Vector]) -> List[int]:
    """Indices of a maximal linearly independent sublist.

    The drop rule: while the kept vectors are dependent, take the first
    kernel vector of their column matrix and drop the vector whose
    coefficient has least valuation (lowest index on ties).  Dividing the
    dependency by that coefficient writes the dropped vector as an
    O-combination of the others, so both the K-span and the O-span are kept.
    """
    keep = list(range(len(vectors)))
    while keep:
        A = Matrix.from_cols(field, [vectors[i] for i in keep], nrows=vectors[0].dim)
        ker = LinearSolver(A).kernel()
        if not ker:
            break
        del keep[least_valuation_index(ker[0].coords)]
    return keep


def orthogonalize(vectors: Sequence[Vector], field: Optional[Field] = None,
                  on: Optional[Sequence[int]] = None) -> OrthoBasis:
    """A valuation-orthogonal basis of the O-span of the given vectors.

    Valuations, pivots and the drop rule read only the coordinates listed
    in ``on`` (default: all of them), while every row operation acts on
    whole vectors.  The returned vectors are combinations of the inputs
    whose projections onto ``on`` form a valuation-orthogonal basis of the
    O-span of the projected inputs; pivots index the whole vectors and
    weights are valuations of the projections.

    Dependent vectors are absorbed first by ``independent_indices``, which
    keeps the O-span exactly; eliminating with a chosen vector keeps the
    rest independent, so nothing is dropped after that.
    """
    if field is None:
        if not vectors:
            raise ValueError("cannot infer field from an empty list")
        field = vectors[0].field
    dim = vectors[0].dim if vectors else 0
    for v in vectors:
        if v.dim != dim:
            raise DimensionError("vectors of unequal dimension")
    if on is None:
        on = range(dim)
    work = [vectors[i] for i in independent_indices(field, [v.project(on) for v in vectors])]
    out_vecs: List[Vector] = []
    out_pivots: List[int] = []
    out_gammas: List[int] = []
    while work:
        projected = [w.project(on) for w in work]
        k = least_valuation_index(projected)
        u, gamma = work.pop(k), projected[k].val()
        # pivot: least coordinate index realizing the projected valuation
        pivot = on[next(j for j, a in enumerate(projected[k]) if a.val() == gamma)]
        inv_top = u[pivot].inverse()
        for i, w in enumerate(work):
            top = w[pivot]
            if not top.is_zero:
                work[i] = w - u.scale(top * inv_top)
        out_vecs.append(u)
        out_pivots.append(pivot)
        out_gammas.append(gamma)
    return OrthoBasis(field, dim, out_vecs, out_pivots, out_gammas)


FREE = "free"
INTEGRAL = "integral"


class ScaleSystem:
    """Solver for G c = x with the coordinates of c marked ``INTEGRAL``
    constrained to the valuation ring (``FREE`` coordinates unconstrained).

    The kernel of G splits into a fully free part (supported on FREE
    coordinates only) and a complement; the complement is orthogonalized
    once on the integral coordinates, after which each box query costs one
    solve and one reduction.
    """

    def __init__(self, G: Matrix, scales: Sequence[str]):
        if len(scales) != G.ncols:
            raise DimensionError("one scale marker per column is required")
        for s in scales:
            if s not in (FREE, INTEGRAL):
                raise ValueError(f"unknown scale marker {s!r}")
        field = self.field = G.field
        self.solver = LinearSolver(G)
        kernel = self.solver.kernel()
        self.int_indices = [i for i, s in enumerate(scales) if s == INTEGRAL]
        K = Matrix.from_cols(field, kernel, nrows=G.ncols)
        P = Matrix.from_cols(field, [b.project(self.int_indices) for b in kernel],
                             nrows=len(self.int_indices))
        psolver = LinearSolver(P)
        # kernel of the projection = combinations supported on FREE coordinates
        self.free_part = [K.mul_vec(beta) for beta in psolver.kernel()]
        # pivot columns pick a complement of that kernel, whose projections
        # are independent
        complement = [kernel[c] for _, c in psolver.pivots]
        self._ortho = orthogonalize(complement, field=field, on=self.int_indices)
        # integral points of the complement: rescale each basis vector to
        # valuation 0 on the integral coordinates, by its weight
        self.integral_part = [
            w.scale(field.uniformizer_pow(-g))
            for w, g in zip(self._ortho.vectors, self._ortho.gammas)
        ]

    def solve_box(self, x: Vector) -> Optional[Vector]:
        """Some c with G c = x and integral coordinates in O, else None."""
        c0 = self.solver.solve(x)
        if c0 is None:
            return None
        # the residual's integral coordinates have maximal valuation in the
        # coset of the projected complement, so a box point exists exactly
        # when they are integral
        _, out = self._ortho.reduce(c0)
        if out.project(self.int_indices).val() >= 0:
            return out
        return None


def constrained_kernel(G: Matrix, scales: Sequence[str]) -> Tuple[List[Vector], List[Vector]]:
    """Generators of {c : G c = 0, c_i in O for INTEGRAL i} as a pair
    (free basis, integral generators)."""
    sys = ScaleSystem(G, scales)
    return sys.free_part, sys.integral_part


def mixed_solve(G: Matrix, scales: Sequence[str], x: Vector) -> Optional[Vector]:
    """Some c with G c = x whose INTEGRAL coordinates lie in O, else None."""
    return ScaleSystem(G, scales).solve_box(x)
