"""Exact linear algebra over a valued field.

Vectors and matrices hold raw payloads, and every operation acts on them
through the field's operation table (``field.ops``).  ``FieldElement``
appears only at the API: public constructors take elements of the one
field, and entries are wrapped as elements only when read.  Divisions are
exact.  It provides:

* ``LinearSolver``: the reduced row echelon form of a matrix and its
  kernel; ``solve`` reads a particular solution of A c = b and the kernel
  of A off the one reduced form of [A | b],
* ``independent_indices``: the one dependency-drop rule (drop the
  coefficient of least valuation in the first kernel vector), which keeps
  both the K-span and the O-span of a list of vectors; the Radon and
  Caratheodory reductions in ``convex`` take the same step,
* ``orthogonalize``: a valuation-orthogonal basis of the O-span of a list
  of vectors, with valuations and pivots read on all coordinates or on a
  chosen subset and int weights gamma_i; it runs the drop rule only when
  elimination shows the list dependent, and ``convex`` builds its modules'
  kept generators and normal form by the same step,
* ``ScaleSystem``: kernels and affine systems where a chosen subset of
  coordinates is constrained to the valuation ring O, with each part
  reduced when first asked for,
* ``_ring_member``: the one membership decision, for
  ``OrthoBasis.spans_integrally`` and, in ``convex``, ``MixedModule.member``
  and ``contains_line``.  It runs ``OrthoBasis._reduce``'s reduction in
  the payloads' ring (Z for padic, Z[t] or F_q[t] for ratfunc) with no gcd:
  each basis clears its denominators once, the point is cleared the same
  way, each step scales the point by the pivot entry instead of dividing,
  and only the valuation of that running scale is kept, which is all the
  integrality test needs.  ``_reduce`` stays at payload level for callers
  that need its coefficients or residual.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

from .field import Field, FieldElement, INFINITY


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


def _same_field(field: Field, other: Field) -> None:
    if other is not field and other != field:
        raise ValueError(f"mixed fields: {field.selector} vs {other.selector}")


def _sub_multiple(ops, x, c, y) -> tuple:
    """The payloads of x - c*y, skipping the zero entries of y."""
    is_zero, mul, sub = ops.is_zero, ops.mul, ops.sub
    return tuple([a if is_zero(b) else sub(a, mul(c, b)) for a, b in zip(x, y)])


def _vector(field: Field, data: tuple) -> "Vector":
    v = Vector.__new__(Vector)
    v.field = field
    v._data = data
    return v


class Vector:
    """An immutable vector with entries in one field, stored as payloads."""

    __slots__ = ("field", "_data")

    def __init__(self, field: Field, coords: Iterable[FieldElement]):
        self.field = field
        self._data = tuple(field.coerce(a).data for a in coords)

    @classmethod
    def zero(cls, field: Field, dim: int) -> "Vector":
        return _vector(field, (field.zero.data,) * dim)

    @classmethod
    def unit(cls, field: Field, dim: int, index: int) -> "Vector":
        z, o = field.zero.data, field.one.data
        return _vector(field, tuple(o if i == index else z for i in range(dim)))

    @classmethod
    def from_ints(cls, field: Field, values: Sequence[int]) -> "Vector":
        return _vector(field, tuple(map(field.ops.from_int, values)))

    @property
    def coords(self) -> Tuple[FieldElement, ...]:
        return tuple(self)

    @property
    def dim(self) -> int:
        return len(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, i: int) -> FieldElement:
        return FieldElement(self.field, self._data[i])

    def __iter__(self):
        return (FieldElement(self.field, a) for a in self._data)

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return _vector(self.field, tuple(map(self.field.ops.add, self._data, other._data)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return _vector(self.field, tuple(map(self.field.ops.sub, self._data, other._data)))

    def __neg__(self) -> "Vector":
        return _vector(self.field, tuple(map(self.field.ops.neg, self._data)))

    def scale(self, c: FieldElement) -> "Vector":
        return self._scale(self.field.coerce(c).data)

    def _scale(self, c) -> "Vector":
        mul = self.field.ops.mul
        return _vector(self.field, tuple(mul(c, a) for a in self._data))

    def _check(self, other: "Vector") -> None:
        _same_field(self.field, other.field)
        if len(self._data) != len(other._data):
            raise DimensionError(f"dimension mismatch: {len(self._data)} vs {len(other._data)}")

    def val(self) -> int:
        """Minimum coordinate valuation, an int; INFINITY for the zero vector."""
        return min(map(self.field.ops.val, self._data), default=INFINITY)

    @property
    def is_zero(self) -> bool:
        return all(map(self.field.ops.is_zero, self._data))

    def project(self, indices: Sequence[int]) -> "Vector":
        return _vector(self.field, tuple(map(self._data.__getitem__, indices)))

    def groomed(self) -> "Vector":
        """Rescale by a unit so accumulated denominators cancel.

        Valuations, spans and O-multiples are unchanged; only the size of
        the stored payloads shrinks.
        """
        ops = self.field.ops
        nonzero = [a for a in self._data if not ops.is_zero(a)]
        u = ops.grooming_unit(nonzero) if nonzero else self.field.one.data
        return self if u == self.field.one.data else self._scale(u)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self._data == other._data and (
            self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field, self._data))

    def render(self) -> List[str]:
        return [a.render() for a in self]

    def __repr__(self) -> str:
        return "(" + ", ".join(self.render()) + ")"


def _matrix(field: Field, rows: Sequence[tuple], ncols: int) -> "Matrix":
    M = Matrix.__new__(Matrix)
    M.field, M._rows, M.nrows, M.ncols = field, tuple(rows), len(rows), ncols
    return M


class Matrix:
    """An immutable matrix with entries in one field, stored as payload rows."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: Field, rows: Sequence[Sequence[FieldElement]], ncols: Optional[int] = None):
        self.field = field
        self._rows = tuple(tuple(field.coerce(a).data for a in r) for r in rows)
        self.nrows = len(self._rows)
        if self.nrows:
            widths = {len(r) for r in self._rows}
            if len(widths) != 1:
                raise DimensionError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise DimensionError("declared column count does not match rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @property
    def entries(self) -> Tuple[Tuple[FieldElement, ...], ...]:
        return tuple(tuple(FieldElement(self.field, a) for a in r) for r in self._rows)

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Vector], nrows: Optional[int] = None) -> "Matrix":
        if not cols:
            if nrows is None:
                raise DimensionError("cannot infer row count of an empty matrix")
            return _matrix(field, [()] * nrows, 0)
        m = cols[0].dim
        for c in cols:
            _same_field(field, c.field)
            if c.dim != m:
                raise DimensionError("columns of unequal dimension")
        return _matrix(field, list(zip(*(c._data for c in cols))), len(cols))

    def col(self, j: int) -> Vector:
        return _vector(self.field, tuple(r[j] for r in self._rows))

    def mul_vec(self, v: Vector) -> Vector:
        _same_field(self.field, v.field)
        if v.dim != self.ncols:
            raise DimensionError("matrix-vector dimension mismatch")
        ops = self.field.ops
        add, mul, is_zero = ops.add, ops.mul, ops.is_zero
        out = []
        for r in self._rows:
            acc = self.field.zero.data
            for a, b in zip(r, v._data):
                if not (is_zero(a) or is_zero(b)):
                    acc = add(acc, mul(a, b))
            out.append(acc)
        return _vector(self.field, tuple(out))

    def render(self) -> List[List[str]]:
        return [[a.render() for a in r] for r in self.entries]

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"


class LinearSolver:
    """The reduced row echelon form of a matrix A, as payload rows
    (``reduced``), and its kernel.  The reduced form is unique, so answers
    do not depend on how the reduction is ordered.
    """

    def __init__(self, A: Matrix):
        self.A = A
        self.field = A.field
        ops = A.field.ops
        mul, inv, is_zero = ops.mul, ops.inv, ops.is_zero
        m, n = A.nrows, A.ncols
        red = [list(r) for r in A._rows]
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
                f = red[r][col]
                if r != rank and not is_zero(f):
                    red[r][col:] = _sub_multiple(ops, red[r][col:], f, piv)
            pivots.append((rank, col))
            rank += 1
            if rank == m:
                break
        self.reduced = red
        self.pivots = pivots
        self.rank = rank
        pivot_cols = {c for _, c in pivots}
        self.free_cols = [c for c in range(n) if c not in pivot_cols]

    def kernel(self) -> List[Vector]:
        """A basis of the kernel, one vector per free column, in column order."""
        field, ops = self.field, self.field.ops
        n = self.A.ncols
        out = []
        for f in self.free_cols:
            v = [field.zero.data] * n
            v[f] = field.one.data
            for r, c in self.pivots:
                entry = self.reduced[r][f]
                if not ops.is_zero(entry):
                    v[c] = ops.neg(entry)
            out.append(_vector(field, tuple(v)))
        return out


def solve(A: Matrix, b: Vector) -> Optional[Tuple[Vector, List[Vector]]]:
    """A particular solution of A c = b, with free coordinates 0, and a
    kernel basis of A; None when b is outside the column space.

    One reduction of [A | b] gives both: its first columns are the reduced
    A, b is outside the column space when the last column is a pivot, and
    otherwise that column's kernel vector is (-c, 1) for the solution c.
    """
    _same_field(A.field, b.field)
    if b.dim != A.nrows:
        raise DimensionError("right-hand side dimension mismatch")
    n = A.ncols
    aug = LinearSolver(_matrix(A.field, [r + (x,) for r, x in zip(A._rows, b._data)], n + 1))
    if aug.free_cols[-1:] != [n]:
        return None
    *ker, last = aug.kernel()
    return (-last).project(range(n)), [k.project(range(n)) for k in ker]


class OrthoBasis:
    """A valuation-orthogonal family: vectors u_i with pivot coordinates
    pi(i) and int weights gamma_i = val(u_i) such that

        val(sum c_i u_i) = min_i (val(c_i) + gamma_i).

    Valuations are taken on the coordinates the family was orthogonalized
    on (all of them unless ``orthogonalize`` was given ``on``).  Later
    vectors vanish on every earlier pivot coordinate, so coefficients can
    be read off by successive pivot elimination.
    """

    __slots__ = ("field", "dim", "vectors", "pivot_indices", "gammas", "_ring")

    def __init__(self, field: Field, dim: int, vectors: Sequence[Vector],
                 pivot_indices: Sequence[int], gammas: Sequence[int]):
        self.field = field
        self.dim = dim
        self.vectors = tuple(vectors)
        self.pivot_indices = tuple(pivot_indices)
        self.gammas = tuple(gammas)
        self._ring = None

    def __len__(self) -> int:
        return len(self.vectors)

    def _reduce(self, x: Vector) -> Tuple[list, Vector]:
        """Payload coefficients c_i and the residual x - sum c_i u_i."""
        ops = self.field.ops
        cs = []
        rest = x._data
        for u, p in zip(self.vectors, self.pivot_indices):
            c = rest[p]
            if not ops.is_zero(c):
                c = ops.div(c, u._data[p])
                rest = _sub_multiple(ops, rest, c, u._data)
            cs.append(c)
        return cs, _vector(self.field, rest)

    def reduce(self, x: Vector) -> Tuple[List[FieldElement], Vector]:
        """Coefficients c_i and the residual x - sum c_i u_i, which vanishes
        on every pivot coordinate."""
        cs, rest = self._reduce(x)
        return [FieldElement(self.field, c) for c in cs], rest

    def coefficients(self, x: Vector) -> Optional[List[FieldElement]]:
        """Coefficients of x in the family, or None when x is outside its span."""
        cs, rest = self.reduce(x)
        return cs if rest.is_zero else None

    def spans_integrally(self, x: Vector) -> bool:
        """Membership of x in the O-span of the family."""
        return _ring_member(x, (), self._ring_rows())

    def _ring_rows(self) -> tuple:
        """The vectors with their denominators cleared, once, on first use:
        per vector its ring row U, pivot coordinate p, pivot entry U[p], the
        valuation of U[p] and that of the cleared denominator."""
        if self._ring is None:
            ops, rows = self.field.ops, []
            for u, p in zip(self.vectors, self.pivot_indices):
                U, val_den = ops._ring_clear(u._data)
                rows.append((U, p, U[p], ops._ring_val(U[p]), val_den))
            self._ring = tuple(rows)
        return self._ring

    def gamma_multiset(self) -> Tuple[int, ...]:
        return tuple(sorted(self.gammas))


def _ring_member(x: Vector, free: Sequence[tuple], integral: Sequence[tuple]) -> bool:
    """Whether x lies in the K-span of the ``free`` rows plus the O-span of
    the ``integral`` rows (``OrthoBasis._ring_rows``), each row vanishing on
    the pivots of the rows before it.

    The reduction is ``OrthoBasis._reduce``'s, run in the payloads' ring
    with no gcd.  With x = X / S and a row u = U / L whose pivot entry is
    a = U[p], the step at b = X[p] is X <- a*X - b*U and S <- S*a.  Its
    coefficient b*L / (S*a) has valuation val(b) + val(L) - val(S) - val(a),
    so only val(S) is kept.  An integral row with a coefficient of negative
    valuation answers False; otherwise x is in the span exactly when the
    final X is zero.
    """
    ops = x.field.ops
    ring_val, comb = ops._ring_val, ops._ring_comb
    rest, val_scale = ops._ring_clear(x._data)
    for rows, integral_rows in ((free, False), (integral, True)):
        for U, p, a, val_a, val_den in rows:
            b = rest[p]
            if b:
                if integral_rows and ring_val(b) + val_den - val_scale - val_a < 0:
                    return False
                rest = comb(a, rest, b, U)
                val_scale += val_a
    return not any(rest)


def least_valuation_index(vals: Sequence[int]) -> int:
    """Index of the least of the given valuations, lowest index on ties."""
    return min(range(len(vals)), key=vals.__getitem__)


def _drop_step(field: Field, cols: Sequence[Vector], nrows: int) -> Optional[Tuple[Vector, int]]:
    """One step of the drop rule: the first kernel vector of the column
    matrix and the index of its coefficient of least valuation (lowest
    index on ties), or None when the columns are independent.  Dividing the
    dependency by that coefficient makes every other one integral, so the
    column at the index is an O-combination of the others."""
    ker = LinearSolver(Matrix.from_cols(field, cols, nrows=nrows)).kernel()
    if not ker:
        return None
    return ker[0], least_valuation_index(list(map(field.ops.val, ker[0]._data)))


def independent_indices(field: Field, vectors: Sequence[Vector]) -> List[int]:
    """Indices of a maximal linearly independent sublist, by the drop rule
    (``_drop_step``) while the kept vectors are dependent; both the K-span
    and the O-span are kept.

    Zero vectors go first: a zero column is never a pivot, so the rule drops
    each of them, and drops the same nonzero vectors as without them.
    """
    keep = [i for i, v in enumerate(vectors) if not v.is_zero]
    while len(keep) > 1:
        step = _drop_step(field, [vectors[i] for i in keep], vectors[0].dim)
        if step is None:
            break
        del keep[step[1]]
    return keep


def orthogonalize(vectors: Sequence[Vector], field: Optional[Field] = None,
                  on: Optional[Sequence[int]] = None) -> OrthoBasis:
    """A valuation-orthogonal basis of the O-span of the given vectors.

    Valuations and pivots read only the coordinates listed in ``on``
    (default: all of them), while every row operation acts on whole
    vectors.  The returned vectors are combinations of the inputs whose
    projections onto ``on`` form a valuation-orthogonal basis of the O-span
    of the projected inputs; pivots index the whole vectors and weights are
    valuations of the projections.  The drop rule runs on the projections
    only when they are dependent (``_kept_basis``).
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
    return _kept_basis(field, dim, [v.project(on) for v in vectors], vectors, on)[1]


def _kept_basis(field: Field, dim: int, gens: Sequence[Vector], images: Sequence[Vector],
                on: Sequence[int]) -> Tuple[List[int], OrthoBasis]:
    """The indices of ``gens`` that ``independent_indices`` keeps, and a
    valuation-orthogonal basis on ``on`` of the O-span of the kept
    ``images``; one linear map takes each generator to its image's
    projection.  Elimination keeps independent projections independent, so
    the drop rule runs only once one vanishes, or at once when they outnumber
    ``on``, and again on the kept images while they are dependent."""
    basis = _eliminate(field, dim, [v._data for v in images], on) if len(images) <= len(on) else None
    if basis is not None:
        return list(range(len(images))), basis
    kept = independent_indices(field, gens)
    images = [images[i] for i in kept]
    return kept, _kept_basis(field, dim, [v.project(on) for v in images], images, on)[1]


def _eliminate(field: Field, dim: int, work: List[tuple], on: Sequence[int]) -> Optional[OrthoBasis]:
    """Valuation-pivoted elimination of payload vectors on the coordinates
    ``on``; None as soon as one of their projections vanishes."""
    ops = field.ops
    # valuations of each working vector on the coordinates in ``on``
    vals = [[ops.val(w[j]) for j in on] for w in work]
    out_vecs, out_pivots, out_gammas = [], [], []
    while work:
        mins = [min(v, default=INFINITY) for v in vals]
        if INFINITY in mins:
            return None
        k = least_valuation_index(mins)
        u, uvals, gamma = work.pop(k), vals.pop(k), mins[k]
        # pivot: least coordinate index realizing the projected valuation
        pivot = on[uvals.index(gamma)]
        inv_top = ops.inv(u[pivot])
        for i, w in enumerate(work):
            top = w[pivot]
            if not ops.is_zero(top):
                work[i] = w = _sub_multiple(ops, w, ops.mul(top, inv_top), u)
                vals[i] = [ops.val(w[j]) for j in on]
        out_vecs.append(_vector(field, u))
        out_pivots.append(pivot)
        out_gammas.append(gamma)
    return OrthoBasis(field, dim, out_vecs, out_pivots, out_gammas)


FREE = "free"
INTEGRAL = "integral"


class ScaleSystem:
    """Solver for G c = x with the coordinates of c marked ``INTEGRAL``
    constrained to the valuation ring (``FREE`` coordinates unconstrained).

    Nothing is reduced before a question needs it.  A box query reduces
    [G | x] once, which also gives the kernel of G.  ``free_part``, the
    kernel supported on FREE coordinates (that of G stacked over the unit
    rows of the INTEGRAL coordinates), is the kernel of G's FREE columns
    alone, padded with zeros; with no FREE column it is empty and nothing
    is reduced.  Each kernel vector of G is 1 at its own free column and 0
    at the others, so those that vanish at the free columns of
    ``free_part`` span a complement, orthogonalized once on the INTEGRAL
    coordinates for ``integral_part`` and for each box solution.
    """

    def __init__(self, G: Matrix, scales: Sequence[str]):
        if len(scales) != G.ncols:
            raise DimensionError("one scale marker per column is required")
        for s in scales:
            if s not in (FREE, INTEGRAL):
                raise ValueError(f"unknown scale marker {s!r}")
        self.G, self.field = G, G.field
        self.int_indices = [i for i, s in enumerate(scales) if s == INTEGRAL]

    @cached_property
    def _kernel(self) -> List[Vector]:
        return LinearSolver(self.G).kernel()

    @cached_property
    def _free_kernel(self) -> List[Tuple[int, Vector]]:
        ints, n = set(self.int_indices), self.G.ncols
        cols = [j for j in range(n) if j not in ints]
        if not cols:
            return []
        s = LinearSolver(_matrix(self.field, [tuple(map(r.__getitem__, cols)) for r in self.G._rows],
                                 len(cols)))
        out, zero = [], self.field.zero.data
        for f, k in zip(s.free_cols, s.kernel()):
            v = [zero] * n
            for j, a in zip(cols, k._data):
                v[j] = a
            out.append((cols[f], _vector(self.field, tuple(v))))
        return out

    @cached_property
    def free_part(self) -> List[Vector]:
        return [k for _, k in self._free_kernel]

    @cached_property
    def _ortho(self) -> OrthoBasis:
        is_zero = self.field.ops.is_zero
        complement = [k for k in self._kernel
                      if all(is_zero(k._data[f]) for f, _ in self._free_kernel)]
        return orthogonalize(complement, field=self.field, on=self.int_indices)

    @cached_property
    def integral_part(self) -> List[Vector]:
        # each complement vector, rescaled by its weight to valuation 0 on INTEGRAL
        pow_ = self.field.ops.uniformizer_pow
        return [w._scale(pow_(-g)) for w, g in zip(self._ortho.vectors, self._ortho.gammas)]

    def solve_box(self, x: Vector) -> Optional[Vector]:
        """Some c with G c = x and integral coordinates in O, else None."""
        got = solve(self.G, x)
        if got is None:
            return None
        c0, self._kernel = got
        # the residual's integral coordinates have maximal valuation in the coset
        # of the projected complement: a box point exists iff they are integral
        _, out = self._ortho._reduce(c0)
        return out if out.project(self.int_indices).val() >= 0 else None
