"""Differential checks of the elimination layer against the transform-based
code it replaced.

The oracle below keeps the earlier algorithms: a solver that carries the
transform T (R = T A) and answers A c = b as T b, an orthogonalization that
works on projections while tracking each vector's expression over the
inputs, and a scale-constrained solver that rebuilds lifts ("pullbacks")
from those expressions.  A reduced row echelon form is unique and the
arithmetic is exact, so the library must agree with it exactly.
"""

import random

import pytest

from ultraconv.field import Field
from ultraconv.linalg import (
    FREE,
    INTEGRAL,
    LinearSolver,
    Matrix,
    OrthoBasis,
    ScaleSystem,
    Vector,
    independent_indices,
    orthogonalize,
    solve,
)

FIELDS = (("padic:2", 150), ("padic:3", 100), ("ratfunc:3", 60), ("ratfunc:0", 16))


# ---------------------------------------------------------------------------
# oracle: the transform-based elimination

class OracleSolver:
    def __init__(self, A):
        self.A = A
        field = A.field
        self.field = field
        m, n = A.nrows, A.ncols
        red = [list(r) for r in A.entries]
        trans = [list(Vector.unit(field, m, i).coords) for i in range(m)]
        pivots = []
        rank = 0
        for col in range(n):
            sel = None
            for r in range(rank, m):
                if not red[r][col].is_zero:
                    sel = r
                    break
            if sel is None:
                continue
            if sel != rank:
                red[rank], red[sel] = red[sel], red[rank]
                trans[rank], trans[sel] = trans[sel], trans[rank]
            inv = red[rank][col].inverse()
            red[rank] = [inv * a for a in red[rank]]
            trans[rank] = [inv * a for a in trans[rank]]
            for r in range(m):
                if r == rank:
                    continue
                f = red[r][col]
                if f.is_zero:
                    continue
                red[r] = [a - f * b for a, b in zip(red[r], red[rank])]
                trans[r] = [a - f * b for a, b in zip(trans[r], trans[rank])]
            pivots.append((rank, col))
            rank += 1
            if rank == m:
                break
        self.reduced = red
        self.transform = trans
        self.pivots = pivots
        self.rank = rank
        pivot_cols = {c for _, c in pivots}
        self.free_cols = [c for c in range(n) if c not in pivot_cols]

    def solve(self, b):
        field = self.field
        m, n = self.A.nrows, self.A.ncols
        tb = []
        for r in range(m):
            acc = field.zero
            for a, x in zip(self.transform[r], b.coords):
                if not (a.is_zero or x.is_zero):
                    acc = acc + a * x
            tb.append(acc)
        for r in range(self.rank, m):
            if not tb[r].is_zero:
                return None
        out = [field.zero] * n
        for r, c in self.pivots:
            out[c] = tb[r]
        return Vector(field, out)

    def kernel(self):
        field = self.field
        n = self.A.ncols
        out = []
        for f in self.free_cols:
            v = [field.zero] * n
            v[f] = field.one
            for r, c in self.pivots:
                entry = self.reduced[r][f]
                if not entry.is_zero:
                    v[c] = -entry
            out.append(Vector(field, v))
        return out


def oracle_from_cols(field, cols, nrows):
    return Matrix(field, [tuple(c[i] for c in cols) for i in range(nrows)], ncols=len(cols))


def oracle_least_index(items):
    return min(range(len(items)), key=lambda i: items[i].val())


def oracle_independent_indices(field, vectors):
    """The drop rule run on every vector, zero ones included."""
    keep = list(range(len(vectors)))
    while keep:
        A = oracle_from_cols(field, [vectors[i] for i in keep], vectors[0].dim)
        ker = OracleSolver(A).kernel()
        if not ker:
            break
        del keep[oracle_least_index(ker[0].coords)]
    return keep


def oracle_orthogonalize_tracked(field, vectors):
    dim = vectors[0].dim if vectors else 0
    n = len(vectors)
    work = [
        {"vec": vectors[i], "expr": list(Vector.unit(field, n, i).coords)}
        for i in oracle_independent_indices(field, vectors)
    ]
    out_vecs, out_pivots, out_gammas, out_exprs = [], [], [], []
    while work:
        chosen = work.pop(oracle_least_index([w["vec"] for w in work]))
        u = chosen["vec"]
        sel_val = u.val()
        pivot = next(i for i, a in enumerate(u.coords) if a.val() == sel_val)
        inv_top = u[pivot].inverse()
        for w in work:
            top = w["vec"][pivot]
            if top.is_zero:
                continue
            c = top * inv_top
            w["vec"] = w["vec"] - u.scale(c)
            w["expr"] = [e - c * f for e, f in zip(w["expr"], chosen["expr"])]
        out_vecs.append(u)
        out_pivots.append(pivot)
        out_gammas.append(sel_val)
        out_exprs.append(chosen["expr"])
    return OrthoBasis(field, dim, out_vecs, out_pivots, out_gammas), out_exprs


def combine(field, dim, coeffs, vectors):
    acc = Vector.zero(field, dim)
    for c, b in zip(coeffs, vectors):
        if not c.is_zero:
            acc = acc + b.scale(c)
    return acc


class OracleScaleSystem:
    def __init__(self, G, scales):
        field = G.field
        self.solver = OracleSolver(G)
        self.kernel_basis = self.solver.kernel()
        self.int_indices = [i for i, s in enumerate(scales) if s == INTEGRAL]
        k = len(self.kernel_basis)
        if not self.int_indices or k == 0:
            self.free_part = list(self.kernel_basis)
            self.integral_part = []
            self._ortho = OrthoBasis(field, len(self.int_indices), (), (), ())
            self._pullbacks = []
            return
        projected = [b.project(self.int_indices) for b in self.kernel_basis]
        psolver = OracleSolver(oracle_from_cols(field, projected, len(self.int_indices)))
        self.free_part = [combine(field, G.ncols, beta.coords, self.kernel_basis)
                          for beta in psolver.kernel()]
        complement_idx = [c for _, c in psolver.pivots]
        comp_proj = [projected[j] for j in complement_idx]
        comp_full = [self.kernel_basis[j] for j in complement_idx]
        ortho, exprs = oracle_orthogonalize_tracked(field, comp_proj)
        self._ortho = ortho
        self._pullbacks = [combine(field, G.ncols, expr, comp_full) for expr in exprs]
        self.integral_part = [
            w.scale(field.uniformizer_pow(-g))
            for w, g in zip(self._pullbacks, ortho.gammas)
        ]

    def solve_box(self, x):
        c0 = self.solver.solve(x)
        if c0 is None:
            return None
        if not self.int_indices:
            return c0
        cs, rest = self._ortho.reduce(c0.project(self.int_indices))
        if rest.val() >= 0:
            out = c0
            for c, w in zip(cs, self._pullbacks):
                if not c.is_zero:
                    out = out - w.scale(c)
            return out
        return None


# ---------------------------------------------------------------------------
# seeded inputs: small entries, many zeros, dependent rows and columns

def element(f, rng):
    if rng.random() < 0.25:
        return f.zero
    if f.kind == "padic":
        x = f.fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 1, 3, 5)))
    else:
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
        x = f.ratio(num, rng.choice(([1], [rng.randint(-2, 2), 1])))
    return x * f.uniformizer_pow(rng.randint(-2, 2))


def vector(f, rng, d):
    return Vector(f, [element(f, rng) for _ in range(d)])


def vectors(f, rng, n, d):
    """n vectors of dimension d, some of them combinations of earlier ones,
    zero or repeated."""
    out = []
    for _ in range(n):
        kind = rng.random()
        if out and kind < 0.3:
            out.append(combine(f, d, [element(f, rng) for _ in out], out))
        elif out and kind < 0.4:
            out.append(rng.choice(out))
        elif kind < 0.45:
            out.append(Vector.zero(f, d))
        else:
            out.append(vector(f, rng, d))
    return out


def matrix(f, rng, m, n):
    """An m x n matrix whose rows are often dependent; m or n may be 0."""
    return Matrix(f, [v.coords for v in vectors(f, rng, m, n)], ncols=n)


def right_hand_sides(f, rng, A):
    """Consistent, zero and (for a rank-deficient A, mostly) inconsistent b."""
    cs = vector(f, rng, A.ncols)
    return [A.mul_vec(cs), Vector.zero(f, A.nrows), vector(f, rng, A.nrows)]


def scale_markers(rng, k, trial):
    if trial % 4 == 0:
        return [FREE] * k
    if trial % 4 == 1:
        return [INTEGRAL] * k
    return [rng.choice((FREE, INTEGRAL)) for _ in range(k)]


def integral_element(f, rng):
    x = element(f, rng)
    v = x.val()
    return x if v >= 0 else x * f.uniformizer_pow(-v)


def box_targets(f, rng, G, scales):
    """G c for c in the box, G c for unconstrained c, a random x and zero."""
    box = Vector(f, [element(f, rng) if s == FREE else integral_element(f, rng) for s in scales])
    return [G.mul_vec(box), G.mul_vec(vector(f, rng, G.ncols)),
            vector(f, rng, G.nrows), Vector.zero(f, G.nrows)]


def same_basis(got, want):
    return (got.vectors, got.pivot_indices, got.gammas) == \
        (want.vectors, want.pivot_indices, want.gammas)


# ---------------------------------------------------------------------------
# the differential tests

@pytest.mark.parametrize("sel,trials", FIELDS)
def test_solver_matches_transform_oracle(sel, trials):
    f = Field.from_selector(sel)
    rng = random.Random(f"solver-{sel}")
    limit = 3 if sel == "ratfunc:0" else 5
    nones = 0
    for trial in range(trials):
        m, n = rng.randint(0, limit), rng.randint(0, limit)
        if trial < 2:
            m, n = (0, n) if trial == 0 else (m, 0)
        A = matrix(f, rng, m, n)
        got, want = LinearSolver(A), OracleSolver(A)
        assert got.kernel() == want.kernel(), (sel, trial)
        assert (got.pivots, got.rank, got.free_cols) == (want.pivots, want.rank, want.free_cols)
        for b in right_hand_sides(f, rng, A):
            x = solve(A, b)
            x = None if x is None else x[0]
            assert x == want.solve(b), (sel, trial)
            nones += x is None
    assert nones > 0


@pytest.mark.parametrize("sel,trials", FIELDS)
def test_orthogonalize_matches_tracked_oracle(sel, trials):
    f = Field.from_selector(sel)
    rng = random.Random(f"ortho-{sel}")
    limit = 3 if sel == "ratfunc:0" else 5
    for trial in range(trials):
        d, n = rng.randint(1, limit), rng.randint(0, limit + 1)
        vs = vectors(f, rng, n, d)
        want, _ = oracle_orthogonalize_tracked(f, vs)
        assert same_basis(orthogonalize(vs, field=f), want), (sel, trial)
        # on a subset of the coordinates: the lifts of the projected basis
        on = sorted(rng.sample(range(d), rng.randint(0, d)))
        proj, exprs = oracle_orthogonalize_tracked(f, [v.project(on) for v in vs])
        got = orthogonalize(vs, field=f, on=on)
        assert list(got.vectors) == [combine(f, d, e, vs) for e in exprs]
        assert got.pivot_indices == tuple(on[p] for p in proj.pivot_indices)
        assert got.gammas == proj.gammas


@pytest.mark.parametrize("sel,trials", FIELDS)
def test_scale_system_matches_pullback_oracle(sel, trials):
    f = Field.from_selector(sel)
    rng = random.Random(f"scale-{sel}")
    limit = 3 if sel == "ratfunc:0" else 4
    found = nones = 0
    for trial in range(trials):
        d, k = rng.randint(0, limit), rng.randint(0, limit + 2)
        G = Matrix.from_cols(f, vectors(f, rng, k, d), nrows=d)
        scales = scale_markers(rng, k, trial)
        got, want = ScaleSystem(G, scales), OracleScaleSystem(G, scales)
        assert got.free_part == want.free_part, (sel, trial)
        assert got.integral_part == want.integral_part, (sel, trial)
        for x in box_targets(f, rng, G, scales):
            c = got.solve_box(x)
            assert c == want.solve_box(x), (sel, trial)
            found += c is not None
            nones += c is None
    assert found > 0 and nones > 0


@pytest.mark.parametrize("sel,trials", FIELDS)
def test_independent_indices_matches_drop_loop_oracle(sel, trials):
    """Zero vectors mixed in anywhere: dropping them up front and skipping
    the single-vector solve keeps the drop loop's answer."""
    f = Field.from_selector(sel)
    rng = random.Random(f"independent-{sel}")
    limit = 3 if sel == "ratfunc:0" else 5
    seen = set()
    for trial in range(trials):
        d, n = rng.randint(1, limit), rng.randint(0, limit + 1)
        vs = vectors(f, rng, n, d)
        for _ in range(rng.randint(0, 2)):
            vs.insert(rng.randint(0, len(vs)), Vector.zero(f, d))
        got = independent_indices(f, vs)
        assert got == oracle_independent_indices(f, vs), (sel, trial)
        nonzero = sum(not v.is_zero for v in vs)
        seen.add((nonzero > len(got), nonzero < len(vs), nonzero))
    # dependent nonzero vectors next to zero ones, and lists with one or no
    # nonzero vector
    assert (True, True) in {(a, b) for a, b, _ in seen}
    assert {0, 1} <= {c for _, _, c in seen}
