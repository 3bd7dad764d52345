"""Exact solving, valuation-orthogonal bases, scale-constrained systems."""

import random

import pytest

from ultraconv.field import Field, FieldElement
from ultraconv.linalg import (
    FREE,
    INTEGRAL,
    DimensionError,
    LinearSolver,
    Matrix,
    ScaleSystem,
    Vector,
    orthogonalize,
    solve,
)

from test_elimination_differential import FIELDS, OracleSolver, matrix, right_hand_sides


def _vec(f, *ints):
    return Vector.from_ints(f, list(ints))


# ---------------------------------------------------------------------------
# plain linear algebra

def test_solver_particular_and_kernel():
    f = Field.padic(2)
    A = Matrix(f, [[f.from_int(1), f.from_int(2), f.from_int(1)],
                   [f.from_int(0), f.from_int(1), f.from_int(3)]])
    b = _vec(f, 5, 4)
    sol = solve(A, b)
    assert sol is not None
    part, kernel = sol
    assert A.mul_vec(part) == b
    assert len(kernel) == 1
    for k in kernel:
        assert A.mul_vec(k).is_zero
    # a shifted target stays solvable, an inconsistent system does not
    A2 = Matrix(f, [[f.one, f.one], [f.one, f.one]])
    assert solve(A2, _vec(f, 1, 2)) is None


def test_solver_rejects_dimension_mismatch():
    f = Field.padic(3)
    A = Matrix(f, [[f.one, f.zero]])
    with pytest.raises(DimensionError):
        solve(A, _vec(f, 1, 2))


def test_matrix_from_cols_roundtrip():
    f = Field.padic(5)
    cols = [_vec(f, 1, 0), _vec(f, 3, 3)]
    M = Matrix.from_cols(f, cols)
    assert M.nrows == 2 and M.ncols == 2
    assert M.col(1) == cols[1]


# ---------------------------------------------------------------------------
# orthogonal bases

def test_orthogonalize_frozen_example():
    f = Field.padic(3)
    ob = orthogonalize([_vec(f, 1, 0), _vec(f, 3, 3)])
    rendered = [[e.render() for e in v.coords] for v in ob.vectors]
    assert rendered == [["1", "0"], ["0", "3"]]
    assert ob.pivot_indices == (0, 1)
    assert ob.gammas == (0, 1)


def test_orthogonal_valuation_identity_frozen():
    # val(c1*u1 + c2*u2) must equal min(val(c1)+0, val(c2)+1) for the basis
    # above, including ties
    f = Field.padic(3)
    ob = orthogonalize([_vec(f, 1, 0), _vec(f, 3, 3)])
    cases = [("1", "1"), ("3", "1"), ("1/3", "9"), ("27", "1/3"), ("3", "3"), ("0", "5")]
    for s1, s2 in cases:
        c1, c2 = f.parse(s1), f.parse(s2)
        combo = ob.vectors[0].scale(c1) + ob.vectors[1].scale(c2)
        expected = min(c1.val() + ob.gammas[0], c2.val() + ob.gammas[1])
        assert combo.val() == expected


def test_orthogonalize_preserves_integral_span():
    f = Field.padic(2)
    gens = [_vec(f, 2, 4, 0), _vec(f, 1, 3, 1), _vec(f, 0, 2, 2)]
    ob = orthogonalize(gens)
    for g in gens:
        assert ob.spans_integrally(g)
    for u in ob.vectors:
        cs = solve(Matrix.from_cols(f, list(gens)), u)
        assert cs is not None


def test_gamma_multiset_stable_under_recombination():
    """Unimodular integral recombinations present the same module, so the
    sorted gamma weights cannot move."""
    f = Field.padic(5)
    gens = [_vec(f, 5, 0, 10), _vec(f, 1, 2, 3), _vec(f, 0, 25, 5)]
    base = orthogonalize(gens).gamma_multiset()
    rng = random.Random(7)
    for _ in range(10):
        n = len(gens)
        U = [[f.from_int(1 if i == j else 0) for j in range(n)] for i in range(n)]
        # random elementary row operations keep the matrix O-unimodular
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = f.from_int(rng.randint(-4, 4))
            for k in range(n):
                U[i][k] = U[i][k] + c * U[j][k]
        new_gens = []
        for i in range(n):
            acc = Vector.zero(f, 3)
            for j in range(n):
                acc = acc + gens[j].scale(U[i][j])
            new_gens.append(acc)
        assert orthogonalize(new_gens).gamma_multiset() == base


def test_orthobasis_reduce_and_coefficients():
    f = Field.padic(2)
    ob = orthogonalize([_vec(f, 1, 0), _vec(f, 0, 4)])
    x = _vec(f, 3, 8)
    cs = ob.coefficients(x)
    assert cs is not None
    rebuilt = Vector.zero(f, 2)
    for c, u in zip(cs, ob.vectors):
        rebuilt = rebuilt + u.scale(c)
    assert rebuilt == x
    assert ob.coefficients(_vec(f, 0, 0)) == [f.zero, f.zero]


# ---------------------------------------------------------------------------
# scale-constrained systems

def test_constrained_kernel_frozen():
    f = Field.padic(2)
    M = Matrix(f, [[f.from_int(1), f.from_int(-2)]])
    system = ScaleSystem(M, [INTEGRAL, INTEGRAL])
    free, integral = system.free_part, system.integral_part
    assert free == []
    assert [[e.render() for e in v.coords] for v in integral] == [["2", "1"]]


def test_constrained_kernel_free_columns():
    f = Field.padic(2)
    M = Matrix(f, [[f.from_int(1), f.from_int(-2)]])
    system = ScaleSystem(M, [FREE, FREE])
    free, integral = system.free_part, system.integral_part
    vecs = free + integral
    assert len(free) == 1 and not integral
    for v in vecs:
        assert M.mul_vec(v).is_zero


def test_constrained_kernel_solutions_satisfy_scales():
    f = Field.padic(3)
    M = Matrix(f, [[f.from_int(3), f.from_int(1), f.from_int(0)],
                   [f.from_int(0), f.from_int(3), f.from_int(9)]])
    scales = [INTEGRAL, FREE, INTEGRAL]
    system = ScaleSystem(M, scales)
    free, integral = system.free_part, system.integral_part
    for v in free + integral:
        assert M.mul_vec(v).is_zero
    for v in integral:
        for c, s in zip(v.coords, scales):
            if s == INTEGRAL and not c.is_zero:
                assert c.val() >= 0


def test_mixed_solve_frozen():
    f5 = Field.padic(5)
    I2 = Matrix(f5, [[f5.one, f5.zero], [f5.zero, f5.one]])
    t = Vector(f5, [f5.fraction(1, 2), f5.fraction(1, 3)])
    w = ScaleSystem(I2, [INTEGRAL, INTEGRAL]).solve_box(t)
    assert w is not None
    assert [e.render() for e in w.coords] == ["1/2", "1/3"]

    f2 = Field.padic(2)
    I2b = Matrix(f2, [[f2.one, f2.zero], [f2.zero, f2.one]])
    t2 = Vector(f2, [f2.fraction(1, 2), f2.fraction(1, 3)])
    assert ScaleSystem(I2b, [INTEGRAL, INTEGRAL]).solve_box(t2) is None


def test_mixed_solve_witness_respects_scales():
    f = Field.padic(2)
    cols = [_vec(f, 2, 0), _vec(f, 1, 1), _vec(f, 0, 4)]
    M = Matrix.from_cols(f, cols)
    scales = [FREE, INTEGRAL, INTEGRAL]
    t = _vec(f, 7, 3)
    w = ScaleSystem(M, scales).solve_box(t)
    assert w is not None
    assert M.mul_vec(w) == t
    for c, s in zip(w.coords, scales):
        if s == INTEGRAL and not c.is_zero:
            assert c.val() >= 0


def test_mixed_solve_reduction_counts(monkeypatch):
    """A box query reduces [G | x] once.  Only a target inside the column
    space goes on to the reduction that gives the free part (G's FREE
    columns alone); the complement is independent, so its orthogonalization
    builds no solver.  With no FREE column the free part is empty and
    nothing more is reduced."""
    f = Field.padic(2)
    G = Matrix.from_cols(f, [_vec(f, 1, 0), _vec(f, 2, 0), _vec(f, 3, 0)])
    builds = []
    init = LinearSolver.__init__

    def counted(self, A):
        builds.append(A.ncols)
        init(self, A)

    monkeypatch.setattr(LinearSolver, "__init__", counted)
    scales = [INTEGRAL, FREE, INTEGRAL]
    assert ScaleSystem(G, scales).solve_box(_vec(f, 1, 0)) == \
        Vector(f, [f.zero, f.fraction(1, 2), f.zero])
    assert builds == [4, 1]
    builds.clear()
    assert ScaleSystem(G, scales).solve_box(_vec(f, 0, 1)) is None
    assert builds == [4]
    builds.clear()
    box = ScaleSystem(G, [INTEGRAL] * 3)
    assert G.mul_vec(box.solve_box(_vec(f, 1, 0))) == _vec(f, 1, 0)
    assert box.free_part == [] and builds == [4]


@pytest.mark.parametrize("sel,trials", FIELDS)
def test_solve_matches_transform_oracle(sel, trials):
    """``solve`` reads the particular solution and the kernel off one
    reduction of [A | b]; the oracle answers from A and its transform."""
    f = Field.from_selector(sel)
    rng = random.Random(f"solve-{sel}")
    limit = 3 if sel == "ratfunc:0" else 5
    seen = set()
    for trial in range(trials):
        m, n = rng.randint(0, limit), rng.randint(0, limit)
        if trial < 2:
            m, n = (0, n) if trial == 0 else (m, 0)
        A = matrix(f, rng, m, n)
        want = OracleSolver(A)
        for b in right_hand_sides(f, rng, A):
            got, part = solve(A, b), want.solve(b)
            assert got == (None if part is None else (part, want.kernel())), (sel, trial)
            seen.add("unsolvable" if got is None else "kernel" if got[1] else "no kernel")
    assert seen == {"unsolvable", "kernel", "no kernel"}


# ---------------------------------------------------------------------------
# randomized law checks via the verify suite

@pytest.mark.parametrize("sel,trials", [
    ("padic:2", 25), ("padic:5", 15), ("ratfunc:0", 8), ("ratfunc:3", 8),
])
def test_linalg_property_suite(sel, trials):
    from ultraconv.verify import run_suite
    results = run_suite("linalg", Field.from_selector(sel), seed=414213, trials=trials)
    for r in results:
        assert r.ok, f"{r.name}: {r.failures}"


# ---------------------------------------------------------------------------
# the element API over payload storage

def test_vectors_and_matrices_reject_elements_of_another_field():
    f2, f3 = Field.padic(2), Field.padic(3)
    with pytest.raises(ValueError, match="mixed fields"):
        Vector(f2, [f3.from_int(3)])
    with pytest.raises(ValueError, match="mixed fields"):
        Matrix(f2, [[f3.from_int(6), f3.one]])
    with pytest.raises(ValueError, match="mixed fields"):
        Matrix.from_cols(f2, [_vec(f3, 1, 2)])
    with pytest.raises(ValueError, match="mixed fields"):
        _vec(f2, 1) + _vec(f3, 1)
    # a field equal to but distinct from the vector's own is accepted
    assert Vector(f2, [Field.padic(2).from_int(3)]) == _vec(f2, 3)


def test_entries_read_as_field_elements():
    f = Field.padic(3)
    v = Vector(f, [f.parse("1/3"), f.zero, f.from_int(9)])
    ob = orthogonalize([_vec(f, 1, 0, 0), _vec(f, 3, 3, 0)])
    M = Matrix.from_cols(f, [v, _vec(f, 1, 2, 3)])
    cs, rest = ob.reduce(v)
    read = [v[0], *v.coords, *list(v), *cs, *rest, *(a for r in M.entries for a in r)]
    assert all(isinstance(a, FieldElement) and a.field == f for a in read)
    assert [a.render() for a in v] == v.render() == ["1/3", "0", "9"]
    assert isinstance(v.coords, tuple) and isinstance(M.entries, tuple)


def test_equal_vectors_hash_equal_however_built():
    f = Field.ratfunc(0)
    parsed = Vector(f, [f.parse("(1)/(t)"), f.parse("2*t + 1"), f.zero])
    x = Vector(f, [f.parse("(1)/(t)"), f.one, f.parse("t")])
    built = (x - Vector(f, [f.zero, f.zero, f.parse("t")])).scale(f.from_int(2)) \
        + Vector(f, [f.parse("(-1)/(t)"), f.parse("2*t - 1"), f.zero])
    assert built == parsed and hash(built) == hash(parsed)
    assert len({parsed, built, -(-built)}) == 1
