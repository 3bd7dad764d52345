"""Differential checks of the payload-level vector layer against the
element-level code it replaced.

The oracle below keeps the earlier algorithms, written with ``FieldElement``
operators on the entries a vector or matrix yields when read: vector
arithmetic, the valuation, grooming, matrix-vector products, reduction
against a valuation-orthogonal basis and module membership, which the
library decides by a fraction-free reduction in the payloads' ring while
the oracle divides in the field.  Payloads are canonical and the
arithmetic is exact, so the library must agree with the oracle exactly.  Inputs are the seeded samples of the elimination
differential suite.
"""

import random

import pytest

from ultraconv.convex import MixedModule
from ultraconv.field import INFINITY, Field
from ultraconv.linalg import Vector, orthogonalize

from test_elimination_differential import FIELDS, element, matrix, vector, vectors


# ---------------------------------------------------------------------------
# oracle: element-level vectors

def o_add(x, y):
    return [a + b for a, b in zip(x.coords, y.coords)]


def o_sub(x, y):
    return [a - b for a, b in zip(x.coords, y.coords)]


def o_scale(c, x):
    return [c * a for a in x.coords]


def o_val(x):
    out = INFINITY
    for a in x.coords:
        out = min(out, a.val())
    return out


def o_groomed(x):
    u = x.field.grooming_unit(list(x.coords))
    return list(x.coords) if u == x.field.one else o_scale(u, x)


def o_mul_vec(M, v):
    out = []
    for r in M.entries:
        acc = M.field.zero
        for a, b in zip(r, v.coords):
            if not (a.is_zero or b.is_zero):
                acc = acc + a * b
        out.append(acc)
    return out


def o_reduce(basis, x):
    cs, rest = [], list(x.coords)
    for u, p in zip(basis.vectors, basis.pivot_indices):
        top = rest[p]
        if top.is_zero:
            cs.append(basis.field.zero)
            continue
        c = top / u[p]
        cs.append(c)
        rest = [a - c * b for a, b in zip(rest, u.coords)]
    return cs, rest


def o_spans_integrally(basis, rest):
    cs, out = o_reduce(basis, Vector(basis.field, rest))
    return all(a.is_zero for a in out) and all(c.val() >= 0 for c in cs)


def o_member(module, x):
    free_basis, int_basis = module.normal_form()
    _, rest = o_reduce(free_basis, x)
    return o_spans_integrally(int_basis, rest)


# ---------------------------------------------------------------------------
# the differential tests

@pytest.mark.parametrize("sel,trials", FIELDS)
def test_vector_arithmetic_matches_element_oracle(sel, trials):
    f = Field.from_selector(sel)
    rng = random.Random(f"payload-vector-{sel}")
    for trial in range(trials):
        d = rng.randint(0, 4)
        x, y = vectors(f, rng, 2, d)
        c = element(f, rng)
        assert list(x + y) == o_add(x, y), (sel, trial)
        assert list(x - y) == o_sub(x, y), (sel, trial)
        assert list(-x) == [-a for a in x.coords], (sel, trial)
        assert list(x.scale(c)) == o_scale(c, x), (sel, trial)
        assert (x.val(), x.is_zero) == (o_val(x), all(a.is_zero for a in x)), (sel, trial)
        assert list(x.groomed()) == o_groomed(x), (sel, trial)
        on = sorted(rng.sample(range(d), rng.randint(0, d)))
        assert list(x.project(on)) == [x.coords[i] for i in on], (sel, trial)


@pytest.mark.parametrize("sel,trials", FIELDS)
def test_mul_vec_matches_element_oracle(sel, trials):
    f = Field.from_selector(sel)
    rng = random.Random(f"payload-mulvec-{sel}")
    for trial in range(trials):
        A = matrix(f, rng, rng.randint(0, 4), rng.randint(0, 4))
        v = vector(f, rng, A.ncols)
        assert list(A.mul_vec(v)) == o_mul_vec(A, v), (sel, trial)
        for j in range(A.ncols):
            assert list(A.col(j)) == [r[j] for r in A.entries], (sel, trial)


@pytest.mark.parametrize("sel,trials", FIELDS)
def test_reduce_matches_element_oracle(sel, trials):
    f = Field.from_selector(sel)
    rng = random.Random(f"payload-reduce-{sel}")
    for trial in range(trials):
        d, n = rng.randint(1, 4), rng.randint(0, 5)
        basis = orthogonalize(vectors(f, rng, n, d), field=f)
        for x in [vector(f, rng, d)] + list(basis.vectors[:1]):
            cs, rest = basis.reduce(x)
            want_cs, want_rest = o_reduce(basis, x)
            assert (cs, list(rest)) == (want_cs, want_rest), (sel, trial)
            expect = want_cs if all(a.is_zero for a in want_rest) else None
            assert basis.coefficients(x) == expect, (sel, trial)
            assert basis.spans_integrally(x) == o_spans_integrally(basis, x.coords), (sel, trial)


@pytest.mark.parametrize("sel,trials", FIELDS)
def test_member_matches_element_oracle(sel, trials):
    f = Field.from_selector(sel)
    rng = random.Random(f"payload-member-{sel}")
    hits = misses = 0
    for trial in range(trials):
        d = rng.randint(1, 3)
        free = vectors(f, rng, rng.randint(0, 1), d)
        integral = vectors(f, rng, rng.randint(0, d + 1), d)
        module = MixedModule(f, d, free, integral)
        # a module point, a point off it by a fractional step, and a random one
        inside = Vector.zero(f, d)
        for g in module.integral_gens:
            inside = inside + g.scale(f.from_int(rng.randint(-3, 3)))
        probes = [inside, vector(f, rng, d)]
        if module.integral_gens:
            probes.append(inside + module.integral_gens[0].scale(f.uniformizer_pow(-1)))
        for x in probes:
            got = module.member(x)
            assert got == o_member(module, x), (sel, trial)
            hits += got
            misses += not got
    assert hits and misses


# ---------------------------------------------------------------------------
# the fraction-free decisions: ``member``, ``contains_line`` and
# ``spans_integrally`` run in the payloads' ring (``linalg._ring_member``),
# the oracle divides in the field

def o_contains_line(module, v):
    free_basis, _ = module.normal_form()
    return all(a.is_zero for a in o_reduce(free_basis, v)[1])


PADIC_DENS = (1, 3, 5, 7, 9, 11, 13)
RATFUNC_DENS = ([1], [1, 1], [2, 1], [1, 0, 1], [1, 1, 1], [1, 0, 0, 1])


def designed_entry(f, rng, degree):
    """Zero one time in five; otherwise an element over one of several
    distinct denominators (a random one of the given degree over ratfunc
    once the degree reaches 20), times pi^e with |e| <= 3."""
    if rng.random() < 0.2:
        return f.zero
    if f.kind == "padic":
        x = f.fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.choice(PADIC_DENS))
    else:
        num = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-2, -1, 1, 2))]
        if degree < 20:
            den = rng.choice(RATFUNC_DENS)
        else:
            den = [rng.choice((-2, -1, 1, 2))] + [rng.randint(-9, 9) for _ in range(degree - 1)] + [1]
        x = f.ratio(num, den)
    return x * f.uniformizer_pow(rng.randint(-3, 3))


def designed_module(f, rng, d, degree):
    def gen():
        return Vector(f, [designed_entry(f, rng, degree) for _ in range(d)])
    free = [gen() for _ in range(rng.choice((0, 0, 1, 2)) if d > 1 else 0)]
    return MixedModule(f, d, free, [gen() for _ in range(rng.randint(0, d + 1))])


def ring_probes(f, rng, module, degree):
    """A module point with integral coefficients of several valuations, that
    point times pi^-1 and times pi^k for k >= 20, the point plus pi^-1 times
    each vector of the integral basis (the last one included), the point
    plus a free generator over pi^5, and a random point."""
    pi = f.uniformizer_pow
    inside = Vector.zero(f, module.dim)
    for g in module.free_gens:
        inside = inside + g.scale(designed_entry(f, rng, 1))
    for g in module.integral_gens:
        inside = inside + g.scale(f.from_int(rng.randint(-3, 3)) * pi(rng.randint(0, 2)))
    probes = [inside, inside.scale(pi(-1)), inside.scale(pi(rng.randint(20, 30)))]
    probes += [inside + u.scale(pi(-1)) for u in module.normal_form()[1].vectors]
    probes += [inside + v.scale(pi(-5)) for v in module.free_gens[:1]]
    probes.append(Vector(f, [designed_entry(f, rng, degree) for _ in range(module.dim)]))
    return probes


def check_ring_decisions(f, rng, trials, degree, dims):
    seen = {"member": set(), "contains_line": set(), "spans_integrally": set()}
    for trial in range(trials):
        d = rng.choice(dims)
        module = designed_module(f, rng, d, degree)
        _, int_basis = module.normal_form()
        for x in ring_probes(f, rng, module, degree):
            got = module.member(x)
            assert got == o_member(module, x), (f.selector, trial, x)
            seen["member"].add(got)
            got = int_basis.spans_integrally(x)
            assert got == o_spans_integrally(int_basis, x.coords), (f.selector, trial, x)
            seen["spans_integrally"].add(got)
        lines = [g.scale(f.uniformizer_pow(-7)) for g in module.free_gens]
        lines += list(module.integral_gens[:2]) + [Vector.zero(f, d)]
        if len(module.free_gens) > 1:
            lines.append(module.free_gens[0] + module.free_gens[1].scale(designed_entry(f, rng, 1)))
        for v in lines:
            got = module.contains_line(v)
            assert got == o_contains_line(module, v), (f.selector, trial, v)
            seen["contains_line"].add(got)
    assert all(s == {True, False} for s in seen.values()), seen


@pytest.mark.parametrize("sel,trials", FIELDS)
def test_ring_decisions_match_element_oracle(sel, trials):
    f = Field.from_selector(sel)
    check_ring_decisions(f, random.Random(f"ring-decisions-{sel}"), trials, 2, (1, 2, 3, 4))


def test_ring_decisions_on_ratfunc0_entries_of_degree_20():
    f = Field.ratfunc(0)
    check_ring_decisions(f, random.Random("ring-decisions-degree-20"), 8, 20, (1, 2, 3))
