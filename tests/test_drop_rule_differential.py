"""Differential checks of the one drop rule against the three places that
used to run it on their own.

The oracles keep the earlier code: ``radon_point`` on field elements, with
its own kernel of the coordinate rows plus a row of ones;
``caratheodory_indices`` as a loop of Radon certificates; and
``orthogonalize`` running ``independent_indices`` before every elimination.
The library now takes one step (``linalg._drop_step``) for all of them and
orthogonalizes first, falling back on the drop rule only when elimination
meets a vanishing projection.  The arithmetic is exact, so the answers
must agree exactly, ties in the least valuation included.
"""

import random

import pytest

from ultraconv import linalg
from ultraconv.field import Field
from ultraconv.linalg import (
    DimensionError,
    LinearSolver,
    Matrix,
    OrthoBasis,
    Vector,
    _sub_multiple,
    _vector,
    independent_indices,
    orthogonalize,
)
from ultraconv.convex import (
    RadonCertificate,
    TooFewPointsError,
    caratheodory_indices,
    radon_point,
)

from test_elimination_differential import (
    FIELDS,
    combine,
    element,
    oracle_independent_indices,
    same_basis,
    vector,
    vectors,
)


# ---------------------------------------------------------------------------
# oracles: the earlier code, with their own tie rule and drop loop

def least_index(vals):
    return min(range(len(vals)), key=vals.__getitem__)


def oracle_radon(points):
    """The certificate and whether the least valuation was tied."""
    field = points[0].field
    d, n = points[0].dim, len(points)
    rows = [[p[r] for p in points] for r in range(d)]
    rows.append([field.one] * n)
    a = LinearSolver(Matrix(field, rows)).kernel()[0]
    vals = [c.val() for c in a]
    best = least_index(vals)
    pivot = a[best]
    coeffs = [-(a[j] / pivot) for j in range(n) if j != best]
    return RadonCertificate(best, coeffs), vals.count(vals[best]) > 1


def oracle_caratheodory(points):
    d = points[0].dim
    live = list(range(len(points)))
    while len(live) > d + 1:
        del live[oracle_radon([points[i] for i in live])[0].index]
    return live


def oracle_orthogonalize(vectors, field, on=None):
    dim = vectors[0].dim if vectors else 0
    if on is None:
        on = range(dim)
    ops = field.ops
    work = [vectors[i]._data for i in oracle_independent_indices(field, [v.project(on) for v in vectors])]
    vals = [[ops.val(w[j]) for j in on] for w in work]
    out_vecs, out_pivots, out_gammas = [], [], []
    while work:
        k = least_index([min(v) for v in vals])
        u, uvals = work.pop(k), vals.pop(k)
        gamma = min(uvals)
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


# ---------------------------------------------------------------------------
# point sets: random, repeated, collinear and designed ties

def points(f, rng, n, d):
    out = []
    for _ in range(n):
        kind = rng.random()
        if out and kind < 0.2:
            out.append(rng.choice(out))
        elif len(out) >= 2 and kind < 0.5:
            p, q = rng.sample(out, 2)
            out.append(p + (q - p).scale(element(f, rng)))
        else:
            out.append(vector(f, rng, d))
    return out


def designed_point_sets(f):
    """Equally spaced points on a line (the dependency 1, -2, 1 ties at
    both ends in padic:2), all points equal, a repeated corner, collinear
    points in the plane, and a square."""
    def pts(*rows):
        return [Vector.from_ints(f, list(r)) for r in rows]
    return [
        pts((0,), (1,), (2,)),
        pts((0,), (2,), (1,), (4,), (3,)),
        pts((1, 1), (1, 1), (1, 1), (1, 1)),
        pts((0, 0), (0, 0), (1, 0), (0, 1)),
        pts((0, 0), (1, 1), (2, 2), (3, 3), (5, 5)),
        pts((0, 0), (1, 2), (0, 0), (2, 4), (1, 2), (3, 1)),
        pts((0, 0), (1, 0), (0, 1), (1, 1)),
        pts((0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)),
    ]


def point_sets(f, rng, trials):
    yield from designed_point_sets(f)
    for _ in range(trials):
        d = rng.randint(1, 3)
        yield points(f, rng, rng.randint(d + 2, d + 5), d)


# ---------------------------------------------------------------------------
# the differential tests

@pytest.mark.parametrize("sel,trials", FIELDS)
def test_radon_and_caratheodory_match_the_certificate_loop(sel, trials):
    f = Field.from_selector(sel)
    rng = random.Random(f"radon-{sel}")
    ties = 0
    for t, pts in enumerate(point_sets(f, rng, trials)):
        want, tied = oracle_radon(pts)
        got = radon_point(pts)
        assert (got.index, got.coefficients) == (want.index, want.coefficients), (sel, t)
        assert caratheodory_indices(pts) == oracle_caratheodory(pts), (sel, t)
        ties += tied
    assert ties > 0


@pytest.mark.parametrize("sel,trials", FIELDS)
def test_orthogonalize_eliminates_first_and_drops_only_on_dependency(sel, trials, monkeypatch):
    f = Field.from_selector(sel)
    rng = random.Random(f"ortho-first-{sel}")
    limit = 3 if sel == "ratfunc:0" else 5
    fallbacks = []

    def counted(field, vs):
        fallbacks.append(len(vs))
        return independent_indices(field, vs)

    monkeypatch.setattr(linalg, "independent_indices", counted)
    seen = set()
    for trial in range(trials):
        d, n = rng.randint(1, limit), rng.randint(0, limit + 1)
        vs = vectors(f, rng, n, d)
        cases = [None, sorted(rng.sample(range(d), rng.randint(0, d))), []]
        for on in cases:
            projected = [v.project(range(d) if on is None else on) for v in vs]
            dependent = len(independent_indices(f, projected)) < len(vs)
            fallbacks.clear()
            got = orthogonalize(vs, field=f, on=on)
            assert same_basis(got, oracle_orthogonalize(vs, f, on)), (sel, trial, on)
            assert fallbacks == ([len(vs)] if dependent else []), (sel, trial, on)
            seen.add((on == [], dependent))
    # the fallback ran, on [] too, and independent lists skipped it
    assert {(False, True), (False, False), (True, True)} <= seen


def test_orthogonalize_fallback_on_designed_dependencies():
    f = Field.padic(2)
    a, b = Vector.from_ints(f, [1, 2, 0]), Vector.from_ints(f, [0, 4, 1])
    dependent = [a, b, combine(f, 3, [f.from_int(2), f.from_int(3)], [a, b]), a]
    for vs in (dependent, [a, Vector.zero(f, 3), b], [a, b]):
        for on in (None, [0, 1], [2], []):
            assert same_basis(orthogonalize(vs, field=f, on=on), oracle_orthogonalize(vs, f, on))
    assert len(orthogonalize(dependent, field=f, on=[])) == 0
    assert len(orthogonalize([a, b, a], field=f, on=[1])) == 1


# ---------------------------------------------------------------------------
# the library boundary

def test_points_of_unequal_dimension_are_rejected():
    f = Field.padic(2)
    longer = [Vector.from_ints(f, [0]), Vector.from_ints(f, [1]), Vector.from_ints(f, [2, 5])]
    shorter = [Vector.from_ints(f, [0, 0]), Vector.from_ints(f, [1, 0]),
               Vector.from_ints(f, [0, 1]), Vector.from_ints(f, [1])]
    for pts in (longer, shorter):
        with pytest.raises(DimensionError):
            radon_point(pts)
        with pytest.raises(DimensionError):
            caratheodory_indices(pts)
    # with no more than d+1 points nothing is dropped, but the check still holds
    with pytest.raises(DimensionError):
        caratheodory_indices(longer[1:])
    with pytest.raises(TooFewPointsError):
        radon_point(longer[1:])
