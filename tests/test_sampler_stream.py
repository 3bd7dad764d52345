"""The Sampler's combinations go through ``Matrix.mul_vec`` and its two
unimodular matrices through one helper; these checks hold them to the
element-level loops they replaced, value for value and random state for
random state, so every seeded instance stays the same."""

import pytest

from ultraconv.convex import MixedModule
from ultraconv.field import Field
from ultraconv.linalg import Vector
from ultraconv.randgen import Sampler

FIELDS = ("padic:2", "padic:3", "ratfunc:3", "ratfunc:0")


# ---------------------------------------------------------------------------
# oracles: the loops the Sampler used before

def oracle_module_point(s, module):
    acc = Vector.zero(s.field, module.dim)
    for g in module.free_gens:
        acc = acc + g.scale(s.element())
    for g in module.integral_gens:
        acc = acc + g.scale(s.integral_element())
    return acc


def oracle_hull_point(s, points):
    picks = [s.rng.randrange(len(points)) for _ in range(3)]
    a = s.integral_element()
    b = s.integral_element()
    c = s.field.one - a - b
    acc = Vector.zero(s.field, points[0].dim)
    for coeff, i in zip([a, b, c], picks):
        acc = acc + points[i].scale(coeff)
    return acc


def oracle_fg_module(s, d):
    """The deleted ``fg_module``: integral generators only."""
    n = s.rng.randint(1, d + 2)
    return MixedModule(s.field, d, (), [s.vector(d, nonzero=True) for _ in range(n)])


def oracle_unimodular_matrix(s, k):
    f = s.field
    lo = [[f.zero] * k for _ in range(k)]
    hi = [[f.zero] * k for _ in range(k)]
    for i in range(k):
        lo[i][i] = s.unit()
        hi[i][i] = s.unit()
        for j in range(i):
            lo[i][j] = s.integral_element()
            hi[j][i] = s.integral_element()
    perm = list(range(k))
    s.rng.shuffle(perm)
    out = [[f.zero] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            acc = f.zero
            for m in range(k):
                acc = acc + lo[i][m] * hi[m][perm[j]]
            out[i][j] = acc
    return out


def oracle_unimodular_int_matrix(s, k):
    lo = [[0] * k for _ in range(k)]
    hi = [[0] * k for _ in range(k)]
    for i in range(k):
        lo[i][i] = s.rng.choice((-1, 1))
        hi[i][i] = s.rng.choice((-1, 1))
        for j in range(i):
            lo[i][j] = s.rng.randint(-2, 2)
            hi[j][i] = s.rng.randint(-2, 2)
    perm = list(range(k))
    s.rng.shuffle(perm)
    return [[s.field.from_int(sum(lo[i][m] * hi[m][perm[j]] for m in range(k)))
             for j in range(k)] for i in range(k)]


def twins(sel, seed):
    f = Field.from_selector(sel)
    return Sampler(f, seed), Sampler(f, seed)


@pytest.mark.parametrize("sel", FIELDS)
def test_module_point_matches_the_element_loop(sel):
    s, o = twins(sel, 3)
    for t in range(12):
        d = 1 + t % 3
        module, twin = s.module(d, max_free=1), o.module(d, max_free=1)
        assert (twin.free_gens, twin.integral_gens) == (module.free_gens, module.integral_gens)
        for m in (module, MixedModule(s.field, d)):
            assert s.module_point(m) == oracle_module_point(o, m), (t, m)
            assert s.rng.getstate() == o.rng.getstate(), t


@pytest.mark.parametrize("sel", FIELDS)
def test_hull_point_matches_the_element_loop(sel):
    s, o = twins(sel, 4)
    for t in range(12):
        pts = s.points(1 + t % 4, 1 + t % 3)
        assert o.points(1 + t % 4, 1 + t % 3) == pts
        assert s.hull_point(pts) == oracle_hull_point(o, pts), t
        assert s.rng.getstate() == o.rng.getstate(), t


@pytest.mark.parametrize("sel", FIELDS)
def test_module_draws_what_fg_module_drew(sel):
    s, o = twins(sel, 5)
    for t in range(12):
        d = 1 + t % 4
        got, want = s.module(d), oracle_fg_module(o, d)
        assert (got.free_gens, got.integral_gens) == (want.free_gens, want.integral_gens), t
        assert s.rng.getstate() == o.rng.getstate(), t


@pytest.mark.parametrize("sel", FIELDS)
def test_unimodular_matrices_match_the_element_loops(sel):
    s, o = twins(sel, 6)
    for k in (1, 2, 3, 4, 5):
        assert s.unimodular_matrix(k) == oracle_unimodular_matrix(o, k), k
        assert s.rng.getstate() == o.rng.getstate(), k
        assert s.unimodular_int_matrix(k) == oracle_unimodular_int_matrix(o, k), k
        assert s.rng.getstate() == o.rng.getstate(), k
