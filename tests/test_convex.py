"""Convex sets: hulls, membership, intersection, flag and box forms."""

import pytest

from ultraconv.field import Field
from ultraconv.linalg import FREE, INTEGRAL, Matrix, ScaleSystem, Vector
from ultraconv.convex import (
    FULL,
    ConvexSet,
    MixedModule,
    TooFewPointsError,
    box_presentation,
    caratheodory_indices,
    conv_hull,
    equals,
    flag_decompose,
    intersect,
    quasi_ball,
    radon_point,
    subset,
    validate_radon,
)


def _pts(f, *rows):
    return [Vector.from_ints(f, list(r)) for r in rows]


# ---------------------------------------------------------------------------
# hulls

def test_hull_of_origin_and_units_is_unit_ball():
    for sel in ("padic:2", "padic:5", "ratfunc:0", "ratfunc:3"):
        f = Field.from_selector(sel)
        for d in (1, 2, 3):
            pts = [Vector.zero(f, d)] + [Vector.unit(f, d, i) for i in range(d)]
            hull = conv_hull(pts)
            ball = quasi_ball(Vector.zero(f, d), 0)
            assert equals(hull, ball), (sel, d)


def test_hull_membership_depends_on_the_field():
    # (1/2, 0) has valuation -1 at p=2 but 0 at p=3
    f2, f3 = Field.padic(2), Field.padic(3)
    for f, expect in ((f2, False), (f3, True)):
        hull = conv_hull(_pts(f, (0, 0), (1, 0), (0, 1)))
        x = Vector(f, [f.fraction(1, 2), f.zero])
        assert hull.contains(x) is expect


def test_hull_translate_is_first_point():
    f = Field.padic(2)
    pts = _pts(f, (3, 7), (1, 0), (0, 1))
    hull = conv_hull(pts)
    assert hull.translate == pts[0]
    for p in pts:
        assert hull.contains(p)


def test_hull_of_single_point_and_empty_input():
    f = Field.padic(5)
    p = _pts(f, (2, 3))[0]
    single = conv_hull([p])
    assert single.contains(p)
    assert not single.contains(Vector.zero(f, 2))
    with pytest.raises(ValueError):
        conv_hull([])
    assert conv_hull([], field=f, dim=2).is_empty
    empty = ConvexSet.empty(f, 2)
    assert empty.is_empty and not empty.contains(p)


def test_hull_collinear_points_collapse():
    f = Field.padic(2)
    pts = _pts(f, (0, 0), (1, 2), (2, 4), (3, 6))
    hull = conv_hull(pts)
    line_pt = Vector(f, [f.from_int(5), f.from_int(10)])
    assert hull.contains(line_pt)
    off = Vector(f, [f.from_int(1), f.from_int(1)])
    assert not hull.contains(off)


# ---------------------------------------------------------------------------
# quasi-balls

def test_quasi_ball_shapes():
    f = Field.padic(3)
    c = Vector.zero(f, 2)
    ball = quasi_ball(c, 1)
    assert ball.contains(Vector.from_ints(f, [3, 9]))
    assert not ball.contains(Vector.from_ints(f, [1, 0]))
    everything = quasi_ball(c, FULL)
    assert everything.contains(Vector(f, [f.fraction(1, 81), f.from_int(5)]))
    # radius can be negative
    wide = quasi_ball(c, -2)
    assert wide.contains(Vector(f, [f.fraction(1, 9), f.zero]))
    assert not wide.contains(Vector(f, [f.fraction(1, 27), f.zero]))


# ---------------------------------------------------------------------------
# radon

def test_radon_square_frozen():
    f = Field.padic(2)
    pts = _pts(f, (0, 0), (1, 0), (0, 1), (1, 1))
    cert = radon_point(pts)
    assert cert.index == 0
    assert [c.render() for c in cert.coefficients] == ["1", "1", "-1"]
    assert validate_radon(pts, cert)


def test_radon_line_frozen():
    f = Field.padic(5)
    pts = _pts(f, (0,), (1,), (5,))
    cert = radon_point(pts)
    assert cert.index == 0
    assert [c.render() for c in cert.coefficients] == ["5/4", "-1/4"]
    assert validate_radon(pts, cert)


def test_radon_needs_d_plus_2_points():
    f = Field.padic(2)
    with pytest.raises(TooFewPointsError):
        radon_point(_pts(f, (0, 0), (1, 0), (0, 1)))


def test_validate_radon_rejects_tampering():
    f = Field.padic(2)
    pts = _pts(f, (0, 0), (1, 0), (0, 1), (1, 1))
    cert = radon_point(pts)
    bad = type(cert)(cert.index, [c + f.one for c in cert.coefficients])
    assert not validate_radon(pts, bad)


# ---------------------------------------------------------------------------
# caratheodory

def test_caratheodory_frozen():
    f = Field.padic(5)
    pts = [Vector.from_ints(f, [0]), Vector.from_ints(f, [1]),
           Vector.from_ints(f, [5]), Vector(f, [f.fraction(1, 5)])]
    idx = caratheodory_indices(pts)
    assert idx == [2, 3]
    assert equals(conv_hull([pts[i] for i in idx]), conv_hull(pts))


def test_caratheodory_bound_holds():
    f = Field.padic(2)
    pts = _pts(f, (0, 0), (2, 0), (0, 2), (2, 2), (4, 4), (6, 2), (1, 1))
    idx = caratheodory_indices(pts)
    assert len(idx) <= 3
    assert equals(conv_hull([pts[i] for i in idx]), conv_hull(pts))


# ---------------------------------------------------------------------------
# intersection

def test_intersect_frozen_ball_example():
    f = Field.padic(2)
    O2 = quasi_ball(Vector.zero(f, 2), 0)
    shifted = quasi_ball(Vector.from_ints(f, [1, 1]), 1)
    got = intersect(O2, shifted)
    assert equals(got, shifted)
    assert subset(got, O2)


def test_intersect_disjoint_translates():
    f = Field.padic(2)
    a = ConvexSet.point(Vector.zero(f, 1))
    b = ConvexSet.point(Vector.from_ints(f, [1]))
    assert intersect(a, b).is_empty
    assert not intersect(a, a).is_empty


def test_intersect_commutes_and_is_idempotent():
    f = Field.padic(3)
    a = conv_hull(_pts(f, (0, 0), (3, 0), (0, 9)))
    b = quasi_ball(Vector.from_ints(f, [3, 0]), 1)
    ab, ba = intersect(a, b), intersect(b, a)
    assert equals(ab, ba)
    assert equals(intersect(a, a), a)
    if not ab.is_empty:
        assert a.contains(ab.a_point()) and b.contains(ab.a_point())


def test_intersect_dimension_mismatch_raises():
    f = Field.padic(2)
    from ultraconv.linalg import DimensionError
    with pytest.raises(DimensionError):
        intersect(ConvexSet.point(Vector.zero(f, 1)),
                  ConvexSet.point(Vector.zero(f, 2)))
    # an empty operand is checked too, before the answer it would give
    line, empty = ConvexSet.point(Vector.zero(f, 1)), ConvexSet.empty(f, 2)
    for a, b in ((line, empty), (empty, line)):
        for op in (intersect, subset):
            with pytest.raises(DimensionError):
                op(a, b)
    with pytest.raises(DimensionError):
        empty.contains(Vector.zero(f, 1))


# ---------------------------------------------------------------------------
# subset / equals

def test_subset_chain_of_balls():
    f = Field.padic(2)
    c = Vector.zero(f, 2)
    inner, outer = quasi_ball(c, 2), quasi_ball(c, -1)
    assert subset(inner, outer) and not subset(outer, inner)
    assert subset(ConvexSet.empty(f, 2), inner)
    assert not subset(inner, ConvexSet.empty(f, 2))


def test_equality_is_semantic_not_textual():
    """The same module presented by different generator lists must compare
    equal."""
    f = Field.padic(2)
    m1 = MixedModule(f, 2, [], _pts(f, (1, 0), (0, 1)))
    m2 = MixedModule(f, 2, [], _pts(f, (1, 1), (0, 1), (1, 0)))
    s1 = ConvexSet.of(Vector.zero(f, 2), m1)
    s2 = ConvexSet.of(Vector.from_ints(f, [1, 1]), m2)
    assert equals(s1, s2)


# ---------------------------------------------------------------------------
# flag and box presentations

def test_flag_frozen_example():
    f = Field.padic(3)
    mod = MixedModule(f, 2, [], _pts(f, (1, 0), (3, 3)))
    cs = ConvexSet.of(Vector.zero(f, 2), mod)
    flag = flag_decompose(cs)
    got = [([e.render() for e in v.coords], g) for v, g in flag.entries]
    assert got == [(["1", "0"], 0), (["0", "1"], 1)]
    assert flag.gamma_multiset() == (0, 1)


def test_flag_membership_matches_solver_membership():
    f = Field.padic(3)
    mod = MixedModule(f, 2, [], _pts(f, (1, 0), (3, 3)))
    cs = ConvexSet.of(Vector.zero(f, 2), mod)
    flag = flag_decompose(cs)
    probes = _pts(f, (1, 3), (1, 1), (0, 3), (0, 1), (9, 27)) + [
        Vector(f, [f.fraction(1, 3), f.zero])]
    for x in probes:
        assert flag.member(x - cs.translate) == cs.contains(x)


def test_flag_with_free_direction():
    f = Field.padic(2)
    mod = MixedModule(f, 2, [Vector.from_ints(f, [1, 0])],
                      [Vector.from_ints(f, [0, 2])])
    cs = ConvexSet.of(Vector.zero(f, 2), mod)
    flag = flag_decompose(cs)
    kinds = [g for _, g in flag.entries]
    assert kinds[0] == FULL and kinds[1:] == [1]
    assert cs.contains(Vector(f, [f.fraction(1, 1024), f.zero]))


def test_box_frozen_example():
    f = Field.padic(3)
    mod = MixedModule(f, 2, [], _pts(f, (1, 0), (3, 3)))
    cs = ConvexSet.of(Vector.zero(f, 2), mod)
    box = box_presentation(cs)
    assert box.deltas == (0, 1)
    assert [[e.render() for e in row] for row in box.matrix.entries] == [
        ["1", "0"], ["0", "1"]]
    assert [e.render() for e in box.translate.coords] == ["0", "0"]


def test_box_pads_missing_directions():
    f = Field.padic(2)
    cs = ConvexSet.point(Vector.from_ints(f, [4, 7]))
    box = box_presentation(cs)
    assert all(d == "only-infinity" for d in box.deltas)


# ---------------------------------------------------------------------------
# modules

def test_module_membership_mixes_free_and_integral():
    f = Field.padic(2)
    mod = MixedModule(f, 2, [Vector.from_ints(f, [1, 0])],
                      [Vector.from_ints(f, [0, 2])])
    assert mod.member(Vector(f, [f.fraction(3, 16), f.from_int(6)]))
    assert not mod.member(Vector(f, [f.zero, f.one]))


@pytest.mark.parametrize("sel", ["padic:2", "ratfunc:3"])
def test_module_membership_matches_scale_constrained_solve(sel):
    # the normal-form membership against a scale-constrained solve over the
    # module's own generators
    from ultraconv.randgen import Sampler
    f = Field.from_selector(sel)
    s = Sampler(f, 2718281)
    seen = set()
    for t in range(12):
        d = 1 + t % 3
        mod = s.module(d, max_free=1)
        G = Matrix.from_cols(f, mod.free_gens + mod.integral_gens, nrows=d)
        system = ScaleSystem(G, [FREE] * len(mod.free_gens) + [INTEGRAL] * len(mod.integral_gens))
        for i in range(6):
            x = s.module_point(mod) if i % 2 == 0 else s.vector(d)
            got = mod.member(x)
            assert got == (system.solve_box(x) is not None), f"module {t}, probe {i}"
            seen.add(got)
    assert seen == {True, False}


def test_module_generator_grooming_is_invisible():
    # generators scaled by units present the same module
    f = Field.padic(2)
    u = f.fraction(3, 5)
    gens = _pts(f, (2, 4), (6, 2))
    m1 = MixedModule(f, 2, [], gens)
    m2 = MixedModule(f, 2, [], [g.scale(u) for g in gens])
    s1 = ConvexSet.of(Vector.zero(f, 2), m1)
    s2 = ConvexSet.of(Vector.zero(f, 2), m2)
    assert equals(s1, s2)


def test_translate_membership_dichotomy():
    # a translate of a module either lands back on it or misses entirely
    f = Field.padic(2)
    mod = MixedModule(f, 2, [], _pts(f, (1, 0), (0, 2)))
    base = ConvexSet.of(Vector.zero(f, 2), mod)
    inside = base.translate_by(Vector.from_ints(f, [3, 4]))
    assert equals(inside, base)
    outside = base.translate_by(Vector(f, [f.zero, f.one]))
    assert intersect(outside, base).is_empty


# ---------------------------------------------------------------------------
# randomized law checks via the verify suite

@pytest.mark.parametrize("sel,trials", [
    ("padic:2", 20), ("padic:5", 10), ("ratfunc:0", 4), ("ratfunc:2", 6),
])
def test_convex_property_suite(sel, trials):
    from ultraconv.verify import run_suite
    results = run_suite("convex", Field.from_selector(sel), seed=6180339, trials=trials)
    for r in results:
        assert r.ok, f"{r.name}: {r.failures}"
