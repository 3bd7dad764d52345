"""Intersection combinatorics: Helly, breadth, shattering, partitions."""

from fractions import Fraction

import pytest

from ultraconv.field import Field
from ultraconv.linalg import Vector
from ultraconv.convex import ConvexSet, conv_hull, equals, quasi_ball, subset
from ultraconv.combinatorics import (
    EmptyIntersectionError,
    Family,
    TooLargeError,
    breadth_reduce,
    coordinate_hyperplanes,
    count_tverberg_partitions,
    dual_atoms,
    fractional_helly_stats,
    helly_lower_bound_witness,
    helly_point,
    hyperplane_family,
    is_shattered,
    pierce,
    selection_point,
    tverberg_partition,
    validate_tverberg,
)


def _pts(f, *rows):
    return [Vector.from_ints(f, list(r)) for r in rows]


# ---------------------------------------------------------------------------
# families

def test_family_intersection_folds():
    f = Field.padic(2)
    c = Vector.zero(f, 2)
    fam = Family(f, 2, [quasi_ball(c, 0), quasi_ball(c, 1), quasi_ball(c, 2)])
    assert equals(fam.intersection(), quasi_ball(c, 2))
    assert equals(fam.intersection([0, 1]), quasi_ball(c, 1))
    assert equals(fam.intersection([]), fam.full_space())


# ---------------------------------------------------------------------------
# helly

@pytest.mark.parametrize("d", [1, 2, 3])
def test_helly_lower_bound_witness(d):
    """d+1 sets with empty total intersection whose d-subfamilies all meet."""
    import itertools
    f = Field.padic(2)
    fam = helly_lower_bound_witness(f, d)
    assert len(fam.members) == d + 1
    assert fam.intersection().is_empty
    for ix in itertools.combinations(range(d + 1), d):
        assert not fam.intersection(list(ix)).is_empty
    assert helly_point(fam) is None


def test_helly_point_on_meeting_family():
    f = Field.padic(2)
    center = Vector.from_ints(f, [4, 6])
    fam = Family(f, 2, [quasi_ball(center, r) for r in (-1, 0, 1)])
    p = helly_point(fam)
    assert p is not None
    for m in fam.members:
        assert m.contains(p)


# ---------------------------------------------------------------------------
# breadth

def test_breadth_coordinate_hyperplanes_frozen():
    f = Field.padic(2)
    for d in (1, 2, 3):
        fam = coordinate_hyperplanes(f, d)
        idx = breadth_reduce(fam)
        assert idx == list(range(d))


def test_breadth_redundant_family_collapses():
    f = Field.padic(2)
    c = Vector.zero(f, 2)
    fam = Family(f, 2, [quasi_ball(c, 0), quasi_ball(c, 2), quasi_ball(c, 1),
                        quasi_ball(c, 2)])
    idx = breadth_reduce(fam)
    assert len(idx) <= 2
    assert equals(fam.intersection(idx), fam.intersection())


def test_breadth_requires_nonempty_intersection():
    f = Field.padic(2)
    fam = Family(f, 1, [ConvexSet.point(Vector.from_ints(f, [0])),
                        ConvexSet.point(Vector.from_ints(f, [1]))])
    with pytest.raises(EmptyIntersectionError):
        breadth_reduce(fam)


# ---------------------------------------------------------------------------
# shattering

def test_simplex_points_shatter():
    f = Field.padic(2)
    for d in (1, 2, 3, 4):
        pts = [Vector.zero(f, d)] + [Vector.unit(f, d, i) for i in range(d)]
        assert is_shattered(pts).shattered


def test_oversized_sets_never_shatter():
    f = Field.padic(2)
    pts = _pts(f, (0, 0), (1, 0), (0, 1), (1, 1))
    report = is_shattered(pts)
    assert not report.shattered
    # the reported subset cannot be cut out: its hull grabs the violator
    sub = [pts[i] for i in report.failing_subset]
    assert conv_hull(sub).contains(pts[report.violator])
    assert report.violator not in report.failing_subset


def test_shatter_caps_input_size():
    f = Field.padic(2)
    report = is_shattered(_pts(f, *[(i,) for i in range(12)]))
    assert not report.shattered
    with pytest.raises(TooLargeError):
        is_shattered(_pts(f, *[(i,) for i in range(13)]))


# ---------------------------------------------------------------------------
# dual atoms

def test_dual_atoms_grid_counts():
    f = Field.padic(2)
    for d in (1, 2, 3):
        fam = coordinate_hyperplanes(f, d)
        probes = []
        for mask in range(1 << d):
            probes.append(Vector.from_ints(
                f, [(mask >> i) & 1 for i in range(d)]))
        assert dual_atoms(fam, probes) == 1 << d


def test_dual_atoms_deduplicates_patterns():
    f = Field.padic(2)
    fam = coordinate_hyperplanes(f, 2)
    p = Vector.from_ints(f, [0, 0])
    assert dual_atoms(fam, [p, p, p]) == 1


# ---------------------------------------------------------------------------
# tverberg

def test_tverberg_frozen_line_example():
    f = Field.padic(5)
    pts = _pts(f, (0,), (1,), (5,))
    part = tverberg_partition(pts, 2)
    assert part.part_indices == ((1, 2), (0,))
    assert validate_tverberg(pts, part, 2)


def test_tverberg_hulls_nest():
    f = Field.padic(2)
    pts = _pts(f, (0, 0), (2, 0), (0, 2), (1, 1), (3, 1), (1, 3), (2, 2))
    r = 3
    part = tverberg_partition(pts, r)
    assert validate_tverberg(pts, part, r)
    hulls = [conv_hull(block) for block in part.parts]
    for earlier, later in zip(hulls, hulls[1:]):
        assert subset(later, earlier)


def test_validate_tverberg_rejects_wrong_block_sizes():
    from ultraconv.combinatorics import TverbergPartition
    f = Field.padic(5)
    pts = _pts(f, (0,), (1,), (5,))
    bad = TverbergPartition(pts, [(0,), (1, 2)])
    assert not validate_tverberg(pts, bad, 2)


def test_count_tverberg_frozen():
    f = Field.padic(5)
    pts = _pts(f, (0,), (1,), (5,))
    assert count_tverberg_partitions(pts, 2) == 2


def test_count_tverberg_caps_input_size():
    f = Field.padic(2)
    pts = _pts(f, *[(i,) for i in range(13)])
    with pytest.raises(TooLargeError):
        count_tverberg_partitions(pts, 2)


# ---------------------------------------------------------------------------
# fractional helly

def test_hyperplane_family_frozen_stats():
    import itertools
    f = Field.padic(2)
    fam = hyperplane_family(f, 2, 6)
    assert len(fam.members) == 6
    for i, j in itertools.combinations(range(6), 2):
        assert not fam.intersection([i, j]).is_empty
    for ix in itertools.combinations(range(6), 3):
        assert fam.intersection(list(ix)).is_empty
    alpha, beta = fractional_helly_stats(fam, 2)
    assert alpha == Fraction(1)
    assert beta == Fraction(1, 3)


def test_hyperplane_family_needs_room_in_small_characteristic():
    f = Field.ratfunc(3)
    with pytest.raises(ValueError):
        hyperplane_family(f, 2, 5)


def test_fractional_helly_stats_on_nested_balls():
    f = Field.padic(2)
    c = Vector.zero(f, 1)
    fam = Family(f, 1, [quasi_ball(c, r) for r in (0, 1, 2)])
    alpha, beta = fractional_helly_stats(fam, 2)
    assert alpha == Fraction(1)
    assert beta == Fraction(1)


# ---------------------------------------------------------------------------
# selection and piercing

def test_selection_unit_square_frozen():
    f = Field.padic(2)
    pts = _pts(f, (0, 0), (1, 0), (0, 1), (1, 1))
    point, count, total = selection_point(pts)
    assert (count, total) == (4, 4)
    assert point in pts


def test_selection_prefers_covered_points():
    f = Field.padic(2)
    # 0 sits in every hull of the cluster {0, 2, 4}; 1 is isolated
    pts = _pts(f, (0,), (2,), (4,), (1,))
    point, count, total = selection_point(pts)
    assert point == pts[0] or count >= 1


def test_pierce_nested_balls_single_point():
    f = Field.padic(2)
    c = Vector.from_ints(f, [3, 5])
    fam = Family(f, 2, [quasi_ball(c, r) for r in (0, 1, 2)])
    pts = pierce(fam)
    assert len(pts) == 1
    for m in fam.members:
        assert m.contains(pts[0])


def test_pierce_split_family_needs_two_points():
    f = Field.padic(2)
    a = quasi_ball(Vector.from_ints(f, [0]), 0)
    b = quasi_ball(Vector.from_ints(f, [1]), 0)
    fam = Family(f, 1, [a, b])
    pts = pierce(fam)
    assert len(pts) <= 2
    for m in fam.members:
        assert any(m.contains(p) for p in pts)


def test_pierce_rejects_empty_members():
    f = Field.padic(2)
    fam = Family(f, 1, [ConvexSet.empty(f, 1)])
    with pytest.raises(ValueError):
        pierce(fam)


# ---------------------------------------------------------------------------
# randomized law checks via the verify suite

@pytest.mark.parametrize("sel,trials", [
    ("padic:2", 20), ("padic:5", 10), ("ratfunc:0", 4), ("ratfunc:2", 6),
])
def test_combinatorics_property_suite(sel, trials):
    from ultraconv.verify import run_suite
    results = run_suite("combinatorics", Field.from_selector(sel),
                        seed=2718281, trials=trials)
    for r in results:
        assert r.ok, f"{r.name}: {r.failures}"


@pytest.mark.parametrize("halve", [0, 1], ids=["alpha", "beta"])
def test_pierce_covers_property_catches_halved_statistics(monkeypatch, halve):
    """The random piercing property checks alpha against a pair scan and
    beta against the larger common-point group, so a fractional_helly_stats
    that halves either one makes it fail."""
    from ultraconv import verify
    stats = verify.fractional_helly_stats

    def halved(fam, k):
        out = list(stats(fam, k))
        out[halve] /= 2
        return tuple(out)

    monkeypatch.setattr(verify, "fractional_helly_stats", halved)
    results = verify.run_suite("combinatorics", Field.padic(2), seed=0, trials=6)
    assert next(r for r in results if r.name == "pierce_covers").failures
