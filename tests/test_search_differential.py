"""Differential checks of the exhaustive searches against the plain
enumerations they replaced: Tverberg partition counts against the
restricted-growth enumerator with its intersection fold, ``meets`` against
the folded ``intersect``, alpha against the per-combination fold,
``breadth_reduce`` against the per-combination ``equals`` scan, and the
piercing candidates' coverage against a membership scan."""

import itertools
import random
from fractions import Fraction

import pytest

from ultraconv.field import Field
from ultraconv.linalg import DimensionError, Vector
from ultraconv.convex import (
    ConvexSet,
    MixedModule,
    conv_hull,
    equals,
    intersect,
    meets,
    quasi_ball,
)
from ultraconv.combinatorics import (
    Family,
    breadth_reduce,
    count_tverberg_partitions,
    _maximal_intersecting_subfamilies,
    fractional_helly_stats,
    hyperplane_family,
)
from ultraconv.randgen import Sampler

FIELDS = ("padic:2", "padic:3", "ratfunc:3")


# ---------------------------------------------------------------------------
# oracles: the enumerations the searches used before

def partitions_into_blocks(n, r):
    """Unordered partitions of range(n) into exactly r nonempty blocks,
    as restricted-growth strings built one element at a time."""

    def rec(i, blocks):
        if i == n:
            if len(blocks) == r:
                yield [list(b) for b in blocks]
            return
        if len(blocks) + (n - i) < r:
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < r:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def fold(sets):
    acc = sets[0]
    for c in sets[1:]:
        acc = intersect(acc, c)
        if acc.is_empty:
            break
    return acc


def oracle_tverberg_count(points, r):
    if r < 1 or r > len(points):
        return 0
    return sum(
        not fold([conv_hull([points[i] for i in b]) for b in blocks]).is_empty
        for blocks in partitions_into_blocks(len(points), r)
    )


def oracle_alpha(fam, k):
    combos = list(itertools.combinations(range(len(fam)), k))
    if not combos:
        return Fraction(1)
    return Fraction(sum(not fam.intersection(c).is_empty for c in combos), len(combos))


def oracle_beta(fam):
    n = len(fam)
    best = max(
        (size for size in range(1, n + 1)
         for c in itertools.combinations(range(n), size)
         if not fam.intersection(c).is_empty),
        default=0,
    )
    return Fraction(best, n)


def oracle_breadth(fam):
    total = fam.intersection()
    for size in range(1, min(fam.dim, len(fam)) + 1):
        for combo in itertools.combinations(range(len(fam)), size):
            if equals(fam.intersection(combo), total):
                return list(combo)
    raise AssertionError("no witness subset")


# ---------------------------------------------------------------------------
# instances

def small_element(f, rng):
    return f.from_int(rng.randint(-3, 3)) * f.uniformizer_pow(rng.randint(-1, 1))


def tverberg_points(f, rng, n, d):
    """n points in dimension d: small coordinates so that many hulls meet,
    with some points repeated."""
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.2:
            pts.append(rng.choice(pts))
        else:
            pts.append(Vector(f, [small_element(f, rng) for _ in range(d)]))
    return pts


def set_pool(f, d, seed):
    """Sets of every kind ``meets`` distinguishes: empty, single points,
    hulls, quasi-balls, sets with free lines, and members of a family with a
    hidden common point."""
    s = Sampler(f, seed)
    rng = random.Random(seed)
    p = s.vector(d)
    fam, _ = s.common_point_family(3, d)
    line = ConvexSet.of(s.vector(d), MixedModule(f, d, [s.vector(d, nonzero=True)], ()))
    pool = [
        ConvexSet.empty(f, d),
        ConvexSet.point(p),
        conv_hull([p, p]),
        conv_hull(tverberg_points(f, rng, d + 1, d)),
        conv_hull(tverberg_points(f, rng, 2, d)),
        quasi_ball(p, 0),
        quasi_ball(s.vector(d), -1),
        line,
        s.convex_set(d),
    ] + list(fam.members)
    # a point inside the common-point family's first member
    pool.append(ConvexSet.point(fam.members[0].a_point()))
    return pool


# ---------------------------------------------------------------------------
# Tverberg counts

@pytest.mark.parametrize("sel", FIELDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tverberg_count_matches_restricted_growth_oracle(sel, d):
    f = Field.from_selector(sel)
    rng = random.Random(f"{sel}/{d}")
    for n in {1: (4, 8), 2: (5, 7), 3: (6, 7)}[d]:
        pts = tverberg_points(f, rng, n, d)
        for r in range(1, 5):
            assert count_tverberg_partitions(pts, r) == oracle_tverberg_count(pts, r), (n, r)


def test_tverberg_count_with_every_point_repeated():
    f = Field.padic(2)
    p, q = Vector.from_ints(f, [0, 1]), Vector.from_ints(f, [3, 2])
    pts = [p, q, p, q, p, q]
    for r in range(1, 5):
        assert count_tverberg_partitions(pts, r) == oracle_tverberg_count(pts, r)


# ---------------------------------------------------------------------------
# meets

@pytest.mark.parametrize("sel", FIELDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_meets_matches_folded_intersect(sel, d):
    f = Field.from_selector(sel)
    pool = set_pool(f, d, seed=d)
    rng = random.Random(f"meets/{sel}/{d}")
    families = [(c,) for c in pool]
    families += list(itertools.combinations(pool, 2))
    families += [tuple(rng.sample(pool, k)) for k in (3, 4) for _ in range(12)]
    answers = set()
    for sets in families:
        got = meets(*sets)
        assert got == (not fold(list(sets)).is_empty), sets
        answers.add(got)
    assert answers == {True, False}


def test_meets_of_nothing_is_the_whole_space():
    assert meets()


def test_meets_rejects_mixed_ambients():
    f = Field.padic(2)
    a = ConvexSet.point(Vector.from_ints(f, [0, 0]))
    b = quasi_ball(Vector.from_ints(f, [0, 0, 0]), 0)
    for sets in [(a, b), (b, a), (a, a, b), (ConvexSet.empty(f, 2), b),
                 (a, quasi_ball(Vector.from_ints(Field.padic(3), [0, 0]), 0))]:
        with pytest.raises(DimensionError):
            meets(*sets)


# ---------------------------------------------------------------------------
# fractional helly and breadth

def _families(f, d, seed):
    s = Sampler(f, seed)
    common, _ = s.common_point_family(4, d)
    pool = set_pool(f, d, seed)
    rng = random.Random(seed)
    mixed = rng.sample(pool, 5)
    fams = [
        common,
        Family(f, d, mixed),
        Family(f, d, list(common.members) + [pool[1]]),
    ]
    if not (f.kind == "ratfunc" and f.param <= 5):
        fams.append(hyperplane_family(f, d, 5))
    return fams


@pytest.mark.parametrize("sel", FIELDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_fractional_helly_stats_match_per_combination_fold(sel, d):
    f = Field.from_selector(sel)
    for fam in _families(f, d, seed=10 + d):
        beta = oracle_beta(fam)
        for k in sorted({1, 2, d + 1, len(fam), len(fam) + 1}):
            assert fractional_helly_stats(fam, k) == (oracle_alpha(fam, k), beta), k


@pytest.mark.parametrize("sel", FIELDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_breadth_reduce_matches_equals_scan(sel, d):
    f = Field.from_selector(sel)
    s = Sampler(f, 20 + d)
    rng = random.Random(20 + d)
    for _ in range(3):
        fam, hidden = s.common_point_family(rng.randint(2, 5), d)
        members = list(fam.members) + [quasi_ball(hidden, rng.randint(-1, 1))]
        rng.shuffle(members)
        fam = Family(f, d, members)
        assert breadth_reduce(fam) == oracle_breadth(fam)


# ---------------------------------------------------------------------------
# piercing candidates

def oracle_coverage(fam, point):
    return tuple(i for i, m in enumerate(fam.members) if m.contains(point))


@pytest.mark.parametrize("sel", FIELDS)
@pytest.mark.parametrize("d", [1, 2])
def test_pierce_candidates_lie_in_exactly_their_subfamily(sel, d):
    f = Field.from_selector(sel)
    s = Sampler(f, 30 + d)
    rng = random.Random(f"pierce/{sel}/{d}")
    for _ in range(6):
        fam, _ = s.common_point_family(rng.randint(1, 4), d)
        extra, _ = s.common_point_family(rng.randint(1, 3), d)
        joined = Family(f, d, list(fam.members) + list(extra.members))
        candidates = _maximal_intersecting_subfamilies(joined)
        assert candidates
        for chosen, point in candidates:
            assert chosen == oracle_coverage(joined, point), chosen
