"""Differential checks of the exhaustive searches against the plain
enumerations they replaced: Tverberg partition counts against the
restricted-growth enumerator with its intersection fold, ``meets`` against
the folded ``intersect``, alpha against the per-combination fold,
``breadth_reduce`` against the per-combination ``equals`` scan, the
piercing candidates' coverage against a membership scan, and the one nerve
walk behind alpha, beta and the piercing candidates against the three
depth-first searches it replaced and against a scan of all subfamilies for
the maximal faces."""

import itertools
import math
import random
import tracemalloc
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
from ultraconv import combinatorics
from ultraconv.combinatorics import (
    Family,
    breadth_reduce,
    count_tverberg_partitions,
    _intersecting_leaves,
    _maximal_intersecting_subfamilies,
    fractional_helly_stats,
    hyperplane_family,
    pierce,
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


def oracle_alpha_hits(fam, k):
    """Alpha as a depth-first count of the k-subsets: shared prefix
    intersections, empty prefixes cut, the last member decided by meets."""
    n, members = len(fam), fam.members

    def hits(start, prefix, need):
        found = 0
        for j in range(start, n - need + 1):
            if need == 1:
                found += meets(*prefix, members[j])
            else:
                acc = intersect(prefix[0], members[j]) if prefix else members[j]
                if not acc.is_empty:
                    found += hits(j + 1, (acc,), need - 1)
        return found

    total = math.comb(n, k)
    return Fraction(1) if total == 0 else Fraction(hits(0, (), k), total)


def oracle_beta_dfs(fam):
    """Beta as a depth-first search over subfamilies that prunes an empty
    running intersection and a branch too short to beat the best."""
    n, members = len(fam), fam.members
    best = 0

    def dfs(start, current, size):
        nonlocal best
        best = max(best, size)
        for j in range(start, n):
            if size + (n - j) <= best:
                break
            nxt = members[j] if current is None else intersect(current, members[j])
            if not nxt.is_empty:
                dfs(j + 1, nxt, size + 1)

    dfs(0, None, 0)
    return Fraction(best, n)


def oracle_maximal_subfamilies(fam):
    """Every intersecting subfamily visited from the whole space; a leaf
    that no member meets, earlier or later, is kept with a point."""
    n, out = len(fam), []

    def dfs(start, chosen, current):
        extendable = False
        for j in range(start, n):
            nxt = intersect(current, fam.members[j])
            if not nxt.is_empty:
                extendable = True
                dfs(j + 1, chosen + (j,), nxt)
        if extendable or not chosen:
            return
        if any(j not in chosen and meets(current, fam.members[j]) for j in range(start)):
            return
        out.append((chosen, current.a_point()))

    dfs(0, (), fam.full_space())
    return out


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


# ---------------------------------------------------------------------------
# the nerve walk behind alpha, beta and the piercing candidates

def designed_families(f, d):
    """Copies of a ball, nested balls, two disjoint clusters in both
    orders, an isolated member, and a family with a line."""
    zero = Vector.zero(f, d)
    a = quasi_ball(zero, 0)
    b = quasi_ball(Vector.unit(f, d, 0).scale(f.uniformizer_pow(-1)), 0)
    far = Vector.unit(f, d, d - 1).scale(f.uniformizer_pow(-1))
    line = ConvexSet.of(zero, MixedModule(f, d, [Vector.unit(f, d, 0)], ()))
    return [
        Family(f, d, [a] * 6),
        Family(f, d, [quasi_ball(zero, r) for r in (0, 2, -1, 1)]),
        Family(f, d, [a, b] * 4),
        Family(f, d, [a] * 4 + [b] * 4),
        Family(f, d, [a, a, b, a, a]),
        Family(f, d, [a, line, quasi_ball(far, 0), ConvexSet.point(far),
                      quasi_ball(zero, 1)]),
    ]


def joined_families(f, d, seed, count):
    """Two common-point families joined, as the piercing property draws
    them."""
    s = Sampler(f, seed)
    rng = random.Random(seed)
    for _ in range(count):
        fam, _ = s.common_point_family(rng.randint(1, 4), d)
        extra, _ = s.common_point_family(rng.randint(1, 3), d)
        yield Family(f, d, list(fam.members) + list(extra.members))


@pytest.mark.parametrize("sel", FIELDS)
@pytest.mark.parametrize("d", [1, 2])
def test_nerve_walk_matches_the_three_searches_it_replaced(sel, d):
    f = Field.from_selector(sel)
    fams = designed_families(f, d) + list(joined_families(f, d, 40 + d, 6))
    several = 0
    for fam in fams:
        beta = oracle_beta_dfs(fam)
        for k in range(1, len(fam) + 2):
            assert fractional_helly_stats(fam, k) == (oracle_alpha_hits(fam, k), beta), k
        candidates = _maximal_intersecting_subfamilies(fam)
        assert candidates == oracle_maximal_subfamilies(fam)
        several += len(candidates) > 1
    assert several >= 3


def test_nerve_walk_on_copies_of_a_ball_is_linear(monkeypatch):
    """20 copies of the unit ball: one face, reached by one chain of
    intersections; no enumeration of its 2^20 subfamilies.  The counted
    calls stop the search as soon as it spends more than its budget."""
    f = Field.padic(2)
    fam = Family(f, 2, [quasi_ball(Vector.zero(f, 2), 0)] * 20)
    calls = []
    budget = 0

    def counted(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            assert len(calls) <= budget, "over the call budget"
            return fn(*args)
        return wrapped

    monkeypatch.setattr(combinatorics, "intersect", counted(intersect))
    monkeypatch.setattr(combinatorics, "meets", counted(meets))
    budget = 20
    assert pierce(fam) == [Vector.zero(f, 2)]
    calls.clear()
    budget = 19
    assert fractional_helly_stats(fam, 10) == (Fraction(1), Fraction(1))


def test_fractional_helly_counts_the_faces_of_a_leaf_without_storing_them():
    """k = 10 on 20 copies of the unit ball: all C(20, 10) = 184,756 faces
    lie in one leaf, and are counted, not kept (a set of their bitmasks
    peaks at about 17 MB)."""
    f = Field.padic(2)
    fam = Family(f, 2, [quasi_ball(Vector.zero(f, 2), 0)] * 20)
    tracemalloc.start()
    try:
        assert fractional_helly_stats(fam, 10) == (Fraction(1), Fraction(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def oracle_maximal_faces(fam):
    """The inclusion-maximal index sets with a common point, in
    lexicographic order, from a scan of every subfamily."""
    n = len(fam)
    meeting = [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)
               if not fam.intersection(c).is_empty]
    return sorted(c for c in meeting if not any(set(c) < set(o) for o in meeting))


def oracle_pierce(fam):
    """Greedy cover over the old search's candidates, as ``pierce`` does."""
    coverage = [(pt, frozenset(c)) for c, pt in oracle_maximal_subfamilies(fam)]
    chosen, uncovered = [], set(range(len(fam)))
    while uncovered:
        pt, cov = max(coverage, key=lambda c: len(c[1] & uncovered))
        chosen.append(pt)
        uncovered -= cov
    return chosen


@pytest.mark.parametrize("sel", FIELDS)
@pytest.mark.parametrize("d", [1, 2])
def test_nerve_walk_returns_exactly_the_maximal_faces(sel, d):
    f = Field.from_selector(sel)
    fams = designed_families(f, d) + list(joined_families(f, d, 60 + d, 8))
    for fam in fams:
        assert len(fam) <= 8
        expect = oracle_maximal_faces(fam)
        for start in (None, fam.full_space()):
            faces = _intersecting_leaves(fam, start)
            assert [c for c, _, _ in faces] == expect
            for chosen, cur, mask in faces:
                assert mask == sum(1 << i for i in chosen)
                assert equals(cur, fam.intersection(chosen))
            masks = [m for _, _, m in faces]
            assert not any(a != b and a & b == a for a in masks for b in masks)


@pytest.mark.parametrize("sel", FIELDS)
@pytest.mark.parametrize("d", [1, 2])
def test_pierce_builds_no_meets(sel, d, monkeypatch):
    def refuse(*sets):
        raise AssertionError("pierce called meets")

    f = Field.from_selector(sel)
    fams = designed_families(f, d) + list(joined_families(f, d, 40 + d, 6))
    expect = [oracle_pierce(fam) for fam in fams]
    monkeypatch.setattr(combinatorics, "meets", refuse)
    assert [pierce(fam) for fam in fams] == expect
