"""Combinatorial convexity over valued fields, at certificate scale.

Families of convex sets support common-point search, breadth reduction,
Tverberg-style partitions, shattering reports, dual atom counts, designed
hyperplane families, fractional intersection statistics, first-selection
counts and a greedy piercing heuristic.  Everything returns data that can be
re-validated offline with exact arithmetic.

The exhaustive searches build only the hulls and intersections their
answers need: combinations go by increasing index, a running intersection
is shared by every completion of its prefix, and a prefix whose
intersection is empty is cut with its whole subtree.  Tverberg partition
counts build no hull: each partition is decided from the points alone, by
whether one vector lies in an O-span (``_hulls_meet``).

Fractional Helly statistics and piercing candidates share one walk over the
nerve of a family (the index sets whose members share a point), which
returns the nerve's maximal faces.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Set, Tuple

from .field import Field
from .convex import (
    FULL,
    ConvexSet,
    DimensionError,
    MixedModule,
    TooFewPointsError,
    caratheodory_indices,
    conv_hull,
    intersect,
    quasi_ball,
    subset,
)
from .linalg import Vector, _spans_integrally


class EmptyIntersectionError(ValueError):
    """The family has empty total intersection."""


class TooLargeError(ValueError):
    """Instance exceeds the exhaustive-search size cap."""


class Family:
    """A finite ordered family of convex sets in one ambient space."""

    __slots__ = ("field", "dim", "members")

    def __init__(self, field: Field, dim: int, members: Sequence[ConvexSet]):
        for m in members:
            if m.field != field or m.dim != dim:
                raise DimensionError("family member from a different ambient space")
        self.field = field
        self.dim = dim
        self.members = tuple(members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> ConvexSet:
        return self.members[i]

    def __iter__(self):
        return iter(self.members)

    def full_space(self) -> ConvexSet:
        return quasi_ball(Vector.zero(self.field, self.dim), FULL)

    def intersection(self, indices: Optional[Sequence[int]] = None) -> ConvexSet:
        """Left fold of pairwise intersection, with empty short-circuit.
        The empty index list yields the whole space."""
        idx = range(len(self.members)) if indices is None else indices
        acc: Optional[ConvexSet] = None
        for i in idx:
            acc = self.members[i] if acc is None else intersect(acc, self.members[i])
            if acc.is_empty:
                return acc
        return self.full_space() if acc is None else acc


# ---------------------------------------------------------------------------
# common points and sharpness witnesses

def helly_point(fam: Family) -> Optional[Vector]:
    """A common point of all members, or None when there is none."""
    total = fam.intersection()
    if total.is_empty:
        return None
    return total.a_point()


def helly_lower_bound_witness(field: Field, d: int) -> Family:
    """d+1 simplex facets in dimension d: hulls of the maximal proper
    subsets of {0, e_1, ..., e_d}.  Every d of them share a point while the
    whole family does not."""
    pts = [Vector.zero(field, d)] + [Vector.unit(field, d, i) for i in range(d)]
    return Family(field, d, [conv_hull([p for j, p in enumerate(pts) if j != omit])
                             for omit in range(d + 1)])


def coordinate_hyperplanes(field: Field, d: int) -> Family:
    """The d hyperplanes {x : x_i = 0}; their intersection is the origin and
    no proper subfamily pins it down."""
    units, zero = [Vector.unit(field, d, j) for j in range(d)], Vector.zero(field, d)
    return Family(field, d, [ConvexSet.of(zero, MixedModule(field, d, units[:i] + units[i + 1:]))
                             for i in range(d)])


def breadth_reduce(fam: Family) -> List[int]:
    """Indices of at most d members whose intersection already equals the
    total intersection; subsets are searched by size, then lexicographically.

    Each combination extends the cached intersection of its prefix by one
    member.  Every such intersection contains the total, so equality is
    the one inclusion left to check."""
    if len(fam) == 0:
        return []
    total = fam.intersection()
    if total.is_empty:
        raise EmptyIntersectionError("family has empty intersection")
    n = len(fam)
    prefixes = {(): None}
    for size in range(1, min(fam.dim, n) + 1):
        layer = {}
        for combo in itertools.combinations(range(n), size):
            head, last = prefixes[combo[:-1]], fam.members[combo[-1]]
            cur = last if head is None else intersect(head, last)
            if subset(cur, total):
                return list(combo)
            layer[combo] = cur
        prefixes = layer
    raise AssertionError("breadth bound violated: no witness subset of size <= dim")


# ---------------------------------------------------------------------------
# Tverberg partitions

class TverbergPartition:
    """A partition of a point list, given by index blocks, whose hulls form
    a descending chain (so they all share the last block's hull)."""

    __slots__ = ("points", "part_indices")

    def __init__(self, points: Sequence[Vector], part_indices: Sequence[Sequence[int]]):
        self.points = tuple(points)
        self.part_indices = tuple(tuple(p) for p in part_indices)

    @property
    def parts(self) -> List[List[Vector]]:
        return [[self.points[i] for i in block] for block in self.part_indices]

    def __repr__(self) -> str:
        return f"TverbergPartition({[list(b) for b in self.part_indices]})"


def tverberg_partition(points: Sequence[Vector], r: int) -> TverbergPartition:
    """Split (d+1)(r-1)+1 or more points into r blocks with nested hulls.

    Greedy: each of the first r-1 blocks is a Caratheodory reduction of the
    points still unassigned, so its hull equals the hull of that remainder
    and contains every later hull.
    """
    if r < 1:
        raise ValueError("need r >= 1 blocks")
    if not points:
        raise TooFewPointsError("no points given")
    d = points[0].dim
    need = (d + 1) * (r - 1) + 1
    if len(points) < need:
        raise TooFewPointsError(
            f"need at least {need} points for r={r} in dimension {d}, got {len(points)}"
        )
    remaining = list(range(len(points)))
    blocks: List[List[int]] = []
    for _ in range(r - 1):
        sub = caratheodory_indices([points[i] for i in remaining])
        blocks.append([remaining[j] for j in sub])
        chosen = set(sub)
        remaining = [remaining[j] for j in range(len(remaining)) if j not in chosen]
    blocks.append(remaining)
    return TverbergPartition(points, blocks)


def validate_tverberg(points: Sequence[Vector], part: TverbergPartition, r: int) -> bool:
    """Recheck a partition certificate: blocks partition the index set, the
    first r-1 blocks have size d+1, hulls descend, and the last hull's point
    lies in every hull."""
    if len(part.part_indices) != r:
        return False
    seen = sorted(i for block in part.part_indices for i in block)
    if seen != list(range(len(points))):
        return False
    d = points[0].dim
    if any(len(block) != d + 1 for block in part.part_indices[: r - 1]):
        return False
    if any(not block for block in part.part_indices):
        return False
    hulls = [conv_hull([points[i] for i in block]) for block in part.part_indices]
    for prev, nxt in zip(hulls, hulls[1:]):
        if not subset(nxt, prev):
            return False
    witness = hulls[-1].a_point()
    return all(h.contains(witness) for h in hulls)


def _hulls_meet(ops, diff, blocks: Sequence[Tuple[int, ...]], point_in_hull) -> bool:
    """Whether the hulls of the index blocks share a point, from the point
    differences ``diff[i][j]`` = p_j - p_i (payload tuples).  With the
    blocks B_0, ..., B_{k-1} smallest first and t_i the first point of B_i,
    the hull of B_i is t_i + O-span(p - t_i), so the hulls meet exactly when
    (t_i - t_0)_{i>=1} lies in the O-span of each B_0 difference repeated in
    all k-1 row blocks and each B_i difference negated in row block i-1.
    Only B_0 couples the row blocks; a one-point B_0 must lie in each other
    hull (``point_in_hull``)."""
    (t0, *firsts), *others = sorted(blocks, key=len)
    if not firsts:
        return all(point_in_hull(t0, b) for b in others)
    zero, k = diff[t0][t0], len(others)
    cols = [diff[t0][p] * k for p in firsts]
    for i, (t, *ps) in enumerate(others):
        cols += [zero * i + diff[p][t] + zero * (k - 1 - i) for p in ps]
    return _spans_integrally(ops, cols, sum((diff[t0][b[0]] for b in others), ()))


def count_tverberg_partitions(points: Sequence[Vector], r: int) -> int:
    """Number of unordered partitions of the point list into r nonempty
    blocks whose hulls share a point; one block (r = 1) is always a
    partition.  Exhaustive; capped at 12 points.  For r >= 2, points of
    unequal dimension or from different fields raise ``DimensionError``.

    Blocks are chosen one at a time: each takes the least unassigned index
    plus a subset of the other unassigned ones, leaving at least one index
    for every block still to come.  A prefix of two or more blocks whose
    hulls miss each other is cut with its whole subtree; once two blocks
    remain, the second is the rest.  Each question is one ``_hulls_meet``
    on point differences computed once per call; no hull is built."""
    n = len(points)
    if n > 12:
        raise TooLargeError("exhaustive partition count is capped at 12 points")
    if r < 1 or r > n:
        return 0
    if r == 1:
        return 1
    field, d = points[0].field, points[0].dim
    if any(p.dim != d or p.field != field for p in points):
        raise DimensionError("points of unequal dimension or from different fields")
    ops = field.ops
    diff = [[tuple(map(ops.sub, q._data, p._data)) for q in points] for p in points]

    @functools.cache
    def point_in_hull(i: int, block: Tuple[int, ...]) -> bool:
        t, *ps = block
        return _spans_integrally(ops, [diff[t][p] for p in ps], diff[t][i])

    indices = functools.cache(lambda mask: tuple(i for i in range(n) if mask >> i & 1))

    def count(prefix: Tuple[Tuple[int, ...], ...], free: int, blocks: int) -> int:
        low = free & -free
        others = free ^ low
        found = 0
        sub = others
        while True:
            rest = others ^ sub
            if rest.bit_count() >= blocks - 1:
                chosen = prefix + (indices(low | sub),)
                if blocks == 2:
                    found += _hulls_meet(ops, diff, chosen + (indices(rest),), point_in_hull)
                elif not prefix or _hulls_meet(ops, diff, chosen, point_in_hull):
                    found += count(chosen, rest, blocks - 1)
            if not sub:
                return found
            sub = (sub - 1) & others

    return count((), (1 << n) - 1, r)


# ---------------------------------------------------------------------------
# shattering

class ShatterReport:
    """Outcome of a shattering test on a point list.

    When not shattered, ``failing_subset`` lists the indices of a subset S
    whose hull swallows the point at ``violator`` despite it lying outside
    S, so no convex set can cut S out exactly.
    """

    __slots__ = ("points", "shattered", "failing_subset", "violator")

    def __init__(self, points: Sequence[Vector], shattered: bool,
                 failing_subset: Optional[Tuple[int, ...]] = None,
                 violator: Optional[int] = None):
        self.points = tuple(points)
        self.shattered = shattered
        self.failing_subset = failing_subset
        self.violator = violator


def is_shattered(points: Sequence[Vector]) -> ShatterReport:
    """Exhaustive test whether hulls separate every subset of the list.

    Since the hull is the smallest convex superset, a subset S can be cut
    out by some convex set exactly when conv(S) avoids the other points;
    subsets are scanned by size, then lexicographically.  Capped at 12
    points.
    """
    n = len(points)
    if n > 12:
        raise TooLargeError("shattering test is capped at 12 points")
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            hull = conv_hull([points[i] for i in combo])
            for j in range(n):
                if j in combo:
                    continue
                if hull.contains(points[j]):
                    return ShatterReport(points, False, combo, j)
    return ShatterReport(points, True)


def dual_atoms(fam: Family, probes: Sequence[Vector]) -> int:
    """Number of distinct membership sign-vectors the probe points realize
    against the family."""
    seen: Set[Tuple[bool, ...]] = set()
    for q in probes:
        seen.add(tuple(m.contains(q) for m in fam.members))
    return len(seen)


# ---------------------------------------------------------------------------
# designed hyperplane families

def hyperplane_family(field: Field, d: int, n: int) -> Family:
    """n hyperplanes in general position in dimension d, cut out by the
    moment coefficients (1, a, ..., a^(d-1)) at distinct nonzero integers
    a = 1..n: every d of them meet in one point, every d+1 have empty
    intersection."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if field.kind == "ratfunc" and field.param != 0 and n >= field.param:
        raise ValueError(
            f"need n < characteristic for distinct anchors; got n={n}, char={field.param}"
        )
    members = []
    for a in range(1, n + 1):
        ae = field.from_int(a)
        powers = [field.one]
        for _ in range(d):
            powers.append(powers[-1] * ae)
        # point with sum_k a^k v_{k+1} = -a^d: put everything on the first axis
        translate = Vector(field, [-powers[d]] + [field.zero] * (d - 1))
        gens = []
        for k in range(1, d):
            coords = [field.zero] * d
            coords[0] = -powers[k]
            coords[k] = field.one
            gens.append(Vector(field, coords))
        members.append(ConvexSet.of(translate, MixedModule(field, d, gens, ())))
    return Family(field, d, members)


# ---------------------------------------------------------------------------
# fractional statistics and piercing

def _intersecting_leaves(fam: Family, start: Optional[ConvexSet]
                         ) -> List[Tuple[Tuple[int, ...], ConvexSet, int]]:
    """The maximal faces of the nerve, in depth-first order, each with its
    intersection and its index bitmask.

    The walk goes over increasing indices with a running intersection from
    ``start`` (None: the first chosen member), cutting empty prefixes.  Its
    leaves are the index sets with a common point that no later member
    meets.  A child whose extension by every later index still has a
    common point ends the walk over its later siblings: their leaves are
    subsets of that extension, itself a leaf.  Every maximal face is a
    leaf, and depth-first order is lexicographic, so a maximal face comes
    before every leaf inside it: at the first place where the two differ,
    the face holds the smaller index.  A leaf is therefore kept exactly
    when no leaf kept before it holds its bitmask."""
    members = fam.members
    n = len(members)
    faces: List[Tuple[Tuple[int, ...], ConvexSet, int]] = []

    def walk(lo: int, chosen: Tuple[int, ...], cur: Optional[ConvexSet]) -> bool:
        # whether chosen together with every index from lo on has a common point
        extendable = False
        for j in range(lo, n):
            nxt = members[j] if cur is None else intersect(cur, members[j])
            if nxt.is_empty:
                continue
            extendable = True
            if walk(j + 1, chosen + (j,), nxt):
                return j == lo
        if not extendable and chosen:
            mask = sum(1 << i for i in chosen)
            if not any(mask & m == mask for _, _, m in faces):
                faces.append((chosen, cur, mask))
        return lo == n

    walk(0, (), start)
    return faces


def fractional_helly_stats(fam: Family, k: int) -> Tuple[Fraction, Fraction]:
    """(alpha, beta): the exact fraction of k-index-subfamilies with a
    common point (the nerve's k-faces over C(n, k)), and the largest
    fraction of members sharing one point.  Every k-face lies inside a
    maximal face from ``_intersecting_leaves``, so alpha counts each
    k-subset of those faces once, at the first face that holds it, and
    beta is the longest face over n.  Capped at 20 members.
    """
    n = len(fam)
    if n > 20:
        raise TooLargeError("fractional statistics are capped at 20 members")
    if n == 0:
        raise ValueError("empty family has no statistics")
    if k < 1:
        raise ValueError("subfamily size must be at least 1")
    faces = _intersecting_leaves(fam, None)
    count = math.comb(len(faces[0][0]), k) if faces else 0
    for i in range(1, len(faces)):
        earlier = [m for _, _, m in faces[:i]]
        # each k-subset of the face as an index bitmask, unless an earlier
        # face holds it
        for sub in map(sum, itertools.combinations([1 << j for j in faces[i][0]], k)):
            if not any(sub & m == sub for m in earlier):
                count += 1
    total = math.comb(n, k)
    alpha = Fraction(1) if total == 0 else Fraction(count, total)
    beta = Fraction(max((len(c) for c, _, _ in faces), default=0), n)
    return alpha, beta


def _maximal_intersecting_subfamilies(fam: Family) -> List[Tuple[Tuple[int, ...], Vector]]:
    """All inclusion-maximal index sets with nonempty intersection, each
    with one point of that intersection: the nerve's maximal faces, walked
    from the whole space, so the point lies in no other member."""
    return [(chosen, cur.a_point())
            for chosen, cur, _ in _intersecting_leaves(fam, fam.full_space())]


def pierce(fam: Family) -> List[Vector]:
    """Greedy piercing heuristic (experimental): candidate points come from
    maximal intersecting subfamilies, then greedy set cover picks points
    until every member contains one.  No optimality is claimed."""
    n = len(fam)
    if n > 20:
        raise TooLargeError("piercing search is capped at 20 members")
    if n == 0:
        return []
    if any(m.is_empty for m in fam.members):
        raise ValueError("family contains an empty member; it cannot be pierced")
    coverage = [(pt, frozenset(chosen)) for chosen, pt in _maximal_intersecting_subfamilies(fam)]
    chosen: List[Vector] = []
    uncovered = set(range(n))
    while uncovered:
        # the first candidate of largest gain
        pt, cov = max(coverage, key=lambda c: len(c[1] & uncovered))
        if not cov & uncovered:
            raise AssertionError("some member is not covered by any candidate point")
        chosen.append(pt)
        uncovered -= cov
    return chosen


def selection_point(points: Sequence[Vector]) -> Tuple[Vector, int, int]:
    """The input point lying in the most hulls of (d+1)-element index
    subsets, with its count and the total number of such subsets; ties keep
    the earliest point.  Capped at 12 points."""
    n = len(points)
    if n > 12:
        raise TooLargeError("selection search is capped at 12 points")
    if n == 0:
        raise TooFewPointsError("no points given")
    d = points[0].dim
    counts = [0] * n
    total = 0
    for combo in itertools.combinations(range(n), d + 1):
        total += 1
        hull = conv_hull([points[i] for i in combo])
        for a in range(n):
            if a in combo or hull.contains(points[a]):
                counts[a] += 1
    best = max(range(n), key=lambda i: (counts[i], -i))
    return points[best], counts[best], total
