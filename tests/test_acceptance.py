"""Acceptance suite.

One test per numbered criterion, so ``pytest -v tests/test_acceptance.py``
prints exactly one pass/fail line for each.  Everything here is exact
arithmetic; there are no tolerances to loosen.  The conjecture harness at
the end reports violations instead of asserting, since the underlying
question is open.

The whole module is budgeted to finish in well under five minutes.
"""

import itertools
import math
import warnings

from ultraconv.field import Field
from ultraconv.linalg import Vector, orthogonalize
from ultraconv.convex import (
    ConvexSet,
    MixedModule,
    caratheodory_indices,
    conv_hull,
    equals,
    flag_decompose,
    quasi_ball,
    radon_point,
    subset,
    validate_radon,
)
from ultraconv.combinatorics import (
    breadth_reduce,
    coordinate_hyperplanes,
    count_tverberg_partitions,
    dual_atoms,
    fractional_helly_stats,
    helly_lower_bound_witness,
    helly_point,
    hyperplane_family,
    is_shattered,
    selection_point,
    tverberg_partition,
    validate_tverberg,
)
from ultraconv.randgen import Sampler
from ultraconv.verify import check_two_term_counterexample

from fractions import Fraction

PADIC2 = Field.padic(2)
PADIC5 = Field.padic(5)
RATFUNC0 = Field.ratfunc(0)

SEED = 0x5EEDED


# ---------------------------------------------------------------------------

def test_criterion_01_hull_of_standard_simplex_is_unit_ball():
    """conv{0, e_1, ..., e_d} equals the unit ball O^d for d = 1..4."""
    for field in (PADIC2, PADIC5, RATFUNC0):
        for d in (1, 2, 3, 4):
            pts = [Vector.zero(field, d)] + [
                Vector.unit(field, d, i) for i in range(d)]
            assert equals(conv_hull(pts), quasi_ball(Vector.zero(field, d), 0)), \
                f"hull golden case failed: {field.selector}, d={d}"


def test_criterion_02_radon_certificates_1000_instances():
    """1000 random (d+2)-point Radon instances across three backends; every
    certificate re-validates exactly."""
    plans = [
        (PADIC2, [1, 2, 3, 4] * 100),            # 400
        (PADIC5, [1, 2, 3, 4] * 100),            # 400
        (RATFUNC0, [1] * 70 + [2] * 70 + [3] * 50 + [4] * 10),  # 200
    ]
    ran = 0
    for field, dims in plans:
        s = Sampler(field, SEED + ran)
        for d in dims:
            pts = s.points(d + 2, d)
            cert = radon_point(pts)
            assert validate_radon(pts, cert), \
                f"radon certificate failed: {field.selector}, d={d}, instance {ran}"
            ran += 1
    assert ran == 1000


def test_criterion_03_caratheodory_200_instances():
    """200 random hulls shrink to at most d+1 points without changing."""
    s2, s5 = Sampler(PADIC2, SEED), Sampler(PADIC5, SEED + 1)
    for i in range(200):
        s = s2 if i % 2 == 0 else s5
        d = 1 + (i % 4)
        n = s.rng.randint(2, 12)
        pts = s.points(n, d)
        idx = caratheodory_indices(pts)
        assert len(idx) <= d + 1, f"instance {i}: kept {len(idx)} points in dim {d}"
        assert equals(conv_hull([pts[j] for j in idx]), conv_hull(pts)), \
            f"instance {i}: hull changed after reduction"


def test_criterion_04_flag_decomposition_200_modules():
    """Orthogonal bases of 200 random modules: the valuation identity at 200
    coefficient tuples each, weight-multiset invariance under 5 ring-invertible
    re-presentations, and flag membership agreeing with solver membership on
    200 points each."""
    s = Sampler(PADIC2, SEED + 4)
    field = PADIC2
    for i in range(200):
        d = 1 + (i % 4)
        mod = s.module(d)
        cs = ConvexSet.of(Vector.zero(field, d), mod)
        flag = flag_decompose(cs)
        _, basis = mod.normal_form()

        # valuation of any combination is the minimum of the parts
        for _ in range(200):
            coeffs = [s.element() for _ in basis.vectors]
            combo = Vector.zero(field, d)
            for c, u in zip(coeffs, basis.vectors):
                combo = combo + u.scale(c)
            expected = min(
                (c.val() + g for c, g in zip(coeffs, basis.gammas)),
                default=combo.val())
            assert combo.val() == expected, f"module {i}: valuation identity broke"

        # the weight multiset is an invariant of the module
        base = basis.gamma_multiset()
        assert flag.gamma_multiset() == base
        gens = list(mod.integral_gens)
        k = len(gens)
        for _ in range(5):
            U = s.unimodular_matrix(k)
            regens = []
            for col in range(k):
                acc = Vector.zero(field, d)
                for row in range(k):
                    if not U[row][col].is_zero:
                        acc = acc + gens[row].scale(U[row][col])
                regens.append(acc)
            got = orthogonalize(regens, field=field).gamma_multiset()
            assert got == base, f"module {i}: re-presentation moved the weights"

        # flag membership is the same predicate as solver membership
        for j in range(200):
            x = s.module_point(mod) if j % 2 == 0 else s.vector(d)
            assert flag.member(x) == mod.member(x), \
                f"module {i}: flag and solver membership disagree"


def test_criterion_05_helly_number_is_d_plus_1():
    """The d+1 witness family pins the Helly number from below for d = 1,2,3;
    100 random families with a common point are solved and verified."""
    for d in (1, 2, 3):
        fam = helly_lower_bound_witness(PADIC2, d)
        assert len(fam.members) == d + 1
        assert fam.intersection().is_empty, f"witness d={d}: total not empty"
        for ix in itertools.combinations(range(d + 1), d):
            assert not fam.intersection(list(ix)).is_empty, \
                f"witness d={d}: subfamily {ix} is empty"

    s = Sampler(PADIC2, SEED + 5)
    for i in range(100):
        d = 1 + (i % 3)
        fam, _ = s.common_point_family(s.rng.randint(1, 6), d)
        p = helly_point(fam)
        assert p is not None, f"family {i}: no common point found"
        for m in fam.members:
            assert m.contains(p), f"family {i}: reported point not common"


def test_criterion_06_breadth_at_most_d():
    """breadth_reduce returns at most d indices with the exact intersection
    on 100 random families; coordinate hyperplanes show sharpness."""
    s = Sampler(PADIC2, SEED + 6)
    for i in range(100):
        d = 1 + (i % 3)
        fam, _ = s.common_point_family(s.rng.randint(1, 7), d)
        idx = breadth_reduce(fam)
        assert len(idx) <= d, f"family {i}: {len(idx)} indices exceed d={d}"
        assert equals(fam.intersection(idx), fam.intersection()), \
            f"family {i}: reduced intersection differs"
    for d in (1, 2, 3):
        assert len(breadth_reduce(coordinate_hyperplanes(PADIC2, d))) == d, \
            f"coordinate hyperplanes in dim {d} must need exactly {d} members"


def test_criterion_07_vc_dimension_is_d_plus_1():
    """d+1 standard points shatter for d = 1..4; 200 random (d+2)-sets never
    shatter, each with a Radon-derived violated subset."""
    for d in (1, 2, 3, 4):
        pts = [Vector.zero(PADIC2, d)] + [
            Vector.unit(PADIC2, d, i) for i in range(d)]
        assert is_shattered(pts).shattered, f"standard points in dim {d}"

    s = Sampler(PADIC2, SEED + 7)
    for i in range(200):
        d = 1 + (i % 4)
        pts = s.points(d + 2, d)
        report = is_shattered(pts)
        assert not report.shattered, f"instance {i}: d+2 points shattered"
        cert = radon_point(pts)
        others = [p for j, p in enumerate(pts) if j != cert.index]
        assert conv_hull(others).contains(pts[cert.index]), \
            f"instance {i}: Radon certificate gives no violation"


def test_criterion_08_dual_shatter_grid_realizes_all_patterns():
    """d coordinate hyperplanes against the 0/1 grid give 2^d membership
    patterns for d = 1..4."""
    for d in (1, 2, 3, 4):
        fam = coordinate_hyperplanes(PADIC2, d)
        probes = [
            Vector.from_ints(PADIC2, [(mask >> i) & 1 for i in range(d)])
            for mask in range(1 << d)]
        got = dual_atoms(fam, probes)
        assert got == 1 << d, f"dim {d}: {got} patterns instead of {1 << d}"


def test_criterion_09_strong_tverberg_600_instances():
    """100 instances per (d, r) in {1,2,3} x {2,3} at the critical size
    (d+1)(r-1)+1: r blocks, correct sizes, nested hulls, common point."""
    for d, r in itertools.product((1, 2, 3), (2, 3)):
        n = (d + 1) * (r - 1) + 1
        s = Sampler(PADIC2, SEED + 100 * d + r)
        for i in range(100):
            pts = s.points(n, d)
            part = tverberg_partition(pts, r)
            assert validate_tverberg(pts, part, r), \
                f"(d={d}, r={r}) instance {i}: partition failed validation"


def test_criterion_10_fractional_helly_sharpness_pattern():
    """hyperplane_family(2, 8): all 28 pairs meet, all 56 triples are empty,
    and the statistics are alpha = 1 at k = 2 with beta = 1/4."""
    fam = hyperplane_family(PADIC2, 2, 8)
    assert len(fam.members) == 8
    for i, j in itertools.combinations(range(8), 2):
        assert not fam.intersection([i, j]).is_empty, f"pair ({i},{j}) empty"
    for ix in itertools.combinations(range(8), 3):
        assert fam.intersection(list(ix)).is_empty, f"triple {ix} nonempty"
    alpha, beta = fractional_helly_stats(fam, 2)
    assert alpha == Fraction(1), f"alpha = {alpha}"
    assert beta == Fraction(1, 4), f"beta = {beta}"


def test_criterion_11_selection_lemma_counts():
    """50 random 8-point planar sets: the selected point lies in at least one
    triple hull; the worked 4-point example achieves 4 of 4."""
    s = Sampler(PADIC2, SEED + 11)
    for i in range(50):
        pts = s.points(8, 2)
        point, count, total = selection_point(pts)
        assert point in pts, f"instance {i}: selected point not an input"
        assert count >= 1, f"instance {i}: count {count} < 1"
        assert total == math.comb(8, 3)

    square = [Vector.from_ints(PADIC2, list(r))
              for r in ((0, 0), (1, 0), (0, 1), (1, 1))]
    _, count, total = selection_point(square)
    assert (count, total) == (4, 4)


def test_criterion_12_two_term_counterexample_vector():
    """The fixed 3-point combination flips the predicate "some coordinate has
    positive valuation" from true on every input to false on the output."""
    f = PADIC2
    pts = [Vector.from_ints(f, r) for r in ([0, 0, 0], [1, 0, 0], [0, 1, 1])]
    weights = [f.from_int(-1), f.one, f.one]
    assert sum((w for w in weights), f.zero) == f.one
    combo = Vector.zero(f, 3)
    for w, p in zip(weights, pts):
        combo = combo + p.scale(w)
    assert combo == Vector.from_ints(f, [1, 1, 1])

    def some_coordinate_in_max_ideal(v):
        return any(c.val() > 0 for c in v.coords)

    assert all(some_coordinate_in_max_ideal(p) for p in pts)
    assert not some_coordinate_in_max_ideal(combo)
    assert check_two_term_counterexample()


def test_criterion_13_partition_count_conjecture_harness():
    """Reported, not asserted: count_tverberg_partitions against the floor
    ((r-1)!)^d on 50 instances per (d, r) in {1,2} x {2,3}.  Violations are
    surfaced as warnings so the suite stays green while the question is open."""
    violations = []
    checked = 0
    for d, r in itertools.product((1, 2), (2, 3)):
        n = (d + 1) * (r - 1) + 1
        floor = math.factorial(r - 1) ** d
        s = Sampler(PADIC2, SEED + 13 * d + r)
        for i in range(50):
            pts = s.points(n, d)
            count = count_tverberg_partitions(pts, r)
            checked += 1
            if count < floor:
                violations.append((d, r, i, count, floor))
    assert checked == 200
    if violations:
        warnings.warn(
            f"partition-count floor violated on {len(violations)} of 200 "
            f"instances: {violations[:5]}")
    print(f"conjecture harness: {checked} instances, "
          f"{len(violations)} below the floor")
