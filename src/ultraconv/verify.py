"""Seeded randomized verification suites.

A property is a ``prop_<name>(res, s, field, trials)`` function listed in
``SUITES``.  :func:`run_suite` builds its :class:`PropertyResult`, named
``<name>``, and its :class:`~ultraconv.randgen.Sampler` ``s``, whose seed is
derived deterministically from the run seed and the property name, so a
report is reproducible byte for byte.  Properties never raise on a
counterexample; they record it in ``res``.
"""
from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .field import Field, FieldElement, INFINITY
from .linalg import (
    FREE,
    INTEGRAL,
    LinearSolver,
    Matrix,
    ScaleSystem,
    Vector,
    orthogonalize,
    solve,
)
from .convex import (
    FULL,
    ConvexSet,
    MixedModule,
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
from .combinatorics import (
    Family,
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
from .randgen import Sampler

_MASK64 = (1 << 64) - 1
_MAX_RECORDED = 5


@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: List[str] = dc_field(default_factory=list)
    notes: List[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, message: str) -> None:
        if len(self.failures) < _MAX_RECORDED:
            self.failures.append(message)
        elif len(self.failures) == _MAX_RECORDED:
            self.failures.append("... more failures suppressed")


def _dims(trials: int, hi: int = 4):
    for t in range(trials):
        yield t, 1 + t % hi


# ---------------------------------------------------------------------------
# field properties

def prop_val_multiplicative(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t in range(trials):
        x, y = s.element(), s.element()
        if (x * y).val() != x.val() + y.val():
            res.record(f"trial {t}: val({x}*{y})")


def prop_val_ultrametric(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t in range(trials):
        x, y = s.element(), s.element()
        vx, vy, vs = x.val(), y.val(), (x + y).val()
        if vs < min(vx, vy):
            res.record(f"trial {t}: subadditivity fails for {x}, {y}")
        if vx != vy and vs != min(vx, vy):
            res.record(f"trial {t}: strict case fails for {x}, {y}")


def prop_canonical_idempotent(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t in range(trials):
        x = s.element()
        if field.kind == "padic":
            num, den = x.data
            again = field.fraction(num * 7, den * 7)
        else:
            shared = field.uniformizer_pow(1) + field.one  # t + 1
            again = (x * shared) / shared
        if again != x or field.parse(x.render()) != x:
            res.record(f"trial {t}: canonical form unstable for {x}")


def prop_parse_render_roundtrip(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t in range(trials):
        x = s.element()
        back = field.parse(x.render())
        if back != x:
            res.record(f"trial {t}: {x.render()!r} reparses as {back.render()!r}")


# ---------------------------------------------------------------------------
# linalg properties

def prop_solve_exactness(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t, d in _dims(trials):
        n = s.rng.randint(1, d + 2)
        A = Matrix(field, [[s.element() for _ in range(n)] for _ in range(d)])
        c = Vector(field, [s.element() for _ in range(n)])
        b = A.mul_vec(c)
        got = solve(A, b)
        if got is None or A.mul_vec(got[0]) != b:
            res.record(f"trial {t}: particular solution wrong")
            continue
        for k in got[1]:
            if not A.mul_vec(k).is_zero:
                res.record(f"trial {t}: kernel vector not in kernel")


def prop_ortho_valuation_identity(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """val of a combination equals min over val(c_i) + gamma_i."""
    for t, d in _dims(trials):
        module = s.module(d)
        basis = orthogonalize(list(module.integral_gens), field=field)
        if len(basis) == 0:
            continue
        B = Matrix.from_cols(field, basis.vectors, d)
        for _ in range(200):
            cs = [s.element() for _ in basis.vectors]
            expect = min(c.val() + g for c, g in zip(cs, basis.gammas))
            if B.mul_vec(Vector(field, cs)).val() != expect:
                res.record(f"trial {t}: valuation identity fails")
                break


def prop_ortho_gammas_sorted(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t, d in _dims(trials):
        module = s.module(d)
        basis = orthogonalize(list(module.integral_gens), field=field)
        if list(basis.gammas) != sorted(basis.gammas):
            res.record(f"trial {t}: gammas not nondecreasing: {basis.gammas}")
        if len(set(basis.pivot_indices)) != len(basis.pivot_indices):
            res.record(f"trial {t}: pivot indices repeat")


def prop_ortho_span_preserved(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Inputs and orthogonalized outputs generate the same O-span."""
    for t, d in _dims(trials):
        gens = [s.vector(d, nonzero=True) for _ in range(s.rng.randint(1, d + 2))]
        basis = orthogonalize(gens, field=field)
        sys_in = ScaleSystem(Matrix.from_cols(field, gens, nrows=d), [INTEGRAL] * len(gens))
        sys_out = ScaleSystem(Matrix.from_cols(field, list(basis.vectors), nrows=d),
                              [INTEGRAL] * len(basis.vectors))
        for g in gens:
            if sys_out.solve_box(g) is None:
                res.record(f"trial {t}: input generator escapes the output span")
                break
        for u in basis.vectors:
            if sys_in.solve_box(u) is None:
                res.record(f"trial {t}: output vector escapes the input span")
                break


def prop_gamma_multiset_invariance(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Weights depend only on the module, not its presentation."""
    for t, d in _dims(trials):
        gens = [s.vector(d, nonzero=True) for _ in range(s.rng.randint(1, d + 2))]
        base = orthogonalize(gens, field=field).gamma_multiset()
        perm = list(range(len(gens)))
        s.rng.shuffle(perm)
        if orthogonalize([gens[i] for i in perm], field=field).gamma_multiset() != base:
            res.record(f"trial {t}: permutation changes the weights")
        k = len(gens)
        U = s.unimodular_int_matrix(k)
        G = Matrix.from_cols(field, gens)
        regens = [G.mul_vec(Vector(field, [U[i][j] for i in range(k)])) for j in range(k)]
        if orthogonalize(regens, field=field).gamma_multiset() != base:
            res.record(f"trial {t}: ring-invertible re-presentation changes the weights")


def _random_scales(s: Sampler, n: int) -> List[str]:
    return [INTEGRAL if s.rng.random() < 0.7 else FREE for _ in range(n)]


def prop_constrained_kernel_sound(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Everything generated by a constrained kernel solves G c = 0 and
    respects the scale box."""
    for t, d in _dims(trials):
        n = s.rng.randint(1, d + 2)
        G = Matrix(field, [[s.element() for _ in range(n)] for _ in range(d)])
        scales = _random_scales(s, n)
        system = ScaleSystem(G, scales)
        free, integral = system.free_part, system.integral_part
        B = Matrix.from_cols(field, free + integral, n)
        for _ in range(10):
            acc = B.mul_vec(Vector(field, [s.element() for _ in free]
                                   + [s.integral_element() for _ in integral]))
            if not G.mul_vec(acc).is_zero:
                res.record(f"trial {t}: combination leaves the kernel")
                break
            if any(sc == INTEGRAL and not acc[i].is_integral for i, sc in enumerate(scales)):
                res.record(f"trial {t}: combination violates an integral scale")
                break


def prop_constrained_kernel_complete(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Scale-respecting kernel points are reproduced by the generators."""
    for t, d in _dims(trials):
        n = s.rng.randint(1, d + 2)
        G = Matrix(field, [[s.element() for _ in range(n)] for _ in range(d)])
        scales = _random_scales(s, n)
        kernel = LinearSolver(G).kernel()
        if not kernel:
            continue
        system = ScaleSystem(G, scales)
        free, integral = system.free_part, system.integral_part
        cols = free + integral
        sys_out = ScaleSystem(Matrix.from_cols(field, cols, nrows=n),
                              [FREE] * len(free) + [INTEGRAL] * len(integral))
        K = Matrix.from_cols(field, kernel)
        for _ in range(10):
            z = K.mul_vec(Vector(field, [s.integral_element() if s.rng.random() < 0.7
                                         else s.element() for _ in kernel]))
            if any(sc == INTEGRAL and not z[i].is_integral for i, sc in enumerate(scales)):
                continue
            if z.is_zero:
                continue
            if sys_out.solve_box(z) is None:
                res.record(f"trial {t}: scale-respecting kernel point missed")
                break


def prop_mixed_solve_correct(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t, d in _dims(trials):
        n = s.rng.randint(1, d + 2)
        G = Matrix(field, [[s.element() for _ in range(n)] for _ in range(d)])
        scales = _random_scales(s, n)
        # a solvable right-hand side with a box point behind it
        c = Vector(field, [
            s.integral_element() if sc == INTEGRAL else s.element() for sc in scales
        ])
        x = G.mul_vec(c)
        got = ScaleSystem(G, scales).solve_box(x)
        if got is None:
            res.record(f"trial {t}: solvable box instance reported unsolvable")
            continue
        if G.mul_vec(got) != x:
            res.record(f"trial {t}: witness does not solve the system")
        if any(sc == INTEGRAL and not got[i].is_integral for i, sc in enumerate(scales)):
            res.record(f"trial {t}: witness violates a scale")


# ---------------------------------------------------------------------------
# convex properties

def prop_hull_soundness(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Integral 3-term combinations with coefficient sum 1 stay in the hull."""
    per_trial = max(1, 150 // max(trials, 1))
    for t, d in _dims(trials):
        pts = s.points(s.rng.randint(1, d + 3), d)
        hull = conv_hull(pts)
        for _ in range(per_trial):
            x = s.hull_point(pts)
            if not hull.contains(x):
                res.record(f"trial {t}: hull misses a convex combination")
                break


def prop_hull_minimality(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """The hull is contained in every quasi-ball containing the points."""
    for t, d in _dims(trials):
        pts = s.points(s.rng.randint(1, d + 3), d)
        hull = conv_hull(pts)
        center = pts[s.rng.randrange(len(pts))] + s.vector(d)
        radius = min((p - center).val() for p in pts)
        ball = quasi_ball(center, FULL if radius == INFINITY else radius)
        if not subset(hull, ball):
            res.record(f"trial {t}: hull escapes an enclosing ball")


def prop_radon_validates(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t, d in _dims(trials):
        pts = s.points(d + 2, d)
        cert = radon_point(pts)
        if not validate_radon(pts, cert):
            res.record(f"trial {t}: certificate fails validation")


def prop_caratheodory_equality(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t, d in _dims(trials):
        pts = s.points(s.rng.randint(d + 2, 12), d)
        sub = [pts[i] for i in caratheodory_indices(pts)]
        if len(sub) > d + 1:
            res.record(f"trial {t}: reduction kept {len(sub)} points")
            continue
        if not equals(conv_hull(sub), conv_hull(pts)):
            res.record(f"trial {t}: reduced hull differs")


def prop_flag_membership_agreement(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Normal-form membership agrees with flag-coordinate membership and
    with a scale-constrained solve over the module's generators."""
    for t, d in _dims(trials):
        c = s.convex_set(d)
        flag = flag_decompose(c)
        m = c.module
        G = Matrix.from_cols(field, m.free_gens + m.integral_gens, nrows=d)
        system = ScaleSystem(G, [FREE] * len(m.free_gens) + [INTEGRAL] * len(m.integral_gens))
        gs = [g for g in flag.gamma_multiset()]
        if gs != sorted(gs):
            res.record(f"trial {t}: flag weights out of order")
        for i in range(20):
            if i % 2 == 0:
                x = c.translate + s.module_point(c.module)
            else:
                x = s.vector(d)
            via_nf = c.contains(x)
            via_flag = flag.member(x - c.translate)
            via_scale = system.solve_box(x - c.translate) is not None
            if not (via_nf == via_flag == via_scale):
                res.record(f"trial {t}: membership disagreement at {x!r}")
                break


def prop_intersect_oracle(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Point sampling agrees with the computed intersection both ways."""
    for t, d in _dims(trials):
        c1, c2 = s.convex_set(d), s.convex_set(d)
        both = intersect(c1, c2)
        if not both.is_empty:
            if not (c1.contains(both.a_point()) and c2.contains(both.a_point())):
                res.record(f"trial {t}: witness point outside an operand")
            if not (subset(both, c1) and subset(both, c2)):
                res.record(f"trial {t}: intersection escapes an operand")
        samples = []
        for i in range(12):
            if i % 3 == 0:
                samples.append(c1.translate + s.module_point(c1.module))
            elif i % 3 == 1:
                samples.append(c2.translate + s.module_point(c2.module))
            elif not both.is_empty:
                samples.append(both.translate + s.module_point(both.module))
        for x in samples:
            joint = c1.contains(x) and c2.contains(x)
            if joint != both.contains(x):
                res.record(f"trial {t}: sampling contradicts the intersection")
                break


def prop_intersect_algebra(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Commutativity and idempotence up to set equality."""
    for t, d in _dims(trials, hi=3):
        c1, c2 = s.convex_set(d), s.convex_set(d)
        ab, ba = intersect(c1, c2), intersect(c2, c1)
        if ab.is_empty != ba.is_empty or (not ab.is_empty and not equals(ab, ba)):
            res.record(f"trial {t}: intersection is not commutative")
        if not equals(intersect(c1, c1), c1):
            res.record(f"trial {t}: intersection is not idempotent")


def prop_translate_dichotomy(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """A translate of a convex set either equals it or misses it entirely."""
    for t, d in _dims(trials):
        c = s.convex_set(d)
        a = s.vector(d)
        shifted = c.translate_by(a)
        same = equals(c, shifted)
        if same != c.module.member(a):
            res.record(f"trial {t}: equality disagrees with module membership")
        if not same and not intersect(c, shifted).is_empty:
            res.record(f"trial {t}: translate neither equal nor disjoint")


def prop_min_gamma_is_min_valuation(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Without full lines the least weight is the least valuation attained;
    with a full line valuations are unbounded below."""
    for t, d in _dims(trials):
        module = s.module(d)
        _, basis = module.normal_form()
        if len(basis) == 0:
            continue
        least = min(basis.gammas)
        seen = min([basis.vectors[0].val()] + [g.val() for g in module.integral_gens]
                   + [s.module_point(module).val() for _ in range(30)])
        if seen != least:
            res.record(f"trial {t}: least weight {least} vs sampled minimum {seen}")
        # now adjoin a full line and witness unbounded valuations
        line = s.vector(d, nonzero=True)
        bigger = MixedModule(field, d, (line,), module.integral_gens)
        for bound in (10, 20):
            shift = line.val()
            deep = line.scale(field.uniformizer_pow(-bound - shift))
            if not (deep.val() <= -bound and bigger.member(deep)):
                res.record(f"trial {t}: full line fails to go below -{bound}")
                break


def prop_largest_inner_ball(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """For a full-rank integral module the largest quasi-ball inside it has
    radius equal to the last weight."""
    for t, d in _dims(trials, hi=3):
        module = s.module(d)
        _, basis = module.normal_form()
        if len(basis) != d:
            continue
        last = max(basis.gammas)
        c = ConvexSet.of(Vector.zero(field, d), module)
        if not subset(quasi_ball(Vector.zero(field, d), last), c):
            res.record(f"trial {t}: ball of radius {last} escapes")
        if subset(quasi_ball(Vector.zero(field, d), last - 1), c):
            res.record(f"trial {t}: ball of radius {last - 1} unexpectedly fits")


def two_term_counterexample() -> Tuple[List[Vector], List[FieldElement], Vector]:
    """The fixed 2-adic points (0,0,0), (1,0,0), (0,1,1), the weights
    (-1, 1, 1) and the combination they give."""
    f = Field.padic(2)
    pts = [Vector.from_ints(f, row) for row in ([0, 0, 0], [1, 0, 0], [0, 1, 1])]
    weights = [f.from_int(-1), f.one, f.one]
    return pts, weights, Matrix.from_cols(f, pts).mul_vec(Vector(f, weights))


def check_two_term_counterexample() -> bool:
    """Closure under pairwise ring combinations does not force convexity:
    over the 2-adics, the union of coordinate slabs
    {a in O^3 : some a_i in the maximal ideal} contains
    (0,0,0), (1,0,0), (0,1,1) and every pairwise combination of them, yet
    the 3-term combination with weights (-1, 1, 1) lands on (1,1,1) outside."""
    def in_set(v: Vector) -> bool:
        return all(a.is_integral for a in v.coords) and any(a.val() > 0 for a in v.coords)

    pts, weights, combo = two_term_counterexample()
    f = combo.field
    if not all(in_set(p) for p in pts):
        return False
    if not all(w.is_integral for w in weights):
        return False
    if sum(weights, f.zero) != f.one:
        return False
    if combo != Vector.from_ints(f, [1, 1, 1]):
        return False
    return not in_set(combo)


def prop_two_term_counterexample(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    res.trials = 1
    if not check_two_term_counterexample():
        res.record("the fixed three-point counterexample does not behave as expected")


# ---------------------------------------------------------------------------
# combinatorics properties

def prop_helly_positive(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t, d in _dims(trials, hi=3):
        fam, hidden = s.common_point_family(s.rng.randint(1, 6), d)
        got = helly_point(fam)
        if got is None:
            res.record(f"trial {t}: common point exists but was not found")
            continue
        if not all(m.contains(got) for m in fam.members):
            res.record(f"trial {t}: reported point is not common")
        if not all(m.contains(hidden) for m in fam.members):
            res.record(f"trial {t}: designed point is not common (generator bug)")


def prop_helly_sharpness(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """The simplex-facet family: total intersection empty, every proper
    subfamily of size d nonempty."""
    res.trials = 3
    for d in (1, 2, 3):
        fam = helly_lower_bound_witness(field, d)
        if helly_point(fam) is not None:
            res.record(f"d={d}: family unexpectedly has a common point")
        for combo in itertools.combinations(range(d + 1), d):
            if fam.intersection(combo).is_empty:
                res.record(f"d={d}: subfamily {combo} should intersect")


def prop_breadth_bound(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    for t, d in _dims(trials, hi=3):
        fam, _ = s.common_point_family(s.rng.randint(1, d + 2), d)
        total = fam.intersection()
        idx = breadth_reduce(fam)
        if len(idx) > d:
            res.record(f"trial {t}: witness subset of size {len(idx)} exceeds {d}")
            continue
        if not equals(fam.intersection(idx), total):
            res.record(f"trial {t}: witness subset misses the total intersection")
    for d in (1, 2, 3):
        if len(breadth_reduce(coordinate_hyperplanes(field, d))) != d:
            res.record(f"coordinate hyperplanes in dim {d} need exactly {d} members")


def prop_shatter_simplex(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    res.trials = 4
    for d in (1, 2, 3, 4):
        pts = [Vector.zero(field, d)] + [Vector.unit(field, d, i) for i in range(d)]
        if not is_shattered(pts).shattered:
            res.record(f"standard d+1 points in dim {d} should shatter")


def prop_no_shatter_oversized(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """d+2 points never shatter, and a Radon certificate exhibits the
    violated subset."""
    for t, d in _dims(trials):
        pts = s.points(d + 2, d)
        report = is_shattered(pts)
        if report.shattered:
            res.record(f"trial {t}: d+2 points reported shattered")
            continue
        cert = radon_point(pts)
        others = [p for j, p in enumerate(pts) if j != cert.index]
        if not conv_hull(others).contains(pts[cert.index]):
            res.record(f"trial {t}: certificate does not yield a violation")


def prop_tverberg_valid(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    combos = [(d, r) for d in (1, 2, 3) for r in (2, 3)]
    for t in range(trials):
        d, r = combos[t % len(combos)]
        pts = s.points((d + 1) * (r - 1) + 1, d)
        part = tverberg_partition(pts, r)
        if not validate_tverberg(pts, part, r):
            res.record(f"trial {t}: partition fails validation (d={d}, r={r})")


def prop_dual_atoms_grid(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Coordinate hyperplanes with the 0/1 probe grid realize all 2^d
    membership patterns; nested members never produce inverted patterns."""
    for d in (1, 2, 3, 4):
        fam = coordinate_hyperplanes(field, d)
        probes = [Vector.from_ints(field, bits) for bits in itertools.product((0, 1), repeat=d)]
        got = dual_atoms(fam, probes)
        if got != 2**d:
            res.record(f"dim {d}: expected {2**d} atoms, got {got}")
    for t, d in _dims(trials, hi=3):
        base = s.convex_set(d)
        grown = MixedModule(
            field, d,
            list(base.module.free_gens),
            list(base.module.integral_gens) + [s.vector(d, nonzero=True)],
        )
        fam = Family(field, d, [base, ConvexSet.of(base.translate, grown)])
        probes = [s.vector(d) for _ in range(10)] + [base.translate + s.module_point(base.module)]
        for q in probes:
            if fam.members[0].contains(q) and not fam.members[1].contains(q):
                res.record(f"trial {t}: nested pair realizes an inverted pattern")
                break


def prop_hyperplane_family_design(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """In the plane: all pairs of designed lines meet, all triples are
    empty, and the statistics match."""
    res.trials = 1
    n = 6
    if field.kind == "ratfunc" and field.param != 0:
        n = min(n, field.param - 1)
    if n < 3:
        res.notes.append(f"characteristic too small for a 3-line check (n={n})")
        return
    fam = hyperplane_family(field, 2, n)
    for i, j in itertools.combinations(range(n), 2):
        if fam.intersection((i, j)).is_empty:
            res.record(f"lines {i},{j} should meet")
    for combo in itertools.combinations(range(n), 3):
        if not fam.intersection(combo).is_empty:
            res.record(f"lines {combo} should have empty intersection")
    alpha, beta = fractional_helly_stats(fam, 2)
    if alpha != 1:
        res.record(f"alpha should be 1, got {alpha}")
    if beta != Fraction(2, n):
        res.record(f"beta should be {Fraction(2, n)}, got {beta}")
    if alpha == 1 and not beta > 0:
        res.record("alpha = 1 must force a positive beta")


def prop_selection_counts(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    pts = [
        Vector.from_ints(field, [0, 0]),
        Vector.from_ints(field, [1, 0]),
        Vector.from_ints(field, [0, 1]),
        Vector.from_ints(field, [1, 1]),
    ]
    _, count, total = selection_point(pts)
    if (count, total) != (4, 4):
        res.record(f"unit square expected 4 of 4, got {count} of {total}")
    for t in range(trials):
        sample = s.points(8, 2)
        _, count, total = selection_point(sample)
        if count < 1:
            res.record(f"trial {t}: best point covered by no subset hull")


def prop_pierce_covers(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    z = Vector.zero(field, 1)
    nested = Family(field, 1, [quasi_ball(z, 2), quasi_ball(z, 1), quasi_ball(z, 0)])
    if len(pierce(nested)) != 1:
        res.record("three nested balls need exactly one piercing point")
    for t, d in _dims(trials, hi=2):
        fam, _ = s.common_point_family(s.rng.randint(1, 4), d)
        extra, _ = s.common_point_family(s.rng.randint(1, 3), d)
        joined = Family(field, d, list(fam.members) + list(extra.members))
        n = len(joined)
        alpha, beta = fractional_helly_stats(joined, 2)
        pairs = sum(not joined.intersection(c).is_empty
                    for c in itertools.combinations(range(n), 2))
        if alpha != Fraction(pairs, math.comb(n, 2)):
            res.record(f"trial {t}: alpha for pairs differs from the pair scan")
        if beta * n < max(len(fam), len(extra)):
            res.record(f"trial {t}: beta is below the larger common-point group")
        pts = pierce(joined)
        for m in joined.members:
            if not any(m.contains(p) for p in pts):
                res.record(f"trial {t}: a member is left unpierced")
                break


def _block_partitions(n: int, r: int):
    """Unordered partitions of range(n) into r nonempty blocks, one per
    restricted-growth string: a labelling that uses every label and meets
    them first in the order 0, 1, ..., r-1."""
    for labels in itertools.product(range(r), repeat=n):
        if set(labels) == set(range(r)) and all(
                labels.index(k) < labels.index(k + 1) for k in range(r - 1)):
            yield [[i for i, b in enumerate(labels) if b == k] for k in range(r)]


def _stirling2(n: int, r: int) -> int:
    """S(n, r), the number of partitions of n points into r nonempty blocks."""
    return sum((-1) ** k * math.comb(r, k) * (r - k) ** n for k in range(r + 1)) // math.factorial(r)


def prop_tverberg_count_conjecture(res: PropertyResult, s: Sampler, field: Field, trials: int) -> None:
    """Each count lies between 1 (``tverberg_partition`` finds a partition
    of these n = (d+1)(r-1)+1 points) and S(n, r), and for n <= 5 equals an
    enumeration of the partitions, each folded by ``Family.intersection``.
    Shortfalls below the conjectured floor are notes, never failures."""
    combos = [(d, r) for d in (1, 2) for r in (2, 3)]
    for t in range(trials):
        d, r = combos[t % len(combos)]
        n = (d + 1) * (r - 1) + 1
        pts = s.points(n, d)
        got = count_tverberg_partitions(pts, r)
        if not 1 <= got <= _stirling2(n, r):
            res.record(f"trial {t}: d={d}, r={r}: {got} partitions, outside 1..S({n}, {r})")
        elif n <= 5:
            want = sum(
                not Family(field, d, [conv_hull([pts[i] for i in b]) for b in blocks])
                .intersection().is_empty
                for blocks in _block_partitions(n, r))
            if got != want:
                res.record(f"trial {t}: d={d}, r={r}: {got} partitions, enumeration finds {want}")
        bound = math.factorial(r - 1) ** d
        if got < bound:
            res.notes.append(
                f"trial {t}: d={d}, r={r}: {got} partitions, conjectured floor {bound}"
            )


# ---------------------------------------------------------------------------
# suite registry

SUITES: Dict[str, List[Callable[[PropertyResult, Sampler, Field, int], None]]] = {
    "field": [
        prop_val_multiplicative,
        prop_val_ultrametric,
        prop_canonical_idempotent,
        prop_parse_render_roundtrip,
    ],
    "linalg": [
        prop_solve_exactness,
        prop_ortho_valuation_identity,
        prop_ortho_gammas_sorted,
        prop_ortho_span_preserved,
        prop_gamma_multiset_invariance,
        prop_constrained_kernel_sound,
        prop_constrained_kernel_complete,
        prop_mixed_solve_correct,
    ],
    "convex": [
        prop_hull_soundness,
        prop_hull_minimality,
        prop_radon_validates,
        prop_caratheodory_equality,
        prop_flag_membership_agreement,
        prop_intersect_oracle,
        prop_intersect_algebra,
        prop_translate_dichotomy,
        prop_min_gamma_is_min_valuation,
        prop_largest_inner_ball,
        prop_two_term_counterexample,
    ],
    "combinatorics": [
        prop_helly_positive,
        prop_helly_sharpness,
        prop_breadth_bound,
        prop_shatter_simplex,
        prop_no_shatter_oversized,
        prop_tverberg_valid,
        prop_dual_atoms_grid,
        prop_hyperplane_family_design,
        prop_selection_counts,
        prop_pierce_covers,
        prop_tverberg_count_conjecture,
    ],
}


def run_suite(name: str, field: Field, seed: int, trials: int) -> List[PropertyResult]:
    if name == "all":
        out = []
        for key in ("field", "linalg", "convex", "combinatorics"):
            out.extend(run_suite(key, field, seed, trials))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    results = []
    for prop in SUITES[name]:
        res = PropertyResult(prop.__name__[len("prop_"):], trials)
        derived = (seed * 1000003 + zlib.crc32(res.name.encode())) & _MASK64
        try:
            prop(res, Sampler(field, derived), field, trials)
        except Exception as exc:
            # a library invariant that breaks fails this property, not the suite
            res.record(f"raised {type(exc).__name__}: {exc}")
        results.append(res)
    return results
