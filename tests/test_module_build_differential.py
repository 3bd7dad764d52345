"""Differential checks of ``MixedModule`` construction against the
two-pass build it replaced.

The oracle keeps the earlier code: the drop rule (``independent_indices``)
on each generator list, then ``orthogonalize`` of the kept free lines, then
the normal form from the kept integral generators reduced modulo that free
basis.  The library now eliminates the images first and builds the kept
generators and the normal form in the same pass (``linalg._kept_basis``),
running the drop rule only when elimination meets a vanishing projection.
The arithmetic is exact, so generators and bases must agree exactly.
"""

import random

import pytest

from ultraconv import linalg
from ultraconv.convex import MixedModule, _groom_free
from ultraconv.field import Field
from ultraconv.linalg import LinearSolver, Vector, independent_indices

from test_drop_rule_differential import oracle_orthogonalize
from test_elimination_differential import (
    FIELDS,
    oracle_independent_indices,
    same_basis,
    vectors,
)


def oracle_module(field, free_gens, integral_gens):
    """(free generators, integral generators, free basis, integral basis)
    as the two-pass build gave them."""
    free = [_groom_free(field, v) for v in free_gens]
    free = [free[i] for i in oracle_independent_indices(field, free)]
    free_basis = oracle_orthogonalize(free, field)
    kept = [g for g in (v.groomed() for v in integral_gens)
            if not free_basis._reduce(g)[1].is_zero]
    integral = [kept[i] for i in oracle_independent_indices(field, kept)]
    int_basis = oracle_orthogonalize([free_basis._reduce(g)[1] for g in integral], field)
    return free, integral, free_basis, int_basis


def dependent(field, vs):
    return len(oracle_independent_indices(field, vs)) < len(vs)


def expected_drop_runs(field, free_gens, integral_gens):
    """The list lengths the drop rule is run on: a list whose images are
    dependent, and again the kept images when they still are."""
    runs = []
    free = [_groom_free(field, v) for v in free_gens]
    if dependent(field, free):
        runs.append(len(free))
    free_basis = oracle_orthogonalize([free[i] for i in oracle_independent_indices(field, free)], field)
    gens = [g for g in (v.groomed() for v in integral_gens)
            if not free_basis._reduce(g)[1].is_zero]
    reduced = [free_basis._reduce(g)[1] for g in gens]
    if dependent(field, reduced):
        runs.append(len(gens))
        kept = [reduced[i] for i in oracle_independent_indices(field, gens)]
        if dependent(field, kept):
            runs.append(len(kept))
    return runs


def assert_same_module(f, free_gens, integral_gens, note):
    got = MixedModule(f, free_gens[0].dim if free_gens else integral_gens[0].dim,
                      free_gens, integral_gens)
    want_free, want_int, want_fb, want_ib = oracle_module(f, free_gens, integral_gens)
    assert list(got.free_gens) == want_free, note
    assert list(got.integral_gens) == want_int, note
    free_basis, int_basis = got.normal_form()
    assert same_basis(free_basis, want_fb), note
    assert same_basis(int_basis, want_ib), note
    return got


def designed_cases(f, d):
    """Case A: an integral generator independent over K but dependent on
    another modulo the free line.  Case B: zero and proportional free
    lines, and integral generators dependent twice over (the drop rule
    drops one, and the kept ones are still dependent modulo the free
    line).  Then zero, repeated and proportional generators, and
    independent ones with and without a free line."""
    def e(*xs):
        return Vector.from_ints(f, list(xs) + [0] * (d - len(xs)))
    return [
        ([e(1)], [e(0, 1), e(1, 1)]),
        ([e(0), e(2), e(4)], [e(0, 2), e(0, 4), e(0), e(1, 6)]),
        ([], [e(0), e(0), e(1, 1)]),
        ([e(0)], [e(1, 1), e(1, 1), e(0)]),
        ([e(1, 1), e(1, 1)], [e(1), e(0, 1), e(0, 1)]),
        ([], [e(1), e(2), e(0, 1)]),
        ([], [e(1), e(0, 1)] + ([e(0, 0, 1)] if d > 2 else [])),
        ([e(1)], [e(0, 2)]),
    ]


@pytest.mark.parametrize("sel,trials", FIELDS)
def test_module_build_matches_the_two_pass_oracle(sel, trials, monkeypatch):
    f = Field.from_selector(sel)
    rng = random.Random(f"module-build-{sel}")
    limit = 3 if sel == "ratfunc:0" else 4
    runs = []

    def counted(field, vs):
        runs.append(len(vs))
        return independent_indices(field, vs)

    monkeypatch.setattr(linalg, "independent_indices", counted)
    cases = [(d, c) for d in (2, 3) for c in designed_cases(f, d)]
    for _ in range(trials):
        d = rng.randint(1, limit)
        free = vectors(f, rng, rng.randint(0, d), d) if rng.random() < 0.5 else []
        cases.append((d, (free, vectors(f, rng, rng.randint(0, d + 2), d))))
    seen = set()
    for t, (d, (free, integral)) in enumerate(cases):
        if not free and not integral:
            continue
        runs.clear()
        assert_same_module(f, free, integral, (sel, t))
        want = expected_drop_runs(f, free, integral)
        assert runs == want, (sel, t)
        seen.add((bool(free), len(want)))
    # independent lists skipped the drop rule, dependent ones ran it, with
    # and without free lines, and some kept list was still dependent
    assert {(False, 0), (True, 0), (False, 1), (True, 1)} <= seen
    assert any(n >= 2 for _, n in seen)


def test_designed_case_a_keeps_both_generators_and_one_basis_vector():
    f = Field.padic(2)
    e1, e2 = Vector.from_ints(f, [1, 0]), Vector.from_ints(f, [0, 1])
    mod = assert_same_module(f, [e1], [e2, e1 + e2], "A")
    assert mod.integral_gens == (e2, e1 + e2)
    assert len(mod.normal_form()[1]) == 1


def test_designed_case_b_drops_zero_and_proportional_generators():
    f = Field.padic(2)
    free, integral = designed_cases(f, 2)[1]
    mod = assert_same_module(f, free, integral, "B")
    assert len(mod.free_gens) == 1 and len(mod.integral_gens) == 2
    assert len(mod.normal_form()[1]) == 1


@pytest.mark.parametrize("sel", [sel for sel, _ in FIELDS])
def test_independent_generators_build_no_solver(sel, monkeypatch):
    """With the images independent, no drop rule runs, so no LinearSolver
    is built: not for the free lines, and not for integral generators that
    stay independent modulo them."""
    f = Field.from_selector(sel)
    builds = []

    class Counted(LinearSolver):
        def __init__(self, A):
            builds.append(A.ncols)
            super().__init__(A)

    monkeypatch.setattr(linalg, "LinearSolver", Counted)
    e = [Vector.unit(f, 3, i) for i in range(3)]
    pi = f.uniformizer_pow(1)
    for free, integral in (([], e), ([e[0]], [e[1], e[2].scale(pi) + e[0]]),
                           ([e[0], e[1] + e[2]], [e[2].scale(pi)]),
                           ([], [e[0] + e[1], e[1].scale(pi), e[2] - e[0]])):
        mod = MixedModule(f, 3, free, integral)
        assert len(mod.free_gens) + len(mod.integral_gens) == len(free) + len(integral)
    assert builds == []
