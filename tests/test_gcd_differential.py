"""The characteristic-0 polynomial gcd against the pseudo-remainder
sequence it replaced.

``_IntegerCoeffs.gcd`` is ``field._zgcd_heu``: constant and linear-input
shortcuts, then GCDHEU, then the primitive pseudo-remainder sequence
``field._zgcd`` as the fallback.  ``_zgcd`` stays the oracle: both must
return the same primitive gcd with a positive lead on every input.
"""

import random

import pytest

from ultraconv import field
from ultraconv.field import _IntegerCoeffs, _pmul, _ptrim, _zgcd, _zgcd_heu


def poly(rng, deg, bound):
    cs = [rng.randint(-bound, bound) for _ in range(deg)]
    return cs + [rng.choice([-1, 1]) * rng.randint(1, bound)]


def times(*ps):
    out = [1]
    for p in ps:
        out = _pmul(out, p)
    return tuple(_ptrim(out))


def seeded_pairs(seed=2026, n=2000):
    """Pairs with a planted common factor of degree 1..3 (and coprime
    pairs), random cofactors of degree 0..6, coefficients up to 10^40 and
    integer content on either side."""
    rng = random.Random(seed)
    for i in range(n):
        bound = rng.choice([1, 3, 10, 1000, 10 ** 12, 10 ** 40])
        planted = poly(rng, rng.randint(1, 3), bound) if i % 4 else [1]
        A = times(planted, poly(rng, rng.randint(0, 6), bound), [rng.choice([1, 1, 6, -35, 10 ** 9])])
        B = times(planted, poly(rng, rng.randint(0, 6), bound), [rng.choice([1, 1, -2, 9])])
        yield A, B


T = (0, 1)
DESIGNED = {
    "large integer content": (times([10 ** 30 * 7], [-1, 0, 1]), times([6 * 10 ** 20], [-1, 1], [5, 1])),
    "equal inputs": (times([-1, 2, 3]), times([-1, 2, 3])),
    "one divides the other": (times([1, 0, 2], [-3, 1]), times([1, 0, 2], [-3, 1], [7, 0, 0, 4])),
    "constant and polynomial": ((5,), times([1, 4, 4])),
    "two constants": ((-3,), (6,)),
    "coprime": (times([1, 0, 1]), times([2, 0, 1])),
    "negative leads": (times([-1], [-1, 1], [2, 1]), times([2, -2])),
    "linear input, root in the other": (times([-2, 1], [1, 0, 1]), (-6, 3)),
    "linear input, no root in the other": (times([1, 0, 1]), (1, 2)),
    "linear input through zero": (times(T, [1, 0, 1]), (0, -4)),
    "two linear inputs": ((4, 2), (-2, -1)),
    "zero input": ((), times([-2], [2, 0, 1])),
}


@pytest.mark.parametrize("name", DESIGNED)
def test_designed_cases_match_the_pseudo_remainder_sequence(name):
    A, B = DESIGNED[name]
    expected = _zgcd(A, B)
    assert _zgcd_heu(A, B) == expected and _zgcd_heu(B, A) == expected, name
    assert expected[-1] > 0


def test_seeded_pairs_match_the_pseudo_remainder_sequence():
    assert _IntegerCoeffs.gcd is _zgcd_heu
    mismatches = [(A, B) for A, B in seeded_pairs()
                  if _zgcd_heu(A, B) != _zgcd(A, B) or _zgcd_heu(B, A) != _zgcd(B, A)]
    assert mismatches == []


def test_gcdheu_alone_answers_the_seeded_cases(monkeypatch):
    pairs = list(seeded_pairs())
    expected = [_zgcd(A, B) for A, B in pairs]

    def no_fallback(A, B):
        raise AssertionError(f"GCDHEU fell back on {A}, {B}")

    monkeypatch.setattr(field, "_zgcd", no_fallback)
    assert [_zgcd_heu(A, B) for A, B in pairs] == expected


def test_division_refuses_a_non_divisor():
    assert field._zdiv(times([1, 2], [3, 0, 1]), (1, 2)) == (3, 0, 1)
    assert field._zdiv((1, 0, 1), (1, 2)) is None      # 2 does not divide the lead
    assert field._zdiv((1, 3), (1, 2)) is None         # nor here, remainder 0 below it
    assert field._zdiv((2, 0, 1), (1, 0, 1)) is None   # remainder 1
    assert field._zdiv((1, 1), (1, 0, 1)) is None      # divisor of higher degree


def test_fallback_answers_when_no_candidate_divides(monkeypatch):
    A, B = times([3, -1, 2], [1, 1], [5, 0, 1]), times([3, -1, 2], [7, -1])
    monkeypatch.setattr(field, "_zdiv", lambda A, G: None)
    assert _zgcd_heu(A, B) == _zgcd(A, B) == [3, -1, 2]


def test_degree_300_pair_with_a_planted_factor():
    """A degree-100 factor times two coprime degree-~200 cofactors
    (Eisenstein at 2 and at 3, so irreducible and distinct)."""
    rng = random.Random(300)
    f = poly(rng, 100, 9)
    if f[-1] < 0:
        f = [-c for c in f]
    g1 = [2] + [0] * 36 + [2] + [0] * 162 + [1]
    g2 = [3] + [0] * 100 + [3] + [0] * 88 + [1]
    A, B = times(f, g1), times([-5], f, g2)
    expected = field._zprimitive(list(f))
    assert _zgcd_heu(A, B) == expected == _zgcd(A, B)
