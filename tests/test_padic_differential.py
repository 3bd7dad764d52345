"""Differential test of the p-adic payload arithmetic against ``fractions``.

A ``padic:p`` payload is a pair (numerator, denominator) of coprime
integers with a positive denominator, and zero is ``(0, 1)``.  Every
operation of the payload table is compared with the same operation on
``fractions.Fraction``, the arithmetic the pairs replace: results must be
the canonical pair of the ``Fraction`` result, and text must be what
``str(Fraction)`` prints.  ``val``, ``integral_part`` and
``grooming_unit`` are compared with their ``Fraction`` formulations.
Seeded; standard library only.
"""
import math
import random
from fractions import Fraction

import pytest

from ultraconv.field import Field, INFINITY

PRIMES = (2, 3, 5)


def pair(f: Fraction):
    return (f.numerator, f.denominator)


def frac(x) -> Fraction:
    return Fraction(*x)


def assert_canonical(x):
    n, d = x
    assert type(n) is int and type(d) is int
    assert d > 0
    assert math.gcd(n, d) == 1
    if n == 0:
        assert x == (0, 1)


def mult(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def oracle_val(f: Fraction, p: int):
    if not f:
        return INFINITY
    return mult(f.numerator, p) - mult(f.denominator, p)


def oracle_integral_part(f: Fraction, p: int) -> Fraction:
    if not f:
        return f
    k = mult(f.denominator, p)
    if k == 0:
        return f
    pk = p**k
    unit = f.denominator // pk
    u = (f.numerator * pow(unit, -1, pk)) % pk
    return f - Fraction(u, pk)


def oracle_grooming_unit(fs, p: int) -> Fraction:
    L = 1
    for f in fs:
        L = L * f.denominator // math.gcd(L, f.denominator)
    g = 0
    for f in fs:
        g = math.gcd(g, f.numerator * (L // f.denominator))
    g //= p ** mult(g, p)
    return Fraction(L // p ** mult(L, p), g)


def values(p: int, rng: random.Random, count: int = 60):
    """Zero, units, signed powers of p, large integers and random fractions
    whose denominators mix powers of p with other factors."""
    big = 10**40 + rng.randrange(10**30)
    out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(p), Fraction(-p),
           Fraction(1, p), Fraction(-1, p**3), Fraction(p**7), Fraction(-p**5, 7),
           Fraction(big), Fraction(-big), Fraction(big, p**4), Fraction(-3, big),
           Fraction(2**89 - 1, 3**40), Fraction(p**12 - 1, p**12)]
    while len(out) < count:
        num = rng.choice((-1, 1)) * rng.randint(0, 10**rng.randint(1, 25))
        den = p**rng.randint(0, 6) * rng.randint(1, 10**rng.randint(1, 12))
        out.append(Fraction(num, den))
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_arithmetic_matches_fractions(p):
    ops = Field.padic(p).ops
    rng = random.Random(1000 + p)
    vals = values(p, rng)
    for fa in vals:
        a = pair(fa)
        for fb in rng.sample(vals, 25) + [Fraction(0), fa, -fa]:
            b = pair(fb)
            got = [ops.add(a, b), ops.sub(a, b), ops.mul(a, b)]
            want = [fa + fb, fa - fb, fa * fb]
            if fb:
                got.append(ops.div(a, b))
                want.append(fa / fb)
            else:
                with pytest.raises(ZeroDivisionError):
                    ops.div(a, b)
            for x, f in zip(got, want):
                assert_canonical(x)
                assert x == pair(f), (fa, fb)


@pytest.mark.parametrize("p", PRIMES)
def test_unary_operations_match_fractions(p):
    ops = Field.padic(p).ops
    rng = random.Random(2000 + p)
    for f in values(p, rng):
        x = pair(f)
        assert ops.from_int(f.numerator) == (f.numerator, 1)
        assert ops.is_zero(x) == (f == 0)
        for got, want in ((ops.neg(x), -f), (ops.integral_part(x), oracle_integral_part(f, p))):
            assert_canonical(got)
            assert got == pair(want), f
        assert ops.val(x) == oracle_val(f, p)
        assert ops.val(ops.integral_part(x)) >= 0
        if f:
            got = ops.inv(x)
            assert_canonical(got)
            assert got == pair(1 / f)
        else:
            with pytest.raises(ZeroDivisionError):
                ops.inv(x)


@pytest.mark.parametrize("p", PRIMES)
def test_uniformizer_powers_match_fractions(p):
    ops = Field.padic(p).ops
    for k in range(-12, 13):
        x = ops.uniformizer_pow(k)
        assert_canonical(x)
        assert x == pair(Fraction(p) ** k)
        assert ops.val(x) == k


@pytest.mark.parametrize("p", PRIMES)
def test_grooming_unit_matches_fractions(p):
    ops = Field.padic(p).ops
    rng = random.Random(3000 + p)
    nonzero = [f for f in values(p, rng) if f]
    for _ in range(80):
        fs = rng.sample(nonzero, rng.randint(1, 5))
        u = ops.grooming_unit([pair(f) for f in fs])
        assert_canonical(u)
        assert u == pair(oracle_grooming_unit(fs, p))
        assert ops.val(u) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_render_and_parse_match_fractions(p):
    field = Field.padic(p)
    ops = field.ops
    rng = random.Random(4000 + p)
    for f in values(p, rng):
        x = pair(f)
        text = ops.render(x)
        assert text == str(f)
        assert ops.parse(text) == x
        assert field.parse(text).data == x
        # unreduced text parses to the canonical pair
        k = rng.randint(2, 9)
        unreduced = f"{f.numerator * k}/{f.denominator * k}"
        assert ops.parse(unreduced) == pair(Fraction(unreduced))
        assert_canonical(ops.parse(unreduced))
    assert ops.parse("0/7") == (0, 1)
    assert ops.parse("-0") == (0, 1)
    assert ops.parse(" -12/18 ") == (-2, 3)


@pytest.mark.parametrize("p", PRIMES)
def test_elements_agree_with_fractions(p):
    """The same checks one layer up, through ``FieldElement`` operators."""
    field = Field.padic(p)
    rng = random.Random(5000 + p)
    vals = values(p, rng, 30)
    for fa in vals:
        a = field.parse(str(fa))
        for fb in rng.sample(vals, 10):
            b = field.parse(str(fb))
            assert (a + b).render() == str(fa + fb)
            assert (a - b).render() == str(fa - fb)
            assert (a * b).render() == str(fa * fb)
            if fb:
                assert (a / b).render() == str(fa / fb)
        assert a.integral_part().render() == str(oracle_integral_part(fa, p))
        assert field.fraction(fa.numerator, fa.denominator) == a
