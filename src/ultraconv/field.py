"""Exact arithmetic for valued fields with value group Z.

Two field backends share one element interface:

* ``Field.padic(p)``: the rational numbers carrying the p-adic valuation.
  An element is a pair (numerator, denominator) of coprime
  arbitrary-precision integers with a positive denominator; zero is
  ``(0, 1)``.
* ``Field.ratfunc(char)``: rational functions in one variable ``t`` with the
  order-of-vanishing valuation at ``t = 0``.  Coefficients live in Q when the
  characteristic is 0 and in the prime field F_q otherwise.  An element is a
  pair of coprime polynomials with integer coefficients, in one of two
  normal forms:

  - over F_q, residues 0..q-1 and a monic denominator;
  - over Q, integers with no common factor across numerator and
    denominator, and a denominator with positive leading coefficient.

  Both characteristics share one set of operations; only the coefficient
  class (gcd, exact division, normal form, reduction) differs.  The text
  grammar and rendering do not depend on the storage: text shows the
  denominator monic, with fraction coefficients in characteristic 0.

Valuations are plain ints, so the weights gamma_i built on them are ints
too; the valuation of 0 is ``INFINITY`` (``math.inf``), which compares above
every int and absorbs addition.  Elements are immutable; all operations are
pure and exact.
"""
from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction
from typing import Sequence


class ParseError(ValueError):
    """Element text does not match the grammar."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The valuation of 0: above every integer, and absorbing for addition.
INFINITY = math.inf


# ---------------------------------------------------------------------------
# primality

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The fixed witness set above is known to be a correct deterministic test
# for every n below 3.3 * 10**24, which covers the documented bound.
_DETERMINISTIC_BOUND = 2**64


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: deterministic Miller-Rabin below 2**64 (fixed witness
    set, valid far beyond that bound), 40 rounds with bases drawn from a
    generator seeded by ``n`` above it."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < _DETERMINISTIC_BOUND:
        return _miller_rabin(n, _MR_WITNESSES)
    rng = random.Random(n)
    bases = [rng.randrange(2, n - 1) for _ in range(40)]
    return _miller_rabin(n, bases)


def _check_prime(p: int, role: str) -> None:
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"{role} must be an integer >= 2, got {p!r}")
    if p >= _DETERMINISTIC_BOUND:
        if not is_prime(p):
            raise ValueError(f"{role} {p} is composite")
        warnings.warn(
            f"{role} {p} exceeds {_DETERMINISTIC_BOUND}; primality verified "
            "only probabilistically (40 Miller-Rabin rounds)",
            stacklevel=3,
        )
    elif not is_prime(p):
        raise ValueError(f"{role} {p} is not prime")


def _int_val(n: int, p: int) -> int:
    """Multiplicity of the prime p in the nonzero integer n."""
    n = abs(n)
    k = 0
    while True:
        q, r = divmod(n, p)
        if r:
            return k
        n = q
        k += 1


# ---------------------------------------------------------------------------
# polynomial arithmetic for the rational function backend

# Polynomials are tuples of integer coefficients, lowest degree first, with
# no trailing zeros; () is the zero polynomial.  Sums are plain integer
# loops, and so are products unless both factors have _KRONECKER_MIN
# coefficients or more; the coefficient class then reduces them.

def _ptrim(cs) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


# From 12 coefficients on the shorter factor, Kronecker substitution beat the
# loop in every case of five runs of `tools/pmul_cutover.py` (factors of 4,
# 16 and 36 bits, equal lengths and lengths 1:8); at 10 it lost one case once
# and at 8 the loop won the equal-length 4- and 16-bit cases.  One run's
# table is in BENCH_4.json under "pmul_cutover".
_KRONECKER_MIN = 12


def _pmul(a, b) -> list:
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if len(a) < _KRONECKER_MIN or len(b) < _KRONECKER_MIN:
        out = [0] * n
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return out
    # Kronecker substitution: evaluate both at 2^k, multiply the integers
    # once and read the coefficients back as base-2^k digits.  Every product
    # coefficient is below half = 2^(k-1) in magnitude, so with half added to
    # each, every digit is nonnegative and none carries into the next.
    k = 8 * ((min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))).bit_length() // 8 + 1)
    u = v = 0
    for c in reversed(a):
        u = (u << k) + c
    for c in reversed(b):
        v = (v << k) + c
    half, kb = 1 << (k - 1), k // 8
    h = (u * v + int.from_bytes(half.to_bytes(kb, "little") * n, "little")).to_bytes(n * kb, "little")
    return [int.from_bytes(h[i:i + kb], "little") - half for i in range(0, n * kb, kb)]


def _padd(x: list, y: list) -> list:
    """x + y for coefficient lists, reusing the longer one."""
    if len(x) < len(y):
        x, y = y, x
    for i, c in enumerate(y):
        x[i] += c
    return x


def _pord(a) -> int:
    for i, c in enumerate(a):
        if c:
            return i
    raise ValueError("zero polynomial has no order")


def _zprimitive(cs):
    g = 0
    for c in cs:
        g = math.gcd(g, c)
    if g > 1:
        cs = [c // g for c in cs]
    return cs


def _zprem(A, B):
    """Pseudo-remainder of integer polynomials: lc(B)^k * A mod B."""
    R = list(A)
    dB = len(B) - 1
    lb = B[-1]
    while len(R) - 1 >= dB:
        if R[-1] == 0:
            R.pop()
            continue
        k = len(R) - 1 - dB
        lead = R[-1]
        for i in range(len(R)):
            R[i] *= lb
        for i in range(dB + 1):
            R[k + i] -= lead * B[i]
        R.pop()
    while R and R[-1] == 0:
        R.pop()
    return R


def _zgcd(A, B):
    """Primitive positive-lead gcd of two nonzero integer polynomials,
    by a primitive pseudo-remainder sequence.  The plain Euclidean
    sequence over Q suffers exponential coefficient growth and would
    dominate the whole linear algebra layer."""
    A = _zprimitive(list(A))
    B = _zprimitive(list(B))
    if len(A) < len(B):
        A, B = B, A
    while B:
        R = _zprem(A, B)
        A, B = B, _zprimitive(R)
    if A[-1] < 0:
        A = [-c for c in A]
    return A


def _zdiv(A, G):
    """Quotient A / G of integer polynomials, or None when G does not
    divide A."""
    dG = len(G) - 1
    lg = G[-1]
    R = list(A)
    Q = [0] * (len(A) - dG)
    for k in range(len(A) - dG - 1, -1, -1):
        top = R[k + dG]
        if top:
            q, r = divmod(top, lg)
            if r:
                return None
            Q[k] = q
            for i in range(dG):
                R[k + i] -= q * G[i]
            R[k + dG] = 0
    if any(R[:dG]):
        return None
    return _ptrim(Q)


def _cofactors(G, A, B) -> tuple:
    """G with the quotients A/G and B/G; for G = 1, the inputs as given."""
    return (G, A, B) if len(G) == 1 else (G, _zdiv(A, G), _zdiv(B, G))


def _zgcd_heu(A, B):
    """The gcd `_zgcd` returns, with the cofactors A/gcd and B/gcd, by the
    cheapest exact route.  A constant input gives 1.  A linear input
    b1*t + b0 is, made primitive, the gcd exactly when the other input
    vanishes at -b0/b1.  Otherwise GCDHEU (Char, Geddes & Gonnet, J. Symbolic
    Comput. 1989): evaluate both primitive parts at an integer xi, read the
    integer gcd's balanced base-xi digits and keep their primitive part if it
    divides both; those quotients, times the integer contents, are the
    cofactors.  For xi >= 2*min(|A|, |B|) + 2 such a divisor is the gcd.
    After six points the pseudo-remainder sequence answers."""
    if not A or not B:
        return _cofactors(_zgcd(A, B), A, B)
    if len(A) == 1 or len(B) == 1:
        return [1], A, B
    if len(A) == 2 and len(B) > 2:
        G, QB, QA = _zgcd_heu(B, A)
        return G, QA, QB
    if len(B) == 2:
        # A(-b0/b1) * b1^deg(A), by a homogeneous Horner sum
        b0, b1 = B
        s, p = A[-1], 1
        for a in reversed(A[:-1]):
            p *= b1
            s = s * -b0 + a * p
        if s:
            return [1], A, B
        g = math.gcd(b0, b1) if b1 > 0 else -math.gcd(b0, b1)
        G = [b0 // g, b1 // g]
        return G, _zdiv(A, G), (g,)
    ca, cb = math.gcd(*A), math.gcd(*B)
    PA, PB = [c // ca for c in A], [c // cb for c in B]
    na, nb = max(map(abs, PA)), max(map(abs, PB))
    m = 2 * min(na, nb)
    # sympy's dup_zz_heu_gcd start, raised to the bound m + 2 where it is below
    xi = max(min(m + 29, 99 * math.isqrt(m + 29)),
             2 * min(na // abs(PA[-1]), nb // abs(PB[-1])) + 4, m + 2)
    for _ in range(6):
        u = v = 0
        for c in reversed(PA):
            u = u * xi + c
        for c in reversed(PB):
            v = v * xi + c
        if u and v:
            h, G = math.gcd(u, v), []
            while h:
                d = h % xi
                if d > xi // 2:
                    d -= xi
                G.append(d)
                h = (h - d) // xi
            # h > 0, so its top digit is too
            G = _zprimitive(G)
            if len(G) == 1:
                return G, A, B
            QA = _zdiv(PA, G)
            QB = None if QA is None else _zdiv(PB, G)
            if QB is not None:
                return G, _ptrim([ca * c for c in QA]), _ptrim([cb * c for c in QB])
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return _cofactors(_zgcd(PA, PB), A, B)


class _IntegerCoeffs:
    """Coefficients in Q, held as integers: a payload's numerator and
    denominator have no common integer factor, and the denominator's
    leading coefficient is positive."""

    char = 0

    def reduce(self, cs) -> tuple:
        return _ptrim(cs)

    gcd = staticmethod(_zgcd_heu)
    div_exact = staticmethod(_zdiv)

    def normal(self, num, den):
        g = math.gcd(*num, *den)
        if den[-1] < 0:
            g = -g
        if g == 1:
            return num, den
        return tuple(c // g for c in num), tuple(c // g for c in den)

    def inv(self, c):
        return Fraction(1, c)

    def ratio(self, a: int, b: int):
        return Fraction(a, b)


class _PrimeCoeffs:
    """Coefficients in the prime field F_q, held as residues 0..q-1; a
    payload's denominator is monic."""

    def __init__(self, q: int):
        self.char = q

    def reduce(self, cs) -> tuple:
        q = self.char
        return _ptrim([c % q for c in cs])

    def _divmod(self, a, b):
        q = self.char
        inv_lead = pow(b[-1], -1, q)
        quo = [0] * max(0, len(a) - len(b) + 1)
        r = list(a)
        while len(r) >= len(b):
            c = r[-1] * inv_lead % q
            if c:
                k = len(r) - len(b)
                quo[k] = c
                for i, cb in enumerate(b):
                    r[k + i] = (r[k + i] - c * cb) % q
            r.pop()
        return _ptrim(quo), _ptrim(r)

    def gcd(self, a, b):
        """Monic gcd of two nonzero polynomials, by Euclid's algorithm, with
        the cofactors a/gcd and b/gcd; a cofactor of a gcd 1 is its input."""
        g, r = a, b
        while r:
            g, r = r, self._divmod(g, r)[1]
        c = pow(g[-1], -1, self.char)
        g = self.reduce([x * c for x in g])
        if len(g) == 1:
            return g, a, b
        return g, self.div_exact(a, g), self.div_exact(b, g)

    def div_exact(self, a, g):
        return self._divmod(a, g)[0]

    def normal(self, num, den):
        c = pow(den[-1], -1, self.char)
        if c == 1:
            return num, den
        return self.reduce([x * c for x in num]), self.reduce([x * c for x in den])

    def inv(self, c):
        if not c % self.char:
            raise ZeroDivisionError("division by zero coefficient")
        return pow(c, -1, self.char)

    def ratio(self, a: int, b: int):
        return a * self.inv(b) % self.char


_RF_ZERO = ((), (1,))


def _rf_canon(F, num, den):
    """Canonical payload of num / den.  In characteristic 0 the
    coefficients may be fractions; they are cleared first."""
    lcm = math.lcm(*(c.denominator for c in num), *(c.denominator for c in den))
    num = F.reduce([c.numerator * (lcm // c.denominator) for c in num])
    den = F.reduce([c.numerator * (lcm // c.denominator) for c in den])
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return _RF_ZERO
    _, num, den = F.gcd(num, den)
    return F.normal(num, den)


def _poly_render(a) -> str:
    if not a:
        return "0"
    parts = []
    for exp in range(len(a) - 1, -1, -1):
        c = a[exp]
        if not c:
            continue
        mag = -c if c < 0 else c
        if exp == 0:
            body = str(mag)
        elif mag == 1:
            body = "t" if exp == 1 else f"t^{exp}"
        else:
            tpart = "t" if exp == 1 else f"t^{exp}"
            body = f"{mag}*{tpart}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts)


# Largest power of t accepted in element text: polynomials are stored
# densely, so a larger exponent would cost memory out of proportion to the
# text.
MAX_EXPONENT = 1024

# Longest digit run accepted in element text: Python's default limit on
# integer string conversion, so every run that converted before still does.
MAX_DIGITS = 4300

# Digits accepted in element text and field selectors.  ``str.isdigit``
# also accepts superscripts and other scripts' digits, some of which
# ``int()`` converts and some it rejects.
_ASCII_DIGITS = frozenset("0123456789")


def _digit_run(text: str, start: int, end: int) -> int:
    """The integer spelled by the digit run ``text[start:end]``."""
    if end - start > MAX_DIGITS:
        raise ParseError(f"{end - start} digits exceed the limit {MAX_DIGITS}", start)
    return int(text[start:end])


class _PolyParser:
    def __init__(self, text: str, F):
        self.text = text
        self.F = F
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.i)
        self.i += 1

    def parse_uint(self) -> int:
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and self.text[self.i] in _ASCII_DIGITS:
            self.i += 1
        if self.i == start:
            raise ParseError("expected digits", start)
        return _digit_run(self.text, start, self.i)

    def parse_coeff(self, sign: int):
        n = self.parse_uint()
        if self.peek() == "/":
            self.i += 1
            d = self.parse_uint()
            if d == 0:
                raise ParseError("zero denominator in coefficient", self.i - 1)
            try:
                c = self.F.ratio(n, d)
            except ZeroDivisionError:
                raise ParseError(f"coefficient denominator {d} is zero in "
                                 f"characteristic {self.F.char}", self.i - 1) from None
        else:
            c = n
        return -c if sign < 0 else c

    def parse_tpart(self) -> int:
        self.expect("t")
        if self.peek() == "^":
            self.i += 1
            start = self.i
            exp = self.parse_uint()
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} exceeds the limit {MAX_EXPONENT}", start)
            return exp
        return 1

    def parse_poly(self) -> tuple:
        coeffs = {}
        first = True
        while True:
            sign = 1
            ch = self.peek()
            if ch == "-":
                sign = -1
                self.i += 1
            elif ch == "+":
                if first:
                    raise ParseError("unexpected '+'", self.i)
                self.i += 1
            elif not first:
                break
            ch = self.peek()
            if ch == "t":
                exp = self.parse_tpart()
                c = sign
            elif ch in _ASCII_DIGITS:
                c = self.parse_coeff(sign)
                exp = 0
                if self.peek() == "*":
                    self.i += 1
                    exp = self.parse_tpart()
            else:
                raise ParseError("expected a term", self.i)
            coeffs[exp] = coeffs.get(exp, 0) + c
            first = False
            ch = self.peek()
            if ch not in ("+", "-"):
                break
        if not coeffs:
            raise ParseError("empty polynomial", self.i)
        out = [0] * (max(coeffs) + 1)
        for exp, c in coeffs.items():
            out[exp] = c
        return self.F.reduce(out)


# ---------------------------------------------------------------------------
# payload operation tables

class _PadicOps:
    """Operations on (numerator, denominator) integer payloads with the
    p-adic valuation.

    A payload is canonical: the two integers are coprime, the denominator
    is positive and zero is ``(0, 1)``.  Operands are canonical, so only
    the factors that Henrici's rules name can cancel: across the two
    fractions of a product, and in a sum only the gcd of the denominators.
    """

    def __init__(self, p: int):
        self.p = p

    def add(self, a, b):
        n1, d1 = a
        n2, d2 = b
        g = math.gcd(d1, d2)
        if g == 1:
            return (n1 * d2 + n2 * d1, d1 * d2)
        s = d1 // g
        t = n1 * (d2 // g) + n2 * s
        g2 = math.gcd(t, g)
        if g2 == 1:
            return (t, s * d2)
        return (t // g2, s * (d2 // g2))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        n1, d1 = a
        n2, d2 = b
        g1 = math.gcd(n1, d2)
        if g1 > 1:
            n1, d2 = n1 // g1, d2 // g1
        g2 = math.gcd(n2, d1)
        if g2 > 1:
            n2, d1 = n2 // g2, d1 // g2
        return (n1 * n2, d1 * d2)

    def div(self, a, b):
        if not b[0]:
            raise ZeroDivisionError("division by zero field element")
        return self.mul(a, self.inv(b))

    def neg(self, a):
        return (-a[0], a[1])

    def inv(self, a):
        n, d = a
        if not n:
            raise ZeroDivisionError("inverse of zero field element")
        return (d, n) if n > 0 else (-d, -n)

    def is_zero(self, a) -> bool:
        return not a[0]

    def val(self, a) -> int:
        if not a[0]:
            return INFINITY
        return _int_val(a[0], self.p) - _int_val(a[1], self.p)

    def uniformizer_pow(self, k: int):
        if k >= 0:
            return (self.p**k, 1)
        return (1, self.p**-k)

    def from_int(self, n: int):
        return (n, 1)

    def render(self, a) -> str:
        n, d = a
        return str(n) if d == 1 else f"{n}/{d}"

    def parse(self, text: str):
        i = 0
        n = len(text)
        while i < n and text[i].isspace():
            i += 1
        start = i
        if i < n and text[i] == "-":
            i += 1
        d0 = i
        while i < n and text[i] in _ASCII_DIGITS:
            i += 1
        if i == d0:
            raise ParseError("expected an integer", i)
        num = _digit_run(text, d0, i)
        if d0 > start:
            num = -num
        den = 1
        if i < n and text[i] == "/":
            i += 1
            d1 = i
            while i < n and text[i] in _ASCII_DIGITS:
                i += 1
            if i == d1:
                raise ParseError("expected digits after '/'", i)
            den = _digit_run(text, d1, i)
            if den == 0:
                raise ParseError("zero denominator", d1)
        while i < n and text[i].isspace():
            i += 1
        if i != n:
            raise ParseError("trailing characters", i)
        g = math.gcd(num, den)
        return (num // g, den // g)

    def grooming_unit(self, payloads):
        L = 1
        for _, d in payloads:
            L = L * d // math.gcd(L, d)
        k = _int_val(L, self.p)
        g = 0
        for n, d in payloads:
            g = math.gcd(g, n * (L // d))
        g //= self.p ** _int_val(g, self.p)
        L //= self.p**k
        c = math.gcd(L, g)
        return (L // c, g // c)

    def integral_part(self, a):
        """Split off the tail of the p-power expansion: the result has
        valuation >= 0 and differs from the input by u / p^k with
        0 <= u < p^k."""
        num, den = a
        if not num:
            return a
        k = _int_val(den, self.p)
        if k == 0:
            return a
        pk = self.p**k
        unit = den // pk
        u = (num * pow(unit, -1, pk)) % pk
        # a - u/p^k = (num - u*unit) / den
        num -= u * unit
        g = math.gcd(num, den)
        return (num // g, den // g)

    # the ring Z, for fraction-free reduction: elements are plain ints

    def _ring_clear(self, payloads):
        """Integers X_i and val(L), where payload i is X_i / L for the lcm L
        of the denominators."""
        L = math.lcm(*(d for _, d in payloads))
        return [n if d == L else n * (L // d) for n, d in payloads], _int_val(L, self.p)

    def _ring_val(self, a) -> int:
        return _int_val(a, self.p)

    def _ring_comb(self, a, xs, b, ys) -> list:
        """a*xs - b*ys, entry by entry."""
        return [a * x - b * y for x, y in zip(xs, ys)]


class _RatFuncOps:
    """Operations on (numerator, denominator) polynomial payloads with the
    order-at-zero valuation.

    Operands are canonical, so numerator and denominator are coprime and
    only the factors that Henrici's rules name can cancel: across the two
    fractions of a product, and in a sum only the gcd of the denominators.
    """

    def __init__(self, coeffs):
        self.F = coeffs

    def add(self, a, b):
        if not a[0]:
            return b
        if not b[0]:
            return a
        F = self.F
        (N1, B), (N2, D) = a, b
        t, B, D = F.gcd(B, D)
        # a + b = (N1*D + N2*B) / (t*B*D); a shared factor can only sit in t
        E = F.reduce(_padd(_pmul(N1, D), _pmul(N2, B)))
        if not E:
            return _RF_ZERO
        if len(t) > 1:
            _, E, t = F.gcd(E, t)
        return F.normal(E, F.reduce(_pmul(t, _pmul(B, D))))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        (N1, D1), (N2, D2) = a, b
        if not N1 or not N2:
            return _RF_ZERO
        F = self.F
        _, N1, D2 = F.gcd(N1, D2)
        _, N2, D1 = F.gcd(N2, D1)
        return F.normal(F.reduce(_pmul(N1, N2)), F.reduce(_pmul(D1, D2)))

    def div(self, a, b):
        if not b[0]:
            raise ZeroDivisionError("division by zero field element")
        return self.mul(a, (b[1], b[0]))

    def neg(self, a):
        return (self.F.reduce([-c for c in a[0]]), a[1])

    def inv(self, a):
        # canonical operands are coprime already, so only renormalise
        if not a[0]:
            raise ZeroDivisionError("inverse of zero field element")
        return self.F.normal(a[1], a[0])

    def is_zero(self, a) -> bool:
        return not a[0]

    def val(self, a) -> int:
        if not a[0]:
            return INFINITY
        return _pord(a[0]) - _pord(a[1])

    def uniformizer_pow(self, k: int):
        tk = (0,) * abs(k) + (1,)
        return (tk, (1,)) if k >= 0 else ((1,), tk)

    def from_int(self, n: int):
        return _rf_canon(self.F, (n,), (1,))

    def render(self, a) -> str:
        num, den = a
        lead = den[-1]
        if lead != 1:
            # characteristic 0: print the denominator monic
            num = [Fraction(c, lead) for c in num]
            den = [Fraction(c, lead) for c in den]
        if len(den) == 1:
            return _poly_render(num)
        return f"({_poly_render(num)})/({_poly_render(den)})"

    def parse(self, text: str):
        pp = _PolyParser(text, self.F)
        if pp.peek() == "(":
            pp.i += 1
            num = pp.parse_poly()
            pp.expect(")")
            pp.expect("/")
            pp.expect("(")
            den = pp.parse_poly()
            pp.expect(")")
        else:
            num = pp.parse_poly()
            den = (1,)
        if pp.peek():
            raise ParseError("trailing characters", pp.i)
        if not den:
            raise ParseError("zero denominator", 0)
        return _rf_canon(self.F, num, den)

    def grooming_unit(self, payloads):
        F = self.F
        L = (1,)
        for _, d in payloads:
            L = F.reduce(_pmul(L, F.gcd(L, d)[2]))
        g = None
        for n, d in payloads:
            m = F.reduce(_pmul(n, F.div_exact(L, d)))
            g = m if g is None else F.gcd(g, m)[0]
        L, g = L[_pord(L):], g[_pord(g):]
        # monic(L) / monic(g), whatever scalars the gcds carried
        return _rf_canon(F, [c * g[-1] for c in L], [c * L[-1] for c in g])

    def integral_part(self, a):
        """Drop the principal part of the Laurent expansion at t = 0.

        The result has valuation >= 0; the discarded piece is P / t^m with
        deg P < m, so it stays small regardless of the input's size.
        """
        num, den = a
        if not num:
            return a
        m = _pord(den)
        if m == 0:
            return a
        # divide by increasing powers: num = P*unit + t^m*R with deg P < m,
        # so a - P/t^m = R/unit, already in lowest terms
        F = self.F
        unit = den[m:]
        inv0 = F.inv(unit[0])
        R = list(num)
        for i in range(m):
            c = R[i] * inv0 if i < len(R) else 0
            if c:
                R += [0] * (i + len(unit) - len(R))
                for j, u in enumerate(unit):
                    R[i + j] -= c * u
                R = list(F.reduce(R))
        return _rf_canon(F, R[m:], unit)

    # the ring Z[t] or F_q[t], for fraction-free reduction: elements are
    # coefficient tuples as in payloads, () for zero

    def _ring_clear(self, payloads):
        """Polynomials X_i and val(L), where payload i is X_i / L for the
        product L of the distinct denominators; no gcd is taken."""
        dens, out = list(dict.fromkeys(d for _, d in payloads if d != (1,))), []
        for n, d in payloads:
            for e in dens:
                if e != d:
                    n = _pmul(n, e)
            out.append(self.F.reduce(n))
        return out, sum(map(_pord, dens))

    def _ring_val(self, a) -> int:
        return _pord(a)

    def _ring_comb(self, a, xs, b, ys) -> list:
        """a*xs - b*ys, entry by entry."""
        b = [-c for c in b]
        return [self.F.reduce(_padd(_pmul(a, x), _pmul(b, y))) for x, y in zip(xs, ys)]


class Field:
    """A valued field context: either ``padic(p)`` or ``ratfunc(char)``.

    The context owns parsing, rendering and the valuation; elements carry a
    reference back to it so arithmetic can be written with operators.
    """

    __slots__ = ("kind", "param", "ops", "_zero", "_one")

    _PADIC = "padic"
    _RATFUNC = "ratfunc"

    def __init__(self, kind: str, param: int):
        self.kind = kind
        self.param = param
        if kind == self._PADIC:
            _check_prime(param, "p")
            self.ops = _PadicOps(param)
        elif kind == self._RATFUNC:
            if param != 0:
                _check_prime(param, "characteristic")
            coeffs = _IntegerCoeffs() if param == 0 else _PrimeCoeffs(param)
            self.ops = _RatFuncOps(coeffs)
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self._zero = FieldElement(self, self.ops.from_int(0))
        self._one = FieldElement(self, self.ops.from_int(1))

    @classmethod
    def padic(cls, p: int) -> "Field":
        return cls(cls._PADIC, p)

    @classmethod
    def ratfunc(cls, char: int) -> "Field":
        return cls(cls._RATFUNC, char)

    @classmethod
    def from_selector(cls, selector: str) -> "Field":
        """Build from a ``padic:<p>`` or ``ratfunc:<char>`` selector string.

        The parameter must be below ``2**64``, where primality is decided
        exactly and cheaply; ``padic`` and ``ratfunc`` take larger primes.
        """
        kind, sep, arg = selector.partition(":")
        if (not sep or kind not in (cls._PADIC, cls._RATFUNC)
                or not arg or not set(arg) <= _ASCII_DIGITS):
            raise ValueError(f"bad field selector {selector!r}")
        digits = arg.lstrip("0") or "0"
        if len(digits) > len(str(_DETERMINISTIC_BOUND)) or int(digits) >= _DETERMINISTIC_BOUND:
            raise ValueError(f"bad field selector: the {len(digits)}-digit parameter "
                             f"is not below 2**64")
        return cls(kind, int(digits))

    @property
    def selector(self) -> str:
        return f"{self.kind}:{self.param}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.param == other.param
        )

    def __hash__(self):
        return hash((self.kind, self.param))

    def __repr__(self) -> str:
        return f"Field({self.selector})"

    @property
    def zero(self) -> "FieldElement":
        return self._zero

    @property
    def one(self) -> "FieldElement":
        return self._one

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, self.ops.from_int(n))

    def fraction(self, num: int, den: int = 1) -> "FieldElement":
        """Exact ratio of two integers as a field element."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return self.from_int(num) / self.from_int(den)

    def ratio(self, num_coeffs: Sequence, den_coeffs: Sequence = (1,)) -> "FieldElement":
        """Rational function from raw coefficient lists, lowest degree first.

        Only meaningful for the ratfunc backend; coefficients may be ints
        or, in characteristic 0, fractions.
        """
        if self.kind != self._RATFUNC:
            raise ValueError("ratio() applies to rational function fields")
        F = self.ops.F
        num = [F.ratio(c.numerator, c.denominator) for c in num_coeffs]
        den = [F.ratio(c.numerator, c.denominator) for c in den_coeffs]
        return FieldElement(self, _rf_canon(F, num, den))

    def uniformizer(self) -> "FieldElement":
        return self.uniformizer_pow(1)

    def uniformizer_pow(self, k: int) -> "FieldElement":
        """p**k, or t**k, for any integer k."""
        return FieldElement(self, self.ops.uniformizer_pow(k))

    def grooming_unit(self, elements: Sequence["FieldElement"]) -> "FieldElement":
        """A valuation-ring unit that clears the denominators of the given
        elements up to a uniformizer power and strips their common content.

        Scaling a generator list by this unit leaves its ring span
        unchanged while keeping entry sizes small under repeated
        elimination.
        """
        payloads = [e.data for e in elements if not self.ops.is_zero(e.data)]
        if not payloads:
            return self._one
        return FieldElement(self, self.ops.grooming_unit(payloads))

    def parse(self, text: str) -> "FieldElement":
        return FieldElement(self, self.ops.parse(text))

    def coerce(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise ValueError(
                    f"mixed fields: {self.selector} vs {value.field.selector}"
                )
            return value
        if isinstance(value, int):
            return self.from_int(value)
        raise TypeError(f"cannot coerce {value!r} into {self.selector}")


class FieldElement:
    """An immutable element of a :class:`Field`."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data):
        self.field = field
        self.data = data

    # arithmetic ------------------------------------------------------------

    def __add__(self, other):
        o = self.field.coerce(other)
        return FieldElement(self.field, self.field.ops.add(self.data, o.data))

    __radd__ = __add__

    def __sub__(self, other):
        o = self.field.coerce(other)
        return FieldElement(self.field, self.field.ops.sub(self.data, o.data))

    def __rsub__(self, other):
        o = self.field.coerce(other)
        return FieldElement(self.field, self.field.ops.sub(o.data, self.data))

    def __mul__(self, other):
        o = self.field.coerce(other)
        return FieldElement(self.field, self.field.ops.mul(self.data, o.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.field.coerce(other)
        return FieldElement(self.field, self.field.ops.div(self.data, o.data))

    def __rtruediv__(self, other):
        o = self.field.coerce(other)
        return FieldElement(self.field, self.field.ops.div(o.data, self.data))

    def __neg__(self):
        return FieldElement(self.field, self.field.ops.neg(self.data))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.ops.inv(self.data))

    # predicates ------------------------------------------------------------

    def __bool__(self) -> bool:
        return not self.field.ops.is_zero(self.data)

    @property
    def is_zero(self) -> bool:
        return self.field.ops.is_zero(self.data)

    def val(self) -> int:
        """The valuation, an int; ``INFINITY`` exactly for 0."""
        return self.field.ops.val(self.data)

    @property
    def is_integral(self) -> bool:
        """True when the valuation is >= 0 (the element lies in the ring O)."""
        return self.val() >= 0

    def integral_part(self) -> "FieldElement":
        """The nearest integral element: self minus a small purely
        fractional tail."""
        return FieldElement(self.field, self.field.ops.integral_part(self.data))

    def fractional_part(self) -> "FieldElement":
        return self - self.integral_part()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            try:
                other = self.field.from_int(other)
            except Exception:
                return NotImplemented
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.data == other.data

    def __hash__(self):
        return hash((self.field, self.data))

    # text ------------------------------------------------------------------

    def render(self) -> str:
        try:
            return self.field.ops.render(self.data)
        except ValueError:
            # str() of an int refuses more than MAX_DIGITS digits
            raise ValueError(f"result too long to print: it holds an integer of more "
                             f"than MAX_DIGITS = {MAX_DIGITS} digits") from None

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return self.render()
