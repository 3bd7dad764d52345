"""Field backends: valuation, exact arithmetic, canonical forms, text."""

import random
from fractions import Fraction

import pytest

from ultraconv.field import INFINITY, MAX_DIGITS, MAX_EXPONENT, Field, FieldElement, ParseError


# ---------------------------------------------------------------------------
# selectors

def test_selector_roundtrip():
    for sel in ("padic:2", "padic:5", "padic:97", "ratfunc:0", "ratfunc:2", "ratfunc:7"):
        f = Field.from_selector(sel)
        assert f.selector == sel
        assert Field.from_selector(f.selector) == f


def test_selector_rejects_bad_input():
    for sel in ("padic:4", "padic:1", "padic:-3", "ratfunc:4", "ratfunc:-1",
                "ratfunc:1", "foo:2", "padic", "padic:", "padic:2:3", "padic:\u0662",
                "padic:+2", "padic: 2", f"padic:{2**4423 - 1}"):
        with pytest.raises((ValueError, ParseError)):
            Field.from_selector(sel)


# ---------------------------------------------------------------------------
# valuation values, frozen

def test_padic_valuation_frozen():
    f5 = Field.padic(5)
    assert f5.parse("50/3").val() == 2
    assert f5.parse("3/50").val() == -2
    assert f5.parse("7").val() == 0
    assert f5.parse("0").val() == INFINITY
    assert type(f5.parse("50/3").val()) is int

    f2 = Field.padic(2)
    assert f2.parse("7/8").val() == -3
    assert f2.parse("12").val() == 2
    assert f2.parse("-1/2").val() == -1


def test_ratfunc_valuation_frozen():
    r0 = Field.ratfunc(0)
    assert r0.parse("t").val() == 1
    assert r0.parse("(t^2 + 1)/(t^3)").val() == -3
    assert r0.parse("(t^3)/(t + 1)").val() == 3
    assert r0.parse("5").val() == 0
    assert r0.parse("0").val() == INFINITY
    assert type(r0.parse("(t^2 + 1)/(t^3)").val()) is int

    r2 = Field.ratfunc(2)
    assert r2.parse("t^2 + t").val() == 1
    # 2 = 0 in characteristic 2
    assert r2.parse("2*t + 1").val() == 0
    assert r2.parse("2").val() == INFINITY


def test_valuation_ordering_and_arithmetic():
    assert INFINITY > 10**9
    three = Field.padic(2).parse("8").val()
    assert three == 3 and three < INFINITY
    assert (three + 4) == 7
    assert INFINITY + 5 == INFINITY
    assert INFINITY + INFINITY == INFINITY
    assert min(three, INFINITY) == 3
    assert repr(INFINITY) == "inf" and repr(three) == "3"


# ---------------------------------------------------------------------------
# arithmetic laws on fixed elements

FIXED = {
    "padic:2": ["0", "1", "-1", "7/8", "-3/4", "5", "1/3", "6", "1/2"],
    "padic:5": ["0", "1", "50/3", "-1/5", "2/7", "125", "3/25"],
    "ratfunc:0": ["0", "1", "t", "(t^2 + 1)/(t^3)", "(2*t + 6)/(3)", "(1)/(t + 1)"],
    "ratfunc:2": ["0", "1", "t", "(t^2 + t + 1)/(t)", "(t + 1)/(t^2 + 1)"],
}


@pytest.mark.parametrize("sel", sorted(FIXED))
def test_ring_identities(sel):
    f = Field.from_selector(sel)
    xs = [f.parse(s) for s in FIXED[sel]]
    for x in xs:
        for y in xs:
            assert x + y == y + x
            assert x * y == y * x
            assert (x - y) + y == x
            assert x * (x + y) == x * x + x * y
            if not y.is_zero:
                assert (x / y) * y == x
        assert x + f.zero == x
        assert x * f.one == x
        assert (x - x).is_zero


@pytest.mark.parametrize("sel", sorted(FIXED))
def test_valuation_laws_on_fixed_elements(sel):
    f = Field.from_selector(sel)
    xs = [f.parse(s) for s in FIXED[sel]]
    for x in xs:
        for y in xs:
            if x.is_zero or y.is_zero:
                continue
            assert (x * y).val() == x.val() + y.val()
            s = x + y
            lo = min(x.val(), y.val())
            if not s.is_zero:
                assert s.val() >= lo
            if x.val() != y.val():
                assert s.val() == lo


def test_division_by_zero_raises():
    f = Field.padic(3)
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero
    r = Field.ratfunc(0)
    with pytest.raises(ZeroDivisionError):
        r.one / r.zero


# ---------------------------------------------------------------------------
# canonical forms and text

def test_parse_render_roundtrip_frozen():
    f2 = Field.padic(2)
    for s in ("0", "1", "-1", "7/8", "-3/4", "1/3"):
        assert f2.parse(s).render() == s
    r0 = Field.ratfunc(0)
    for s in ("0", "1", "t", "t^2+1", "(t^2+1)/(t^3)"):
        assert r0.parse(s).render() == s
        assert r0.parse(r0.parse(s).render()) == r0.parse(s)


def test_ratfunc_canonical_monic_denominator():
    r0 = Field.ratfunc(0)
    # 2t / (4t + 4) must reduce and leave the denominator monic
    x = r0.ratio([0, 2], [4, 4])
    assert x.render() == "(1/2*t)/(t+1)"
    assert x == r0.ratio([0, 1], [2, 2])
    assert x.render() == r0.parse(x.render()).render()


def test_ratfunc_cancellation_is_exact():
    r0 = Field.ratfunc(0)
    t = r0.parse("t")
    a = (t + r0.one) * (t - r0.one)
    b = t * t - r0.one
    assert a == b
    # (t^2 - 1)/(t - 1) collapses to t + 1
    assert b / (t - r0.one) == t + r0.one


def test_canonical_survives_arithmetic_detours():
    f2 = Field.padic(2)
    x = f2.parse("7/24")
    seven = f2.from_int(7)
    assert (x * seven) / seven == x
    r5 = Field.ratfunc(5)
    y = r5.parse("(t^2 + 3)/(t^3 + 2*t^4)")
    shift = r5.parse("t + 1")
    assert (y * shift) / shift == y


def test_integral_and_fractional_parts():
    f2 = Field.padic(2)
    x = f2.parse("7/24")
    assert x.integral_part().render() == "-1/3"
    assert x.fractional_part().render() == "5/8"
    assert x.integral_part() + x.fractional_part() == x
    assert x.integral_part().val() >= 0

    r0 = Field.ratfunc(0)
    y = r0.parse("(t^4+t+3)/(t^2)")
    assert y.integral_part().render() == "t^2"
    assert y.fractional_part().render() == "(t+3)/(t^2)"
    assert y.integral_part() + y.fractional_part() == y


def test_uniformizer_powers():
    f5 = Field.padic(5)
    assert f5.uniformizer().val() == 1
    assert f5.uniformizer_pow(-2).val() == -2
    assert f5.uniformizer_pow(3) * f5.uniformizer_pow(-3) == f5.one
    r3 = Field.ratfunc(3)
    assert r3.uniformizer_pow(4).val() == 4


def test_parse_errors():
    f2 = Field.padic(2)
    for bad in ("", "1/0", "one", "1//2", "--3", "\u0661\u0662/\u0663", "\u00b2", "1/\u00b2"):
        with pytest.raises(ParseError):
            f2.parse(bad)
    r0 = Field.ratfunc(0)
    for bad in ("", "(t)/(0)", "t^", "t^-1", "(t", f"t^{MAX_EXPONENT + 1}", "1/0*t",
                "t^\u00b2", "\u00b2*t", "t+\u0661"):
        with pytest.raises(ParseError):
            r0.parse(bad)
    assert r0.parse(f"t^{MAX_EXPONENT}").val() == MAX_EXPONENT
    r3 = Field.ratfunc(3)
    for bad in ("1/3*t", "(t)/(2/6)"):
        with pytest.raises(ParseError):
            r3.parse(bad)


def test_digit_runs_are_limited():
    longest, over = "7" * MAX_DIGITS, "7" * (MAX_DIGITS + 1)
    f2 = Field.padic(2)
    assert f2.parse(longest) == f2.parse(f"-{longest}") * -1
    assert f2.parse(f"1/{longest}") * f2.parse(longest) == f2.one
    r0 = Field.ratfunc(0)
    assert r0.parse(f"{longest}*t").val() == 1
    assert r0.parse(f"(t)/({longest})").val() == 1
    cases = [(f2, over, 0), (f2, f"-{over}", 1), (f2, f"3/{over}", 2),
             (r0, over, 0), (r0, f"t+{over}", 2), (r0, f"1/{over}*t", 2),
             (r0, f"t^{over}", 2), (r0, f"(t)/(t-{over})", 7),
             (Field.ratfunc(3), f" {over}", 1)]
    for F, text, pos in cases:
        with pytest.raises(ParseError) as err:
            F.parse(text)
        assert err.value.position == pos, text
        assert f"exceed the limit {MAX_DIGITS}" in str(err.value)


def test_elements_are_hashable_and_field_bound():
    f2, f3 = Field.padic(2), Field.padic(3)
    a = f2.from_int(6)
    b = f3.from_int(6)
    assert a != b
    assert len({a, f2.from_int(6), b}) == 2
    with pytest.raises(ValueError):
        a + b


# ---------------------------------------------------------------------------
# randomized law checks via the verify suite

@pytest.mark.parametrize("sel,trials", [
    ("padic:2", 40), ("padic:7", 25), ("ratfunc:0", 25), ("ratfunc:3", 25),
])
def test_field_property_suite(sel, trials):
    from ultraconv.verify import run_suite
    results = run_suite("field", Field.from_selector(sel), seed=20260822, trials=trials)
    for r in results:
        assert r.ok, f"{r.name}: {r.failures}"


# ---------------------------------------------------------------------------
# rational function arithmetic against frozen renders and evaluation

# (field, operation, operands, render), rendered by the Fraction-coefficient
# implementation this arithmetic replaced
FROZEN_RATFUNC = [
    ("ratfunc:0", "add", ("(1/2*t-3)/(t+1)", "(t^2-1)/(2*t+2)"), "(1/2*t^2+1/2*t-7/2)/(t+1)"),
    ("ratfunc:0", "sub", ("(-3*t^2+1)/(t^2-1)", "(2)/(t-1)"), "(-3*t^2-2*t-1)/(t^2-1)"),
    ("ratfunc:0", "sub", ("(t^2+1)/(2*t^2-2)", "(t^2+1)/(2*t^2-2)"), "0"),
    ("ratfunc:0", "mul", ("(t^2-1)/(3*t)", "(-6*t)/(t+1)"), "-2*t+2"),
    ("ratfunc:0", "mul", ("(-t^3+2)/(3*t-1)", "(3*t-1)/(-2*t^2)"), "(1/2*t^3-1)/(t^2)"),
    ("ratfunc:0", "div", ("(-2*t+4)/(t^3)", "(t-2)/(5*t)"), "(-10)/(t^2)"),
    ("ratfunc:0", "inverse", ("(-2*t^2+4)/(3*t+1)",), "(-3/2*t-1/2)/(t^2-2)"),
    ("ratfunc:0", "integral_part", ("(-3*t^4+1/2*t+3)/(2*t^2+4*t^3)",),
     "(-3/4*t^2+11/4)/(t+1/2)"),
    ("ratfunc:0", "grooming_unit", ("(3/2*t)/(t+2)", "(-6*t^2+3)/(t^2)", "(4/3)/(t^3-t)"),
     "t^3+2*t^2-t-2"),
    ("ratfunc:0", "parse", ("(1/2*t+1/3)/(2/3*t^2-4)",), "(3/4*t+1/2)/(t^2-6)"),
    ("ratfunc:0", "parse", ("(-4*t^2+2*t)/(-6*t)",), "2/3*t-1/3"),
    ("ratfunc:3", "add", ("(2*t+1)/(t^2+1)", "(t)/(t+2)"), "(t^3+2*t^2+2)/(t^3+2*t^2+t+2)"),
    ("ratfunc:3", "sub", ("(t+1)/(t^2+2)", "(1)/(t+1)"), "(2)/(t^2+2)"),
    ("ratfunc:3", "mul", ("(t^2+2)/(2*t)", "(t)/(t+1)"), "2*t+1"),
    ("ratfunc:3", "div", ("(2*t^2+1)/(t^3)", "(t+1)/(2*t)"), "(t+2)/(t^2)"),
    ("ratfunc:3", "inverse", ("(2*t^2+1)/(t+2)",), "(2)/(t+1)"),
    ("ratfunc:3", "integral_part", ("(2*t^3+t+1)/(t^2+2*t^3)",), "(t+1)/(t+2)"),
    ("ratfunc:3", "grooming_unit", ("(2*t)/(t+1)", "(t^2+2)/(2*t^2)"), "t+1"),
    ("ratfunc:3", "parse", ("(2*t^2+2)/(2*t^2+t)",), "(t^2+1)/(t^2+2*t)"),
    ("ratfunc:3", "parse", ("(1/2*t^2+2/5)/(2*t+1/4)",), "t+1"),
]


@pytest.mark.parametrize("sel,op,operands,expected", FROZEN_RATFUNC)
def test_ratfunc_arithmetic_matches_frozen_renders(sel, op, operands, expected):
    f = Field.from_selector(sel)
    xs = [f.parse(s) for s in operands]
    compute = {
        "add": lambda: xs[0] + xs[1],
        "sub": lambda: xs[0] - xs[1],
        "mul": lambda: xs[0] * xs[1],
        "div": lambda: xs[0] / xs[1],
        "inverse": lambda: xs[0].inverse(),
        "integral_part": lambda: xs[0].integral_part(),
        "grooming_unit": lambda: f.grooming_unit(xs),
        "parse": lambda: xs[0],
    }
    assert compute[op]().render() == expected


def test_ratio_clears_fraction_coefficients():
    r0 = Field.ratfunc(0)
    x = r0.ratio([Fraction(1, 2), 0, Fraction(-3, 4)], [Fraction(-2, 3), 1])
    assert x.render() == "(-3/4*t^2+1/2)/(t-2/3)"
    assert Field.ratfunc(5).ratio([1, 2], [3, 4]).render() == "(3*t+4)/(t+2)"
    assert Field.ratfunc(3).ratio([Fraction(1, 2)]).render() == "2"


def _evaluate(f, x, x0):
    """x at t = x0 from its payload as num(x0) / den(x0), or None where the
    denominator vanishes; any rescaling of the payload gives the same
    value."""
    num, den = x.data
    n = sum(c * x0**i for i, c in enumerate(num))
    d = sum(c * x0**i for i, c in enumerate(den))
    q = f.param
    if q:
        n, d = n % q, d % q
        return None if d == 0 else n * pow(d, -1, q) % q
    return None if d == 0 else Fraction(n) / d


@pytest.mark.parametrize("sel", ["ratfunc:0", "ratfunc:3", "ratfunc:5"])
def test_ratfunc_arithmetic_commutes_with_evaluation(sel):
    f = Field.from_selector(sel)
    q = f.param
    rng = random.Random(20261018)
    points = list(range(q)) if q else [Fraction(k, 2) for k in range(-5, 6)]

    def element():
        while True:
            num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
            den = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
            if any(c % q if q else c for c in den):
                return f.ratio(num, den) * f.uniformizer_pow(rng.randint(-2, 2))

    def inv(v):
        return pow(v, -1, q) if q else 1 / v

    def red(v):
        return v % q if q else v

    pool = [element() for _ in range(8)]
    checked = 0
    for _ in range(150):
        a, b = rng.choice(pool), rng.choice(pool)
        results = {"+": a + b, "-": a - b, "*": a * b, "neg": -a}
        if b:
            results["/"] = a / b
        if a:
            results["inv"] = a.inverse()
        for r in results.values():
            # a canonical payload is the one its own text parses to
            assert f.parse(r.render()) == r
        for x0 in points:
            va, vb = _evaluate(f, a, x0), _evaluate(f, b, x0)
            if va is None or vb is None:
                continue
            expected = {"+": red(va + vb), "-": red(va - vb), "*": red(va * vb), "neg": red(-va)}
            if vb:
                expected["/"] = red(va * inv(vb))
            if va:
                expected["inv"] = inv(va)
            for op, value in expected.items():
                assert _evaluate(f, results[op], x0) == value, op
            checked += 1
        # grow degrees and sizes through the pool, within reason
        c = rng.choice([r for op, r in results.items() if op in "+-*/"])
        if len(c.render()) < 300:
            pool[rng.randrange(len(pool))] = c
    assert checked > 100, checked


def test_ratfunc_arithmetic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    r0 = Field.ratfunc(0)
    t = sympy.Symbol("t")
    rng = random.Random(7)

    def element():
        num = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        den = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [rng.choice([-2, 1, 3])]
        return r0.ratio(num, den)

    def to_sympy(x):
        return sympy.sympify(x.render().replace("^", "**"), locals={"t": t})

    for _ in range(40):
        a, b = element(), element()
        sa, sb = to_sympy(a), to_sympy(b)
        pairs = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)]
        if b:
            pairs.append((a / b, sa / sb))
        for ours, theirs in pairs:
            p, d = sympy.fraction(sympy.cancel(theirs))
            # canonical form: the same reduced fraction with a monic denominator
            lead = sympy.Poly(d, t).LC()
            expected = sympy.expand(p / lead) / sympy.expand(d / lead)
            assert sympy.simplify(to_sympy(ours) - expected) == 0
            num, den = ours.data
            assert sympy.degree(sympy.expand(d), t) == len(den) - 1
            assert sympy.degree(sympy.expand(p), t) == (len(num) - 1 if num else -sympy.oo)
