"""Exact arithmetic and answer checks written apart from ultraconv.

Nothing here imports the program.  Two small fields mirror the two
backends the benchmark drives:

* ``Padic(p)``: elements are ``fractions.Fraction`` with the p-adic
  valuation;
* ``RatFunc0()``: elements are ``RF`` quotients of polynomials over Q,
  valued by the order of vanishing at t = 0.  Quotients are kept without
  a gcd; only exact zero tests and valuations are ever needed.

Both parse and render the program's documented element syntax.  The
checkers at the bottom take a request (as built by ``payloads``) and the
report the program returned (the CLI's JSON report) and return ``None``
when the report is right, else a one-line reason.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# polynomials over Q: tuples of Fractions, lowest degree first, no trailing 0

def ptrim(cs) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ptrim(out)


def pneg(a) -> tuple:
    return tuple(-c for c in a)


def pmul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return ptrim(out)


def pord(a) -> int:
    return next(i for i, c in enumerate(a) if c)


class RF:
    """num/den over Q; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(ONE,)):
        num, den = ptrim(tuple(Fraction(c) for c in num)), ptrim(tuple(Fraction(c) for c in den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = (ONE,)
        else:
            # drop a common power of t; keeps degrees from compounding
            k = min(pord(num), pord(den))
            num, den = num[k:], den[k:]
        self.num, self.den = num, den

    def __add__(self, o):
        o = _rf(o)
        return RF(padd(pmul(self.num, o.den), pmul(o.num, self.den)), pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RF(pneg(self.num), self.den)

    def __sub__(self, o):
        return self + (-_rf(o))

    def __rsub__(self, o):
        return _rf(o) - self

    def __mul__(self, o):
        o = _rf(o)
        return RF(pmul(self.num, o.num), pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _rf(o)
        if not o.num:
            raise ZeroDivisionError("division by zero")
        return RF(pmul(self.num, o.den), pmul(self.den, o.num))

    def __rtruediv__(self, o):
        return _rf(o) / self

    def __pow__(self, k: int):
        if k < 0:
            return 1 / (self ** -k)
        out = RF((ONE,))
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, o) -> bool:
        o = _rf(o)
        return pmul(self.num, o.den) == pmul(o.num, self.den)

    __hash__ = None


def _rf(x) -> RF:
    return x if isinstance(x, RF) else RF((Fraction(x),))


def _int_val(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


class Padic:
    """Q with the p-adic valuation; elements are Fractions."""

    kind = "padic"

    def __init__(self, p: int):
        self.p = p
        self.selector = f"padic:{p}"
        self.pi = Fraction(p)

    def parse(self, s: str) -> Fraction:
        return Fraction(s)

    def render(self, x: Fraction) -> str:
        return str(x)

    def val(self, x) -> Optional[int]:
        if not x:
            return None
        return _int_val(x.numerator, self.p) - _int_val(x.denominator, self.p)


class RatFunc0:
    """Q(t) with the order-at-zero valuation; elements are RF."""

    kind = "ratfunc"
    selector = "ratfunc:0"
    pi = RF((ZERO, ONE))

    def parse(self, s: str) -> RF:
        s = s.replace(" ", "")
        if s.startswith("("):
            num, sep, den = s[1:-1].partition(")/(")
            if not sep or not s.endswith(")"):
                raise ValueError(f"bad rational function {s!r}")
            return RF(_parse_poly(num), _parse_poly(den))
        return RF(_parse_poly(s))

    def render(self, x: RF) -> str:
        if x.den == (ONE,):
            return _render_poly(x.num)
        return f"({_render_poly(x.num)})/({_render_poly(x.den)})"

    def val(self, x: RF) -> Optional[int]:
        if not x.num:
            return None
        return pord(x.num) - pord(x.den)


def _parse_poly(s: str) -> tuple:
    """Terms like ``-3/2*t^4``, ``t``, ``5``, joined by signs."""
    coeffs: Dict[int, Fraction] = {}
    i, n = 0, len(s)
    while i < n:
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        j = i
        while j < n and (s[j].isdigit() or s[j] == "/"):
            j += 1
        c = Fraction(s[i:j]) if j > i else ONE
        i = j
        exp = 0
        if i < n and s[i] == "*":
            i += 1
        if i < n and s[i] == "t":
            i += 1
            exp = 1
            if i < n and s[i] == "^":
                j = i + 1
                while j < n and s[j].isdigit():
                    j += 1
                exp = int(s[i + 1:j])
                i = j
        coeffs[exp] = coeffs.get(exp, ZERO) + sign * c
    if not coeffs:
        raise ValueError(f"empty polynomial {s!r}")
    out = [ZERO] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return ptrim(out)


def _render_poly(a) -> str:
    if not a:
        return "0"
    parts = []
    for exp in range(len(a) - 1, -1, -1):
        c = a[exp]
        if not c:
            continue
        mag = abs(c)
        tpart = "t" if exp == 1 else f"t^{exp}"
        if exp == 0:
            body = str(mag)
        elif mag == 1:
            body = tpart
        else:
            body = f"{mag}*{tpart}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "".join(parts)


def field_for(selector: str):
    kind, _, arg = selector.partition(":")
    if kind == "padic":
        return Padic(int(arg))
    if selector == "ratfunc:0":
        return RatFunc0()
    raise ValueError(f"no oracle field for {selector!r}")


# ---------------------------------------------------------------------------
# exact linear algebra over either field

class Dependent(ValueError):
    """Generators that should be linearly independent are not."""


def solve(cols: Sequence[Sequence], x: Sequence) -> Optional[list]:
    """Coefficients c with sum_j c_j cols[j] == x, or None when x is outside
    the span.  Raises Dependent when the columns are linearly dependent."""
    k, d = len(cols), len(x)
    rows = [[cols[j][i] for j in range(k)] + [x[i]] for i in range(d)]
    pivots = []
    r = 0
    for c in range(k):
        sel = next((i for i in range(r, d) if rows[i][c]), None)
        if sel is None:
            raise Dependent("dependent generators")
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * a for a in rows[r]]
        for i in range(d):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(r)
        r += 1
    if any(rows[i][k] for i in range(r, d)):
        return None
    return [rows[i][k] for i in pivots]


def rank(vectors: Sequence[Sequence]) -> int:
    rows = [list(v) for v in vectors]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        sel = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[rk], rows[sel] = rows[sel], rows[rk]
        for i in range(rk + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[rk][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def vsub(a, b) -> list:
    return [x - y for x, y in zip(a, b)]


def vadd(a, b) -> list:
    return [x + y for x, y in zip(a, b)]


def vscale(a, c) -> list:
    return [x * c for x in a]


def integral(F, c) -> bool:
    v = F.val(c)
    return v is None or v >= 0


def in_module(F, free, integ, x, line: bool = False) -> bool:
    """x in K-span(free) + O-span(integ), for independent generators; with
    ``line`` the whole line K*x must lie inside, i.e. x in K-span(free)."""
    cols = list(free) + list(integ)
    if not cols:
        return not any(x)
    c = solve(cols, x)
    if c is None:
        return False
    tail = c[len(free):]
    if line:
        return not any(tail)
    return all(integral(F, v) for v in tail)


def submodule(F, a, b) -> bool:
    """Inclusion of modules given as (free, integral) generator lists."""
    return (all(in_module(F, *b, f, line=True) for f in a[0])
            and all(in_module(F, *b, g) for g in a[1]))


def same_module(F, a, b) -> bool:
    return submodule(F, a, b) and submodule(F, b, a)


def in_hull(F, pts, x) -> bool:
    """x in the hull of affinely independent points: x - p0 in O-span(p_i - p0)."""
    return in_module(F, [], [vsub(p, pts[0]) for p in pts[1:]], vsub(x, pts[0]))


# ---------------------------------------------------------------------------
# decoding payload and report JSON into oracle values

def vec(F, data) -> list:
    return [F.parse(s) for s in data]


def cset(F, data):
    """(translate, free, integral) of a nonempty set, or None for empty."""
    if data.get("empty"):
        return None
    return (vec(F, data["translate"]),
            [vec(F, v) for v in data.get("free", [])],
            [vec(F, v) for v in data.get("integral", [])])


def set_contains(F, s, x) -> bool:
    if s is None:
        return False
    t, free, integ = s
    return in_module(F, free, integ, vsub(x, t))


def stirling2(n: int, r: int) -> int:
    return sum((-1) ** j * math.comb(r, j) * (r - j) ** n for j in range(r + 1)) // math.factorial(r)


# ---------------------------------------------------------------------------
# checkers: (F, payload, expect, report) -> None or a reason

def _check_hull(F, pl, ex, rep):
    pts = [vec(F, p) for p in pl["points"]]
    out = cset(F, rep)
    if out is None:
        return "hull of points reported empty"
    t, free, integ = out
    diffs = [vsub(p, pts[0]) for p in pts[1:]]
    if free or len(integ) != len(diffs):
        return f"hull has {len(free)} free and {len(integ)} integral generators, expected 0 and {len(diffs)}"
    if not same_module(F, ([], integ), ([], diffs)):
        return "hull module differs from the O-span of the differences"
    if not in_module(F, [], diffs, vsub(t, pts[0])):
        return "hull translate outside the hull"
    return None


def _check_flag(F, pl, ex, rep):
    t, free, integ = cset(F, pl["set"])
    if vec(F, rep["translate"]) != t:
        return "flag translate differs from the set's"
    ffree, finteg = [], []
    for e in rep["entries"]:
        v = vec(F, e["vector"])
        if e["delta"] == "full":
            ffree.append(v)
        else:
            if min(F.val(c) for c in v if c) != 0:
                return "flag direction not normalized to valuation 0"
            finteg.append(vscale(v, F.pi ** e["delta"]["atLeast"]))
    if not same_module(F, (ffree, finteg), (free, integ)):
        return "flag module differs from the set's module"
    return None


def _check_box(F, pl, ex, rep):
    t, free, integ = cset(F, pl["set"])
    if vec(F, rep["translate"]) != t:
        return "box translate differs from the set's"
    rows = [vec(F, r) for r in rep["matrix"]]
    bfree, binteg = [], []
    for j, delta in enumerate(rep["deltas"]):
        col = [r[j] for r in rows]
        if delta == "full":
            bfree.append(col)
        elif delta == "onlyInfinity":
            if any(col):
                return "pinned box column is not zero"
        else:
            binteg.append(vscale(col, F.pi ** delta["atLeast"]))
    if not same_module(F, (bfree, binteg), (free, integ)):
        return "box module differs from the set's module"
    return None


def _check_radon(F, pl, ex, rep):
    pts = [vec(F, p) for p in pl["points"]]
    idx = rep["index"]
    cs = [F.parse(c) for c in rep["coefficients"]]
    if not 0 <= idx < len(pts) or len(cs) != len(pts) - 1:
        return "certificate has the wrong shape"
    if not all(integral(F, c) for c in cs):
        return "certificate coefficient not integral"
    if sum(cs, ZERO) != 1:
        return "certificate coefficients do not sum to 1"
    acc = [ZERO] * len(pts[0])
    for c, p in zip(cs, [p for j, p in enumerate(pts) if j != idx]):
        acc = vadd(acc, vscale(p, c))
    if acc != pts[idx]:
        return "certificate combination does not give the point"
    return None


def _check_intersect(F, pl, ex, rep):
    out = cset(F, rep)
    if ex["empty"]:
        return None if out is None else "intersection of disjoint sets reported nonempty"
    if out is None:
        return "intersection with a common point reported empty"
    if not set_contains(F, out, vec(F, ex["common"])):
        return "intersection misses the common point"
    for side in (pl["first"], pl["second"]):
        t, free, integ = cset(F, side)
        if not set_contains(F, (t, free, integ), out[0]) or not submodule(F, out[1:], (free, integ)):
            return "intersection is not inside both sets"
    return None


def _check_bool(key):
    def check(F, pl, ex, rep):
        if rep.get(key) is not ex[key]:
            return f"{key} is {rep.get(key)!r}, expected {ex[key]!r}"
        return None
    return check


def _check_caratheodory(F, pl, ex, rep):
    pts = [vec(F, p) for p in pl["points"]]
    idx = rep["indices"]
    d = len(pts[0])
    if len(idx) != d + 1 or len(set(idx)) != len(idx) or not all(0 <= i < len(pts) for i in idx):
        return f"indices {idx} are not d+1 distinct input indices"
    kept = [pts[i] for i in idx]
    if [vec(F, p) for p in rep["points"]] != kept:
        return "reported points differ from the indexed inputs"
    if not all(in_hull(F, kept, p) for p in pts):
        return "an input point lies outside the hull of the kept points"
    return None


def _check_tverberg(F, pl, ex, rep):
    pts = [vec(F, p) for p in pl["points"]]
    r, d = pl["r"], len(pts[0])
    blocks = rep["partIndices"]
    if len(blocks) != r or sorted(i for b in blocks for i in b) != list(range(len(pts))):
        return "blocks do not partition the points into r parts"
    if any(len(b) != d + 1 for b in blocks[:-1]) or not blocks[-1]:
        return "block sizes are wrong"
    for outer, inner in zip(blocks, blocks[1:]):
        hull = [pts[i] for i in outer]
        if not all(in_hull(F, hull, pts[i]) for i in inner):
            return "block hulls are not nested"
    return None


def _check_tvcount(F, pl, ex, rep):
    n, r, d = len(pl["points"]), pl["r"], len(pl["points"][0])
    count = rep["count"]
    if not 1 <= count <= stirling2(n, r):
        return f"count {count} outside [1, S({n},{r})]"
    floor = math.factorial(r - 1) ** d
    if rep["conjecturedFloor"] != floor or rep["meetsFloor"] is not (count >= floor):
        return "floor fields inconsistent"
    return None


def _check_helly(F, pl, ex, rep):
    point = rep["point"]
    if ex["empty"]:
        return None if point is None else "family without a common point got one"
    if point is None:
        return "family with a common point got none"
    x = vec(F, point)
    if not all(set_contains(F, cset(F, m), x) for m in pl["family"]):
        return "reported point misses a member"
    return None


def _check_breadth(F, pl, ex, rep):
    if rep["indices"] != ex["indices"]:
        return f"indices {rep['indices']}, expected {ex['indices']}"
    return None


def _check_shatter(F, pl, ex, rep):
    if rep["shattered"] is not ex["shattered"]:
        return f"shattered is {rep['shattered']}, expected {ex['shattered']}"
    if ex["shattered"]:
        return None
    pts = [vec(F, p) for p in pl["points"]]
    sub, j = rep["failingSubset"], rep["violator"]
    if j in sub or not in_hull(F, [pts[i] for i in sub], pts[j]):
        return "failing subset does not swallow the violator"
    return None


def _check_atoms(F, pl, ex, rep):
    fam = [cset(F, m) for m in pl["family"]]
    patterns = {tuple(set_contains(F, m, vec(F, q)) for m in fam) for q in pl["probes"]}
    if rep["atoms"] != len(patterns):
        return f"atoms {rep['atoms']}, expected {len(patterns)}"
    return None


def _check_selection(F, pl, ex, rep):
    n, d = len(pl["points"]), len(pl["points"][0])
    total, count = math.comb(n, d + 1), rep["count"]
    if rep["total"] != total:
        return f"total {rep['total']}, expected {total}"
    if not math.comb(n - 1, d) <= count <= total:
        return f"count {count} outside [C({n - 1},{d}), {total}]"
    if vec(F, rep["point"]) not in [vec(F, p) for p in pl["points"]]:
        return "selected point is not an input point"
    return None


def _check_frachelly(F, pl, ex, rep):
    if (Fraction(rep["alpha"]), Fraction(rep["beta"])) != (Fraction(ex["alpha"]), Fraction(ex["beta"])):
        return f"(alpha, beta) = ({rep['alpha']}, {rep['beta']}), expected ({ex['alpha']}, {ex['beta']})"
    return None


def _check_pierce(F, pl, ex, rep):
    fam = [cset(F, m) for m in pl["family"]]
    pts = [vec(F, p) for p in rep["points"]]
    if not pts:
        return "no piercing points"
    if not all(any(set_contains(F, m, x) for m in fam) for x in pts):
        return "a piercing point lies in no member"
    if not all(any(set_contains(F, m, x) for x in pts) for m in fam):
        return "a member is not pierced"
    return None


CHECKS = {
    "hull": _check_hull,
    "member": _check_bool("member"),
    "intersect": _check_intersect,
    "equals": _check_bool("equals"),
    "subset": _check_bool("subset"),
    "flag": _check_flag,
    "box": _check_box,
    "radon": _check_radon,
    "caratheodory": _check_caratheodory,
    "tverberg": _check_tverberg,
    "tvcount": _check_tvcount,
    "helly": _check_helly,
    "breadth": _check_breadth,
    "shatter": _check_shatter,
    "atoms": _check_atoms,
    "selection": _check_selection,
    "frachelly": _check_frachelly,
    "pierce": _check_pierce,
}


def check(request: Dict[str, Any], report: Any) -> Optional[str]:
    """None when ``report`` answers ``request`` correctly, else a reason."""
    F = field_for(request["field"])
    try:
        return CHECKS[request["op"]](F, request["payload"], request.get("expect", {}), report)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
