"""Seeded request lists for the four workloads, written apart from ultraconv.

Every payload is JSON in the CLI's syntax, drawn from the benchmark's own
``random.Random(seed)`` and exact arithmetic in ``oracles``; nothing here
imports the program, so a change to how the program presents a set cannot
change a workload.  Each request carries what its answer must satisfy
(``expect``), known from how the input was built:

* a point t + sum a_j f_j + sum c_i g_i over independent generators lies in
  t + K-span(f) + O-span(g) exactly when every c_i is integral;
* two sets built around a hidden point meet; a translate of a module by a
  vector outside it misses the module's other translates;
* re-presenting generators through an integer unimodular matrix keeps the
  set, scaling one integral generator by the uniformizer shrinks it.

Run ``python3 perfbench/payloads.py --seed N`` to print a digest of each
workload's requests.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
from fractions import Fraction
from typing import Any, Dict, List

from oracles import RF, Padic, RatFunc0, rank, vadd, vscale, vsub

WORKLOADS = ("sets-padic", "sets-ratfunc0", "search-padic", "cli-process")


class Draw:
    """Random elements of one field, drawn from the benchmark's own RNG.

    Which draws are zero, and which denominators they get, follows a fixed
    cycle; the RNG picks only the nonzero values.  Payload sizes, and so
    the work, then vary little from seed to seed.
    """

    def __init__(self, F, rng: random.Random):
        self.F = F
        self.rng = rng
        self.padic = F.kind == "padic"
        self.n = 0

    def _tick(self) -> int:
        self.n += 1
        return self.n

    def _int(self, bound: int) -> int:
        return self.rng.choice((-1, 1)) * self.rng.randint(1, bound)

    def _poly1(self) -> tuple:
        return (Fraction(self._int(3)), Fraction(self._int(3)))

    def coord(self):
        """A small generator entry: an integer, or a polynomial in t."""
        if self._tick() % 5 == 0:
            return Fraction(0) if self.padic else RF(())
        return Fraction(self._int(4)) if self.padic else RF(self._poly1())

    def any(self):
        """An element of any valuation."""
        k = self._tick()
        if self.padic:
            return Fraction(self._int(9), (1, 2, 3, 1, 4)[k % 5])
        return RF(self._poly1(), self.F.pi.num if k % 3 == 0 else (Fraction(1),))

    def integral(self):
        """An element of valuation >= 0."""
        k = self._tick()
        if self.padic:
            return Fraction(self._int(9), (1, 3, 1, 5)[k % 4])
        return RF(self._poly1())

    def fractional(self):
        """An element of valuation exactly -1."""
        if self.padic:
            return Fraction(self.rng.choice((-7, -5, -3, -1, 1, 3, 5, 7)), self.F.p)
        return RF(self._poly1()) / self.F.pi

    def nonzero(self):
        x = self.any()
        while not x:
            x = self.any()
        return x

    def vector(self, d: int, entry=None) -> list:
        return [(entry or self.any)() for _ in range(d)]

    def independent(self, d: int, k: int) -> list:
        while True:
            vs = [self.vector(d, self.coord) for _ in range(k)]
            if rank(vs) == k:
                return vs

    def unimodular(self, k: int) -> list:
        """k x k integer matrix of determinant +-1."""
        r = self.rng
        lo = [[(r.randint(-2, 2) if j < i else int(i == j)) for j in range(k)] for i in range(k)]
        hi = [[(r.randint(-2, 2) if j > i else r.choice((-1, 1)) * (i == j)) for j in range(k)] for i in range(k)]
        perm = list(range(k))
        r.shuffle(perm)
        return [[sum(lo[i][m] * hi[m][perm[j]] for m in range(k)) for j in range(k)] for i in range(k)]


def shape(d: int, i: int):
    """(free lines, integral generators) of the i-th set in dimension d."""
    return ((0, d), (0, d - 1), (1, d - 1))[i % 3] if d > 1 else (0, 1)


class Gen:
    """Builds requests for one field; elements stay exact oracle values
    until ``js`` renders them."""

    def __init__(self, F, seed: int, salt: str):
        self.F = F
        self.draw = Draw(F, random.Random(f"{seed}:{salt}"))
        self.rng = self.draw.rng

    # rendering ---------------------------------------------------------------

    def js(self, v) -> List[str]:
        return [self.F.render(x) for x in v]

    def set_js(self, t, free, integ) -> Dict[str, Any]:
        return {"translate": self.js(t), "free": [self.js(v) for v in free],
                "integral": [self.js(v) for v in integ]}

    def req(self, op: str, payload: Dict[str, Any], **expect) -> Dict[str, Any]:
        return {"op": op, "field": self.F.selector, "payload": payload, "expect": expect}

    # building blocks ---------------------------------------------------------

    def module(self, d: int, nfree: int, nint: int):
        gens = self.draw.independent(d, nfree + nint)
        return gens[:nfree], gens[nfree:]

    def element_of(self, free, integ, d: int) -> list:
        acc = [self.F.pi * 0] * d
        for f in free:
            acc = vadd(acc, vscale(f, self.draw.any()))
        for g in integ:
            acc = vadd(acc, vscale(g, self.draw.integral()))
        return acc

    def probe(self, t, free, integ, inside: bool) -> list:
        """t + sum a_j f_j + sum c_i g_i, with one c_i of valuation -1
        when the point must fall outside."""
        out_at = -1 if inside else self.rng.randrange(len(integ))
        x = list(t)
        for f in free:
            x = vadd(x, vscale(f, self.draw.any()))
        for i, g in enumerate(integ):
            c = self.draw.fractional() if i == out_at else self.draw.integral()
            x = vadd(x, vscale(g, c))
        return x

    def represent(self, t, free, integ, d: int):
        """The same set through other generators and another translate."""
        U = self.draw.unimodular(len(integ))
        g2 = []
        for j in range(len(integ)):
            g = [self.F.pi * 0] * d
            for i, gi in enumerate(integ):
                g = vadd(g, vscale(gi, U[i][j]))
            for f in free:
                g = vadd(g, vscale(f, self.draw.any()))
            g2.append(g)
        f2 = []
        for j, f in enumerate(free):
            v = vscale(f, self.draw.nonzero())
            for k, other in enumerate(free):
                if k != j:
                    v = vadd(v, vscale(other, self.draw.any()))
            f2.append(v)
        return vadd(t, self.element_of(free, integ, d)), f2, g2

    def points(self, n: int, d: int, general: bool = True) -> list:
        """n points, every d+1 of them affinely independent when ``general``."""
        while True:
            pts = [self.draw.vector(d, self.draw.coord) for _ in range(n)]
            if not general or all(
                rank([vsub(p, s[0]) for p in s[1:]]) == d
                for s in itertools.combinations(pts, d + 1)
            ):
                return pts

    # set-layer requests --------------------------------------------------------

    def sets_group(self, d: int, nsets: int, probes: int, pairs: int) -> List[Dict[str, Any]]:
        """hull, member, intersect, equals/subset, flag and radon in dim d,
        and helly on two of the intersected pairs.
        Shapes (ranks, free lines) follow the request's position, never the
        draw, so the work per round changes little from seed to seed."""
        F, draw, out = self.F, self.draw, []
        for i in range(nsets):
            t = draw.vector(d)
            free, integ = self.module(d, *shape(d, i))
            sj = self.set_js(t, free, integ)
            for k in range(probes):
                inside = k % 2 == 0
                x = self.probe(t, free, integ, inside)
                out.append(self.req("member", {"set": sj, "point": self.js(x)}, member=inside))
            out.append(self.req("flag", {"set": sj}))
            same = self.set_js(*self.represent(t, free, integ, d))
            shrunk = [vscale(g, F.pi) if j == i % len(integ) else g for j, g in enumerate(integ)]
            smaller = self.set_js(*self.represent(t, free, shrunk, d))
            out.append(self.req("equals", {"first": sj, "second": same}, equals=True))
            out.append(self.req("equals", {"first": sj, "second": smaller}, equals=False))
            out.append(self.req("subset", {"first": smaller, "second": sj}, subset=True))
            out.append(self.req("subset", {"first": sj, "second": smaller}, subset=False))
        for i in range(pairs):
            for meet in (True, False):
                pair = self.intersect_pair(d, i, meet)
                out.append(pair)
                if i == 0:  # the same two sets once through the family layer
                    two = [pair["payload"]["first"], pair["payload"]["second"]]
                    out.append(self.req("helly", {"family": two}, empty=not meet))
            pts = self.points(d + 1 - i % 2, d, general=False)
            while rank([vsub(p, pts[0]) for p in pts[1:]]) != len(pts) - 1:
                pts = self.points(d + 1 - i % 2, d, general=False)
            out.append(self.req("hull", {"points": self.pts_js(pts)}))
            out.append(self.req("radon", {"points": self.pts_js(self.points(d + 2, d, general=False))}))
        return out

    def intersect_pair(self, d: int, i: int, meet: bool) -> Dict[str, Any]:
        """Two sets around a hidden common point, or a set and a translate of
        a submodule by a vector outside the set's module."""
        if meet:
            z = self.draw.vector(d)
            sets = []
            for j in (i, i + 1):
                free, integ = self.module(d, *shape(d, j))
                sets.append(self.set_js(vsub(z, self.element_of(free, integ, d)), free, integ))
            return self.req("intersect", {"first": sets[0], "second": sets[1]},
                            empty=False, common=self.js(z))
        t = self.draw.vector(d)
        nfree, _ = shape(d, i)
        free, integ = self.module(d, nfree, d - nfree)
        miss = vadd(t, vscale(integ[0], 1 / self.F.pi))
        inner = [vscale(g, self.F.pi ** (j % 2)) for j, g in enumerate(integ)]
        second = self.set_js(*self.represent(miss, free, inner, d))
        return self.req("intersect", {"first": self.set_js(t, free, integ), "second": second}, empty=True)

    # family-layer requests -----------------------------------------------------

    def common_family(self, n: int, d: int, z=None, lines: bool = True) -> list:
        """n sets around a hidden point z; without ``lines`` every member
        lies in z + O^d."""
        z = self.draw.vector(d) if z is None else z
        fam = []
        for j in range(n):
            nfree = 1 if lines and j % 3 == 2 else 0
            free, integ = self.module(d, nfree, d - nfree)
            fam.append(self.set_js(vsub(z, self.element_of(free, integ, d)), free, integ))
        return fam

    def moment_family(self, n: int, d: int) -> list:
        """Hyperplanes sum_k a^k x_{k+1} = -a^d at distinct anchors a: every d
        of them meet in one point and every d+1 miss."""
        anchors = self.rng.sample([a for a in range(-9, 10) if a], n)
        fam = []
        for a in anchors:
            gens = []
            for k in range(1, d):
                g = [Fraction(0)] * d
                g[0], g[k] = Fraction(-a ** k), Fraction(1)
                gens.append(vscale(g, self.rng.choice((1, -1, 2, 3))))
            t = [Fraction(-a ** d)] + [Fraction(0)] * (d - 1)
            for g in gens:
                t = vadd(t, vscale(g, self.draw.any()))
            fam.append(self.set_js(t, gens, []))
        return fam

    def breadth_family(self, d: int, extra: int):
        """d hyperplanes in general position through z plus lattices around
        z; only the d hyperplanes pin the intersection down to z."""
        z = self.draw.vector(d)
        while True:
            normals = [self.draw.vector(d, self.draw.coord) for _ in range(d)]
            if rank(normals) == d:
                break
        members = []
        for nv in normals:
            k = next(i for i, c in enumerate(nv) if c)
            gens = []
            for j in range(d):
                if j != k:
                    g = [Fraction(0)] * d
                    g[j], g[k] = nv[k], -nv[j]
                    gens.append(g)
            t = list(z)
            for g in gens:
                t = vadd(t, vscale(g, self.draw.any()))
            members.append(self.set_js(t, gens, []))
        # planes last: the search by size then index tries every other
        # subfamily first, so its cost does not depend on the draw
        fam = self.common_family(extra, d, z) + members
        return fam, list(range(extra, extra + d))

    def clusters(self, n: int, d: int) -> list:
        """Two groups of n sets, each around its own point; the points differ
        by a vector outside O^d, so no set of one group meets the other."""
        z = self.draw.vector(d, self.draw.integral)
        w = vadd(z, [1 / self.F.pi] + [self.F.pi * 0] * (d - 1))
        return self.common_family(n, d, z, lines=False) + self.common_family(n, d, w, lines=False)

    def disjoint_family(self, n: int, d: int) -> list:
        fam = self.common_family(n - 1, d)
        t, free, integ = self._parts(fam[0])
        miss = vadd(t, vscale(integ[0], 1 / self.F.pi))
        fam.append(self.set_js(*self.represent(miss, free, integ, d)))
        return fam

    def _parts(self, sj):
        F = self.F
        return ([F.parse(s) for s in sj["translate"]],
                [[F.parse(s) for s in v] for v in sj["free"]],
                [[F.parse(s) for s in v] for v in sj["integral"]])

    def pts_js(self, pts) -> list:
        return [self.js(p) for p in pts]


# ---------------------------------------------------------------------------
# the four workloads

def sets_requests(F, seed: int, dims, nsets: int, pairs: int) -> List[Dict[str, Any]]:
    out = []
    for d in dims:
        out += Gen(F, seed, f"sets-{d}").sets_group(d, nsets, probes=4, pairs=pairs)
    return out


def search_requests(seed: int, copies: int = 2) -> List[Dict[str, Any]]:
    """Exhaustive searches over padic:2; ``copies`` draws of every instance
    shape, so one unlucky draw moves a round's time less."""
    g = Gen(Padic(2), seed, "search")
    out = []
    for _ in range(copies):
        for d, r, n in ((2, 2, 5), (2, 2, 6), (3, 2, 5), (1, 3, 5), (2, 3, 7)):
            out.append(g.req("tvcount", {"points": g.pts_js(g.points(n, d)), "r": r}))
        for d, n, k in ((2, 6, 2), (2, 6, 3), (3, 5, 3), (3, 5, 4)):
            out.append(g.req("frachelly", {"family": g.moment_family(n, d), "k": k},
                             alpha="1" if k <= d else "0", beta=str(Fraction(d, n))))
        for d, n in ((2, 6), (3, 6)):
            out.append(g.req("selection", {"points": g.pts_js(g.points(n, d))}))
        for d in (2, 3):
            out.append(g.req("shatter", {"points": g.pts_js(g.points(d + 1, d))}, shattered=True))
            out.append(g.req("shatter", {"points": g.pts_js(g.points(d + 2, d))}, shattered=False))
            fam, planes = g.breadth_family(d, extra=2)
            out.append(g.req("breadth", {"family": fam}, indices=planes))
            out.append(g.req("helly", {"family": g.common_family(5, d)}, empty=False))
        out.append(g.req("helly", {"family": g.disjoint_family(4, 2)}, empty=True))
        out.append(g.req("pierce", {"family": g.clusters(3, 2)}))
    return out


ALL_EMPTY_HELLY = {
    "op": "helly", "field": "padic:2",
    "payload": {"family": [{"empty": True, "dim": 2}, {"empty": True, "dim": 2}]},
    "expect": {"empty": True},
    "known_fault": "family_from_json ignores a member's stated dim, so an all-empty family exits 2",
}


def cli_requests(seed: int) -> List[Dict[str, Any]]:
    """One request per CLI payload op, padic:2, dimension 2, plus the
    all-empty helly family that fails today."""
    g = Gen(Padic(2), seed, "cli")
    d = 2
    t = g.draw.vector(d)
    free, integ = g.module(d, 0, d)
    sj = g.set_js(t, free, integ)
    fam, planes = g.breadth_family(d, extra=1)
    probes = [g.probe(t, free, integ, k % 2 == 0) for k in range(6)]
    return [
        g.req("hull", {"points": g.pts_js(g.points(d + 1, d))}),
        g.req("member", {"set": sj, "point": g.js(probes[0])}, member=True),
        g.intersect_pair(d, 0, meet=True),
        g.req("flag", {"set": sj}),
        g.req("box", {"set": sj}),
        g.req("radon", {"points": g.pts_js(g.points(d + 2, d, general=False))}),
        g.req("caratheodory", {"points": g.pts_js(g.points(d + 3, d))}),
        g.req("tverberg", {"points": g.pts_js(g.points(2 * (d + 1) + 1, d)), "r": 3}),
        g.req("tvcount", {"points": g.pts_js(g.points(5, d)), "r": 2}),
        g.req("helly", {"family": g.common_family(3, d)}, empty=False),
        g.req("breadth", {"family": fam}, indices=planes),
        g.req("shatter", {"points": g.pts_js(g.points(d + 2, d))}, shattered=False),
        g.req("atoms", {"family": [sj] + g.common_family(2, d, probes[1]), "probes": g.pts_js(probes)}),
        g.req("selection", {"points": g.pts_js(g.points(5, d))}),
        g.req("frachelly", {"family": g.moment_family(4, d), "k": 2}, alpha="1", beta="1/2"),
        g.req("pierce", {"family": g.clusters(2, d)}),
        ALL_EMPTY_HELLY,
    ]


def requests(workload: str, seed: int) -> List[Dict[str, Any]]:
    """The fixed request list of one round of ``workload``."""
    if workload == "sets-padic":
        return sets_requests(Padic(2), seed, (2, 3, 4), nsets=6, pairs=4)
    if workload == "sets-ratfunc0":
        return sets_requests(RatFunc0(), seed, (2, 3), nsets=6, pairs=4)
    if workload == "search-padic":
        return search_requests(seed)
    if workload == "cli-process":
        return cli_requests(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def digest(workload: str, seed: int) -> str:
    text = json.dumps(requests(workload, seed), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description="Print a digest of each workload's requests.")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    for w in WORKLOADS:
        print(f"{w} seed={args.seed} requests={len(requests(w, args.seed))} sha256={digest(w, args.seed)}")


if __name__ == "__main__":
    main()
