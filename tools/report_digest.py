"""SHA-256 digest over a fixed set of in-process CLI reports.

Each report is one ``ultraconv.cli.main`` call; the digest covers its argv,
exit code, stdout and stderr.  The calls are:

* every request of ``perfbench/payloads.requests(w, seed)`` for the four
  benchmark workloads at seeds 1-8, each as the CLI op of the same name
  with ``--json``; ``equals`` and ``subset`` have no CLI op, so each such
  pair is sent as ``intersect`` of the two sets plus ``flag`` and ``box``
  of each side;
* ``verify --json`` at seeds 0 and 7 on padic:2 (30 trials), padic:3 (30),
  ratfunc:3 (6) and ratfunc:0 (2);
* ``witness helly``, ``breadth`` and ``frachelly`` with ``--json`` at
  ``--dim`` 1, 2 and 3 on the same four fields, and ``witness
  counterexample --json``;
* ``pierce``, ``helly`` and ``frachelly`` at k = 1, 2 and 3 on each of six
  designed families over padic:2 in dimension 2 (``DESIGNED``): copies of
  a ball, nested balls, two disjoint clusters interleaved and in a row, an
  isolated member, and a family with a line;
* ``radon``, ``caratheodory`` and ``tverberg`` at r = 2 and 3 with
  ``--json`` on each of seven designed point sets with repeated and
  collinear points (``DEGENERATE``), on the four fields above: the
  dependencies there have zero coefficients and ties in the least
  valuation, which general-position points rarely give;
* ``flag`` and ``box`` of each of six designed module payloads
  (``MODULES``) in dimensions 2 and 3, ``member`` of three points in each,
  and ``intersect`` of every ordered pair of them, on the same four
  fields: generator lists with zero, repeated and proportional members,
  integral generators dependent modulo the free span, and lists where
  the drop rule keeps generators whose reductions are still dependent;
* ``flag`` and ``box`` of the empty set in dimension 2, and ``tvcount`` at
  r = 1 on each ``DEGENERATE`` point set, on the same four fields;
* ``pierce``, and ``frachelly`` at k = 1, 2 and 3, on six seeded random
  joined families (``JOINED``: two common-point families from one
  ``Sampler``, one after the other) in dimensions 1 and 2 over padic:2,
  padic:3 and ratfunc:3.  Their nerve walks reach leaves that an earlier
  member still meets, which are not maximal faces.

A change that must keep every report byte-identical leaves the digest
unchanged.  Run from the repository root:

    python3 tools/report_digest.py                      # prints "<count> <sha256>"
    python3 tools/report_digest.py --check tools/report_digest.txt

``--check`` exits 1 when the digest differs from the file's first line.
The tool reads ``perfbench/`` and ``src/`` and writes nothing.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import payloads  # noqa: E402
from ultraconv import cli  # noqa: E402
from ultraconv.field import Field  # noqa: E402
from ultraconv.randgen import Sampler  # noqa: E402
from ultraconv.serialize import convex_to_json  # noqa: E402

SEEDS = range(1, 9)
VERIFY = (("padic:2", 30), ("padic:3", 30), ("ratfunc:3", 6), ("ratfunc:0", 2))


def _ball(x: str, y: str, scale: str = "1") -> dict:
    return {"translate": [x, y], "integral": [[scale, "0"], ["0", scale]]}


_A, _B = _ball("0", "0"), _ball("1/2", "0")
DESIGNED = (
    [_A] * 6,
    [_ball("0", "0", r) for r in ("1", "4", "1/2", "2")],
    [_A, _B] * 4,
    [_A] * 4 + [_B] * 4,
    [_A, _A, _B, _A, _A],
    [_A, {"translate": ["0", "0"], "free": [["1", "0"]]}, _ball("0", "1/2"),
     {"translate": ["0", "1/2"]}, _ball("0", "0", "2")],
)

DEGENERATE = tuple([[str(x) for x in p] for p in pts] for pts in (
    [(0,), (1,), (2,)],
    [(0,), (2,), (1,), (4,), (3,), (1,)],
    [(1, 1)] * 5,
    [(0, 0), (0, 0), (1, 0), (0, 1), (1, 0)],
    [(0, 0), (1, 1), (2, 2), (3, 3), (5, 5)],
    [(0, 0), (1, 2), (0, 0), (2, 4), (1, 2), (3, 1), (6, 2)],
    [(0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0),
     (1, 1, 0), (0, 0, 0)],
))

# (free, integral) generator rows, padded with zeros or cut to the dimension
MODULES = (
    ([(1,)], [(0, 1), (1, 1)]),
    ([(0,), (2,), (4,)], [(0, 2), (0, 4), (0,), (1, 6)]),
    ([(0,)], [(0,), (0, 0)]),
    ([], [(1, 1), (1, 1), (0, 2), (0, 2)]),
    ([(1, 2), (1, 2)], [(1,), (2, 1), (0, 1)]),
    ([], [(1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 1, 2)]),
)


JOINED = ("padic:2", "padic:3", "ratfunc:3")


def _joined_families(selector: str, dim: int) -> list:
    s = Sampler(Field.from_selector(selector), dim)
    rng = random.Random(dim)
    fams = []
    for _ in range(6):
        first, _ = s.common_point_family(rng.randint(1, 4), dim)
        second, _ = s.common_point_family(rng.randint(1, 4), dim)
        fams.append([convex_to_json(m) for m in first.members + second.members])
    return fams


def _module_sets(dim: int) -> list:
    def row(xs):
        return [str(x) for x in (list(xs) + [0] * dim)[:dim]]
    return [{"translate": row([Fraction(k, 2), 0, 1]), "free": [row(v) for v in free],
             "integral": [row(v) for v in integral]}
            for k, (free, integral) in enumerate(MODULES)]


def calls():
    """(argv, stdin text) of every report, in a fixed order."""
    for workload in payloads.WORKLOADS:
        for seed in SEEDS:
            for req in payloads.requests(workload, seed):
                field, pl = ["--field", req["field"], "--json"], req["payload"]
                if req["op"] in ("equals", "subset"):
                    yield ["intersect", *field], pl
                    for side in (pl["first"], pl["second"]):
                        yield ["flag", *field], {"set": side}
                        yield ["box", *field], {"set": side}
                else:
                    yield [req["op"], *field], pl
    for seed in (0, 7):
        for field, trials in VERIFY:
            yield ["verify", "--field", field, "--seed", str(seed),
                   "--trials", str(trials), "--json"], None
    for name in ("helly", "breadth", "frachelly"):
        for dim in (1, 2, 3):
            for field, _ in VERIFY:
                yield ["witness", name, "--dim", str(dim), "--field", field, "--json"], None
    yield ["witness", "counterexample", "--json"], None
    field = ["--field", "padic:2", "--json"]
    for fam in DESIGNED:
        yield ["pierce", *field], {"family": fam}
        yield ["helly", *field], {"family": fam}
        for k in (1, 2, 3):
            yield ["frachelly", *field], {"family": fam, "k": k}
    for field, _ in VERIFY:
        for pts in DEGENERATE:
            yield ["radon", "--field", field, "--json"], {"points": pts}
            yield ["caratheodory", "--field", field, "--json"], {"points": pts}
            for r in (2, 3):
                yield ["tverberg", "--field", field, "--json"], {"points": pts, "r": r}
    for field, _ in VERIFY:
        args = ["--field", field, "--json"]
        for dim in (2, 3):
            sets = _module_sets(dim)
            for cset in sets:
                yield ["flag", *args], {"set": cset}
                yield ["box", *args], {"set": cset}
                for point in (["0"] * dim, ["1/2"] * dim, ["1", "2", "4"][:dim]):
                    yield ["member", *args], {"set": cset, "point": point}
            for first in sets:
                for second in sets:
                    yield ["intersect", *args], {"first": first, "second": second}
    for field, _ in VERIFY:
        args = ["--field", field, "--json"]
        yield ["flag", *args], {"set": {"empty": True, "dim": 2}}
        yield ["box", *args], {"set": {"empty": True, "dim": 2}}
        for pts in DEGENERATE:
            yield ["tvcount", *args], {"points": pts, "r": 1}
    for field in JOINED:
        args = ["--field", field, "--json"]
        for dim in (1, 2):
            for fam in _joined_families(field, dim):
                yield ["pierce", *args], {"family": fam}
                for k in (1, 2, 3):
                    yield ["frachelly", *args], {"family": fam, "k": k}


def digest() -> str:
    h = hashlib.sha256()
    count = 0
    for argv, payload in calls():
        stdin = io.StringIO("" if payload is None else json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv, stdin=stdin, stdout=out)
        h.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
        count += 1
    return f"{count} {h.hexdigest()}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="FILE",
                    help="compare with the digest on the first line of FILE")
    args = ap.parse_args()
    line = digest()
    print(line)
    if args.check:
        expected = Path(args.check).read_text().splitlines()[0].strip()
        if line != expected:
            print(f"report digest changed: expected {expected}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
