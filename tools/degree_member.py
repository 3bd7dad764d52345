"""Print a designed ``member`` payload over ratfunc:0 whose entries have
degree about 200, to time membership on large polynomial entries:

    python3 tools/degree_member.py inside | ultraconv member --field ratfunc:0 --json

The set is t0 + O*g1 + O*g2 in dimension 2.  Every entry of t0, g1 and g2
is a ratio of two seeded random integer polynomials of degree 200 with its
own denominator.  ``inside`` prints the point t0 + (1 + t)*g1 - g2, which
the set contains; ``outside`` prints t0 + g1 + g2/t, which it does not.
Run from the repository root; the script writes only to stdout.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ultraconv.field import Field  # noqa: E402
from ultraconv.linalg import Vector  # noqa: E402
from ultraconv.serialize import vector_to_json  # noqa: E402

DEGREE = 200


def main() -> int:
    if sys.argv[1:] not in (["inside"], ["outside"]):
        print("usage: degree_member.py inside|outside", file=sys.stderr)
        return 2
    f = Field.ratfunc(0)
    rng = random.Random(200)

    def entry():
        num = [rng.randint(-9, 9) for _ in range(DEGREE)] + [rng.randint(1, 9)]
        den = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(DEGREE - 1)] + [1]
        return f.ratio(num, den)

    t0, g1, g2 = (Vector(f, [entry(), entry()]) for _ in range(3))
    t = f.uniformizer()
    if sys.argv[1] == "inside":
        point = t0 + g1.scale(1 + t) - g2
    else:
        point = t0 + g1 + g2.scale(t.inverse())
    payload = {"set": {"translate": vector_to_json(t0), "free": [],
                       "integral": [vector_to_json(g1), vector_to_json(g2)]},
               "point": vector_to_json(point)}
    json.dump(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
