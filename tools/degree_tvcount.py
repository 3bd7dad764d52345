"""Print a designed ``tvcount`` payload over ratfunc:0 whose entries are
rational functions of numerator degree 20 and denominator degree 10, to
time the Tverberg count on large polynomial entries:

    python3 tools/degree_tvcount.py | ultraconv tvcount --field ratfunc:0 --json

The payload holds seven points in dimension 2 and r = 3, so the count
decides S(7, 3) = 301 partitions.  Every entry is a ratio of two seeded
random integer polynomials with its own denominator, whose constant term
is nonzero.  Run from the repository root; the script writes only to
stdout.
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

NUM_DEGREE, DEN_DEGREE = 20, 10


def main() -> int:
    if sys.argv[1:]:
        print("usage: degree_tvcount.py", file=sys.stderr)
        return 2
    f = Field.ratfunc(0)
    rng = random.Random(20)

    def entry():
        num = [rng.randint(-9, 9) for _ in range(NUM_DEGREE)] + [rng.randint(1, 9)]
        den = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(DEN_DEGREE - 1)] + [1]
        return f.ratio(num, den)

    points = [Vector(f, [entry(), entry()]) for _ in range(7)]
    json.dump({"points": [vector_to_json(p) for p in points], "r": 3}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
