"""Time the two polynomial product paths of ``field._pmul`` against each
other, to place ``field._KRONECKER_MIN``, the shorter factor's length from
which Kronecker substitution is used instead of the schoolbook loop.

For coefficient sizes of 4, 16 and 36 bits (the sizes the ``sets-ratfunc0``
benchmark workload and the degree-200 ``member`` case of
``tools/degree_member.py`` multiply) and for factors of equal length and of
lengths 1:8, it times ``_pmul`` with the cutover forced to each side, best
of 5 repeats, and prints one JSON object: per case and length the two times
in microseconds and their ratio loop/Kronecker, and the smallest length
from which Kronecker won in every case.  Run from the repository root:

    python3 tools/pmul_cutover.py

It takes about 10 seconds and writes only to stdout.
"""
from __future__ import annotations

import json
import random
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ultraconv import field  # noqa: E402

LENGTHS = (2, 4, 6, 8, 10, 12, 16, 24, 32, 48, 64)


def best_us(a, b, cutover: int) -> float:
    field._KRONECKER_MIN = cutover
    number = max(20, 100_000 // (len(a) * len(b)))
    return min(timeit.repeat(lambda: field._pmul(a, b), number=number, repeat=5)) / number * 1e6


def main() -> int:
    kept = field._KRONECKER_MIN
    rng = random.Random(12)
    cases, wins_from = [], 0
    for bits in (4, 16, 36):
        for ratio in (1, 8):
            rows = []
            for n in LENGTHS:
                a = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(n - 1)] + [2 ** bits]
                b = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(n * ratio - 1)] + [-2 ** bits]
                loop, kron = best_us(a, b, len(a) + len(b)), best_us(a, b, 1)
                rows.append({"length": n, "loop_us": round(loop, 2), "kronecker_us": round(kron, 2),
                             "loop_over_kronecker": round(loop / kron, 2)})
            last_loss = max((r["length"] for r in rows if r["loop_over_kronecker"] < 1), default=0)
            wins_from = max(wins_from, min((n for n in LENGTHS if n > last_loss), default=0))
            cases.append({"bits": bits, "lengths": f"n x {ratio}n", "rows": rows})
    field._KRONECKER_MIN = kept
    json.dump({"kronecker_min": kept, "kronecker_wins_every_case_from": wins_from, "cases": cases},
              sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
