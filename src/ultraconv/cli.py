"""Batch command-line interface.

One operation per invocation: geometry arrives as a JSON payload on
stdin, the report leaves as JSON on stdout.  Reports are deterministic
for a fixed field, seed, and payload: keys are sorted and generator
lists are rendered in sorted order.  Exit status: 0 for success, 1 when
an asserted property fails to hold, 2 for usage or parse errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, List, Optional

from .field import MAX_DIGITS, Field
from .convex import (
    TooFewPointsError,
    box_presentation,
    caratheodory_indices,
    conv_hull,
    equals,
    flag_decompose,
    intersect,
    radon_point,
    validate_radon,
)
from .combinatorics import (
    EmptyIntersectionError,
    breadth_reduce,
    coordinate_hyperplanes,
    count_tverberg_partitions,
    dual_atoms,
    fractional_helly_stats,
    helly_lower_bound_witness,
    helly_point,
    hyperplane_family,
    is_shattered,
    pierce,
    selection_point,
    tverberg_partition,
    validate_tverberg,
)
from .serialize import (
    PayloadError,
    box_to_json,
    convex_from_json,
    convex_to_json,
    family_from_json,
    family_to_json,
    flag_to_json,
    points_from_json,
    radon_to_json,
    shatter_to_json,
    tverberg_to_json,
    vector_from_json,
    vector_to_json,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

WITNESS_NAMES = ("helly", "breadth", "frachelly", "counterexample")


class ViolationError(Exception):
    """A checked property failed to hold for the given scenario."""


def _read_payload(stdin) -> Any:
    text = stdin.read()
    if not text.strip():
        raise PayloadError("expected a JSON payload on stdin")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PayloadError(f"stdin is not valid JSON: {exc}") from exc
    except RecursionError:
        raise PayloadError("stdin JSON nests too deeply") from None


def _need(payload: Any, key: str) -> Any:
    if not isinstance(payload, dict):
        raise PayloadError("payload must be a JSON object")
    if key not in payload:
        raise PayloadError(f"payload is missing the {key!r} key")
    return payload[key]


def _int_arg(payload: Any, key: str, minimum: int) -> int:
    value = _need(payload, key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise PayloadError(f"{key!r} must be an integer >= {minimum}")
    return value


# ---------------------------------------------------------------------------
# operation handlers: (field, payload) -> report dict

def _nonempty_points(field: Field, payload: Any) -> list:
    pts = points_from_json(field, _need(payload, "points"))
    if not pts:
        raise TooFewPointsError("no points given")
    return pts


def _op_hull(field: Field, payload: Any) -> Dict[str, Any]:
    return convex_to_json(conv_hull(_nonempty_points(field, payload)))


def _op_member(field: Field, payload: Any) -> Dict[str, Any]:
    cset = convex_from_json(field, _need(payload, "set"))
    point = vector_from_json(field, _need(payload, "point"))
    return {"member": cset.contains(point)}


def _op_intersect(field: Field, payload: Any) -> Dict[str, Any]:
    first = convex_from_json(field, _need(payload, "first"))
    second = convex_from_json(field, _need(payload, "second"), dim=first.dim)
    return convex_to_json(intersect(first, second))


def _op_flag(field: Field, payload: Any) -> Dict[str, Any]:
    cset = convex_from_json(field, _need(payload, "set"))
    if cset.is_empty:
        raise PayloadError("the empty set has no flag decomposition")
    return flag_to_json(cset.translate, flag_decompose(cset))


def _op_box(field: Field, payload: Any) -> Dict[str, Any]:
    cset = convex_from_json(field, _need(payload, "set"))
    if cset.is_empty:
        raise PayloadError("the empty set has no box presentation")
    return box_to_json(box_presentation(cset))


def _op_radon(field: Field, payload: Any) -> Dict[str, Any]:
    pts = points_from_json(field, _need(payload, "points"))
    cert = radon_point(pts)
    if not validate_radon(pts, cert):
        raise ViolationError("emitted certificate failed re-validation")
    return radon_to_json(cert)


def _op_caratheodory(field: Field, payload: Any) -> Dict[str, Any]:
    pts = _nonempty_points(field, payload)
    idx = caratheodory_indices(pts)
    kept = [pts[i] for i in idx]
    if not equals(conv_hull(kept), conv_hull(pts)):
        raise ViolationError("reduced point set changed the hull")
    return {"indices": idx, "points": [vector_to_json(p) for p in kept]}


def _op_tverberg(field: Field, payload: Any) -> Dict[str, Any]:
    pts = points_from_json(field, _need(payload, "points"))
    r = _int_arg(payload, "r", 1)
    part = tverberg_partition(pts, r)
    if not validate_tverberg(pts, part, r):
        raise ViolationError("emitted partition failed re-validation")
    return tverberg_to_json(part)


def _op_tvcount(field: Field, payload: Any) -> Dict[str, Any]:
    pts = _nonempty_points(field, payload)
    r = _int_arg(payload, "r", 1)
    d = pts[0].dim
    # the floor ((r-1)!)^d is printed whole, so it may have at most
    # MAX_DIGITS digits.  lgamma(r) = ln((r-1)!) refuses far longer floors
    # before any factorial is computed; capping r at MAX_DIGITS keeps it a
    # float and still refuses every larger r when d >= 1
    too_long = d * math.lgamma(min(r, MAX_DIGITS)) > (MAX_DIGITS + 1) * math.log(10)
    bound = 0 if too_long else math.factorial(r - 1) ** d
    if too_long or bound >= 10 ** MAX_DIGITS:
        raise PayloadError(f"'r' is too large: the conjectured floor ((r-1)!)^{d} "
                           f"would have more than MAX_DIGITS = {MAX_DIGITS} digits")
    count = count_tverberg_partitions(pts, r)
    return {"count": count, "conjecturedFloor": bound, "meetsFloor": count >= bound}


def _op_helly(field: Field, payload: Any) -> Dict[str, Any]:
    fam = family_from_json(field, _need(payload, "family"))
    point = helly_point(fam)
    return {"point": None if point is None else vector_to_json(point)}


def _op_breadth(field: Field, payload: Any) -> Dict[str, Any]:
    fam = family_from_json(field, _need(payload, "family"))
    return {"indices": breadth_reduce(fam)}


def _op_shatter(field: Field, payload: Any) -> Dict[str, Any]:
    pts = points_from_json(field, _need(payload, "points"))
    return shatter_to_json(is_shattered(pts))


def _op_atoms(field: Field, payload: Any) -> Dict[str, Any]:
    fam = family_from_json(field, _need(payload, "family"))
    probes = points_from_json(field, _need(payload, "probes"))
    return {"atoms": dual_atoms(fam, probes)}


def _op_selection(field: Field, payload: Any) -> Dict[str, Any]:
    pts = points_from_json(field, _need(payload, "points"))
    point, count, total = selection_point(pts)
    return {"point": vector_to_json(point), "count": count, "total": total}


def _op_frachelly(field: Field, payload: Any) -> Dict[str, Any]:
    fam = family_from_json(field, _need(payload, "family"))
    k = _int_arg(payload, "k", 1)
    alpha, beta = fractional_helly_stats(fam, k)
    return {"alpha": str(alpha), "beta": str(beta)}


def _op_pierce(field: Field, payload: Any) -> Dict[str, Any]:
    fam = family_from_json(field, _need(payload, "family"))
    pts = pierce(fam)
    return {"points": [vector_to_json(p) for p in pts]}


# name -> (handler, help text); build_parser adds one subcommand per entry
PAYLOAD_OPS = {
    "hull": (_op_hull, 'hull of a point list; stdin {"points": [[...], ...]}'),
    "member": (_op_member, 'point membership; stdin {"set": {...}, "point": [...]}'),
    "intersect": (_op_intersect, 'intersection; stdin {"first": {...}, "second": {...}}'),
    "flag": (_op_flag, 'flag decomposition; stdin {"set": {...}}'),
    "box": (_op_box, 'box presentation; stdin {"set": {...}}'),
    "radon": (_op_radon, 'partition certificate for d+2 points; stdin {"points": [...]}'),
    "caratheodory": (_op_caratheodory, 'reduce to at most d+1 points; stdin {"points": [...]}'),
    "tverberg": (_op_tverberg, 'nested-hull partition; stdin {"points": [...], "r": N}'),
    "tvcount": (_op_tvcount, 'count partitions with a common point; stdin {"points": [...], "r": N}'),
    "helly": (_op_helly, 'common point of a family; stdin {"family": [...]}'),
    "breadth": (_op_breadth, 'small subfamily with the same intersection; stdin {"family": [...]}'),
    "shatter": (_op_shatter, 'shattering test; stdin {"points": [...]}'),
    "atoms": (_op_atoms, 'distinct membership patterns; stdin {"family": [...], "probes": [...]}'),
    "selection": (_op_selection, 'most-covered input point; stdin {"points": [...]}'),
    "frachelly": (_op_frachelly, 'intersection statistics; stdin {"family": [...], "k": N}'),
    "pierce": (_op_pierce, 'greedy piercing points; stdin {"family": [...]}'),
}


# ---------------------------------------------------------------------------
# witness and verify

def _run_witness(field: Field, args) -> Dict[str, Any]:
    name = args.name
    d = args.dim
    if name == "helly":
        return {"family": family_to_json(helly_lower_bound_witness(field, d))}
    if name == "breadth":
        return {"family": family_to_json(coordinate_hyperplanes(field, d))}
    if name == "frachelly":
        return {"family": family_to_json(hyperplane_family(field, d, args.count))}
    if name == "counterexample":
        from .verify import check_two_term_counterexample, two_term_counterexample
        pts, weights, combo = two_term_counterexample()
        if not check_two_term_counterexample():
            raise ViolationError("the fixed counterexample no longer checks out")
        return {
            "fieldUsed": combo.field.selector,
            "points": [vector_to_json(p) for p in pts],
            "weights": [w.render() for w in weights],
            "combination": vector_to_json(combo),
        }
    raise PayloadError(f"unknown witness name {name!r}; choose from {WITNESS_NAMES}")


def _run_verify(field: Field, args) -> Dict[str, Any]:
    from .verify import run_suite
    results = run_suite(args.suite, field, args.seed, args.trials)
    report = {
        "suite": args.suite,
        "field": field.selector,
        "seed": args.seed,
        "trials": args.trials,
        "ok": all(r.ok for r in results),
        "results": [
            {
                "property": r.name,
                "trials": r.trials,
                "ok": r.ok,
                "failures": list(r.failures),
                "notes": list(r.notes),
            }
            for r in results
        ],
    }
    return report


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default="padic:2", metavar="SELECTOR",
                        help="field selector, padic:<p> or ratfunc:<char> (default padic:2)")
    common.add_argument("--json", action="store_true",
                        help="compact single-line JSON instead of indented")

    parser = argparse.ArgumentParser(
        prog="ultraconv",
        description="Exact convex geometry over valued fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_text) in PAYLOAD_OPS.items():
        sub.add_parser(name, parents=[common], help=help_text)

    w = sub.add_parser("witness", parents=[common],
                       help="emit a named construction (no stdin)")
    w.add_argument("name", choices=WITNESS_NAMES)
    w.add_argument("--dim", type=_positive_int, default=2, metavar="D",
                   help="ambient dimension (default 2)")
    w.add_argument("--count", type=_positive_int, default=6, metavar="N",
                   help="number of hyperplanes for the frachelly witness (default 6)")

    v = sub.add_parser("verify", parents=[common],
                       help="run the seeded property suites (no stdin)")
    v.add_argument("--suite", default="all",
                   choices=["all", "field", "linalg", "convex", "combinatorics"])
    v.add_argument("--seed", type=int, default=0, metavar="U64",
                   help="64-bit seed for the property samplers (default 0)")
    v.add_argument("--trials", type=_positive_int, default=100, metavar="N",
                   help="trial count per property (default 100)")
    return parser


def _emit(report: Dict[str, Any], compact: bool, stdout) -> None:
    if compact:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(report, sort_keys=True, indent=2)
    stdout.write(text + "\n")


def main(argv: Optional[List[str]] = None, stdin=None, stdout=None) -> int:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        field = Field.from_selector(args.field)
    except ValueError as exc:
        print(f"ultraconv: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "witness":
            report = _run_witness(field, args)
        elif args.command == "verify":
            report = _run_verify(field, args)
        else:
            payload = _read_payload(stdin)
            report = PAYLOAD_OPS[args.command][0](field, payload)
    # EmptyIntersectionError is a ValueError, so this clause comes first
    except (ViolationError, EmptyIntersectionError) as exc:
        print(f"ultraconv: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"ultraconv: {exc}", file=sys.stderr)
        return EXIT_USAGE

    _emit(report, args.json, stdout)
    if args.command == "verify" and not report["ok"]:
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
