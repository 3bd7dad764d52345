"""JSON encoding and decoding for the geometric types.

Field elements travel as grammar strings, vectors as string arrays.  A
convex set is ``{"translate": [...], "free": [[...]], "integral": [[...]]}``
or ``{"empty": true, "dim": d}``; families are arrays of convex sets.
Rendering is normalized for determinism only (generator lists sorted
lexicographically); set equality is never textual.
"""
from __future__ import annotations

from typing import Any, Dict, List, Optional

from .combinatorics import Family, ShatterReport, TverbergPartition
from .convex import (
    FULL,
    ONLY_INFINITY,
    BoxPresentation,
    ConvexSet,
    FlagForm,
    MixedModule,
    RadonCertificate,
)
from .field import Field
from .linalg import Vector


class PayloadError(ValueError):
    """Malformed JSON payload."""


def vector_to_json(v: Vector) -> List[str]:
    return v.render()


def vector_from_json(field: Field, data: Any) -> Vector:
    if not isinstance(data, list) or not data:
        raise PayloadError("a vector must be a nonempty array of element strings")
    out = []
    for s in data:
        if not isinstance(s, str):
            raise PayloadError("vector entries must be strings")
        out.append(field.parse(s))
    return Vector(field, out)


def points_from_json(field: Field, data: Any) -> List[Vector]:
    if not isinstance(data, list):
        raise PayloadError("expected an array of points")
    pts = [vector_from_json(field, p) for p in data]
    dims = {p.dim for p in pts}
    if len(dims) > 1:
        raise PayloadError("points of unequal dimension")
    return pts


def convex_to_json(c: ConvexSet) -> Dict[str, Any]:
    if c.is_empty:
        return {"empty": True}
    free = sorted([g.render() for g in c.module.free_gens])
    integral = sorted([g.render() for g in c.module.integral_gens])
    return {
        "translate": c.translate.render(),
        "free": free,
        "integral": integral,
    }


def _is_empty(data: Dict[str, Any]) -> bool:
    """Whether a set payload is the empty set; ``empty`` must be a JSON
    boolean when present."""
    flag = data.get("empty", False)
    if not isinstance(flag, bool):
        raise PayloadError(f"'empty' must be true or false, got {flag!r}")
    return flag


def convex_from_json(field: Field, data: Any, dim: Optional[int] = None) -> ConvexSet:
    if not isinstance(data, dict):
        raise PayloadError("a convex set must be a JSON object")
    if _is_empty(data):
        d = data.get("dim", dim)
        if d is None:
            raise PayloadError("empty set needs an ambient dimension from context")
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise PayloadError(f"'dim' must be a positive integer, got {d!r}")
        return ConvexSet.empty(field, d)
    if "translate" not in data:
        raise PayloadError("a nonempty convex set needs a translate")
    translate = vector_from_json(field, data["translate"])
    free = [vector_from_json(field, v) for v in data.get("free", [])]
    integral = [vector_from_json(field, v) for v in data.get("integral", [])]
    module = MixedModule(field, translate.dim, free, integral)
    return ConvexSet.of(translate, module)


def family_to_json(fam: Family) -> List[Dict[str, Any]]:
    return [convex_to_json(m) for m in fam.members]


def _stated_dim(data: Any) -> Any:
    """The dimension a set payload states, if any: the length of a nonempty
    set's translate, or an empty set's ``dim``."""
    if not isinstance(data, dict):
        return None
    if _is_empty(data):
        return data.get("dim")
    translate = data.get("translate")
    return len(translate) if isinstance(translate, list) else None


def family_from_json(field: Field, data: Any) -> Family:
    """A family whose dimension is the first one a member states; empty
    members that state none take it."""
    if not isinstance(data, list):
        raise PayloadError("a family must be an array of convex sets")
    dim = next((d for d in map(_stated_dim, data) if d is not None), None)
    if dim is None:
        raise PayloadError("cannot infer the ambient dimension of the family")
    return Family(field, dim, [convex_from_json(field, item, dim) for item in data])


def _delta_to_json(delta) -> Any:
    if delta == FULL:
        return "full"
    if delta == ONLY_INFINITY:
        return "onlyInfinity"
    return {"atLeast": delta}


def flag_to_json(translate: Vector, flag: FlagForm) -> Dict[str, Any]:
    return {
        "translate": translate.render(),
        "entries": [
            {"vector": v.render(), "delta": _delta_to_json(delta)}
            for v, delta in flag.entries
        ],
    }


def box_to_json(box: BoxPresentation) -> Dict[str, Any]:
    return {
        "matrix": box.matrix.render(),
        "translate": box.translate.render(),
        "deltas": [_delta_to_json(d) for d in box.deltas],
    }


def radon_to_json(cert: RadonCertificate) -> Dict[str, Any]:
    return {
        "index": cert.index,
        "coefficients": [c.render() for c in cert.coefficients],
    }


def tverberg_to_json(part: TverbergPartition) -> Dict[str, Any]:
    return {
        "partIndices": [list(b) for b in part.part_indices],
        "parts": [[p.render() for p in block] for block in part.parts],
    }


def shatter_to_json(report: ShatterReport) -> Dict[str, Any]:
    out: Dict[str, Any] = {"shattered": report.shattered}
    if not report.shattered:
        out["failingSubset"] = list(report.failing_subset)
        out["violator"] = report.violator
    return out
