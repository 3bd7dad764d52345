"""Per-layer tracing installed on ultraconv from outside, after import.

``install`` replaces, on the freshly imported modules:

* every public function of ``field``, ``linalg``, ``convex``,
  ``combinatorics``, ``serialize`` and ``cli``, in every ultraconv module
  that binds it by name (``convex`` binds ``orthogonalize``,
  ``combinatorics`` binds ``conv_hull`` and ``intersect``, and so on);
* a few methods on their classes: ``LinearSolver.__init__``,
  ``ScaleSystem.__init__``/``solve_box``, ``MixedModule.__init__``,
  ``ConvexSet.contains``, ``Field.parse``, ``FieldElement.render`` and the
  ``FieldElement`` arithmetic operators.

Each call opens a span on a stack; the span below it is its parent.  When a
span closes, its duration minus the time its child spans covered is added to
its layer's self time, and its duration to its parent's child time.  Spans
are folded into these totals as they close rather than kept: a search
round opens thousands of them, besides the arithmetic.  Arithmetic spans are leaves and
take a shorter path.
"""
from __future__ import annotations

import inspect
import time
from collections import Counter
from typing import Any, Dict

LAYERS = ("field", "linalg", "convex", "combinatorics", "serialize", "cli")

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "inverse")

METHOD_COUNTERS = {
    ("field", "Field", "parse"): "field.parse_calls",
    ("field", "FieldElement", "render"): "field.render_calls",
    ("linalg", "LinearSolver", "__init__"): "linalg.solver_builds",
    ("linalg", "ScaleSystem", "__init__"): "linalg.scale_system_builds",
    ("linalg", "ScaleSystem", "solve_box"): "linalg.solve_box_calls",
    ("convex", "MixedModule", "__init__"): "convex.module_builds",
    ("convex", "ConvexSet", "contains"): "convex.contains_calls",
}

FUNCTION_COUNTERS = {
    ("linalg", "orthogonalize"): "linalg.orthogonalize_calls",
    ("convex", "conv_hull"): "convex.hull_calls",
    ("convex", "intersect"): "convex.intersect_calls",
    ("convex", "subset"): "convex.subset_calls",
}

COUNTERS = tuple(sorted(set(METHOD_COUNTERS.values()) | set(FUNCTION_COUNTERS.values())))


def payload_chars(obj, depth: int = 0) -> int:
    """Longest rendered field element inside a library result."""
    name = type(obj).__name__
    if name == "FieldElement":
        return len(obj.field.ops.render(obj.data))
    if depth > 5:
        return 0
    if name == "Vector":
        items = obj.coords
    elif name == "ConvexSet":
        items = () if obj.translate is None else (obj.translate, obj.module)
    elif name == "MixedModule":
        items = obj.free_gens + obj.integral_gens
    elif name == "OrthoBasis":
        items = obj.vectors
    elif name == "RadonCertificate":
        items = obj.coefficients
    elif name == "Family":
        items = obj.members
    elif isinstance(obj, (list, tuple)):
        items = obj
    else:
        return 0
    return max((payload_chars(i, depth + 1) for i in items), default=0)


class Tracer:
    """Per-layer totals of one traced round (or one traced CLI child)."""

    def __init__(self):
        self.stack: list = []  # open spans: [layer, seconds covered by children]
        self.calls: Counter = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.arith_calls = 0
        self.arith_s = 0.0
        self.inclusive = {"serialize.decode_s": 0.0, "serialize.encode_s": 0.0,
                          "cli.parser_build_s": 0.0}
        self._depth = Counter()
        self.import_s = 0.0
        self.ops = 0
        self.comb_hulls = 0
        self.comb_intersects = 0
        self.distinct_hulls = 0
        self._hulled: set = set()
        self.max_payload_chars = 0

    def begin_op(self) -> None:
        self.ops += 1
        self._hulled = set()

    def _enter_from_combinatorics(self, counter, args) -> None:
        if counter == "convex.hull_calls":
            self.comb_hulls += 1
            key = frozenset(map(id, args[0]))
            if key not in self._hulled:
                self._hulled.add(key)
                self.distinct_hulls += 1
        elif counter == "convex.intersect_calls":
            self.comb_intersects += 1

    def span(self, layer: str, fn, counter=None, inclusive=None, init=False):
        stack, clock, tracer = self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if counter:
                tracer.calls[counter] += 1
                if parent is not None and parent[0] == "combinatorics":
                    tracer._enter_from_combinatorics(counter, args)
            if inclusive:
                tracer._depth[inclusive] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                tracer.self_s[layer] += dur - frame[1]
                if inclusive:
                    tracer._depth[inclusive] -= 1
                    if not tracer._depth[inclusive]:
                        tracer.inclusive[inclusive] += dur
                if parent is not None:
                    parent[1] += dur
            if parent is None or parent[0] != layer:
                t1 = clock()
                chars = payload_chars(args[0] if init else result)
                if chars > tracer.max_payload_chars:
                    tracer.max_payload_chars = chars
                if parent is not None:
                    parent[1] += clock() - t1  # the measuring is nobody's self time
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def arith(self, fn):
        stack, clock, tracer = self.stack, time.perf_counter, self

        def traced(*args):
            t0 = clock()
            result = fn(*args)
            dur = clock() - t0
            tracer.arith_s += dur
            tracer.arith_calls += 1
            if stack:
                stack[-1][1] += dur
            return result

        return traced

    def totals(self) -> Dict[str, Any]:
        """Raw totals; ``metrics`` turns summed totals into reported values."""
        out: Dict[str, Any] = {c: self.calls[c] for c in COUNTERS}
        out.update({f"{layer}.self_s": s for layer, s in self.self_s.items()})
        out.update(self.inclusive)
        out.update({
            "field.arith_calls": self.arith_calls, "field.arith_self_s": self.arith_s,
            "cli.import_s": self.import_s, "ops": self.ops,
            "comb_hulls": self.comb_hulls, "comb_intersects": self.comb_intersects,
            "distinct_hulls": self.distinct_hulls, "field.max_payload_chars": self.max_payload_chars,
        })
        return out


def add_totals(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    return {k: max(a[k], b[k]) if k == "field.max_payload_chars" else a[k] + b[k] for k in a}


def _category(layer: str, name: str):
    if layer == "serialize":
        return "serialize.decode_s" if name.endswith("_from_json") else "serialize.encode_s"
    if (layer, name) == ("cli", "build_parser"):
        return "cli.parser_build_s"
    return None


def install(tracer: Tracer, modules: Dict[str, Any]) -> None:
    """Wrap the layer boundaries of freshly imported ultraconv modules
    (``modules`` maps dotted names to module objects)."""
    by_layer = {name.rpartition(".")[2]: m for name, m in modules.items()}
    wrapped = {}
    for layer in LAYERS:
        mod = by_layer[layer]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrapped[obj] = tracer.span(layer, obj, FUNCTION_COUNTERS.get((layer, name)),
                                           _category(layer, name))
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    for (layer, cls_name, meth), counter in METHOD_COUNTERS.items():
        cls = getattr(by_layer[layer], cls_name)
        setattr(cls, meth, tracer.span(layer, vars(cls)[meth], counter, init=meth == "__init__"))
    element = by_layer["field"].FieldElement
    for meth in ARITH:
        setattr(element, meth, tracer.arith(vars(element)[meth]))


def metrics(t: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one round from its summed totals."""
    out = {k: t[k] for k in COUNTERS}
    for k in ("field.arith_calls", "field.arith_self_s", "field.max_payload_chars",
              "serialize.decode_s", "serialize.encode_s", "cli.parser_build_s", "cli.import_s"):
        out[k] = t[k]
    for layer in ("linalg", "convex", "combinatorics", "cli"):
        out[f"{layer}.self_s"] = t[f"{layer}.self_s"]
    ops = max(t["ops"], 1)
    out["combinatorics.hull_calls_per_op"] = t["comb_hulls"] / ops
    out["combinatorics.intersect_calls_per_op"] = t["comb_intersects"] / ops
    out["combinatorics.hull_distinct_ratio"] = (
        t["distinct_hulls"] / t["comb_hulls"] if t["comb_hulls"] else 0.0)
    return out


UNITS = {
    "field.arith_self_s": "s", "linalg.self_s": "s", "convex.self_s": "s",
    "combinatorics.self_s": "s", "serialize.decode_s": "s", "serialize.encode_s": "s",
    "cli.parser_build_s": "s", "cli.import_s": "s", "cli.self_s": "s",
    "field.max_payload_chars": "chars", "combinatorics.hull_distinct_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

TIMES = tuple(k for k, u in UNITS.items() if u == "s")


def unit(name: str) -> str:
    return UNITS.get(name, "count")
