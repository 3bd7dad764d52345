#!/usr/bin/env python3
"""ultraconv benchmark: four workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload sets-padic --seed 1 --seconds 30 --trace 0

A run repeats whole rounds of one fixed, seeded request list until
``--seconds`` have passed since it started.  Every round's set-up imports
``ultraconv.cli`` afresh, builds its argument parser and decodes every
payload of the list; then the requests run one after another on one
thread.  An untimed first round
warms the bytecode and file caches; its reports are checked against the
oracles in ``oracles.py``, and every later round must reproduce them
exactly.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1``
untraced and traced rounds alternate and the metrics are the per-layer
totals of one round (see ``spans.py``).  ``--workload all`` runs each
workload in its own process.
"""
from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import oracles
import payloads
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

clock = time.perf_counter


# ---------------------------------------------------------------------------
# the program, freshly imported each round

class Program:
    """One fresh import of ultraconv.cli and its argument parser: the
    start-up every CLI request pays before decoding its payload."""

    def __init__(self, tracer=None):
        for name in [n for n in sys.modules if n == "ultraconv" or n.startswith("ultraconv.")]:
            del sys.modules[name]
        t0 = clock()
        importlib.import_module("ultraconv.cli")
        self.import_s = clock() - t0
        self.modules = {n: m for n, m in sys.modules.items()
                        if n == "ultraconv" or n.startswith("ultraconv.")}
        if tracer is not None:
            tracer.import_s = self.import_s
            spans.install(tracer, self.modules)
        for layer in spans.LAYERS:
            setattr(self, layer, self.modules[f"ultraconv.{layer}"])
        self.cli.build_parser()
        self._fields = {}
        self._sets = {}

    def field_for(self, selector: str):
        if selector not in self._fields:
            self._fields[selector] = self.modules["ultraconv.field"].Field.from_selector(selector)
        return self._fields[selector]

    def cset(self, F, data):
        """Decode a set once per round; requests probing it share the object."""
        key = (F.selector, json.dumps(data, sort_keys=True))
        if key not in self._sets:
            self._sets[key] = self.serialize.convex_from_json(F, data)
        return self._sets[key]

    def decode(self, req):
        """The library arguments of one request, decoded as the CLI would."""
        S, F, pl, op = self.serialize, self.field_for(req["field"]), req["payload"], req["op"]
        if op in ("hull", "radon", "caratheodory", "shatter", "selection"):
            return (S.points_from_json(F, pl["points"]),)
        if op in ("tverberg", "tvcount"):
            return S.points_from_json(F, pl["points"]), pl["r"]
        if op == "member":
            return self.cset(F, pl["set"]), S.vector_from_json(F, pl["point"])
        if op in ("intersect", "equals", "subset"):
            return self.cset(F, pl["first"]), self.cset(F, pl["second"])
        if op in ("flag", "box"):
            return (self.cset(F, pl["set"]),)
        if op in ("helly", "breadth", "pierce"):
            return (S.family_from_json(F, pl["family"]),)
        if op == "frachelly":
            return S.family_from_json(F, pl["family"]), pl["k"]
        if op == "atoms":
            return S.family_from_json(F, pl["family"]), S.points_from_json(F, pl["probes"])
        raise ValueError(f"no in-process form for {op!r}")

    def run(self, op: str, *args):
        """One request in process: the library call, then the report the CLI
        would print for it (``equals`` and ``subset`` have no CLI op)."""
        S, C, K = self.serialize, self.convex, self.combinatorics
        if op == "hull":
            return S.convex_to_json(C.conv_hull(*args))
        if op == "member":
            cset, x = args
            return {"member": cset.contains(x)}
        if op == "intersect":
            return S.convex_to_json(C.intersect(*args))
        if op == "equals":
            return {"equals": C.equals(*args)}
        if op == "subset":
            return {"subset": C.subset(*args)}
        if op == "flag":
            return S.flag_to_json(args[0].translate, C.flag_decompose(args[0]))
        if op == "radon":
            return S.radon_to_json(C.radon_point(*args))
        if op == "tvcount":
            pts, r = args
            count = K.count_tverberg_partitions(pts, r)
            floor = math.factorial(r - 1) ** pts[0].dim
            return {"count": count, "conjecturedFloor": floor, "meetsFloor": count >= floor}
        if op == "frachelly":
            alpha, beta = K.fractional_helly_stats(*args)
            return {"alpha": str(alpha), "beta": str(beta)}
        if op == "selection":
            point, count, total = K.selection_point(*args)
            return {"point": S.vector_to_json(point), "count": count, "total": total}
        if op == "shatter":
            return S.shatter_to_json(K.is_shattered(*args))
        if op == "breadth":
            return {"indices": K.breadth_reduce(*args)}
        if op == "helly":
            point = K.helly_point(*args)
            return {"point": None if point is None else S.vector_to_json(point)}
        if op == "pierce":
            return {"points": [S.vector_to_json(p) for p in K.pierce(*args)]}
        raise ValueError(f"no in-process form for {op!r}")


@dataclass
class Round:
    """Timings and reports of one pass over the request list."""

    setup_s: float
    ops_s: float
    latencies: array.array
    reports: Optional[list]
    wall: float
    totals: Optional[dict] = None


def in_process_round(reqs, traced: bool) -> Round:
    gc.collect()
    tracer = spans.Tracer() if traced else None
    t0 = clock()
    prog = Program(tracer)
    args = [prog.decode(r) for r in reqs]
    setup_s = clock() - t0
    reports, latencies = [], array.array("d")
    t1 = clock()
    for req, a in zip(reqs, args):
        if tracer:
            tracer.begin_op()
        ts = clock()
        try:
            report = prog.run(req["op"], *a)
        except Exception as exc:  # a failed request is counted, not fatal
            report = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - ts)
        reports.append(report)
    t2 = clock()
    return Round(setup_s, t2 - t1, latencies, reports, t2 - t0,
                 tracer.totals() if tracer else None)


TRACE_MARK = "perfbench-trace "
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def cli_round(reqs, traced: bool) -> Round:
    """Set-up decodes every payload in process, as each child will; then one
    ``python -m ultraconv.cli`` child per request, one at a time."""
    gc.collect()
    t0 = clock()
    prog = Program()
    for r in reqs:
        try:
            prog.decode(r)
        except ValueError:
            pass  # the child reports the same payload error
    setup_s = clock() - t0
    entry = [str(HERE / "tracechild.py")] if traced else ["-m", "ultraconv.cli"]
    reports, latencies, totals = [], array.array("d"), None
    t1 = clock()
    for req in reqs:
        cmd = [sys.executable, *entry, req["op"], "--field", req["field"], "--json"]
        ts = clock()
        proc = subprocess.run(cmd, input=json.dumps(req["payload"]), capture_output=True,
                              text=True, env=CHILD_ENV, cwd=ROOT, timeout=120)
        latencies.append(clock() - ts)
        if proc.returncode == 0:
            reports.append(json.loads(proc.stdout))
        else:
            first_line = (proc.stderr.strip().splitlines() or [""])[0]
            reports.append({"error": f"exit {proc.returncode}: {first_line}"})
        if traced:
            line = next((l for l in proc.stderr.splitlines() if l.startswith(TRACE_MARK)), None)
            if line is None:
                raise RuntimeError(f"traced {req['op']} child wrote no totals: {proc.stderr[-500:]}")
            child = json.loads(line[len(TRACE_MARK):])
            totals = child if totals is None else spans.add_totals(totals, child)
    t2 = clock()
    return Round(setup_s, t2 - t1, latencies, reports, t2 - t0, totals)


# ---------------------------------------------------------------------------
# checking

def check_first(reqs, reports) -> list:
    """Reasons the first round's reports are wrong; a failure is wrong
    unless it is the one known fault the request names."""
    problems = []
    for i, (req, rep) in enumerate(zip(reqs, reports)):
        if "error" in rep:
            if "known_fault" not in req:
                problems.append(f"request {i} ({req['op']}) failed: {rep['error']}")
            continue
        reason = oracles.check(req, rep)
        if reason:
            problems.append(f"request {i} ({req['op']}): {reason}")
    return problems


# ---------------------------------------------------------------------------
# a run

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = clock() + seconds
    reqs = payloads.requests(workload, seed)
    one_round = cli_round if workload == "cli-process" else in_process_round
    first = one_round(reqs, False)
    problems = check_first(reqs, first.reports)
    plain, traced, failed, differ = [], [], 0, False
    while True:
        for kind in (plain, traced) if trace else (plain,):
            r = one_round(reqs, kind is traced)
            failed += sum("error" in rep for rep in r.reports)
            differ = differ or r.reports != first.reports
            r.reports = None  # memory stays flat however many rounds run
            kind.append(r)
        if clock() >= deadline:
            break
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload == "cli-process" else resource.RUSAGE_SELF).ru_maxrss / 1024
    if differ:
        problems.append("a later round's reports differ from the first round's")
    attempted = len(reqs) * (len(plain) + len(traced))
    if trace:
        per_round = [spans.metrics(r.totals) for r in traced]
        counts = [{k: v for k, v in m.items() if k not in spans.TIMES} for m in per_round]
        if any(c != counts[0] for c in counts):
            problems.append("per-layer counts differ between traced rounds")
        values = dict(counts[0])
        values.update({k: statistics.median([m[k] for m in per_round]) for k in spans.TIMES})
        values["trace.overhead_ratio"] = (statistics.median([r.wall for r in traced])
                                          / statistics.median([r.wall for r in plain]))
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in sorted(values.items())}
    else:
        lat = sorted(x for r in plain for x in r.latencies)
        metrics = {
            "setup_s": {"value": statistics.median([r.setup_s for r in plain]), "unit": "s"},
            "ops_per_s": {"value": statistics.median([len(reqs) / r.ops_s for r in plain]), "unit": "ops/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        }
        if len(lat) >= 100:  # at least ten samples beyond the 90th percentile
            metrics["op_p90_ms"] = {"value": 1000 * statistics.quantiles(lat, n=10)[-1], "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    for p in problems[:10]:
        print(f"check: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=payloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ultraconv" / "__init__.py").is_file():
        print(f"run.py: no ultraconv sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for w in payloads.WORKLOADS:
            print(f"== {w}", flush=True)
            cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']}"
          f" correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
