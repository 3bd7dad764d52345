"""Gate on the benchmark's work counters, which do not jitter as seconds do.

For each workload in the newest ``BENCH_<n>.json`` at the repository root,
runs

    python3 perfbench/run.py --workload <w> --seed 11 --seconds 1 --trace 1

and compares every ``*_calls`` and ``*_builds`` count of its JSON line with
that file's ``workloads[<w>].traced``.  Exits 1 when a count is above its
baseline or missing, 0 otherwise; a count below its baseline is printed as
a note.  Run from the repository root:

    python3 tools/check_counts.py

The tool reads ``perfbench/`` and the BENCH file and writes nothing.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


def newest_bench() -> Path:
    found = {int(m.group(1)): p for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))}
    if not found:
        raise SystemExit("check_counts: no BENCH_<n>.json at the repository root")
    return found[max(found)]


def is_count(name: str) -> bool:
    return name.endswith(("_calls", "_builds"))


def traced_counts(workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if is_count(k)}


def main() -> int:
    bench = newest_bench()
    workloads = json.loads(bench.read_text())["workloads"]
    worse = 0
    for workload, entry in workloads.items():
        base = {k: m["value"] for k, m in entry["traced"].items() if is_count(k)}
        got = traced_counts(workload)
        for name in sorted(base):
            now = got.get(name)
            if now is None or now > base[name]:
                worse += 1
                print(f"{workload} {name}: {now} above {bench.name}'s {base[name]}")
            elif now < base[name]:
                print(f"{workload} {name}: {now} below {bench.name}'s {base[name]}")
        print(f"{workload}: {len(base)} counts checked against {bench.name}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
