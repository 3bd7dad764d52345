"""The benchmark's own tests, in short mode (``--seconds 1``).

    python3 -m pytest -q perfbench
"""
import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import payloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, runner=None):
    runner = runner or str(HERE / "run.py")
    return subprocess.run([sys.executable, runner, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_two_generations_agree():
    env = dict(os.environ)
    outs = []
    for hashseed in ("1", "2"):
        env["PYTHONHASHSEED"] = hashseed
        outs.append(subprocess.run([sys.executable, "payloads.py", "--seed", "5"], cwd=HERE, env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1]
    assert all(payloads.digest(w, 5) != payloads.digest(w, 6) for w in payloads.WORKLOADS)


def test_generator_imports_nothing_from_ultraconv():
    code = ("import sys, payloads\n"
            "for w in payloads.WORKLOADS: payloads.requests(w, 0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ultraconv'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _first_round(workload, seed=1):
    sys.path.insert(0, str(ROOT / "src"))
    import run
    reqs = payloads.requests(workload, seed)
    one_round = run.cli_round if workload == "cli-process" else run.in_process_round
    return reqs, one_round(reqs, False).reports


def _spoil(req, rep):
    """A wrong answer to ``req`` made from the right one ``rep``."""
    rep = copy.deepcopy(rep)
    op, F = req["op"], oracles.field_for(req["field"])
    if op in ("member", "equals", "subset"):
        rep[op] = not rep[op]
    elif op == "radon":
        rep["coefficients"][0] = F.render(F.parse(rep["coefficients"][0]) + F.pi)
    elif op == "flag":
        last = rep["entries"][-1]
        last["vector"] = [F.render(F.parse(c) * F.pi) for c in last["vector"]]
    elif op == "helly":
        rep["point"] = None if rep["point"] else req["payload"]["family"][0]["translate"]
    elif op in ("hull", "intersect"):
        if "empty" in rep:
            return {"translate": req["payload"]["first"]["translate"], "free": [], "integral": []}
        if rep["integral"]:  # a hull must equal its module; an intersection must fit in both sets
            grow = F.pi if op == "hull" else 1 / F.pi
            rep["integral"][0] = [F.render(F.parse(c) * grow) for c in rep["integral"][0]]
        else:
            rep = {"empty": True}
    else:
        return None
    return rep


@pytest.mark.parametrize("workload", ["sets-padic", "sets-ratfunc0"])
def test_oracles_accept_right_and_reject_wrong_reports(workload):
    reqs, reports = _first_round(workload)
    spoiled = 0
    for req, rep in zip(reqs, reports):
        assert oracles.check(req, rep) is None, (req, rep)
        bad = _spoil(req, rep)
        if bad is not None:
            assert oracles.check(req, bad) is not None, (req, bad)
            spoiled += 1
    assert spoiled == len(reqs)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", payloads.WORKLOADS)
def test_short_run_prints_every_metric(workload):
    plain = _result(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert plain["correct"] and plain["attempted"] >= 1
    per_round = len(payloads.requests(workload, 3))
    expected_failed = plain["attempted"] // per_round if workload == "cli-process" else 0
    assert plain["failed"] == expected_failed
    names = {m["name"] for m in SPEC["end_to_end"]}
    if plain["attempted"] < 100:
        names.discard("op_p90_ms")
    assert set(plain["metrics"]) == names
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = _result(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_traced_counts_repeat_exactly():
    runs = [_result(bench("--workload", "search-padic", "--seed", "4", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] not in ("s", "ratio")}
              for r in runs]
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sets-padic", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, runner=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
