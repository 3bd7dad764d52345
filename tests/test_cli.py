"""Command-line interface: exit codes, JSON shapes, determinism."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import ultraconv
from ultraconv import cli, combinatorics
from ultraconv.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main


def run(argv, stdin_text=""):
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


def _reject_constant(name):
    raise ValueError(f"report is not strict JSON: it holds {name}")


def run_json(argv, payload=None):
    """Exit code and parsed report; the report must be strict JSON (no
    NaN or Infinity)."""
    text = "" if payload is None else json.dumps(payload)
    code, out = run(argv, text)
    return code, (json.loads(out, parse_constant=_reject_constant) if out else None)


# ---------------------------------------------------------------------------
# golden outputs

def test_hull_golden_compact():
    code, out = run(["hull", "--json"],
                    '{"points": [["0","0"],["1","0"],["0","1"]]}')
    assert code == EXIT_OK
    assert out == ('{"free":[],"integral":[["0","1"],["1","0"]],'
                   '"translate":["0","0"]}\n')


def test_radon_golden():
    code, report = run_json(["radon", "--field", "padic:5"],
                            {"points": [["0"], ["1"], ["5"]]})
    assert code == EXIT_OK
    assert report == {"index": 0, "coefficients": ["5/4", "-1/4"]}


def test_witness_counterexample_golden():
    code, report = run_json(["witness", "counterexample"])
    assert code == EXIT_OK
    assert report == {
        "fieldUsed": "padic:2",
        "points": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "1"]],
        "weights": ["-1", "1", "1"],
        "combination": ["1", "1", "1"],
    }


def test_member_reports_boolean():
    cset = {"translate": ["0", "0"], "free": [],
            "integral": [["1", "0"], ["0", "1"]]}
    code, report = run_json(["member"], {"set": cset, "point": ["1", "1"]})
    assert code == EXIT_OK and report == {"member": True}
    code, report = run_json(["member"], {"set": cset, "point": ["1/2", "0"]})
    assert code == EXIT_OK and report == {"member": False}


def test_intersect_round_trips_through_json():
    ball = {"translate": ["0", "0"], "free": [],
            "integral": [["1", "0"], ["0", "1"]]}
    shifted = {"translate": ["1", "1"], "free": [],
               "integral": [["2", "0"], ["0", "2"]]}
    code, report = run_json(["intersect"], {"first": ball, "second": shifted})
    assert code == EXIT_OK
    assert report == {"translate": ["1", "1"], "free": [],
                      "integral": [["0", "2"], ["2", "0"]]}


def test_flag_and_box_of_same_set_agree_on_weights():
    cset = {"translate": ["0", "0"], "free": [],
            "integral": [["1", "0"], ["3", "3"]]}
    code, flag = run_json(["flag", "--field", "padic:3"], {"set": cset})
    assert code == EXIT_OK
    code, box = run_json(["box", "--field", "padic:3"], {"set": cset})
    assert code == EXIT_OK
    assert flag["entries"][0]["delta"] == {"atLeast": 0}
    assert flag["entries"][1]["delta"] == {"atLeast": 1}
    assert box["deltas"] == [{"atLeast": 0}, {"atLeast": 1}]


def test_tvcount_reports_conjecture_floor():
    code, report = run_json(["tvcount", "--field", "padic:5"],
                            {"points": [["0"], ["1"], ["5"]], "r": 2})
    assert code == EXIT_OK
    assert report == {"count": 2, "conjecturedFloor": 1, "meetsFloor": True}


def test_shatter_reports_violation():
    code, report = run_json(
        ["shatter"],
        {"points": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
    assert code == EXIT_OK
    assert report["shattered"] is False
    assert "failingSubset" in report and "violator" in report


def test_selection_and_frachelly_shapes():
    code, report = run_json(
        ["selection"],
        {"points": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
    assert code == EXIT_OK
    assert report["count"] == 4 and report["total"] == 4

    fam = [{"translate": ["0"], "free": [], "integral": [["2"]]},
           {"translate": ["0"], "free": [], "integral": [["4"]]}]
    code, report = run_json(["frachelly"], {"family": fam, "k": 2})
    assert code == EXIT_OK
    assert report == {"alpha": "1", "beta": "1"}


def test_verify_reports_per_property_lines():
    code, report = run_json(
        ["verify", "--suite", "field", "--seed", "7", "--trials", "10"])
    assert code == EXIT_OK
    assert report["ok"] is True
    names = [r["property"] for r in report["results"]]
    assert "val_multiplicative" in names and "parse_render_roundtrip" in names
    assert all(r["ok"] for r in report["results"])


SUITE_ORDER = [
    "val_multiplicative", "val_ultrametric", "canonical_idempotent", "parse_render_roundtrip",
    "solve_exactness", "ortho_valuation_identity", "ortho_gammas_sorted", "ortho_span_preserved",
    "gamma_multiset_invariance", "constrained_kernel_sound", "constrained_kernel_complete",
    "mixed_solve_correct", "hull_soundness", "hull_minimality", "radon_validates",
    "caratheodory_equality", "flag_membership_agreement", "intersect_oracle",
    "intersect_algebra", "translate_dichotomy", "min_gamma_is_min_valuation",
    "largest_inner_ball", "two_term_counterexample", "helly_positive", "helly_sharpness",
    "breadth_bound", "shatter_simplex", "no_shatter_oversized", "tverberg_valid",
    "dual_atoms_grid", "hyperplane_family_design", "selection_counts", "pierce_covers",
    "tverberg_count_conjecture",
]


def test_run_suite_names_and_counts_every_property():
    from ultraconv.field import Field
    from ultraconv.verify import run_suite
    results = run_suite("all", Field.padic(2), 0, 1)
    assert [r.name for r in results] == SUITE_ORDER
    fixed = {"helly_sharpness": 3, "shatter_simplex": 4}
    assert [r.trials for r in results] == [fixed.get(r.name, 1) for r in results]
    assert all(r.ok for r in results)


# ---------------------------------------------------------------------------
# determinism

def test_identical_invocations_are_byte_identical():
    argv = ["hull", "--field", "padic:3", "--json"]
    payload = '{"points": [["1","2"],["4","5"],["7","9"]]}'
    first = run(argv, payload)
    second = run(argv, payload)
    assert first == second

    v = ["verify", "--suite", "linalg", "--seed", "42", "--trials", "8", "--json"]
    assert run(v) == run(v)


def test_seed_changes_verify_sampling_not_status():
    a = run_json(["verify", "--suite", "field", "--seed", "1", "--trials", "8"])
    b = run_json(["verify", "--suite", "field", "--seed", "2", "--trials", "8"])
    assert a[0] == b[0] == EXIT_OK
    assert a[1]["seed"] == 1 and b[1]["seed"] == 2


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_2():
    # unknown field
    code, _ = run(["hull", "--field", "padic:4"], '{"points": [["0"]]}')
    assert code == EXIT_USAGE
    # stdin is not JSON
    code, _ = run(["hull"], "this is not json")
    assert code == EXIT_USAGE
    # missing payload key
    code, _ = run(["hull"], '{"wrong": []}')
    assert code == EXIT_USAGE
    # malformed element text
    code, _ = run(["hull"], '{"points": [["zebra"]]}')
    assert code == EXIT_USAGE
    # unknown subcommand
    code, _ = run(["frobnicate"], "")
    assert code == EXIT_USAGE
    # radon with too few points
    code, _ = run(["radon"], '{"points": [["0"], ["1"]]}')
    assert code == EXIT_USAGE
    # JSON nested too deeply for the decoder
    code, _ = run(["hull"], "[" * 200000)
    assert code == EXIT_USAGE


def test_empty_set_dim_must_be_a_positive_integer():
    for dim in ("x", -3, 0, True):
        payload = {"set": {"empty": True, "dim": dim}, "point": ["0"]}
        code, out = run(["member"], json.dumps(payload))
        assert code == EXIT_USAGE and out == "", dim


def test_family_dimension_comes_from_first_member_stating_one():
    empty = {"empty": True, "dim": 2}
    code, report = run_json(["helly"], {"family": [empty, empty]})
    assert code == EXIT_OK and report == {"point": None}
    origin = {"translate": ["0", "0"], "free": [], "integral": []}
    code, report = run_json(["helly"], {"family": [{"empty": True}, origin]})
    assert code == EXIT_OK and report == {"point": None}
    # a member stating another dimension is rejected, not resized
    code, _ = run_json(["helly"], {"family": [{"empty": True, "dim": 3}, origin]})
    assert code == EXIT_USAGE


def test_non_positive_counts_exit_2():
    for argv in (["verify", "--trials", "-5"], ["verify", "--trials", "0"],
                 ["witness", "helly", "--dim", "-1"], ["witness", "helly", "--dim", "0"],
                 ["witness", "frachelly", "--count", "0"]):
        code, out = run(argv)
        assert code == EXIT_USAGE and out == "", argv


def test_seed_and_trials_belong_to_verify_only(capsys):
    hull = '{"points": [["0"], ["1"]]}'
    for argv, stdin in ((["hull", "--seed", "3", "--json"], hull),
                        (["hull", "--trials", "5"], hull),
                        (["witness", "helly", "--seed", "3"], "")):
        code, out = run(argv, stdin)
        assert code == EXIT_USAGE and out == "", argv
        assert "unrecognized arguments" in capsys.readouterr().err
    assert run(["hull", "--json"], hull)[0] == EXIT_OK


def test_violation_exit_1_on_empty_breadth():
    fam = [{"translate": ["0"], "free": [], "integral": []},
           {"translate": ["1"], "free": [], "integral": []}]
    code, _ = run(["breadth"], json.dumps({"family": fam}))
    assert code == EXIT_VIOLATION


def test_help_exits_cleanly():
    code, _ = run(["--help"])
    assert code == EXIT_OK


def test_empty_point_list_exits_2_with_no_points_given(capsys):
    for op in ("hull", "caratheodory", "radon", "selection", "tverberg", "tvcount"):
        code, out = run([op, "--json"], '{"points": [], "r": 2}')
        assert code == EXIT_USAGE and out == "", op
        assert capsys.readouterr().err == "ultraconv: no points given\n", op


def test_coefficient_denominator_divisible_by_characteristic_exits_2(capsys):
    payload = {"points": [["1/3*t"], ["1"], ["0"]]}
    code, out = run(["radon", "--field", "ratfunc:3", "--json"], json.dumps(payload))
    assert code == EXIT_USAGE and out == ""
    assert "denominator 3 is zero in characteristic 3" in capsys.readouterr().err
    # the same text is fine where 3 is invertible
    code, _ = run(["radon", "--field", "ratfunc:5", "--json"], json.dumps(payload))
    assert code == EXIT_OK


def test_exponent_above_limit_exits_2(capsys):
    from ultraconv.field import MAX_EXPONENT
    over = {"points": [[f"t^{MAX_EXPONENT + 1}"], ["1"], ["0"]]}
    code, out = run(["radon", "--field", "ratfunc:0", "--json"], json.dumps(over))
    assert code == EXIT_USAGE and out == ""
    assert f"exceeds the limit {MAX_EXPONENT}" in capsys.readouterr().err
    code, out = run(["hull", "--field", "ratfunc:3", "--json"],
                    json.dumps({"points": [[f"2*t^{MAX_EXPONENT}+1"]]}))
    assert code == EXIT_OK


def test_digit_run_above_limit_exits_2(capsys):
    from ultraconv.field import MAX_DIGITS
    long = "3" * 5000
    for sel, entry in (("padic:2", long), ("padic:2", f"1/{long}"), ("ratfunc:0", f"{long}*t")):
        code, out = run(["hull", "--field", sel, "--json"],
                        json.dumps({"points": [[entry, "1"]]}))
        assert code == EXIT_USAGE and out == ""
        err = capsys.readouterr().err
        assert f"5000 digits exceed the limit {MAX_DIGITS}" in err
        assert "set_int_max_str_digits" not in err
    code, out = run(["hull", "--json"],
                    json.dumps({"points": [["3" * MAX_DIGITS, "1"]]}))
    assert code == EXIT_OK


def test_result_integer_above_digit_limit_exits_2(capsys):
    """A result that would print an integer longer than the input limit is
    refused with a message naming that limit, not Python's own."""
    from ultraconv.field import MAX_DIGITS
    big = "9" * MAX_DIGITS
    code, out = run(["hull", "--json"],
                    json.dumps({"points": [[big, "1"], ["-" + big, "0"]]}))
    assert code == EXIT_USAGE and out == ""
    err = capsys.readouterr().err
    assert "too long to print" in err and f"{MAX_DIGITS}" in err
    assert "set_int_max_str_digits" not in err


def test_non_ascii_digits_exit_2(capsys):
    for sel, entry, pos in (("padic:2", "\u00b2", 0), ("padic:2", "\u0661\u0662/\u0663", 0),
                            ("ratfunc:0", "t^\u00b2", 2)):
        code, out = run(["hull", "--field", sel, "--json"],
                        json.dumps({"points": [[entry, "1"]]}))
        assert code == EXIT_USAGE and out == ""
        assert f"(at position {pos})" in capsys.readouterr().err
    code, out = run(["hull", "--field", "padic:\u0662", "--json"],
                    json.dumps({"points": [["1"]]}))
    assert code == EXIT_USAGE and out == ""
    assert "bad field selector" in capsys.readouterr().err


def test_selector_parameter_at_or_above_2_64_exits_2(capsys):
    """A huge prime parameter is refused at once, without a primality test
    on it and without echoing its digits."""
    for arg in (str(2**4423 - 1), str(2**64), "0" * 5000 + str(2**64 + 13)):
        code, out = run(["hull", "--field", f"padic:{arg}", "--json"],
                        json.dumps({"points": [["1"]]}))
        assert code == EXIT_USAGE and out == ""
        err = capsys.readouterr().err
        assert "bad field selector" in err and "2**64" in err
        assert len(err) < 200
    code, out = run(["hull", "--field", f"ratfunc:{2**64 - 59}", "--json"],
                    json.dumps({"points": [["1"]]}))
    assert code == EXIT_OK


def test_shatter_caps_input_size(capsys):
    pts = [[str(i), "0"] for i in range(13)]
    code, out = run(["shatter", "--json"], json.dumps({"points": pts}))
    assert code == EXIT_USAGE and out == ""
    assert "capped at 12 points" in capsys.readouterr().err


def test_tvcount_floor_above_digit_limit_exits_2(capsys):
    """A conjectured floor ((r-1)!)^d longer than MAX_DIGITS is refused
    before it is computed; the longest floor that prints still does."""
    from ultraconv.field import MAX_DIGITS
    pts = [["0", "0"], ["1", "0"], ["0", "1"]]
    for r in (861, 3000, 10**6, 10**400):
        code, out = run(["tvcount", "--json"], json.dumps({"points": pts, "r": r}))
        assert code == EXIT_USAGE and out == ""
        err = capsys.readouterr().err
        assert f"MAX_DIGITS = {MAX_DIGITS}" in err and "set_int_max_str_digits" not in err
    code, report = run_json(["tvcount", "--json"], {"points": pts, "r": 860})
    assert code == EXIT_OK
    assert report == {"count": 0, "conjecturedFloor": math.factorial(859) ** 2, "meetsFloor": False}


def test_empty_set_dimension_checked_before_answering():
    empty2 = {"empty": True, "dim": 2}
    code, out = run(["member"], json.dumps({"set": empty2, "point": ["0", "0", "0"]}))
    assert code == EXIT_USAGE and out == ""
    code, report = run_json(["member"], {"set": empty2, "point": ["0", "0"]})
    assert code == EXIT_OK and report == {"member": False}
    plane = {"translate": ["0", "0"], "free": [], "integral": [["1", "0"]]}
    empty5 = {"empty": True, "dim": 5}
    for pair in ({"first": plane, "second": empty5}, {"first": empty5, "second": plane}):
        code, out = run(["intersect"], json.dumps(pair))
        assert code == EXIT_USAGE and out == "", pair
    code, report = run_json(["intersect"], {"first": plane, "second": empty2})
    assert code == EXIT_OK and report == {"empty": True}


def test_empty_flag_must_be_a_boolean(capsys):
    for flag in ("yes", 1, None):
        code, out = run(["member"], json.dumps({"set": {"empty": flag, "dim": 1},
                                                "point": ["0"]}))
        assert code == EXIT_USAGE and out == "", flag
        assert "'empty' must be true or false" in capsys.readouterr().err
    code, out = run(["helly"], json.dumps({"family": [{"empty": "yes", "dim": 1}]}))
    assert code == EXIT_USAGE and out == ""


def test_cli_import_leaves_verify_and_sampler_unloaded():
    src = str(Path(ultraconv.__file__).resolve().parent.parent)
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import ultraconv.cli\n"
        "print([m for m in ('ultraconv.verify', 'ultraconv.randgen', 'dataclasses',"
        " 'inspect', 'ast') if m in sys.modules])\n"
        "from ultraconv import run_suite, PropertyResult, Sampler\n"
        "print(run_suite.__module__, PropertyResult.__module__, Sampler.__module__)\n"
    )
    # -S: no site hooks, which could import any of these on their own
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]", "ultraconv.verify ultraconv.verify ultraconv.randgen"]


def test_flag_and_box_of_the_empty_set_exit_2(capsys):
    payload = json.dumps({"set": {"empty": True, "dim": 2}})
    for op, message in (("flag", "the empty set has no flag decomposition"),
                        ("box", "the empty set has no box presentation")):
        code, out = run([op, "--json"], payload)
        assert code == EXIT_USAGE and out == "", op
        assert capsys.readouterr().err == f"ultraconv: {message}\n", op


def test_tvcount_with_one_block_counts_one_without_hulls(monkeypatch):
    def refuse(points):
        raise AssertionError("hull built for r = 1")

    monkeypatch.setattr(combinatorics, "conv_hull", refuse)
    pts = [["0", "1"], ["1/2", "3"], ["0", "1"], ["4", "0"]]
    code, report = run_json(["tvcount", "--json"], {"points": pts, "r": 1})
    assert code == EXIT_OK
    assert report == {"count": 1, "conjecturedFloor": 1, "meetsFloor": True}


def test_unexpected_exception_exits_3_with_one_line(monkeypatch, capsys):
    def broken(fam):
        raise AssertionError("some member is not covered by any candidate point")

    monkeypatch.setattr(cli, "pierce", broken)
    fam = [{"translate": ["0"], "free": [], "integral": [["1"]]}]
    code, out = run(["pierce", "--json"], json.dumps({"family": fam}))
    assert code == 3 and out == ""
    assert capsys.readouterr().err == (
        "ultraconv: unexpected AssertionError: "
        "some member is not covered by any candidate point\n")


def test_report_to_a_closed_stream_exits_3(capsys):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    code = main(["witness", "counterexample", "--json"], stdout=Closed())
    assert code == 3
    assert capsys.readouterr().err == "ultraconv: stdout was closed before the report was written\n"


def test_closed_pipe_exits_3_without_traceback():
    """The reader has gone before the child writes: one stderr line, exit 3,
    and a quiet interpreter exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(ultraconv.__file__).resolve().parent.parent)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ultraconv.cli", "witness", "helly", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "ultraconv: stdout was closed before the report was written\n"
