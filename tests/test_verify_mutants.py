"""``verify`` must fail when a search returns a wrong answer.

Each mutant replaces names that ``verify`` or the library imports with a
wrong version; the suite that checks it must then record at least one
failure, while the unmutated suite records none.  A mutant that breaks a
library invariant makes a property raise, and ``verify`` must report that
property as failed and exit 1, with no traceback.
"""

import io
import json

import pytest

from ultraconv import cli, combinatorics, convex, linalg, verify
from ultraconv.field import Field

count = verify.count_tverberg_partitions
hulls_meet = combinatorics._hulls_meet
drop_step = linalg._drop_step


def drop_largest_valuation(field, cols, nrows):
    """The drop rule with the wrong choice: the coefficient of largest
    valuation, so the dropped column need not be an O-combination of the
    others."""
    step = drop_step(field, cols, nrows)
    if step is None:
        return None
    vals = list(map(field.ops.val, step[0]._data))
    return step[0], max(range(len(vals)), key=vals.__getitem__)


# name -> (suite, [(module, attribute, wrong value)])
MUTANTS = {
    "tverberg count doubled": (
        "combinatorics", [(verify, "count_tverberg_partitions", lambda pts, r: 2 * count(pts, r))]),
    "tverberg count fixed at 10^6": (
        "combinatorics", [(verify, "count_tverberg_partitions", lambda pts, r: 10 ** 6)]),
    "decision ignores the last block": (
        "combinatorics", [(combinatorics, "_hulls_meet",
                           lambda ops, diff, blocks, inside: hulls_meet(ops, diff, blocks[:-1], inside))]),
    "drop rule takes the largest valuation": (
        "all", [(linalg, "_drop_step", drop_largest_valuation),
                (convex, "_drop_step", drop_largest_valuation)]),
}


def failures(suite):
    return [f for res in verify.run_suite(suite, Field.padic(2), 0, 6) for f in res.failures]


def test_unmutated_combinatorics_suite_passes():
    assert failures("combinatorics") == []


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_makes_the_suite_fail(name, monkeypatch):
    suite, patches = MUTANTS[name]
    for module, attr, wrong in patches:
        monkeypatch.setattr(module, attr, wrong)
    out = io.StringIO()
    code = cli.main(["verify", "--suite", suite, "--trials", "6", "--json"], stdout=out)
    report = json.loads(out.getvalue())
    assert code == cli.EXIT_VIOLATION and not report["ok"], name
    assert any(r["failures"] for r in report["results"]), name


def test_a_property_that_raises_is_reported_and_the_suite_goes_on(monkeypatch):
    def broken(res, s, field, trials):
        raise AssertionError("invariant violated")

    monkeypatch.setitem(verify.SUITES, "field", [broken] + verify.SUITES["field"])
    results = verify.run_suite("field", Field.padic(2), 0, 6)
    assert results[0].failures == ["raised AssertionError: invariant violated"]
    assert len(results) == len(verify.SUITES["field"]) and all(r.ok for r in results[1:])
