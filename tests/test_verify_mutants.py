"""``verify`` must fail when a search returns a wrong answer.

Each mutant replaces a name that ``verify`` imports with a wrong version;
the suite that checks it must then record at least one failure, while the
unmutated suite records none.
"""

import pytest

from ultraconv import verify
from ultraconv.field import Field

count = verify.count_tverberg_partitions

MUTANTS = {
    "tverberg count doubled": ("count_tverberg_partitions", lambda pts, r: 2 * count(pts, r)),
    "tverberg count fixed at 10^6": ("count_tverberg_partitions", lambda pts, r: 10 ** 6),
}


def failures(suite):
    return [f for res in verify.run_suite(suite, Field.padic(2), 0, 6) for f in res.failures]


def test_unmutated_combinatorics_suite_passes():
    assert failures("combinatorics") == []


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_makes_the_suite_fail(name, monkeypatch):
    target, wrong = MUTANTS[name]
    monkeypatch.setattr(verify, target, wrong)
    assert failures("combinatorics"), name
