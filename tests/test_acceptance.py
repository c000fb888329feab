"""Acceptance criteria: each runs one `verify` suite at its default grid,
all equalities exact (integer/rational/polynomial), tolerance zero.

The identities are stated once, in `adjstats.verify`; a criterion asks
that its suite made at least the checks below and that none failed.
One summary line is printed per criterion; run with `pytest -v -s
tests/test_acceptance.py` to see them as the suite executes.
"""

import time
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from adjstats import oeis, verify

BFILE_DIR = Path(__file__).resolve().parent.parent / "data" / "bfiles"

# Checks each suite makes at its default grid; a later grid may make more.
FLOORS = {"kary": 306, "gap": 243, "fibwords": 105, "absdiff": 366,
          "partitions": 220, "bijections": 94, "algebra": 102}


def report(criterion, failures, note=""):
    status = "PASS" if not failures else f"FAIL ({len(failures)} mismatches)"
    print(f"\nacceptance {criterion}: {status}{note}")
    assert not failures, failures[:10]


@cache
def run_suite(name):
    start = time.perf_counter()
    checks = verify.SUITES[name]()
    return checks, time.perf_counter() - start


def criterion(label, suite, names=None):
    """Report the suite's checks, or only those with the given names.  A
    check recorded twice with the same name and params is a failure: each
    identity is checked once per parameter point."""
    checks, seconds = run_suite(suite)
    mine = [c for c in checks if names is None or c.name in names]
    failures = [c.to_dict() for c in mine if not c.passed]
    seen = Counter((c.name, repr(sorted(c.params.items()))) for c in checks)
    failures += [f"check {name!r} at {params} recorded {count} times"
                 for (name, params), count in seen.items() if count > 1]
    failures += [f"no check named {name!r}" for name in names or ()
                 if not any(c.name == name for c in mine)]
    if len(checks) < FLOORS[suite]:
        failures.append(f"suite {suite} made {len(checks)} checks, want >= {FLOORS[suite]}")
    report(label, failures, f" ({len(mine)} checks; suite {suite} {seconds:.2f} s)")


def test_a_check_recorded_twice_fails_its_criterion(monkeypatch):
    check = verify.Check("absdiff", "squared and triple band sums agree",
                         {"d": 1, "q": "1/2"}, True)
    monkeypatch.setattr(verify, "SUITES", {"twice": lambda: [check, check]})
    monkeypatch.setitem(FLOORS, "twice", 0)
    with pytest.raises(AssertionError, match="recorded 2 times"):
        criterion("duplicate checks", "twice")


def test_criterion_01_five_way_distribution_agreement():
    criterion("01 five-way word-distribution agreement", "kary")


def test_criterion_02_avoidance_sequences():
    criterion("02 avoidance sequences", "kary",
              {"avoidance sequence", "avoider count equals enumeration at q = 0"})


def test_criterion_03_total_occurrences():
    criterion("03 total occurrences on words", "kary",
              {"total-count formula equals summed statistic"})


def test_criterion_04_gap_reduction():
    criterion("04 gap reduction", "gap")


def test_criterion_05_fib_word_suite():
    criterion("05 level/ascent/descent suite", "fibwords")


def test_criterion_06_absolute_difference_suite():
    criterion("06 absolute-difference suite", "absdiff")


def test_criterion_07_partition_suite():
    criterion("07 partition suite", "partitions")


def test_criterion_08_bijection_suite():
    criterion("08 bijection suite", "bijections")


def test_criterion_09_algebra_suite():
    criterion("09 algebra suite", "algebra")


@pytest.mark.parametrize("sequence_id", sorted(oeis.DEFAULT_CHECKS))
def test_criterion_10_oeis_reconciliation(sequence_id):
    path = BFILE_DIR / f"b{sequence_id[1:]}.txt"
    if not path.exists():
        print(f"\nacceptance 10 {sequence_id}: SKIP (no b-file at {path})")
        pytest.skip(f"user-supplied b-file not present: {path}")
    base = oeis.DEFAULT_CHECKS[sequence_id]
    spec = oeis.CheckSpec(base.sequence_id, base.generator, base.shift, length=20)
    result = oeis.reconcile(spec, oeis.parse_bfile(path.read_text()))
    failures = [r for r in result["rows"] if not r["equal"]]
    if not result["complete"]:
        failures.append(("incomplete", len(result["rows"])))
    report(f"10 OEIS reconciliation {sequence_id}", failures)
