"""Determinism of the request lists, and that the output checks catch a
breach.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_list(workload):
    a, b = workloads.requests(workload, 11), workloads.requests(workload, 11)
    assert workloads.digest(a) == workloads.digest(b)


def test_other_seed_other_list_same_mix():
    a, b = workloads.many_small(11), workloads.many_small(12)
    assert workloads.digest(a) != workloads.digest(b)
    mix_a = Counter(workloads.category(r) for r in a)
    assert mix_a == Counter(workloads.category(r) for r in b) == Counter(workloads.MIX)
    for reqs in (a, b):
        dist = [r["argv"] for r in reqs if r["kind"] == "cli" and r["argv"][0] == "dist"
                and r["expect"] == 0]
        assert sum(any(t.startswith("--q=") for t in argv) for argv in dist) == round(
            workloads.Q_SHARE * len(dist))
        assert sum("csv" in argv for argv in dist) == round(workloads.CSV_SHARE * len(dist))


def test_verify_requests_stay_within_the_word_budget():
    for req in workloads.many_small(3):
        argv = req["argv"] if req["kind"] == "cli" else []
        if "--verify" in argv:
            k = int(argv[argv.index("--k") + 1])
            top = int(argv[argv.index("--n") + 1].split("..")[-1])
            assert k**top <= workloads.VERIFY_WORDS


def _dist_out(coeffs_by_n, k, s, extra=None):
    rows = [{"n": n, "dist": {"var": "q", "coeffs": [str(c) for c in cs]}, **(extra or {})}
            for n, cs in coeffs_by_n.items()]
    return json.dumps({"command": "dist", "stat": "mu", "k": k, "s": s, "rows": rows})


GOOD_DIST = {0: [1], 1: [3], 2: [7, 2]}  # k=3, s=1
DIST_REQ = {"kind": "cli", "argv": ["dist", "--stat", "mu", "--k", "3", "--s", "1",
                                    "--n", "0..2"], "expect": 0}


@pytest.mark.parametrize("request_, out, code, breached", [
    (DIST_REQ, _dist_out(GOOD_DIST, 3, 1), 0, False),
    (DIST_REQ, _dist_out({0: [1], 1: [3], 2: [8, 2]}, 3, 1), 0, True),  # mass
    (DIST_REQ, _dist_out({0: [1], 1: [3], 2: [8, 1]}, 3, 1), 0, True),  # moment
    (DIST_REQ, _dist_out({0: [1], 1: [3]}, 3, 1), 0, True),  # missing row
    ({**DIST_REQ, "argv": DIST_REQ["argv"] + ["--verify"]},
     _dist_out(GOOD_DIST, 3, 1, {"oracle_agrees": True, "closed_form_agrees": False}), 0, True),
    ({**DIST_REQ, "argv": DIST_REQ["argv"] + ["--q=1/2"]},
     _dist_out(GOOD_DIST, 3, 1, {"value": "1"}), 0, True),
    (DIST_REQ, _dist_out(GOOD_DIST, 3, 1), 1, True),  # exit code
    ({"kind": "cli", "argv": ["avoid", "--k", "3", "--s", "2", "--n", "0..3"], "expect": 0},
     json.dumps({"rows": [{"n": n, "count": str(c)} for n, c in enumerate([1, 3, 8, 21])]}),
     0, False),
    ({"kind": "cli", "argv": ["avoid", "--k", "3", "--s", "2", "--n", "0..3"], "expect": 0},
     json.dumps({"rows": [{"n": n, "count": str(c)} for n, c in enumerate([1, 3, 8, 22])]}),
     0, True),
    ({"kind": "cli", "argv": ["verify", "--suite", "gap", "--nmax", "7"], "expect": 0},
     json.dumps({"checks": 216, "failed": 1}), 0, True),
    ({"kind": "cli", "argv": ["verify", "--suite", "gap", "--nmax", "7"], "expect": 0},
     json.dumps({"checks": 215, "failed": 0}), 0, True),
    ({"kind": "cli", "argv": ["bijection", "--word-to-tiling", "213"], "expect": 0},
     json.dumps({"output": ["domino", "square"]}), 0, False),
    ({"kind": "cli", "argv": ["bijection", "--word-to-tiling", "213"], "expect": 0},
     json.dumps({"output": ["domino", "domino"]}), 0, True),
    ({"kind": "cli", "argv": ["bijection", "--v-to-w", "113"], "expect": 0},
     json.dumps({"output": "344"}), 0, False),
    ({"kind": "cli", "argv": ["bijection", "--v-to-w", "113"], "expect": 0},
     json.dumps({"output": "434"}), 0, True),
    ({"kind": "oeis", "name": "avoid-step2-alphabet4", "n": 3}, "48", 0, False),
    ({"kind": "oeis", "name": "step-up-antidiagonals", "n": 4}, "1", 0, False),
    ({"kind": "oeis", "name": "step-up-antidiagonals", "n": 4}, "2", 0, True),
])
def test_checks_catch_breaches(request_, out, code, breached):
    result = {"code": code, "error": None, "out": out}
    assert bool(checks.check(request_, result)) is breached


def test_escaped_exception_is_a_failure():
    result = {"code": None, "error": "IndexError: tuple index out of range", "out": ""}
    assert checks.check(DIST_REQ, result)
