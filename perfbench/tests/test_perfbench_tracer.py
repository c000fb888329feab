"""Wrapper hygiene of the traced run: exact argument forwarding, rebinding
at every lookup site, generator timing across `next`, and counts that
repeat between two traced processes.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import adjstats  # noqa: E402
from adjstats import algebra, bijections, kary, oeis, oracle, verify  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def traced():
    tr = tracer_mod.Tracer()
    missing = tr.install(adjstats)
    assert missing == []
    try:
        yield tr
    finally:
        tr.uninstall()


def test_wrapper_forwards_arguments_exactly():
    seen = []

    def target(*args, **kwargs):
        seen.append((args, kwargs))
        return "ok"

    tr = tracer_mod.Tracer()
    wrapped = tr.wrap(target, "x")
    hooked = tr.wrap(target, "y", hook=lambda *a: None)
    assert wrapped(1, 2, cap=3) == "ok" and hooked(4, key=None) == "ok"
    assert seen == [((1, 2), {"cap": 3}), ((4,), {"key": None})]


def test_positional_cap_still_enumerates_twice(traced):
    # total_mu_oracle passes cap by position, so lru_cache keys its
    # distribution_mu call apart from a call without cap.  A wrapper that
    # normalised cap would hide that second enumeration.
    original = traced_original(oracle.distribution_mu)
    original.cache_clear()
    oracle.distribution_mu(3, 1, 5)
    oracle.total_mu_oracle(3, 1, 5)
    assert original.cache_info().misses == 2
    assert traced.counts["oracle.dup_calls"] == 1
    assert traced.counts["oracle.dup_s"] > 0
    assert traced.counts["oracle.words"] == 3**5


def traced_original(fn):
    return fn.__wrapped__


def test_rebinds_every_lookup_site(traced):
    assert oeis.avoid_count is kary.avoid_count
    assert kary.avoid_count.__wrapped__.__module__ == "adjstats.kary"
    assert all(hasattr(fn, "__wrapped__") for fn in oeis.GENERATORS.values())
    assert all(hasattr(fn, "__wrapped__") for fn in verify.SUITES.values())
    assert verify.det_exact is algebra.det_exact is adjstats.det_exact
    for cls in (algebra.QPoly, algebra.PQPoly, algebra.XPoly, algebra.RatFunc):
        assert hasattr(cls.__dict__["__mul__"], "__wrapped__")
        assert hasattr(cls.__dict__["__add__"], "__wrapped__")

    oeis.GENERATORS["avoid-step2-alphabet4"](6)
    _ = algebra.QPoly((1, 1)) * 2
    names = set(traced.summary()["calls"])
    assert {"oeis.term.avoid-step2-alphabet4", "kary.avoid.avoid_count", "kary.table.a_table",
            "algebra.mul.QPoly.__mul__", "algebra.add.QPoly.__add__"} <= names


def test_uninstall_restores_originals():
    before = {name: fn for name, fn in vars(kary).items() if callable(fn)}
    suites = dict(verify.SUITES)
    mul = algebra.QPoly.__dict__["__mul__"]
    tr = tracer_mod.Tracer()
    tr.install(adjstats)
    tr.uninstall()
    assert {name: fn for name, fn in vars(kary).items() if callable(fn)} == before
    assert verify.SUITES == suites
    assert algebra.QPoly.__dict__["__mul__"] is mul


def test_generator_is_timed_across_next():
    tr = tracer_mod.Tracer()
    child = tr.wrap(lambda: time.sleep(0.02), "child")

    def slow(n):
        for i in range(n):
            time.sleep(0.01)
            child()
            yield i

    done = []
    wrapped = tr.wrap_generator(slow, "g", lambda args, kwargs, items, outer:
                                done.append((items, outer)))
    it = wrapped(3)
    assert len(tr.span_id) == 0  # creating the generator records nothing
    assert list(it) == [0, 1, 2]
    assert done == [(3, True)]
    own = dict(zip((tr.names[i] for i in tr.span_name), tr.span_self))
    assert len(tr.span_id) == 4
    assert 0.03 <= own["g"] < 0.06  # the three child calls are not its own time


def test_recursive_generator_counts_items_once(traced):
    assert len(list(bijections.tilings(6))) == 13
    assert traced.counts["bijections.family.items"] == 13
    assert traced.counts["bijections.family.scanned"] == 13
    assert len(list(bijections.v_words(3))) == 48
    assert traced.counts["bijections.family.scanned"] == 13 + 4**3


def test_every_public_function_is_wrapped_or_left_out_on_purpose():
    listed = {(mod, name) for mod, groups in tracer_mod.FUNCTIONS.items()
              for names in groups.values() for name in names}
    listed |= {(mod, name) for mod, names in tracer_mod.UNWRAPPED.items() for name in names}
    listed |= {("verify", fn.__name__) for fn in verify.SUITES.values()}
    for mod in tracer_mod.FUNCTIONS:
        module = sys.modules[f"adjstats.{mod}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            assert (mod, name) in listed, f"{mod}.{name} is neither traced nor listed"


def _traced_counts(requests):
    stdin = json.dumps({"requests": requests}).encode()
    spans = BENCH.parent / ".perfbench"
    spans.mkdir(exist_ok=True)
    _, report = run._spawn(["--trace", str(spans / "test.spans.tsv")], stdin,
                           time.perf_counter() + 120)
    trace = report["trace"]
    counts = {k: v for k, v in trace["counts"].items() if not k.endswith(("_s", ".s"))}
    return trace["calls"], counts


def test_two_traced_runs_give_identical_counts():
    requests = workloads.many_small(7)[:150] + [
        {"kind": "oeis", "name": "step-up-antidiagonals", "n": 20},
        {"kind": "cli", "argv": ["verify", "--suite", "bijections", "--nmax", "5"], "expect": 0},
        {"kind": "cli", "argv": ["verify", "--suite", "kary", "--nmax", "4", "--kmax", "4"],
         "expect": 0},
    ]
    first, second = _traced_counts(requests), _traced_counts(requests)
    assert first == second
    calls, counts = first
    assert calls["cli.main"] == 152 and calls["oeis.term.step-up-antidiagonals"] == 1
    assert counts["oracle.words"] > 0 and counts["verify.kary.checks"] > 0
