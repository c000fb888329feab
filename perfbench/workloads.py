"""Request lists for the three benchmark workloads.

A request is a dict with a `kind`:

  * ``{"kind": "cli", "argv": [...], "expect": 0 | 2}`` -- one call of
    ``adjstats.cli.main(argv)``; `expect` is the exit code a correct
    program gives;
  * ``{"kind": "oeis", "name": ..., "n": ...}`` -- one direct call of
    ``adjstats.oeis.GENERATORS[name](n)``.

`long-order` and `cross-check` are fixed lists; `many-small` is drawn
from the seed.  Every list depends on nothing but (workload, seed).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("long-order", "cross-check", "many-small")

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "long-order": "DP tables and dense big-integer q-polynomial arithmetic at long orders; "
    "the oracle is capped out",
    "cross-check": "the seven verify suites, where brute-force enumeration of words and "
    "growth sequences does most of the work",
    "many-small": "about 1200 small mixed CLI requests in one process, where per-call parse, "
    "emit and tiny-table overhead dominate",
}


def _cli(*argv, expect=0):
    return {"kind": "cli", "argv": [str(a) for a in argv], "expect": expect}


def long_order() -> list[dict]:
    reqs = [
        _cli("dist", "--stat", "mu", "--k", 6, "--s", 2, "--n", "0..200", "--q", "7/3"),
        _cli("dist", "--stat", "nu", "--k", 8, "--s", 2, "--n", "0..120"),
        _cli("dist", "--stat", "mu", "--k", 5, "--s", 2, "--n", "0..80", "--verify",
             "--cap", 50000),
        _cli("dist", "--stat", "mu", "--k", 7, "--s", 3, "--n", 400),
        _cli("avoid", "--k", 4, "--s", 2, "--n", "0..400"),
        _cli("gap", "--k", 4, "--s", 1, "--r", 3, "--n", "0..60"),
    ]
    for name, count in (("avoid-step2-alphabet4", 160), ("avoid-step2-alphabet5", 160),
                        ("step-up-antidiagonals", 120)):
        reqs.extend({"kind": "oeis", "name": name, "n": n} for n in range(count))
    return reqs


# Suite -> --nmax.  absdiff runs one order lower to fit the run time.
CROSS_CHECK_NMAX = {"kary": 7, "gap": 7, "partitions": 7, "fibwords": 7, "algebra": 7,
                    "bijections": 7, "absdiff": 6}


def cross_check() -> list[dict]:
    return [_cli("verify", "--suite", suite, "--nmax", nmax)
            for suite, nmax in CROSS_CHECK_NMAX.items()]


# many-small: how many requests of each category, identical for every seed.
MIX = {
    "dist": 420,
    "dist-verify": 300,
    "avoid": 60,
    "totals-words": 48,
    "totals-partitions": 48,
    "partition-dist": 60,
    "gap": 60,
    "bijection": 144,
    "malformed": 60,
}
VERIFY_WORDS = 60_000  # k^max(n) stays within this for dist --verify
PARTITION_NMAX = 9  # partition-dist lengths stay within 0..9
Q_SHARE = 0.3  # share of dist requests with --q
CSV_SHARE = 0.2  # share of dist requests with --format csv


def _verify_nmax(k: int) -> int:
    """Largest n <= 12 with k^n <= VERIFY_WORDS."""
    n = 0
    while n < 12 and k ** (n + 1) <= VERIFY_WORDS:
        n += 1
    return n


def _rational(rng: random.Random) -> str:
    value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return str(value)


def _sub_range(rng: random.Random, hi_max: int, lo_min: int = 0) -> str:
    lo = rng.randint(lo_min, hi_max)
    hi = rng.randint(lo, hi_max)
    return f"{lo}..{hi}" if hi > lo else str(lo)


def _word_from_moves(rng, length, alphabet, banned):
    """A uniform-ish word with no adjacent pair in `banned`, built by
    choosing each letter among those allowed after the previous one."""
    out = []
    for _ in range(length):
        options = [c for c in alphabet if not out or (out[-1], c) not in banned]
        out.append(rng.choice(options))
    return "".join(map(str, out))


V_BANNED = {(2, 4), (3, 4)}
W_BANNED = {(1, 3), (2, 4)}


def _jpp_word(rng, length):
    """Level-free ternary word with no 1-3, starting with 2."""
    out = []
    for i in range(length):
        if i == 0:
            out.append(2)
            continue
        options = [c for c in (1, 2, 3) if c != out[-1] and (out[-1], c) != (1, 3)]
        out.append(rng.choice(options))
    return "".join(map(str, out))


def _composition(rng, parts):
    chunks = []
    for _ in range(parts):
        size = rng.randint(1, 4)
        colored = sorted(rng.sample(range(1, size + 1), rng.randint(1, size)))
        chunks.append(f"{size}:{','.join(map(str, colored))}")
    return "+".join(chunks)


def _bijection(rng, i):
    length = rng.randint(1, 12)
    kind = i % 5
    if kind == 0:
        return _cli("bijection", "--v-to-w", _word_from_moves(rng, length, (1, 2, 3, 4), V_BANNED))
    if kind == 1:
        return _cli("bijection", "--w-to-v", _word_from_moves(rng, length, (1, 2, 3, 4), W_BANNED))
    if kind == 2:
        return _cli("bijection", "--word-to-tiling", _jpp_word(rng, length))
    if kind == 3:
        pieces = [rng.choice((1, 2)) for _ in range(length)]
        return _cli("bijection", "--tiling-to-word", ",".join(map(str, pieces)))
    return _cli("bijection", "--composition", _composition(rng, rng.randint(1, 4)))


def _malformed(rng, i):
    """One usage error from a fixed menu; a correct program exits 2."""
    k, s, n = rng.randint(2, 6), rng.randint(1, 3), rng.randint(1, 8)
    stat = rng.choice(("mu", "nu"))
    menu = [
        # negative n
        lambda: _cli("partition-dist", "--n", -n, "--k", 2, "--s", s, expect=2),
        lambda: _cli("totals", "--partitions", "--s", 2, "--n", -n, expect=2),
        # s = 0
        lambda: _cli("dist", "--stat", stat, "--k", k, "--s", 0, "--n", n, expect=2),
        lambda: _cli("avoid", "--k", k, "--s", 0, "--n", n, expect=2),
        lambda: _cli("gap", "--k", k, "--s", 0, "--r", 1, "--n", n, expect=2),
        lambda: _cli("totals", "--words", "--k", k, "--s", 0, "--n", n, expect=2),
        # k = 0
        lambda: _cli("dist", "--stat", stat, "--k", 0, "--s", s, "--n", n, expect=2),
        lambda: _cli("avoid", "--k", 0, "--s", s, "--n", n, expect=2),
        # r = 0
        lambda: _cli("gap", "--k", k, "--s", s, "--r", 0, "--n", n, expect=2),
        # non-digit words
        lambda: _cli("bijection", "--v-to-w", f"{n}a{k}", expect=2),
        lambda: _cli("bijection", "--word-to-tiling", f"x{n}", expect=2),
        # --q 1/0
        lambda: _cli("dist", "--stat", stat, "--k", k, "--s", s, "--n", n, "--q", "1/0",
                     expect=2),
        lambda: _cli("partition-dist", "--n", n, "--k", 2, "--s", s, "--q", "1/0", expect=2),
    ]
    return menu[i % len(menu)]()


# Inputs that hit defects known at the seed.  They stay out of the timed
# stream, which must not fail, and run as probes after it in every
# many-small child (see run.py); a correct program exits 2 on each.
# `seed_outcome` is what the seed does.
KNOWN_DEFECTS = [
    {"argv": ["dist", "--stat", "mu", "--k", "3", "--s", "1", "--n", "-2"],
     "seed_outcome": "IndexError"},
    {"argv": ["avoid", "--k", "3", "--s", "1", "--n", "-1"],
     "seed_outcome": "InternalInvariantViolation"},
    {"argv": ["partition-dist", "--n", "3", "--k", "2", "--s", "0"], "seed_outcome": "exit 0"},
    {"argv": ["gap", "--k", "3", "--s", "1", "--r", "2", "--n", "-1"], "seed_outcome": "exit 0"},
    {"argv": ["totals", "--words", "--k", "3", "--s", "1", "--n", "-1"],
     "seed_outcome": "exit 0"},
]


def _dist_requests(rng, count, verify):
    reqs = []
    if verify:
        # Every (stat, k, s) gets one request over its whole verifiable
        # range, so every seed enumerates the same set of oracle keys and
        # the workload's cost does not depend on which keys a draw hits.
        shapes = [(stat, k, s) for stat in ("mu", "nu") for k in range(1, 8)
                  for s in range(1, 5)]
        for stat, k, s in shapes:
            reqs.append(["dist", "--stat", stat, "--k", k, "--s", s,
                         "--n", f"0..{_verify_nmax(k)}", "--verify"])
        while len(reqs) < count:
            stat, k, s = rng.choice(shapes)
            reqs.append(["dist", "--stat", stat, "--k", k, "--s", s,
                         "--n", _sub_range(rng, _verify_nmax(k)), "--verify"])
    else:
        for _ in range(count):
            reqs.append(["dist", "--stat", rng.choice(("mu", "nu")), "--k", rng.randint(1, 7),
                         "--s", rng.randint(1, 4), "--n", _sub_range(rng, 12)])
    return reqs


def many_small(seed: int) -> list[dict]:
    rng = random.Random(seed)
    dist = _dist_requests(rng, MIX["dist"], False) + _dist_requests(rng, MIX["dist-verify"], True)
    # Exact shares, placed by the seed, so every seed has the same mix.
    q_marks = [i < round(Q_SHARE * len(dist)) for i in range(len(dist))]
    csv_marks = [i < round(CSV_SHARE * len(dist)) for i in range(len(dist))]
    rng.shuffle(q_marks)
    rng.shuffle(csv_marks)
    reqs = []
    for argv, with_q, with_csv in zip(dist, q_marks, csv_marks):
        if with_q:
            # `--q=` keeps a negative rational from reading as an option.
            argv = argv + [f"--q={_rational(rng)}"]
        if with_csv:
            argv = argv + ["--format", "csv"]
        reqs.append(_cli(*argv))
    for _ in range(MIX["avoid"]):
        reqs.append(_cli("avoid", "--k", rng.randint(1, 7), "--s", rng.randint(1, 4),
                         "--n", _sub_range(rng, 20)))
    for _ in range(MIX["totals-words"]):
        reqs.append(_cli("totals", "--words", "--k", rng.randint(1, 7), "--s", rng.randint(1, 4),
                         "--n", _sub_range(rng, 12)))
    for i in range(MIX["totals-partitions"]):
        s = rng.randint(2, 4)
        if i % 2:
            reqs.append(_cli("totals", "--partitions", "--s", s, "--n", _sub_range(rng, 12, 2)))
        else:
            k = rng.randint(s + 1, 6)
            reqs.append(_cli("totals", "--partitions", "--k", k, "--s", s,
                             "--n", _sub_range(rng, 12)))
    # Like dist --verify: every (k, s) once over 0..9, then sub-ranges.
    shapes = [(k, s) for k in range(1, 5) for s in range(1, 4)]
    for i in range(MIX["partition-dist"]):
        k, s = shapes[i] if i < len(shapes) else rng.choice(shapes)
        n = f"0..{PARTITION_NMAX}" if i < len(shapes) else _sub_range(rng, PARTITION_NMAX)
        argv = ["partition-dist", "--n", n, "--k", k, "--s", s]
        if rng.random() < Q_SHARE:
            argv.append(f"--q={_rational(rng)}")
        reqs.append(_cli(*argv))
    for _ in range(MIX["gap"]):
        reqs.append(_cli("gap", "--k", rng.randint(1, 5), "--s", rng.randint(1, 3),
                         "--r", rng.randint(1, 3), "--n", _sub_range(rng, 10)))
    reqs.extend(_bijection(rng, i) for i in range(MIX["bijection"]))
    reqs.extend(_malformed(rng, i) for i in range(MIX["malformed"]))
    rng.shuffle(reqs)
    _full_range_first(reqs)
    return reqs


def _full_range_first(reqs: list[dict]) -> None:
    """Move each full-range dist --verify and partition-dist request ahead
    of the other requests of its shape.  It then enumerates every oracle
    key of the shape itself, so which requests pay for enumeration, and
    hence the slowest latencies, do not depend on the shuffle."""
    first: dict = {}
    for index, req in enumerate(reqs):
        argv = req["argv"] if req["kind"] == "cli" and req["expect"] == 0 else []
        if argv[:1] == ["partition-dist"]:
            shape, top = ("p", argv[4], argv[6]), PARTITION_NMAX
        elif argv[:1] == ["dist"] and "--verify" in argv:
            shape, top = ("d", argv[2], argv[4], argv[6]), _verify_nmax(int(argv[4]))
        else:
            continue
        if shape not in first:
            first[shape] = index
        elif argv[argv.index("--n") + 1] == f"0..{top}":
            earlier = first[shape]
            reqs[earlier], reqs[index] = reqs[index], reqs[earlier]


def requests(workload: str, seed: int) -> list[dict]:
    if workload == "long-order":
        return long_order()
    if workload == "cross-check":
        return cross_check()
    if workload == "many-small":
        return many_small(seed)
    raise ValueError(f"unknown workload {workload!r}")


def digest(reqs: list[dict]) -> str:
    """Stable fingerprint of a request list."""
    return hashlib.sha256(json.dumps(reqs, sort_keys=True).encode()).hexdigest()


def category(req: dict) -> str:
    """The mix category a many-small request belongs to."""
    if req["kind"] == "oeis":
        return "oeis"
    argv = req["argv"]
    if req["expect"] != 0:
        return "malformed"
    if argv[0] == "dist":
        return "dist-verify" if "--verify" in argv else "dist"
    if argv[0] == "totals":
        return "totals-" + argv[1].lstrip("-")
    return argv[0]
