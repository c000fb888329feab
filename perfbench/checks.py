"""Output checks, run by the parent after the timed loop.

Each check recomputes what it needs with its own integer arithmetic and
never calls adjstats, so it is a route independent of the program's.
`check(request, result)` returns a list of problems; an empty list means
the request passed.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import lru_cache

from workloads import V_BANNED, W_BANNED

# Checks each verify suite reported at the seed for the cross-check
# grid; a later version may run more checks, never fewer.
SEED_VERIFY_CHECKS = {"kary": 234, "gap": 216, "partitions": 173, "fibwords": 105,
                      "algebra": 102, "bijections": 79, "absdiff": 291}


def _options(argv: list[str]) -> dict:
    """Options of a CLI request: --name value, --name=value or a flag."""
    out = {"command": argv[0]}
    i = 1
    while i < len(argv):
        token = argv[i]
        if "=" in token:
            key, value = token.split("=", 1)
            out[key] = value
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[token] = argv[i + 1]
            i += 1
        else:
            out[token] = True
        i += 1
    return out


def _range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


@lru_cache(maxsize=None)
def avoid_counts(k: int, s: int, order: int) -> tuple[int, ...]:
    """Words over 1..k with no adjacent (a, a+s), lengths 0..order, by a
    last-letter count in integers."""
    out = [1]
    ends = [1] * k
    for n in range(1, order + 1):
        if n > 1:
            total = sum(ends)
            ends = [total - (ends[i - s] if i >= s else 0) for i in range(k)]
        out.append(sum(ends))
    return tuple(out)


def _step_up(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    return avoid_counts(k, 1, n)[n]


def oeis_term(name: str, n: int) -> int:
    if name.startswith("avoid-step2-alphabet"):
        k = int(name.removeprefix("avoid-step2-alphabet"))
        return avoid_counts(k, 2, n)[n]
    if name == "step-up-antidiagonals":
        diag = 0
        while (diag + 1) * (diag + 2) // 2 <= n:
            diag += 1
        first = n - diag * (diag + 1) // 2
        return _step_up(first, diag - first)
    raise ValueError(f"no reference for generator {name!r}")


@lru_cache(maxsize=None)
def rgf_distribution(n: int, blocks: int | None, s: int) -> tuple[int, ...]:
    """Distribution of adjacent (a, a+s) pairs over growth sequences of
    length n (with maximum letter `blocks`, or any maximum), as
    coefficients, by a count over (maximum, last letter) states."""
    if n == 0:
        return (1,) if blocks in (None, 0) else ()
    states = {(1, 1): {0: 1}}  # (max, last) -> {occurrences: count}
    for _ in range(n - 1):
        nxt: dict = {}
        for (top, last), dist in states.items():
            for letter in range(1, top + 2):
                key = (max(top, letter), letter)
                bump = 1 if letter - last == s else 0
                slot = nxt.setdefault(key, {})
                for m, c in dist.items():
                    slot[m + bump] = slot.get(m + bump, 0) + c
        states = nxt
    total: dict = {}
    for (top, _), dist in states.items():
        if blocks is None or top == blocks:
            for m, c in dist.items():
                total[m] = total.get(m, 0) + c
    size = max(total) + 1 if total else 0
    coeffs = [total.get(m, 0) for m in range(size)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _moment(coeffs) -> int:
    return sum(i * c for i, c in enumerate(coeffs))


def _evaluate(coeffs, q: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


def _pair_moment(n: int, k: int, s: int, reach: int = 1, pairs_per: int = 1) -> int:
    """Summed count of positions i with w[i+reach] - w[i] = +s (or +-s
    when pairs_per is 2) over all k-ary words of length n."""
    if n - reach < 1 or k <= s:
        return 0
    return pairs_per * (n - reach) * (k - s) * k ** (n - 2)


def _rows(out: str, fmt: str) -> list[dict]:
    """Rows of a dist-like payload with `dist` as a list of ints."""
    if fmt == "csv":
        rows = []
        for raw in csv.DictReader(io.StringIO(out)):
            row = dict(raw)
            row["n"] = int(row["n"])
            if row.get("dist") is not None:
                row["dist"] = [int(c) for c in row["dist"].split(";")]
            for flag in ("oracle_agrees", "closed_form_agrees"):
                if row.get(flag) not in (None, ""):
                    row[flag] = row[flag] == "True"
                else:
                    row.pop(flag, None)
            if not row.get("warning"):
                row.pop("warning", None)
            rows.append(row)
        return rows
    rows = json.loads(out)["rows"]
    for row in rows:
        if "dist" in row:
            row["dist"] = [int(c) for c in row["dist"]["coeffs"]]
    return rows


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _check_dist(opts, out) -> list[str]:
    k, s = int(opts["--k"]), int(opts["--s"])
    cap = int(opts.get("--cap", 10**8))
    rows = _rows(out, opts.get("--format", "json"))
    problems = []
    if [r["n"] for r in rows] != _range(opts["--n"]):
        return [f"rows cover {[r['n'] for r in rows]}, asked {opts['--n']}"]
    for row in rows:
        n, coeffs = row["n"], row["dist"]
        if sum(coeffs) != k**n:
            problems.append(f"n={n}: mass {sum(coeffs)} != {k}^{n}")
        want = _pair_moment(n, k, s, pairs_per=1 if opts["--stat"] == "mu" else 2)
        if _moment(coeffs) != want:
            problems.append(f"n={n}: first moment {_moment(coeffs)} != {want}")
        if "--q" in opts and Fraction(row["value"]) != _evaluate(coeffs, Fraction(opts["--q"])):
            problems.append(f"n={n}: value at q={opts['--q']} is wrong")
        if "--verify" in opts:
            if k**n > cap:
                if "warning" not in row:
                    problems.append(f"n={n}: {k}^{n} words exceed the cap but no warning")
            elif row.get("oracle_agrees") is not True:
                problems.append(f"n={n}: oracle_agrees is {row.get('oracle_agrees')}")
        for flag in ("oracle_agrees", "closed_form_agrees"):
            if flag in row and row[flag] is not True:
                problems.append(f"n={n}: {flag} is {row[flag]}")
    return problems


def _check_partition_dist(opts, out) -> list[str]:
    k, s = int(opts["--k"]), int(opts["--s"])
    rows = _rows(out, opts.get("--format", "json"))
    if [r["n"] for r in rows] != _range(opts["--n"]):
        return ["rows do not cover the requested n"]
    problems = []
    for row in rows:
        want = list(rgf_distribution(row["n"], k, s))
        if _trim(row["dist"]) != want:
            problems.append(f"n={row['n']}: distribution {row['dist']} != {want}")
        if "--q" in opts and Fraction(row["value"]) != _evaluate(want, Fraction(opts["--q"])):
            problems.append(f"n={row['n']}: value at q={opts['--q']} is wrong")
    return problems


def _check_totals(opts, out) -> list[str]:
    s = int(opts["--s"])
    rows = json.loads(out)["rows"]
    if [r["n"] for r in rows] != _range(opts["--n"]):
        return ["rows do not cover the requested n"]
    problems = []
    for row in rows:
        n = row["n"]
        if "--words" in opts:
            want = _pair_moment(n, int(opts["--k"]), s)
        else:
            blocks = int(opts["--k"]) if "--k" in opts else None
            want = _moment(rgf_distribution(n, blocks, s))
        if int(row["total"]) != want:
            problems.append(f"n={n}: total {row['total']} != {want}")
    return problems


def _check_avoid(opts, out) -> list[str]:
    k, s = int(opts["--k"]), int(opts["--s"])
    ns = _range(opts["--n"])
    rows = json.loads(out)["rows"]
    want = avoid_counts(k, s, ns[-1])
    got = [(r["n"], int(r["count"])) for r in rows]
    if got != [(n, want[n]) for n in ns]:
        return [f"avoidance counts differ from the reference for k={k}, s={s}"]
    return []


def _check_gap(opts, out) -> list[str]:
    k, s, r = int(opts["--k"]), int(opts["--s"]), int(opts["--r"])
    rows = json.loads(out)["rows"]
    if [row["n"] for row in rows] != _range(opts["--n"]):
        return ["rows do not cover the requested n"]
    problems = []
    for row in rows:
        n, coeffs = row["n"], [int(c) for c in row["dist"]["coeffs"]]
        if sum(coeffs) != k**n:
            problems.append(f"n={n}: mass {sum(coeffs)} != {k}^{n}")
        if _moment(coeffs) != _pair_moment(n, k, s, reach=r):
            problems.append(f"n={n}: first moment is wrong")
    return problems


def _avoids(word: str, banned) -> bool:
    return all((int(a), int(b)) not in banned for a, b in zip(word, word[1:]))


def _v_from_w(word: str) -> str:
    """Rewrite each maximal run 3 4^d as 1^d 3."""
    out, i = [], 0
    while i < len(word):
        if word[i] == "3":
            j = i + 1
            while j < len(word) and word[j] == "4":
                j += 1
            out.append("1" * (j - i - 1) + "3")
            i = j
        else:
            out.append(word[i])
            i += 1
    return "".join(out)


def _check_bijection(opts, out) -> list[str]:
    payload = json.loads(out)
    got = payload.get("output")
    if "--v-to-w" in opts:
        word = opts["--v-to-w"]
        ok = (len(got) == len(word) and set(got) <= set("1234") and _avoids(got, W_BANNED)
              and _v_from_w(got) == word)
    elif "--w-to-v" in opts:
        word = opts["--w-to-v"]
        ok = (len(got) == len(word) and set(got) <= set("1234") and _avoids(got, V_BANNED)
              and _v_from_w(word) == got)
    elif "--word-to-tiling" in opts:
        sizes = {"square": 1, "domino": 2}
        ok = all(p in sizes for p in got) and sum(sizes[p] for p in got) == len(
            opts["--word-to-tiling"])
    elif "--tiling-to-word" in opts:
        pieces = [int(c) for c in opts["--tiling-to-word"].split(",")]
        ok = (len(got) == sum(pieces) and (not got or got[0] == "2") and set(got) <= set("123")
              and all(a != b and (a, b) != ("1", "3") for a, b in zip(got, got[1:])))
    else:
        parts = []
        for chunk in opts["--composition"].split("+"):
            size, _, colors = chunk.partition(":")
            parts.append({"size": int(size), "colored": sorted(int(c) for c in colors.split(","))})
        total = sum(p["size"] for p in parts)
        v_word, w_word = payload["v_word"], payload["w_word"]
        ok = (payload["composition"] == parts and len(payload["maneuvers"]) == total - 1
              and v_word == "".join(map(str, payload["maneuvers"]))
              and _avoids(v_word, V_BANNED) and _avoids(w_word, W_BANNED)
              and len(w_word) == len(v_word) and _v_from_w(w_word) == v_word)
    return [] if ok else [f"malformed bijection output {out.strip()!r}"]


def _check_verify(opts, out) -> list[str]:
    payload = json.loads(out)
    suite = opts["--suite"]
    problems = []
    if payload["failed"] != 0:
        problems.append(f"verify {suite}: {payload['failed']} checks failed")
    if payload["checks"] < SEED_VERIFY_CHECKS.get(suite, 0):
        problems.append(f"verify {suite}: {payload['checks']} checks, fewer than the seed's "
                        f"{SEED_VERIFY_CHECKS[suite]}")
    return problems


CHECKERS = {
    "dist": _check_dist,
    "partition-dist": _check_partition_dist,
    "totals": _check_totals,
    "avoid": _check_avoid,
    "gap": _check_gap,
    "bijection": _check_bijection,
    "verify": _check_verify,
}


def check(request: dict, result: dict) -> list[str]:
    """Problems with one request's outcome; empty when it is correct."""
    if result["error"] is not None:
        return [f"raised {result['error']}"]
    if request["kind"] == "oeis":
        want = oeis_term(request["name"], request["n"])
        return [] if result["out"] == str(want) else [f"term {result['out']} != {want}"]
    if result["code"] != request["expect"]:
        return [f"exit code {result['code']}, expected {request['expect']}"]
    if request["expect"] != 0:
        return []
    opts = _options(request["argv"])
    try:
        return CHECKERS[opts["command"]](opts, result["out"])
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable output ({type(exc).__name__}: {exc})"]
