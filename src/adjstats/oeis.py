"""OEIS b-file ingestion and reconciliation of computed sequences against
them.  The core is offline: b-files are local inputs, parsing and
comparison are pure, and each mismatch is reported with its index and
both values.
"""

from __future__ import annotations

import decimal
import math
import re

from .algebra import _decimal, _Frozen
from .kary import KSParams, avoid_count


class BFileParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_INTEGER = re.compile(r"[+-]?[0-9]+")  # no "_" and no non-ASCII digit, which `int` takes


def _integer(token: str, exact: bool = False) -> int:
    """A token of `_INTEGER` as an int, else ValueError.  An `exact` read passes
    the interpreter's `int` digit limit (4,300) through `decimal`, which has none."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(decimal.Decimal(token)) if exact else int(token)


def parse_bfile(text: str) -> tuple[tuple[int, int], ...]:
    """Parse OEIS b-file text into its (index, value) pairs, with strictly
    increasing indices: one "index value" pair of signed ASCII integers per
    line, blank lines and lines starting with '#' ignored."""
    entries = []
    last_index = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise BFileParseError(lineno, f"expected 'index value', got {line!r}")
        try:
            index, value = _integer(tokens[0]), _integer(tokens[1], exact=True)
        except ValueError:
            raise BFileParseError(lineno, f"non-integer token in {line!r}") from None
        if last_index is not None and index <= last_index:
            raise BFileParseError(lineno, f"index {index} not increasing")
        last_index = index
        entries.append((index, value))
    return tuple(entries)


def render_bfile(entries: tuple[tuple[int, int], ...]) -> str:
    values = _decimal([value for _, value in entries])
    return "".join(f"{index} {value}\n" for (index, _), value in zip(entries, values))


def _avoid_term(k: int, s: int):
    params = KSParams(k, s)

    def term(n: int) -> int:
        return avoid_count(params, n)[n]

    return term


def step_up_avoiders(n: int, k: int) -> int:
    """Number of k-ary words of length n with no adjacent pair (a, a+1),
    extended by the conventions w[n][0] = [n == 0] and w[0][k] = 1."""
    if k == 0:
        return 1 if n == 0 else 0
    return avoid_count(KSParams(k, 1), n)[n]


def step_up_antidiagonals(count: int) -> list[int]:
    """The square array step_up_avoiders(n, k) read by anti-diagonals
    n + k = 0, 1, 2, ... with n ascending inside each diagonal."""
    return [_antidiagonal_term(i) for i in range(count)]


def _antidiagonal_term(n: int) -> int:
    """Entry n of step_up_antidiagonals, read off its diagonal
    d(d+1)/2 <= n < (d+1)(d+2)/2 without building the entries before it."""
    diag = (math.isqrt(8 * n + 1) - 1) // 2
    i = n - diag * (diag + 1) // 2
    return step_up_avoiders(i, diag - i)


GENERATORS = {
    "avoid-step2-alphabet3": _avoid_term(3, 2),
    "avoid-step2-alphabet4": _avoid_term(4, 2),
    "avoid-step2-alphabet5": _avoid_term(5, 2),
    "step-up-antidiagonals": _antidiagonal_term,
}


class CheckSpec(_Frozen):
    """What to compare: bfile value at index m against generator(m - shift)."""

    __slots__ = ("sequence_id", "generator", "shift", "length")

    def __init__(self, sequence_id: str, generator: str, shift: int = 0, length: int = 20):
        if length < 1:
            raise ValueError("compare length must be >= 1")
        for name, value in zip(self.__slots__, (sequence_id, generator, shift, length)):
            object.__setattr__(self, name, value)


DEFAULT_CHECKS = {
    "A007070": CheckSpec("A007070", "avoid-step2-alphabet4", shift=0),
    "A200676": CheckSpec("A200676", "avoid-step2-alphabet5", shift=3),
    "A277666": CheckSpec("A277666", "step-up-antidiagonals", shift=0),
}


def reconcile(spec: CheckSpec, entries: tuple[tuple[int, int], ...]) -> dict:
    """Compare the first `spec.length` usable b-file entries against the
    registered generator; entries whose shifted index is negative are
    outside the generator's range and skipped.  The report is the dict
    that `oeis-check` prints after its command name."""
    gen = GENERATORS[spec.generator]
    rows = []
    for index, expected in entries:
        if len(rows) == spec.length:
            break
        n = index - spec.shift
        if n < 0:
            continue
        computed = gen(n)
        expected_text, computed_text = _decimal([expected, computed])
        rows.append({"index": index, "expected": expected_text, "computed": computed_text,
                     "equal": computed == expected})
    return {"sequence": spec.sequence_id, "generator": spec.generator, "shift": spec.shift,
            "checked": len(rows), "passed": bool(rows) and all(r["equal"] for r in rows),
            "complete": len(rows) == spec.length, "rows": rows}
