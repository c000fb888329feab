"""Last-letter transfer-matrix counting on k-ary words (Stanley, EC1 4.7).

Every adjacent pair (a, b) of a word carries a weight, 1 unless the pair
is marked, and a word weighs the product of its pairs' weights.  Rises by
s, jumps of size s, levels and ascents on words avoiding 1-3, and words
with no rise are all this one count: only the mark set changes, and a
forbidden pair is a pair marked with weight 0.

Row n of the table depends only on row n - 1, so the table for length N
holds every shorter length too.  One table is stored per mark set and
ring; it grows on demand and is never rebuilt, and a shorter request
reads its prefix.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from .algebra import Poly, _mul_lists


class Transfer(NamedTuple):
    """rows[n][i-1] is the summed weight of the words of length n ending
    in the letter i; totals[n] is the summed weight of all of them.  Both
    are prefix copies of the stored table."""

    rows: list
    totals: list


# (k, marks, type(one), one) -> (into, rows, totals), where rows and totals
# are only appended to.  type(one) keeps an integer table apart from a QPoly
# table with the same marks: QPoly.const(1) == 1 and both hash alike.  The
# lock keeps two threads from appending the same row twice.
_tables: dict = {}
_lock = threading.Lock()


def transfer_dp(k: int, marks: tuple, order: int, one) -> Transfer:
    """The last-letter DP up to length `order`.

    `marks` is a tuple of ((a, b), weight) pairs with 1 <= a, b <= k, each
    pair at most once; `one` is the unit of the weights' ring.  Appending
    i to a word ending in j multiplies its weight by weight(j, i), so

        row[i] = total[n-1] + sum over marks (j, i) of (weight - 1) row[j],

    which touches only the marked pairs.  Over a polynomial ring each
    entry, and each total, is one coefficient list that the products are
    accumulated into, made a polynomial once.
    """
    if k < 1 or order < 0:
        raise ValueError("need k >= 1 and order >= 0")
    key = (k, marks, type(one), one)
    with _lock:
        if key not in _tables:
            into = [[] for _ in range(k)]
            for (a, b), weight in marks:
                if not (1 <= a <= k and 1 <= b <= k):
                    raise ValueError(f"marked pair {(a, b)} outside alphabet [1, {k}]")
                delta = weight - one
                if isinstance(one, Poly):
                    if type(delta) is not type(one):
                        raise ValueError(f"weight {weight!r} is not in the ring of {one!r}")
                    delta = delta.coeffs
                into[b - 1].append((a - 1, delta))
            if len({pair for pair, _ in marks}) != len(marks):
                raise ValueError("a pair is marked more than once")
            _tables[key] = (into, [(), (one,) * k], [one, one * k])
        into, rows, totals = _tables[key]
        while len(rows) <= order:
            row, total = _next_row(into, rows[-1], totals[-1], one)
            rows.append(row)
            totals.append(total)
        return Transfer(rows[: order + 1], totals[: order + 1])


def _next_row(into, prev_row, prev_total, one):
    """Row n and its total from row n - 1 and total n - 1."""
    if not isinstance(one, Poly):
        row = []
        for deltas in into:
            entry = prev_total
            for j, delta in deltas:
                entry = entry + delta * prev_row[j]
            row.append(entry)
        return tuple(row), sum(row[1:], row[0])
    ring = type(one)
    row, total = [], []
    for deltas in into:
        entry = prev_total
        if deltas:
            acc = list(prev_total.coeffs)
            for j, delta in deltas:
                _mul_lists(delta, prev_row[j].coeffs, acc)
            entry = ring(acc)
        _mul_lists((1,), entry.coeffs, total)
        row.append(entry)
    return tuple(row), ring(total)
