"""Last-letter transfer-matrix counting on k-ary words (Stanley, EC1 4.7).

Every adjacent pair (a, b) of a word carries a weight, 1 unless the pair
is marked, and a word weighs the product of its pairs' weights.  Rises by
s, jumps of size s, levels and ascents on words avoiding 1-3, and words
with no rise are all this one count: only the mark set changes, and a
forbidden pair is a pair marked with weight 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


class Transfer(NamedTuple):
    """rows[n][i-1] is the summed weight of the words of length n ending
    in the letter i; totals[n] is the summed weight of all of them."""

    rows: tuple
    totals: tuple


# typed: QPoly.const(1) == 1, so an integer table and a QPoly table with
# the same (empty) mark set must not share a cache entry
@lru_cache(maxsize=None, typed=True)
def transfer_dp(k: int, marks: tuple, order: int, one) -> Transfer:
    """Fill the last-letter DP up to length `order`.

    `marks` is a tuple of ((a, b), weight) pairs with 1 <= a, b <= k, each
    pair at most once; `one` is the unit of the weights' ring.  Appending
    i to a word ending in j multiplies its weight by weight(j, i), so

        row[i] = total[n-1] + sum over marks (j, i) of (weight - 1) row[j],

    which touches only the marked pairs.
    """
    if k < 1 or order < 0:
        raise ValueError("need k >= 1 and order >= 0")
    into = [[] for _ in range(k)]
    for (a, b), weight in marks:
        if not (1 <= a <= k and 1 <= b <= k):
            raise ValueError(f"marked pair {(a, b)} outside alphabet [1, {k}]")
        into[b - 1].append((a - 1, weight - one))
    if len({pair for pair, _ in marks}) != len(marks):
        raise ValueError("a pair is marked more than once")
    rows = [(), (one,) * k]
    totals = [one, one * k]
    for _ in range(2, order + 1):
        prev_row, prev_total = rows[-1], totals[-1]
        row = []
        for deltas in into:
            entry = prev_total
            for j, delta in deltas:
                entry = entry + delta * prev_row[j]
            row.append(entry)
        rows.append(tuple(row))
        totals.append(sum(row[1:], row[0]))
    return Transfer(tuple(rows[: order + 1]), tuple(totals[: order + 1]))
