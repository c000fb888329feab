"""Brute-force ground truth for word statistics.

One depth-first walk, `_walk`, visits every sequence of a family in
lexicographic order and carries its difference profile packed into one
integer key.  A family is data: an alphabet 1..k, banned pairs, a gap
and the growth flag, which gives the restricted growth functions with
maximum at most k.  `_count` tallies the keys of one length by meeting
in the middle (Horowitz and Sahni 1974): it counts the keys of the
prefixes m letters short of the end per junction state, and once per
state the key increments of the m-letter suffixes that may follow it.
The tally keeps the two counters of each state and multiplies them out
only where the product is small.  Every prefix and every suffix is
visited; words are combined only by distributivity.  Every statistic is
read off the packed keys of that tally by `_read`, which reads each
counter once and multiplies the two small results per state, with one
layout for words and growth sequences alike.  `_marginal` checks that a
read of plain words counts all k^n of them and stores it; a family's size
is its read with no marks.  Nothing comes from a recurrence, a closed
form or a DP table, so these values are the independent reference that
every other module is checked against, and no other module sees a tally.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

from .algebra import EnumerationTooLarge, InternalInvariantViolation, PQPoly, QPoly

DEFAULT_CAP = 10**8


def words(k, n):
    """All k-ary words of length n, streamed in lexicographic order."""
    return itertools.product(range(1, k + 1), repeat=n)


def _layout(k, n):
    """(base, place): `_walk(k, n, ...)` counts difference d at place(d)."""
    base = max(n, 2)
    return base, lambda d: base ** (d + k - 1)


@lru_cache(maxsize=32)
def _walk_tables(k, n, banned, growth):
    """The `step` and `after` tables of `_walk` for one family, shared (as
    tuples) by every walk of it; a count makes one walk per junction state."""
    _, place = _layout(k, n)
    # step[a][b]: what a pair (a, b) adds to the key; row 0 is "no pair yet"
    step = tuple(tuple(place(b - a) if a and b else 0 for b in range(k + 1))
                 for a in range(k + 1))
    # after[a][top]: the letters that may follow a when the maximum is top
    after = tuple(tuple(tuple(b for b in range(1, (min(top + 1, k) if growth else k) + 1)
                              if (a, b) not in banned) for top in range(k + 1))
                  for a in range(k + 1))
    return step, after


def _walk(k, n, banned=frozenset(), gap=1, growth=False, start=((), 0), stop=None):
    """Every word of length n over 1..k with no adjacent pair in `banned`
    (a pair (0, b) bars b as first letter), in lexicographic order, as
    (word, key, top).  With `growth`, each letter is at most one above the
    running maximum `top`, which gives the restricted growth functions.
    `key` packs the difference profile: its digit at `_layout` place d
    counts the i with w[i+gap] - w[i] = d.

    With a `start` (word, maximum) and a `stop` length, it visits only the
    extensions of that word to length `stop`, and `key` counts only the
    pairs whose second letter is new.  The start word needs only the last
    `gap` letters of a longer prefix, since no new pair reaches further."""
    if n < 0:
        raise ValueError("need n >= 0")
    word, top = start
    stop = n if stop is None else stop
    if len(word) == stop:
        yield word, 0, top
        return
    k = max(k, 0)
    step, after = _walk_tables(k, n, frozenset(banned), growth)
    last = stop - 1
    stack = [(word, 0, top)]
    while stack:
        word, key, top = stack.pop()
        i = len(word)
        row = step[word[i - gap] if i >= gap else 0]
        letters = after[word[-1] if word else 0][top]
        if i == last:
            for c in letters:
                yield word + (c,), key + row[c], top if top >= c else c
        else:
            for c in reversed(letters):
                stack.append((word + (c,), key + row[c], top if top >= c else c))


def _count(k, n, banned, gap, growth):
    """The tally of `_walk(k, n, banned, gap, growth)`: a tuple of one
    (prefixes, suffixes) pair of key counters per junction state.

    m is the largest length <= (n - gap + 1) // 2 with k^m <= 1024, which
    balances the walk of n - m letters against k^gap states of k^m
    suffixes.  A growth family, whose states also carry the maximum, meets
    one letter shorter where the half length set m, unless that leaves
    fewer than 8 suffixes per state: its suffix walks cost more and its
    prefixes are fewer.  The walk to length n - m gives, per junction
    state (the last `gap` letters and, with `growth`, the maximum), how many
    prefixes carry each key.  One walk of the m-letter extensions of each
    state gives how many suffixes add each key increment.  A word is one
    prefix and one suffix of the same state, and its key is their sum, so
    a state's words are its two counters multiplied out, which is left to
    the reader.  Where that product is small, sum |P| |S| <= 8 sum (|P| +
    |S|) over the states, the count multiplies out itself: key p + s
    gains c * d for every prefix entry (p, c) and suffix entry (s, d) of a
    state, and the joined keys are one state with suffix counter {0: 1}.
    When n - m <= gap each state is one whole prefix, and when k^m < 8
    each has too few suffixes for their walks to pay; then the count is
    one plain walk, stored the same way."""
    half = (n - gap + 1) // 2
    m = 0
    while m < half and k ** (m + 1) <= 1024:
        m += 1
    if growth and m == half > 1 and k ** (m - 1) >= 8:
        m -= 1
    if n - m <= gap or k ** m < 8:
        return ((Counter(key for _, key, _ in _walk(k, n, banned, gap, growth)), {0: 1}),)
    prefixes = {}
    for word, key, top in _walk(k, n, banned, gap, growth, stop=n - m):
        state = word[-gap:], top if growth else 0
        keys = prefixes.get(state)
        if keys is None:
            keys = prefixes[state] = {}
        keys[key] = keys.get(key, 0) + 1
    tally = tuple((keys, Counter(inc for _, inc, _ in _walk(
        k, n, banned, gap, growth, start=(tail, top), stop=len(tail) + m)))
        for (tail, top), keys in prefixes.items())
    if sum(len(p) * len(s) for p, s in tally) > 8 * sum(len(p) + len(s) for p, s in tally):
        return tally
    counts = {}
    get = counts.get
    for keys, suffixes in tally:
        entries = list(keys.items())
        for inc, d in suffixes.items():
            for key, c in entries:
                counts[key + inc] = get(key + inc, 0) + c * d
    return ((counts, {0: 1}),)


def _read(tally, k, n, first, second):
    """rows[i][j] off a tally of `_walk(k, n, ...)`: how many sequences
    have i pairs with a difference in `first` (p) and j in `second` (q).
    A set's count is the digit at place u of key * m, m adding a key copy
    per difference shifted to bring its digit to u; a key's digits sum to
    its pairs, fewer than the base, so the copies add without carry.  For
    the same reason p + s never carries, so the map from a key to its cell
    i * base + j is additive: each state's suffix and prefix counters are
    read into cells once each, and the two small results multiplied out.
    When the suffixes fill one cell, as in a joined tally, the prefixes are
    added straight in, shifted by it."""
    base, place = _layout(k, n)
    marks = []
    for diffs in (first, second):
        places = [place(d) for d in set(diffs) if abs(d) < k]
        u = max(places, default=1)
        marks += [sum(u // v for v in places), u]
    mp, up, mq, uq = marks
    size = base * base if mp else base  # no p-mark: every i is 0
    cells = [0] * size
    for prefixes, suffixes in tally:
        right = {}
        for key, count in suffixes.items():
            cell = key * mp // up % base * base + key * mq // uq % base
            right[cell] = right.get(cell, 0) + count
        if len(right) == 1:
            [(shift, times)] = right.items()
            left = cells
        else:
            shift, times, left = 0, 1, [0] * size
        if mp:
            for key, count in prefixes.items():
                left[key * mp // up % base * base + key * mq // uq % base + shift] += count * times
        else:
            for key, count in prefixes.items():
                left[key * mq // uq % base + shift] += count * times
        if left is not cells:
            left = [(i, c) for i, c in enumerate(left) if c]
            for j, d in right.items():
                for i, c in left:
                    cells[i + j] += c * d
    return [cells[i:i + base] for i in range(0, size, base)] if mp else [cells]


@lru_cache(maxsize=None)
def _tally(n, k, banned, gap, growth):
    """`_count(k, n, banned, gap, growth)`, stored for every read of it."""
    return _count(k, n, banned, gap, growth)


@lru_cache(maxsize=None)
def _marginal(n, k, gap, growth, banned, first, second):
    """`_read` of one family's tally, rows as q-polynomials, once per
    argument tuple.  For plain words the rows must count all k^n words."""
    rows = _read(_tally(n, k, banned, gap, growth), k, n, first, second)
    visited = sum(map(sum, rows))
    if not (banned or growth) and visited != max(k, 0) ** n:
        raise InternalInvariantViolation(f"walk visited {visited} of {k}^{n} words")
    return tuple(map(QPoly, rows))


def _word_rows(k, n, cap, banned=frozenset(), gap=1, first=(), second=()):
    """`_marginal` of the k-ary words of length n, once k^n is within cap."""
    if k**n > cap:
        raise EnumerationTooLarge(f"{k}^{n} words exceed enumeration cap {cap}")
    return _marginal(n, k, gap, False, banned, first, second)


def distribution_mu(k, s, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of rises by exactly s (pairs a, a+s)."""
    return _word_rows(k, n, cap, second=(s,))[0]


def distribution_nu(k, s, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of jumps of absolute size s."""
    return _word_rows(k, n, cap, second=tuple(sorted({s, -s})) if s >= 0 else ())[0]


def distribution_gap(k, s, r, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of indices i with w[i+r] - w[i] = s."""
    if r < 1:
        raise ValueError("gap must be >= 1")
    return _word_rows(k, n, cap, gap=r, second=(s,))[0]


def joint_lev_asc(n, cap=DEFAULT_CAP) -> PQPoly:
    """Joint (level, ascent) distribution over 3-ary words avoiding 1-3,
    as a bivariate polynomial with p marking levels and q marking ascents."""
    return PQPoly(_word_rows(3, n, cap, frozenset({(1, 3)}), first=(0,), second=(1, 2)))


def joint_lev_des(n, cap=DEFAULT_CAP) -> PQPoly:
    """Joint (level, descent) distribution over 3-ary words avoiding 1-3."""
    return PQPoly(_word_rows(3, n, cap, frozenset({(1, 3)}), first=(0,), second=(-1, -2)))


def count_avoiders(k, n, forbidden, cap=DEFAULT_CAP) -> int:
    """Number of k-ary words of length n with no adjacent pair from
    `forbidden` (a collection of ordered (first, second) pairs)."""
    bad = frozenset(forbidden)
    for a, b in bad:
        if not (1 <= a <= k and 1 <= b <= k):
            raise ValueError(f"forbidden pair {(a, b)} outside alphabet [1, {k}]")
    return _word_rows(k, n, cap, bad)[0].coeff(0)


def total_mu_oracle(k, s, n, cap=DEFAULT_CAP) -> int:
    """Summed count of (a, a+s) adjacencies over all k-ary words of length n."""
    return distribution_mu(k, s, n, cap).derivative()(1)
