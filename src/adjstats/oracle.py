"""Brute-force ground truth for word statistics.

One depth-first walk, `_walk`, visits every sequence of a family in
lexicographic order and carries its difference profile packed into one
integer key.  A family is data: an alphabet 1..k, banned pairs, a gap
and the growth flag, which gives the restricted growth functions with
maximum at most k.  `_count` tallies the keys of one length by meeting
in the middle (Horowitz and Sahni 1974): it counts the keys of the
prefixes m letters short of the end per junction state, counts once per
state the key increments of the m-letter suffixes that may follow it,
and multiplies the two counters out.  Every prefix and every suffix is
visited; words are combined only by distributivity.  Every statistic is
read off the packed keys of that tally in one pass over it, in one layout
for words and growth sequences alike.  Nothing comes from a recurrence,
a closed form or a DP table, so these values are the independent
reference that every other module is checked against.
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


@lru_cache(maxsize=32)
def _walk_tables(k, n, banned, growth):
    """The `step` and `after` tables of `_walk` for one family, shared (as
    tuples) by every walk of it; a count makes one walk per junction state."""
    base = max(n, 2)
    # step[a][b]: what a pair (a, b) adds to the key; row 0 is "no pair yet"
    step = tuple(tuple(base ** (b - a + k - 1) if a and b else 0 for b in range(k + 1))
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
    `key` packs the difference profile: its base-max(n, 2) digit d + k - 1
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
    """Counter {key: number of words} over `_walk(k, n, banned, gap, growth)`,
    met in the middle.

    m is the largest length <= n // 2 with k^m <= 1024.  The walk to
    length n - m gives, per junction state (the last `gap` letters and,
    with `growth`, the maximum), how many prefixes carry each key.  One
    walk of the m-letter extensions of each state gives how many suffixes
    add each key increment.  A word is one prefix and one suffix of the
    same state, and its key is their sum, so key p + s gains c * d for
    every prefix entry (p, c) and suffix entry (s, d) of a state.  When
    n - m <= gap, each state is one whole prefix and meeting saves no
    walk, so m = 0: the count is one plain walk."""
    m = 0
    while m < n // 2 and k ** (m + 1) <= 1024:
        m += 1
    if n - m <= gap:
        return Counter(key for _, key, _ in _walk(k, n, banned, gap, growth))
    prefixes = {}
    for word, key, top in _walk(k, n, banned, gap, growth, stop=n - m):
        state = word[-gap:], top if growth else 0
        keys = prefixes.get(state)
        if keys is None:
            keys = prefixes[state] = {}
        keys[key] = keys.get(key, 0) + 1
    counts = Counter()
    get = counts.get
    for (tail, top), keys in prefixes.items():
        suffixes = Counter(inc for _, inc, _ in _walk(
            k, n, banned, gap, growth, start=(tail, top), stop=len(tail) + m))
        entries = list(keys.items())
        for inc, d in suffixes.items():
            for key, c in entries:
                counts[key + inc] = get(key + inc, 0) + c * d
    return counts


def _unpack(key, k, n):
    """The difference profile packed in a key of `_walk`."""
    base = max(n, 2)
    return tuple(key // base**i % base for i in range(2 * k - 1))


def _read(tally, k, n, diffs):
    """[c_0, c_1, ...] in one pass over a tally of `_walk(k, n, ...)`: c_i
    counts the sequences with i pairs whose difference is in `diffs`, the
    sum of (at most two) digits of their key.  A missing second digit is
    read at the place past the key's 2k - 1 digits, where it is 0."""
    base = max(n, 2)
    units = [base ** (d + k - 1) for d in diffs if abs(d) < k]
    u, v = units + [base ** (2 * max(k, 0))] * (2 - len(units))
    coeffs = [0] * base
    for key, count in tally.items():
        coeffs[key // u % base + key // v % base] += count
    return coeffs


@lru_cache(maxsize=None)
def _tally(n, k, banned, gap, growth):
    """{key: number of sequences} over `_walk(k, n, banned, gap, growth)`."""
    counts = _count(k, n, banned, gap, growth)
    if not (banned or growth) and counts.total() != max(k, 0) ** n:
        raise InternalInvariantViolation(f"walk visited {counts.total()} of {k}^{n} words")
    return counts


def _profiles(k, n, cap, banned=frozenset(), gap=1):
    if k**n > cap:
        raise EnumerationTooLarge(f"{k}^{n} words exceed enumeration cap {cap}")
    return _tally(n, k, banned, gap, False)


@lru_cache(maxsize=None)
def _marginal(n, k, gap, diffs, growth):
    """Distribution of the number of indices i with w[i+gap] - w[i] in
    `diffs` over the k-ary words of length n (with `growth`, the growth
    sequences with maximum at most k), built once per argument tuple from
    their tally."""
    return QPoly(_read(_tally(n, k, frozenset(), gap, growth), k, n, diffs))


def distribution_mu(k, s, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of rises by exactly s (pairs a, a+s)."""
    _profiles(k, n, cap)
    return _marginal(n, k, 1, (s,), False)


def distribution_nu(k, s, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of jumps of absolute size s."""
    _profiles(k, n, cap)
    return _marginal(n, k, 1, tuple(sorted({s, -s})) if s >= 0 else (), False)


def distribution_gap(k, s, r, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of indices i with w[i+r] - w[i] = s."""
    if r < 1:
        raise ValueError("gap must be >= 1")
    _profiles(k, n, cap, gap=r)
    return _marginal(n, k, r, (s,), False)


def _joint(n, second, cap):
    """p^level q^read over 3-ary words avoiding 1-3, where `read` counts
    the differences in `second`, in one pass over their tally."""
    base = max(n, 2)
    level, u, v = (base ** (d + 2) for d in (0,) + second)
    rows = [[0] * base for _ in range(base)]
    for key, count in _profiles(3, n, cap, frozenset({(1, 3)})).items():
        rows[key // level % base][key // u % base + key // v % base] += count
    return PQPoly(map(QPoly, rows))


def joint_lev_asc(n, cap=DEFAULT_CAP) -> PQPoly:
    """Joint (level, ascent) distribution over 3-ary words avoiding 1-3,
    as a bivariate polynomial with p marking levels and q marking ascents."""
    return _joint(n, (1, 2), cap)


def joint_lev_des(n, cap=DEFAULT_CAP) -> PQPoly:
    """Joint (level, descent) distribution over 3-ary words avoiding 1-3."""
    return _joint(n, (-1, -2), cap)


def count_avoiders(k, n, forbidden, cap=DEFAULT_CAP) -> int:
    """Number of k-ary words of length n with no adjacent pair from
    `forbidden` (a collection of ordered (first, second) pairs)."""
    bad = frozenset(forbidden)
    for a, b in bad:
        if not (1 <= a <= k and 1 <= b <= k):
            raise ValueError(f"forbidden pair {(a, b)} outside alphabet [1, {k}]")
    return sum(_profiles(k, n, cap, bad).values())


def total_mu_oracle(k, s, n, cap=DEFAULT_CAP) -> int:
    """Summed count of (a, a+s) adjacencies over all k-ary words of length n."""
    return distribution_mu(k, s, n, cap).derivative()(1)
