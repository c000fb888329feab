"""Brute-force ground truth for word statistics.

One depth-first walk, `_walk`, visits every sequence of a family and
carries its difference profile.  The profiles of one length are tallied
once and every statistic is read off the tally.  Nothing comes from a
recurrence, a closed form or a DP table, so these values are the
independent reference that every other module is checked against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

from .algebra import InternalInvariantViolation, PQPoly, QPoly

DEFAULT_CAP = 10**8


class EnumerationTooLarge(RuntimeError):
    """The number of words or growth sequences to scan exceeds the cap."""


def words(k, n):
    """All k-ary words of length n, streamed in lexicographic order."""
    return itertools.product(range(1, k + 1), repeat=n)


def _walk(k, n, banned=frozenset(), gap=1, growth=False):
    """Every word of length n over 1..k with no adjacent pair in `banned`
    (a pair (0, b) bars b as first letter), in lexicographic order, as
    (word, key, top).  With `growth`, each letter is at most one above the
    running maximum `top`, which gives the restricted growth functions.
    `key` packs the difference profile: its base-max(n, 2) digit d + k - 1
    counts the i with w[i+gap] - w[i] = d."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        yield (), 0, 0
        return
    k = max(k, 0)
    base = max(n, 2)
    # step[a][b]: what a pair (a, b) adds to the key; row 0 is "no pair yet"
    step = [[base ** (b - a + k - 1) if a and b else 0 for b in range(k + 1)]
            for a in range(k + 1)]
    # after[a][top]: the letters that may follow a when the maximum is top
    after = [[tuple(b for b in range(1, (min(top + 1, k) if growth else k) + 1)
                    if (a, b) not in banned) for top in range(k + 1)]
             for a in range(k + 1)]
    last = n - 1
    stack = [((), 0, 0)]
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


def _unpack(key, k, n):
    """The difference profile packed in a key of `_walk`."""
    return tuple(key // max(n, 2) ** i % max(n, 2) for i in range(2 * k - 1))


def _at(profile, d):
    """How many pairs of a profile have difference d."""
    return profile[d + len(profile) // 2] if 2 * abs(d) < len(profile) else 0


@lru_cache(maxsize=None)
def _tally(n, k, banned, gap):
    """{profile: number of words} over the words of `_walk(k, n, banned, gap)`."""
    counts = Counter(key for _, key, _ in _walk(k, n, banned, gap))
    if not banned and counts.total() != max(k, 0) ** n:
        raise InternalInvariantViolation(f"walk visited {counts.total()} of {k}^{n} words")
    return {_unpack(key, k, n): count for key, count in counts.items()}


def _profiles(k, n, cap, banned=frozenset(), gap=1):
    if k**n > cap:
        raise EnumerationTooLarge(f"{k}^{n} words exceed enumeration cap {cap}")
    return _tally(n, k, banned, gap)


def _poly(tally, stat):
    """Sum of count * q^stat(profile) over a tally."""
    coeffs = Counter()
    for profile, count in tally.items():
        coeffs[stat(profile)] += count
    return QPoly(coeffs[m] for m in range(max(coeffs, default=-1) + 1))


@lru_cache(maxsize=None)
def _marginal(n, k, gap, diffs):
    """Distribution of the number of indices i with w[i+gap] - w[i] in
    `diffs` over the k-ary words of length n, built once per argument
    tuple from their tally."""
    return _poly(_tally(n, k, frozenset(), gap), lambda p: sum(_at(p, d) for d in diffs))


def distribution_mu(k, s, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of rises by exactly s (pairs a, a+s)."""
    _profiles(k, n, cap)
    return _marginal(n, k, 1, (s,))


def distribution_nu(k, s, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of jumps of absolute size s."""
    _profiles(k, n, cap)
    return _marginal(n, k, 1, tuple(sorted({s, -s})) if s >= 0 else ())


def distribution_gap(k, s, r, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of indices i with w[i+r] - w[i] = s."""
    if r < 1:
        raise ValueError("gap must be >= 1")
    _profiles(k, n, cap, gap=r)
    return _marginal(n, k, r, (s,))


def _joint(n, second_stat, cap):
    tally = _profiles(3, n, cap, frozenset({(1, 3)}))
    return PQPoly(_poly({p: c for p, c in tally.items() if _at(p, 0) == lev}, second_stat)
                  for lev in range(max(n, 1)))


def joint_lev_asc(n, cap=DEFAULT_CAP) -> PQPoly:
    """Joint (level, ascent) distribution over 3-ary words avoiding 1-3,
    as a bivariate polynomial with p marking levels and q marking ascents."""
    return _joint(n, lambda p: _at(p, 1) + _at(p, 2), cap)


def joint_lev_des(n, cap=DEFAULT_CAP) -> PQPoly:
    """Joint (level, descent) distribution over 3-ary words avoiding 1-3."""
    return _joint(n, lambda p: _at(p, -1) + _at(p, -2), cap)


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
    return sum(_at(p, s) * count for p, count in _profiles(k, n, cap).items())
