"""Brute-force ground truth for word statistics.

Every function here enumerates k-ary words one by one and counts; nothing
is derived from a recurrence or closed form, so these values are the
independent reference that every other module is checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebra import InternalInvariantViolation, PQPoly, QPoly

DEFAULT_CAP = 10**8


class EnumerationTooLarge(RuntimeError):
    """The number of words or growth sequences to scan exceeds the cap."""


def _guard(k, n, cap):
    if k**n > cap:
        raise EnumerationTooLarge(f"{k}^{n} words exceed enumeration cap {cap}")


def words(k, n):
    """All k-ary words of length n, streamed in lexicographic order."""
    return itertools.product(range(1, k + 1), repeat=n)


@dataclass(frozen=True)
class StatBundle:
    """All adjacency statistics of one word, computed in a single pass."""

    mu: int  # indices with w[i+1] - w[i] = s
    nu: int  # indices with |w[i+1] - w[i]| = s
    lev: int
    asc: int
    des: int


def stat_bundle(word, s) -> StatBundle:
    mu = nu = lev = asc = des = 0
    for a, b in itertools.pairwise(word):
        d = b - a
        if d == s:
            mu += 1
        if abs(d) == s:
            nu += 1
        if d == 0:
            lev += 1
        elif d > 0:
            asc += 1
        else:
            des += 1
    if lev + asc + des != max(len(word) - 1, 0):
        raise InternalInvariantViolation(f"levels, ascents and descents miscount {word}")
    return StatBundle(mu, nu, lev, asc, des)


@lru_cache(maxsize=None)
def distribution_mu(k, s, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of rises by exactly s (pairs a, a+s)."""
    _guard(k, n, cap)
    counts = [0] * max(n, 1)
    for w in words(k, n):
        m = sum(b - a == s for a, b in itertools.pairwise(w))
        counts[m] += 1
    return QPoly(counts)


@lru_cache(maxsize=None)
def distribution_nu(k, s, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of jumps of absolute size s."""
    _guard(k, n, cap)
    counts = [0] * max(n, 1)
    for w in words(k, n):
        m = sum(abs(b - a) == s for a, b in itertools.pairwise(w))
        counts[m] += 1
    return QPoly(counts)


@lru_cache(maxsize=None)
def distribution_gap(k, s, r, n, cap=DEFAULT_CAP) -> QPoly:
    """Distribution of the count of indices i with w[i+r] - w[i] = s."""
    if r < 1:
        raise ValueError("gap must be >= 1")
    _guard(k, n, cap)
    counts = [0] * max(n, 1)
    for w in words(k, n):
        m = sum(w[i + r] - w[i] == s for i in range(n - r))
        counts[m] += 1
    return QPoly(counts)


def ternary_no_13_words(n):
    """The 3-ary words of length n with no adjacent pair (1, 3)."""
    for w in words(3, n):
        if any(a == 1 and b == 3 for a, b in itertools.pairwise(w)):
            continue
        yield w


def _joint(n, second_stat, cap):
    _guard(3, n, cap)
    size = max(n, 1)
    grid = [[0] * size for _ in range(size)]
    for w in ternary_no_13_words(n):
        b = stat_bundle(w, 1)
        grid[b.lev][second_stat(b)] += 1
    return PQPoly(QPoly(row) for row in grid)


@lru_cache(maxsize=None)
def joint_lev_asc(n, cap=DEFAULT_CAP) -> PQPoly:
    """Joint (level, ascent) distribution over 3-ary words avoiding 1-3,
    as a bivariate polynomial with p marking levels and q marking ascents."""
    return _joint(n, lambda b: b.asc, cap)


@lru_cache(maxsize=None)
def joint_lev_des(n, cap=DEFAULT_CAP) -> PQPoly:
    """Joint (level, descent) distribution over 3-ary words avoiding 1-3."""
    return _joint(n, lambda b: b.des, cap)


@lru_cache(maxsize=None)
def count_avoiders(k, n, forbidden, cap=DEFAULT_CAP) -> int:
    """Number of k-ary words of length n with no adjacent pair from
    `forbidden` (a collection of ordered (first, second) pairs)."""
    bad = frozenset(forbidden)
    for a, b in bad:
        if not (1 <= a <= k and 1 <= b <= k):
            raise ValueError(f"forbidden pair {(a, b)} outside alphabet [1, {k}]")
    _guard(k, n, cap)
    total = 0
    for w in words(k, n):
        if not any((a, b) in bad for a, b in itertools.pairwise(w)):
            total += 1
    return total


def total_mu_oracle(k, s, n, cap=DEFAULT_CAP) -> int:
    """Summed count of (a, a+s) adjacencies over all k-ary words of length n,
    read off the distribution as its derivative at q = 1."""
    return distribution_mu(k, s, n, cap).derivative()(1)
