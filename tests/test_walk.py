"""Differential tests of the walk behind the oracle, the
growth-sequence scans and the bijection families, against plain
`itertools.product` + `pairwise` scanners and a naive recursive
growth-sequence generator kept here as references; and of the oracle's
meet-in-the-middle count, against a per-word tally of the walk."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import oracle
from adjstats.algebra import QPoly
from adjstats.bijections import (
    is_level_free_no13_start2,
    is_v_word,
    is_w_word,
    jpp_words,
    v_words,
    w_words,
)
from adjstats.oracle import (
    count_avoiders,
    distribution_gap,
    distribution_mu,
    distribution_nu,
    total_mu_oracle,
    words,
)
from adjstats.partitions import enumerate_rgf, p_dist_oracle, p_total_all_oracle
from test_oracle import joined, unpack

EXAMPLES = settings(max_examples=60, deadline=None)


def scan(k, n, stat):
    """Distribution of stat(word) over all k-ary words of length n."""
    counts = [0] * max(n, 1)
    for w in itertools.product(range(1, k + 1), repeat=n):
        counts[stat(w)] += 1
    return QPoly(counts)


def rises(w, s, r=1):
    return sum(w[i + r] - w[i] == s for i in range(len(w) - r))


def avoids(w, banned):
    return not any(pair in banned for pair in itertools.pairwise(w))


def naive_rgfs(n):
    """Growth sequences of length n, by recursion on the prefix."""
    def extend(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for letter in range(1, max(prefix, default=0) + 2):
            yield from extend(prefix + [letter])
    return list(extend([]))


small_k = st.integers(1, 5)
small_n = st.integers(0, 6)
step = st.integers(-5, 5)


@st.composite
def banned_sets(draw, first_letter=False):
    """(k, banned): adjacent pairs inside [1, k], and optionally pairs
    (0, b) that bar b as the first letter."""
    k = draw(small_k)
    low = 0 if first_letter else 1
    pairs = st.tuples(st.integers(low, k), st.integers(1, k))
    return k, frozenset(draw(st.sets(pairs, max_size=k * k)))


@given(small_k, step, small_n)
@EXAMPLES
def test_mu_nu_and_total_match_scan(k, s, n):
    assert distribution_mu(k, s, n) == scan(k, n, lambda w: rises(w, s))
    jumps = scan(k, n, lambda w: sum(abs(b - a) == s for a, b in itertools.pairwise(w)))
    assert distribution_nu(k, s, n) == jumps
    want = sum(rises(w, s) for w in itertools.product(range(1, k + 1), repeat=n))
    assert total_mu_oracle(k, s, n) == want


@given(small_k, step, st.integers(1, 7), small_n)
@EXAMPLES
def test_gap_matches_scan(k, s, r, n):
    assert distribution_gap(k, s, r, n) == scan(k, n, lambda w: rises(w, s, r))


@given(banned_sets(), small_n)
@EXAMPLES
def test_count_avoiders_matches_scan(case, n):
    k, banned = case
    want = sum(avoids(w, banned) for w in itertools.product(range(1, k + 1), repeat=n))
    assert count_avoiders(k, n, banned) == want


@given(banned_sets(first_letter=True), st.integers(1, 4), small_n)
@EXAMPLES
def test_walk_visits_the_family_in_order_with_its_profile(case, gap, n):
    k, banned = case
    want = [w for w in itertools.product(range(1, k + 1), repeat=n)
            if avoids((0,) + w, banned)]
    visited = list(oracle._walk(k, n, banned, gap))
    assert [w for w, _, _ in visited] == want
    for w, key, top in visited:
        profile = unpack(key, k, n)
        assert profile == tuple(rises(w, d, gap) for d in range(1 - k, k))
        assert top == max(w, default=0)


def per_word_count(k, n, banned, gap, growth):
    """The tally `oracle._count` must give, multiplied out: one key per
    visited word."""
    return Counter(key for _, key, _ in oracle._walk(k, n, banned, gap, growth))


def block_length(k):
    """The least n with k^n >= 256.  The counts at n - 1, n and n + 1 take
    words of both parities across the meeting rule, m = (n - gap + 1) // 2
    letters met while k^m stays within the count's bound of 1024: with
    k^m < 8 the count walks plainly, and otherwise it meets a suffix of m
    letters with a prefix of the rest."""
    return next(n for n in itertools.count() if k**n >= 256)


@given(banned_sets(first_letter=True), st.integers(1, 4), st.integers(0, 8), st.booleans())
@settings(max_examples=40, deadline=None)
def test_count_matches_a_per_word_tally(case, gap, n, growth):
    k, banned = case
    assert joined(oracle._count(k, n, banned, gap, growth)) == per_word_count(
        k, n, banned, gap, growth)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("shift", [-1, 0, 1], ids=["below", "at", "above"])
@pytest.mark.parametrize("gap", [1, 2])
@pytest.mark.parametrize("growth", [False, True], ids=["words", "growth"])
def test_count_around_the_block_length(k, shift, gap, growth):
    n = block_length(k) + shift
    banned = frozenset({(0, 2), (1, 1)})
    for bans in (frozenset(), banned):
        assert joined(oracle._count(k, n, bans, gap, growth)) == per_word_count(
            k, n, bans, gap, growth)


@given(banned_sets(first_letter=True), st.integers(1, 4), st.integers(0, 6), st.booleans(),
       st.data())
@EXAMPLES
def test_extensions_of_every_prefix_rebuild_the_walk(case, gap, n, growth, data):
    k, banned = case
    stop = data.draw(st.integers(0, n))
    full = list(oracle._walk(k, n, banned, gap, growth))
    from_prefix, from_state = [], []
    for word, key, top in oracle._walk(k, n, banned, gap, growth, stop=stop):
        for whole, inc, last_top in oracle._walk(k, n, banned, gap, growth,
                                                 start=(word, top)):
            from_prefix.append((whole, key + inc, last_top))
        state = word[-gap:]
        for tail, inc, last_top in oracle._walk(k, n, banned, gap, growth, start=(state, top),
                                                stop=len(state) + n - stop):
            from_state.append((word + tail[len(state):], key + inc, last_top))
    assert from_prefix == full
    assert from_state == full


@given(st.integers(0, 7), st.integers(0, 8), step)
@EXAMPLES
def test_growth_sequences_match_naive_recursion(n, k, s):
    every = naive_rgfs(n)
    assert list(enumerate_rgf(n)) == every
    with_k = [w for w in every if max(w, default=0) == k]
    assert list(enumerate_rgf(n, k)) == with_k
    counts = [0] * max(n, 1)
    for w in with_k:
        counts[rises(w, s)] += 1
    assert p_dist_oracle(n, k, s) == QPoly(counts)
    assert p_total_all_oracle(n, s) == sum(rises(w, s) for w in every)


@given(st.integers(0, 7))
@settings(max_examples=8, deadline=None)
def test_families_are_the_filtered_words_in_order(n):
    assert list(v_words(n)) == [w for w in words(4, n) if is_v_word(w)]
    assert list(w_words(n)) == [w for w in words(4, n) if is_w_word(w)]
    assert list(jpp_words(n)) == [w for w in words(3, n) if is_level_free_no13_start2(w)]
    assert all(avoids(w, {(2, 4), (3, 4)}) for w in v_words(n))
    assert all(avoids(w, {(1, 3), (2, 4)}) for w in w_words(n))
    assert all(avoids(w, {(1, 1), (2, 2), (3, 3), (1, 3)}) and w[:1] in ((), (2,))
               for w in jpp_words(n))
