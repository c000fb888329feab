import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats.oracle import count_avoiders
from adjstats.transfer import transfer_dp


@st.composite
def mark_sets(draw, weights):
    """(k, marks): distinct pairs inside [1, k], each with a drawn weight."""
    k = draw(st.integers(1, 5))
    pairs = draw(st.sets(st.tuples(st.integers(1, k), st.integers(1, k)), max_size=k * k))
    return k, tuple((pair, draw(weights)) for pair in sorted(pairs))


def brute_force(k, marks, n):
    """Summed weight of all words of length n, and of those ending in each
    letter, as a product of pair weights over every word."""
    weight = dict(marks)
    by_last = [0] * k
    for word in itertools.product(range(1, k + 1), repeat=n):
        w = math.prod(weight.get(pair, 1) for pair in itertools.pairwise(word))
        by_last[word[-1] - 1] += w
    return sum(by_last), tuple(by_last)


@given(mark_sets(st.integers(-2, 3)), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_matches_brute_force_product(case, n):
    k, marks = case
    table = transfer_dp(k, marks, n, 1)
    assert (table.totals[n], table.rows[n]) == brute_force(k, marks, n)
    assert table.totals[0] == 1


@given(mark_sets(st.just(0)), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_forbidden_pairs_match_oracle(case, n):
    k, marks = case
    forbidden = frozenset(pair for pair, _ in marks)
    assert transfer_dp(k, marks, n, 1).totals[n] == count_avoiders(k, n, forbidden)


@pytest.mark.parametrize("pair", [(0, 1), (1, 4), (-1, 2), (2, -3)])
def test_pair_outside_alphabet_rejected(pair):
    with pytest.raises(ValueError):
        transfer_dp(3, ((pair, 0),), 4, 1)


def test_pair_marked_twice_rejected():
    with pytest.raises(ValueError):
        transfer_dp(3, (((1, 2), 0), ((1, 2), 5)), 4, 1)


@pytest.mark.parametrize("k,order", [(0, 3), (3, -1)])
def test_empty_alphabet_and_negative_order_rejected(k, order):
    with pytest.raises(ValueError):
        transfer_dp(k, (), order, 1)
