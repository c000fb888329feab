import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import transfer
from adjstats.algebra import Poly, PQPoly, QPoly
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


def fresh_fill(k, marks, order, one):
    """The table a store holding nothing yet would build."""
    with mock.patch.dict(transfer._tables, clear=True):
        return transfer_dp(k, marks, order, one)


poly_weights = st.lists(st.integers(-2, 2), max_size=3).map(QPoly)


@pytest.mark.parametrize("weights,one", [(st.integers(-2, 3), 1),
                                         (poly_weights, QPoly.const(1))])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stored_table_reads_like_a_fresh_fill(weights, one, data):
    k, marks = data.draw(mark_sets(weights))
    orders = data.draw(st.lists(st.integers(0, 9), min_size=3, max_size=6))
    with mock.patch.dict(transfer._tables, clear=True):
        for order in orders:  # growing, shrinking and growing again
            assert transfer_dp(k, marks, order, one) == fresh_fill(k, marks, order, one)


def schoolbook_times(x, y):
    """x * y, a product of polynomials taken one coefficient pair at a
    time at every rank; the higher-rank operand is outer."""
    if not isinstance(x, Poly) and not isinstance(y, Poly):
        return x * y
    if not isinstance(x, Poly) or (isinstance(y, Poly) and y.rank > x.rank):
        x, y = y, x
    ys = y.coeffs if type(y) is type(x) else (y,)
    out = [0] * (len(x.coeffs) + len(ys) - 1) if x.coeffs and ys else []
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(ys):
            if a != 0 and b != 0:
                out[i + j] = out[i + j] + schoolbook_times(a, b)
    return type(x)(out)


def row_formula(k, marks, order, one):
    """Rows and totals by the row formula entry + delta * prev_row[j], one
    schoolbook product per marked pair."""
    rows, totals = [(), (one,) * k], [one, one * k]
    while len(rows) <= order:
        row = []
        for i in range(k):
            entry = totals[-1]
            for (a, b), weight in marks:
                if b == i + 1:
                    entry = entry + schoolbook_times(weight - one, rows[-1][a - 1])
            row.append(entry)
        rows.append(tuple(row))
        totals.append(sum(row[1:], row[0]))
    return rows[: order + 1], totals[: order + 1]


P, Q = PQPoly.p(), PQPoly.q()
RINGS = {
    "int": (st.sampled_from([0, 2]), 1),
    "QPoly": (st.sampled_from([0, 2, QPoly.var(), 2 * QPoly.var() - 1]), QPoly.const(1)),
    "PQPoly": (st.sampled_from([0, 2, Q, 2 * Q - 1, P]), PQPoly.const(1)),
}


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_matches_the_row_formula(ring, data):
    weights, one = RINGS[ring]
    k, marks = data.draw(mark_sets(weights))
    order = data.draw(st.integers(0, 8))
    table = fresh_fill(k, marks, order, one)
    assert (table.rows, table.totals) == row_formula(k, marks, order, one)
    assert all(type(entry) is type(one) for row in table.rows for entry in row)
    assert all(type(total) is type(one) for total in table.totals)


def test_weight_outside_the_ring_of_one_rejected():
    with pytest.raises(ValueError):
        transfer_dp(2, (((1, 2), PQPoly.p()),), 3, QPoly.const(1))


@pytest.mark.parametrize("first,second", [(1, QPoly.const(1)), (QPoly.const(1), 1)])
def test_integer_and_polynomial_tables_stay_apart(first, second):
    marks = (((1, 2), 0),)
    with mock.patch.dict(transfer._tables, clear=True):
        for one in (first, second):
            table = transfer_dp(2, marks, 6, one)
            assert all(type(total) is type(one) for total in table.totals)
            assert table.totals[6] == 7  # 2..21..1 are the words avoiding 12
        assert len(transfer._tables) == 2


@pytest.mark.parametrize("marks", [(((0, 1), 0),), (((1, 2), 0), ((1, 2), 5))])
def test_invalid_marks_raise_on_every_call(marks):
    for order in (4, 2, 6):
        with pytest.raises(ValueError):
            transfer_dp(3, marks, order, 1)


def test_longer_request_extends_the_stored_rows():
    marks = (((1, 2), QPoly.var()), ((2, 3), QPoly.var()))
    with mock.patch.dict(transfer._tables, clear=True):
        short = transfer_dp(3, marks, 10, QPoly.const(1))
        long = transfer_dp(3, marks, 20, QPoly.const(1))
        assert all(a is b for a, b in zip(short.rows, long.rows))
        assert transfer_dp(3, marks, 10, QPoly.const(1)) == short


def test_threads_extending_one_table_append_each_row_once():
    marks = tuple(((i, i + 1), QPoly.var()) for i in range(1, 4))
    orders = [15, 40, 25, 40, 30, 10]
    expected = [fresh_fill(4, marks, order, QPoly.const(1)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with mock.patch.dict(transfer._tables, clear=True):
                with ThreadPoolExecutor(4) as pool:
                    got = list(pool.map(lambda n: transfer_dp(4, marks, n, QPoly.const(1)),
                                        orders))
                [(_, rows, totals)] = transfer._tables.values()
                assert len(rows) == len(totals) == 41
            assert got == expected
    finally:
        sys.setswitchinterval(interval)
