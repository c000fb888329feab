import gc
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import absdiff, kary, transfer
from adjstats.algebra import Poly, PQPoly, QPoly, XPoly
from adjstats.oracle import count_avoiders
from adjstats.transfer import fresh_rows, transfer_dp


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
    totals = transfer_dp(k, marks, n, 1)
    assert (totals[n], fresh_rows(k, marks, n, 1)[n]) == brute_force(k, marks, n)
    assert totals[0] == 1


@given(mark_sets(st.just(0)), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_forbidden_pairs_match_oracle(case, n):
    k, marks = case
    forbidden = frozenset(pair for pair, _ in marks)
    assert transfer_dp(k, marks, n, 1)[n] == count_avoiders(k, n, forbidden)


FILLS = (transfer_dp, fresh_rows)


@pytest.mark.parametrize("pair", [(0, 1), (1, 4), (-1, 2), (2, -3)])
def test_pair_outside_alphabet_rejected(pair):
    for fill in FILLS:
        with pytest.raises(ValueError):
            fill(3, ((pair, 0),), 4, 1)


def test_pair_marked_twice_rejected():
    for fill in FILLS:
        with pytest.raises(ValueError):
            fill(3, (((1, 2), 0), ((1, 2), 5)), 4, 1)


@pytest.mark.parametrize("k,order", [(0, 3), (3, -1)])
def test_empty_alphabet_and_negative_order_rejected(k, order):
    for fill in FILLS:
        with pytest.raises(ValueError):
            fill(k, (), order, 1)


def fresh_fill(k, marks, order, one):
    """The totals a store holding nothing yet would give."""
    with mock.patch.dict(transfer._tables, clear=True):
        return list(transfer_dp(k, marks, order, one))


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
            assert list(transfer_dp(k, marks, order, one)) == fresh_fill(k, marks, order, one)


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
    """The packed fill against the schoolbook one: stored totals over
    requests that outgrow the stored capacity and then shrink, and rows
    filled fresh.  2q - 1 gives the packed entries negative digits."""
    weights, one = RINGS[ring]
    k, marks = data.draw(mark_sets(weights))
    growing = data.draw(st.lists(st.integers(0, 10), min_size=2, max_size=4, unique=True))
    orders = sorted(growing) + data.draw(st.lists(st.integers(0, max(growing)), max_size=2))
    rows, totals = row_formula(k, marks, max(orders), one)
    with mock.patch.dict(transfer._tables, clear=True):
        for i, order in enumerate(orders):
            got = transfer_dp(k, marks, order, one)
            assert list(got) == totals[: order + 1]
            assert all(type(total) is type(one) for total in got)
            [table] = transfer._tables.values()
            assert table.capacity >= max(orders[: i + 1])
    got = fresh_rows(k, marks, max(orders), one)
    assert got == rows
    assert all(type(entry) is type(one) for row in got for entry in row)


@st.composite
def shaped_mark_sets(draw, weights):
    """(k, marks): every rise by s or every jump of size s under one drawn
    weight, whose letters fall into few classes, or a random mark set."""
    shape = draw(st.sampled_from(["rise", "jump", "random"]))
    if shape == "random":
        return draw(mark_sets(weights))
    k, s, weight = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(weights)
    pairs = {(i - s, i) for i in range(s + 1, k + 1)}
    if shape == "jump":
        pairs |= {(i + s, i) for i in range(1, k - s + 1)}
    return k, tuple((pair, weight) for pair in sorted(pairs))


def letter_terms(k, marks, one):
    """The (j, exps, c) terms of each letter: those of a table whose
    classes are the single letters."""
    table = transfer._Table(k, marks, one, 1, [[i] for i in range(k)])
    return [terms for _, terms in table.terms]


def classes_by_rounds(k, terms):
    """The coarsest partition on which every row is constant, refined by
    whole rounds: each round splits every class by the summed terms of its
    letters from every class, until a round splits none."""
    block = [0] * k
    while True:
        signatures = []
        for i in range(k):
            summed = {}
            for j, exps, c in terms[i]:
                summed[block[j], exps] = summed.get((block[j], exps), 0) + c
            signatures.append((block[i], frozenset(x for x in summed.items() if x[1])))
        ids = {}
        refined = [ids.setdefault(signature, len(ids)) for signature in signatures]
        if len(ids) == len(set(block)):
            return sorted([i for i in range(k) if block[i] == b] for b in set(block))
        block = refined


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_class_totals_match_every_letter(ring, data):
    """A table filled over classes of letters against the letters filled
    one by one and against every word.  The classes are the coarsest
    partition refined by whole rounds, and the letters of one class share
    every entry."""
    weights, one = RINGS[ring]
    k, marks = data.draw(shaped_mark_sets(weights))
    n = data.draw(st.integers(1, 4))
    rows = fresh_rows(k, marks, n, one)
    totals = fresh_fill(k, marks, n, one)
    for m in range(1, n + 1):
        assert totals[m] == sum(rows[m][1:], rows[m][0])
    assert totals[n] == brute_force(k, marks, n)[0]
    terms = letter_terms(k, marks, one)
    classes = transfer._classes(k, terms)
    assert classes == classes_by_rounds(k, terms)
    for letters in classes:
        assert all(rows[m][i] == rows[m][letters[0]] for m in range(1, n + 1) for i in letters)
    assert len(transfer._Table(k, marks, one, n).row) == len(classes)


@pytest.mark.parametrize("marks,k,classes", [
    (kary._rise_marks(kary.KSParams(7, 3), QPoly.var()), 7, [[0, 1, 2], [3, 4, 5], [6]]),
    (absdiff._jump_marks(8, 2), 8, [[0, 1, 6, 7], [2, 3, 4, 5]]),
    (absdiff._jump_marks(5, 3), 5, [[0, 1, 3, 4], [2]]),
])
def test_letters_sharing_an_entry_form_one_class(marks, k, classes):
    assert transfer._classes(k, letter_terms(k, marks, QPoly.const(1))) == classes


@pytest.mark.parametrize("k,s", [(1, 1), (4, 1), (6, 2), (7, 3), (9, 4), (12, 5), (20, 3)])
def test_a_rise_table_keeps_one_entry_per_chain_place(k, s):
    """Letters at one place of their chains a, a+s, a+2s, ... share an
    entry, so a rise table keeps steps + 1 of them."""
    params = kary.KSParams(k, s)
    with mock.patch.dict(transfer._tables, clear=True):
        kary.a_table(params, 3)
        [table] = transfer._tables.values()
    assert len(table.row) == params.steps + 1


@pytest.mark.parametrize("k,s,count", [(8, 2, 2), (5, 3, 2), (20, 3, 7), (4, 1, 2)])
def test_jump_table_class_counts(k, s, count):
    with mock.patch.dict(transfer._tables, clear=True):
        absdiff.b_table(k, s, 3)
        [table] = transfer._tables.values()
    assert len(table.row) == count


def test_fresh_rows_fill_every_letter_apart():
    """Twenty letters of seven classes give twenty entries a row, and no
    classes are formed for them."""
    with mock.patch.object(transfer, "_classes", side_effect=AssertionError):
        rows = fresh_rows(20, absdiff._jump_marks(20, 3), 6, QPoly.const(1))
    assert rows[0] == () and all(len(row) == 20 for row in rows[1:])


def test_a_long_chain_splits_into_single_letters():
    """Every letter of a chain of rises by 1 over 3,000 letters is its own
    class, the deepest refinement there is."""
    k = 3000
    marks = kary._rise_marks(kary.KSParams(k, 1), QPoly.var())
    assert transfer._classes(k, letter_terms(k, marks, QPoly.const(1))) == [[i] for i in range(k)]


def test_weight_outside_the_ring_of_one_rejected():
    cases = [(PQPoly.p(), QPoly.const(1)), (QPoly.var(), 1),
             (QPoly((0, Fraction(1, 2))), QPoly.const(1)),  # not an integer coefficient
             (XPoly.x(), XPoly.const(1)), (0, 1.0)]  # rings no table is kept over
    for weight, one in cases:
        for fill in FILLS:
            with pytest.raises(ValueError):
                fill(2, (((1, 2), weight),), 3, one)


@pytest.mark.parametrize("first,second", [(1, QPoly.const(1)), (QPoly.const(1), 1)])
def test_integer_and_polynomial_tables_stay_apart(first, second):
    marks = (((1, 2), 0),)
    with mock.patch.dict(transfer._tables, clear=True):
        for one in (first, second):
            totals = transfer_dp(2, marks, 6, one)
            assert all(type(total) is type(one) for total in totals)
            assert totals[6] == 7  # 2..21..1 are the words avoiding 12
        assert len(transfer._tables) == 2


@pytest.mark.parametrize("marks", [(((0, 1), 0),), (((1, 2), 0), ((1, 2), 5))])
def test_invalid_marks_raise_on_every_call(marks):
    for order in (4, 2, 6):
        with pytest.raises(ValueError):
            transfer_dp(3, marks, order, 1)


def test_longer_request_extends_the_stored_rows():
    """Within its capacity a table appends to its totals; past it, the
    table refills at twice the capacity.  A total is decoded once."""
    marks = (((1, 2), QPoly.var()), ((2, 3), QPoly.var()))
    one = QPoly.const(1)
    with mock.patch.dict(transfer._tables, clear=True):
        short = transfer_dp(3, marks, 10, one)
        [table] = transfer._tables.values()
        assert table.capacity == 10 and len(table.totals) == 11
        first = short[10]
        long = transfer_dp(3, marks, 15, one)
        assert table.capacity == 20 and len(table.totals) == 16
        stored = table.totals
        longer = transfer_dp(3, marks, 20, one)
        assert table.capacity == 20 and table.totals is stored and len(stored) == 21
        assert long[10] is longer[10] is first
        assert list(transfer_dp(3, marks, 10, one)) == list(short) == list(longer)[:11]
        assert len(table.row) == 3


def test_threads_extending_one_table_append_each_row_once():
    marks = tuple(((i, i + 1), QPoly.var()) for i in range(1, 4))
    orders = [15, 40, 25, 40, 30, 10]
    expected = [fresh_fill(4, marks, order, QPoly.const(1)) for order in orders]
    fill = transfer._next_row
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            # one packing per capacity; the previous total names the length
            appended = []

            def step(into, row, total):
                appended.append((into, total))
                return fill(into, row, total)

            with mock.patch.dict(transfer._tables, clear=True), \
                    mock.patch.object(transfer, "_next_row", step):
                with ThreadPoolExecutor(4) as pool:
                    got = list(pool.map(lambda n: list(transfer_dp(4, marks, n, QPoly.const(1))),
                                        orders))
                [table] = transfer._tables.values()
                assert len(table.totals) == 41
            assert got == expected
            lengths = [(id(into), total) for into, total in appended]
            assert len(set(lengths)) == len(lengths)
    finally:
        sys.setswitchinterval(interval)


def _tracked_from(root):
    """How many objects reachable from `root`, not through a class, the
    cyclic collector tracks.  A collection untracks a tuple whose items
    are all untracked, so a tuple of tuples of ints takes two."""
    gc.collect()
    gc.collect()
    seen, todo, count = set(), [root], 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        count += gc.is_tracked(obj)
        todo.extend(gc.get_referents(obj))
    return count


def test_a_longer_fill_tracks_no_more_objects():
    marks = tuple(((i, i + 1), QPoly.var()) for i in range(1, 4))
    with mock.patch.dict(transfer._tables, clear=True):
        transfer_dp(4, marks, 200, QPoly.const(1))
        [table] = transfer._tables.values()
        at_200 = _tracked_from(table)
        transfer_dp(4, marks, 400, QPoly.const(1))
        assert table.capacity == 400
        assert _tracked_from(table) == at_200


def test_a_stored_fill_peaks_under_one_mebibyte():
    with mock.patch.dict(transfer._tables, clear=True):
        tracemalloc.start()
        try:
            absdiff.b_table(41, 10, 60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2**20
