import gc
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import absdiff, kary, oracle, transfer
from adjstats.algebra import Poly, PQPoly, QPoly
from adjstats.transfer import fresh_rows, transfer_dp


SETS = ("banned", "first", "second")

# the sets whose differences carry a weight other than 1 in each ring:
# banned 0, first p, second q
RINGS = {"int": ("banned",), "QPoly": ("banned", "second"), "PQPoly": SETS}


@st.composite
def mark_sets(draw, weights):
    """(k, banned, first, second): each set named in `weights` any subset
    of the differences -(k-1)..k-1 of letters 1..k, the others empty.  A
    difference may sit in several sets."""
    k = draw(st.integers(1, 5))
    diffs = st.sets(st.integers(1 - k, k - 1)).map(sorted).map(tuple)
    return (k, *(draw(diffs) if name in weights else () for name in SETS))


def pair_weights(k, banned, first, second):
    """Each pair (a, b) of letters 1..k with its weight, and the unit of
    the weights' ring: PQPoly if `first` is given, QPoly if only `second`
    is, int otherwise.  A pair weighs 0 if b - a is banned, else p if b - a
    is in `first`, times q if it is in `second`: the rule of
    `transfer_dp`, restated pair by pair as the reference."""
    if first:
        one, p, q = PQPoly.const(1), PQPoly.p(), PQPoly.q()
    else:
        one, p, q = (QPoly.const(1) if second else 1), None, QPoly.var()
    weights = {}
    for a, b in itertools.product(range(1, k + 1), repeat=2):
        d, weight = b - a, one
        if d in banned:
            weight = 0 * one
        else:
            if d in first:
                weight = weight * p
            if d in second:
                weight = weight * q
        weights[a, b] = weight
    return weights, one


def brute_force(k, weights, one, n):
    """Summed weight of all words of length n, and of those ending in each
    letter, as a product of pair weights over every word."""
    by_last = [0 * one] * k
    for word in itertools.product(range(1, k + 1), repeat=n):
        w = math.prod((weights[pair] for pair in itertools.pairwise(word)), start=one)
        by_last[word[-1] - 1] += w
    return sum(by_last[1:], by_last[0]), tuple(by_last)


def banned_pairs(k, banned):
    """The pairs (a, b) of letters 1..k whose difference b - a is banned."""
    return frozenset((a, b) for a, b in itertools.product(range(1, k + 1), repeat=2)
                     if b - a in banned)


@given(mark_sets(RINGS["PQPoly"]), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_matches_brute_force_product(case, n):
    k, *sets = case
    totals = transfer_dp(k, n, *sets)
    assert (totals[n], fresh_rows(k, n, *sets)[n]) == brute_force(k, *pair_weights(k, *sets), n)
    assert totals[0] == 1


@given(mark_sets(RINGS["int"]), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_forbidden_pairs_match_oracle(case, n):
    k, banned, _, _ = case
    assert transfer_dp(k, n, banned)[n] == oracle.count_avoiders(k, n, banned_pairs(k, banned))


@given(mark_sets(RINGS["PQPoly"]), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_one_key_drives_the_dp_and_the_oracle(key, n):
    """The DP's total for one (k, banned, first, second) against the
    oracle's rows for the same sets, its banned differences turned into
    the oracle's banned pairs.  The ring follows the sets given."""
    k, banned, first, second = key
    rows = oracle._word_rows(k, n, oracle.DEFAULT_CAP, banned_pairs(k, banned),
                             first=first, second=second)
    got = transfer_dp(k, n, banned, first, second)[n]
    if first:
        assert type(got) is PQPoly and got == PQPoly(rows)
    elif second:
        assert type(got) is QPoly and got == rows[0]
    else:
        assert type(got) is int and got == rows[0](1)


FILLS = (transfer_dp, fresh_rows)


@pytest.mark.parametrize("k,order", [(0, 3), (3, -1)])
def test_empty_alphabet_and_negative_order_rejected(k, order):
    for fill in FILLS:
        with pytest.raises(ValueError):
            fill(k, order)


def fresh_fill(k, order, *sets):
    """The totals a store holding nothing yet would give."""
    with mock.patch.dict(transfer._tables, clear=True):
        return list(transfer_dp(k, order, *sets))


@pytest.mark.parametrize("weights,one", [(RINGS["int"], 1), (RINGS["QPoly"], QPoly.const(1))])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stored_table_reads_like_a_fresh_fill(weights, one, data):
    """`one` is the unit of the ring the totals lie in once a difference
    carries q."""
    k, *sets = data.draw(mark_sets(weights))
    orders = data.draw(st.lists(st.integers(0, 9), min_size=3, max_size=6))
    with mock.patch.dict(transfer._tables, clear=True):
        for order in orders:  # growing, shrinking and growing again
            got = list(transfer_dp(k, order, *sets))
            assert got == fresh_fill(k, order, *sets)
            assert all(type(total) is (type(one) if sets[2] else int) for total in got)


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


def row_formula(k, weights, one, order):
    """Rows and totals by the row formula entry + delta * prev_row[j], one
    schoolbook product per pair whose weight is not 1."""
    rows, totals = [(), (one,) * k], [one, one * k]
    while len(rows) <= order:
        row = []
        for i in range(1, k + 1):
            entry = totals[-1]
            for j in range(1, k + 1):
                delta = weights[j, i] - one
                if delta != 0:
                    entry = entry + schoolbook_times(delta, rows[-1][j - 1])
            row.append(entry)
        rows.append(tuple(row))
        totals.append(sum(row[1:], row[0]))
    return rows[: order + 1], totals[: order + 1]


@pytest.mark.parametrize("ring", RINGS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_matches_the_row_formula(ring, data):
    """The packed fill against the schoolbook one: stored totals over
    requests that outgrow the stored capacity and then shrink, and rows
    filled fresh."""
    k, *sets = data.draw(mark_sets(RINGS[ring]))
    growing = data.draw(st.lists(st.integers(0, 10), min_size=2, max_size=4, unique=True))
    orders = sorted(growing) + data.draw(st.lists(st.integers(0, max(growing)), max_size=2))
    weights, one = pair_weights(k, *sets)
    rows, totals = row_formula(k, weights, one, max(orders))
    with mock.patch.dict(transfer._tables, clear=True):
        for i, order in enumerate(orders):
            got = transfer_dp(k, order, *sets)
            assert list(got) == totals[: order + 1]
            assert all(type(total) is type(one) for total in got)
            [table] = transfer._tables.values()
            assert table.capacity >= max(orders[: i + 1])
    got = fresh_rows(k, max(orders), *sets)
    assert got == rows
    assert all(type(entry) is type(one) for row in got for entry in row)


@st.composite
def shaped_mark_sets(draw, weights):
    """(k, banned, first, second): every rise by s or every jump of size s
    in a drawn choice of the sets named in `weights`, whose letters fall
    into few classes, or a random mark set."""
    shape = draw(st.sampled_from(["rise", "jump", "random"]))
    if shape == "random":
        return draw(mark_sets(weights))
    k, s = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    names = draw(st.sets(st.sampled_from(weights), min_size=1))
    diffs = (s,) if shape == "rise" else (-s, s)
    return (k, *(diffs if name in names else () for name in SETS))


def letter_terms(k, banned=(), first=(), second=()):
    """The (j, exps, c) terms of each letter: those of a table whose
    classes are the single letters."""
    table = transfer._Table(k, banned, first, second, 1, [[i] for i in range(k)])
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
    k, *sets = data.draw(shaped_mark_sets(RINGS[ring]))
    n = data.draw(st.integers(1, 4))
    rows = fresh_rows(k, n, *sets)
    totals = fresh_fill(k, n, *sets)
    for m in range(1, n + 1):
        assert totals[m] == sum(rows[m][1:], rows[m][0])
    assert totals[n] == brute_force(k, *pair_weights(k, *sets), n)[0]
    terms = letter_terms(k, *sets)
    classes = transfer._classes(k, terms)
    assert classes == classes_by_rounds(k, terms)
    for letters in classes:
        assert all(rows[m][i] == rows[m][letters[0]] for m in range(1, n + 1) for i in letters)
    assert len(transfer._Table(k, *sets, n).row) == len(classes)


@pytest.mark.parametrize("marks,k,classes", [
    ({"second": (3,)}, 7, [[0, 1, 2], [3, 4, 5], [6]]),  # rises by 3
    ({"second": (-2, 2)}, 8, [[0, 1, 6, 7], [2, 3, 4, 5]]),  # jumps of size 2
    ({"second": (-3, 3)}, 5, [[0, 1, 3, 4], [2]]),
])
def test_letters_sharing_an_entry_form_one_class(marks, k, classes):
    assert transfer._classes(k, letter_terms(k, **marks)) == classes


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
        rows = fresh_rows(20, 6, second=(-3, 3))
    assert rows[0] == () and all(len(row) == 20 for row in rows[1:])


def test_a_long_chain_splits_into_single_letters():
    """Every letter of a chain of rises by 1 over 3,000 letters is its own
    class, the deepest refinement there is."""
    k = 3000
    assert transfer._classes(k, letter_terms(k, second=(1,))) == [[i] for i in range(k)]


@pytest.mark.parametrize("first,second", [(1, QPoly.const(1)), (QPoly.const(1), 1)])
def test_integer_and_polynomial_tables_stay_apart(first, second):
    """A banned-only key gives an int table and a key with `second` a
    QPoly table, stored apart; `first` and `second` are the units of the
    rings asked for first and second.  Over 1..2 banning the difference 1
    bans 12, and the q on that difference marks no pair left."""
    sets = {int: ((1,),), QPoly: ((1,), (), (1,))}
    with mock.patch.dict(transfer._tables, clear=True):
        for one in (first, second):
            totals = transfer_dp(2, 6, *sets[type(one)])
            assert all(type(total) is type(one) for total in totals)
            assert totals[6] == 7  # 2..21..1 are the words avoiding 12
        assert len(transfer._tables) == 2


def test_longer_request_extends_the_stored_rows():
    """Within its capacity a table appends to its totals; past it, the
    table refills at twice the capacity.  A total is decoded once."""
    rises = (1,)
    with mock.patch.dict(transfer._tables, clear=True):
        short = transfer_dp(3, 10, second=rises)
        [table] = transfer._tables.values()
        assert table.capacity == 10 and len(table.totals) == 11
        first = short[10]
        long = transfer_dp(3, 15, second=rises)
        assert table.capacity == 20 and len(table.totals) == 16
        stored = table.totals
        longer = transfer_dp(3, 20, second=rises)
        assert table.capacity == 20 and table.totals is stored and len(stored) == 21
        assert long[10] is longer[10] is first
        assert list(transfer_dp(3, 10, second=rises)) == list(short) == list(longer)[:11]
        assert len(table.row) == 3


def test_threads_extending_one_table_append_each_row_once():
    orders = [15, 40, 25, 40, 30, 10]
    expected = [fresh_fill(4, order, (), (), (1,)) for order in orders]
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
                    got = list(pool.map(lambda n: list(transfer_dp(4, n, second=(1,))),
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
    with mock.patch.dict(transfer._tables, clear=True):
        transfer_dp(4, 200, second=(1,))
        [table] = transfer._tables.values()
        at_200 = _tracked_from(table)
        transfer_dp(4, 400, second=(1,))
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
