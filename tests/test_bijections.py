import itertools
import json
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import bijections, cli, verify
from adjstats.algebra import InternalInvariantViolation
from adjstats.bijections import (
    ColoredComposition,
    InvalidComposition,
    InvalidSequence,
    InvalidWord,
    colored_compositions,
    composition_to_maneuvers,
    is_level_free_no13_start2,
    is_v_word,
    is_w_word,
    jpp_to_tiling,
    jpp_words,
    maneuvers_to_composition,
    maneuvers_to_v_word,
    tiling_to_jpp,
    tilings,
    v_to_w,
    v_words,
    w_to_v,
    w_words,
)
from adjstats.fibwords import fib_list
from adjstats.kary import KSParams, a_rec_alt
from adjstats.oracle import count_avoiders


def part(size, *colors):
    return (size, frozenset(colors))


def _reference_guard(parts):
    """ColoredComposition's three checks written out one by one: the
    reference for the single test its valid parts pass."""
    for size, colored in parts:
        if size < 1:
            raise InvalidComposition(f"part size {size} < 1")
        if not colored:
            raise InvalidComposition("a part has an empty color set")
        if min(colored) < 1 or max(colored) > size:
            raise InvalidComposition(f"colors {set(colored)} outside [1, {size}]")


def _outcome(check, parts):
    """The class and message of what `check(parts)` raises, or None."""
    try:
        check(parts)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestCompositions:
    def test_validation(self):
        with pytest.raises(InvalidComposition):
            ColoredComposition((part(2),))  # empty color set
        with pytest.raises(InvalidComposition):
            ColoredComposition((part(2, 3),))  # color outside the part

    def test_guard_matches_the_three_reference_checks(self):
        # every part size -1..5 against every subset of -1..6, and every size
        # 30..35 against every subset of cells around 32, far past the shared
        # parts' 11 cells, as each kind of color container, alone and after a
        # valid part
        for sizes, cells in ((range(-1, 6), range(-1, 7)),
                             (range(30, 36), (0, 1, 31, 32, 33, 34, 35, 36))):
            for size in sizes:
                for r in range(len(cells) + 1):
                    for colors in itertools.combinations(cells, r):
                        for kind in (frozenset, set, tuple, list):
                            for parts in (((size, kind(colors)),),
                                          ((1, frozenset({1})), (size, kind(colors)))):
                                assert (_outcome(ColoredComposition, parts)
                                        == _outcome(_reference_guard, parts)), parts

    @pytest.mark.parametrize("parts,message", [
        (((3, frozenset({1, 2.5})),), "colors {1, 2.5} are not all integers"),
        (((3, frozenset({1.0})),), "colors {1.0} are not all integers"),
        (((1, frozenset({1})), (30, (1, Fraction(29)))),
         "colors {1, Fraction(29, 1)} are not all integers"),
        (((2.5, frozenset({1})),), "part size 2.5 is not an integer"),
        (((3.0, frozenset({1})),), "part size 3.0 is not an integer"),
        # malformed parts, alone or after valid parts, one past the cell table
        (((2, frozenset({"1"})),), "colors {'1'} are not all integers"),
        (((2, {None}),), "colors {None} are not all integers"),
        (((2, 5),), "colors 5 are not a set of cells"),
        (((1, frozenset({1})), (40, {1, 35}), (2, [[1]])), "colors [[1]] are not a set of cells"),
        (((),), "part () is not a (size, colors) pair"),
        (((1, frozenset({1})), (2,)), "part (2,) is not a (size, colors) pair"),
        (((1, frozenset({1}), 2),), "part (1, frozenset({1}), 2) is not a (size, colors) pair"),
        ((5,), "part 5 is not a (size, colors) pair"),
        # parts that cannot be iterated at all
        (None, "parts None are not a sequence of parts"),
        (5, "parts 5 are not a sequence of parts"),
        # a one-shot iterator of parts, checked whole; and no parts at all
        (iter([(1, frozenset({1})), (2, frozenset({3}))]), "colors {3} outside [1, 2]"),
        ((), "a composition has at least one part"),
    ])
    def test_non_integer_cells_are_rejected(self, parts, message):
        with pytest.raises(InvalidComposition) as caught:
            ColoredComposition(parts)
        assert str(caught.value) == message

    def test_a_one_shot_iterator_of_parts_is_kept_whole(self):
        comp = ColoredComposition(iter([(1, frozenset({1}))]))
        assert comp.total == 1 and composition_to_maneuvers(comp) == ()

    def test_a_one_shot_iterator_part_is_read_once(self):
        comp = ColoredComposition((iter([1, frozenset({1})]),))
        assert comp.total == 1 and composition_to_maneuvers(comp) == ()
        assert comp == ColoredComposition(((1, frozenset({1})),))

    @pytest.mark.parametrize("parts", [
        ((2, {1, 2}),),
        ((2, [2, 1, 1]),),
        ((2, (1, 2)),),
        ([2, frozenset({1, 2})],),
        ((1, [1]), [2, {1, 2}]),
    ])
    def test_parts_are_stored_as_a_size_and_a_frozenset(self, parts):
        comp = ColoredComposition(parts)
        canonical = ColoredComposition(tuple((size, frozenset(cells)) for size, cells in parts))
        assert comp == canonical and hash(comp) == hash(canonical)
        assert all(type(p) is tuple and type(p[0]) is int and type(p[1]) is frozenset
                   for p in comp.parts)

    def test_a_generator_of_cells_is_rejected_at_construction(self):
        with pytest.raises(InvalidComposition, match="are not a set of cells"):
            ColoredComposition(((2, (c for c in [1])),))

    def test_parts_in_a_list_make_the_same_value(self):
        listed = ColoredComposition([(1, frozenset({1}))])
        assert listed == ColoredComposition(((1, frozenset({1})),))
        assert hash(listed) == hash(ColoredComposition(((1, frozenset({1})),)))

    def test_parts_are_read_once(self):
        # the part of size 40 is not shared, so its check is exact
        class Counted:
            reads = 0

            def __iter__(self):
                Counted.reads += 1
                return iter([(1, frozenset({1})), (40, frozenset({35}))])

        comp = ColoredComposition(Counted())
        assert Counted.reads == 1 and comp.total == 41

    def test_large_parts_pass_the_same_checks(self):
        for size in range(12, 40):
            for colors in ({1}, {size}, {1, size // 2, size}):
                comp = ColoredComposition(((size, frozenset(colors)),))
                assert maneuvers_to_composition(composition_to_maneuvers(comp)) == comp
            for colors, message in [({0}, f"colors {{0}} outside [1, {size}]"),
                                    ({size + 1}, f"colors {{{size + 1}}} outside [1, {size}]"),
                                    ({1, 2.5}, "colors {1, 2.5} are not all integers")]:
                with pytest.raises(InvalidComposition, match=re.escape(message)):
                    ColoredComposition(((size, frozenset(colors)),))

    def test_encode_examples(self):
        assert composition_to_maneuvers(ColoredComposition((part(1, 1),))) == ()
        two_singletons = ColoredComposition((part(1, 1), part(1, 1)))
        assert composition_to_maneuvers(two_singletons) == (1,)
        assert composition_to_maneuvers(ColoredComposition((part(2, 2),))) == (4,)

    def test_round_trip_small(self):
        for total in range(1, 8):
            for comp in colored_compositions(total):
                moves = composition_to_maneuvers(comp)
                assert len(moves) == total - 1
                assert maneuvers_to_composition(moves) == comp

    def test_counts(self):
        # 1, 4, 14, 48, ... colored compositions of n+1
        expected = [v(0) for v in a_rec_alt(KSParams(4, 2), 6)]
        for n in range(7):
            assert sum(1 for _ in colored_compositions(n + 1)) == expected[n]


class Pair(tuple):
    """A tuple subclass: equal to a part, but not a plain tuple."""


class TestSharedParts:
    """Parts of at most 11 cells are built once, checked once and shared by
    the menus and the replay; the guard accepts one by its identity."""

    def test_menus_and_the_replay_hand_out_the_same_checked_objects(self):
        for comp in colored_compositions(5):
            again = maneuvers_to_composition(composition_to_maneuvers(comp))
            assert all(a is b for a, b in zip(again.parts, comp.parts))
        for size in range(1, 6):
            for shared in bijections._menu(size):
                assert bijections._SHARED[id(shared)] is shared
                assert _check_part_outcome(shared) == shared

    @pytest.mark.parametrize("twin", [
        (True, frozenset({1})),
        (1, frozenset({True})),
        (1, frozenset({1.0})),
        Pair((1, frozenset({1}))),
        (1, {1}),
    ], ids=["bool size", "bool cell", "float cell", "tuple subclass", "set of cells"])
    def test_a_part_equal_to_a_shared_one_takes_the_exact_path(self, twin):
        [shared] = bijections._menu(1)
        assert twin == shared and twin is not shared
        for parts in ((twin,), (shared, twin), (twin, shared)):
            want = [_check_part_outcome(part) for part in parts]
            refusals = [w for w in want if w[0] is InvalidComposition]
            if refusals:
                assert _outcome(ColoredComposition, parts) == refusals[0]
            else:
                comp = ColoredComposition(parts)
                assert [repr(p) for p in comp.parts] == [repr(w) for w in want]
                assert all(type(p) is tuple and type(p[0]) is int and type(p[1]) is frozenset
                           for p in comp.parts)

    def test_a_malformed_part_in_the_tables_source_is_refused(self, monkeypatch, capsys):
        # fresh tables, built from a source that plants a color outside its part
        for name in ("_MENUS", "_MOVES", "_PARTS", "_SHARED"):
            monkeypatch.setattr(bijections, name, type(getattr(bijections, name))())
        colorings = bijections._colorings
        monkeypatch.setattr(bijections, "_colorings", lambda size: colorings(size) + (
            [(2, frozenset({3}))] if size == 2 else []))
        refusal = re.escape("colors {3} outside [1, 2]")
        with pytest.raises(InvalidComposition, match=refusal):
            list(colored_compositions(2))
        with pytest.raises(InvalidComposition, match=refusal):
            maneuvers_to_composition((2,))
        failed = [c for c in verify.suite_bijections(nmax=3) if not c.passed]
        assert [(c.name, c.params["n"], c.detail) for c in failed] == [
            ("composition and rewriting maps accept their families", n,
             "InvalidComposition: colors {3} outside [1, 2]") for n in (1, 2, 3)]
        assert cli.main(["verify", "--suite", "bijections", "--nmax", "3"]) == 1
        assert json.loads(capsys.readouterr().out)["failed"] == 3
        # only the checked menu of size 1 was ever shared
        assert list(bijections._SHARED.values()) == [(1, frozenset({1}))]

    def test_the_tables_stay_bounded(self):
        # every part of at most 11 cells, then thousands of larger ones
        menus = [bijections._menu(size) for size in range(1, 13)]
        assert [len(menu) for menu in menus] == [2 ** size - 1 for size in range(1, 13)]
        assert menus[-1] is not bijections._menu(12)  # past the bound, never stored
        tables = bijections._SHARED, bijections._MOVES, bijections._PARTS, bijections._MENUS
        held = tuple(map(len, tables))
        assert held == (4083, 4083, 4083, 11)
        rng = random.Random(12)
        tracemalloc.start()
        try:
            for _ in range(3000):
                parts = []
                for _ in range(rng.randint(1, 3)):
                    size = rng.randint(12, 40)
                    parts.append((size, frozenset(rng.sample(range(1, size + 1),
                                                             rng.randint(1, size)))))
                comp = ColoredComposition(parts)
                assert maneuvers_to_composition(composition_to_maneuvers(comp)) == comp
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tuple(map(len, tables)) == held
        assert peak < 8 * 2**20


def _check_part_outcome(part):
    """What `_check_part` returns for `part`, or the class and message of
    what it raises."""
    try:
        return bijections._check_part(part)
    except InvalidComposition as exc:
        return type(exc), str(exc)


class TestManeuvers:
    def test_succession_rule(self):
        assert maneuvers_to_v_word(()) == ()
        assert maneuvers_to_v_word((1, 4)) == (1, 4)
        with pytest.raises(InvalidSequence):
            maneuvers_to_v_word((2, 4))
        with pytest.raises(InvalidSequence):
            maneuvers_to_v_word((1, 3, 4))
        with pytest.raises(InvalidSequence):
            maneuvers_to_v_word((0, 1))

    def test_replay_rejects_invalid(self):
        with pytest.raises(InvalidSequence):
            maneuvers_to_composition((3, 4))

    def test_valid_sequences_are_exactly_v_words(self):
        for n in range(6):
            replayed = {composition_to_maneuvers(c) for c in colored_compositions(n + 1)}
            assert replayed == set(v_words(n))


class TestRewriting:
    def test_examples(self):
        assert v_to_w((1, 1, 3)) == (3, 4, 4)
        assert v_to_w((2, 2, 2)) == (2, 2, 2)
        assert v_to_w((1, 3, 1, 2)) == (3, 4, 1, 2)

    def test_membership_enforced(self):
        with pytest.raises(InvalidWord):
            v_to_w((2, 4))
        with pytest.raises(InvalidWord):
            w_to_v((1, 3))

    @pytest.mark.parametrize("rewrite", [v_to_w, w_to_v])
    @pytest.mark.parametrize("word, letter", [
        (("1",), "'1'"),
        ((1.0, 3.0), "1.0"),
        ((2, 4.0), "4.0"),
        ((3, None), "None"),
        ((2, 300), "300"),
        ((-1,), "-1"),
    ])
    def test_a_letter_that_is_not_an_int_in_range_is_named(self, rewrite, word, letter):
        with pytest.raises(InvalidWord) as caught:
            rewrite(word)
        assert str(caught.value) == f"{word} has letter {letter} outside 1..4"
        with pytest.raises(InvalidSequence):
            maneuvers_to_v_word(word)

    def test_broken_output_raises_without_assert(self, monkeypatch):
        monkeypatch.setattr(bijections, "is_w_word", lambda word: False)
        with pytest.raises(InternalInvariantViolation):
            v_to_w((1, 1, 3))

    def test_length_and_membership_preserved(self):
        for n in range(7):
            for v in v_words(n):
                w = v_to_w(v)
                assert len(w) == len(v)
                assert is_w_word(w)

    def test_round_trips(self):
        for n in range(8):
            for v in v_words(n):
                assert w_to_v(v_to_w(v)) == v
            for w in w_words(n):
                assert v_to_w(w_to_v(w)) == w

    def test_bijection_counts(self):
        for n in range(8):
            target = count_avoiders(4, n, frozenset({(1, 3), (2, 4)}))
            images = {v_to_w(v) for v in v_words(n)}
            assert len(images) == target == sum(1 for _ in w_words(n))


class TestTilingMap:
    def test_examples(self):
        assert jpp_to_tiling((2,)) == (1,)
        assert jpp_to_tiling((2, 1)) == (2,)
        assert jpp_to_tiling((2, 3)) == (1, 1)

    def test_membership_enforced(self):
        assert is_level_free_no13_start2((2, 1, 2))
        assert not is_level_free_no13_start2((1, 2))  # wrong first letter
        assert not is_level_free_no13_start2((2, 2))  # level
        with pytest.raises(InvalidWord):
            jpp_to_tiling((2, 2))
        with pytest.raises(InvalidWord):
            tiling_to_jpp((3,))

    @pytest.mark.parametrize("tiling", [(1.0,), (2.0,), (True,), (1, 2.0), (2, True, 1)])
    def test_pieces_that_are_not_ints_are_rejected(self, tiling):
        with pytest.raises(InvalidWord, match=re.escape(f"got {tiling}")):
            tiling_to_jpp(tiling)

    def test_bijection_and_round_trips(self):
        fib = fib_list(15)
        for n in range(13):
            words_n = list(jpp_words(n))
            tilings_n = list(tilings(n))
            assert len(words_n) == fib[n + 1]
            images = [jpp_to_tiling(w) for w in words_n]
            assert sorted(images) == sorted(tilings_n)
            for w in words_n:
                assert tiling_to_jpp(jpp_to_tiling(w)) == w
            for t in tilings_n:
                assert jpp_to_tiling(tiling_to_jpp(t)) == t

    def test_piece_lengths_sum(self):
        for w in jpp_words(9):
            assert sum(jpp_to_tiling(w)) == 9

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            list(tilings(-1))


class TestFamilyPredicates:
    def test_v_and_w(self):
        assert is_v_word((1, 3))
        assert not is_v_word((3, 4))
        assert is_w_word((3, 4))
        assert not is_w_word((1, 3))

    def test_family_membership_matches_the_pair_rule(self):
        # every word over 0..k+1 up to length 4, against the rule read directly
        for predicate, (k, banned) in ((is_v_word, FAMILIES["v"]), (is_w_word, FAMILIES["w"]),
                                       (is_level_free_no13_start2, FAMILIES["jpp"])):
            for n in range(5):
                for word in itertools.product(range(k + 2), repeat=n):
                    assert predicate(word) == _member_by_pairs(word, k, banned), word


# alphabet size and banned adjacent pairs, where (0, b) bars b as first letter
FAMILIES = {
    "v": (4, {(2, 4), (3, 4)}),
    "w": (4, {(1, 3), (2, 4)}),
    "jpp": (3, {(1, 1), (2, 2), (3, 3), (1, 3), (0, 1), (0, 3)}),
}


@st.composite
def family_words(draw, family, max_size=40):
    """A word of the family, drawn letter by letter from the allowed pairs."""
    k, banned = FAMILIES[family]
    word = (0,)
    for _ in range(draw(st.integers(0, max_size))):
        word += (draw(st.sampled_from([b for b in range(1, k + 1)
                                       if (word[-1], b) not in banned])),)
    return word[1:]


@st.composite
def tilings_up_to(draw, max_size=40):
    length = draw(st.integers(0, max_size))
    pieces = []
    while sum(pieces) < length:
        pieces.append(draw(st.sampled_from((1, 2))) if length - sum(pieces) > 1 else 1)
    return tuple(pieces)


@settings(max_examples=60, deadline=None)
@given(family_words("v"), family_words("w"))
def test_rewriting_round_trips_beyond_the_suite_grid(v, w):
    assert w_to_v(v_to_w(v)) == v
    assert v_to_w(w_to_v(w)) == w


@st.composite
def compositions_up_to(draw, max_total=40):
    """A colored composition of a total in 1..max_total, part by part."""
    left = draw(st.integers(1, max_total))
    parts = []
    while left:
        size = draw(st.integers(1, left))
        parts.append((size, frozenset(draw(st.sets(st.integers(1, size), min_size=1)))))
        left -= size
    return ColoredComposition(tuple(parts))


def _encode_reference(comp):
    """composition_to_maneuvers written cell by cell: the reference for its
    part-by-part form."""
    ops = []
    for index, (size, colored) in enumerate(comp.parts):
        if index > 0:
            ops.append(1)
        first = min(colored)
        ops.extend([4] * (first - 1))
        for pos in range(first + 1, size + 1):
            ops.append(2 if pos in colored else 3)
    return tuple(ops)


def _v_to_w_reference(word):
    """v_to_w's rewriting run by run: each maximal run 1^d 3 found by index,
    then replaced by 3 4^d.  The reference for its one-pass form."""
    out = []
    i = 0
    n = len(word)
    while i < n:
        if word[i] == 1:
            j = i
            while j < n and word[j] == 1:
                j += 1
            if j < n and word[j] == 3:
                out.append(3)
                out.extend([4] * (j - i))
                i = j + 1
            else:
                out.extend([1] * (j - i))
                i = j
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def _w_to_v_reference(word):
    """w_to_v's rewriting run by run: each run 3 4^d replaced by 1^d 3.  The
    reference for its one-pass form."""
    out = []
    i = 0
    n = len(word)
    while i < n:
        if word[i] == 3:
            j = i + 1
            while j < n and word[j] == 4:
                j += 1
            out.extend([1] * (j - i - 1))
            out.append(3)
            i = j
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(compositions_up_to())
def test_composition_moves_beyond_the_suite_grid(comp):
    moves = composition_to_maneuvers(comp)
    assert moves == _encode_reference(comp)
    assert len(moves) == comp.total - 1 and is_v_word(moves)
    assert maneuvers_to_composition(moves) == comp


@settings(max_examples=80, deadline=None)
@given(family_words("v"), family_words("w"))
def test_rewriting_matches_the_run_by_run_reference(v, w):
    assert v_to_w(v) == _v_to_w_reference(v)
    assert w_to_v(w) == _w_to_v_reference(w)


@pytest.mark.parametrize("rewrite, reference, word", [
    (v_to_w, _v_to_w_reference, (1,) * 200_000 + (3,)),
    (v_to_w, _v_to_w_reference, (1,) * 200_000 + (2, 1, 3)),
    (w_to_v, _w_to_v_reference, (3,) + (4,) * 200_000),
    (w_to_v, _w_to_v_reference, (1,) + (4,) * 100_000 + (3,) + (4,) * 100_000),
])
def test_rewriting_a_long_run_matches_the_reference(rewrite, reference, word):
    # a run of 1s that no 3 ends is scanned once, not once per letter
    assert rewrite(word) == reference(word)


def _member_by_pairs(word, k, banned):
    """Family membership read from the pair set: every letter an int in
    1..k, and no banned pair among (0, first letter) and the neighbours."""
    return (all(type(c) is int and 1 <= c <= k for c in word)
            and not banned & set(zip((0,) + word, word)))


# mostly letters in and next to the alphabets, then any int in -2..300
# (bytes end at 255) and floats, some equal to a letter
LETTERS = st.one_of(st.integers(0, 5), st.integers(-2, 300), st.sampled_from([1.0, 3.0, 2.5]))


@settings(max_examples=300, deadline=None)
@given(st.lists(LETTERS, max_size=12).map(tuple))
def test_predicates_match_the_pair_set_test(word):
    for predicate, family in ((is_v_word, "v"), (is_w_word, "w"),
                              (is_level_free_no13_start2, "jpp")):
        assert predicate(word) == _member_by_pairs(word, *FAMILIES[family]), (family, word)
    for rewrite, family in ((v_to_w, "v"), (w_to_v, "w")):
        if not _member_by_pairs(word, *FAMILIES[family]):
            with pytest.raises(InvalidWord) as caught:
                rewrite(word)
            bad = [c for c in word if not (type(c) is int and 1 <= c <= 4)]
            if bad:
                assert f"has letter {bad[0]!r} outside 1..4" in str(caught.value)


@settings(max_examples=80, deadline=None)
@given(compositions_up_to(), st.data())
def test_cells_in_any_container_encode_and_decode(comp, data):
    kinds = st.sampled_from([set, list, tuple, lambda cells: list(cells) * 2])
    held = ColoredComposition(tuple((size, data.draw(kinds)(colored))
                                    for size, colored in comp.parts))
    moves = composition_to_maneuvers(held)
    assert moves == composition_to_maneuvers(comp) == _encode_reference(comp)
    assert maneuvers_to_composition(moves) == comp


@settings(max_examples=60, deadline=None)
@given(family_words("jpp"), tilings_up_to())
def test_tiling_round_trips_beyond_the_suite_grid(word, tiling):
    assert tiling_to_jpp(jpp_to_tiling(word)) == word
    assert jpp_to_tiling(tiling_to_jpp(tiling)) == tiling


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.data())
def test_predicates_reject_a_bad_letter_or_a_banned_pair(family, data):
    predicate = {"v": is_v_word, "w": is_w_word, "jpp": is_level_free_no13_start2}[family]
    k, banned = FAMILIES[family]
    word = data.draw(family_words(family, max_size=20))
    assert predicate(word)
    flaw = data.draw(st.sampled_from([(0,), (k + 1,)] + sorted(banned)))
    if flaw[0] == 0 and len(flaw) == 2:  # a banned first letter
        bad = flaw[1:] + word
    else:
        at = data.draw(st.integers(0, len(word)))
        bad = word[:at] + flaw + word[at:]
    assert not predicate(bad)


def test_suite_applies_each_map_once_per_object(monkeypatch):
    calls = Counter()
    for name in ("v_to_w", "w_to_v", "jpp_to_tiling", "tiling_to_jpp",
                 "composition_to_maneuvers", "maneuvers_to_composition",
                 "maneuvers_to_v_word", "is_v_word", "is_w_word"):
        def counted(arg, name=name, original=getattr(bijections, name)):
            calls[name] += 1
            return original(arg)
        monkeypatch.setattr(bijections, name, counted)

    def counted_family(total, original=bijections.colored_compositions):
        for comp in original(total):
            calls["colored_compositions items"] += 1
            yield comp

    def counted_guard(self, original=ColoredComposition.__post_init__):
        calls["ColoredComposition guard"] += 1
        original(self)

    monkeypatch.setattr(bijections, "colored_compositions", counted_family)
    monkeypatch.setattr(ColoredComposition, "__post_init__", counted_guard)
    checks = verify.suite_bijections(nmax=4)
    assert checks and all(c.passed for c in checks)
    objects = sum(1 for n in range(5) for _ in v_words(n))
    assert objects == sum(1 for n in range(5) for _ in w_words(n)) == 231
    assert calls == {
        "v_to_w": objects,
        "w_to_v": objects,
        "jpp_to_tiling": sum(1 for n in range(13) for _ in jpp_words(n)),
        "tiling_to_jpp": sum(1 for n in range(13) for _ in tilings(n)),
        "colored_compositions items": objects,
        "composition_to_maneuvers": objects,
        "maneuvers_to_composition": objects,
        # the guards: each rewriting map checks its input and its output, each
        # replay checks its moves, and each composition is checked when it is
        # generated and when it is rebuilt
        "maneuvers_to_v_word": objects,
        "is_v_word": 3 * objects,
        "is_w_word": 2 * objects,
        "ColoredComposition guard": 2 * objects,
    }


def _raising(exc):
    def broken(arg):
        raise exc
    return broken


@pytest.mark.parametrize("name, exc, check", [
    ("v_to_w", InternalInvariantViolation("v_to_w produced (5,), not a w-word"),
     "composition and rewriting maps accept their families"),
    ("w_to_v", InvalidWord("(1, 3) contains 1-3 or 2-4"),
     "composition and rewriting maps accept their families"),
    ("maneuvers_to_v_word", InvalidSequence("moves must be in 1..4"),
     "composition and rewriting maps accept their families"),
    ("composition_to_maneuvers", InvalidComposition("a part has an empty color set"),
     "composition and rewriting maps accept their families"),
    ("jpp_to_tiling", InvalidWord("(2, 2) is not a level-free no-1-3 word starting with 2"),
     "pairing maps accept their families"),
    ("tiling_to_jpp", InternalInvariantViolation("no word for this tiling"),
     "pairing maps accept their families"),
])
def test_a_raising_map_fails_each_level_and_verify_still_reports(monkeypatch, capsys,
                                                                  name, exc, check):
    monkeypatch.setattr(bijections, name, _raising(exc))
    failed = [c for c in verify.suite_bijections(nmax=3) if not c.passed]
    # every level fails, from n = 0, whose one object is the empty word
    levels = 13 if check.startswith("pairing") else 4
    assert [(c.name, c.params, c.detail) for c in failed] == [
        (check, {"n": n}, f"{type(exc).__name__}: {exc}") for n in range(levels)]
    assert cli.main(["verify", "--suite", "bijections", "--nmax", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == levels
    assert report["rows"] == [c.to_dict() for c in failed]


def _merging(encode):
    """An encoder that sends each move word ending in 3 to the one ending in 2."""
    def merged(comp):
        moves = encode(comp)
        return moves[:-1] + (2,) if moves[-1:] == (3,) else moves
    return merged


def _first_in_place_of_second(family):
    """`family` with its second object replaced by a copy of its first."""
    def repeated(n):
        objects = family(n)
        first = next(objects)
        yield first
        if next(objects, None) is not None:
            yield first
        yield from objects
    return repeated


_COMPOSITION_CHECKS = ("compositions biject onto move words",
                       "composition round trip is the identity",
                       "rewriting maps onto the 1-3/2-4 avoiders",
                       "rewriting round trips are the identity",
                       "all five family sizes coincide")


def _only(*names, levels=range(5)):
    return [(name, n) for n in levels for name in _COMPOSITION_CHECKS if name in names]


@pytest.mark.parametrize("name, mutant, failing", [
    # two compositions share a move word, so one of them does not decode
    ("composition_to_maneuvers", _merging, _only(
        "compositions biject onto move words", "composition round trip is the identity",
        "rewriting maps onto the 1-3/2-4 avoiders", "all five family sizes coincide",
        levels=range(1, 5))),
    # the identity keeps each 1-3, which w_to_v refuses from n = 2 on
    ("v_to_w", lambda v_to_w: tuple,
     [("composition and rewriting maps accept their families", n) for n in (2, 3, 4)]),
    ("colored_compositions", lambda family: lambda n: itertools.islice(family(n), 1, None),
     _only("compositions biject onto move words", "rewriting maps onto the 1-3/2-4 avoiders",
           "all five family sizes coincide")),
    # every object maps and round-trips; only the marks see the repeat
    ("colored_compositions", _first_in_place_of_second, _only(
        "compositions biject onto move words", "rewriting maps onto the 1-3/2-4 avoiders",
        "all five family sizes coincide", levels=range(1, 5))),
    ("jpp_words", _first_in_place_of_second,
     [("pairing map is a bijection onto tilings", n) for n in range(2, 13)]),
], ids=["non-injective encoder", "rewriting outside W", "dropped composition",
        "repeated composition", "repeated level-free word"])
def test_a_wrong_map_or_family_fails_a_check(monkeypatch, capsys, name, mutant, failing):
    monkeypatch.setattr(bijections, name, mutant(getattr(bijections, name)))
    failed = [c for c in verify.suite_bijections(nmax=4) if not c.passed]
    assert [(c.name, c.params["n"]) for c in failed] == failing
    assert cli.main(["verify", "--suite", "bijections", "--nmax", "4"]) == 1
    assert json.loads(capsys.readouterr().out)["failed"] == len(failing)


def test_the_suite_stores_no_family():
    """One pass per length keeps one byte per possible move word, 64 KiB
    at n = 8, where the sorted families and their image dicts took 20 MB."""
    tracemalloc.start()
    try:
        checks = verify.suite_bijections(nmax=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(checks) == 84 and all(c.passed for c in checks)
    assert peak < 6 * 2**20
