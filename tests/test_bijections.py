import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import bijections, verify
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


class TestCompositions:
    def test_validation(self):
        with pytest.raises(InvalidComposition):
            ColoredComposition((part(2),))  # empty color set
        with pytest.raises(InvalidComposition):
            ColoredComposition((part(2, 3),))  # color outside the part

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
                    want = (all(1 <= c <= k for c in word)
                            and not banned & set(zip((0,) + word, word)))
                    assert predicate(word) == want, word


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
    for name in ("v_to_w", "w_to_v", "jpp_to_tiling", "tiling_to_jpp"):
        def counted(word, name=name, original=getattr(bijections, name)):
            calls[name] += 1
            return original(word)
        monkeypatch.setattr(bijections, name, counted)
    checks = verify.suite_bijections(nmax=4, tiling_nmax=6)
    assert checks and all(c.passed for c in checks)
    assert calls == {
        "v_to_w": sum(1 for n in range(5) for _ in v_words(n)),
        "w_to_v": sum(1 for n in range(5) for _ in w_words(n)),
        "jpp_to_tiling": sum(1 for n in range(7) for _ in jpp_words(n)),
        "tiling_to_jpp": sum(1 for n in range(7) for _ in tilings(n)),
    }
