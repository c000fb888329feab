import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import oracle, partitions
from adjstats.algebra import InternalInvariantViolation, PQPoly, QPoly
from adjstats.oracle import (
    EnumerationTooLarge,
    count_avoiders,
    distribution_gap,
    distribution_mu,
    distribution_nu,
    joint_lev_asc,
    joint_lev_des,
    total_mu_oracle,
    words,
)


class TestDistributionMu:
    def test_examples(self):
        assert distribution_mu(3, 1, 2) == QPoly((7, 2))  # words 12 and 23
        assert distribution_mu(2, 5, 3) == QPoly((8,))  # difference 5 impossible
        assert distribution_mu(3, 2, 2) == QPoly((8, 1))  # only word 13

    @pytest.mark.parametrize("k,s,n", [(2, 1, 5), (3, 2, 4), (4, 1, 4), (5, 3, 3)])
    def test_mass_is_word_count(self, k, s, n):
        assert distribution_mu(k, s, n)(1) == k**n


class TestDistributionNu:
    def test_examples(self):
        assert distribution_nu(3, 2, 2) == QPoly((7, 2))  # words 13 and 31
        assert distribution_nu(2, 1, 2) == QPoly((2, 2))  # 12 and 21
        assert distribution_nu(4, 9, 5) == QPoly((1024,))

    def test_equals_mu_when_no_jump_possible(self):
        # |difference| <= k-1 < s, so both statistics are identically zero
        for k in (1, 2, 3):
            for s in range(k, 5):
                for n in range(5):
                    if k <= s:
                        assert distribution_nu(k, s, n) == distribution_mu(k, s, n) == k**n

    def test_alphabet_reversal_symmetry(self):
        for k, s, n in [(3, 1, 4), (4, 2, 4), (5, 2, 3)]:
            counts = [0] * n
            for w in words(k, n):
                flipped = tuple(k + 1 - c for c in w)
                m = sum(abs(b - a) == s for a, b in zip(flipped, flipped[1:]))
                counts[m] += 1
            assert distribution_nu(k, s, n) == QPoly(counts)


class TestDistributionGap:
    def test_examples(self):
        assert distribution_gap(2, 1, 2, 3) == QPoly((6, 2))  # 112 and 122
        assert distribution_gap(3, 1, 1, 2) == distribution_mu(3, 1, 2)
        assert distribution_gap(2, 1, 5, 3) == QPoly((8,))  # no valid index

    def test_gap_one_is_adjacent(self):
        for k, s, n in [(2, 1, 5), (3, 2, 4), (4, 3, 3)]:
            assert distribution_gap(k, s, 1, n) == distribution_mu(k, s, n)


class TestJointLevAsc:
    def test_examples(self):
        assert joint_lev_asc(1) == PQPoly.const(3)
        expected = 3 * PQPoly.p() + 2 * PQPoly.q() + 3
        assert joint_lev_asc(2) == expected
        assert joint_lev_asc(2)(1, 1) == 8  # F_6

    def test_counts_match_fibonacci(self):
        fib = [0, 1]
        while len(fib) < 20:
            fib.append(fib[-1] + fib[-2])
        for n in range(1, 8):
            assert joint_lev_asc(n)(1, 1) == fib[2 * n + 2]


class TestCountAvoiders:
    def test_examples(self):
        assert count_avoiders(4, 2, frozenset({(1, 3), (2, 4)})) == 14
        assert count_avoiders(3, 0, frozenset({(1, 2)})) == 1
        assert count_avoiders(5, 2, frozenset({(1, 3), (2, 4), (3, 5)})) == 22

    def test_pair_outside_alphabet_rejected(self):
        with pytest.raises(ValueError):
            count_avoiders(3, 2, frozenset({(1, 4)}))


class TestProfiles:
    def test_single_word(self):
        # 1 3 3 2: one rise by 2, one level, one fall by 1
        [(word, key, top)] = [v for v in oracle._walk(3, 4) if v[0] == (1, 3, 3, 2)]
        assert oracle._unpack(key, 3, 4) == (0, 1, 1, 0, 1)
        assert top == 3

    @pytest.mark.parametrize("k,n,gap", [(3, 5, 1), (2, 6, 2), (4, 3, 3), (3, 2, 4), (2, 0, 1)])
    def test_every_profile_counts_each_index_once(self, k, n, gap):
        visited = list(oracle._walk(k, n, gap=gap))
        assert len(visited) == k**n
        for _, key, _ in visited:
            assert sum(oracle._unpack(key, k, n)) == max(n - gap, 0)

    def test_growth_profiles_count_each_index_once(self):
        for n in range(7):
            for _, key, _ in oracle._walk(max(n, 1), n, growth=True):
                assert sum(oracle._unpack(key, max(n, 1), n)) == max(n - 1, 0)


def _skip_one(walk, index):
    """A walk that drops its visit number `index`."""
    def skipping(*args, **kwargs):
        for i, visit in enumerate(walk(*args, **kwargs)):
            if i != index:
                yield visit
    return skipping


def _drop_once(walk, suffix):
    """A walk that drops visit 1 of the first suffix list a count builds
    (a call given a `start`) when `suffix`, else of the first prefix walk."""
    mutated = []

    def dropping(*args, **kwargs):
        visits = walk(*args, **kwargs)
        if ("start" in kwargs) != suffix or mutated:
            return visits
        mutated.append(args)
        return (visit for i, visit in enumerate(visits) if i != 1)
    return dropping


class TestWalkInvariant:
    def test_skipped_word_is_caught(self, monkeypatch):
        oracle._tally.cache_clear()
        monkeypatch.setattr(oracle, "_walk", _skip_one(oracle._walk, 7))
        try:
            with pytest.raises(InternalInvariantViolation):
                distribution_mu(3, 1, 4)
        finally:
            oracle._tally.cache_clear()

    def test_skipped_growth_sequence_is_caught(self, monkeypatch):
        oracle._tally.cache_clear()
        oracle._marginal.cache_clear()
        monkeypatch.setattr(oracle, "_walk", _skip_one(oracle._walk, 3))
        try:
            with pytest.raises(InternalInvariantViolation):
                partitions.p_dist_oracle(5, 2, 1)
        finally:
            oracle._tally.cache_clear()
            oracle._marginal.cache_clear()

    # each case has several prefixes and several suffix lists
    @pytest.mark.parametrize("suffix", [False, True], ids=["prefix", "suffix"])
    def test_dropped_prefix_or_suffix_entry_is_caught_in_words(self, monkeypatch, suffix):
        oracle._tally.cache_clear()
        monkeypatch.setattr(oracle, "_walk", _drop_once(oracle._walk, suffix))
        try:
            with pytest.raises(InternalInvariantViolation):
                distribution_mu(2, 1, 10)
        finally:
            oracle._tally.cache_clear()

    @pytest.mark.parametrize("suffix", [False, True], ids=["prefix", "suffix"])
    def test_dropped_prefix_or_suffix_entry_is_caught_in_growth(self, monkeypatch, suffix):
        oracle._tally.cache_clear()
        oracle._marginal.cache_clear()
        monkeypatch.setattr(oracle, "_walk", _drop_once(oracle._walk, suffix))
        try:
            with pytest.raises(InternalInvariantViolation):
                partitions.p_dist_oracle(9, 3, 2)
        finally:
            oracle._tally.cache_clear()
            oracle._marginal.cache_clear()


def test_one_tally_serves_mu_nu_and_total():
    oracle._tally.cache_clear()
    distribution_mu(4, 1, 5)
    distribution_nu(4, 2, 5)
    total_mu_oracle(4, 1, 5)
    assert oracle._tally.cache_info().misses == 1


def test_each_distribution_is_built_once(monkeypatch):
    oracle._marginal.cache_clear()
    built = []
    real = oracle._read

    def counting(tally, k, n, first, second):
        built.append((first, second))
        return real(tally, k, n, first, second)

    monkeypatch.setattr(oracle, "_read", counting)
    try:
        first = [distribution_mu(4, 2, 5), distribution_nu(4, 2, 5),
                 distribution_gap(4, 2, 2, 5)]
        for _ in range(4):
            assert [distribution_mu(4, 2, 5), distribution_nu(4, 2, 5),
                    distribution_gap(4, 2, 2, 5)] == first
        assert len(built) == 3
        # the cap is checked on every call, before the stored distribution is read
        with pytest.raises(EnumerationTooLarge):
            distribution_mu(4, 2, 5, cap=4**5 - 1)
        with pytest.raises(EnumerationTooLarge):
            distribution_nu(4, 2, 5, cap=4**5 - 1)
        with pytest.raises(EnumerationTooLarge):
            distribution_gap(4, 2, 2, 5, cap=4**5 - 1)
        assert len(built) == 3
    finally:
        oracle._marginal.cache_clear()
    assert first == [distribution_mu(4, 2, 5), distribution_nu(4, 2, 5),
                     distribution_gap(4, 2, 2, 5)]


def test_each_joint_is_read_once_per_tally_and_mark_sets(monkeypatch):
    oracle._marginal.cache_clear()
    reads = []
    real = oracle._read

    def counting(tally, k, n, first, second):
        reads.append((tally, n, first, second))
        return real(tally, k, n, first, second)

    monkeypatch.setattr(oracle, "_read", counting)
    try:
        want = [(joint_lev_asc(n), joint_lev_des(n)) for n in range(6)]
        for _ in range(3):
            assert [(joint_lev_asc(n), joint_lev_des(n)) for n in range(6)] == want
    finally:
        oracle._marginal.cache_clear()
    assert [read[1:] for read in reads] == [
        (n, (0,), marks) for n in range(6) for marks in [(1, 2), (-1, -2)]]
    for tally, n, _, _ in reads:
        assert tally is oracle._tally(n, 3, frozenset({(1, 3)}), 1, False)


def test_total_mu_oracle():
    # two marked words of length 2 over {1,2,3}: 12 and 23
    assert total_mu_oracle(3, 1, 2) == 2


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        distribution_mu(3, 1, -1)
    with pytest.raises(ValueError):
        list(partitions.enumerate_rgf(-1))


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLarge):
        distribution_mu(10, 1, 10, cap=10**6)


def _reference_family(k, n, banned, gap, growth):
    """The difference list of each sequence of a family, by filtering
    `itertools.product` and taking each word's differences directly."""
    for w in itertools.product(range(1, k + 1), repeat=n):
        if any(pair in banned for pair in zip((0,) + w, w)):
            continue
        if growth and any(c > max(w[:i], default=0) + 1 for i, c in enumerate(w)):
            continue
        yield [w[i + gap] - w[i] for i in range(n - gap)]


def _reference_profiles(k, n, banned, gap, growth):
    """{difference profile: number of sequences} over `_reference_family`."""
    return Counter(tuple(diffs.count(d) for d in range(1 - k, k))
                   for diffs in _reference_family(k, n, banned, gap, growth))


def _tally_profiles(k, n, banned, gap, growth):
    tally = oracle._tally(n, k, banned, gap, growth)
    return Counter({oracle._unpack(key, k, n): count for key, count in tally.items()})


@st.composite
def families(draw, kmax=5, nmax=8):
    """k <= kmax, n <= nmax, gap <= 3, any banned pairs (first-letter bars
    (0, b) among them) and growth on or off."""
    k = draw(st.integers(0, kmax))
    pairs = [(a, b) for a in range(k + 1) for b in range(1, k + 1)]
    banned = frozenset(draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else ())
    return k, draw(st.integers(0, nmax)), banned, draw(st.integers(1, 3)), draw(st.booleans())


class TestMeetInTheMiddle:
    """`_tally` joins prefix and suffix counters per junction state; it must
    count exactly the words a plain product scan counts."""

    @given(families())
    @settings(max_examples=100, deadline=None)
    def test_tally_matches_a_product_scan(self, family):
        assert _tally_profiles(*family) == _reference_profiles(*family)

    @pytest.mark.parametrize("k,n,banned,gap,growth", [
        (3, 0, frozenset(), 1, False),  # the empty word alone
        (3, 1, frozenset(), 1, False),
        (3, 1, frozenset({(0, 2)}), 1, True),
        (0, 0, frozenset(), 1, False),
        (0, 3, frozenset(), 1, False),  # no letters, no words
        (1, 5, frozenset(), 1, False),
        (1, 5, frozenset({(1, 1)}), 2, True),
        (3, 2, frozenset(), 3, False),  # gap past the word: every profile empty
        (2, 3, frozenset({(0, 1)}), 5, True),
        (3, 6, frozenset(), 2, False),  # prefix and suffix of 3 letters
        (3, 7, frozenset(), 2, False),  # prefix of 4, suffix of 3
        (2, 9, frozenset({(1, 2)}), 3, False),
        (2, 10, frozenset({(0, 2), (2, 2)}), 1, True),
        (4, 5, frozenset(), 3, False),  # n - m <= gap: one plain walk
        (4, 6, frozenset(), 3, False),
        (4, 4, frozenset(), 2, False),
    ])
    def test_edge_cases(self, k, n, banned, gap, growth):
        assert _tally_profiles(k, n, banned, gap, growth) == _reference_profiles(
            k, n, banned, gap, growth)

    def test_a_tally_visits_a_prefix_or_suffix_once(self, monkeypatch):
        """(k, n) = (6, 7) splits as 6^4 prefixes and 6^3 suffixes for each
        of the 6 last letters: 2592 visits, under 1 % of the 6^7 words."""
        visits = []
        walk = oracle._walk

        def counting(*args, **kwargs):
            for visit in walk(*args, **kwargs):
                visits.append(visit)
                yield visit

        oracle._tally.cache_clear()
        monkeypatch.setattr(oracle, "_walk", counting)
        try:
            tally = oracle._tally(7, 6, frozenset(), 1, False)
        finally:
            oracle._tally.cache_clear()
        assert tally.total() == 6**7
        assert len(visits) == 6**4 + 6 * 6**3 < 0.03 * 6**7

    @pytest.mark.parametrize("k,n,gap", [(4, 5, 3), (4, 6, 3), (4, 4, 2), (3, 2, 3)])
    def test_a_state_that_is_a_whole_prefix_is_walked_plainly(self, monkeypatch, k, n, gap):
        """With m letters met, n - m <= gap leaves one prefix per junction
        state, so the count walks the words once and starts no suffix walk."""
        calls = []
        walk = oracle._walk

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return walk(*args, **kwargs)

        monkeypatch.setattr(oracle, "_walk", recording)
        counts = oracle._count(k, n, frozenset(), gap, False)
        assert counts.total() == k**n
        assert calls == [{}]

    def test_a_cap_scale_count_holds_states_and_keys_not_words(self):
        """3^16 words (43 million, under the default cap): a count keeps
        one key counter per junction state and the suffix counter of one
        state at a time, a few MiB, where one int per word would take over
        300 MiB."""
        tracemalloc.start()
        try:
            counts = oracle._count(3, 16, frozenset(), 1, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.total() == 3**16
        assert peak < 16 * 2**20


def _scan_marginal(k, n, gap, diffs, growth):
    """Distribution of the pairs i with w[i+gap] - w[i] in `diffs`, by
    filtering `itertools.product` and counting each word directly."""
    counts = Counter()
    for w in itertools.product(range(1, k + 1), repeat=n):
        if growth and any(c > max(w[:i], default=0) + 1 for i, c in enumerate(w)):
            continue
        counts[sum(w[i + gap] - w[i] in diffs for i in range(n - gap))] += 1
    return QPoly(counts[i] for i in range(max(counts, default=-1) + 1))


class _CountedTally(Counter):
    """A tally that records every pass over it."""

    def __init__(self, tally, passes):
        super().__init__(tally)
        self.passes = passes

    def items(self):
        self.passes.append("items")
        return super().items()

    def keys(self):
        self.passes.append("keys")
        return super().keys()

    def values(self):
        self.passes.append("values")
        return super().values()

    def __iter__(self):
        self.passes.append("iter")
        return super().__iter__()


class TestOnePassRead:
    """A statistic is read off its tally's keys in one pass over them."""

    @given(st.integers(0, 5), st.integers(0, 7), st.integers(1, 3), st.booleans(),
           st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_marginal_matches_a_product_scan(self, k, n, gap, growth, both, data):
        s = data.draw(st.integers(0, k + 1))
        diffs = tuple(sorted({-s, s})) if both else (s,)
        assert oracle._marginal(n, k, gap, growth, frozenset(), (), diffs)[0] == _scan_marginal(
            k, n, gap, diffs, growth)

    @given(families(4, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_read_matches_a_product_scan(self, family, data):
        """rows[i][j] counts the sequences with i differences in `first`
        and j in `second`, for any family and any two sets of up to three
        distinct differences, possible or not."""
        k, n = family[:2]
        first, second = (data.draw(st.lists(st.integers(-k - 1, k + 1), unique=True,
                                            max_size=3).map(tuple)) for _ in range(2))
        rows = oracle._read(oracle._tally(n, k, *family[2:]), k, n, first, second)
        cells = Counter({(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if c})
        assert cells == Counter(
            (sum(d in first for d in diffs), sum(d in second for d in diffs))
            for diffs in _reference_family(*family))

    @pytest.mark.parametrize("n", range(8))
    def test_joint_matches_a_product_scan(self, n):
        asc = des = PQPoly()
        p, q = PQPoly.p(), PQPoly.q()
        for w in itertools.product((1, 2, 3), repeat=n):
            if (1, 3) not in zip(w, w[1:]):
                diffs = [b - a for a, b in zip(w, w[1:])]
                level = p ** diffs.count(0)
                asc += level * q ** (diffs.count(1) + diffs.count(2))
                des += level * q ** (diffs.count(-1) + diffs.count(-2))
        assert joint_lev_asc(n) == asc
        assert joint_lev_des(n) == des

    @pytest.mark.parametrize("read", [
        lambda: distribution_mu(5, 1, 6),
        lambda: distribution_nu(5, 2, 6),
        lambda: distribution_gap(5, 1, 2, 6),
        lambda: oracle._marginal(7, 3, 1, True, frozenset(), (), (2,)),
        lambda: joint_lev_asc(6),
        lambda: joint_lev_des(6),
    ], ids=["mu", "nu", "gap", "growth", "lev-asc", "lev-des"])
    def test_a_read_iterates_its_tally_once(self, monkeypatch, read):
        passes = []
        tally = oracle._tally
        monkeypatch.setattr(oracle, "_tally",
                            lambda *args: _CountedTally(tally(*args), passes))
        oracle._marginal.cache_clear()
        try:
            read()
        finally:
            oracle._marginal.cache_clear()
        assert passes == ["items"]
