import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import cli, oracle, partitions, verify
from adjstats.algebra import InternalInvariantViolation, QPoly, specialize_q
from adjstats.partitions import (
    EnumerationTooLarge,
    WrongRegime,
    bell_list,
    enumerate_rgf,
    gf_P,
    gf_P_s1,
    gf_P_s1_reference,
    p_dist_oracle,
    p_total_all_oracle,
    q_total,
    stirling_table,
    total_pnk,
)


class TestEnumeration:
    def test_length_three(self):
        assert list(enumerate_rgf(3)) == [
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3),
        ]

    def test_filtered(self):
        assert sum(1 for _ in enumerate_rgf(4, 3)) == 6  # S(4, 3)

    def test_empty(self):
        assert list(enumerate_rgf(0)) == [()]

    def test_counts(self):
        bell = bell_list(9)
        table = stirling_table(9)
        for n in range(9):
            assert sum(1 for _ in enumerate_rgf(n)) == bell[n]
            for k in range(n + 1):
                assert sum(1 for _ in enumerate_rgf(n, k)) == table[n][k]

    def test_growth_condition(self):
        for w in enumerate_rgf(6):
            assert w[0] == 1
            running = 0
            for c in w:
                assert c <= running + 1
                running = max(running, c)

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            list(enumerate_rgf(12, cap=10**5))


    def test_cap_stops_at_the_first_bell_number_above_it(self, monkeypatch):
        """B_6 = 203 is the first Bell number above 100, so a length of a
        billion reads seven of them, and the message names the length."""
        bells = partitions._bell_numbers
        read = []

        def counted():
            for bell in bells():
                read.append(bell)
                yield bell

        monkeypatch.setattr(partitions, "_bell_numbers", counted)
        partitions._check_cap.cache_clear()
        with pytest.raises(EnumerationTooLarge, match=r"^B_1000000000 growth sequences "
                                                       r"exceed cap 100$"):
            p_dist_oracle(10**9, 3, 1, cap=100)
        assert read == [1, 1, 2, 5, 15, 52, 203]
        read.clear()
        partitions._check_cap(5, 100)
        assert read == [1, 1, 2, 5, 15, 52]
        read.clear()
        partitions._check_cap(5, 100)  # a cap that held is not read again
        assert read == []

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 13, 40])
    def test_cap_holds_exactly_up_to_the_bell_number(self, n):
        bell = bell_list(n)[n]
        partitions._check_cap.cache_clear()
        for _ in range(2):  # computed, then remembered
            partitions._check_cap(n, bell)
            partitions._check_cap(n, bell + 1)
            with pytest.raises(EnumerationTooLarge, match=rf"^B_{n} growth sequences "
                                                          rf"exceed cap {bell - 1}$"):
                partitions._check_cap(n, bell - 1)
        assert partitions._check_cap.cache_info().hits == 2


class TestStirlingBell:
    def test_bell(self):
        assert bell_list(8) == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_stirling_row_sums(self):
        table = stirling_table(8)
        bell = bell_list(8)
        for n in range(9):
            assert sum(table[n]) == bell[n]

    def test_weighted_row_sum_identity(self):
        # sum_k k * S(n-1, k) = B_n - B_{n-1}
        bell = bell_list(12)
        for n in range(1, 13):
            table = stirling_table(n - 1)
            got = sum(k * table[n - 1][k] for k in range(n))
            assert got == bell[n] - bell[n - 1]


class TestDistOracle:
    def test_examples(self):
        assert p_dist_oracle(4, 3, 2) == QPoly((5, 1))  # only 1213 hits
        assert p_dist_oracle(4, 3, 3) == QPoly((6,))
        assert p_dist_oracle(3, 2, 2) == QPoly((3,))

    def test_mass_is_stirling(self):
        table = stirling_table(7)
        for n in range(8):
            for k in range(n + 1):
                assert p_dist_oracle(n, k, 2)(1) == table[n][k]


@pytest.fixture
def fresh_tallies():
    oracle._tally.cache_clear()
    oracle._marginal.cache_clear()
    yield
    oracle._tally.cache_clear()
    oracle._marginal.cache_clear()


class TestBoundRead:
    """A block count k is read as the tally for maximum at most k minus the
    one for at most k - 1, each bound clamped at max(n, 1) and mass-checked."""

    def test_bound_above_n_walks_no_larger_alphabet(self, monkeypatch, fresh_tallies):
        alphabets = []
        walk = oracle._walk

        def recording(k, n, banned=frozenset(), gap=1, growth=False, **kwargs):
            if growth:
                alphabets.append((k, n))
            return walk(k, n, banned, gap, growth, **kwargs)

        monkeypatch.setattr(oracle, "_walk", recording)
        assert p_dist_oracle(8, 200, 2) == QPoly(())
        assert p_dist_oracle(3, 50, 1) == QPoly(())
        assert {n for _, n in alphabets} == {8, 3}
        assert all(k <= max(n, 1) for k, n in alphabets)

    def test_dropped_sequence_below_n_is_caught(self, monkeypatch, fresh_tallies):
        walk = oracle._walk

        def dropping(k, n, banned=frozenset(), gap=1, growth=False, **kwargs):
            visits = walk(k, n, banned, gap, growth, **kwargs)
            if growth and k < n:
                return (visit for i, visit in enumerate(visits) if i != 1)
            return visits

        monkeypatch.setattr(oracle, "_walk", dropping)
        with pytest.raises(InternalInvariantViolation):
            p_dist_oracle(7, 2, 1)


def _failed_with_a_dropped_count(monkeypatch, half):
    """The failed partition checks when the growth tally for n = 7 and
    maximum at most 6 loses one count from the first entry of its first
    state's prefix counter (`half` 0) or suffix counter (`half` 1)."""
    # monkeypatch is set up after fresh_tallies, so the real store is
    # back before its caches are cleared
    tally = oracle._tally

    def dropping(n, k, banned, gap, growth):
        states = tally(n, k, banned, gap, growth)
        if (n, k, growth) == (7, 6, True):
            states = [[dict(counts) for counts in state] for state in states]
            counts = states[0][half]
            counts[next(iter(counts))] -= 1
        return states

    monkeypatch.setattr(oracle, "_tally", dropping)
    return [(c.name, c.params) for c in verify.suite_partitions(nmax=7) if not c.passed]


class TestSuiteCounts:
    def test_dropped_sequence_fails_its_stirling_checks(self, fresh_tallies, monkeypatch):
        """The suite's Bell and Stirling counts are read off the growth
        tallies, so one sequence missing from the tally for n = 7 and
        maximum at most 6 fails S(7, 6) and S(7, 7), and the suite returns."""
        assert _failed_with_a_dropped_count(monkeypatch, 0) == [
            ("filtered count is the Stirling number", {"n": 7, "k": 6}),
            ("filtered count is the Stirling number", {"n": 7, "k": 7})]

    def test_dropped_suffix_count_fails_the_same_stirling_checks(self, fresh_tallies,
                                                                 monkeypatch):
        assert _failed_with_a_dropped_count(monkeypatch, 1) == [
            ("filtered count is the Stirling number", {"n": 7, "k": 6}),
            ("filtered count is the Stirling number", {"n": 7, "k": 7})]


class TestClosedForm:
    @pytest.mark.parametrize("k,s", [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)])
    def test_matches_oracle(self, k, s):
        series = gf_P(k, s).series(8)
        for n in range(9):
            assert series[n] == p_dist_oracle(n, k, s)

    def test_q_one_recovers_stirling(self):
        table = stirling_table(9)
        for k, s in [(3, 2), (4, 3)]:
            series = specialize_q(gf_P(k, s), 1).series(9)
            assert series == [table[n][k] for n in range(10)]

    def test_example_coefficient(self):
        assert gf_P(3, 2).series(4)[4] == QPoly((5, 1))

    def test_regime_validation(self):
        with pytest.raises(WrongRegime):
            gf_P(3, 1)
        with pytest.raises(WrongRegime):
            gf_P(2, 2)


class TestTotals:
    def test_examples(self):
        assert total_pnk(4, 3, 2) == 1
        assert total_pnk(5, 3, 2) == 7
        assert total_pnk(3, 3, 2) == 0  # the unique 123 has no rise by 2

    @pytest.mark.parametrize("k,s", [(3, 2), (4, 2), (5, 2), (4, 3)])
    def test_matches_oracle_derivative(self, k, s):
        for n in range(k + 1, 9):
            assert total_pnk(n, k, s) == p_dist_oracle(n, k, s).derivative()(1)


class TestGrandTotals:
    def test_examples(self):
        assert q_total(4, 2) == 1
        assert q_total(4, 3) == 0
        assert q_total(5, 4) == 0

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_matches_oracle(self, s):
        for n in range(2, 9):
            assert q_total(n, s) == p_total_all_oracle(n, s)

    def test_links_to_per_block_totals(self):
        for n in range(4, 9):
            assert q_total(n, 2) == sum(total_pnk(n, k, 2) for k in range(3, n))

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_below_two_elements_matches_oracle(self, s):
        # no partition of a 0- or 1-set has an adjacent pair
        totals = [q_total(n, s) for n in (0, 1)]
        assert totals == [p_total_all_oracle(n, s) for n in (0, 1)] == [0, 0]

    def test_unsupported_size(self):
        for n in (0, 1, 5):  # s is checked before the short lengths
            with pytest.raises(ValueError, match="only for s in"):
                q_total(n, 5)


class TestTotalsReadersAgainstTheOracle:
    """Both totals readers, on drawn lengths in any order and with repeats,
    against the scanned distributions: the block totals against the
    derivative at q = 1 of the exactly-k distribution, the grand totals
    against the summed count over every growth sequence."""

    lengths = st.lists(st.integers(0, 9), min_size=1, max_size=6)

    @given(st.integers(3, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(2, k - 1))),
           lengths)
    @settings(max_examples=40, deadline=None)
    def test_block_totals(self, ks, ns):
        k, s = ks
        assert partitions._block_totals(ns, k, s) == [
            p_dist_oracle(n, k, s).derivative()(1) for n in ns]

    @given(st.sampled_from([2, 3, 4]), lengths)
    @settings(max_examples=30, deadline=None)
    def test_grand_totals(self, s, ns):
        assert partitions._grand_totals(ns, s) == [p_total_all_oracle(n, s) for n in ns]


class TestOneTablePerRequest:
    """A range of block totals reads one Stirling table, and a range of
    grand totals one Bell list, built at its longest n, and equals the
    one-row requests."""

    @pytest.mark.parametrize("k,s", [(3, 2), (5, 2), (4, 3), (7, 3), (9, 4)])
    def test_rows_equal_one_row_requests(self, k, s):
        assert partitions._block_totals(range(0, 30), k, s) == [
            total_pnk(n, k, s) for n in range(30)]
        assert partitions._block_totals(range(k + 5, k + 9), k, s) == [
            total_pnk(n, k, s) for n in range(k + 5, k + 9)]

    @pytest.mark.parametrize("args", [["--s", "2"], ["--s", "3"], ["--s", "4"],
                                      ["--k", "5", "--s", "2"], ["--k", "6", "--s", "4"]])
    def test_cli_range_rows_equal_one_row_requests(self, capsys, args):
        assert cli.main(["totals", "--partitions", *args, "--n", "0..25"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for n in range(26):
            assert cli.main(["totals", "--partitions", *args, "--n", str(n)]) == 0
            assert json.loads(capsys.readouterr().out)["rows"] == [rows[n]]

    def test_one_table_per_request(self, monkeypatch):
        built = []
        real = partitions.stirling_table
        monkeypatch.setattr(partitions, "stirling_table",
                            lambda *args: built.append(args) or real(*args))
        partitions._block_totals(range(0, 60), 5, 2)
        assert built == [(59, 5)]
        partitions._block_totals(range(0, 9), 9, 2)  # every total is 0: no table
        assert built == [(59, 5)]

    def test_the_regime_is_checked_before_the_table(self, monkeypatch):
        monkeypatch.setattr(partitions, "stirling_table", None)
        with pytest.raises(WrongRegime):
            partitions._block_totals(range(0, 1000), 900, 10**6)

    @pytest.mark.parametrize("s,extra", [(2, 0), (3, 0), (4, 1)])
    def test_one_bell_list_per_grand_total_request(self, monkeypatch, s, extra):
        built = []
        real = partitions.bell_list
        monkeypatch.setattr(partitions, "bell_list", lambda n: built.append(n) or real(n))
        partitions._grand_totals(range(0, 60), s)
        assert built == [59 + extra]

    def test_the_grand_total_size_is_checked_before_the_list(self, monkeypatch):
        monkeypatch.setattr(partitions, "bell_list", None)
        with pytest.raises(ValueError, match="only for s in"):
            partitions._grand_totals(range(0, 1000), 5)

    @staticmethod
    def _rational_grand_total(n, s):
        """The Bell-number formula for s at n >= 2 as first written: one Bell
        list per row, the s = 3 and s = 4 sums in exact rationals."""
        if s == 2:
            bell = bell_list(n)
            return (n - 3) * bell[n - 1] - (2 * n - 5) * bell[n - 2] + sum(bell[: n - 2])
        if s == 3:
            bell = bell_list(n)
            total = (Fraction(-1, 2) * bell[n] + Fraction(2 * n - 13, 2) * bell[n - 1]
                     - 3 * (n - 2) * bell[n - 2] + Fraction(2) ** (n - 2) + 2)
            for j in range(1, n):
                total += comb(n - 1, j) * (Fraction(2) ** (n - 2 - j) + 2) * bell[j - 1]
            return total
        m = n - 1
        bell = bell_list(m + 2)
        total = (Fraction(-1, 6) * bell[m + 2] - bell[m + 1]
                 + Fraction(3 * m - 25, 3) * bell[m] - 4 * (m - 1) * bell[m - 1]
                 + Fraction(3**m + 6 * 2**m + 21, 6))
        for j in range(1, m + 1):
            total += comb(m, j) * Fraction(3 ** (m - j) + 6 * 2 ** (m - j) + 18, 6) * bell[j - 1]
        return total

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_integer_sums_equal_the_rational_formulas(self, s):
        expected = [0, 0] + [self._rational_grand_total(n, s) for n in range(2, 201)]
        assert partitions._grand_totals(range(0, 201), s) == expected

    @staticmethod
    def _double_sum_block_totals(ns, k, s):
        """The Stirling formula as the paper writes it, summed afresh for
        every row with a power per term:
        (k-s) S(n-1,k) + sum_{j=s+1}^{k} sum_{t=0}^{n-k-2} S(n-t-2,k) j^t (j-s)."""
        table = stirling_table(max(ns), k)
        totals = []
        for n in ns:
            total = 0
            if n > k:
                total = (k - s) * table[n - 1][k]
                for j in range(s + 1, k + 1):
                    for t in range(n - k - 1):
                        total += table[n - t - 2][k] * j**t * (j - s)
            totals.append(total)
        return totals

    @pytest.mark.parametrize("k,s,top", [(3, 2, 120), (4, 3, 120), (5, 2, 120), (7, 3, 120),
                                         (9, 4, 120), (12, 11, 120), (40, 2, 60)])
    def test_recurrence_equals_the_double_sum(self, k, s, top):
        ns = range(0, top + 1)
        assert partitions._block_totals(ns, k, s) == self._double_sum_block_totals(ns, k, s)

    @pytest.mark.parametrize("ns", [[90, 3, 89, 90], [7, 7], [60, 0, 59, 6, 5, 61]])
    def test_rows_come_back_in_the_order_asked(self, ns):
        assert partitions._block_totals(ns, 5, 2) == self._double_sum_block_totals(ns, 5, 2)

    def test_stirling_columns_are_a_prefix_of_the_full_table(self):
        full = stirling_table(12)
        for kmax in range(15):
            assert stirling_table(12, kmax) == [row[: kmax + 1] for row in full]


class TestSuccessorStatistic:
    def test_two_block_examples(self):
        series = gf_P_s1(2).series(3)
        assert series[2] == QPoly((0, 1))  # the sequence 12
        assert series[3] == QPoly((0, 3))  # 112, 121, 122 each hit once

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_both_forms_match_oracle(self, k):
        a = gf_P_s1(k).series(8)
        b = gf_P_s1_reference(k).series(8)
        assert a == b
        for n in range(9):
            assert a[n] == p_dist_oracle(n, k, 1)

    def test_q_one_recovers_stirling(self):
        table = stirling_table(8)
        series = specialize_q(gf_P_s1(3), 1).series(8)
        assert series == [table[n][3] for n in range(9)]
