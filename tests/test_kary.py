import pytest

from adjstats.algebra import QPoly, SquareMatrix, det_exact, series_expand, specialize_q
from adjstats.kary import (
    KSParams,
    a_rec_alt,
    a_table,
    avoid_count,
    gap_distribution,
    gf_A,
    gf_A_reduced,
    shift_band_matrix,
    total_occurrences,
    unit_column_det,
    unit_column_matrix,
)
from adjstats.oracle import distribution_gap, distribution_mu, total_mu_oracle


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestKSParams:
    @pytest.mark.parametrize(
        "k,s,rem,steps",
        [(3, 1, 1, 2), (3, 2, 1, 1), (4, 2, 2, 1), (5, 2, 1, 2), (2, 5, 2, 0), (6, 3, 3, 1)],
    )
    def test_decomposition(self, k, s, rem, steps):
        params = KSParams(k, s)
        assert (params.rem, params.steps) == (rem, steps)
        assert params.k == params.rem + params.s * params.steps
        assert 1 <= params.rem <= params.s

    def test_validation(self):
        with pytest.raises(ValueError):
            KSParams(0, 1)


class TestATable:
    def test_examples(self):
        assert a_table(KSParams(3, 1), 2).totals[2] == QPoly((7, 2))
        assert a_table(KSParams(2, 5), 3).totals[3] == QPoly((8,))
        assert a_table(KSParams(3, 2), 2).totals[2] == QPoly((8, 1))

    def test_structure(self):
        tab = a_table(KSParams(4, 2), 5)
        assert tab.totals[0] == 1
        assert all(entry == 1 for entry in tab.rows[1])
        for n in range(1, 6):
            acc = QPoly()
            for entry in tab.rows[n]:
                acc = acc + entry
            assert acc == tab.totals[n]

    @pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2)])
    def test_matches_oracle(self, k, s):
        tab = a_table(KSParams(k, s), 6)
        for n in range(7):
            assert tab.totals[n] == distribution_mu(k, s, n)


class TestAltRecurrence:
    def test_hand_applied_example(self):
        # steps = 2 for (k, s) = (3, 1): a_2 = 3 a_1 + 2(q-1) a_0
        vals = a_rec_alt(KSParams(3, 1), 2)
        assert vals[2] == QPoly((7, 2))

    def test_avoidance_values_alphabet4(self):
        vals = a_rec_alt(KSParams(4, 2), 4)
        assert [v(0) for v in vals] == [1, 4, 14, 48, 164]
        # u_n = 4 u_{n-1} - 2 u_{n-2} on the q=0 values
        seq = [v(0) for v in a_rec_alt(KSParams(4, 2), 8)]
        assert all(seq[n] == 4 * seq[n - 1] - 2 * seq[n - 2] for n in range(2, 9))

    def test_single_letter_alphabet(self):
        assert all(v == 1 for v in a_rec_alt(KSParams(1, 1), 6))

    @pytest.mark.parametrize("k,s", [(3, 1), (4, 2), (5, 2), (5, 3), (6, 4)])
    def test_equals_table(self, k, s):
        params = KSParams(k, s)
        assert a_rec_alt(params, 8) == list(a_table(params, 8).totals)


class TestGeneratingFunction:
    def test_fibonacci_specialization(self):
        series = series_expand(specialize_q(gf_A(KSParams(3, 2)), 0), 6)
        assert series == [fib(2 * n + 2) for n in range(7)]

    def test_q_one_collapses_to_geometric(self):
        for k, s in [(3, 1), (4, 2), (5, 3)]:
            series = series_expand(specialize_q(gf_A(KSParams(k, s)), 1), 6)
            assert series == [k**n for n in range(7)]

    def test_reduced_denominator_alphabet5(self):
        den = specialize_q(gf_A_reduced(KSParams(5, 2)), 0).den
        assert [den.coeff(i) for i in range(4)] == [1, -5, 3, -1]

    @pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (4, 3), (2, 5)])
    def test_both_forms_series_identical(self, k, s):
        params = KSParams(k, s)
        assert gf_A(params).series(25) == gf_A_reduced(params).series(25)

    def test_small_alphabet_reduces_to_geometric(self):
        # k <= s: no occurrence is ever possible, yet the same formula applies
        for k, s in [(1, 1), (2, 5), (3, 3)]:
            series = gf_A(KSParams(k, s)).series(8)
            assert series == [QPoly((k**n,)) for n in range(9)]


class TestAvoidCount:
    def test_corollary_sequences(self):
        assert avoid_count(KSParams(3, 2), 4) == [1, 3, 8, 21, 55]
        assert avoid_count(KSParams(4, 2), 4) == [1, 4, 14, 48, 164]
        vals = avoid_count(KSParams(5, 2), 8)
        # defining recurrence of the shifted sequence: u_n = 5u_{n-1} - 3u_{n-2} + u_{n-3}
        assert all(
            vals[n] == 5 * vals[n - 1] - 3 * vals[n - 2] + vals[n - 3] for n in range(3, 9)
        )

    @pytest.mark.parametrize("k,s", [(3, 2), (4, 2), (5, 2)])
    def test_matches_oracle(self, k, s):
        vals = avoid_count(KSParams(k, s), 8)
        for n in range(9):
            assert vals[n] == distribution_mu(k, s, n)(0)


class TestTotalOccurrences:
    def test_examples(self):
        assert total_occurrences(KSParams(3, 1), 2) == 2
        assert total_occurrences(KSParams(3, 2), 2) == 1
        assert total_occurrences(KSParams(2, 1), 1) == 0
        assert total_occurrences(KSParams(2, 3), 7) == 0

    @pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
    def test_matches_summed_oracle(self, k, s):
        for n in range(1, 7):
            assert total_occurrences(KSParams(k, s), n) == total_mu_oracle(k, s, n)


class TestGapDistribution:
    def test_examples(self):
        assert gap_distribution(KSParams(2, 1), 2, 3) == QPoly((6, 2))
        assert gap_distribution(KSParams(3, 1), 3, 2) == QPoly((9,))
        for n in range(7):
            assert gap_distribution(KSParams(3, 2), 1, n) == a_table(KSParams(3, 2), n).totals[n]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_oracle(self, r):
        for k, s in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            for n in range(8):
                got = gap_distribution(KSParams(k, s), r, n)
                assert got == distribution_gap(k, s, r, n)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            gap_distribution(KSParams(3, 1), 2, -1)  # would read totals[-1] silently


class TestUnitColumnDeterminant:
    def test_closed_form_matches_expansion(self):
        for s in range(1, 5):
            for m in range(1, 8):
                matrix = SquareMatrix(unit_column_matrix(m, s))
                assert det_exact(matrix) == unit_column_det(m, s)

    def test_geometric_sum_shape(self):
        # m = ds + r and the determinant has d+1 alternating terms
        det = unit_column_det(7, 3)
        assert det.degree == 2
        assert det.coeff(0) == 1


class TestShiftBandDeterminant:
    def test_step_divides_size(self):
        # 4 = 2*2: determinant (-1)^(4-2) z^2
        assert det_exact(SquareMatrix(shift_band_matrix(4, 2))) == QPoly((0, 0, 1))

    def test_step_does_not_divide_size(self):
        assert det_exact(SquareMatrix(shift_band_matrix(3, 2))) == QPoly()

    def test_step_one_gives_pure_power(self):
        assert det_exact(SquareMatrix(shift_band_matrix(5, 1))) == QPoly((0,) * 5 + (1,))


def test_readme_example():
    assert repr(a_table(KSParams(3, 1), 2).totals[2]) == "QPoly([7, 2])"
    assert specialize_q(gf_A(KSParams(3, 2)), 0).series(4) == [1, 3, 8, 21, 55]
