from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import absdiff, verify
from adjstats.absdiff import (
    DegeneratePoint,
    SingularSpecialization,
    WrongRegime,
    b_closed_chebyshev,
    b_table,
    chebyshev_closed_at_square,
    gf_B_large,
    gf_B_small,
    h_sum_squared,
    h_sum_triple,
    lu_factors,
    lu_verify,
    regime,
)
from adjstats.algebra import QPoly, RatFunc, XPoly, chebyshev_u_list
from adjstats.oracle import distribution_nu
from adjstats.transfer import fresh_rows


class TestRegime:
    @pytest.mark.parametrize(
        "k,s,want",
        [(2, 3, "trivial"), (3, 3, "trivial"), (3, 2, "small"), (4, 2, "small"),
         (5, 2, "large"), (3, 1, "large")],
    )
    def test_classification(self, k, s, want):
        assert regime(k, s) == want

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("s", range(1, 13))
    def test_matches_the_band_inequalities(self, k, s):
        want = "trivial" if k <= s else "small" if k <= 2 * s else "large"
        assert regime(k, s) == want


class TestBTable:
    def test_examples(self):
        assert b_table(3, 2, 2)[2] == QPoly((7, 2))  # words 13, 31
        assert b_table(2, 1, 2)[2] == QPoly((2, 2))
        assert b_table(2, 3, 4)[4] == QPoly((16,))

    @pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (4, 3), (5, 1)])
    def test_matches_oracle(self, k, s):
        table = b_table(k, s, 6)
        for n in range(7):
            assert table[n] == distribution_nu(k, s, n)

    def test_mass_is_word_count(self):
        for k, s in [(3, 1), (5, 2), (4, 4)]:
            for n in range(6):
                assert b_table(k, s, 6)[n](1) == k**n

    def test_outer_letter_collapse(self):
        # in the middle band all letters outside [k-s+1, s] share one column
        rows = fresh_rows(5, 6, second=(-3, 3))
        for n in range(1, 7):
            row = rows[n]
            outer = [row[0], row[1], row[3], row[4]]  # letters 1, 2, 4, 5
            assert all(col == outer[0] for col in outer)


class TestSmallBand:
    def test_series_matches_table(self):
        for k, s in [(3, 2), (4, 2), (4, 3), (5, 3), (6, 3)]:
            series = gf_B_small(k, s).series(10)
            assert series == list(b_table(k, s, 10))

    def test_q_one_is_geometric(self):
        from adjstats.algebra import specialize_q

        series = specialize_q(gf_B_small(3, 2), 1).series(5)
        assert series == [3**n for n in range(6)]

    def test_boundary_alphabet_one_term_recursion(self):
        # k = 2s kills the second term: b_n = (k-1+q) b_{n-1}
        table = b_table(4, 2, 8)
        q = QPoly.var()
        for n in range(2, 9):
            assert table[n] == (3 + q) * table[n - 1]

    def test_wrong_regime_rejected(self):
        with pytest.raises(WrongRegime):
            gf_B_small(5, 2)
        with pytest.raises(WrongRegime):
            gf_B_small(2, 3)


class TestChebyshevClosed:
    def test_examples(self):
        assert b_closed_chebyshev(4, 2, 1, 0) == [1, 4]
        assert b_closed_chebyshev(3, 2, 2, 0) == [1, 3, 7]
        assert b_closed_chebyshev(3, 2, 3, 1) == [1, 3, 9, 27]

    def test_matches_table_at_rationals(self):
        for k, s in [(3, 2), (4, 3), (5, 3)]:
            table = b_table(k, s, 8)
            for q in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(7, 3)):
                got = b_closed_chebyshev(k, s, 8, q)
                assert got == [t(q) for t in table]
                assert all(type(b) is Fraction for b in got)

    def test_literal_chebyshev_form_at_square_arguments(self):
        # (2s-k)(q-1) = 4 for (k, s, q) = (3, 2, 5), so root 2 works
        table = b_table(3, 2, 8)
        for n in range(1, 9):
            assert chebyshev_closed_at_square(3, 2, n, 5, 2) == table[n](5)
        # (2s-k)(q-1) = 9/4 for (k, s, q) = (5, 3, 13/4)
        table = b_table(5, 3, 8)
        for n in range(1, 9):
            got = chebyshev_closed_at_square(5, 3, n, Fraction(13, 4), Fraction(3, 2))
            assert got == table[n](Fraction(13, 4))

    def test_root_validation(self):
        with pytest.raises(ValueError):
            chebyshev_closed_at_square(3, 2, 3, 5, 3)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="need order >= 0"):
            b_closed_chebyshev(4, 2, -1, 0)

    def test_outside_the_band_rejected(self):
        with pytest.raises(WrongRegime, match=r"\(k, s\) = \(5, 2\) is not in the band"):
            b_closed_chebyshev(5, 2, 3, 0)

    def test_value_is_a_fraction(self):
        # at (k, s, q) = (2, 1, -1) the denominator is 1, so b_n = 0 for n >= 2
        assert b_closed_chebyshev(2, 1, 3, -1) == [1, 2, 0, 0]
        assert all(type(b) is Fraction for b in b_closed_chebyshev(2, 1, 3, -1))

    def test_one_expansion_per_call(self, monkeypatch):
        calls = []
        real = RatFunc.series

        def counting(self, order):
            calls.append(order)
            return real(self, order)

        monkeypatch.setattr(RatFunc, "series", counting)
        for order in (0, 3, 12):
            calls.clear()
            assert len(b_closed_chebyshev(4, 3, order, Fraction(1, 2))) == order + 1
            assert calls == [order]

    def test_wrong_denominator_is_caught(self, monkeypatch):
        """A wrong x coefficient in gf_B_small(4, 3) fails the checks that
        read it, on its own (k, s) only, and the suite still returns."""
        small = absdiff.gf_B_small

        def perturbed(k, s):
            gf = small(k, s)
            if (k, s) == (4, 3):
                gf = RatFunc(gf.num, gf.den + XPoly.monomial(1, 1))
            return gf

        monkeypatch.setattr(absdiff, "gf_B_small", perturbed)
        failed = Counter((c.name, c.params["k"], c.params["s"])
                         for c in verify.suite_absdiff(nmax=4) if not c.passed)
        assert failed == {
            ("two-term recursion holds on DP totals", 4, 3): 11,
            ("Chebyshev-encoded recursion matches DP at a rational", 4, 3): 5,
            ("middle-band closed form equals DP", 4, 3): 1,
        }


def _cheb_arg(q):
    """The rational function 1 / (2x(1-q))."""
    return RatFunc(XPoly((1,)), XPoly((0, 2 * (1 - q))))


def _h_sum_squared_reference(d, q):
    """The squared band sum summed literally over RatFunc values of U_l at
    1/(2x(1-q)), each sum multiplying the denominators together."""
    us = chebyshev_u_list(d + 1, _cheb_arg(q))
    corner = RatFunc(XPoly((1, 2 * (1 - q)))) ** 2
    front = RatFunc(XPoly.monomial(1 - q, 2))
    total = RatFunc(XPoly())
    for ell in range(d + 1):
        u_lo, u_hi = us[ell + 1], us[ell + 2]
        numer = front * (u_hi + u_lo + (-1) ** ell) ** 2
        total = total + numer / (corner * u_hi * u_lo)
    return total


def _h_sum_triple_reference(d, q):
    """The triple-sum band sum, literally over RatFunc values of U_l."""
    us = chebyshev_u_list(d + 1, _cheb_arg(q))
    total = RatFunc(XPoly())
    for ell in range(d + 1):
        numer = RatFunc(XPoly())
        for j in range(ell + 1):
            for m in range(ell + 1):
                term = us[j + 1] * us[ell - m + 1]
                if (ell + m - j) % 2:
                    term = -term
                numer = numer + term
        total = total + numer / ((1 - q) * us[ell + 2] * us[ell + 1])
    return total


def _one_wrong_sign(level):
    """absdiff._triple_numerator with the sign of its (j, m) = (0, 0) term
    flipped at one level."""
    real = absdiff._triple_numerator

    def one_wrong_sign(vs, ell):
        total = real(vs, ell)
        if ell != level:
            return total
        return total - 2 * XPoly.monomial((-1) ** ell, ell + 1) * vs[0] * vs[ell]

    return one_wrong_sign


@pytest.fixture
def flip_triple_term(monkeypatch):
    """flip(level) puts `_one_wrong_sign(level)` in place of the real
    triple numerator.  The band sweep is cached per level, so the cache is
    emptied before the test, at the flip and after the test: no sweep made
    before the flip hides it, and none made with it outlives the test."""

    def flip(level):
        monkeypatch.setattr(absdiff, "_triple_numerator", _one_wrong_sign(level))
        absdiff._band_sweep.cache_clear()

    absdiff._band_sweep.cache_clear()
    yield flip
    absdiff._band_sweep.cache_clear()


_rationals_not_one = st.fractions(max_denominator=9).filter(lambda q: q != 1)


class TestLargeBand:
    def test_alphabet5_series(self):
        series = gf_B_large(5, 2, 0).series(3)
        assert series == [1, 5, 19, 73]  # n=2: 25 words minus 6 with a jump

    def test_alphabet3_step1(self):
        table = b_table(3, 1, 8)
        series = gf_B_large(3, 1, 0).series(8)
        assert series == [t(0) for t in table]
        assert series[2] == 5  # 9 - 4 mismatch pairs

    @pytest.mark.parametrize("k,s", [(3, 1), (5, 2), (7, 3)])
    def test_matches_table_at_rationals(self, k, s):
        table = b_table(k, s, 8)
        for q in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(2)):
            series = gf_B_large(k, s, q).series(8)
            assert series == [t(q) for t in table]

    def test_band_sum_forms_agree(self):
        for d in range(5):
            for q in (Fraction(0), Fraction(2), Fraction(-1, 3)):
                assert h_sum_squared(d, q) == h_sum_triple(d, q)

    @given(st.integers(0, 6), _rationals_not_one)
    @settings(max_examples=30, deadline=None)
    def test_band_sums_equal_the_chebyshev_references(self, d, q):
        assert h_sum_squared(d, q) == _h_sum_squared_reference(d, q)
        assert h_sum_triple(d, q) == _h_sum_triple_reference(d, q)

    def test_matches_table_on_the_wider_grid(self):
        q_points = (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(7, 3))
        for s in range(1, 4):
            for k in range(2 * s + 1, 12):
                table = b_table(k, s, 20)
                for q in q_points:
                    assert gf_B_large(k, s, q).series(20) == [t(q) for t in table], (k, s, q)

    @pytest.mark.parametrize("k,s,level", [(8, 1, 7), (8, 1, 6), (7, 2, 3), (7, 2, 2)])
    def test_a_wrong_triple_term_is_caught(self, flip_triple_term, k, s, level):
        # k = d*s + r gives d = 7 at (8, 1) and d = 3 at (7, 2); flip the
        # sign of the (j, m) = (0, 0) term at level d, then at level d-1:
        # the two band-sum forms differ there, and so do the closed form
        # and the DP
        flip_triple_term(level)
        q = Fraction(1, 2)
        assert h_sum_squared(level, q) != h_sum_triple(level, q)
        assert gf_B_large(k, s, q).series(12) != [t(q) for t in b_table(k, s, 12)]

    def test_a_flip_after_a_clean_call_is_caught(self, flip_triple_term):
        """The clean sweep of a level, once stored, does not hide a flip
        made after it."""
        q = Fraction(1, 2)
        assert h_sum_squared(3, q) == h_sum_triple(3, q)
        assert gf_B_large(7, 2, q).series(12) == [t(q) for t in b_table(7, 2, 12)]
        flip_triple_term(3)
        assert h_sum_squared(3, q) != h_sum_triple(3, q)
        assert gf_B_large(7, 2, q).series(12) != [t(q) for t in b_table(7, 2, 12)]

    def test_the_stored_sweep_is_immutable(self):
        vs, levels = absdiff._band_sweep(3)
        assert type(vs) is tuple and type(levels) is tuple
        assert all(type(level) is tuple for level in levels)
        assert absdiff._band_sweep(3)[1] is levels

    # the wide pairs of suite_absdiff have d = 2, 3, 4, 2, 2, 2 with k = d*s + r,
    # and each reads the triple form at levels d and d-1
    @pytest.mark.parametrize("level, pairs", [
        (2, [(3, 1), (4, 1), (5, 1), (5, 2), (7, 3), (6, 2)]),
        (4, [(5, 1)]),
    ])
    def test_a_wrong_triple_term_fails_exactly_its_suite_checks(self, flip_triple_term,
                                                                 level, pairs):
        """The flip fails the band check at its level and above, and the
        wide-band checks of every pair that reads one of those levels; the
        suite still returns."""
        flip_triple_term(level)
        failed = [(c.name, *c.params.values())
                  for c in verify.suite_absdiff(nmax=4) if not c.passed]
        band = [("squared and triple band sums agree", d, "1/2") for d in range(level, 5)]
        closed = [("wide-band Chebyshev closed form equals DP at a rational", k, s, q)
                  for k, s in pairs for q in ("0", "-1", "1/2", "2", "7/3")]
        assert sorted(failed) == sorted(band + closed)

    def test_singular_specialization(self):
        with pytest.raises(SingularSpecialization):
            gf_B_large(5, 2, 1)

    def test_wrong_regime_rejected(self):
        with pytest.raises(WrongRegime):
            gf_B_large(4, 2, 0)


class TestLU:
    def test_examples(self):
        assert lu_verify(1, Fraction(1, 3), 0)
        assert lu_verify(4, Fraction(1, 7), -1)
        assert lu_verify(0, Fraction(2, 5), Fraction(1, 2))

    def test_factor_shapes(self):
        lower, upper = lu_factors(3, Fraction(1, 5), Fraction(2))
        for i in range(4):
            assert lower.entry(i, i) == 1
            for j in range(4):
                if j > i or i - j >= 2:
                    assert lower.entry(i, j) == 0
                if j - i >= 2 or i > j:
                    assert upper.entry(i, j) == 0

    def test_degenerate_points_rejected(self):
        with pytest.raises(DegeneratePoint):
            lu_verify(2, Fraction(1, 3), 1)
        # U_1(t) = 2t = 0 at t = 0 is unreachable for rational x, q, but a
        # vanishing higher Chebyshev value is: U_2 = 0 at t^2 = 1/4, i.e.
        # 2x(1-q) = 2
        with pytest.raises(DegeneratePoint):
            lu_verify(2, 1, 0)
