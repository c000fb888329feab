import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats import algebra, kary, oeis, transfer, verify
from adjstats.algebra import (
    InternalInvariantViolation,
    QPoly,
    RatFunc,
    SquareMatrix,
    XPoly,
    det_exact,
    series_expand,
    specialize_q,
)
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
from adjstats.transfer import fresh_rows, transfer_dp


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
        assert a_table(KSParams(3, 1), 2)[2] == QPoly((7, 2))
        assert a_table(KSParams(2, 5), 3)[3] == QPoly((8,))
        assert a_table(KSParams(3, 2), 2)[2] == QPoly((8, 1))

    def test_structure(self):
        params = KSParams(4, 2)
        tab = a_table(params, 5)
        rows = fresh_rows(4, 5, second=(params.s,))
        assert tab[0] == 1
        assert all(entry == 1 for entry in rows[1])
        for n in range(1, 6):
            acc = QPoly()
            for entry in rows[n]:
                acc = acc + entry
            assert acc == tab[n]

    @pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2)])
    def test_matches_oracle(self, k, s):
        tab = a_table(KSParams(k, s), 6)
        for n in range(7):
            assert tab[n] == distribution_mu(k, s, n)


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

    @pytest.mark.parametrize("k,s", [(3, 1), (4, 2), (5, 2), (5, 3), (6, 4),
                                     (1, 1), (7, 3), (12, 1), (20, 3), (9, 9)])
    def test_equals_table(self, k, s):
        # every order, those below steps too, where only seed rows are read
        params = KSParams(k, s)
        for order in range(max(9, params.steps + 4)):
            assert a_rec_alt(params, order) == list(a_table(params, order))

    def test_wrong_denominator_is_caught(self, monkeypatch):
        """The recurrence is read off gf_A_reduced, so one wrong coefficient
        of its denominator fails the five-way agreement from n = 1 and the
        identity with the long form.  The avoidance check reads the same
        denominator and raises, so on an emptied store each avoidance
        sequence fails too, and the suite still returns."""
        reduced = kary.gf_A_reduced

        def perturbed(params, *q):
            gf = reduced(params, *q)
            return RatFunc(gf.num, gf.den + XPoly.monomial(1, 1))

        monkeypatch.setattr(kary, "_avoid_checked", {})
        monkeypatch.setattr(kary, "gf_A_reduced", perturbed)
        failed = [(c.name, c.params) for c in verify.suite_kary(kmax=4, smax=2, nmax=5)
                  if not c.passed]
        pairs = [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2)]
        assert failed == [
            check
            for k, s in pairs
            for check in [("five-way distribution agreement", {"k": k, "s": s, "n": n})
                          for n in range(1, 6)]
            + [("long and reduced closed forms are series-identical", {"k": k, "s": s})]
        ] + [("avoidance sequence", {"k": k, "s": 2}) for k in (3, 4)]
        assert kary._avoid_checked == {}


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


class TestDenominatorsAtAPoint:
    """gf_denominator and gf_A_reduced take the point q; at q = 0 they are
    built over the integers, and equal the q-forms set to 0."""

    @pytest.mark.parametrize("k", range(1, 15))
    def test_integer_denominators_are_the_q_forms_at_zero(self, k):
        for s in range(1, 8):
            params = KSParams(k, s)
            for at_zero, q_form in [(kary.gf_denominator(params, 0), kary.gf_denominator(params)),
                                    (gf_A_reduced(params, 0).den, gf_A_reduced(params).den)]:
                assert at_zero == specialize_q(q_form, 0)
                assert all(type(c) is int for c in at_zero.coeffs)

    def test_avoid_count_at_k_2000_stays_small(self, monkeypatch):
        """Built over the integers, the q = 0 denominators take O(k) ints;
        the q-forms hold about k^3 / 3 bits of (q - 1)^i coefficients."""
        monkeypatch.setattr(kary, "_avoid_checked", {})
        with mock.patch.dict(transfer._tables, clear=True):
            tracemalloc.start()
            try:
                counts = avoid_count(KSParams(2000, 1), 4)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert counts[:3] == [1, 2000, 2000**2 - 1999]
        assert peak < 16 * 2**20


class TestQMinusOnePower:
    """(q - 1)^e is built by the binomial theorem, not by squaring."""

    def test_equals_the_squaring_product(self):
        for e in range(65):
            assert kary._q_minus_one_pow(e) == (QPoly.var() - 1) ** e

    @pytest.mark.parametrize("s", [1, 3])
    def test_long_denominator_tail_is_the_signed_binomials(self, s):
        """The tail (rem (1 + (1-q)x) - s) x ((q-1)x)^(steps+1) gives
        x^(steps+2) the coefficient (rem - s)(q-1)^(steps+1), 0 at s = 1,
        and x^(steps+3) the coefficient -rem (q-1)^(steps+2)."""
        params = KSParams(4000, s)
        den = kary.gf_denominator(params)
        e = params.steps + 1
        assert den.degree == e + 2
        for d, scale, power in [(e + 1, params.rem - s, e), (e + 2, -params.rem, e + 1)]:
            for i in (*range(0, power + 1, 97), power - 1, power, power + 1):
                assert den.coeff(d, i) == scale * (-1) ** (power - i) * math.comb(power, i)


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


def _avoid_recheck(params, order):
    """Avoidance counts for 0..order with both recurrences rebuilt from
    their seeds over the whole range and compared in full."""
    k, s, m = params.k, params.s, params.steps
    table = list(transfer_dp(k, order, banned=(s,)))
    alt = table[: m + 1]
    for n in range(m + 1, order + 1):
        alt.append(sum((-1) ** i * (k - i * s) * alt[n - i - 1] for i in range(m + 1)))
    four = table[: min(m + 3, order + 1)]
    sign = (-1) ** m
    for n in range(m + 3, order + 1):
        four.append((k - 2) * four[n - 1] + (k + s - 1) * four[n - 2]
                    + sign * (params.rem - s) * four[n - m - 2]
                    + sign * params.rem * four[n - m - 3])
    assert table == alt == four
    return table


class TestAvoidCheckedOnce:
    """avoid_count checks each length once per (k, s) and records it only
    after the check passes."""

    @given(st.integers(1, 8), st.integers(1, 4),
           st.lists(st.integers(0, 60), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rising_and_falling_orders_match_a_full_recheck(self, k, s, orders):
        params = KSParams(k, s)
        with mock.patch.dict(kary._avoid_checked, clear=True):
            for i, order in enumerate(orders):
                assert avoid_count(params, order) == _avoid_recheck(params, order)
                assert kary._avoid_checked[params][0] == max(orders[: i + 1])

    def test_wrong_total_past_the_checked_length_is_caught(self, monkeypatch):
        params = KSParams(5, 2)
        monkeypatch.setattr(kary, "_avoid_checked", {})
        avoid_count(params, 20)
        real = kary.transfer_dp

        def wrong_at_25(*args, **kwargs):
            totals = real(*args, **kwargs)
            if len(totals) > 25:
                totals[25] += 1
            return totals

        monkeypatch.setattr(kary, "transfer_dp", wrong_at_25)
        message = re.escape(f"avoidance recurrences disagree for {params}")
        for _ in range(2):
            with pytest.raises(InternalInvariantViolation, match=message):
                avoid_count(params, 30)
            assert kary._avoid_checked[params][0] == 20

    def test_threads_record_only_checked_lengths(self, monkeypatch):
        monkeypatch.setattr(kary, "_avoid_checked", {})
        checked = set()
        real = kary._check_avoid

        def recorded_lengths_were_checked():
            return all((params, n) in checked
                       for params, (length, _) in list(kary._avoid_checked.items())
                       for n in range(length + 1))

        def recording(params, dens, counts, n):
            assert recorded_lengths_were_checked()
            real(params, dens, counts, n)
            checked.add((params, n))

        monkeypatch.setattr(kary, "_check_avoid", recording)
        grid = [KSParams(k, s) for k in (3, 4, 5) for s in (1, 2)]
        want = {params: _avoid_recheck(params, 80) for params in grid}
        errors = []

        def worker(seed):
            try:
                for i in range(60):
                    params = grid[(seed + i) % len(grid)]
                    order = (seed * 37 + i * 11) % 81
                    if avoid_count(params, order) != want[params][: order + 1]:
                        errors.append((params, order))
            except Exception as exc:  # reported below, with the worker's seed
                errors.append((seed, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert recorded_lengths_were_checked()

    def test_one_term_calls_check_each_length_once(self, monkeypatch):
        monkeypatch.setattr(kary, "_avoid_checked", {})
        checked = []
        real = kary._check_avoid

        def counting(params, dens, counts, n):
            checked.append(n)
            real(params, dens, counts, n)

        monkeypatch.setattr(kary, "_check_avoid", counting)
        term = oeis.GENERATORS["avoid-step2-alphabet4"]
        values = [term(n) for n in range(400)]
        assert checked == list(range(400))
        assert values == _avoid_recheck(KSParams(4, 2), 399)

    def test_each_denominator_is_built_once_per_pair(self, monkeypatch):
        monkeypatch.setattr(kary, "_avoid_checked", {})
        builds = []
        for name in ("gf_denominator", "gf_A_reduced"):
            real = getattr(kary, name)

            def counting(params, *q, name=name, real=real):
                builds.append((name, params))
                return real(params, *q)

            monkeypatch.setattr(kary, name, counting)
        pairs = [KSParams(5, 2), KSParams(14, 1)]
        for params in pairs:
            for order in (0, 5, 3, 20, 60):
                assert avoid_count(params, order) == _avoid_recheck(params, order)
        assert sorted(builds, key=str) == sorted(
            [(name, params) for name in ("gf_denominator", "gf_A_reduced") for params in pairs],
            key=str)
        builds.clear()
        avoid_count(KSParams(5, 2), 60)  # nothing left to check
        avoid_count(KSParams(5, 2), 7)
        assert builds == []

    @pytest.mark.parametrize("form", ["long", "reduced"])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_a_wrong_denominator_coefficient_is_caught(self, monkeypatch, form, index):
        """Adding 1 to one coefficient of either q = 0 denominator fails
        the avoidance check."""
        bump = XPoly.monomial(1, index)
        if form == "long":
            real_long = kary.gf_denominator
            monkeypatch.setattr(kary, "gf_denominator",
                                lambda params, *q: real_long(params, *q) + bump)
        else:
            real_reduced = kary.gf_A_reduced

            def wrong(params, *q):
                gf = real_reduced(params, *q)
                return RatFunc(gf.num, gf.den + bump)

            monkeypatch.setattr(kary, "gf_A_reduced", wrong)
        monkeypatch.setattr(kary, "_avoid_checked", {})
        monkeypatch.setattr(algebra, "_expansions", {})  # gf_A reads gf_denominator
        params = KSParams(5, 2)
        with pytest.raises(InternalInvariantViolation,
                           match=re.escape(f"avoidance recurrences disagree for {params}")):
            avoid_count(params, 10)
        assert params not in kary._avoid_checked


class TestTotalOccurrences:
    def test_examples(self):
        assert total_occurrences(KSParams(3, 1), 2) == 2
        assert total_occurrences(KSParams(3, 2), 2) == 1
        assert total_occurrences(KSParams(2, 1), 1) == 0
        assert total_occurrences(KSParams(2, 3), 7) == 0

    # k <= s (steps = 0) is the regime where no rise by s fits
    @pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3),
                                     (1, 1), (2, 3), (3, 3), (4, 1), (5, 2)])
    def test_matches_summed_oracle(self, k, s):
        for n in range(7):
            assert total_occurrences(KSParams(k, s), n) == total_mu_oracle(k, s, n)


class TestGapDistribution:
    def test_examples(self):
        assert gap_distribution(KSParams(2, 1), 2, 3) == QPoly((6, 2))
        assert gap_distribution(KSParams(3, 1), 3, 2) == QPoly((9,))
        for n in range(7):
            assert gap_distribution(KSParams(3, 2), 1, n) == a_table(KSParams(3, 2), n)[n]

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
    assert repr(a_table(KSParams(3, 1), 2)[2]) == "QPoly([7, 2])"
    assert specialize_q(gf_A(KSParams(3, 2)), 0).series(4) == [1, 3, 8, 21, 55]
