"""Cross-validation suites: every identity the library promises, run over
configurable parameter grids.  Each check compares two or more
independently computed exact values and records the outcome.  This is
the only home of the cross-checks: the CLI `verify` command runs them on
request, and the acceptance tests run each suite at its default grid.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

from . import absdiff, bijections, fibwords, kary, oracle, partitions, transfer
from .algebra import (
    InternalInvariantViolation,
    QPoly,
    SquareMatrix,
    _Record,
    alt_cheb_sum,
    alt_cheb_sum_closed,
    chebyshev_u,
    det_exact,
)


class Check(_Record):
    __slots__ = ("suite", "name", "params", "passed", "detail")

    def __init__(self, suite: str, name: str, params: dict, passed: bool, detail: str = ""):
        self.suite, self.name, self.params = suite, name, params
        self.passed, self.detail = passed, detail

    def to_dict(self):
        return {"suite": self.suite, "name": self.name, "params": dict(self.params),
                "passed": self.passed, "detail": self.detail}


class _Recorder(_Record):
    __slots__ = ("suite", "checks")

    def __init__(self, suite: str):
        self.suite, self.checks = suite, []

    def record(self, name, params, passed, detail=""):
        self.checks.append(Check(self.suite, name, dict(params), bool(passed), detail))

    def expect_equal(self, name, params, got, want):
        ok = got == want
        self.record(name, params, ok, "" if ok else f"got {got!r}, want {want!r}")

    @contextmanager
    def route(self, name, params):
        """Compute check `name` at `params` in this block, which is given
        `expect(got, want)` for it.  A route whose own check trips there, or
        a map that rejects an object the suite made, fails that check with
        the error as its detail and ends the block."""
        try:
            yield partial(self.expect_equal, name, params)
        except (InternalInvariantViolation, bijections.InvalidComposition,
                bijections.InvalidSequence, bijections.InvalidWord) as exc:
            self.record(name, params, False, f"{type(exc).__name__}: {exc}")


def _rise_pairs(kmax, smax):
    return [(k, s) for s in range(1, smax + 1) for k in range(s + 1, kmax + 1)]


def suite_kary(kmax=6, smax=4, nmax=8) -> list[Check]:
    rec = _Recorder("kary")
    for k, s in _rise_pairs(kmax, smax):
        params = kary.KSParams(k, s)
        table = kary.a_table(params, nmax)
        alt = kary.a_rec_alt(params, nmax)
        long_form, reduced_form = kary.gf_A(params), kary.gf_A_reduced(params)
        long_series, reduced_series = long_form.series(nmax), reduced_form.series(nmax)
        for n in range(nmax + 1):
            point = {"k": k, "s": s, "n": n}
            with rec.route("five-way distribution agreement", point):
                want = oracle.distribution_mu(k, s, n)
                agree = table[n] == alt[n] == long_series[n] == reduced_series[n] == want
                rec.record("five-way distribution agreement", point, agree,
                           "" if agree else f"table={table[n]!r} oracle={want!r}")
        rec.expect_equal("long and reduced closed forms are series-identical",
                         {"k": k, "s": s}, long_form, reduced_form)
        for n in range(nmax + 1):
            with rec.route("total-count formula equals summed statistic",
                           {"k": k, "s": s, "n": n}) as expect:
                expect(kary.total_occurrences(params, n), oracle.total_mu_oracle(k, s, n))
    # alphabets not larger than the rise: distribution collapses to k^n
    for s in range(1, smax + 1):
        for k in range(1, s + 1):
            params = kary.KSParams(k, s)
            rec.expect_equal(
                "no-rise-possible alphabets give the geometric series",
                {"k": k, "s": s},
                kary.gf_A(params).series(8),
                [QPoly((k**n,)) for n in range(9)],
            )
    # words with no rise by 2: even-index Fibonacci numbers on 3 letters,
    # u_n = 4u_{n-1} - 2u_{n-2} on 4 and u_n = 5u_{n-1} - 3u_{n-2} + u_{n-3} on 5
    fib = fibwords.fib_list(26)
    rules = {3: ([fib[2 * n + 2] for n in range(13)], ()),
             4: ([1, 4], (4, -2)), 5: ([1, 5, 22], (5, -3, 1))}
    for k, (want, coeffs) in rules.items():
        if (k, 2) not in _rise_pairs(kmax, smax):
            continue
        while len(want) < 13:
            want.append(sum(c * want[-1 - i] for i, c in enumerate(coeffs)))
        with rec.route("avoidance sequence", {"k": k, "s": 2}) as expect:
            got = kary.avoid_count(kary.KSParams(k, 2), 12)
            expect(got, want)
            for n in range(nmax + 1):
                with rec.route("avoider count equals enumeration at q = 0",
                               {"k": k, "s": 2, "n": n}) as expect:
                    expect(got[n], oracle.distribution_mu(k, 2, n)(0))
    return rec.checks


def suite_gap(kmax=4, nmax=8, smax=3) -> list[Check]:
    rec = _Recorder("gap")
    for s in range(1, smax + 1):
        for k in range(2, kmax + 1):
            params = kary.KSParams(k, s)
            for r in (1, 2, 3):
                for n in range(nmax + 1):
                    with rec.route("gap statistic factors through adjacent case",
                                   {"k": k, "s": s, "r": r, "n": n}) as expect:
                        expect(kary.gap_distribution(params, r, n),
                               oracle.distribution_gap(k, s, r, n))
    return rec.checks


def suite_fibwords() -> list[Check]:
    rec = _Recorder("fibwords")
    nmax_oracle, nmax_series, nmax_totals = 9, 12, 15
    dp = fibwords.j_dist_dp(max(nmax_oracle, nmax_series))
    for n in range(1, nmax_oracle + 1):
        rec.expect_equal(
            "level/ascent DP equals enumeration",
            {"n": n},
            dp[n],
            oracle.joint_lev_asc(n),
        )
    fib = fibwords.fib_list(2 * nmax_totals + 2)
    for n in range(1, nmax_series + 1):
        rec.expect_equal(
            "words are counted by even-index Fibonacci numbers",
            {"n": n},
            dp[n](1, 1),
            fib[2 * n + 2],
        )
    rng = random.Random(20260810)
    for _ in range(20):
        p = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        series = fibwords.gf_f(p, q).series(nmax_series)
        rec.expect_equal(
            "closed form matches DP at a rational point",
            {"p": str(p), "q": str(q)},
            series,
            [dp[n](p, q) for n in range(nmax_series + 1)],
        )
        if q != 0:
            rec.expect_equal(
                "descent form equals its substitution construction",
                {"p": str(p), "q": str(q)},
                fibwords.gf_descent(p, q).series(nmax_series),
                fibwords.gf_descent_substituted(p, q).series(nmax_series),
            )
    descent = fibwords.gf_descent(Fraction(2, 5), Fraction(3, 7)).series(nmax_oracle)
    for n in range(1, nmax_oracle + 1):
        jd = oracle.joint_lev_des(n)
        with rec.route("statistic totals match enumeration", {"n": n}) as expect:
            ja = oracle.joint_lev_asc(n)
            expect(fibwords.totals(n), (ja.deriv_p()(1, 1), ja.deriv_q()(1, 1),
                                        jd.deriv_q()(1, 1)))
        rec.expect_equal(
            "level/descent closed form matches enumeration",
            {"n": n},
            descent[n],
            jd(Fraction(2, 5), Fraction(3, 7)),
        )
    for n in range(1, nmax_totals + 1):
        with rec.route("totals sum to (n-1) times the word count", {"n": n}) as expect:
            lev, asc, des = fibwords.totals(n)
            expect(lev + asc + des, (n - 1) * fib[2 * n + 2])
            if n >= 5:
                rec.record(
                    "strict ordering levels > ascents > descents",
                    {"n": n},
                    lev > asc > des,
                    f"({lev}, {asc}, {des})",
                )
    rec.record(
        "Fibonacci-Lucas convolution identity",
        {"order": nmax_totals},
        fibwords.lucas_identity_holds(nmax_totals),
    )
    return rec.checks


def suite_absdiff(kmax=6, smax=3, nmax=8) -> list[Check]:
    rec = _Recorder("absdiff")
    nmax_series = 12
    for s in range(1, smax + 1):
        for k in range(1, kmax + 1):
            table = absdiff.b_table(k, s, nmax)
            for n in range(nmax + 1):
                with rec.route("jump DP equals enumeration",
                               {"k": k, "s": s, "n": n}) as expect:
                    expect(table[n], oracle.distribution_nu(k, s, n))
    q_points = [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(7, 3)]
    for k, s in [(2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (6, 3)]:
        table = absdiff.b_table(k, s, nmax_series)
        gf = absdiff.gf_B_small(k, s)
        rec.expect_equal(
            "middle-band closed form equals DP",
            {"k": k, "s": s},
            gf.series(nmax_series),
            list(table),
        )
        for n in range(2, nmax_series + 1):
            rec.expect_equal(
                "two-term recursion holds on DP totals",
                {"k": k, "s": s, "n": n},
                sum((c * table[n - j] for j, c in enumerate(gf.den.coeffs)), QPoly()),
                0,
            )
        for qv in q_points:
            rec.expect_equal(
                "Chebyshev-encoded recursion matches DP at a rational",
                {"k": k, "s": s, "q": str(qv)},
                absdiff.b_closed_chebyshev(k, s, nmax_series, qv),
                [t(qv) for t in table],
            )
        # mid-band column collapse: letters below k-s+1 and above s agree
        rows = transfer.fresh_rows(k, absdiff._jump_marks(k, s), nmax, QPoly.const(1))
        for n in range(1, nmax + 1):
            row = rows[n]
            outer = [row[i - 1] for i in range(1, k - s + 1)] + [
                row[i - 1] for i in range(s + 1, k + 1)
            ]
            rec.record(
                "outer letters share one distribution",
                {"k": k, "s": s, "n": n},
                all(c == outer[0] for c in outer),
            )
    wide = [(3, 1), (4, 1), (5, 1), (5, 2), (7, 3), (6, 2)]
    # each pair reads the band sum at levels d, d-1 (k = d*s + r); its two forms
    # agree at one q != 1 exactly when they agree as polynomials in y = x(1-q)
    for d in sorted({kary.KSParams(k, s).steps - i for k, s in wide for i in (0, 1)}):
        rec.expect_equal(
            "squared and triple band sums agree",
            {"d": d, "q": "1/2"},
            absdiff.h_sum_squared(d, Fraction(1, 2)),
            absdiff.h_sum_triple(d, Fraction(1, 2)),
        )
    for k, s in wide:
        table = absdiff.b_table(k, s, nmax_series)
        for qv in q_points:
            series = absdiff.gf_B_large(k, s, qv).series(nmax_series)
            rec.expect_equal(
                "wide-band Chebyshev closed form equals DP at a rational",
                {"k": k, "s": s, "q": str(qv)},
                series,
                [t(qv) for t in table],
            )
    rng = random.Random(20260810)
    done = 0
    while done < 20:
        d = rng.randint(0, 6)
        x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        qv = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if qv == 1:
            continue
        try:
            ok = absdiff.lu_verify(d, x, qv)
        except absdiff.DegeneratePoint:
            continue  # resample, never perturb
        rec.record(
            "tridiagonal LU factorization multiplies back",
            {"d": d, "x": str(x), "q": str(qv)},
            ok,
        )
        done += 1
    return rec.checks


def suite_partitions(kmax=5, nmax=9) -> list[Check]:
    rec = _Recorder("partitions")
    bell = partitions.bell_list(12)
    for n in range(11):
        rec.expect_equal(
            "growth-sequence count is the Bell number",
            {"n": n},
            partitions._growth_count(n, max(n, 1)),
            bell[n],
        )
    table = partitions.stirling_table(max(nmax, 11))  # rows to 11 for the telescoping sums
    for n in range(nmax + 1):
        for k in range(n + 1):
            rec.expect_equal(
                "filtered count is the Stirling number",
                {"n": n, "k": k},
                partitions._growth_count(n, k) - partitions._growth_count(n, k - 1),
                table[n][k],
            )
    for s in (2, 3):
        for k in range(s + 1, kmax + 1):
            series = partitions.gf_P(k, s).series(nmax)
            for n in range(nmax + 1):
                with rec.route("block-count closed form equals enumeration",
                               {"k": k, "s": s, "n": n}) as expect:
                    expect(series[n], partitions.p_dist_oracle(n, k, s))
            for n in range(k + 1, nmax + 1):
                with rec.route("Stirling total formula equals marked enumeration",
                               {"k": k, "s": s, "n": n}) as expect:
                    expect(partitions.total_pnk(n, k, s),
                           partitions.p_dist_oracle(n, k, s).derivative()(1))
    for s in (2, 3, 4):
        for n in range(2, 11):
            with rec.route("Bell-number grand total equals enumeration",
                           {"s": s, "n": n}) as expect:
                expect(partitions.q_total(n, s), partitions.p_total_all_oracle(n, s))
    for n in range(2, nmax + 1):
        with rec.route("grand total is the sum of per-block-count totals",
                       {"s": 2, "n": n}) as expect:
            expect(sum(partitions.total_pnk(n, k, 2) for k in range(3, n)),
                   partitions.q_total(n, 2))
    for n in range(1, 13):
        rec.expect_equal(
            "weighted Stirling row sums telescope to Bell differences",
            {"n": n},
            sum(k * table[n - 1][k] for k in range(n)),
            bell[n] - bell[n - 1],
        )
    for k in range(2, 5):
        a = partitions.gf_P_s1(k).series(nmax)
        b = partitions.gf_P_s1_reference(k).series(nmax)
        rec.expect_equal(
            "the two adjacent-successor forms agree",
            {"k": k},
            a,
            b,
        )
        for n in range(nmax + 1):
            with rec.route("adjacent-successor closed form equals enumeration",
                           {"k": k, "n": n}) as expect:
                expect(a[n], partitions.p_dist_oracle(n, k, 1))
    return rec.checks


# a move word's letters 1..4 as the base-4 digits 0..3
_BASE4 = bytes.maketrans(b"\x01\x02\x03\x04", b"0123")


def _mark(seen: bytearray, digits: bytes, base: int) -> bool:
    """Mark the word spelt by `digits` in `seen`, which holds one byte per
    word of one length over `base` digits, indexed by the word's value.
    True if it was not marked yet; False if it was, or has another length."""
    if base ** len(digits) != len(seen):
        return False
    index = int(b"0" + digits, base)
    new = not seen[index]
    seen[index] = 1
    return new


def suite_bijections(nmax=10) -> list[Check]:
    """Each map runs once per object, in one pass per length that stores no
    family.  If g(f(x)) = x for every x in A, f is injective; if every f(x)
    also passes the membership guard of B, and an independent count gives
    |A| = |B|, then f is a bijection onto B and g its inverse.  The guards
    are the maps' own: the replay and `v_to_w` reject a move word outside
    the 2-4/3-4 avoiders V, `w_to_v` a word outside the 1-3/2-4 avoiders W,
    and `tiling_to_jpp` a piece other than a square or a domino.  So the
    compositions of n + 1 biject onto V, counted by the oracle, and then
    `v_to_w` onto W, which has as many words.  Each image is marked, one
    byte per possible word of its length, so a family that yields an object
    twice in place of another is caught by its images.  A map that raises
    on a generated object fails that length's check."""
    rec = _Recorder("bijections")
    longest_strip = 12
    fib = fibwords.fib_list(longest_strip + 2)
    avoiders = kary.a_rec_alt(kary.KSParams(4, 2), nmax)
    for n in range(nmax + 1):
        with rec.route("composition and rewriting maps accept their families", {"n": n}):
            seen = bytearray(4 ** n)
            comps = marked = 0
            decoded = rewritten = True
            for comp in bijections.colored_compositions(n + 1):
                comps += 1
                moves = bijections.composition_to_maneuvers(comp)
                decoded &= bijections.maneuvers_to_composition(moves) == comp
                rewritten &= bijections.w_to_v(bijections.v_to_w(moves)) == moves
                marked += _mark(seen, bytes(moves).translate(_BASE4), 4)
            v_count = oracle.count_avoiders(4, n, frozenset({(2, 4), (3, 4)}))
            w_count = oracle.count_avoiders(4, n, frozenset({(1, 3), (2, 4)}))
            rec.expect_equal("compositions biject onto move words", {"n": n},
                             {"compositions": comps, "distinct move words": marked},
                             {"compositions": v_count, "distinct move words": v_count})
            rec.record("composition round trip is the identity", {"n": n}, decoded)
            rec.expect_equal("rewriting maps onto the 1-3/2-4 avoiders", {"n": n},
                             marked, w_count)
            rec.record("rewriting round trips are the identity", {"n": n}, rewritten)
            chain = {comps, marked, v_count, w_count, avoiders[n](0)}
            rec.record("all five family sizes coincide", {"n": n}, len(chain) == 1,
                       str(chain))
    for n in range(longest_strip + 1):
        with rec.route("pairing maps accept their families", {"n": n}):
            # a tiling is marked as its cells, 1 where a piece starts and 0
            # in a domino's second cell, read in base 2
            seen = bytearray(2 ** n)
            words = marked = 0
            paired = True
            for word in bijections.jpp_words(n):
                words += 1
                tiling = bijections.jpp_to_tiling(word)
                paired &= bijections.tiling_to_jpp(tiling) == word
                marked += _mark(seen, b"".join(b"10"[:piece] for piece in tiling), 2)
            rec.expect_equal("level-free words are counted by Fibonacci numbers",
                             {"n": n}, words, fib[n + 1])
            rec.expect_equal("pairing map is a bijection onto tilings", {"n": n},
                             {"words": words, "distinct tilings": marked},
                             {"words": fib[n + 1], "distinct tilings": fib[n + 1]})
            rec.record("tiling round trips are the identity", {"n": n}, paired)
    return rec.checks


def suite_algebra() -> list[Check]:
    rec = _Recorder("algebra")
    for s in range(1, 5):
        for m in range(1, 13):
            got = det_exact(SquareMatrix(kary.shift_band_matrix(m, s)))
            d, r = divmod(m, s)
            want = QPoly((0,) * d + ((-1) ** (m - d),)) if r == 0 else QPoly()
            rec.expect_equal(
                "banded determinant closed form",
                {"m": m, "s": s},
                got,
                want,
            )
    for s in range(1, 5):
        for m in range(1, 11):
            got = det_exact(SquareMatrix(kary.unit_column_matrix(m, s)))
            rec.expect_equal(
                "unit-column determinant telescopes to a geometric sum",
                {"m": m, "s": s},
                got,
                kary.unit_column_det(m, s),
            )
    t = QPoly.var()
    for n in range(13):
        num, den = alt_cheb_sum_closed(n, t)
        rec.expect_equal(
            "alternating Chebyshev sum identity",
            {"n": n},
            alt_cheb_sum(n, t) * den,
            num,
        )
    rec.expect_equal("U_5(1) via the recurrence", {}, chebyshev_u(5, 1), 6)
    return rec.checks


SUITES = {
    "kary": suite_kary,
    "gap": suite_gap,
    "fibwords": suite_fibwords,
    "absdiff": suite_absdiff,
    "partitions": suite_partitions,
    "bijections": suite_bijections,
    "algebra": suite_algebra,
}


def run_suites(names, **bounds) -> list[Check]:
    """Run the named suites with optional bound overrides; each bound is
    forwarded only to suites that have a parameter of that name, and a
    note on stderr names every bound a suite does not take."""
    checks = []
    for name in names:
        fn = inner = SUITES[name]
        while hasattr(inner, "__wrapped__"):  # a wrapper's own parameters are *args, **kwargs
            inner = inner.__wrapped__
        code = inner.__code__
        accepted = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
        given = {key: value for key, value in bounds.items() if value is not None}
        for key in sorted(given.keys() - accepted):
            print(f"note: suite {name} takes no --{key}; running it without that bound",
                  file=sys.stderr)
        checks.extend(fn(**{key: given[key] for key in given.keys() & accepted}))
    return checks
