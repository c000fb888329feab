"""Set partitions in canonical sequential form (restricted growth
functions) and the statistic counting adjacent pairs (a, a+s):
brute-force enumeration, the closed-form generating function for a fixed
block count, total-occurrence formulas in Stirling numbers, and the
Bell-number formulas for the grand totals at s = 2, 3, 4.

Growth sequences are tallied by the oracle in the same key layout as
words: a growth family over 1..k holds the sequences with maximum at most
k, so the distribution for k blocks is bound k's minus bound k - 1's.
"""

from __future__ import annotations

from itertools import islice

from .algebra import (
    EnumerationTooLarge,
    InternalInvariantViolation,
    QPoly,
    RatFunc,
    WrongRegime,
    XPoly,
)
from .kary import KSParams, _q_minus_one_pow, gf_A, gf_denominator, unit_column_det
from .oracle import DEFAULT_CAP, _marginal, _tally, _walk


def _bell_numbers():
    """B_0, B_1, ... without end, one row of the Bell triangle each."""
    row = [1]
    while True:
        yield row[0]
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt


def bell_list(n: int) -> list[int]:
    """Bell numbers B_0..B_n via the Bell triangle."""
    return list(islice(_bell_numbers(), max(n, 0) + 1))


def stirling_table(n: int, kmax: int | None = None) -> list[list[int]]:
    """Table S[m][k] of Stirling numbers of the second kind, 0 <= m <= n
    and 0 <= k <= min(kmax, n) (kmax defaults to n)."""
    cols = n if kmax is None else min(kmax, n)
    table = [[0] * (cols + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, min(m, cols) + 1):
            table[m][k] = table[m - 1][k - 1] + k * table[m - 1][k]
    return table


def enumerate_rgf(n: int, k: int | None = None, cap: int = DEFAULT_CAP):
    """All restricted growth functions of length n (first letter 1, each
    letter at most one above the running maximum), streamed in
    lexicographic order; only those with maximum letter k when given."""
    _check_cap(n, cap)
    for w, _, top in _walk(n if k is None else k, n, growth=True):
        if k is None or top == k:
            yield w


def _check_cap(n: int, cap: int) -> None:
    """Raise when B_n exceeds cap.  Bell numbers never decrease, so the
    triangle stops at the first one above cap."""
    if n >= 0 and any(bell > cap for bell in islice(_bell_numbers(), n + 1)):
        raise EnumerationTooLarge(f"B_{n} growth sequences exceed cap {cap}")


def _growth_count(n: int, bound: int) -> int:
    """The number of growth sequences of length n with maximum at most
    `bound`, read off their oracle tally; 0 below bound 0."""
    return _tally(n, bound, frozenset(), 1, True).total() if bound >= 0 else 0


def _at_most(n: int, k: int, s: int, cap: int) -> QPoly:
    """Distribution of adjacent (a, a+s) pairs over the growth sequences of
    length n with maximum letter at most k, by direct scan.  No sequence
    has a maximum above max(n, 1), so k is clamped there."""
    _check_cap(n, cap)
    if k < 0:
        return QPoly(())
    k = min(k, max(n, 1))
    visited = _growth_count(n, k)
    if visited != sum(stirling_table(n, k)[n]):
        raise InternalInvariantViolation(f"walk visited {visited} of S({n}, 0..{k}) sequences")
    return _marginal(n, k, 1, True, frozenset(), (), (s,))[0]


def p_dist_oracle(n: int, k: int, s: int, cap: int = DEFAULT_CAP) -> QPoly:
    """Distribution of adjacent (a, a+s) pairs over the growth sequences of
    length n with maximum letter k, by direct scan."""
    return _at_most(n, k, s, cap) - _at_most(n, k - 1, s, cap)


def p_total_all_oracle(n: int, s: int, cap: int = DEFAULT_CAP) -> int:
    """Summed count of adjacent (a, a+s) pairs over all growth sequences of
    length n (every block count), by direct scan."""
    return _at_most(n, max(n, 1), s, cap).derivative()(1)


def _one_minus_y_pow(m: int) -> XPoly:
    """1 - y^m with y = (q-1)x."""
    return XPoly((1,)) - XPoly.monomial(_q_minus_one_pow(m), m)


def _need_blocks(k: int, s: int) -> None:
    """The regime of gf_P and total_pnk."""
    if s < 2 or k < s + 1:
        raise WrongRegime("need s >= 2 and k >= s+1")


def gf_P(k: int, s: int) -> RatFunc:
    """Closed-form generating function, coefficients in q, for the
    (a, a+s) distribution on partitions with exactly k blocks, s >= 2.

    Assembled factor by factor: with k = rem + steps*s (1 <= rem <= s,
    steps >= 1),

        x^k (1+(q-1)x) (1+(1-q)x)^(k-s+1) (1-((q-1)x)^(steps+1))^(rem-1)
        / prod_{j=1}^{s} (1-jx)
        * prod_{l=1}^{steps-1} (1-((q-1)x)^(l+1))^(s-1) (1-((q-1)x)^(l+2))
        * prod_{j=s+1}^{k} D_j(x;q),

    where 1/D_j is the long-form word-distribution denominator for
    alphabet size j.  At q = 1 this collapses to the classical
    x^k / prod_{j=1}^{k} (1-jx)."""
    _need_blocks(k, s)
    params = KSParams(k, s)
    rem, steps = params.rem, params.steps
    q = QPoly.var()
    num = XPoly.monomial(QPoly((1,)), k)
    num = num * XPoly((QPoly((1,)), q - 1))
    num = num * XPoly((QPoly((1,)), 1 - q)) ** (k - s + 1)
    num = num * _one_minus_y_pow(steps + 1) ** (rem - 1)
    for ell in range(1, steps):
        num = num * _one_minus_y_pow(ell + 1) ** (s - 1)
        num = num * _one_minus_y_pow(ell + 2)
    den = XPoly((1,))
    for j in range(1, s + 1):
        den = den * XPoly((1, -j))
    for j in range(s + 1, k + 1):
        den = den * gf_denominator(KSParams(j, s))
    return RatFunc(num, den)


def total_pnk(n: int, k: int, s: int) -> int:
    """Total number of adjacent (a, a+s) pairs over all partitions of an
    n-set with exactly k blocks (s >= 2, k >= s+1):
    (k-s) S(n-1,k) + sum_{j=s+1}^{k} sum_{t=0}^{n-k-2} S(n-t-2,k) j^t (j-s)."""
    return _block_totals((n,), k, s)[0]


def q_total(n: int, s: int) -> int:
    """Total number of adjacent (a, a+s) pairs over all partitions of an
    n-set, from the Bell-number formulas for s = 2, 3, 4."""
    return _grand_totals((n,), s)[0]


def _block_totals(ns, k: int, s: int) -> list[int]:
    """total_pnk(n, k, s) for each n in ns, read from one Stirling table
    with k + 1 columns built at the longest n once k and s pass their
    check.  No table is built when every n <= k, where each total is 0.
    Each letter's inner sum u_j = sum_t S(n-t-2, k) j^t takes one Horner
    step per length, u_j <- j u_j + S(n-2, k), from 0 at n = k + 1."""
    _need_blocks(k, s)
    top = max(ns, default=0)
    rows = [0] * (top + 1)
    if top > k:
        table = stirling_table(top, k)
        sums = [0] * (k - s)  # u_(s+1), ..., u_k
        for n in range(k + 1, top + 1):
            sums = [j * u + table[n - 2][k] for j, u in enumerate(sums, s + 1)]
            rows[n] = (k - s) * table[n - 1][k] + sum(i * u for i, u in enumerate(sums, 1))
    return [rows[n] if n > k else 0 for n in ns]


def _grand_totals(ns, s: int) -> list[int]:
    """q_total(n, s) for each n in ns, read from one Bell list built at the
    longest n (one further at s = 4, which reads B_(n+1)) once s passes
    its check.  Below n = 2 there is no adjacent pair, and the total is 0.

    In m = n - 1 the s = 3 and s = 4 formulas have denominators 2, 3 and 6 (the
    s = 3 power 2^(m-1-j) is 1/2 at j = m), so each is summed in integers times 6,
    divided once, and must come out integral.  The sum over j runs backwards,
    i = m - j, reading C(m, i), 2^i and 3^i off the last.  It stays one binomial
    sum per row: as running r-Bell sums it runs about 10x faster, but B_n (s = 3)
    and B_(n+1) (s = 4) cancel out of that form, and that check would not read them."""
    if s not in (2, 3, 4):
        raise ValueError("grand-total formulas exist only for s in {2, 3, 4}")
    bell = bell_list(max(ns, default=0) + (s == 4))
    totals = []
    for n in ns:
        if n < 2:
            totals.append(0)
            continue
        if s == 2:
            totals.append((n - 3) * bell[n - 1] - (2 * n - 5) * bell[n - 2] + sum(bell[: n - 2]))
            continue
        m = n - 1
        if s == 3:
            six = (-3 * bell[m + 1] + 3 * (2 * m - 11) * bell[m] - 18 * (m - 1) * bell[m - 1]
                   + 3 * 2**m + 12)
        else:
            six = (-bell[m + 2] - 6 * bell[m + 1] + 2 * (3 * m - 25) * bell[m]
                   - 24 * (m - 1) * bell[m - 1] + 3**m + 6 * 2**m + 21)
        binom, two, three = 1, 1, 1
        for i in range(m):
            weight = 3 * two + 12 if s == 3 else three + 6 * two + 18
            six += binom * weight * bell[m - 1 - i]
            binom = binom * (m - i) // (i + 1)
            two *= 2
            three *= 3
        total, rest = divmod(six, 6)
        if rest:
            raise InternalInvariantViolation(f"grand total for n={n}, s={s} not integral")
        totals.append(total)
    return totals


def gf_P_s1(k: int) -> RatFunc:
    """Generating function of the (a, a+1) distribution on partitions with
    exactly k blocks, built as the corrected product
        q x^k E_k(x) / (1-x) * prod_{j=2}^{k-1} (q - 1 + E'_j(x)).
    The s = 1 statistic needs this separate treatment because both letters
    of an occurrence can be the first of their kind."""
    if k < 2:
        raise WrongRegime("need k >= 2")
    q = QPoly.var()
    out = RatFunc(XPoly.monomial(q, k)) * gf_A(KSParams(k, 1)) / XPoly((1, -1))
    for j in range(2, k):
        # E'_j: a section that may be followed by its successor letter
        correction = XPoly((QPoly((1,)),)) + XPoly.monomial(q - 1, 1) * unit_column_det(j, 1)
        out = out * (q - 1 + gf_A(KSParams(j, 1)) * correction)
    return out


def gf_P_s1_reference(k: int) -> RatFunc:
    """Independent published form of gf_P_s1:

        x^k / (1 - x sum_{i=1}^{k} (1-x^i(q-1)^i)/(1-x(q-1)))
        * prod_{j=1}^{k-1} (q - 1 + (1-x^(j+1)(q-1)^(j+1))
              / (1 - x(j+q) + x (1-x^(j+1)(q-1)^(j+1))/(1-x(q-1))))."""
    if k < 2:
        raise WrongRegime("need k >= 2")
    q = QPoly.var()
    one_minus_y = XPoly((QPoly((1,)), 1 - q))  # 1 - (q-1)x
    geom = RatFunc(XPoly())
    for i in range(1, k + 1):
        geom = geom + RatFunc(_one_minus_y_pow(i), one_minus_y)
    first = RatFunc(XPoly.monomial(QPoly((1,)), k)) / (1 - XPoly.x() * geom)
    out = first
    for j in range(1, k):
        numer = _one_minus_y_pow(j + 1)
        inner_den = XPoly((QPoly((1,)), -QPoly((j, 1)))) + XPoly.x() * RatFunc(
            numer, one_minus_y
        )
        out = out * (q - 1 + RatFunc(numer) / inner_den)
    return out
