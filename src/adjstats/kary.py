"""Distribution of fixed rises (adjacent pairs a, a+s) on k-ary words:
last-letter dynamic programming, two equivalent closed-form generating
functions, the short linear recurrence, avoidance counts, the total-count
formula, and the reduction of wider gaps to the adjacent case.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import InternalInvariantViolation, QPoly, RatFunc, XPoly, _Frozen
from .transfer import transfer_dp


class KSParams(_Frozen):
    """Alphabet size k and rise size s, with the decomposition
    k = rem + s*steps, 1 <= rem <= s, steps >= 0.

    steps + 1 is the longest chain a, a+s, a+2s, ... that fits in [1, k];
    it controls the order of every recurrence below.  Every module reads
    the decomposition from here.
    """

    __slots__ = ("k", "s")

    def __init__(self, k: int, s: int):
        if k < 1 or s < 1:
            raise ValueError("need k >= 1 and s >= 1")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)

    # written out, not read through _Record's getter, which is about 1.5
    # times as slow: the stores per (k, s) hash a KSParams on each request
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.s) == (other.k, other.s)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.k, self.s))

    @property
    def rem(self) -> int:
        return (self.k - 1) % self.s + 1

    @property
    def steps(self) -> int:
        return (self.k - self.rem) // self.s


def a_table(params: KSParams, order: int) -> Sequence[QPoly]:
    """The rise distributions of lengths 0..order by the last-letter DP,
    every rise marked by q."""
    return transfer_dp(params.k, order, second=(params.s,))


def a_rec_alt(params: KSParams, order: int) -> list[QPoly]:
    """The (steps+1)-term recurrence read off the denominator of
    gf_A_reduced, a_n = -sum_{j>=1} den_j a_{n-j}, seeded with rows
    0..steps taken from the DP table: the series of P/den, where P is den
    times the seed rows cut after x^steps."""
    den = gf_A_reduced(params).den
    seed = XPoly(tuple(a_table(params, min(order, params.steps))))
    return RatFunc(XPoly((den * seed).coeffs[: params.steps + 1]), den).series(order)


def _q_minus_one_pow(e: int) -> QPoly:
    """(q - 1)^e by the binomial theorem: q^i has (-1)^(e-i) C(e, i), each
    read off the last by C(e, i+1) = C(e, i) (e-i) / (i+1)."""
    coeffs = [(-1) ** e]
    for i in range(e):
        coeffs.append(-coeffs[-1] * (e - i) // (i + 1))
    return QPoly(coeffs)


def gf_denominator(params: KSParams, q=QPoly.var()) -> XPoly:
    """Denominator of the long-form generating function, with coefficients
    in q, or in the ring of the point q given (integers at q = 0)."""
    k, s = params.k, params.s
    one_m_q = 1 - q
    # q**0 is the 1 of q's ring
    lead = XPoly((q**0, -(k - 2 + 2 * q), -((k + s - 1 + q) * one_m_q)))
    # (rem*(1 + (1-q)x) - s) * x * ((q-1)x)^(steps+1)
    factor = XPoly((params.rem - s, params.rem * one_m_q))
    e = params.steps + 1
    power = _q_minus_one_pow(e) if q == QPoly.var() else (q - 1) ** e
    tail = factor * XPoly.monomial(power, e + 1)
    return lead + tail


def gf_A(params: KSParams) -> RatFunc:
    """Closed-form generating function sum_n a_n(q) x^n, long form:
    numerator (1 + (1-q)x)^2 over gf_denominator."""
    one_m_q = 1 - QPoly.var()
    num = XPoly((QPoly((1,)), one_m_q)) ** 2
    return RatFunc(num, gf_denominator(params))


def gf_A_reduced(params: KSParams, q=QPoly.var()) -> RatFunc:
    """The same generating function after cancelling (1 + (1-q)x)^2:
    1 / (1 - sum_{i=0}^{steps} (q-1)^i (k - i s) x^(i+1)), at q as in
    gf_denominator."""
    k, s = params.k, params.s
    coeffs, power = [q**0], q**0  # power = (q-1)^i
    for i in range(params.steps + 1):
        coeffs.append(-(power * (k - i * s)))
        power = power * (q - 1)
    return RatFunc(XPoly((1,)), XPoly(coeffs))


# KSParams -> (the longest length whose avoidance count has passed both
# recurrence checks, their q = 0 denominators).  A length is recorded only
# after its check passes: two threads may check a length twice, never skip one.
_avoid_checked: dict = {}


def _check_avoid(params: KSParams, dens: tuple, counts: list, n: int) -> None:
    """Check counts[n] against each recurrence sum_j den_j counts[n-j] = 0
    whose window fits, n >= len(den) - 1.  The last coefficient of each
    denominator is +/-rem != 0, so the windows begin at steps+3 for the
    long form and at steps+1 for the reduced one."""
    for den in dens:
        if n >= len(den) - 1 and sum(c * counts[n - j] for j, c in enumerate(den)):
            raise InternalInvariantViolation(f"avoidance recurrences disagree for {params}")


def avoid_count(params: KSParams, order: int) -> list[int]:
    """Counts of words with no rise by s, for lengths 0..order.

    Computed three ways -- the integer DP with every rise forbidden, and
    the recurrences read off the denominators of gf_A and gf_A_reduced at
    q=0 -- which must agree exactly.  Each length is checked once per
    (k, s), and the denominators are built once: a later call checks only
    the lengths past the longest one checked so far.
    """
    counts = transfer_dp(params.k, order, banned=(params.s,))
    checked, dens = _avoid_checked.get(params, (-1, None))
    if order > checked:
        if dens is None:
            dens = (gf_denominator(params, 0).coeffs, gf_A_reduced(params, 0).den.coeffs)
        for n in range(checked + 1, order + 1):
            _check_avoid(params, dens, counts, n)
        _avoid_checked[params] = (order, dens)
    return counts


def total_occurrences(params: KSParams, n: int) -> int:
    """Total number of (a, a+s) adjacencies over all k-ary words of
    length n: k^(n-2) (k-s) (n-1), and 0 whenever no rise can occur."""
    k, s = params.k, params.s
    if n < 2 or params.steps == 0:
        return 0
    return k ** (n - 2) * (k - s) * (n - 1)


def gap_distribution(params: KSParams, r: int, n: int) -> QPoly:
    """Distribution of indices i with w[i+r] - w[i] = s.

    The r interleaved subsequences of a word are independent, so the
    answer is a product of adjacent-case distributions: with n = d*r + t,
    it equals a_{d+1}^t * a_d^(r-t)."""
    if r < 1:
        raise ValueError("gap must be >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    d, t = divmod(n, r)
    totals = a_table(params, d + 1)
    return totals[d + 1] ** t * totals[d] ** (r - t)


def unit_column_det(m: int, s: int) -> XPoly:
    """Determinant of unit_column_matrix(m, s) in closed form:
    sum_{i=0}^{d} (-(1-q)x)^i where m = d*s + r with 1 <= r <= s."""
    d = KSParams(m, s).steps
    term = XPoly.monomial(QPoly((-1, 1)), 1)  # (q-1) x
    acc = XPoly((1,))
    out = XPoly((1,))
    for _ in range(d):
        acc = acc * term
        out = out + acc
    return out


def unit_column_matrix(m: int, s: int):
    """The m x m matrix with unit diagonal, (1-q)x at offset -s, and the
    last column replaced by ones; its determinant is unit_column_det."""
    one_m_q_x = XPoly.monomial(1 - QPoly.var(), 1)
    rows = []
    for i in range(m):
        row = [XPoly() for _ in range(m)]
        row[i] = XPoly((1,))
        if i - s >= 0:
            row[i - s] = one_m_q_x
        row[m - 1] = XPoly((1,))
        rows.append(row)
    return rows


def shift_band_matrix(m: int, s: int):
    """The m x m matrix with ones on the superdiagonal and the weight z on
    the diagonal shifted down by s - 1 (rows s..m), z symbolic.

    Its determinant is (-1)^(m-d) z^d when m = d*s, and 0 otherwise; the
    unit-column determinants above telescope out of exactly these."""
    z = QPoly.var()
    rows = []
    for i in range(1, m + 1):
        row = [QPoly() for _ in range(m)]
        if i + 1 <= m:
            row[i] = QPoly((1,))
        if i >= s:
            row[i - s] = z
        rows.append(row)
    return rows
