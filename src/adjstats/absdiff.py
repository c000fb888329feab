"""Distribution of jumps of absolute size s (adjacent pairs a, a +/- s) on
k-ary words.  Three alphabet regimes behave differently:

  * k <= s        -- no jump of size s is possible; the distribution is k^n;
  * s+1 <= k <= 2s -- a two-term recurrence and a closed form built from
                      Chebyshev polynomials of the second kind;
  * k >= 2s+1     -- a closed form assembled from Chebyshev polynomials
                      evaluated at 1/(2x(1-q)), proved via an LU
                      factorization of a tridiagonal system, which this
                      module also verifies explicitly.

In the wide band, y = x(1-q) and V_l(y) = y^l U_l(1/(2y)) turn every
band-sum term into a ratio of integer polynomials in y:
V_0 = V_1 = 1 and V_{l+1} = V_l - y^2 V_{l-1}.  Both forms of the band
sum are kept over the one common denominator V_1...V_{d+1}, and y is
replaced by x(1-q) only at the end, at the given rational q.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .algebra import (
    QPoly,
    RatFunc,
    SquareMatrix,
    WrongRegime,
    XPoly,
    chebyshev_u,
    chebyshev_u_list,
    mat_mul,
    specialize_q,
)
from .kary import KSParams
from .transfer import transfer_dp


class SingularSpecialization(ValueError):
    """q = 1 collapses the closed form; use the DP table instead."""


class DegeneratePoint(ValueError):
    """A Chebyshev denominator vanishes at the chosen sample point."""


def regime(k: int, s: int) -> str:
    """The regime of KSParams(k, s) with 0, 1 or at least 2 steps."""
    return ("trivial", "small", "large")[min(KSParams(k, s).steps, 2)]


def _jump_marks(k: int, s: int) -> tuple:
    """Every jump (i -/+ s, i) marked by q; one mark set covers all three
    regimes because the out-of-range neighbors simply do not exist."""
    KSParams(k, s)  # rejects k < 1 and s < 1
    return tuple(((j, i), QPoly.var()) for i in range(1, k + 1) for j in (i - s, i + s)
                 if 1 <= j <= k)


def b_table(k: int, s: int, order: int) -> Sequence[QPoly]:
    """The jump distributions of lengths 0..order by the last-letter DP."""
    return transfer_dp(k, _jump_marks(k, s), order, QPoly.const(1))


def gf_B_small(k: int, s: int) -> RatFunc:
    """Closed-form generating function for s+1 <= k <= 2s:
    (1 + (1-q)x) / (1 + (1-q-k)x - (2s-k)(1-q)x^2)."""
    if regime(k, s) != "small":
        raise WrongRegime(f"(k, s) = {(k, s)} is not in the band s+1 <= k <= 2s")
    q = QPoly.var()
    one_m_q = 1 - q
    num = XPoly((QPoly((1,)), one_m_q))
    den = XPoly((QPoly((1,)), QPoly((1 - k, -1)), -((2 * s - k) * one_m_q)))
    return RatFunc(num, den)


def b_closed_chebyshev(k: int, s: int, order: int, q_val) -> list[Fraction]:
    """Total distribution values b_0..b_order at an exact rational q for the
    middle band: one series expansion of gf_B_small at that q, whose
    denominator is the two-term recursion
        b_n = (k-1+q) b_{n-1} + (1-q)(2s-k) b_{n-2},  b_0 = 1, b_1 = k,
    that the Chebyshev closed form encodes (the Chebyshev expression itself
    is validated separately at perfect-square arguments, see
    chebyshev_closed_at_square)."""
    if order < 0:
        raise ValueError("need order >= 0")
    return [Fraction(b) for b in specialize_q(gf_B_small(k, s), Fraction(q_val)).series(order)]


def chebyshev_closed_at_square(k: int, s: int, n: int, q_val, root) -> Fraction:
    """Literal Chebyshev form of the middle-band total,
        k c^(n-1) U_{n-1}(t) - c^n U_{n-2}(t),  t = (k+q-1)/(2c),
    usable whenever (2s-k)(q-1) is the square of the rational `root` = c.
    Validation companion to b_closed_chebyshev; requires n >= 1, c != 0."""
    if regime(k, s) != "small":
        raise WrongRegime(f"(k, s) = {(k, s)} is not in the band s+1 <= k <= 2s")
    if n < 1:
        raise ValueError("need n >= 1")
    q = Fraction(q_val)
    c = Fraction(root)
    if c == 0 or c * c != (2 * s - k) * (q - 1):
        raise ValueError("root must be a nonzero square root of (2s-k)(q-1)")
    t = (k + q - 1) / (2 * c)
    return k * c ** (n - 1) * chebyshev_u(n - 1, t) - c**n * chebyshev_u(n - 2, t)


def _triple_numerator(vs: list, ell: int) -> XPoly:
    """The level-ell triple-form numerator over (1-q) V_{ell+1} V_ell, as a
    literal double sum over (j, m) in [0, ell]^2 of
    (-1)^(ell+m-j) V_j V_{ell-m} y^(ell+1-j+m)."""
    total = XPoly()
    for j in range(ell + 1):
        for m in range(ell + 1):
            term = XPoly.monomial(-1 if (ell + m - j) % 2 else 1, ell + 1 - j + m)
            total = total + term * vs[j] * vs[ell - m]
    return total


def _band_sweep(d: int) -> tuple[list, list]:
    """Both band-sum forms for every level up to d, in one pass, as
    integer polynomials in y = x(1-q).

    Returns (vs, levels): vs holds V_0..V_{d+1}, levels[0] is the empty
    sum, and levels[l+1] = (P_l, T_l, D_l) for l = 0..d, with the common
    denominator D_l = V_1...V_{l+1} and

        H_l = x P_l / ((1+2y)^2 D_l)    (squared form)
            = T_l / ((1-q) D_l)         (triple form).

    The level-l terms have denominator V_{l+1} V_l, so
    P_l = P_{l-1} V_{l+1} + N_l^2 D_{l-2} with
    N_l = V_{l+1} + y V_l + (-1)^l y^(l+1), and the same for T_l with
    the triple-form numerator."""
    y = XPoly.var()
    vs = [XPoly((1,)), XPoly((1,))]
    for _ in range(d):
        vs.append(vs[-1] - y * y * vs[-2])
    p = t = XPoly()
    den_back, den = XPoly((1,)), XPoly((1,))  # D_{l-2}, D_{l-1}
    levels = [(p, t, den)]
    for ell in range(d + 1):
        n = vs[ell + 1] + y * vs[ell] + XPoly.monomial((-1) ** ell, ell + 1)
        p = p * vs[ell + 1] + n * n * den_back
        t = t * vs[ell + 1] + _triple_numerator(vs, ell) * den_back
        den_back, den = den, den * vs[ell + 1]
        levels.append((p, t, den))
    return vs, levels


def _one_minus(q_val, message) -> Fraction:
    """1 - q at an exact rational q; q = 1 collapses the wide-band forms."""
    q = Fraction(q_val)
    if q == 1:
        raise SingularSpecialization(message)
    return 1 - q


def h_sum_squared(d: int, q_val) -> RatFunc:
    """Band sum in the squared form:
    sum_{l=0}^{d} x^2 (1-q) (U_{l+1} + U_l + (-1)^l)^2
                  / ((1 + 2x(1-q))^2 U_{l+1} U_l),
    every U evaluated at 1/(2x(1-q)).  With y = x(1-q) and
    V_l(y) = y^l U_l(1/(2y)), the level-l term is the x-polynomial ratio
    x N_l^2 / ((1+2y)^2 V_{l+1} V_l), N_l = V_{l+1} + y V_l + (-1)^l y^(l+1);
    the sum is read off `_band_sweep` over one common denominator."""
    c = _one_minus(q_val, "q = 1 collapses the Chebyshev argument")
    p, _, den = _band_sweep(d)[1][-1]
    y = XPoly.var()
    return RatFunc(y * p, c * (1 + 2 * y) ** 2 * den).scale_x(c)


def h_sum_triple(d: int, q_val) -> RatFunc:
    """The same band sum in unreduced triple-sum form:
    sum_{j=0}^{d} sum_{l=j}^{d} sum_{m=0}^{l}
        (-1)^(l+m-j) U_j U_{l-m} / ((1-q) U_{l+1} U_l).
    In V-polynomials the level-l term is the literal double sum over
    (j, m) of (-1)^(l+m-j) V_j V_{l-m} y^(l+1-j+m), over
    (1-q) V_{l+1} V_l; the sum is read off `_band_sweep`."""
    c = _one_minus(q_val, "q = 1 collapses the Chebyshev argument")
    _, t, den = _band_sweep(d)[1][-1]
    return RatFunc(t, c * den).scale_x(c)


def gf_B_large(k: int, s: int, q_val) -> RatFunc:
    """Closed-form generating function for k >= 2s+1 at an exact rational
    q != 1: with k = d*s + r (d >= 2, 1 <= r <= s),

        B(x) = 1 / (1 - r H_d(x) - (s-r) H_{d-1}(x)),

    where H is the Chebyshev band sum.  One `_band_sweep` gives the
    triple form of H_d and H_{d-1} over the common denominator D_d (the
    squared form is compared with it once per level in `verify`).  Then

        B(x) = (1-q) D_d / ((1-q) D_d - r T_d - (s-r) T_{d-1} V_{d+1})

    with y = x(1-q) substituted."""
    params = KSParams(k, s)
    if params.steps < 2:
        raise WrongRegime(f"(k, s) = {(k, s)} needs k >= 2s+1")
    c = _one_minus(q_val, "q = 1; the series is 1/(1-kx), use the DP")
    r, d = params.rem, params.steps
    vs, levels = _band_sweep(d)
    _, t_d, den = levels[d + 1]
    t_prev = levels[d][1]
    return RatFunc(c * den, c * den - r * t_d - (s - r) * t_prev * vs[d + 1]).scale_x(c)


def band_matrix(d: int, x_val, q_val) -> SquareMatrix:
    """The (d+1) x (d+1) tridiagonal matrix with unit diagonal and
    x(1-q) on both off-diagonals, over exact rationals."""
    x, q = Fraction(x_val), Fraction(q_val)
    y = x * (1 - q)
    n = d + 1
    return SquareMatrix(
        [
            [
                Fraction(1) if i == j else (y if abs(i - j) == 1 else Fraction(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def lu_factors(d: int, x_val, q_val) -> tuple[SquareMatrix, SquareMatrix]:
    """The explicit LU factorization of the tridiagonal band matrix at an
    exact rational point: L is unit lower bidiagonal with
    l[i][i-1] = U_{i-1}(t)/U_i(t), U is upper bidiagonal with
    u[i][i] = x(1-q) U_{i+1}(t)/U_i(t) and u[i][i+1] = x(1-q),
    where t = 1/(2x(1-q))."""
    x, q = Fraction(x_val), Fraction(q_val)
    if x == 0 or q == 1:
        raise DegeneratePoint("need x != 0 and q != 1")
    y = x * (1 - q)
    t = 1 / (2 * y)
    us = chebyshev_u_list(d + 1, t)
    if any(us[i + 1] == 0 for i in range(d + 2)):
        raise DegeneratePoint(f"a Chebyshev value vanishes at x={x}, q={q}")
    n = d + 1
    zero = Fraction(0)
    lower = [[zero] * n for _ in range(n)]
    upper = [[zero] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = Fraction(1)
        if i >= 1:
            lower[i][i - 1] = us[i] / us[i + 1]  # U_{i-1}/U_i
        upper[i][i] = y * us[i + 2] / us[i + 1]  # x(1-q) U_{i+1}/U_i
        if i + 1 < n:
            upper[i][i + 1] = y
    return SquareMatrix(lower), SquareMatrix(upper)


def lu_verify(d: int, x_val, q_val) -> bool:
    """Multiply the explicit LU factors back together and compare against
    the tridiagonal band matrix entrywise."""
    lower, upper = lu_factors(d, x_val, q_val)
    return mat_mul(lower, upper) == band_matrix(d, x_val, q_val)
