"""Ternary words avoiding the adjacent pair 1-3, whose counts are the
even-indexed Fibonacci numbers: joint level/ascent and level/descent
distributions, their closed-form generating functions, and the
Fibonacci-Lucas formulas for the statistic totals.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import InternalInvariantViolation, PQPoly, RatFunc, XPoly
from .transfer import transfer_dp


def fib_list(n: int) -> list[int]:
    """Fibonacci numbers F_0..F_n with F_0 = 0, F_1 = 1."""
    out = [0, 1]
    while len(out) <= n:
        out.append(out[-1] + out[-2])
    return out[: n + 1]


def lucas_list(n: int) -> list[int]:
    """Lucas numbers L_0..L_n, where L_m = F_{m+1} + F_{m-1}."""
    fib = fib_list(n + 2)
    out = [2]
    for m in range(1, n + 1):
        out.append(fib[m + 1] + fib[m - 1])
    return out


def j_dist_dp(order: int) -> list[PQPoly]:
    """Joint (level, ascent) distributions for lengths 0..order, by the
    last-letter DP; p marks levels and q marks ascents.  Over 1..3 the one
    pair with difference 2 is 1-3, so banning it bans 1-3."""
    return list(transfer_dp(3, order, banned=(2,), first=(0,), second=(1, 2)))


def gf_f(p_val, q_val) -> RatFunc:
    """Generating function of the joint (level, ascent) distribution,
    specialized at exact rational marks:
    (1 + (1-p)x)^3 / (1 - 3px + (3p^2 - 2q)x^2 + (2pq - p^3 - q^2)x^3)."""
    p, q = Fraction(p_val), Fraction(q_val)
    num = XPoly((1, 1 - p)) ** 3
    den = XPoly((1, -3 * p, 3 * p**2 - 2 * q, 2 * p * q - p**3 - q**2))
    return RatFunc(num, den)


def gf_descent(p_val, q_val) -> RatFunc:
    """Generating function of the joint (level, descent) distribution for
    lengths >= 1, specialized at exact rational marks (p levels, q descents):

        (3x + (3q - 6p + 2)x^2 + (3p^2 + q^2 - 3pq - 2p + 1)x^3)
        / (1 - 3px + (3p^2 - 2q)x^2 + (2pq - p^3 - q)x^3)

    The x^3 denominator coefficient really is 2pq - p^3 - q: the descent
    form arises from the ascent form by q -> 1/q, p -> p/q, x -> qx, and
    that substitution turns the ascent form's -q^2 into -q.
    """
    p, q = Fraction(p_val), Fraction(q_val)
    num = XPoly((0, 3, 3 * q - 6 * p + 2, 3 * p**2 + q**2 - 3 * p * q - 2 * p + 1))
    den = XPoly((1, -3 * p, 3 * p**2 - 2 * q, 2 * p * q - p**3 - q))
    return RatFunc(num, den)


def gf_descent_substituted(p_val, q_val) -> RatFunc:
    """Independent construction of the level/descent generating function:
    (1/q) (f(qx; p/q, 1/q) - 1), requiring q != 0."""
    p, q = Fraction(p_val), Fraction(q_val)
    if q == 0:
        raise ZeroDivisionError("the substitution form needs q != 0")
    f = gf_f(p / q, 1 / q)
    return (f.scale_x(q) - 1) / q


def _exact_div5(value: int) -> int:
    quot, rem = divmod(value, 5)
    if rem:
        raise InternalInvariantViolation(f"{value} is not divisible by 5")
    return quot


def totals(n: int) -> tuple[int, int, int]:
    """Total numbers of (levels, ascents, descents) over all words of
    length n: ((n-1)F_{2n}, (2(n-1)L_{2n} - 4F_{2n-2})/5,
    ((n-1)L_{2n+1} + 4F_{2n-2})/5).  Both divisions must be exact."""
    if n < 1:
        raise ValueError("need n >= 1")
    fib = fib_list(2 * n + 2)
    luc = lucas_list(2 * n + 1)
    f2nm2 = fib[2 * n - 2]
    tot_lev = (n - 1) * fib[2 * n]
    tot_asc = _exact_div5(2 * (n - 1) * luc[2 * n] - 4 * f2nm2)
    tot_des = _exact_div5((n - 1) * luc[2 * n + 1] + 4 * f2nm2)
    if tot_lev + tot_asc + tot_des != (n - 1) * fib[2 * n + 2]:
        raise InternalInvariantViolation(f"statistic totals do not sum for n={n}")
    return tot_lev, tot_asc, tot_des


def lucas_identity_holds(order: int) -> bool:
    """Check 5 * sum_{i=1}^{n-1} F_{2i} F_{2n-2i} = (n-1) L_{2n} - 2 F_{2n-2}
    with exact integers for all 1 <= n <= order."""
    fib = fib_list(2 * order)
    luc = lucas_list(2 * order)
    for n in range(1, order + 1):
        lhs = 5 * sum(fib[2 * i] * fib[2 * n - 2 * i] for i in range(1, n))
        rhs = (n - 1) * luc[2 * n] - 2 * fib[2 * n - 2]
        if lhs != rhs:
            return False
    return True
