"""Exact algebraic core: dense polynomials, rational functions with
power-series expansion, Chebyshev polynomials of the second kind, and
division-free determinants.

Everything here is immutable and exact.  All polynomial ring code lives
once, on `Poly`; `QPoly`, `PQPoly` and `XPoly` only name its variable.
Coefficients live in whatever ring supports +, -, * and comparison with
integers: Python ints, fractions.Fraction, or polynomials in a variable
of lower rank.  The exceptions, the record base classes and the exact
decimal text of integers and fractions, which the modules share, live
here too.
"""

from __future__ import annotations

import decimal
import math
import threading
from fractions import Fraction
from operator import attrgetter


class NotExpandable(ArithmeticError):
    """The rational function has no power-series expansion at x = 0."""


class InternalInvariantViolation(RuntimeError):
    """An exact identity that must hold by construction failed."""


class WrongRegime(ValueError):
    """The requested formula does not apply to this (k, s) pair."""


class EnumerationTooLarge(RuntimeError):
    """The number of words or growth sequences to scan exceeds the cap."""


class _Record:
    """Base of the modules' record classes.  A record's fields are its
    class's `__slots__`, in order: records of one class are equal when
    their fields are, and the repr names each field.  A record that can
    change is unhashable."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:
            # the fields read in C: one field's value, or a tuple of several
            cls._fields = staticmethod(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"


class _Frozen(_Record):
    """A record whose fields are set once, by `__init__` through
    `object.__setattr__`, and hashed together.  Copies and pickles are
    rebuilt through `__init__`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _decimal(values: list) -> list[str]:
    """Integers or Fractions as `str` writes them, exact at any size.

    `str` refuses an integer past the interpreter's digit limit (4,300
    digits by default); that limit is process-wide, so it is left as it is
    and such a value goes through `decimal`, which has no limit."""
    try:
        return list(map(str, values))
    except ValueError:
        pass
    texts = []
    for value in values:
        text = str(decimal.Decimal(value.numerator))
        if value.denominator != 1:
            text += "/" + str(decimal.Decimal(value.denominator))
        texts.append(text)
    return texts


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _add_lists(a, b):
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + list(a[len(b):])


def _mul_lists(a, b, out=None):
    """Add the product of the coefficient lists a and b into the list
    `out`, extended with zeros as needed, and return it; a new list when
    `out` is None.

    One pass over the longer operand runs per nonzero coefficient of the
    shorter one: an int 1 or -1 adds or subtracts, and the longer
    operand's zero coefficients are skipped, so every entry has the type
    the schoolbook product gives it."""
    if len(a) > len(b):
        a, b = b, a
    if out is None:
        out = []
    if not a:
        return out
    missing = len(a) + len(b) - 1 - len(out)
    if missing > 0:
        out += [0] * missing
    for i, c in enumerate(a):
        if not c:
            continue
        if type(c) is int and c == 1:
            for m, y in enumerate(b, i):
                if y:
                    out[m] = out[m] + y
        elif type(c) is int and c == -1:
            for m, y in enumerate(b, i):
                if y:
                    out[m] = out[m] - y
        else:
            for m, y in enumerate(b, i):
                if y:
                    out[m] = out[m] + c * y
    return out


def _power(base, n, one):
    """base**n for n >= 0 by repeated squaring, starting from `one`: one
    product per set bit of n, and one squaring per bit below the top one."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class Poly:
    """Dense polynomial in one variable over an arbitrary coefficient ring.

    coeffs[i] is the coefficient of var^i; trailing zeros are never stored,
    so the zero polynomial has empty coeffs.  A subclass names the variable
    and sets its `rank` (q = 0, p = 1, x = 2).  A polynomial in a variable
    of lower rank, like any scalar, is a constant coefficient to one of
    higher rank, so mixed expressions such as q * x or p + q are defined.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(coeffs)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def var(cls):
        """The variable itself."""
        return cls((0, 1))

    @classmethod
    def monomial(cls, coeff, power):
        return cls((0,) * power + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i, *inner):
        """Coefficient of var^i.  Further indices read into a polynomial
        coefficient: PQPoly.coeff(i, j) is the coefficient of p^i q^j."""
        c = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        if not inner:
            return c
        if isinstance(c, Poly):
            return c.coeff(*inner)
        return c if all(j == 0 for j in inner) else 0

    def valuation(self):
        """Index of the lowest nonzero coefficient, or None for zero."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def shift_down(self, m):
        return type(self)(self.coeffs[m:])

    def map_coeffs(self, fn):
        return type(self)(fn(c) for c in self.coeffs)

    def derivative(self):
        return type(self)(i * c for i, c in enumerate(self.coeffs) if i)

    def _lift(self, other):
        """The coefficients of `other` as a polynomial in this variable, or
        NotImplemented when `other` belongs to a larger ring, so that its
        own (reflected) method runs instead."""
        if type(other) is type(self):
            return other.coeffs
        if isinstance(other, Poly):
            if other.rank > self.rank:
                return NotImplemented
        elif isinstance(other, RatFunc):
            return NotImplemented
        return (other,) if other != 0 else ()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return self.coeffs == b

    def __hash__(self):
        # a constant equals its value, so it must hash like it
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return type(self)(_add_lists(self.coeffs, b))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-c for c in self.coeffs)

    def __sub__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return type(self)(_mul_lists((-1,), b, list(self.coeffs)))

    def __rsub__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return type(self)(_mul_lists((-1,), self.coeffs, list(b)))

    def __mul__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return type(self)(_mul_lists(self.coeffs, b))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, type(self)((1,)))

    def __call__(self, value, *inner):
        """Evaluate at var = value by Horner's rule.  `inner` holds the
        values of the variables below, highest rank first and q last, as
        in XPoly(x, q), XPoly(x, p, q) and PQPoly(p, q); each polynomial
        coefficient is first evaluated at the values of its own rank and
        below.

        An integer polynomial at a Fraction a/b is evaluated as
        b^d p(a/b) in integers and divided once, which gives the same
        normalized Fraction without a gcd at every step.  So is a
        polynomial whose coefficients are ints or, at every depth,
        polynomials of lower rank over the ints, when every value is a
        Fraction: each rank's denominator is cleared with its power at
        that rank's highest degree (see `_cleared`)."""
        coeffs = self.coeffs
        if (coeffs and not inner and isinstance(value, Fraction)
                and all(isinstance(c, int) for c in coeffs)):
            num, den = value.numerator, value.denominator
            acc, scale = coeffs[-1], 1
            for c in coeffs[-2::-1]:
                scale *= den
                acc = acc * num + c * scale
            return Fraction(acc, scale)
        if (coeffs and inner and isinstance(value, Fraction)
                and all(isinstance(v, Fraction) for v in inner)):
            bounds = {}
            if _degree_bounds(self, len(inner), bounds):
                points, scales, scale = {}, {}, 1
                for rank in sorted(bounds):
                    point = value if rank == self.rank else inner[-1 - rank]
                    points[rank] = point.numerator, point.denominator
                    below, scale = scale, scale * point.denominator ** bounds[rank]
                    scales[rank] = below, scale
                return Fraction(_cleared(self, points, scales), scale)
        acc = 0
        for c in reversed(coeffs):
            if inner and isinstance(c, Poly):
                c = c(*inner[-1 - c.rank:])
            acc = acc * value + c
        return acc

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)})"


def _degree_bounds(poly, depth, bounds):
    """Record in `bounds` the highest power of each variable in `poly`, by
    rank.  False unless every coefficient, at every depth, is an int or a
    polynomial of lower rank than its parent's and below `depth`, the
    number of values given for the ranks below the top one."""
    rank = poly.rank
    bounds[rank] = max(bounds.get(rank, 0), len(poly.coeffs) - 1)
    for c in poly.coeffs:
        if isinstance(c, Poly):
            if not (c.rank < rank and c.rank < depth and _degree_bounds(c, depth, bounds)):
                return False
        elif type(c) is not int:
            return False
    return True


def _cleared(poly, points, scales):
    """poly at the points, times the cleared denominators, in integers.

    points[r] is the value of the rank-r variable as (numerator,
    denominator b); scales[r] is (S, S b^e), with e that variable's
    highest power and S the same product over the ranks below r.  The
    result is poly's value times scales[poly.rank][1], by Horner's rule."""
    coeffs = poly.coeffs
    if not coeffs:
        return 0
    below, full = scales[poly.rank]
    num, den = points[poly.rank]

    def lifted(c):
        # a coefficient's value times S; a polynomial's own scale covers
        # only the ranks up to its own
        if isinstance(c, Poly):
            return _cleared(c, points, scales) * (below // scales[c.rank][1])
        return c * below

    acc, step = lifted(coeffs[-1]), 1
    for c in coeffs[-2::-1]:
        step *= den
        acc = acc * num + lifted(c) * step
    return acc * (full // (below * step))


class QPoly(Poly):
    """Polynomial in the occurrence-marking variable q.  Evaluating a
    distribution polynomial at q = 1 recovers the size of the underlying
    set of objects."""

    __slots__ = ()
    rank = 0


class PQPoly(Poly):
    """Polynomial in p with QPoly coefficients: a joint distribution in which
    p marks one statistic and q the other.  poly.coeff(i, j) is the
    coefficient of p^i q^j, and poly(p, q) evaluates it."""

    __slots__ = ()
    rank = 1

    @classmethod
    def p(cls):
        return cls.var()

    @classmethod
    def q(cls):
        return cls((QPoly.var(),))

    deriv_p = Poly.derivative

    def deriv_q(self):
        return self.map_coeffs(lambda c: c.derivative() if isinstance(c, Poly) else 0)


class XPoly(Poly):
    """Polynomial in the series variable x over an arbitrary coefficient
    ring (ints, Fractions, QPoly, PQPoly)."""

    __slots__ = ()
    rank = 2

    @classmethod
    def x(cls):
        return cls.var()


def _div_coeff(a, d0):
    """Exact division of a series coefficient by the denominator's constant
    term, a nonzero int or Fraction."""
    if d0 == 1:
        return a
    if d0 == -1:
        return -a
    if not isinstance(a, (int, Fraction)):
        raise NotExpandable(f"cannot divide {type(a).__name__} coefficient by {d0}")
    if isinstance(a, int) and isinstance(d0, int):
        quot, rem = divmod(a, d0)
        return quot if rem == 0 else Fraction(a, d0)
    return a / d0


class RatFunc:
    """A ratio of two XPoly values.

    Equality is decided by cross-multiplication (no gcd normalization);
    the only reduction applied is cancelling a common power of x, which
    keeps series expansion available whenever it exists.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if not isinstance(num, XPoly):
            num = XPoly((num,))
        if not isinstance(den, XPoly):
            den = XPoly((den,))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = XPoly((1,))
        else:
            v = min(num.valuation(), den.valuation())
            if v:
                num = num.shift_down(v)
                den = den.shift_down(v)
        self.num = num
        self.den = den

    @classmethod
    def one(cls):
        return cls(XPoly((1,)))

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power; divide explicitly instead")
        return _power(self, n, RatFunc.one())

    def series(self, order):
        """Coefficients c_0..c_order of the power-series expansion at x = 0.

        Computed through the linear recurrence the denominator induces, so
        each coefficient costs O(deg den) ring operations.  When every
        coefficient is an int or a Fraction and at least one is a Fraction,
        the recurrence runs in integers (`_series_in_ints`) and each term
        is made a Fraction once, at the end; its value and type are those
        the recurrence in Fractions gives.
        """
        den = self.den.coeffs
        d0 = den[0] if den else 0
        while isinstance(d0, Poly) and d0.degree <= 0:  # a constant polynomial
            d0 = d0.coeff(0)
        if d0 == 0:
            raise NotExpandable("denominator has zero constant term")
        if not isinstance(d0, (int, Fraction)):
            raise NotExpandable(f"denominator constant term {d0!r} is not invertible")
        kinds = set(map(type, self.num.coeffs + den))
        if Fraction in kinds and kinds <= {int, Fraction}:
            return _series_in_ints(self.num.coeffs, den, order)
        out = []
        for n in range(order + 1):
            acc = self.num.coeff(n)
            for j in range(1, min(n, len(den) - 1) + 1):
                acc = acc - den[j] * out[n - j]
            out.append(_div_coeff(acc, d0))
        return out

    def scale_x(self, c):
        """Substitute x -> c*x.

        What is kept is the ratio, not the pair (num, den).  At a Fraction
        c = a/b over int and Fraction coefficients, both are multiplied by
        L b^m, where L is the coefficients' common denominator and m the
        larger degree, so that coefficient i becomes the int
        co L a^i b^(m-i)."""
        num, den = self.num.coeffs, self.den.coeffs
        if isinstance(c, Fraction) and set(map(type, num + den)) <= {int, Fraction}:
            m = max(len(num), len(den)) - 1
            weights = [c.numerator**i * c.denominator ** (m - i) for i in range(m + 1)]
            num, den = _integral(num, den)
            return RatFunc(XPoly(co * w for co, w in zip(num, weights)),
                           XPoly(co * w for co, w in zip(den, weights)))
        scale_num = tuple(co * c**i for i, co in enumerate(self.num.coeffs))
        scale_den = tuple(co * c**i for i, co in enumerate(self.den.coeffs))
        return RatFunc(XPoly(scale_num), XPoly(scale_den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


def _integral(num, den):
    """The int and Fraction coefficients num and den, both times their
    common denominator, as lists of ints."""
    scale = math.lcm(*(co.denominator for co in num + den))
    return ([co.numerator * (scale // co.denominator) for co in num],
            [co.numerator * (scale // co.denominator) for co in den])


def _series_in_ints(num, den, order):
    """c_0..c_order of the series of num/den, for int and Fraction
    coefficient tuples with den[0] != 0, in integers.

    Both are scaled by their common denominator to N and D.  With c = D_0
    the recurrence runs on b_n = c^(n+1) a_n,

        b_n = c^n N_n - sum_j D_j c^(j-1) b_(n-j),

    and a_n is made from b_n once.  A term has the type the recurrence in
    Fractions gives it.  That recurrence subtracts D_j a_(n-j) from N_n for
    1 <= j <= min(n, deg D), a Fraction when N_n, one of those D_j or one
    of those a_(n-j) is; once a term is a Fraction, the j = 1 product makes
    every later one a Fraction.  It then divides by d0, which keeps an int
    an int only when d0 is 1 or -1, or an int that divides it."""
    d0 = den[0]
    unit, int_d0 = d0 == 1 or d0 == -1, type(d0) is int
    nums, dens = _integral(num, den)
    c = dens[0]
    weighted, power = [0], 1  # D_j c^(j-1) at index j
    for d in dens[1:]:
        weighted.append(d * power)
        power *= c
    last = len(den) - 1
    first_fraction = next((j for j in range(1, last + 1) if type(den[j]) is Fraction),
                          order + 1)
    bs, out, power, fraction = [], [], 1, False  # power is c^n, then c^(n+1)
    for n in range(order + 1):
        acc = nums[n] * power if n < len(nums) else 0
        for j in range(1, min(n, last) + 1):
            acc -= weighted[j] * bs[n - j]
        bs.append(acc)
        power *= c
        fraction = ((n < len(num) and type(num[n]) is Fraction)
                    or (0 < n and 0 < last and (fraction or first_fraction <= n)))
        if not (fraction or unit):
            fraction = not int_d0 or acc % power != 0
        out.append(Fraction(acc, power) if fraction else acc // power)
    return out


# (build, args) -> the longest series of build(*args) read, least recently
# read first, at most 64 entries; only coefficients are kept, no closed form.
# A replaced builder is another key, but a replaced helper beneath it (say
# kary.gf_denominator) is not, so whoever replaces one empties the store.
_expansions: dict = {}
_expansions_lock = threading.Lock()


def _expansion(build, args, order):
    """c_0..c_order of the series of the rational function build(*args), as
    a tuple: built and expanded to `order` on a miss or a longer request,
    and a prefix of the stored coefficients otherwise."""
    key = (build, args)
    with _expansions_lock:
        coeffs = _expansions.pop(key, ())
        if len(coeffs) <= order:
            coeffs = tuple(build(*args).series(order))
        _expansions[key] = coeffs
        if len(_expansions) > 64:
            del _expansions[next(iter(_expansions))]
    return coeffs[: order + 1]


def _as_ratfunc(obj):
    if isinstance(obj, RatFunc):
        return obj
    if isinstance(obj, (int, Fraction, Poly)):
        return RatFunc(obj)
    return NotImplemented


def series_expand(f: RatFunc, order: int):
    """Power-series coefficients [x^0 .. x^order] of a rational function."""
    return f.series(order)


def specialize_q(obj, q_val):
    """Evaluate every QPoly coefficient of an XPoly or RatFunc at q = q_val."""

    def ev(c):
        return c(q_val) if isinstance(c, QPoly) else c

    if isinstance(obj, XPoly):
        return obj.map_coeffs(ev)
    if isinstance(obj, RatFunc):
        return RatFunc(obj.num.map_coeffs(ev), obj.den.map_coeffs(ev))
    raise TypeError(f"cannot specialize {type(obj).__name__}")


def chebyshev_u(n, t):
    """Chebyshev polynomial of the second kind U_n evaluated at a ring
    element t, read off `chebyshev_u_list`.

    Works over any ring with +, -, * (including RatFunc arguments).
    """
    if n < -1:
        raise ValueError("index must be >= -1")
    return chebyshev_u_list(n, t)[n + 1]


def chebyshev_u_list(n, t):
    """[U_{-1}(t), U_0(t), ..., U_n(t)] computed in one sweep of
    U_{-1} = 0, U_0 = 1, U_n = 2t U_{n-1} - U_{n-2}."""
    out = [0, 1]
    for _ in range(n):
        out.append(2 * t * out[-1] - out[-2])
    return out


def alt_cheb_sum(n, t):
    """The alternating sum U_0(t) - U_1(t) + ... + (-1)^n U_n(t)."""
    return sum((-1) ** j * u for j, u in enumerate(chebyshev_u_list(n, t)[1:]))


def alt_cheb_sum_closed(n, t):
    """Closed form of alt_cheb_sum as an unreduced (numerator, denominator)
    pair: ((-1)^n (U_{n+1}(t) + U_n(t)) + 1, 2(1 + t)).

    Returned unreduced because the denominator vanishes at t = -1; callers
    in a field may divide, everyone else cross-multiplies.
    """
    us = chebyshev_u_list(n + 1, t)
    sign = 1 if n % 2 == 0 else -1
    return sign * (us[n + 2] + us[n + 1]) + 1, 2 * (1 + t)


class SquareMatrix:
    """Immutable square matrix over an arbitrary ring, stored as row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix is not square")

    @classmethod
    def identity(cls, n, one=1, zero=0):
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def n(self):
        return len(self.rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if self.n != other.n:
            return False
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def __repr__(self):
        return f"SquareMatrix({[list(r) for r in self.rows]})"


def det_exact(m: SquareMatrix):
    """Exact determinant over any commutative ring.

    Expansion by minors along successive rows, memoized on the surviving
    column set, so no division is ever performed; sparse matrices are
    cheap because zero entries short-circuit.
    """
    n = m.n
    rows = m.rows
    memo = {}

    def minor(cols):
        if not cols:
            return 1
        cached = memo.get(cols)
        if cached is not None:
            return cached
        r = n - len(cols)
        acc = 0
        for idx, c in enumerate(cols):
            a = rows[r][c]
            if a == 0:
                continue
            term = a * minor(cols[:idx] + cols[idx + 1 :])
            acc = acc + term if idx % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


def mat_mul(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """The product a b.  A product with a zero factor is skipped, so an
    entry with no other product is the int 0."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    n = a.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                x, y = a.rows[i][k], b.rows[k][j]
                if x and y:
                    acc = acc + x * y
            row.append(acc)
        out.append(row)
    return SquareMatrix(out)
