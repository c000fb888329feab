import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats.algebra import (
    NotExpandable,
    Poly,
    PQPoly,
    QPoly,
    RatFunc,
    SquareMatrix,
    XPoly,
    _mul_lists,
    alt_cheb_sum,
    alt_cheb_sum_closed,
    chebyshev_u,
    det_exact,
    mat_mul,
    series_expand,
    specialize_q,
)

small_ints = st.lists(st.integers(-9, 9), max_size=6)
qpolys = st.lists(st.integers(-5, 5), max_size=4).map(QPoly)
# x-polynomials whose coefficients mix plain integers and q-polynomials
xpolys = st.lists(st.one_of(st.integers(-5, 5), qpolys), max_size=4).map(XPoly)
pqpolys = st.lists(qpolys, max_size=4).map(PQPoly)
points = st.fractions(min_value=-3, max_value=3, max_denominator=4)


# rationals with a negative sign, a zero numerator or denominator 1 among them
rationals = st.one_of(st.fractions(min_value=-40, max_value=40, max_denominator=60),
                      st.integers(-20, 20).map(Fraction))
int_qpolys = st.lists(st.integers(-10**6, 10**6), max_size=12).map(QPoly)
fraction_qpolys = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=9),
                           max_size=6).map(QPoly)


def _horner(poly, value, *inner):
    """Horner's rule one coefficient at a time in the arithmetic of `value`,
    evaluating each polynomial coefficient at the values of its rank."""
    acc = 0
    for c in reversed(poly.coeffs):
        if inner and isinstance(c, Poly):
            c = _horner(c, *inner[-1 - c.rank:])
        acc = acc * value + c
    return acc


def _same(got, want):
    return got == want and type(got) is type(want)


class TestEvaluation:
    """An integer polynomial at a Fraction is evaluated in integers; the
    value and its type are those of Horner's rule in Fractions."""

    @given(int_qpolys, rationals)
    @settings(max_examples=200, deadline=None)
    def test_integer_polynomial_at_a_fraction(self, poly, q):
        assert _same(poly(q), _horner(poly, q))

    def test_zero_polynomial_is_int_zero(self):
        assert _same(QPoly()(Fraction(3, 7)), 0)
        assert _same(QPoly()(Fraction(0)), 0)

    def test_examples(self):
        assert _same(QPoly((1, -2, 4))(Fraction(-3, 2)), Fraction(13))
        assert _same(QPoly((0, 0, 6))(Fraction(1, 4)), Fraction(3, 8))
        assert _same(QPoly((5,))(Fraction(2, 3)), Fraction(5))

    @given(st.one_of(int_qpolys, fraction_qpolys), st.integers(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_at_an_int(self, poly, q):
        assert _same(poly(q), _horner(poly, q))

    @given(fraction_qpolys, rationals)
    @settings(max_examples=60, deadline=None)
    def test_fraction_coefficients(self, poly, q):
        assert _same(poly(q), _horner(poly, q))

    @given(xpolys, rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_x_over_q(self, poly, x, q):
        assert _same(poly(x, q), _horner(poly, x, q))

    @given(pqpolys, rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_p_over_q(self, poly, p, q):
        assert _same(poly(p, q), _horner(poly, p, q))


def _schoolbook(a, b, out=()):
    """The product of the coefficient lists a and b added into a copy of
    `out`, one coefficient pair at a time, zero coefficients skipped."""
    acc = list(out)
    if a and b:
        acc += [0] * (len(a) + len(b) - 1 - len(acc))
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                acc[i + j] = acc[i + j] + x * y
    return acc


# interior zeros and units of each ring among the coefficients
int_coeffs = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-10**12, 10**12))
fraction_coeffs = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), 0, 1, -1]),
    st.fractions(min_value=-9, max_value=9, max_denominator=7))
qpoly_coeffs = st.one_of(st.sampled_from([QPoly(), QPoly((1,)), QPoly((-1,)), 0, 1, -1]),
                         qpolys)
mixed_coeffs = st.one_of(int_coeffs, fraction_coeffs, qpoly_coeffs)


class TestKernel:
    """_mul_lists against the schoolbook product: the same coefficients,
    each of the same type, with or without a list to add into."""

    @pytest.mark.parametrize("coeffs", [int_coeffs, fraction_coeffs, qpoly_coeffs,
                                        mixed_coeffs], ids=["int", "Fraction", "QPoly", "mixed"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_schoolbook_product(self, coeffs, data):
        a, b = (data.draw(st.lists(coeffs, max_size=8)) for _ in range(2))
        out = data.draw(st.none() | st.lists(coeffs, max_size=12))
        want = _schoolbook(a, b, out or ())
        given_out = None if out is None else list(out)
        got = _mul_lists(a, b, given_out)
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]
        if given_out is not None:
            assert got is given_out

    @given(st.lists(int_coeffs, max_size=8), st.lists(int_coeffs, max_size=8),
           st.lists(int_coeffs, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_integer_coefficients_stay_int(self, a, b, out):
        # Poly.__call__ evaluates at a Fraction in integers only when every
        # coefficient is an int
        assert all(type(c) is int for c in _mul_lists(a, b))
        assert all(type(c) is int for c in _mul_lists(a, b, out))
        assert all(type(c) is int for c in (QPoly(a) * QPoly(b)).coeffs)
        assert all(type(c) is int for c in (QPoly(a) - QPoly(b)).coeffs)

    def test_examples(self):
        assert _mul_lists([1, 1], [1, -1]) == [1, 0, -1]
        assert _mul_lists([-1, 1], [3, 0, 5], [1]) == [-2, 3, -5, 5]
        assert _mul_lists([2], [], [7, 8]) == [7, 8]
        assert _mul_lists([], [2]) == []


class TestSubtraction:
    """a - b is one pass through the kernel; it equals a + (-b), in the
    ring of the larger operand."""

    @given(st.one_of(small_ints.map(QPoly), qpolys, xpolys, pqpolys, st.integers(-5, 5)),
           st.one_of(small_ints.map(QPoly), qpolys, xpolys, pqpolys, st.integers(-5, 5)))
    @settings(max_examples=200, deadline=None)
    def test_matches_adding_the_negation(self, a, b):
        diff = a - b
        assert diff == a + (-b)
        assert type(diff) is type(a + (-b))

    def test_larger_ring_runs_its_reflected_method(self):
        q, x, p = QPoly.var(), XPoly.x(), PQPoly.p()
        assert q.__sub__(x) is NotImplemented
        assert q.__rsub__(p) is NotImplemented
        assert q - x == XPoly((q, -1))
        assert type(q - p) is PQPoly and q - p == PQPoly((q, -1))
        assert type(p - q) is PQPoly and p - q == PQPoly((-q, 1))
        assert 3 - q == QPoly((3, -1))
        assert isinstance(q - RatFunc(x), RatFunc)


class TestQPoly:
    def test_trailing_zeros_trimmed(self):
        assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert QPoly((0, 0)) == 0
        assert not QPoly()

    def test_eval(self):
        p = QPoly((7, 2))
        assert p(1) == 9
        assert p(0) == 7
        assert p(Fraction(1, 2)) == 8

    def test_derivative(self):
        assert QPoly((5, 3, 2)).derivative() == QPoly((3, 4))

    def test_pow(self):
        q = QPoly.var()
        assert (1 + q) ** 2 == QPoly((1, 2, 1))
        assert q**0 == 1

    @given(small_ints, small_ints, small_ints)
    @settings(max_examples=60, deadline=None)
    def test_commutative_ring_axioms(self, a, b, c):
        pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
        assert pa + pb == pb + pa
        assert pa * pb == pb * pa
        assert (pa + pb) * pc == pa * pc + pb * pc
        assert (pa * pb) * pc == pa * (pb * pc)
        assert pa + QPoly() == pa
        assert pa * QPoly((1,)) == pa


class TestPQPoly:
    def test_example_shape(self):
        p, q = PQPoly.p(), PQPoly.q()
        poly = 3 * p + 2 * q + 3
        assert poly.coeff(1, 0) == 3
        assert poly.coeff(0, 1) == 2
        assert poly.coeff(0, 0) == 3
        assert poly(1, 1) == 8

    def test_derivatives(self):
        p, q = PQPoly.p(), PQPoly.q()
        poly = p * p * q + 2 * q
        assert poly.deriv_p()(1, 1) == 2
        assert poly.deriv_q()(1, 1) == 3

    def test_mul_matches_eval(self):
        p, q = PQPoly.p(), PQPoly.q()
        a = 1 + 2 * p + q
        b = p - q
        assert (a * b)(3, 5) == a(3, 5) * b(3, 5)


class TestHashAgreesWithEquality:
    def test_constants_hash_like_their_value(self):
        assert QPoly.const(1) == 1
        assert 1 in {QPoly.const(1)}
        assert hash(XPoly((QPoly((2,)),))) == hash(2)
        table = {PQPoly.const(3): "three"}
        assert table[3] == "three"
        assert QPoly() in {0}

    @given(xpolys)
    @settings(max_examples=60, deadline=None)
    def test_equal_polynomials_hash_equal(self, a):
        # the same polynomial with each integer coefficient as a constant QPoly
        b = a.map_coeffs(lambda c: c if isinstance(c, QPoly) else QPoly.const(c))
        assert a == b
        assert hash(a) == hash(b)


class TestMixedVariables:
    """Evaluation is a ring homomorphism, whichever operand is outer."""

    @given(qpolys, xpolys, xpolys, st.integers(-5, 5), points, points)
    @settings(max_examples=80, deadline=None)
    def test_x_over_q(self, a, A, B, c, x, q):
        assert (A * B)(x, q) == A(x, q) * B(x, q)
        assert (A + B)(x, q) == A(x, q) + B(x, q)
        assert (A - B)(x, q) == A(x, q) - B(x, q)
        assert (A + a)(x, q) == A(x, q) + a(q)
        assert (a - A)(x, q) == a(q) - A(x, q)
        assert (a * A)(x, q) == a(q) * A(x, q)
        assert (A * c + c)(x, q) == A(x, q) * c + c
        assert a + A == A + a
        assert a * A == A * a
        assert (A**2)(x, q) == A(x, q) ** 2

    @given(qpolys, pqpolys, pqpolys, points, points)
    @settings(max_examples=80, deadline=None)
    def test_p_over_q(self, a, P, R, p, q):
        assert (P * R)(p, q) == P(p, q) * R(p, q)
        assert (P + R)(p, q) == P(p, q) + R(p, q)
        assert (P + a)(p, q) == P(p, q) + a(q)
        assert (a - P)(p, q) == a(q) - P(p, q)
        assert (a * P)(p, q) == a(q) * P(p, q)
        assert a + P == P + a
        assert a * P == P * a

    @given(pqpolys, xpolys, points, points, points)
    @settings(max_examples=40, deadline=None)
    def test_x_over_p_over_q(self, P, A, x, p, q):
        # an XPoly whose coefficients mix q- and (p, q)-polynomials
        mixed = A * P + XPoly.x() * P + A
        assert mixed(x, p, q) == A(x, q) * P(p, q) + x * P(p, q) + A(x, q)
        assert P * A == A * P

    def test_higher_rank_operand_runs_its_reflected_method(self):
        q, x = QPoly.var(), XPoly.x()
        assert type(q * x) is XPoly
        assert type(x * q) is XPoly
        assert type(PQPoly.p() + q) is PQPoly
        assert type(q + PQPoly.p()) is PQPoly
        assert isinstance(q + RatFunc(x), RatFunc)


class TestSeries:
    def test_fibonacci_denominator(self):
        f = RatFunc(XPoly((1,)), XPoly((1, -3, 1)))
        assert series_expand(f, 4) == [1, 3, 8, 21, 55]

    def test_geometric(self):
        f = RatFunc(XPoly((1,)), XPoly((1, -1)))
        assert series_expand(f, 3) == [1, 1, 1, 1]

    def test_long_division_example(self):
        # (1+x)/(1-2x); frozen from long division by hand
        f = RatFunc(XPoly((1, 1)), XPoly((1, -2)))
        assert series_expand(f, 3) == [1, 3, 6, 12]

    def test_zero_constant_term_rejected(self):
        f = RatFunc(XPoly((1,)), XPoly((0, 1)))
        with pytest.raises(NotExpandable):
            f.series(3)

    @pytest.mark.parametrize("num,d0,message", [
        (1, 0, "denominator has zero constant term"),
        (1, QPoly(), "denominator has zero constant term"),
        (1, QPoly.var(), "denominator constant term QPoly([0, 1]) is not invertible"),
        (QPoly.var(), 2, "cannot divide QPoly coefficient by 2"),
        (QPoly.var(), Fraction(1, 2), "cannot divide QPoly coefficient by 1/2"),
    ])
    def test_a_series_that_cannot_be_expanded_says_why(self, num, d0, message):
        with pytest.raises(NotExpandable) as caught:
            RatFunc(XPoly((num,)), XPoly((d0, 1))).series(3)
        assert str(caught.value) == message

    def test_integers_divide_exactly_and_fractions_by_value(self):
        twos = RatFunc(XPoly((4,)), XPoly((2, -2))).series(3)
        assert twos == [2, 2, 2, 2] and all(type(c) is int for c in twos)
        assert RatFunc(XPoly((1,)), XPoly((2,))).series(0) == [Fraction(1, 2)]
        third = RatFunc(XPoly((Fraction(1, 3),)), XPoly((Fraction(2, 3), 1)))
        assert third.series(2) == [Fraction(1, 2), Fraction(-3, 4), Fraction(9, 8)]

    @given(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5),
                 min_size=1, max_size=4),
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5),
                 min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_multiply_back(self, num, den):
        den = [Fraction(1)] + den  # guarantee an invertible constant term
        f = RatFunc(XPoly(num), XPoly(den))
        order = 8
        series = f.series(order)
        product = XPoly(series) * f.den
        assert all(product.coeff(i) == f.num.coeff(i) for i in range(order + 1))

    def test_scale_x(self):
        f = RatFunc(XPoly((1,)), XPoly((1, -1)))
        scaled = f.scale_x(Fraction(2))
        assert scaled.series(3) == [1, 2, 4, 8]


class TestRatFuncArithmetic:
    def test_equality_by_cross_multiplication(self):
        a = RatFunc(XPoly((1, 1)), XPoly((1, -1)))
        doubled = RatFunc(XPoly((2, 2)), XPoly((2, -2)))
        assert a == doubled

    def test_field_ops(self):
        a = RatFunc(XPoly((1,)), XPoly((1, -1)))
        b = RatFunc(XPoly((0, 1)), XPoly((1, -1)))
        assert (a + b) == RatFunc(XPoly((1, 1)), XPoly((1, -1)))
        assert (a * b).series(3) == [0, 1, 2, 3]
        assert (a / a) == RatFunc(XPoly((1,)))
        assert (1 - b).num == XPoly((1, -2))

    def test_common_x_power_cancelled(self):
        f = RatFunc(XPoly((0, 0, 1)), XPoly((0, 1, -1)))
        assert f.num == XPoly((0, 1))
        assert f.den == XPoly((1, -1))


POWER_BASES = [
    QPoly((1, -2, 3)),
    XPoly((QPoly((1, 1)), 2, QPoly((0, -1)))),
    RatFunc(XPoly((1, QPoly((0, 1)))), XPoly((1, -2, 1))),
]


class TestPower:
    """Both __pow__ methods square by one helper: n = 0 multiplies
    nothing, and n >= 1 takes popcount(n) + bit_length(n) - 1 products."""

    @pytest.mark.parametrize("n", range(10))
    @pytest.mark.parametrize("base", POWER_BASES, ids=lambda b: type(b).__name__)
    def test_equals_repeated_product(self, base, n):
        want = RatFunc.one() if isinstance(base, RatFunc) else type(base)((1,))
        for _ in range(n):
            want = want * base
        assert base**n == want

    @pytest.mark.parametrize("base,message", [
        (POWER_BASES[0], "negative power of a polynomial"),
        (POWER_BASES[1], "negative power of a polynomial"),
        (POWER_BASES[2], "negative power; divide explicitly instead"),
    ], ids=lambda v: type(v).__name__)
    def test_negative_power_rejected(self, base, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            base**-1

    @pytest.mark.parametrize("n", range(10))
    @pytest.mark.parametrize("base", POWER_BASES, ids=lambda b: type(b).__name__)
    def test_product_count(self, monkeypatch, base, n):
        # products of the base's own type only: an XPoly product also
        # multiplies its QPoly coefficients
        owner = RatFunc if isinstance(base, RatFunc) else Poly
        mul = owner.__mul__
        products = []

        def counting(a, b):
            if type(a) is type(base):
                products.append(n)
            return mul(a, b)

        monkeypatch.setattr(owner, "__mul__", counting)
        base**n
        assert len(products) == (n.bit_count() + n.bit_length() - 1 if n else 0)


class TestChebyshev:
    def test_base_cases(self):
        t = QPoly.var()
        assert chebyshev_u(-1, t) == 0
        assert chebyshev_u(0, t) == 1
        assert chebyshev_u(1, t) == 2 * t
        assert chebyshev_u(2, t) == 4 * t * t - 1

    def test_value_at_one(self):
        # U_n(1) = n + 1
        assert chebyshev_u(5, 1) == 6
        assert all(chebyshev_u(n, 1) == n + 1 for n in range(10))

    def test_over_rational_functions(self):
        t = RatFunc(XPoly((1,)), XPoly((0, 2)))  # 1/(2x)
        u2 = chebyshev_u(2, t)
        assert u2 == RatFunc(XPoly((1, 0, -1)), XPoly((0, 0, 1)))


class TestAltChebSum:
    def test_small_cases(self):
        t = QPoly.var()
        assert alt_cheb_sum(0, t) == 1
        assert alt_cheb_sum(1, t) == 1 - 2 * t
        assert alt_cheb_sum(3, 1) == -2  # 1 - 2 + 3 - 4

    def test_closed_form_cross_check(self):
        num, den = alt_cheb_sum_closed(3, 1)
        assert Fraction(num, den) == -2

    def test_identity_as_polynomials(self):
        t = QPoly.var()
        for n in range(13):
            num, den = alt_cheb_sum_closed(n, t)
            assert alt_cheb_sum(n, t) * den == num

    def test_unreduced_pair_at_degenerate_point(self):
        num, den = alt_cheb_sum_closed(4, -1)
        assert den == 0
        # U_n(-1) = (-1)^n (n+1), so the direct sum is still fine
        assert alt_cheb_sum(4, -1) == sum((-1) ** j * (-1) ** j * (j + 1) for j in range(5))


class TestDeterminant:
    def test_identity(self):
        assert det_exact(SquareMatrix.identity(3)) == 1

    def test_antisymmetry_small(self):
        m = SquareMatrix([[1, 2], [3, 4]])
        assert det_exact(m) == -2

    def test_matches_permutation_expansion(self):
        import itertools

        rows = [[3, -1, 2, 0], [1, 4, 0, 2], [0, 2, 5, 1], [2, 0, 1, 3]]
        brute = 0
        for perm in itertools.permutations(range(4)):
            sign = 1
            for i in range(4):
                for j in range(i + 1, 4):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(4):
                term *= rows[i][perm[i]]
            brute += term
        assert det_exact(SquareMatrix(rows)) == brute

    def test_matrix_multiply(self):
        a = SquareMatrix([[1, 2], [3, 4]])
        b = SquareMatrix([[0, 1], [1, 0]])
        assert mat_mul(a, b) == SquareMatrix([[2, 1], [4, 3]])


def test_specialize_q():
    f = RatFunc(XPoly((QPoly((1,)), QPoly((1, -1)))), XPoly((QPoly((1,)), QPoly((0, -1)))))
    at_zero = specialize_q(f, 0)
    assert at_zero.num == XPoly((1, 1))
    assert at_zero.den == XPoly((1,))
