"""Differential tests of the algebra layer against sympy: rational-function
arithmetic, power-series expansion and exact determinants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjstats.algebra import QPoly, RatFunc, SquareMatrix, XPoly, det_exact

sympy = pytest.importorskip("sympy")

X, Q = sympy.symbols("x q")
ORDER = 6

coeff_lists = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
# a nonzero constant term keeps every quotient expandable at x = 0
unit_lists = st.tuples(st.integers(1, 3), st.sampled_from((1, -1)),
                       st.lists(st.integers(-4, 4), max_size=3)).map(
    lambda t: [t[0] * t[1]] + t[2])


def _sym(poly, var):
    return sum(sympy.Integer(c) * var**i for i, c in enumerate(poly.coeffs))


def _sym_ratfunc(f):
    return _sym(f.num, X) / _sym(f.den, X)


def _sympy_series(expr):
    expansion = sympy.series(expr, X, 0, ORDER + 1).removeO()
    return [Fraction(int(c.p), int(c.q))
            for c in (sympy.Rational(expansion.coeff(X, i)) for i in range(ORDER + 1))]


ratfuncs = st.builds(lambda num, den: RatFunc(XPoly(num), XPoly(den)), coeff_lists, unit_lists)
# numerators with a nonzero constant term may be divided by
units = st.builds(lambda num, den: RatFunc(XPoly(num), XPoly(den)), unit_lists, unit_lists)

OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@pytest.mark.parametrize("op", OPS)
@given(f=ratfuncs, g=units)
@settings(max_examples=15, deadline=None)
def test_ratfunc_arithmetic_and_series(op, f, g):
    ours = OPS[op](f, g)
    theirs = OPS[op](_sym_ratfunc(f), _sym_ratfunc(g))
    assert sympy.cancel(_sym_ratfunc(ours) - theirs) == 0
    assert ours.series(ORDER) == _sympy_series(theirs)


def _square(entries, size):
    return st.lists(st.lists(entries, min_size=size, max_size=size),
                    min_size=size, max_size=size)


int_matrices = st.integers(0, 5).flatmap(lambda n: _square(st.integers(-5, 5), n))
qpoly_matrices = st.integers(0, 4).flatmap(
    lambda n: _square(st.lists(st.integers(-3, 3), max_size=3).map(QPoly), n))


@given(int_matrices)
@settings(max_examples=60, deadline=None)
def test_det_of_integer_matrix(rows):
    assert det_exact(SquareMatrix(rows)) == sympy.Matrix(len(rows), len(rows), sum(rows, [])).det()


@given(qpoly_matrices)
@settings(max_examples=40, deadline=None)
def test_det_of_qpoly_matrix(rows):
    n = len(rows)
    theirs = sympy.Matrix(n, n, [_sym(e, Q) for row in rows for e in row]).det()
    ours = det_exact(SquareMatrix(rows))
    ours = ours if isinstance(ours, QPoly) else QPoly.const(ours)
    assert sympy.expand(_sym(ours, Q) - theirs) == 0
