"""The rational elimination kernel of orbitcount.exact against sympy.

det, solve and inverse share one Gauss-Jordan pass and minimal_polynomial
reduces the powers of an element once; sympy serves only as the reference
here.
"""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcount.algebra import algebra_spec, element, left_mul_matrix, minimal_polynomial
from orbitcount.exact import det, inverse, isqrt_frac_floor, solve, vec
from orbitcount.presets import order_gauss, order_hurwitz, order_lipschitz, order_zsqrt2

X = sympy.symbols("x")
ENTRIES = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=6))


def _sym(m, ncols):
    return sympy.Matrix(len(m), ncols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m for x in map(Fraction, row)])


def _values_ok(xs):
    # ints where a value is integral, Fractions otherwise
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1) for x in xs)


@st.composite
def matrices(draw):
    """A square rational matrix of dim 0..5: half the time with random
    entries, otherwise the product of an n x k and a k x n matrix, of rank at
    most k <= n, so that singular ones come often."""
    n = draw(st.integers(0, 5))
    k = draw(st.integers(0, n))
    left = [[draw(ENTRIES) for _ in range(k)] for _ in range(n)]
    right = [[draw(ENTRIES) for _ in range(n)] for _ in range(k)]
    if draw(st.booleans()):
        return [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    return [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_det_solve_inverse_match_sympy(a, data):
    n = len(a)
    ref = _sym(a, n)
    d = det(a)
    assert d == ref.det() and _values_ok([d])
    b = [data.draw(ENTRIES) for _ in range(n)]
    x = solve(a, b)
    if n and ref.det() == 0:
        assert x is None
        with pytest.raises(ZeroDivisionError):
            inverse(a)
        return
    assert list(x) == (list(ref.LUsolve(_sym([[c] for c in b], 1))) if n else []) and _values_ok(x)
    inv = inverse(a)
    assert _sym(inv, n) == (ref.inv() if n else ref) and _values_ok(sum(inv, ()))


def _power_basis(table):
    """The algebra Z[a] with a^i a^j = table[i + j]."""
    n = len(table[0])
    return algebra_spec([[table[i + j] for j in range(n)] for i in range(n)],
                        (1,) + (0,) * (n - 1), "number-field")


ALGEBRAS = {
    "zsqrt2": order_zsqrt2().algebra,
    "gauss": order_gauss().algebra,
    "lipschitz": order_lipschitz().algebra,
    "hurwitz": order_hurwitz().algebra,
    "zeta8": _power_basis([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                           [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0]]),
    "zeta7plus": _power_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, -1], [-1, -1, 3]]),
    "split": _power_basis([[1, 0], [0, 1], [1, 0]]),
}


def _sympy_minimal_polynomial(m):
    """The monic divisor of least degree of the characteristic polynomial of
    the sympy matrix m that annihilates m."""
    n = m.shape[0]
    _, factors = sympy.factor_list(m.charpoly(X).as_expr(), X)
    candidates = [sympy.Mul(*(f ** e for (f, _), e in zip(factors, exps)))
                  for exps in itertools.product(*(range(k + 1) for _, k in factors))]
    for poly in sorted(candidates, key=lambda p: sympy.degree(p, X)):
        value = sympy.zeros(n, n)
        for c in sympy.Poly(poly, X).all_coeffs():
            value = value * m + c * sympy.eye(n)
        if value.is_zero_matrix:
            return sympy.Poly(poly, X).monic().all_coeffs()[::-1]
    raise AssertionError("the characteristic polynomial annihilates its matrix")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_minimal_polynomial_matches_sympy(name, data):
    spec = ALGEBRAS[name]
    coords = data.draw(st.lists(st.one_of(st.integers(-3, 3), st.sampled_from([0, 0, 0])),
                                min_size=spec.dim, max_size=spec.dim))
    a = element(coords)
    mp = minimal_polynomial(a, spec)
    assert mp == _sympy_minimal_polynomial(_sym(left_mul_matrix(a, spec), spec.dim))
    assert _values_ok(mp)


def test_frac_reads_ints_fractions_and_strings():
    # Fraction parses the spaces around "p/q" itself; floats are refused (test_cli)
    assert vec([3, Fraction(4, 2), " 1/2 ", "-6/4"]) == (3, 2, Fraction(1, 2), Fraction(-3, 2))
    assert [type(x) for x in vec(["4/2", Fraction(6, 3)])] == [int, int]


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2 ** 200), st.integers(1, 2 ** 140), st.integers(0, 2 ** 70))
def test_isqrt_frac_floor_brackets_the_root(p, q, a):
    # numerators past 2^128, and perfect squares over squares, where g = a // q
    for f in (Fraction(p, q), Fraction(a * a, q * q), Fraction(a * a + 1, q * q), Fraction(a * a - 1, q * q)):
        if f < 0:
            with pytest.raises(ValueError):
                isqrt_frac_floor(f)
            continue
        g = isqrt_frac_floor(f)
        assert g * g <= f < (g + 1) * (g + 1)
    assert isqrt_frac_floor(Fraction(a * a, q * q)) == a // q
    with pytest.raises(ValueError):
        isqrt_frac_floor(Fraction(-p - 1, q))
