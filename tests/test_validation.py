from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitcount.algebra import AlgebraSpec
from orbitcount.counting import FAMILY_QUADRIC, ScenarioSpec
from orbitcount.numtheory import small_primes
from orbitcount.orders import OrderSpec
from orbitcount.presets import model_quadric_section
from orbitcount.sections import quadric_section
from orbitcount.validation import (
    FAIL,
    PASS,
    UNDETERMINED,
    _check_irreducible_norm_form,
    _discriminant,
    _generator_minpoly,
    validate_scenario,
)

X = sympy.symbols("x")


def monogenic_order(f):
    """Z[x]/(f) on the basis 1, x, ..., x^(n-1), for monic integer f (low to high)."""
    n = len(f) - 1
    powers, cur = [], [1] + [0] * (n - 1)
    for _ in range(2 * n - 1):
        powers.append(tuple(cur))
        top = cur[-1]
        cur = [c - top * fk for c, fk in zip([0] + cur[:-1], f)]
    table = tuple(tuple(powers[i + j] for j in range(n)) for i in range(n))
    return OrderSpec(AlgebraSpec(dim=n, table=table, unity=powers[0], kind="number-field"),
                     norm_degree=n, unit_rank=0)


def sympy_irreducibility(f):
    """(status, detail) of the sympy route: factor over Q first, then take the
    first of 25 primes not dividing the discriminant with an irreducible
    reduction."""
    poly = sympy.Poly(list(reversed(f)), X)
    factors = poly.factor_list()[1]
    if len(factors) > 1 or any(m > 1 for _, m in factors):
        return FAIL, f"minimal polynomial factors over Q: {poly.as_expr()}"
    disc = sympy.Rational(sympy.discriminant(poly.as_expr(), X))
    eligible = [p for p in small_primes()[:200] if (disc.p * disc.q) % p][:25]
    for p in eligible:
        if sympy.Poly(poly.as_expr(), X, modulus=p).is_irreducible:
            return PASS, f"irreducible mod {p}"
    return UNDETERMINED, "no irreducible reduction among first 25 eligible primes"


def _monic_product(a, b):
    f = [1]
    for g in (a + [1], b + [1]):
        f = [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g))
             for k in range(len(f) + len(g) - 1)]
    return f


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
       st.lists(st.integers(-4, 4), max_size=2))
def test_irreducibility_check_matches_sympy_route(a, b):
    # b = [] keeps f = x^n + a; otherwise f is a product of two monic factors
    f = _monic_product(a, b)
    assume(len(f) > 2)
    order = monogenic_order(f)
    check = _check_irreducible_norm_form(order, _generator_minpoly(order))
    assert (check.status, check.detail) == sympy_irreducibility(f)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=2, max_size=6)
       .filter(lambda c: c[-1] != 0))
def test_discriminant_matches_sympy(coeffs):
    expr = sum(sympy.Rational(c.numerator, c.denominator) * X ** k for k, c in enumerate(coeffs))
    assert _discriminant(coeffs) == Fraction(str(sympy.discriminant(expr, X)))


@pytest.mark.parametrize("section, det, level, sign", [
    (model_quadric_section(), "1/4", "1", "negative"),
    (quadric_section([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, Fraction(1, 2))), "-1", "1/2", "positive"),
    (quadric_section([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], (0, 0, 0, 1)), "-1", "1", "positive"),
])
def test_a_quadric_validates_the_facts_its_section_certified(section, det, level, sign):
    report = validate_scenario(ScenarioSpec(FAMILY_QUADRIC, section, 10))
    assert report.ok() and report.lines() == [
        f"PASS         quadratic form nondegenerate -- det = {det}",
        f"PASS         base point on the cone with positive level -- q(v0) = 0, ell(v0) = {level}",
        f"PASS         q restricted to ker(ell) definite over R (exact minors) -- {sign} definite",
    ]


@pytest.mark.parametrize("gram, ell, base, message", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], (0, 0, 1), (0, 0, 1), "quadratic form is degenerate"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, 1), (1, 0, 0), "base point is not on the cone"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, 1), (1, 0, -1), "base point must have positive level"),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], (0, 0, 0, 1), (1, 0, 0, 1),
     "q restricted to ker(ell) is not definite over R (unsupported)"),
])
def test_a_section_that_fails_a_fact_is_never_built(gram, ell, base, message):
    with pytest.raises(ValueError) as refused:
        quadric_section(gram, ell, base_point=base)
    assert str(refused.value) == message
