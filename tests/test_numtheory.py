import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcount.numtheory import (
    factor,
    irreducible_mod_p,
    is_prime,
    kronecker,
    pell,
    signature,
    small_primes,
    zeta_value,
)


def brute_pell_minimal(d, y_limit):
    """Smallest positive (x, y) with x^2 - d y^2 = +-1, by scanning y."""
    for y in range(1, y_limit + 1):
        for target in (d * y * y - 1, d * y * y + 1):
            x = math.isqrt(target)
            if x > 0 and x * x == target:
                return x, y, x * x - d * y * y
    raise AssertionError("no solution in range")


def test_pell_examples():
    assert pell(2) == (1, 1, -1)
    assert pell(3) == (2, 1, 1)
    # derived via the brute-force oracle: smallest solution for d = 13
    assert brute_pell_minimal(13, 10) == (18, 5, -1)
    assert pell(13) == (18, 5, -1)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 11, 13, 19, 21, 22, 23, 29, 31, 46])
def test_pell_satisfies_equation_and_minimality(d):
    x, y, sign = pell(d)
    assert x * x - d * y * y == sign
    assert sign in (1, -1)
    # no smaller y works (the continued-fraction solution is fundamental)
    for yy in range(1, y):
        for target in (d * yy * yy - 1, d * yy * yy + 1):
            r = math.isqrt(target)
            assert not (r > 0 and r * r == target), (d, yy)


def test_pell_rejects_squares_and_small():
    with pytest.raises(ValueError):
        pell(4)
    with pytest.raises(ValueError):
        pell(1)


def test_factor_examples():
    assert factor(1) == []
    assert factor(12) == [2, 2, 3]
    big = 10 ** 9 + 7
    assert is_prime(big)
    assert factor(big) == [big]
    assert factor(2 ** 4 * 3 ** 2 * 9973) == [2, 2, 2, 2, 3, 3, 9973]


def test_factor_rho_beyond_trial_division():
    p, q = 1000003, 1000033
    assert factor(p * q) == [p, q]


def test_factor_rejects_out_of_range():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(10 ** 19)


def test_zeta_brackets():
    lo, hi = zeta_value(2)
    assert hi - lo <= Fraction(1, 10 ** 9)
    assert lo <= Fraction(math.pi ** 2 / 6).limit_denominator(10 ** 12) <= hi or abs(
        float((lo + hi) / 2) - math.pi ** 2 / 6
    ) < 1e-9
    lo4, hi4 = zeta_value(4)
    assert abs(float((lo4 + hi4) / 2) - math.pi ** 4 / 90) < 1e-9
    lo100, hi100 = zeta_value(100)
    assert abs(float((lo100 + hi100) / 2) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        zeta_value(1)


def test_kronecker_matches_euler_criterion():
    for disc in (-4, 8, 5, -8, 12, 13):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            if disc % p == 0:
                assert kronecker(disc, p) == 0
                continue
            euler = pow(disc % p, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert kronecker(disc, p) == expected, (disc, p)


def test_kronecker_multiplicative_in_bottom():
    for disc in (-4, 8, 13):
        for a in range(1, 40):
            for b in range(1, 40):
                assert kronecker(disc, a * b) == kronecker(disc, a) * kronecker(disc, b)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=7),
    st.sampled_from(small_primes()[:30]),
)
def test_rabin_certificate_matches_sympy(low, p):
    # monic f = x^n + sum low[k] x^k, n = 1..7
    x = sympy.symbols("x")
    coeffs = low + [1]
    expected = sympy.Poly(sum(c * x ** k for k, c in enumerate(coeffs)), x, modulus=p).is_irreducible
    assert irreducible_mod_p(coeffs, p) == expected


def test_rabin_certificate_edge_cases():
    assert irreducible_mod_p([1, 0, 1], 3)                        # x^2 + 1, -1 a non-residue mod 3
    assert not irreducible_mod_p([1, 0, 1], 5)                    # x^2 + 1 = (x - 2)(x + 2) mod 5
    assert not irreducible_mod_p([1, 0, 0, 0, 1], 3)              # x^4 + 1 is reducible mod every p
    assert irreducible_mod_p([1, 1, 0, 1], 2)                     # x^3 + x + 1 mod 2
    assert not irreducible_mod_p([1, 1, 0, 0, 0, 1], 2)           # x^5 + x + 1 has the factor x^2 + x + 1
    assert not irreducible_mod_p([1, 0, 1, 0, 1], 2)              # (x^2 + x + 1)^2 mod 2
    assert irreducible_mod_p([Fraction(1, 3), 0, 1], 5)           # x^2 + 2 mod 5
    assert not irreducible_mod_p([Fraction(1, 5), 0, 1], 5)       # p in a denominator never certifies
    assert not irreducible_mod_p([1, 0, 5], 5)                    # nor a p in the leading coefficient


@pytest.mark.parametrize("coeffs, expected", [
    ([-2, 0, 1], (2, 0)),            # x^2 - 2
    ([1, 0, 1], (0, 1)),             # x^2 + 1
    ([-2, 0, 0, 1], (1, 1)),         # x^3 - 2
    ([1, 0, 0, 0, 1], (0, 2)),       # x^4 + 1
    ([-1, -2, 1, 1], (3, 0)),        # x^3 + x^2 - 2x - 1, Q(zeta_7)^+
    ([-31, 0, 1], (2, 0)),           # x^2 - 31
    ([Fraction(-1, 4), 0, 1], (2, 0)),  # x^2 - 1/4: roots on the rationals
])
def test_signature_probe_set(coeffs, expected):
    assert signature(coeffs) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=6).filter(lambda c: c[-1] != 0))
def test_signature_matches_sympy_real_root_count(coeffs):
    # sympy is the reference here only: r1 = its count of real roots
    x = sympy.symbols("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    if not poly.is_sqf:
        with pytest.raises(ValueError, match="not squarefree"):
            signature(coeffs)
        return
    r1 = len(poly.real_roots())
    assert signature(coeffs) == (r1, (poly.degree() - r1) // 2)


def test_non_squarefree_rejected():
    for coeffs in ([1, 2, 1], [0, 0, 1], [-1, 1, 1, -1]):  # (x+1)^2, x^2, (x-1)^2(x+1)
        with pytest.raises(ValueError, match="not squarefree"):
            signature(coeffs)
    with pytest.raises(ValueError, match="nonconstant"):
        signature([5, 0])


def test_small_primes_are_the_trial_division_primes_below_2_16():
    primes = []
    for n in range(2, 2 ** 16):
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, primes)):
            primes.append(n)
    assert small_primes() == tuple(primes)
    assert len(primes) == 6542 and primes[-1] == 65521
