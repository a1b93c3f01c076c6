import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcount.algebra import (
    AlgebraSpec,
    alg_conj,
    alg_inverse,
    alg_mul,
    alg_norm,
    change_of_basis,
    element,
    minimal_polynomial,
    quadratic_field_order,
    quaternion_algebra,
)
from orbitcount.cli import read_config
from orbitcount.presets import order_gauss, order_hurwitz, order_lipschitz, order_zsqrt2

ALL_SPECS = [
    order_zsqrt2().algebra,
    order_gauss().algebra,
    order_lipschitz().algebra,
    order_hurwitz().algebra,
]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_axioms_on_all_shipped_algebras(spec):
    spec.check_axioms()


def test_mul_examples():
    zs2 = quadratic_field_order(2)
    a = element((2, 3))
    assert alg_mul(zs2.one(), a, zs2) == a
    assert alg_mul(element((0, 1)), element((0, 1)), zs2).coords == (2, 0)
    lip = quaternion_algebra(-1, -1)
    i, j = lip.basis_element(1), lip.basis_element(2)
    assert alg_mul(i, j, lip).coords == (0, 0, 0, 1)


def test_mul_dimension_mismatch():
    zs2 = quadratic_field_order(2)
    with pytest.raises(ValueError):
        alg_mul(element((1, 0, 0)), element((1, 0)), zs2)


def test_norm_examples():
    zs2 = quadratic_field_order(2)
    assert alg_norm(element((3, 2)), zs2) == 1          # 9 - 2*4
    gauss = quadratic_field_order(-1)
    assert alg_norm(element((1, 2)), gauss) == 5
    lip = quaternion_algebra(-1, -1)
    # oracle: reduced norm of a quaternion is the sum of four squares
    assert alg_norm(element((1, 1, 1, 1)), lip) == 1 + 1 + 1 + 1


def test_inverse_examples():
    zs2 = quadratic_field_order(2)
    assert alg_inverse(zs2.one(), zs2) == zs2.one()
    assert alg_inverse(element((3, 2)), zs2).coords == (3, -2)
    lip = quaternion_algebra(-1, -1)
    # oracle: x^-1 = conj(x) / norm(x)
    inv = alg_inverse(element((1, 1, 0, 0)), lip)
    assert inv.coords == (Fraction(1, 2), Fraction(-1, 2), 0, 0)
    with pytest.raises(ZeroDivisionError):
        alg_inverse(element((0, 0)), zs2)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_norm_multiplicativity_random(spec):
    rng = random.Random(20240811)
    for _ in range(60):
        a = element([Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(spec.dim)])
        b = element([Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(spec.dim)])
        assert alg_norm(alg_mul(a, b, spec), spec) == alg_norm(a, spec) * alg_norm(b, spec)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_inverse_is_two_sided(spec):
    rng = random.Random(7)
    done = 0
    while done < 20:
        a = element([rng.randint(-5, 5) for _ in range(spec.dim)])
        if a.is_zero() or alg_norm(a, spec) == 0:
            continue
        inv = alg_inverse(a, spec)
        assert alg_mul(a, inv, spec) == spec.one()
        assert alg_mul(inv, a, spec) == spec.one()
        done += 1


def test_minimal_polynomial():
    zs2 = quadratic_field_order(2)
    assert minimal_polynomial(element((0, 1)), zs2) == [-2, 0, 1]
    assert minimal_polynomial(element((1, 0)), zs2) == [-1, 1]
    hur = order_hurwitz().algebra
    w = hur.basis_element(3)
    assert minimal_polynomial(w, hur) == [1, -1, 1]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_serialization_round_trip(spec):
    doc = {"family": "algebra-norm", "algebra": json.loads(spec.to_json()), "norm_degree": 2, "unit_rank": 0}
    assert read_config(doc)["algebra"] == spec


def test_rejects_broken_structure_constants():
    # e0*e1 = e0 contradicts e0 being the unity
    bad_unital = [
        [(1, 0), (1, 0)],
        [(0, 1), (2, 0)],
    ]
    spec = AlgebraSpec(dim=2, table=tuple(tuple(map(tuple, r)) for r in bad_unital),
                       unity=(1, 0), kind="number-field")
    with pytest.raises(ValueError):
        spec.check_axioms()
    # e1*e1 = e0 one way but mixed products inconsistent: breaks associativity
    bad_assoc = [
        [(1, 0), (0, 1)],
        [(1, 1), (2, 0)],
    ]
    spec2 = AlgebraSpec(dim=2, table=tuple(tuple(map(tuple, r)) for r in bad_assoc),
                        unity=(1, 0), kind="number-field")
    with pytest.raises(ValueError):
        spec2.check_axioms()


def _axiom_loop(spec):
    """The unity, associativity and involution checks as nested alg_mul and
    alg_conj calls over basis elements: the first failure's message, or None."""
    n = spec.dim
    basis = [spec.basis_element(i) for i in range(n)]
    one = spec.one()
    for i in range(n):
        if alg_mul(one, basis[i], spec) != basis[i] or alg_mul(basis[i], one, spec) != basis[i]:
            return "unity is not a two-sided identity"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg_mul(alg_mul(basis[i], basis[j], spec), basis[k], spec)
                rhs = alg_mul(basis[i], alg_mul(basis[j], basis[k], spec), spec)
                if lhs != rhs:
                    return f"associativity fails on basis triple {(i, j, k)}"
    if spec.involution is not None:
        for i in range(n):
            if alg_conj(alg_conj(basis[i], spec), spec) != basis[i]:
                return "involution is not of order 2"
        for i in range(n):
            for j in range(n):
                lhs = alg_conj(alg_mul(basis[i], basis[j], spec), spec)
                rhs = alg_mul(alg_conj(basis[j], spec), alg_conj(basis[i], spec), spec)
                if lhs != rhs:
                    return "involution is not an anti-automorphism"
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_SPECS), st.data())
def test_associativity_check_matches_the_basis_loop(spec, data):
    # perturb one structure constant by an integer, a Fraction or a value past
    # int64; drop the involution, whose checks come after these
    n = spec.dim
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    delta = data.draw(st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=5),
                                st.just(2 ** 70)))
    table = [[list(cell) for cell in row] for row in spec.table]
    table[i][j][k] += delta
    moved = AlgebraSpec(dim=n, table=tuple(tuple(map(tuple, row)) for row in table),
                        unity=spec.unity, kind="number-field")
    expected = _axiom_loop(moved)
    if expected is None:
        moved.check_axioms()
    else:
        with pytest.raises(ValueError) as err:
            moved.check_axioms()
        assert str(err.value) == expected


QUATERNION_SPECS = [spec for spec in ALL_SPECS if spec.involution is not None]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(QUATERNION_SPECS), st.data())
def test_involution_checks_match_the_basis_loop(spec, data):
    # perturb one entry of the involution matrix by an integer, a Fraction or
    # a value past int64
    n = spec.dim
    i, j = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    delta = data.draw(st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=5),
                                st.just(2 ** 70)))
    inv = [list(row) for row in spec.involution]
    inv[i][j] += delta
    moved = AlgebraSpec(dim=n, table=spec.table, unity=spec.unity, kind=spec.kind,
                        involution=tuple(map(tuple, inv)))
    expected = _axiom_loop(moved)
    if expected is None:
        moved.check_axioms()
    else:
        with pytest.raises(ValueError) as err:
            moved.check_axioms()
        assert str(err.value) == expected


def test_involution_of_the_wrong_shape_is_refused():
    spec = quaternion_algebra(-1, -1)
    with pytest.raises(ValueError, match="involution matrix has wrong shape"):
        AlgebraSpec(dim=4, table=spec.table, unity=spec.unity, kind=spec.kind,
                    involution=spec.involution[:3])


def test_axiom_checks_on_scaled_tensors_match_the_loop():
    # in the basis 3, 1 + i, j, ij the unity, the structure constants and the
    # involution all have denominators, and every identity still holds
    lip = quaternion_algebra(-1, -1)
    scaled = change_of_basis(lip, [(3, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert scaled.unity == (Fraction(1, 3), 0, 0, 0) and scaled.involution[0][1] == Fraction(2, 3)
    assert _axiom_loop(scaled) is None
    scaled.check_axioms()
    # one entry changed breaks the order-2 identity (a diagonal entry) or
    # only the anti-automorphism (an entry between 1 and i, where C^2 = I holds)
    for (i, j), message in (((1, 1), "involution is not of order 2"),
                            ((0, 1), "involution is not an anti-automorphism")):
        inv = [list(row) for row in lip.involution]
        inv[i][j] += 1
        moved = AlgebraSpec(dim=4, table=lip.table, unity=lip.unity, kind=lip.kind,
                            involution=tuple(map(tuple, inv)))
        assert _axiom_loop(moved) == message
        with pytest.raises(ValueError, match=message):
            moved.check_axioms()
