import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from orbitcount.exact import inverse, mat_mul, random_unimodular
from orbitcount.lattice import cone_section_points
from orbitcount.presets import model_quadric_section
from orbitcount.sections import quadric_section
from orbitcount.symmetry import (
    Orbit,
    OrbitReport,
    integral_symmetries,
    orbit_partition,
    transformed_section,
    weighted_count,
)

SEC = model_quadric_section()
GROUP = integral_symmetries(SEC)


def test_group_is_expected_order_two():
    assert GROUP.order == 2
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    flip = ((0, 0, 1), (0, -1, 0), (1, 0, 0))  # (x, y, z) -> (z, -y, x)
    assert set(GROUP.elements) == {ident, flip}


def test_group_orders_of_other_sections():
    # x^2 + y^2 - z^2 at z/2 = k: the rotations of the square fixing z
    hyp = quadric_section([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, Fraction(1, 2)))
    assert integral_symmetries(hyp).order == 4
    assert integral_symmetries(model_quadric_section()).order == 2
    # ell = (-1, 0, 0): e_0 lies on the fiber ell = -1, so the identity is found
    neg = quadric_section([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], (-1, 0, 0))
    assert integral_symmetries(neg).order == 4


def test_group_excludes_minus_identity():
    neg = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert neg not in GROUP.elements  # ell o (-I) = -ell


def test_group_axioms_exhaustive():
    elems = set(GROUP.elements)

    def mul(a, b):
        n = len(a)
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))

    for a in elems:
        for b in elems:
            assert mul(a, b) in elems
    for g in elems:
        assert all(
            SEC.bilinear(col_i, col_j) == SEC.gram[i][j]
            for i, col_i in enumerate(zip(*g))
            for j, col_j in enumerate(zip(*g))
        )


def test_orbit_partition_examples():
    rep5 = orbit_partition(cone_section_points(SEC, 5), GROUP, level=5)
    assert len(rep5.orbits) == 2
    assert all(o.stabilizer_order == 1 and o.size == 2 for o in rep5.orbits)
    assert weighted_count(rep5) == 2

    rep2 = orbit_partition(cone_section_points(SEC, 2), GROUP, level=2)
    assert len(rep2.orbits) == 1
    assert weighted_count(rep2) == 1

    rep0 = orbit_partition([], GROUP)
    assert rep0.orbits == ()
    assert weighted_count(rep0) == 0


def test_orbit_stabilizer_identity_and_weight_bound():
    for k in range(1, 60):
        report = orbit_partition(cone_section_points(SEC, k), GROUP, level=k)
        for o in report.orbits:
            assert o.size * o.stabilizer_order == GROUP.order
        w = weighted_count(report)
        assert w <= report.total_points()
        if report.orbits and all(o.stabilizer_order == 1 for o in report.orbits):
            assert w == len(report.orbits)


def test_orbit_partition_rejects_unclosed_sets():
    pts = cone_section_points(SEC, 5)[:1]
    with pytest.raises(ValueError):
        orbit_partition(pts, GROUP)


def test_synthetic_stabilizer_weight():
    # a fixed point of the full group contributes 1/|G|
    report = OrbitReport(level=None, orbits=(Orbit((0, 0, 0), 1, 2, Fraction(1, 2)),))
    assert weighted_count(report) == Fraction(1, 2)


def test_gl3z_equivariance_random_transforms():
    rng = random.Random(20250810)
    for _ in range(6):
        u = random_unimodular(3, rng)
        sec2 = transformed_section(SEC, u)
        g2 = integral_symmetries(sec2)
        assert g2.order == GROUP.order
        for k in range(1, 40):
            p1 = cone_section_points(SEC, k)
            p2 = cone_section_points(sec2, k)
            r1 = orbit_partition(p1, GROUP, level=k)
            r2 = orbit_partition(p2, g2, level=k)
            assert len(p1) == len(p2)
            assert len(r1.orbits) == len(r2.orbits)
            assert weighted_count(r1) == weighted_count(r2)


SPHERE4 = quadric_section([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], (0, 0, 0, 1))


def test_five_variable_sphere_group_is_the_signed_permutations_of_det_one():
    # x1^2 + ... + x4^2 - w^2 at w = k: P + 1 for the 4 x 4 signed permutation
    # matrices P of det 1, built directly, with no search
    sec = quadric_section([[1 if i == j < 4 else -1 if i == j else 0 for j in range(5)] for i in range(5)],
                          (0, 0, 0, 0, 1))
    want = set()
    for perm in permutations(range(4)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        for signs in product((1, -1), repeat=4):
            if math.prod(signs) * (-1) ** inversions == 1:
                rows = [tuple(signs[i] if j == perm[i] else 0 for j in range(4)) + (0,) for i in range(4)]
                want.add(tuple(rows) + ((0, 0, 0, 0, 1),))
    group = integral_symmetries(sec)
    assert len(want) == 192 and group.elements == tuple(sorted(want)) and group.order == 192


@pytest.mark.parametrize("sec", [SEC, SPHERE4], ids=["model-quadric", "sphere4"])
@pytest.mark.parametrize("seed", range(8))
def test_group_of_a_moved_section_is_the_conjugate_group(sec, seed):
    # x = U x' takes g to U^-1 g U, element for element
    rng = random.Random(seed)
    u = random_unimodular(sec.dim, rng, steps=rng.randint(0, 8))
    uinv = inverse(u)
    want = sorted(tuple(tuple(int(x) for x in row) for row in mat_mul(uinv, mat_mul(g, u)))
                  for g in integral_symmetries(sec).elements)
    assert integral_symmetries(transformed_section(sec, u)).elements == tuple(want)


@pytest.mark.parametrize("block", [1 << 16, 50])
def test_a_dropped_candidate_ends_in_the_closure_check(monkeypatch, block):
    # -e_0 dropped from the one shell of candidates of e_0, e_1 and e_2: the
    # search keeps diag(1, -1, -1, 1) and e_0 <-> e_1, e_2 -> -e_2, but not
    # their product, which sends e_1 to -e_0; a block of 50 products checks
    # the 24 left factors two at a time
    import orbitcount.symmetry as symmetry

    monkeypatch.setattr(symmetry, "DOMAIN_BLOCK", block)
    assert integral_symmetries(SPHERE4).order == 24
    real = symmetry.fiber_section_points

    def dropping(section, k, qtarget=0, primitive=True):
        pts = real(section, k, qtarget=qtarget, primitive=primitive)
        return [p for p in pts if p != (-1, 0, 0, 0)]

    monkeypatch.setattr(symmetry, "fiber_section_points", dropping)
    with pytest.raises(AssertionError, match="not closed under product"):
        integral_symmetries(SPHERE4)
