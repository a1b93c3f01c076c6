import random
from fractions import Fraction

import pytest

from orbitcount.exact import random_unimodular
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
