"""The exact set-up a payload keeps: each cached property of an OrderSpec or
a QuadricSectionSpec equals a fresh derivation on a newly built payload, in
the presets and under random unimodular changes of basis, and a payload made
by dataclasses.replace derives its own."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcount.algebra import NUMBER_FIELD, algebra_spec, change_of_basis, quadratic_field_order, quaternion_algebra
from orbitcount.counting import FAMILY_ALGEBRA, _definite_series, run_scenario
from orbitcount.exact import random_unimodular
from orbitcount.lattice import cone_section_points
from orbitcount.orders import (
    OrderSpec,
    finite_units,
    fundamental_unit,
    norm_gram,
    trace_form_discriminant,
)
from orbitcount.presets import PRESET_NAMES, PRESETS, order_hurwitz, preset_scenario
from orbitcount.sections import QuadricSectionSpec, quadric_section
from orbitcount.shells import ball_points, positive_form
from orbitcount.symmetry import integral_symmetries, transformed_section
from orbitcount.validation import validate_scenario


def _assert_order_setup(order, fresh):
    """order's cached set-up against the derivation functions run on fresh,
    an equal OrderSpec built anew."""
    assert order == fresh and order is not fresh
    assert order.discriminant == trace_form_discriminant(fresh)
    if order.unit_rank == 1:
        assert order.units == fundamental_unit(fresh)
        return
    form = positive_form(norm_gram(fresh))
    assert order.form == form
    assert all(np.array_equal(a, b) for a, b in zip(order.ball, ball_points(form, 3)))
    assert order.units == finite_units(fresh)


def _assert_section_setup(section, fresh):
    assert section == fresh and section is not fresh
    assert section.fiber_frame == fresh.fiber_frame
    frame = fresh.fiber_frame
    assert section.fiber_frame.form == positive_form([[frame.mult * x for x in row] for row in frame.gram])
    assert section.symmetry_group == integral_symmetries(fresh)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_setup_equals_a_fresh_derivation(name):
    scenario = preset_scenario(name, 40)
    assert validate_scenario(scenario).ok()
    run_scenario(scenario)  # the set-up the count read is now cached
    fresh = PRESETS[name][1]()
    if isinstance(scenario.payload, OrderSpec):
        _assert_order_setup(scenario.payload, fresh)
    else:
        _assert_section_setup(scenario.payload, fresh)
    assert preset_scenario(name, 1).payload is scenario.payload  # one payload per process


@st.composite
def moved_orders(draw):
    """A definite order, Z[sqrt(-d)] or the quaternion order (-a, -b), in a
    random unimodular basis."""
    if draw(st.booleans()):
        spec, n = quadratic_field_order(-draw(st.integers(1, 30))), 2
    else:
        spec, n = quaternion_algebra(-draw(st.integers(1, 6)), -draw(st.integers(1, 6))), 4
    u = random_unimodular(n, draw(st.randoms(use_true_random=False)), steps=draw(st.integers(0, 12)))
    return OrderSpec(change_of_basis(spec, u), norm_degree=2, unit_rank=0)


# Z[sqrt(-10)] in a skewed basis, 2G = ((52412, 63716), (63716, 77458)):
# theta_series' v-box of this basis in full would be 44651 x 36729 rows
SKEWED_ZSQRT_M10 = OrderSpec(
    algebra_spec((((-1624744, 1336506), (-1975179, 1624772)), ((-1975179, 1624772), (-2401198, 1975213))),
                 (62, -51), NUMBER_FIELD),
    norm_degree=2, unit_rank=0)


@settings(max_examples=25, deadline=None)
@given(moved_orders())
@example(SKEWED_ZSQRT_M10)
def test_moved_order_setup_equals_a_fresh_derivation(order):
    first = _definite_series(order, 30, FAMILY_ALGEBRA)
    _assert_order_setup(order, OrderSpec(order.algebra, order.norm_degree, order.unit_rank))
    assert _definite_series(order, 30, FAMILY_ALGEBRA) == first


SECTIONS = (
    PRESETS["model-quadric"][1](),
    quadric_section([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, Fraction(1, 2))),
    quadric_section([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], (0, 0, 0, 1)),
)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SECTIONS), st.randoms(use_true_random=False), st.integers(0, 8))
def test_moved_section_setup_equals_a_fresh_derivation(section, rng, steps):
    moved = transformed_section(section, random_unimodular(section.dim, rng, steps=steps))
    points = [cone_section_points(moved, k) for k in range(1, 6)]
    assert moved.symmetry_group.order == section.symmetry_group.order
    _assert_section_setup(moved, QuadricSectionSpec(moved.gram, moved.ell, moved.base_point, moved.scale_e))
    assert [cone_section_points(moved, k) for k in range(1, 6)] == points


def test_a_replaced_payload_derives_its_own_setup():
    hurwitz = order_hurwitz()
    assert len(hurwitz.units.torsion) == 24
    lipschitz = replace(hurwitz, algebra=quaternion_algebra(-1, -1))
    assert "units" not in vars(lipschitz)
    assert len(lipschitz.units.torsion) == 8 and len(hurwitz.units.torsion) == 24
    assert lipschitz.form.gram == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert hurwitz.form.gram != lipschitz.form.gram
    section = SECTIONS[0]
    moved = replace(section, base_point=(1, 0, 0))
    assert "symmetry_group" not in vars(moved)
    assert moved.fiber_frame == section.fiber_frame and moved.fiber_frame is not section.fiber_frame
    assert moved.symmetry_group == section.symmetry_group
    assert moved.symmetry_group is not section.symmetry_group


def test_fiber_points_derive_no_form_per_level(monkeypatch):
    # the frame's form is derived once per section; each level scales b and c
    from orbitcount import exact, shells

    ldls = []

    def counting_ldl(m):
        ldls.append(m)
        return exact.ldl(m)

    monkeypatch.setattr(shells, "ldl", counting_ldl)
    section = quadric_section([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], (0, 0, 0, 1))
    sizes = [len(cone_section_points(section, k)) for k in range(1, 31)]
    assert len(ldls) == 1 and sizes[:5] == [6, 0, 24, 0, 24]
