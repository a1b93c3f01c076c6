import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcount.algebra import AlgebraElement, alg_mul, alg_norm, element, quadratic_field_order, quaternion_algebra
from orbitcount.oracles import pairwise_orbits
from orbitcount.orders import (
    OrderSpec,
    associated,
    canonical_rep,
    finite_units,
    fundamental_unit,
    is_unit,
    norm_gram,
    reduce_orbits,
    rep_key,
    trace_form_discriminant,
    unit_domain_points,
)
from orbitcount.presets import order_gauss, order_hurwitz, order_lipschitz, order_zsqrt2
from orbitcount.shells import definite_shell
from orbitcount.lattice import box_scan


def test_is_unit_examples():
    assert is_unit(element((1, 1)), order_zsqrt2())          # norm -1
    assert is_unit(element((0, 1)), order_gauss())
    assert not is_unit(element((1, 1, 0, 0)), order_lipschitz())  # norm 2


def test_associated_examples():
    zs2 = order_zsqrt2()
    assert associated(element((1, 0)), element((3, 2)), zs2)     # 3 + 2 sqrt2 is a unit
    gauss = order_gauss()
    assert associated(element((1, 1)), element((1, -1)), gauss)  # quotient is -i
    assert not associated(element((1, 0)), element((0, 1)), zs2)  # norms 1 vs -2
    with pytest.raises(ValueError):
        associated(element((0, 0)), element((1, 0)), zs2)


@pytest.mark.parametrize("order,levels", [
    (order_zsqrt2(), range(1, 15)),
    (order_gauss(), range(1, 15)),
])
def test_associated_is_equivalence_relation(order, levels):
    rng = random.Random(99)
    elems = []
    for k in levels:
        elems.extend(box_scan(order, k, 6))
    sample = rng.sample(elems, min(60, len(elems)))
    for x in sample:
        assert associated(x, x, order)
    for _ in range(200):
        x, y, z = rng.choice(sample), rng.choice(sample), rng.choice(sample)
        assert associated(x, y, order) == associated(y, x, order)
        if associated(x, y, order) and associated(y, z, order):
            assert associated(x, z, order)
        if associated(x, y, order):
            assert abs(alg_norm(x, order.algebra)) == abs(alg_norm(y, order.algebra))


def test_finite_units_counts():
    assert len(finite_units(order_gauss()).torsion) == 4
    assert len(finite_units(order_lipschitz()).torsion) == 8
    assert len(finite_units(order_hurwitz()).torsion) == 24
    with pytest.raises(ValueError):
        finite_units(order_zsqrt2())  # indefinite norm form


def _is_unit_filter(order):
    """The units as the per-element is_unit filter over the norm-1 shell."""
    shell = definite_shell(norm_gram(order), 1)
    return tuple(u for u in (AlgebraElement(tuple(v)) for v in shell) if is_unit(u, order))


@pytest.mark.parametrize("order", [order_gauss(), order_lipschitz(), order_hurwitz()],
                         ids=["gauss", "lipschitz", "hurwitz"])
def test_finite_units_match_the_is_unit_filter(order):
    units = finite_units(order).torsion
    assert units == _is_unit_filter(order)
    assert all(type(c) is int for u in units for c in u.coords)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.integers(1, 60).map(lambda d: OrderSpec(quadratic_field_order(-d), norm_degree=2, unit_rank=0)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)).map(
        lambda ab: OrderSpec(quaternion_algebra(-ab[0], -ab[1]), norm_degree=2, unit_rank=0)),
))
def test_finite_units_match_the_is_unit_filter_on_drawn_orders(order):
    assert finite_units(order).torsion == _is_unit_filter(order)


def test_fundamental_unit():
    zs2 = order_zsqrt2()
    fu = fundamental_unit(zs2)
    assert fu.fundamental[0].coords == (1, 1)
    assert alg_norm(fu.fundamental[0], zs2.algebra) == -1
    assert fu.norm_one_fundamental.coords == (3, 2)
    from orbitcount.algebra import quadratic_field_order
    from orbitcount.orders import OrderSpec

    zs3 = OrderSpec(quadratic_field_order(3), 2, 1)
    fu3 = fundamental_unit(zs3)
    assert fu3.fundamental[0].coords == (2, 1)
    assert alg_norm(fu3.fundamental[0], zs3.algebra) == 1
    with pytest.raises(ValueError):
        fundamental_unit(order_gauss())  # rank 0


def test_discriminants():
    assert trace_form_discriminant(order_zsqrt2()) == 8
    assert trace_form_discriminant(order_gauss()) == -4


def test_canonical_rep_examples():
    zs2 = order_zsqrt2()
    fu = fundamental_unit(zs2)
    # every norm-one unit multiple of 1 lands on the same representative
    base = canonical_rep(element((1, 0)), fu, zs2)
    assert canonical_rep(element((17, 12)), fu, zs2) == base   # (3+2sqrt2)^2
    assert canonical_rep(element((-3, -2)), fu, zs2) == base
    x = element((7, 5))
    assert canonical_rep(canonical_rep(x, fu, zs2), fu, zs2) == canonical_rep(x, fu, zs2)
    gauss = order_gauss()
    ug = finite_units(gauss)
    assert canonical_rep(element((-1, -2)), ug, gauss).coords == (1, 2)


def real_quadratic(d):
    return OrderSpec(quadratic_field_order(d), norm_degree=2, unit_rank=1)


# Z[sqrt(3)] and Z[sqrt(31)] have fundamental units of norm +1
@pytest.mark.parametrize(
    "order", [order_zsqrt2(), order_gauss(), real_quadratic(3), real_quadratic(31)]
)
def test_canonical_rep_unit_invariance(order):
    units = finite_units(order) if order.unit_rank == 0 else fundamental_unit(order)
    rng = random.Random(4)
    norm_one_units = [u for u in units.torsion if alg_norm(u, order.algebra) == 1]
    if units.norm_one_fundamental is not None:
        norm_one_units.append(units.norm_one_fundamental)
    for _ in range(40):
        x = element((rng.randint(-9, 9), rng.randint(-9, 9)))
        if x.is_zero() or alg_norm(x, order.algebra) == 0:
            continue
        r = canonical_rep(x, units, order)
        for u in norm_one_units:
            assert canonical_rep(alg_mul(u, x, order.algebra), units, order) == r


@pytest.mark.parametrize("d, r", [(2, 400), (3, 300), (7, 200), (31, 60), (46, 8)])
def test_canonical_rep_fixes_every_domain_point(d, r):
    order = real_quadratic(d)
    units = fundamental_unit(order)
    pts, norms = unit_domain_points(order, units, r)
    assert len(pts) and np.all((np.abs(norms) >= 1) & (np.abs(norms) <= r))
    for p, n in zip(pts.tolist(), norms.tolist()):
        x = element(tuple(p))
        assert alg_norm(x, order.algebra) == n
        assert canonical_rep(x, units, order) == x
    # one point per orbit: no two domain points of one norm are associated
    for n in set(norms.tolist()):
        same = [element(tuple(p)) for p in pts[norms == n].tolist()]
        assert len(pairwise_orbits(same, order)) == len(same), n


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3, 7, 31]),
    a=st.integers(-40, 40),
    b=st.integers(-40, 40),
    power=st.integers(-3, 3),
    sign=st.sampled_from([1, -1]),
)
def test_canonical_rep_lands_on_the_enumerated_domain_point(d, a, b, power, sign):
    order = real_quadratic(d)
    units = fundamental_unit(order)
    x = element((a, b))
    n = alg_norm(x, order.algebra)
    if n == 0:
        return
    eps = units.norm_one_fundamental
    step = eps if power >= 0 else element((eps.coords[0], -eps.coords[1]))
    y = element((sign * a, sign * b))
    for _ in range(abs(power)):
        y = alg_mul(step, y, order.algebra)
    pts, norms = unit_domain_points(order, units, abs(n))
    domain = {tuple(p) for p in pts[norms == n].tolist()}
    rep = canonical_rep(y, units, order)
    assert rep == canonical_rep(x, units, order)
    assert rep.coords in domain


def level_shell(order, k, bound=None):
    """All integral elements of norm exactly k (signed), exhaustively."""
    if order.unit_rank == 0:
        return [element(tuple(v)) for v in definite_shell(norm_gram(order), k)]
    # real quadratic: a box certainly containing the balanced window for small k
    from orbitcount.lattice import indefinite_quadratic_shell

    return indefinite_quadratic_shell(order, k)


def test_canonical_rep_matches_pairwise_oracle_quadratic_orders():
    """Partition by canonical_rep equals the union-find partition by associated()
    on every shell with level <= 200 for the quadratic-order presets."""
    gauss = order_gauss()
    ug = finite_units(gauss)
    for k in range(1, 201):
        shell = [element(tuple(v)) for v in definite_shell(norm_gram(gauss), k)]
        if not shell:
            continue
        by_canon = {}
        for x in shell:
            by_canon.setdefault(canonical_rep(x, ug, gauss).coords, set()).add(x.coords)
        classes = pairwise_orbits(shell, gauss)
        oracle_partition = {frozenset(e.coords for e in cls) for cls in classes}
        assert {frozenset(v) for v in by_canon.values()} == oracle_partition, k

    zs2 = order_zsqrt2()
    fu = fundamental_unit(zs2)
    for k in list(range(1, 31)) + [98, 119, 127, 161, 199]:
        for signed in (k, -k):
            reps = level_shell(zs2, signed)
            if not reps:
                continue
            # representatives of distinct orbits are pairwise non-associated
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    assert not associated(reps[i], reps[j], zs2)
            # and every box element of that norm joins some listed orbit
            box = [x for x in box_scan(zs2, abs(signed), 40)
                   if alg_norm(x, zs2.algebra) == signed]
            for x in box:
                assert canonical_rep(x, fu, zs2) in reps


def test_canonical_rep_quaternion_spot():
    lip = order_lipschitz()
    units = finite_units(lip)
    for m in (1, 2, 3, 4, 5):
        shell = [element(tuple(v)) for v in definite_shell(norm_gram(lip), m)]
        by_canon = {}
        for x in shell:
            by_canon.setdefault(canonical_rep(x, units, lip).coords, set()).add(x.coords)
        classes = pairwise_orbits(shell, lip)
        assert {frozenset(e.coords for e in c) for c in classes} == {
            frozenset(v) for v in by_canon.values()
        }
        for cls in classes:
            assert len(cls) == len(units.torsion)  # free action


# ---------------------------------------------------------------------------
# the finite-group orbit kernel


def _torsion_group(order):
    from orbitcount.counting import _torsion_matrices
    from orbitcount.symmetry import SymmetryGroup

    mats = tuple(_torsion_matrices(order, finite_units(order)))
    return SymmetryGroup(elements=mats, order=len(mats))


def _kernel_groups():
    from orbitcount.presets import model_quadric_section
    from orbitcount.symmetry import integral_symmetries

    return {
        "gauss": _torsion_group(order_gauss()),
        "lipschitz": _torsion_group(order_lipschitz()),
        "hurwitz": _torsion_group(order_hurwitz()),
        "model-quadric": integral_symmetries(model_quadric_section()),
    }


KERNEL_GROUPS = _kernel_groups()


def _closure(seeds, group):
    from orbitcount.symmetry import apply_matrix

    return sorted({apply_matrix(g, p) for p in seeds for g in group.elements})


@st.composite
def closed_point_sets(draw):
    name = draw(st.sampled_from(sorted(KERNEL_GROUPS)))
    group = KERNEL_GROUPS[name]
    n = len(group.elements[0])
    coords = st.integers(min_value=-6, max_value=6)
    seeds = draw(st.lists(st.tuples(*[coords] * n), min_size=1, max_size=12))
    return group, _closure(seeds, group)


@settings(max_examples=60, deadline=None)
@given(closed_point_sets())
def test_reduce_orbits_matches_orbit_partition(case):
    from orbitcount.symmetry import apply_matrix, orbit_partition

    group, pts = case
    reps, stab = reduce_orbits(np.array(pts, dtype=np.int64), group.elements)
    kernel = {}
    for p, r in zip(pts, map(tuple, reps.tolist())):
        kernel.setdefault(r, set()).add(p)
    report = orbit_partition(pts, group)
    reference = {
        frozenset(apply_matrix(g, o.representative) for g in group.elements): o.stabilizer_order
        for o in report.orbits
    }
    assert {frozenset(m) for m in kernel.values()} == set(reference)
    stab_of = {p: s for members, s in reference.items() for p in members}
    assert stab.tolist() == [stab_of[p] for p in pts]


@settings(max_examples=60, deadline=None)
@given(closed_point_sets())
def test_reduce_orbits_rep_rule_and_idempotence(case):
    from orbitcount.symmetry import apply_matrix

    group, pts = case
    reps, _ = reduce_orbits(np.array(pts, dtype=np.int64), group.elements)
    for p, r in zip(pts, map(tuple, reps.tolist())):
        assert r == min((apply_matrix(g, p) for g in group.elements), key=rep_key)
    again, _ = reduce_orbits(reps, group.elements)
    assert again.tolist() == reps.tolist()


def test_reduce_orbits_python_int_path_is_exact():
    from orbitcount.symmetry import apply_matrix

    group = KERNEL_GROUPS["hurwitz"]  # row sums up to 5: 5 * 2^62 overflows int64
    pts = [(2 ** 62, -3, 1, 7), (-(2 ** 62) - 9, 2 ** 62 + 1, 0, -5)]
    reps, stab = reduce_orbits(pts, group.elements)
    assert reps.dtype == object
    for p, r in zip(pts, map(tuple, reps.tolist())):
        assert r == min((apply_matrix(g, p) for g in group.elements), key=rep_key)
    assert stab.tolist() == [1, 1]


@pytest.mark.parametrize("scale", [1, 2 ** 62])
def test_dropping_an_orbit_member_trips_completeness_check(scale):
    from orbitcount.counting import _orbit_classes

    group = KERNEL_GROUPS["hurwitz"]
    pts = _closure([(scale, 2 * scale, 0, 0), (3 * scale, 0, 0, 0)], group)
    levels = np.zeros(len(pts), dtype=np.int64)
    reps, stab = reduce_orbits(pts, group.elements)
    assert len(_orbit_classes(levels, reps, stab, group.order)) == 2
    reps, stab = reduce_orbits(pts[1:], group.elements)
    with pytest.raises(AssertionError):
        _orbit_classes(levels[1:], reps, stab, group.order)
