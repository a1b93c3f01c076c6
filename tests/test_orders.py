import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcount.algebra import (
    AlgebraElement, alg_mul, alg_norm, change_of_basis, element, left_mul_matrix, quadratic_field_order,
    quaternion_algebra,
)
from orbitcount.exact import det, random_unimodular
from orbitcount.oracles import pairwise_orbits
from orbitcount.orders import (
    OrderSpec,
    associated,
    canonical_rep,
    finite_units,
    fundamental_unit,
    is_unit,
    norm_gram,
    trace_form_discriminant,
    unit_domain_points,
)
from orbitcount.presets import order_gauss, order_hurwitz, order_lipschitz, order_zsqrt2
from orbitcount.shells import definite_shell
from orbitcount.counting import orbit_counts
from orbitcount.lattice import box_scan
from orbitcount.symmetry import apply_matrix, orbit_partition


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


def _trace_form_by_products(order):
    """det(Tr(L(e_i e_j))), each product by alg_mul and each trace read off its
    left-multiplication matrix."""
    spec, n = order.algebra, order.algebra.dim
    basis = [spec.basis_element(i) for i in range(n)]
    return det([[sum(left_mul_matrix(alg_mul(x, y, spec), spec)[k][k] for k in range(n)) for y in basis]
                for x in basis])


@pytest.mark.parametrize("make", [order_zsqrt2, order_gauss, order_lipschitz, order_hurwitz])
def test_trace_form_discriminant_is_the_trace_of_left_multiplication(make):
    # a unimodular change of basis multiplies the trace form's det by det(U)^2 = 1
    order, rng = make(), random.Random(11)
    value = _trace_form_by_products(order)
    assert trace_form_discriminant(order) == value
    for _ in range(4):
        u = random_unimodular(order.algebra.dim, rng)
        moved = OrderSpec(change_of_basis(order.algebra, u), order.norm_degree, order.unit_rank)
        assert trace_form_discriminant(moved) == _trace_form_by_products(moved) == value


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
    return SymmetryGroup(elements=mats)


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


def _orbit_levels(pts, group, rng):
    """A level in 0..2 for each point, one per orbit, so every level set is closed."""
    level_of = {}
    for o in orbit_partition(pts, group).orbits:
        k = rng.randrange(3)
        level_of.update((apply_matrix(g, o.representative), k) for g in group.elements)
    return [level_of[p] for p in pts]


def _partition_counts(pts, levels, group):
    """(orbits, points) per level 0..2 by symmetry.orbit_partition."""
    orbits, points = [0] * 3, [0] * 3
    for k in range(3):
        report = orbit_partition([p for p, lv in zip(pts, levels) if lv == k], group)
        orbits[k], points[k] = len(report.orbits), report.total_points()
    return orbits, points


@settings(max_examples=60, deadline=None)
@given(closed_point_sets(), st.randoms(use_true_random=False))
def test_orbit_counts_match_orbit_partition(case, rng):
    group, pts = case
    rng.shuffle(pts)
    levels = _orbit_levels(pts, group, rng)
    n_orbits, n_points = orbit_counts(np.array(pts, dtype=np.int64), levels, group.elements, 3)
    assert (n_orbits.tolist(), n_points.tolist()) == _partition_counts(pts, levels, group)


@settings(max_examples=60, deadline=None)
@given(closed_point_sets(), st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_orbit_counts_trip_exactly_when_a_level_set_is_not_closed(case, rng, per_point, drop):
    # levels drawn per point, or one member dropped, leave a level set that G
    # does not map to itself unless by chance; the kernel must trip exactly then
    group, pts = case
    levels = [rng.randrange(3) for _ in pts] if per_point else _orbit_levels(pts, group, rng)
    if drop:
        i = rng.randrange(len(pts))
        pts, levels = pts[:i] + pts[i + 1:], levels[:i] + levels[i + 1:]
    rows = set(zip(levels, pts))
    closed = all((lv, apply_matrix(g, p)) in rows for lv, p in rows for g in group.elements)
    args = (np.array(pts, dtype=np.int64).reshape(-1, len(group.elements[0])), levels, group.elements, 3)
    if closed:
        n_orbits, n_points = orbit_counts(*args)
        assert (n_orbits.tolist(), n_points.tolist()) == _partition_counts(pts, levels, group)
    else:
        with pytest.raises(AssertionError, match="orbit-stabilizer identity violated: an orbit is incomplete"):
            orbit_counts(*args)


def test_orbit_counts_refuse_images_past_int64():
    # Hurwitz row sums reach 5: the points times edge run in int64, since
    # 5 * max|x| < 2^63 bounds every image cell; one step further is refused
    group = KERNEL_GROUPS["hurwitz"]
    width = max(sum(map(abs, row)) for g in group.elements for row in g)
    pts = np.array(_closure([(1, 2, 0, 0), (3, 0, 0, 0)], group), dtype=np.int64)
    levels = np.zeros(len(pts), dtype=np.int64)
    edge = (2 ** 63 - 1) // (width * int(np.abs(pts).max()))
    n_orbits, n_points = orbit_counts(pts * edge, levels, group.elements, 1)
    assert n_orbits.tolist() == [2] and n_points.tolist() == [len(pts)]
    with pytest.raises(ValueError, match=r"2\^63"):
        orbit_counts(pts * (edge + 1), levels, group.elements, 1)


@pytest.mark.parametrize("top", [2 ** 63, -(2 ** 63) - 1])
def test_orbit_counts_refuse_python_int_points_past_int64(top):
    # a point numpy cannot hold as int64 is the same ValueError refusal, not
    # numpy's OverflowError
    group = KERNEL_GROUPS["hurwitz"]
    with pytest.raises(ValueError, match=r"an int64 intermediate could reach \d+ >= 2\^63$"):
        orbit_counts([(top, 0, 0, 0)], [0], group.elements, 1)


@pytest.mark.parametrize("scale", [1, 2 ** 40, 2 ** 58])
def test_dropping_an_orbit_member_trips_completeness_check(scale):
    # 2^40: int64 points whose rows fill no one int64 code; 2^58: the largest
    # power of two whose images stay in int64 (row sums 5, 5 * 6 * 2^58 < 2^63)
    group = KERNEL_GROUPS["hurwitz"]
    pts = _closure([(scale, 2 * scale, 0, 0), (3 * scale, 0, 0, 0)], group)
    levels = np.zeros(len(pts), dtype=np.int64)
    n_orbits, n_points = orbit_counts(pts, levels, group.elements, 1)
    assert n_orbits.tolist() == [2] and n_points.tolist() == [len(pts)]
    with pytest.raises(AssertionError, match="an orbit is incomplete"):
        orbit_counts(pts[1:], levels[1:], group.elements, 1)


@pytest.mark.parametrize("scale", [1, 2 ** 40, 2 ** 58])
def test_a_repeated_point_trips_the_kernel(scale):
    # the set is closed under G, but one point is listed twice
    group = KERNEL_GROUPS["hurwitz"]
    pts = _closure([(scale, 2 * scale, 0, 0)], group)
    pts = pts + pts[:1]
    with pytest.raises(AssertionError, match="a point is repeated"):
        orbit_counts(pts, np.zeros(len(pts), dtype=np.int64), group.elements, 1)


def test_an_image_outside_the_radices_is_not_read_as_a_point():
    # {+-1} is closed under -1 but not under i; read as codes of the points'
    # radices without their range check, i * (+-1) = +-i would alias them
    group = KERNEL_GROUPS["gauss"]
    with pytest.raises(AssertionError, match="an orbit is incomplete"):
        orbit_counts([(-1, 0), (1, 0)], [0, 0], group.elements, 1)
    assert [c.tolist() for c in orbit_counts(_closure([(1, 0)], group), [0] * 4, group.elements, 1)] == [[1], [4]]


def test_orbit_counts_of_no_points():
    group = KERNEL_GROUPS["model-quadric"]
    n_orbits, n_points = orbit_counts(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64),
                                      group.elements, 2)
    assert n_orbits.tolist() == n_points.tolist() == [0, 0]
