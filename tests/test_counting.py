import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcount.exact import gcd_vector
from orbitcount.lattice import box_scan, cone_section_points
from orbitcount.sections import quadric_section

from orbitcount.algebra import AlgebraSpec, change_of_basis, element, quadratic_field_order, quaternion_algebra
from orbitcount.counting import (
    _assert_free_action,
    CountSeries,
    ScenarioSpec,
    aggregate_levels,
    algebra_series,
    count_algebra_shell,
    count_normform_level,
    count_quadric_level,
    cumulative_at,
    imprimitive_from_primitive,
    normform_series,
    quadric_series,
    run_scenario,
)
from orbitcount.oracles import ideal_count_series, pairwise_orbits, r4_series, two_squares_primitive_series
from orbitcount.orders import OrderSpec, UnitGroupData, finite_units, norm_gram
from orbitcount.presets import (
    model_quadric_section,
    order_gauss,
    order_hurwitz,
    order_lipschitz,
    order_zsqrt2,
    PRESET_NAMES,
    preset_scenario,
)
from orbitcount.shells import ball_points
from orbitcount.symmetry import integral_symmetries


def split_algebra():
    """Q x Q with idempotent basis: the norm form is x1 * x2 (reducible)."""
    table = [
        [(1, 0), (0, 0)],
        [(0, 0), (0, 1)],
    ]
    return AlgebraSpec(dim=2, table=tuple(tuple(map(tuple, r)) for r in table),
                       unity=(1, 1), kind="number-field")


def test_normform_level_examples():
    assert count_normform_level(order_zsqrt2(), 1) == 1
    assert count_normform_level(order_gauss(), 5) == 2
    assert count_normform_level(order_gauss(), 3) == 0
    with pytest.raises(ValueError):
        count_normform_level(order_gauss(), 0)


def test_normform_level_matches_box_scan_orbits():
    zs2 = order_zsqrt2()
    for k in (1, 2, 7, 8, 14, -1, -7):
        box = [x for x in box_scan(zs2, abs(k), 30) if zs2.norm(x) == k]
        assert count_normform_level(zs2, k) == len(pairwise_orbits(box, zs2))


def test_normform_series_vs_ideal_oracle():
    assert normform_series(order_gauss(), 500).n_all.tolist() == ideal_count_series(-4, 500)
    assert normform_series(order_zsqrt2(), 500).n_all.tolist() == ideal_count_series(8, 500)


def test_normform_absolute_norm_variant():
    zs2 = order_zsqrt2()
    signed = normform_series(zs2, 60)
    absolute = normform_series(zs2, 60, use_absolute_norm=True)
    # the fundamental unit has norm -1, so |N| orbits match signed positive ones
    assert absolute.n_all.tolist() == signed.n_all.tolist()

    from orbitcount.algebra import quadratic_field_order

    zs3 = OrderSpec(quadratic_field_order(3), 2, 1)
    signed3 = normform_series(zs3, 40)
    absolute3 = normform_series(zs3, 40, use_absolute_norm=True)
    # norm +1 fundamental unit: negative-norm levels add extra classes
    assert any(a > s for a, s in zip(absolute3.n_all, signed3.n_all))
    # oracle at k = 2: x^2 - 3 y^2 = -2 has (1, 1); = +2 has none
    assert signed3.n_all[1] == 0
    assert absolute3.n_all[1] == 1


def test_quadric_level_examples():
    sec = model_quadric_section()
    assert count_quadric_level(sec, 5) == (2, Fraction(2))
    assert count_quadric_level(sec, 2) == (1, Fraction(1))
    assert count_quadric_level(sec, 3) == (0, Fraction(0))


def test_quadric_series_matches_levels_and_oracle():
    sec = model_quadric_section()
    series = quadric_series(sec, 200)
    for k in (1, 2, 3, 4, 5, 10, 50, 125, 200):
        c, w = count_quadric_level(sec, k)
        assert series.n_prim[k - 1] == c
        assert series.weighted[k - 1] == w
    # orbit sizes sum to the point count: 2 * weighted = two-squares oracle here
    assert (2 * series.weighted).tolist() == two_squares_primitive_series(200)


def test_algebra_shell_examples():
    assert count_algebra_shell(order_lipschitz(), 1) == 1
    assert count_algebra_shell(order_lipschitz(), 2) == 3   # r4(2) = 24, 8 units
    assert count_algebra_shell(order_hurwitz(), 2) == 1     # 24 / 24
    with pytest.raises(ValueError):
        count_algebra_shell(order_lipschitz(), 0)


def test_algebra_series_vs_jacobi():
    series = algebra_series(order_lipschitz(), 400)
    assert [8 * c for c in series.n_all] == r4_series(400)


def test_algebra_series_primitive_matches_direct():
    for order in (order_lipschitz(), order_hurwitz()):
        series = algebra_series(order, 60)
        for m in range(1, 61):
            assert series.n_prim[m - 1] == count_algebra_shell(order, m, primitive=True), m


def test_division_guard_rejects_split_norm_form(tmp_path, capsys):
    from orbitcount.cli import EXIT_VALIDATION, main

    split = OrderSpec(split_algebra(), norm_degree=2, unit_rank=0)
    with pytest.raises(ValueError):
        algebra_series(split, 10)
    # Q x Q as an algebra-norm config: its norm form x1 * x2 certifies nothing
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({"family": "algebra-norm", "algebra": json.loads(split_algebra().to_json()),
                               "norm_degree": 2, "unit_rank": 0, "r_max": 10}))
    assert main(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
    assert ("UNDETERMINED payload is a division order (no zero divisors) -- "
            "not probed: norm form not definite\n") in capsys.readouterr().out
    assert main(["count", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert not list(tmp_path.glob("*-counts.csv"))


@pytest.mark.parametrize("order", [order_lipschitz(), order_hurwitz()])
def test_free_action_check(order):
    units = finite_units(order)
    _assert_free_action(order, units)
    with pytest.raises(ValueError, match="unit action not free"):
        _assert_free_action(order, replace(units, torsion=units.torsion + units.torsion[:1]))
    two = element(tuple(2 * c for c in order.algebra.unity))
    with pytest.raises(AssertionError, match="does not preserve the shell"):
        _assert_free_action(order, replace(units, torsion=units.torsion + (two,)))


@pytest.mark.parametrize("order", [order_lipschitz(), order_hurwitz()])
def test_free_action_check_with_image_codes_past_int64(order):
    # a unit matrix of entries 10^5 makes the image codes (2 * 10^5 + 1)^4 > 2^63
    units = finite_units(order)
    big = element(tuple(10 ** 5 * c for c in order.algebra.unity))
    with pytest.raises(ValueError, match="unit action not free"):
        _assert_free_action(order, replace(units, torsion=units.torsion + units.torsion[:1] + (big,)))
    with pytest.raises(AssertionError, match="does not preserve the shell"):
        _assert_free_action(order, replace(units, torsion=units.torsion + (big,)))


def _primitive_reference(all_sizes, d):
    # the ascending subtraction sieve: all(m) = sum over f^d | m of prim(m / f^d)
    prim = [0] + list(all_sizes)
    for m in range(1, len(all_sizes) + 1):
        for f in range(2, len(all_sizes) + 1):
            if f ** d * m > len(all_sizes):
                break
            prim[f ** d * m] -= prim[m]
    return prim[1:]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=300),
       st.booleans())
def test_primitive_shell_sizes_matches_python_sieve(d, sizes, past_int64):
    from orbitcount.counting import _primitive_shell_sizes

    if past_int64:  # the sieve's int64 sums are bounded by max |size| * len < 2^63
        sizes = [c * 2 ** 60 for c in sizes]
        if max(map(abs, sizes), default=0) * len(sizes) >= 2 ** 63:
            with pytest.raises(ValueError, match="int64"):
                _primitive_shell_sizes(sizes, d)
            return
    got = _primitive_shell_sizes(sizes, d).tolist()
    assert got == _primitive_reference(sizes, d)
    assert all(type(c) is int for c in got)
    assert aggregate_levels(range(1, len(sizes) + 1), got, d, len(sizes))[1].tolist() == sizes


def test_free_action_check_rejects_split_norm_form():
    split = OrderSpec(split_algebra(), norm_degree=2, unit_rank=0)
    units = UnitGroupData(torsion=(element((1, 1)), element((-1, -1))), fundamental=())
    with pytest.raises(ValueError, match="not positive definite"):
        _assert_free_action(split, units)


def test_cumulative():
    series = normform_series(order_gauss(), 50)
    assert cumulative_at(series, [10, 50]) == [9, sum(series.n_all)]  # D = -4 ideal count at 10
    with pytest.raises(ValueError):
        cumulative_at(series, [51])
    empty = normform_series(order_gauss(), 0)
    assert empty.levels.tolist() == []


def test_cumulative_at_matches_per_radius_sums():
    series = imprimitive_from_primitive(quadric_series(model_quadric_section(), 300), 1)
    radii = [1, 2, 5, 30, 31, 100, 299, 300]
    for which in ("all", "prim", "weighted"):
        column = {"all": series.n_all, "prim": series.n_prim, "weighted": series.weighted}[which]
        expected = [sum((c for lv, c in zip(series.levels, column) if lv <= r), Fraction(0))
                    for r in radii]
        assert cumulative_at(series, radii, which) == expected
        assert [cumulative_at(series, [r], which)[0] for r in radii] == expected
    with pytest.raises(ValueError):
        cumulative_at(series, [5, 2])
    with pytest.raises(ValueError):
        cumulative_at(series, [5, 301])


def test_aggregate_synthetic_examples():
    # constant-one primitive series, d = 2: sum over p of floor(100 / p^2) = 153
    _, alln = aggregate_levels(list(range(1, 101)), [1] * 100, 2, 100)
    brute = sum(1 for k in range(1, 101) for p in range(1, 11) if k % (p * p) == 0)
    assert brute == 153
    assert sum(alln) == brute

    # d = 1 harmonic growth: S_all(r) = sum over p of floor(r/p) ~ r log r
    _, alln1 = aggregate_levels(list(range(1, 201)), [1] * 200, 1, 200)
    assert sum(alln1) == sum(200 // p for p in range(1, 201))

    # primitive support only at level 1, d = 3: all-levels support on cubes
    _, cubes = aggregate_levels([1], [1], 3, 30)
    assert [k for k, c in zip(range(1, 31), cubes) if c] == [1, 8, 27]


def test_imprimitive_identity_on_series():
    series = normform_series(order_gauss(), 300)
    rebuilt = imprimitive_from_primitive(series, 2)
    assert rebuilt.n_all.tolist() == series.n_all.tolist()
    z = normform_series(order_zsqrt2(), 300)
    assert imprimitive_from_primitive(z, 2).n_all.tolist() == z.n_all.tolist()


def test_quadric_identity_direct_vs_aggregated():
    sec = model_quadric_section()
    series = quadric_series(sec, 120)
    for k in range(1, 121):
        c, w = count_quadric_level(sec, k, primitive=False)
        assert series.n_all[k - 1] == c, k


def test_run_scenario_presets():
    for name, expected_family in (
        ("gauss", "normform"), ("zsqrt2", "normform"),
        ("model-quadric", "quadric"), ("lipschitz", "algebra-norm"),
        ("hurwitz", "algebra-norm"),
    ):
        sc = preset_scenario(name, 25)
        assert sc.family == expected_family
        series = run_scenario(sc)
        assert len(series.levels) == 25
        assert all(a >= b for a, b in zip(series.n_all, series.n_prim))


def test_preset_scenarios_written_out():
    h = Fraction(1, 2)
    hurwitz = OrderSpec(change_of_basis(quaternion_algebra(-1, -1),
                                        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (h, h, h, h)]),
                        norm_degree=2, unit_rank=0)
    expected = {
        "zsqrt2": ("normform", OrderSpec(quadratic_field_order(2), norm_degree=2, unit_rank=1),
                   {"class_number": 1, "minpoly": [-2, 0, 1], "oracle": ("ideal-count", 8)}),
        "gauss": ("normform", OrderSpec(quadratic_field_order(-1), norm_degree=2, unit_rank=0),
                  {"class_number": 1, "minpoly": [1, 0, 1], "oracle": ("ideal-count", -4)}),
        "model-quadric": ("quadric",
                          quadric_section([[0, 0, h], [0, -1, 0], [h, 0, 0]], (1, 0, 1),
                                          base_point=(0, 0, 1)),
                          {"oracle": ("two-squares-primitive", None)}),
        "lipschitz": ("algebra-norm",
                      OrderSpec(quaternion_algebra(-1, -1), norm_degree=2, unit_rank=0),
                      {"oracle": ("jacobi-r4", None)}),
        "hurwitz": ("algebra-norm", hurwitz, {"oracle": ("hurwitz-shell", None)}),
    }
    assert PRESET_NAMES == tuple(expected)
    for name, (family, payload, invariants) in expected.items():
        sc = preset_scenario(name, 30)
        assert (sc.family, sc.label, sc.invariants, sc.payload) == (family, name, invariants, payload)
        assert (sc.k_max, sc.use_absolute_norm) == (30, False)
    # each call hands out its own invariants dict
    preset_scenario("gauss", 5).invariants["oracle"] = "changed"
    assert preset_scenario("gauss", 5).invariants["oracle"] == ("ideal-count", -4)
    with pytest.raises(ValueError, match="unknown preset 'nope'"):
        preset_scenario("nope", 5)


def four_variable_section():
    """q = x1 x4 - x2^2 - x3^2 sliced by ell = x1 + x4 (definite on ker ell)."""
    h = Fraction(1, 2)
    return quadric_section(
        [[0, 0, 0, h], [0, -1, 0, 0], [0, 0, -1, 0], [h, 0, 0, 0]],
        (1, 0, 0, 1),
    )


def test_four_variable_quadric_section():
    sec = four_variable_section()
    # brute oracle for the level sets: x1 x4 = x2^2 + x3^2, x1 + x4 = k
    def brute(k):
        out = []
        for x1 in range(0, k + 1):
            x4 = k - x1
            target = x1 * x4
            b = 0
            while b * b <= target:
                c2 = target - b * b
                c = math.isqrt(c2)
                if c * c == c2:
                    for bb in {b, -b}:
                        for cc in {c, -c}:
                            v = (x1, bb, cc, x4)
                            if gcd_vector(v) == 1:
                                out.append(v)
                b += 1
        return sorted(set(out))

    for k in range(1, 40):
        assert cone_section_points(sec, k) == brute(k), k

    series = quadric_series(sec, 40)
    assert series.meta["route"] == "per-level"
    # growth exponent target for four variables is 2, and the zeta factor zeta(2)
    from orbitcount.fitting import growth_law

    sc = ScenarioSpec(family="quadric", payload=sec, k_max=40)
    assert growth_law(sc) == (2, 2)
    # aggregation identity, both routes exact
    for k in range(1, 41):
        direct, _ = count_quadric_level(sec, k, primitive=False)
        assert series.n_all[k - 1] == direct, k


def test_quadric_scaled_levels_match_unscaled():
    h = Fraction(1, 2)
    halved = quadric_section([[0, 0, h], [0, -1, 0], [h, 0, 0]], (h, 0, h))
    assert halved.scale_e == 2
    series = quadric_series(halved, 10)           # levels in (1/2) Z up to 10
    base = quadric_series(model_quadric_section(), 20)
    assert series.n_prim.tolist() == base.n_prim.tolist()  # scaled grid = integer grid of 2 ell
    assert series.weighted.tolist() == base.weighted.tolist()


def test_more_quadratic_fields_vs_ideal_oracle():
    from orbitcount.algebra import quadratic_field_order

    # norm +1 fundamental unit: ideals of norm m correspond to |N| = m classes
    zs3 = OrderSpec(quadratic_field_order(3), 2, 1)
    assert normform_series(zs3, 300, use_absolute_norm=True).n_all.tolist() == ideal_count_series(12, 300)
    # two-unit imaginary quadratic order
    zsm2 = OrderSpec(quadratic_field_order(-2), 2, 0)
    assert normform_series(zsm2, 300).n_all.tolist() == ideal_count_series(-8, 300)


def test_hurwitz_series_vs_jacobi_identity_at_scale():
    # Hurwitz shells of norm m are the squared-length-2m integer quadruples:
    # x^2 sums to 2m even forces an even coordinate sum, which is exactly the
    # rescaled Hurwitz lattice.  This gives a closed-form oracle independent
    # of the convolution route, usable at the same scale as the Lipschitz one.
    r = 10 ** 4
    series = algebra_series(order_hurwitz(), r)
    r4s = r4_series(2 * r)
    assert [24 * c for c in series.n_all] == [r4s[2 * m - 1] for m in range(1, r + 1)]


def real_quadratic(d):
    return OrderSpec(quadratic_field_order(d), norm_degree=2, unit_rank=1)


# Z[sqrt(d)] is the maximal order of class number one for these d = 2, 3 (mod 4)
CLASS_NUMBER_ONE = (2, 3, 6, 7, 11, 14, 19, 22, 23, 31, 38, 43, 46, 47, 59, 62, 67, 71, 83, 86, 94)


@pytest.mark.parametrize("d", CLASS_NUMBER_ONE)
def test_real_quadratic_absolute_norm_orbits_are_ideal_counts(d):
    series = normform_series(real_quadratic(d), 300, use_absolute_norm=True)
    assert series.n_all.tolist() == ideal_count_series(4 * d, 300)


def test_real_quadratic_large_regulator_to_r2000():
    # eps = 2143295 + 221064 sqrt(94): the domain scan covers about 2e7 values of b
    series = normform_series(real_quadratic(94), 2000, use_absolute_norm=True)
    assert series.n_all.tolist() == ideal_count_series(376, 2000)


@pytest.mark.parametrize("d", [151, 211])
def test_real_quadratic_int64_overflow_refused_up_front(d):
    t0 = time.time()
    with pytest.raises(ValueError, match="values of b"):
        normform_series(real_quadratic(d), 10, use_absolute_norm=True)
    assert time.time() - t0 < 1


def _aggregate_reference(prim_levels, prim_counts, d, k_max):
    """The per-level Python sieve that aggregate_levels replaced."""
    cmap = dict(zip(prim_levels, prim_counts))
    out = [0] * (k_max + 1)
    p = 1
    while p ** d <= k_max:
        q = p ** d
        for j in range(1, k_max // q + 1):
            c = cmap.get(j, 0)
            if c:
                out[j * q] += c
        p += 1
    return list(range(1, k_max + 1)), out[1:]


@st.composite
def primitive_columns(draw):
    k_max = draw(st.one_of(st.integers(0, 500), st.sampled_from([0, 1, 4, 9, 144, 361, 484])))
    levels = sorted(draw(st.sets(st.integers(-2, k_max + 3), max_size=60)))
    value = st.integers(-10 ** 6, 10 ** 6)
    return levels, [draw(value) for _ in levels], draw(st.sampled_from([1, 2, 3])), k_max


@settings(max_examples=200, deadline=None)
@given(primitive_columns())
def test_aggregate_levels_matches_python_sieve(args):
    levels, counts, d, k_max = args
    columns = aggregate_levels(levels, counts, d, k_max)
    assert _listed(columns) == _aggregate_reference(levels, counts, d, k_max)
    assert all(col.dtype == np.int64 for col in columns)


def test_aggregate_levels_past_int64_is_refused():
    # max |count| * len < 2^63 bounds every int64 sum: at the edge the sums
    # are exact, past it the counts are refused, as is a cell past int64
    levels = list(range(1, 42))
    top = (2 ** 63 - 1) // 41
    assert _listed(aggregate_levels(levels, [top] * 41, 1, 60)) == _aggregate_reference(levels, [top] * 41, 1, 60)
    with pytest.raises(ValueError, match="2\\^63"):
        aggregate_levels(levels, [top + 1] + [0] * 40, 1, 60)
    for counts in ([1, 2 ** 63], [1, Fraction(1, 3)]):
        with pytest.raises(ValueError, match="not an int64 integer"):
            aggregate_levels([1, 2], counts, 1, 8)


def _listed(columns):
    return tuple(col.tolist() for col in columns)


def test_quadric_series_weights_with_point_stabilizers():
    # the reflection y -> -y fixes the points with y = 0: those orbits have
    # |stab| = 2, so the orbit sizes |G| / |stab| differ from the orbit counts
    from orbitcount.symmetry import SymmetryGroup

    sec = quadric_section([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, 1))
    refl = SymmetryGroup(elements=(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, -1, 0), (0, 0, 1))),
                         order=2)
    # the subgroup stands in for the section's group (a cached property, so
    # an entry of the instance's dict overrides it)
    vars(sec)["symmetry_group"] = refl
    series = quadric_series(sec, 60)
    assert series.weighted.tolist() == [count_quadric_level(sec, k)[1] for k in range(1, 61)]
    assert (series.n_prim[0], series.weighted[0]) == (3, 2)


def test_count_series_checks():
    def series(levels, n_prim, n_all, weighted=None):
        return CountSeries(family="normform", levels=levels, n_prim=n_prim, n_all=n_all,
                           weighted=list(n_all) if weighted is None else weighted, scale_e=1)

    for levels, n_prim, n_all, message in (
        ([1, 1, 2], [0, 0, 0], [0, 0, 0], "strictly increasing"),
        ([2, 1], [0, 0], [0, 0], "strictly increasing"),
        ([-1, 2], [0, 0], [0, 0], "negative level"),
        ([1, 2], [0, -1], [0, 0], "negative count"),
        ([1, 2], [0, 0], [-2 ** 62, 0], "negative count"),
        ([1, 2], [0, 2 ** 62], [0, 2 ** 62 - 1], "exceeds"),
        ([1, 2], [0], [0, 0], "ragged"),
    ):
        with pytest.raises(ValueError, match=message):
            series(levels, n_prim, n_all)
    with pytest.raises(ValueError, match="negative weight"):
        series([1, 2], [0, 0], [1, 1], weighted=[1, -1])
    assert series([1, 2 ** 63 - 1], [0, 2 ** 62], [1, 2 ** 62]).n_all.tolist() == [1, 2 ** 62]


def test_cumulative_at_fractional_radii():
    series = CountSeries(family="quadric", levels=[1, 2, 3, 4, 5, 6], n_prim=[1] * 6, n_all=[1] * 6,
                         weighted=[3, 6, 12, 2, 24, 30], weight_den=6, scale_e=2)
    radii = [Fraction(1, 2), Fraction(5, 4), Fraction(7, 4), 2, Fraction(11, 4)]
    assert cumulative_at(series, radii, "weighted") == [Fraction(1, 2), Fraction(3, 2), Fraction(7, 2),
                                                        Fraction(23, 6), Fraction(47, 6)]
    assert cumulative_at(series, radii) == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# the definite driver beyond Gauss: free unit actions, counted


def eisenstein_order():
    """Z[omega] with omega^2 = -1 - omega: six units, class number one."""
    table = (((1, 0), (0, 1)), ((0, 1), (-1, -1)))
    return OrderSpec(AlgebraSpec(dim=2, table=table, unity=(1, 0), kind="number-field"), 2, 0)


def test_definite_series_eisenstein_vs_ideal_oracle():
    order = eisenstein_order()
    series = normform_series(order, 300)
    assert series.meta == {"units": 6}
    assert series.n_all.tolist() == ideal_count_series(-3, 300)


@pytest.mark.parametrize("d", [-5, -3, -6])  # h = 2; not maximal; h = 2
def test_definite_series_matches_the_reduction_reference(d):
    from orbitcount.orders import norm_gram
    from orbitcount.shells import definite_shell

    order = OrderSpec(quadratic_field_order(d), 2, 0)
    nu = len(finite_units(order).torsion)
    series = normform_series(order, 200)
    assert series.n_all.tolist() == [count_normform_level(order, k) for k in range(1, 201)]
    gram = norm_gram(order)
    assert series.n_prim.tolist() == [
        sum(1 for p in definite_shell(gram, k) if gcd_vector(p) == 1) // nu for k in range(1, 201)
    ]


# ---------------------------------------------------------------------------
# the shared quadric orbit-reduction tail


def sphere_section():
    """q = x^2 + y^2 + z^2 - w^2 sliced by ell = w: |G| = 24, with stabilizers."""
    return quadric_section([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], (0, 0, 0, 1))


def test_quadric_series_with_stabilizers_matches_the_partition_reference():
    sec = sphere_section()
    group = integral_symmetries(sec)
    assert group.order == 24
    series = quadric_series(sec, 30)
    assert series.meta["route"] == "per-level"
    ref = [count_quadric_level(sec, k) for k in range(1, 31)]
    assert series.n_prim.tolist() == [n for n, _ in ref]
    assert [Fraction(w, series.weight_den) for w in series.weighted.tolist()] == [w for _, w in ref]
    # some stabilizer is nontrivial: the level-1 weight is 1/4
    assert Fraction(int(series.weighted[0]), series.weight_den) == Fraction(1, 4)
    # the weights are in lowest terms, over a divisor of |G|
    assert group.order % series.weight_den == 0
    assert math.gcd(series.weight_den, *series.weighted.tolist()) == 1


def _r3_of_square(k):
    """r_3(k^2) = 6 prod over odd p^a || k of (sigma(p^a) - (-1/p) sigma(p^(a-1)))
    (Hurwitz), by trial division, with no lattice enumeration."""
    out, p = 6, 3
    while k % 2 == 0:
        k //= 2
    while k > 1:
        if p * p > k:
            p = k
        a = 0
        while k % p == 0:
            k, a = k // p, a + 1
        if a:
            legendre = 1 if p % 4 == 1 else -1  # (-1/p)
            out *= (p ** (a + 1) - 1) // (p - 1) - legendre * (p ** a - 1) // (p - 1)
        p += 2
    return out


def test_sphere_section_points_match_the_three_squares_oracle():
    # the primitive (x, y, z, k) with x^2 + y^2 + z^2 = k^2 number
    # sum over d | k of mu(d) r_3(k^2 / d^2), and level k holds them all
    sec = sphere_section()
    group = integral_symmetries(sec)
    series = quadric_series(sec, 100)
    points = [w * group.order // series.weight_den for w in series.weighted.tolist()]

    def mobius(d):
        sign, p = 1, 2
        while p * p <= d:
            if d % (p * p) == 0:
                return 0
            if d % p == 0:
                d, sign = d // p, -sign
            p += 1
        return -sign if d > 1 else sign

    assert points == [sum(mobius(d) * _r3_of_square(k // d) for d in range(1, k + 1) if k % d == 0)
                      for k in range(1, 101)]
    wide = quadric_series(sec, 150)
    assert int(wide.n_prim.sum()) == 1538
    assert Fraction(int(wide.weighted.sum()), wide.weight_den) == Fraction(6149, 4)


def _columns(series):
    return series.n_prim.tolist(), series.n_all.tolist(), series.weighted.tolist()


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 12), st.integers(1, 300))
def test_quadric_series_invariant_under_unimodular_change_model(rng, steps, r):
    from orbitcount.exact import random_unimodular
    from orbitcount.symmetry import transformed_section

    sec = model_quadric_section()
    moved = transformed_section(sec, random_unimodular(3, rng, steps=steps))
    assert _columns(quadric_series(moved, r)) == _columns(quadric_series(sec, r))


@settings(max_examples=8, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 12), st.integers(1, 15))
def test_quadric_series_invariant_under_unimodular_change_four_variables(rng, steps, r):
    from orbitcount.exact import random_unimodular
    from orbitcount.symmetry import transformed_section

    sec = four_variable_section()
    moved = transformed_section(sec, random_unimodular(4, rng, steps=steps))
    assert _columns(quadric_series(moved, r)) == _columns(quadric_series(sec, r))


def _over_lcm_reference(nums, dens):
    """(numerators, L) of the fractions nums / dens over the lcm L of dens,
    in Python ints."""
    den = math.lcm(*dens)
    return [n * (den // d) for n, d in zip(nums, dens)], den


@st.composite
def weight_cells(draw):
    # numerators small or near the int64 edge over small denominators; in half
    # the draws with sign, down to -2^63, which must be refused before rescaling
    n = draw(st.integers(1, 40))
    low = -(2 ** 63) if draw(st.booleans()) else 0
    num = st.one_of(st.integers(max(low, -9), 9), st.integers(2 ** 62, 2 ** 63 - 1),
                    st.integers(low, max(low, -(2 ** 62))))
    return (draw(st.lists(num, min_size=n, max_size=n)),
            draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)))


def _common(nums, dens):
    from orbitcount.counting import _common_denominator

    return _common_denominator(np.array(nums, dtype=np.int64), np.array(dens, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(weight_cells())
def test_numerators_match_the_lcm_route(cells):
    ref, ref_den = _over_lcm_reference(*cells)
    if min(cells[0]) < 0:
        with pytest.raises(ValueError, match="negative weight"):
            _common(*cells)
        return
    if max(ref) >= 2 ** 63:
        with pytest.raises(ValueError, match="past int64"):
            _common(*cells)
        return
    nums, den = _common(*cells)
    assert den == ref_den and nums.dtype == np.int64 and nums.tolist() == ref


def test_numerators_int64_route_edge():
    nums, den = _common([2, 1, 5, 0], [4, 3, 6, 7])  # over lcm(4, 3, 6, 7) = 84
    assert den == 84 and nums.tolist() == [42, 28, 70, 0]
    # the series reduces the pair: 2/4, 1/3, 5/6 and 0 are 3, 2, 5 and 0 over 6
    series = CountSeries(family="quadric", levels=[1, 2, 3, 4], n_prim=[0] * 4, n_all=[0] * 4,
                         weighted=nums, weight_den=den, scale_e=1)
    assert (series.weighted.tolist(), series.weight_den) == ([3, 2, 5, 0], 6)
    top = (2 ** 63 - 1) // 6
    nums, den = _common([top, 1], [1, 6])
    assert den == 6 and nums.tolist() == [6 * top, 1]
    with pytest.raises(ValueError, match="past int64"):
        _common([top + 1, 1], [1, 6])
    nums, den = _common([2 ** 63 - 1, 0], [1, 1])
    assert den == 1 and nums.tolist() == [2 ** 63 - 1, 0]
    with pytest.raises(ValueError, match="2\\^63"):  # the lcm of the denominators passes int64
        _common([0, 0], [2 ** 40 + 15, 2 ** 40 + 21])


def test_definite_series_builds_the_norm_gram_once(monkeypatch):
    # once per payload object: the first series on a fresh order builds the
    # Gram matrix, a second series on the same order builds none
    from orbitcount import counting, orders

    calls = []
    original = orders.norm_gram

    def counting_gram(order):
        calls.append(order)
        return original(order)

    monkeypatch.setattr(orders, "norm_gram", counting_gram)
    for order in (order_gauss(), order_lipschitz(), order_hurwitz()):
        calls.clear()
        series = counting._definite_series(order, 50, counting.FAMILY_ALGEBRA)
        assert len(calls) == 1 and sum(series.n_all) > 0
        assert counting._definite_series(order, 50, counting.FAMILY_ALGEBRA) == series
        assert len(calls) == 1


@pytest.mark.parametrize("route", ["int64", "object"])
def test_count_series_refusals_on_both_column_routes(route):
    # int64 columns are checked cell by cell; an object column, numpy's form
    # for Python ints past int64 and Fractions, is refused whatever it holds
    dtype = np.int64 if route == "int64" else object

    def refused(message):
        return message if route == "int64" else "reads as object"

    def series(levels, n_prim, n_all, weighted=None):
        cols = [np.array(c, dtype=dtype) for c in (levels, n_prim, n_all)]
        return CountSeries(family="normform", levels=cols[0], n_prim=cols[1], n_all=cols[2],
                           weighted=cols[2] if weighted is None else weighted, scale_e=1)

    for levels, n_prim, n_all, message in (
        ([1, 1, 2], [0, 0, 0], [0, 0, 0], "strictly increasing"),
        ([2, 1], [0, 0], [0, 0], "strictly increasing"),
        ([1, 2], [0, -1], [0, 0], "negative"),
        ([1, 2], [0, 0], [-1, 0], "negative"),
        ([1, 2], [0, 2], [0, 1], "exceeds"),
        ([1, 2], [0], [0, 0], "ragged"),
    ):
        with pytest.raises(ValueError, match=refused(message)):
            series(levels, n_prim, n_all)
    with pytest.raises(ValueError, match=refused("ragged")):
        series([1, 2], [0, 0], [0, 0], weighted=np.zeros(3, dtype=dtype))
    with pytest.raises(ValueError, match=refused("one-dimensional")):
        series([1, 2], [0, 0], [0, 0], weighted=np.zeros((2, 1), dtype=dtype))
    if route == "object":
        with pytest.raises(ValueError, match=refused("")):
            series([1, 2], [0, 1], [1, 1])
        return
    ok = series([1, 2], [0, 1], [1, 1])
    assert all(c.dtype == np.int64 for c in (ok.levels, ok.n_prim, ok.n_all, ok.weighted))


def test_count_series_cells_are_read_exactly():
    def series(**cols):
        base = dict(levels=[1, 2], n_prim=[0, 0], n_all=[1, 1], weighted=[1, 1])
        base.update(cols)
        return CountSeries(family="quadric", scale_e=1, **base)

    # a cell past int64, a float or a Fraction is refused, never truncated:
    # numpy reads [1, 2**63] as float64, [2**63 - 1, 2**63] as uint64 and
    # [1, 2**64] or a Fraction as object, and it would cast 1.5 to int64 as 1
    for cells in ([1, 2 ** 63], [2 ** 63 - 1, 2 ** 63], [1, 2 ** 64], [1, 1.5], [1.0, 2.0],
                  [1, Fraction(3, 2)], [1, Fraction(4, 2)], np.array([1, 2], dtype=np.uint64)):
        for name in ("levels", "n_prim", "n_all", "weighted"):
            with pytest.raises(ValueError, match="not an int64 integer"):
                series(**{name: cells})
    assert series(levels=np.array([1, 2], dtype=np.int32)).levels.dtype == np.int64
    assert series(weighted=[np.int64(4), 5]).weighted.dtype == np.int64
    # a weight that is not an integer is a numerator over weight_den, in lowest terms
    halves = series(weighted=[3, 4], weight_den=2)
    assert (halves.weighted.tolist(), halves.weight_den) == ([3, 4], 2)
    thirds = series(weighted=[2, 4], weight_den=6)
    assert (thirds.weighted.tolist(), thirds.weight_den) == ([1, 2], 3)
    for den in (0, -2, 2 ** 63, Fraction(1, 2), 1.0):
        with pytest.raises(ValueError, match="weight_den"):
            series(weight_den=den)
    empty = CountSeries(family="quadric", levels=[], n_prim=[], n_all=[], weighted=[], scale_e=1, weight_den=4)
    assert all(c.dtype == np.int64 for c in (empty.levels, empty.n_prim, empty.n_all, empty.weighted))
    assert empty.weight_den == 1


def test_count_series_keeps_int64_arrays_without_copy():
    cols = [np.arange(1, 6, dtype=np.int64), np.zeros(5, dtype=np.int64), np.arange(5, dtype=np.int64)]
    series = CountSeries(family="normform", levels=cols[0], n_prim=cols[1], n_all=cols[2],
                         weighted=cols[2], scale_e=1, weight_den=7)
    assert series.levels is cols[0] and series.n_prim is cols[1] and series.n_all is cols[2]
    assert series.weighted is cols[2] and series.weight_den == 7
    # a list of numpy ints, as a perturbed copy passes through dataclasses.replace
    n_all = list(series.n_all)
    n_all[-1] += 1
    bumped = replace(series, n_all=n_all)
    assert bumped.n_all.dtype == np.int64 and bumped.n_all.tolist() == [0, 1, 2, 3, 5]
    assert bumped.levels is cols[0] and bumped.weighted is cols[2]
    # the producers hand over their arrays: nothing is copied into a list
    counted = normform_series(order_gauss(), 50)
    assert counted.weighted is counted.n_all and counted.levels.dtype == np.int64
    assert imprimitive_from_primitive(counted, 2).n_prim is counted.n_prim


def test_count_series_equality_compares_columns():
    series = normform_series(order_gauss(), 50)
    same = replace(series, levels=series.levels.tolist(), n_all=list(series.n_all))
    assert series == same and not (series != same)
    bumped = series.n_all.copy()
    bumped[-1] += 1
    assert series != replace(series, n_all=bumped)
    assert series != replace(series, scale_e=2, levels=2 * series.levels)
    # meta records how a series was made, not what it counts
    assert series == replace(series, meta={})
    # weights compare as rationals: 2w / 2 is reduced to w / 1
    doubled = replace(series, weighted=2 * series.weighted, weight_den=2)
    assert doubled == series and doubled.weight_den == 1
    assert series != replace(series, weight_den=2)
    assert series != "not a series"


def test_definite_series_enumerates_one_ball(monkeypatch):
    from orbitcount import counting, orders

    calls = []
    original = orders.ball_points

    def counting_ball(gram, r):
        calls.append(r)
        return original(gram, r)

    monkeypatch.setattr(orders, "ball_points", counting_ball)
    for order in (order_gauss(), order_lipschitz(), order_hurwitz()):
        # once per payload object: a second series on the same order enumerates none
        calls.clear()
        series = counting._definite_series(order, 40, counting.FAMILY_ALGEBRA)
        assert calls == [3] and series.meta["units"] == len(finite_units(order).torsion)
        assert counting._definite_series(order, 40, counting.FAMILY_ALGEBRA) == series
        assert calls == [3]
