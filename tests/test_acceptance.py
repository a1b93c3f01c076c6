"""Acceptance suite: one test per numbered criterion, each enforcing its
stated tolerance and printing a pass line with the measured values.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time

import pytest

from orbitcount.algebra import alg_norm, element
from orbitcount.counting import (
    aggregate_levels,
    algebra_series,
    cumulative,
    imprimitive_from_primitive,
    normform_series,
    quadric_all_points_level,
    quadric_series,
)
from orbitcount.exact import random_unimodular
from orbitcount.fitting import fit_power, predicted_constant_ideal, zeta_correction
from orbitcount.lattice import cone_section_points, indefinite_quadratic_shell
from orbitcount.oracles import (
    ideal_count_series,
    pairwise_orbits,
    r4_series,
    two_squares_primitive,
)
from orbitcount.orders import canonical_rep, finite_units, fundamental_unit, norm_gram
from orbitcount.presets import (
    model_quadric_section,
    order_gauss,
    order_hurwitz,
    order_lipschitz,
    order_zsqrt2,
)
from orbitcount.shells import ball_points, definite_shell
from orbitcount.symmetry import integral_symmetries, orbit_partition, weighted_count

R_SMALL = 10 ** 4
R_BIG = 10 ** 5


@pytest.fixture(scope="module")
def gauss_big():
    t0 = time.time()
    series = normform_series(order_gauss(), R_BIG)
    return series, time.time() - t0


@pytest.fixture(scope="module")
def zsqrt2_big():
    t0 = time.time()
    series = normform_series(order_zsqrt2(), R_BIG)
    return series, time.time() - t0


@pytest.fixture(scope="module")
def quadric_big():
    sec = model_quadric_section()
    group = integral_symmetries(sec)
    t0 = time.time()
    series = quadric_series(sec, R_BIG, group)
    return sec, group, series, time.time() - t0


@pytest.fixture(scope="module")
def lipschitz_small():
    t0 = time.time()
    series = algebra_series(order_lipschitz(), R_SMALL)
    return series, time.time() - t0


def cumsum(xs):
    out = []
    acc = 0
    for x in xs:
        acc += x
        out.append(acc)
    return out


def test_criterion_1_gauss_oracle_equality():
    t0 = time.time()
    series = normform_series(order_gauss(), R_SMALL)
    oracle = ideal_count_series(-4, R_SMALL)
    pipeline_cum = cumsum(series.n_all)
    oracle_cum = cumsum(oracle)
    elapsed = time.time() - t0
    assert pipeline_cum == oracle_cum
    assert pipeline_cum[9] == 9  # spot value s = 10
    assert elapsed < 60
    print(f"\n[criterion 1] PASS gauss cumulative == ideal counts for all s <= 1e4 "
          f"(spot S(10) = 9) in {elapsed:.1f}s")


def test_criterion_2_zsqrt2_oracle_equality():
    t0 = time.time()
    series = normform_series(order_zsqrt2(), R_SMALL)
    oracle = ideal_count_series(8, R_SMALL)
    elapsed = time.time() - t0
    assert cumsum(series.n_all) == cumsum(oracle)
    assert elapsed < 120
    print(f"\n[criterion 2] PASS zsqrt2 cumulative == ideal counts for all s <= 1e4 "
          f"in {elapsed:.1f}s")


def test_criterion_3_ideal_constant_fit(gauss_big, zsqrt2_big):
    zs, zt = zsqrt2_big
    gs, gt = gauss_big
    t0 = time.time()
    rep_z = fit_power(zs, window=(R_BIG / 10, R_BIG), fixed_lambda=1)
    rep_g = fit_power(gs, window=(R_BIG / 10, R_BIG), fixed_lambda=1)
    predicted_z = predicted_constant_ideal(2, 0, math.log(1 + math.sqrt(2)), 1, 2, 8)
    predicted_g = predicted_constant_ideal(0, 1, 1.0, 1, 4, -4)
    elapsed = zt + gt + (time.time() - t0)
    assert abs(predicted_z - math.log(1 + math.sqrt(2)) / math.sqrt(2)) < 1e-12
    assert abs(predicted_g - math.pi / 4) < 1e-12
    assert abs(rep_z.c_hat - predicted_z) / predicted_z < 0.02
    assert abs(rep_g.c_hat - predicted_g) / predicted_g < 0.02
    assert elapsed < 600
    print(f"\n[criterion 3] PASS fixed-lambda=1 constants at r=1e5: "
          f"zsqrt2 {rep_z.c_hat:.5f} vs {predicted_z:.5f}, "
          f"gauss {rep_g.c_hat:.5f} vs {predicted_g:.5f} (both within 2%) in {elapsed:.1f}s")


def test_criterion_4_quadric_exponent_and_oracle(quadric_big):
    sec, group, series, t_series = quadric_big
    t0 = time.time()
    rep = fit_power(series, window=(10 ** 3, R_BIG), which="weighted")
    assert 0.9 <= rep.lambda_hat <= 1.1
    # per-level dual route: fiber enumeration vs the two-squares scan
    for k in range(1, R_SMALL + 1):
        assert len(cone_section_points(sec, k)) == two_squares_primitive(k), k
    elapsed = t_series + (time.time() - t0)
    assert elapsed < 300
    print(f"\n[criterion 4] PASS quadric free-fit lambda = {rep.lambda_hat:.4f} in [0.9, 1.1] "
          f"(expected n-2 = 1); per-level counts == two-squares oracle for k <= 1e4 "
          f"in {elapsed:.1f}s")


def test_criterion_5_lipschitz_jacobi_and_fit(lipschitz_small):
    series, t_series = lipschitz_small
    t0 = time.time()
    jac_cum = cumsum(r4_series(R_SMALL))
    pipe_cum = cumsum([8 * c for c in series.n_all])
    assert pipe_cum == jac_cum
    rep_fixed = fit_power(series, window=(R_SMALL / 10, R_SMALL), fixed_lambda=2)
    rep_free = fit_power(series, window=(R_SMALL / 10, R_SMALL))
    predicted = math.pi ** 2 / 16
    assert abs(rep_fixed.c_hat - predicted) / predicted < 0.02
    assert 1.95 <= rep_free.lambda_hat <= 2.05
    elapsed = t_series + (time.time() - t0)
    assert elapsed < 300
    print(f"\n[criterion 5] PASS lipschitz 8*S(r) == Jacobi for all r <= 1e4; "
          f"fixed-lambda=2 constant {rep_fixed.c_hat:.5f} vs pi^2/16 = {predicted:.5f}; "
          f"free lambda = {rep_free.lambda_hat:.4f} in {elapsed:.1f}s")


def test_criterion_6_zeta_aggregation(lipschitz_small, quadric_big):
    series, t_series = lipschitz_small
    t0 = time.time()
    s_all = sum(series.n_all)
    s_prim = sum(series.n_prim)
    ratio = s_all / s_prim
    z4 = zeta_correction(4)
    assert abs(ratio - z4) / z4 < 0.02

    _, _, qseries, t_q = quadric_big
    full = imprimitive_from_primitive(qseries, 1)
    ratios = []
    for r in (10 ** 3, 10 ** 4, 10 ** 5):
        s = float(cumulative(full, r, "weighted"))
        ratios.append(s / (r * math.log(r)))
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
    assert spread < 0.15
    elapsed = t_series + t_q + (time.time() - t0)
    assert elapsed < 600
    print(f"\n[criterion 6] PASS lipschitz S_all/S_prim = {ratio:.5f} vs zeta(4) = {z4:.5f} "
          f"(within 2%); quadric S_all/(r log r) = "
          f"{', '.join(f'{x:.4f}' for x in ratios)} (spread {100 * spread:.1f}% < 15%) "
          f"in {elapsed:.1f}s")


def test_criterion_7_identity_suite():
    t0 = time.time()
    k_id = 500

    # (a) N_all(k) = sum_p N_prim(k / p^d), level by level, both sides computed
    # independently (direct enumeration vs sieve aggregation)
    for order, disc_label in ((order_gauss(), "gauss"), (order_zsqrt2(), "zsqrt2")):
        series = normform_series(order, k_id)
        _, agg = aggregate_levels(series.levels, series.n_prim, 2, k_id)
        assert series.n_all.tolist() == agg.tolist(), disc_label

    sec = model_quadric_section()
    group = integral_symmetries(sec)
    qseries = quadric_series(sec, k_id, group)
    for k in range(1, k_id + 1):
        direct, _ = quadric_all_points_level(sec, k, group)
        assert qseries.n_all[k - 1] == direct, k

    for order, nu in ((order_lipschitz(), 8), (order_hurwitz(), 24)):
        series = algebra_series(order, k_id)
        pts, vals2, s = ball_points(norm_gram(order), k_id)
        import numpy as np

        levels = (vals2 // (2 * s)).astype(int)
        gcds = np.gcd.reduce(np.abs(pts), axis=1)
        prim_direct = [0] * (k_id + 1)
        all_direct = [0] * (k_id + 1)
        for lv, g in zip(levels.tolist(), gcds.tolist()):
            all_direct[lv] += 1
            if g == 1:
                prim_direct[lv] += 1
        assert all(c % nu == 0 for c in all_direct[1:])
        assert [c // nu for c in prim_direct[1:]] == series.n_prim.tolist()
        _, agg = aggregate_levels(list(range(1, k_id + 1)),
                                  [c // nu for c in prim_direct[1:]], 2, k_id)
        assert agg.tolist() == series.n_all.tolist()

    # (b) associated is an equivalence relation compatible with |norm|
    rng = random.Random(0xACCE)
    for order in (order_gauss(), order_zsqrt2()):
        from orbitcount.lattice import box_scan

        pool = []
        for k in range(1, 12):
            pool.extend(box_scan(order, k, 5))
        sample = rng.sample(pool, min(40, len(pool)))
        from orbitcount.orders import associated

        for _ in range(300):
            x, y, z = rng.choice(sample), rng.choice(sample), rng.choice(sample)
            assert associated(x, x, order)
            assert associated(x, y, order) == associated(y, x, order)
            if associated(x, y, order) and associated(y, z, order):
                assert associated(x, z, order)

    # (c) canonical_rep partitions == pairwise union-find partitions, levels <= 200
    gauss = order_gauss()
    ug = finite_units(gauss)
    for k in range(1, 201):
        shell = [element(tuple(v)) for v in definite_shell(norm_gram(gauss), k)]
        if not shell:
            continue
        by_canon = {}
        for x in shell:
            by_canon.setdefault(canonical_rep(x, ug, gauss).coords, set()).add(x.coords)
        oracle = {frozenset(e.coords for e in cls) for cls in pairwise_orbits(shell, gauss)}
        assert {frozenset(v) for v in by_canon.values()} == oracle, k

    zs2 = order_zsqrt2()
    fu = fundamental_unit(zs2)
    from orbitcount.lattice import box_scan

    for k in range(1, 201):
        reps = indefinite_quadratic_shell(zs2, k)
        box = [x for x in box_scan(zs2, k, 20) if alg_norm(x, zs2.algebra) == k]
        if box:
            oracle = pairwise_orbits(box, zs2)
            assert len(reps) == len(oracle), k
            for x in box:
                assert canonical_rep(x, fu, zs2) in reps, k
        else:
            # the balanced window is exhaustive: no box point means no orbit
            # with a representative this small; verify window emptiness agrees
            assert all(abs(c) > 20 for r in reps for c in r.coords) or reps == [], k

    # (d) GL_3(Z)-equivariance of quadric counts under 20 random transforms
    from orbitcount.symmetry import transformed_section

    rng2 = random.Random(0xE9)
    for _ in range(20):
        u = random_unimodular(3, rng2)
        sec2 = transformed_section(sec, u)
        g2 = integral_symmetries(sec2)
        assert g2.order == group.order
        for k in range(1, 101):
            p1 = cone_section_points(sec, k)
            p2 = cone_section_points(sec2, k)
            assert len(p1) == len(p2), k
            r1 = orbit_partition(p1, group, level=k)
            r2 = orbit_partition(p2, g2, level=k)
            assert len(r1.orbits) == len(r2.orbits), k
            assert weighted_count(r1) == weighted_count(r2), k

    elapsed = time.time() - t0
    print(f"\n[criterion 7] PASS identity suite (aggregation level-by-level <= 500 on all "
          f"presets, equivalence-relation checks, canonical vs pairwise <= 200, "
          f"20 unimodular equivariance transforms <= 100), all exact, in {elapsed:.1f}s")


def test_criterion_8_exclusions_documented():
    """Ineffective quantities are excluded by design: no effective error
    exponent is claimed (only an empirical residual slope, labelled as such),
    the absolute weighted constant for sections is only recorded from fits,
    and no equidistribution rates are measured.  The property suites above
    stand in for them."""
    from orbitcount.fitting import FitReport

    rep = FitReport(c_hat=1.0, lambda_hat=1.0, residual_rms=0.0, window=(1, 2))
    assert "empirical" in rep.delta_note
    print("\n[criterion 8] PASS exclusions documented: error exponent reported only as an "
          "empirical residual slope; absolute section constant recorded from fits only; "
          "no equidistribution rates claimed")
