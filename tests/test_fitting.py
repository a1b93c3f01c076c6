import math

import pytest

from orbitcount.algebra import quadratic_field_order
from orbitcount.counting import CountSeries, FAMILY_ALGEBRA, FAMILY_NORMFORM, ScenarioSpec
from orbitcount.fitting import (
    fit_power,
    fit_rlogr,
    geometric_radii,
    growth_law,
    predicted_constant_ideal,
    sample_cumulative,
    zeta_correction,
)
from orbitcount.orders import OrderSpec
from orbitcount.presets import preset_scenario


def synthetic_series(values):
    n = len(values)
    return CountSeries(
        family=FAMILY_NORMFORM, levels=list(range(1, n + 1)),
        n_prim=list(values), n_all=list(values),
        weighted=list(values), scale_e=1,
    )


def series_with_cumulative(f, n):
    """Per-level counts whose cumulative is floor(f(r))."""
    vals = []
    prev = 0
    for r in range(1, n + 1):
        cur = math.floor(f(r))
        vals.append(cur - prev)
        prev = cur
    return synthetic_series(vals)


def test_expected_lambda_per_family():
    # (lambda, s): dim / norm_degree and dim for an order, n - 2 twice for a section
    assert growth_law(preset_scenario("zsqrt2", 10)) == (1, 2)
    assert growth_law(preset_scenario("model-quadric", 10)) == (1, 1)  # n = 3
    assert growth_law(preset_scenario("lipschitz", 10)) == (2, 4)
    assert growth_law(preset_scenario("hurwitz", 10)) == (2, 4)
    zi = OrderSpec(quadratic_field_order(-1), norm_degree=2, unit_rank=0)
    assert growth_law(ScenarioSpec(family=FAMILY_ALGEBRA, payload=zi, k_max=10)) == (1, 2)


def test_fit_power_exact_law():
    # exact power law (no rounding): parameters recovered to 1e-10 relative
    series = series_with_cumulative(lambda r: 3 * r * r, 4000)
    rep = fit_power(series, window=(400, 4000))
    assert abs(rep.lambda_hat - 2) / 2 < 1e-10
    assert abs(rep.c_hat - 3) / 3 < 1e-10
    assert rep.residual_rms < 1e-12
    series_pow = series_with_cumulative(lambda r: r ** 3, 2000)
    rep3 = fit_power(series_pow, window=(200, 2000))
    assert abs(rep3.lambda_hat - 3) / 3 < 1e-10
    assert rep3.residual_rms < 1e-12


def test_fit_power_noise_stays_near_one():
    # S(r) = c r + bounded noise: free exponent lands in [0.95, 1.05]
    import random

    rng = random.Random(11)
    vals = [7 + rng.randint(-3, 3) for _ in range(5000)]
    series = synthetic_series(vals)
    rep = fit_power(series, window=(500, 5000))
    assert 0.95 <= rep.lambda_hat <= 1.05


def test_fit_power_fixed_lambda():
    series = series_with_cumulative(lambda r: 5 * r, 3000)
    rep = fit_power(series, window=(300, 3000), fixed_lambda=1)
    assert abs(rep.c_hat - 5) / 5 < 1e-10
    assert rep.lambda_hat == 1.0


def test_fit_power_rescale_invariance_of_exponent():
    # sampling S(alpha r) leaves the exponent fixed and scales the constant
    # by alpha^lambda
    series = series_with_cumulative(lambda r: 2 * r ** 2, 4000)
    scaled = series_with_cumulative(lambda r: 2 * (3 * r) ** 2, 4000)
    a = fit_power(series, window=(400, 4000))
    b = fit_power(scaled, window=(400, 4000))
    assert abs(a.lambda_hat - b.lambda_hat) < 1e-9
    assert abs(b.c_hat - a.c_hat * 3 ** 2) < 1e-7


@pytest.mark.parametrize("scale_e, window", [(1, None), (1, (300, 3000)), (3, None), (3, (250.5, 999.5))])
def test_fits_sharing_one_sample_equal_their_own(scale_e, window):
    # the free and the fixed fit of one series read one sample_cumulative;
    # integer radii are scaled in integers, and a float window alike
    base = series_with_cumulative(lambda r: 2 * r ** 2 + 7 * r, 3000)
    series = CountSeries(family=FAMILY_NORMFORM, levels=base.levels, n_prim=base.n_prim,
                         n_all=base.n_all, weighted=base.weighted, scale_e=scale_e)
    sampled = sample_cumulative(series, window)
    assert len(sampled[1]) == 16
    for lam in (None, 2):
        own = fit_power(series, window, lam)
        assert own.sampled == sampled
        assert fit_power(series, fixed_lambda=lam, sampled=sampled).to_json() == own.to_json()


def test_fit_power_zero_series_errors():
    series = synthetic_series([0] * 100)
    with pytest.raises(ValueError):
        fit_power(series, window=(10, 100))


def test_fit_power_needs_enough_samples():
    series = synthetic_series([1] * 20)
    with pytest.raises(ValueError):
        fit_power(series, window=(18, 20), samples=4)


def test_fit_rlogr():
    series = series_with_cumulative(lambda r: 2 * r * math.log(r), 5000)
    rep = fit_rlogr(series, window=(500, 5000))
    assert abs(rep["c_hat"] - 2) < 0.01
    assert rep["spread"] < 0.01
    with pytest.raises(ValueError):
        fit_rlogr(series, window=(1, 100))
    const = synthetic_series([1] + [0] * 4000)
    flat = fit_rlogr(const, window=(400, 4000))
    assert flat["c_hat"] < 0.001  # constant series: ratio tends to zero


def test_predicted_constant_examples():
    assert abs(predicted_constant_ideal(0, 1, 1.0, 1, 4, -4) - math.pi / 4) < 1e-12
    reg = math.log(1 + math.sqrt(2))
    assert abs(predicted_constant_ideal(2, 0, reg, 1, 2, 8) - 0.6232252401402305) < 1e-9
    with pytest.raises(ValueError):
        predicted_constant_ideal(1, 1, 1.0, 1, 2, 8, degree=2)  # r1 + 2 r2 = 3 != 2
    with pytest.raises(ValueError):
        predicted_constant_ideal(-1, 1, 1.0, 1, 2, 8)
    with pytest.raises(ValueError):
        predicted_constant_ideal(2, 0, reg, 1, 2, 0)


def test_zeta_correction():
    assert abs(zeta_correction(2) - math.pi ** 2 / 6) < 1e-8
    assert abs(zeta_correction(4) - math.pi ** 4 / 90) < 1e-8
    with pytest.raises(ValueError):
        zeta_correction(1)


def test_geometric_radii():
    rs = geometric_radii(100, 10000, 16)
    assert rs[0] >= 100 and rs[-1] == 10000
    assert len(rs) >= 12
    with pytest.raises(ValueError):
        geometric_radii(100, 50)
