"""Asymptotic-law fitting and predicted constants.

This is the only module that works in floating point: series arrive as exact
counts and are converted at the boundary.  Fits are least squares on
(log r, log S(r)) over a geometric sample grid.
"""

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .counting import FAMILY_ALGEBRA, FAMILY_NORMFORM, FAMILY_QUADRIC, cumulative_at
from .exact import frac_str
from .numtheory import zeta_midpoint


@dataclass
class FitReport:
    c_hat: float
    lambda_hat: float
    residual_rms: float
    window: tuple
    expected_lambda: Fraction = None
    predicted_c: float = None
    predicted_c_provenance: str = ""
    zeta_factor: float = None
    delta_empirical: float = None
    delta_note: str = "empirical residual slope, not an effective error exponent"
    samples: int = 0
    extras: dict = field(default_factory=dict)
    # the sample_cumulative the fit read, for another fit of the same series
    sampled: tuple = field(default=None, repr=False, compare=False)

    def to_json(self):
        doc = {
            "c_hat": self.c_hat,
            "lambda_hat": self.lambda_hat,
            "residual_rms": self.residual_rms,
            "window": [float(w) for w in self.window],
            "expected_lambda": frac_str(self.expected_lambda) if self.expected_lambda is not None else None,
            "predicted_c": self.predicted_c,
            "predicted_c_provenance": self.predicted_c_provenance,
            "zeta_factor": self.zeta_factor,
            "delta_empirical": self.delta_empirical,
            "delta_note": self.delta_note,
            "samples": self.samples,
        }
        doc.update(self.extras)
        return json.dumps(doc, sort_keys=True, indent=1)


def expected_lambda(scenario):
    """Growth exponent of the cumulative count for the scenario's family:
    1 for norm forms, n-2 for quadric sections in n variables, and the degree
    of the reduced norm for division-order shells."""
    if scenario.family == FAMILY_NORMFORM:
        return Fraction(1)
    if scenario.family == FAMILY_QUADRIC:
        return Fraction(scenario.payload.dim - 2)
    if scenario.family == FAMILY_ALGEBRA:
        return Fraction(scenario.payload.norm_degree)
    raise ValueError(f"unknown family {scenario.family!r}")


def geometric_radii(r_min, r_max, samples=16):
    if not (0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    rs = np.unique(np.round(np.geomspace(r_min, r_max, samples)).astype(np.int64))
    return [int(r) for r in rs]


def sample_cumulative(series, window=None, samples=16, which="all"):
    """(window, [(r, S(r) as a float)]) over the radii r of the geometric
    grid inside the window, (r_top / 10, r_top) by default, where S(r) > 0:
    one cumulative_at call, so several fits of one series can share it."""
    r_top = (int(series.levels[-1]) if len(series.levels) else 0) / series.scale_e
    if window is None:
        window = (r_top / 10, r_top)
    # an empty series has no window; fit_power refuses it as too sparse
    radii = geometric_radii(window[0], window[1], samples) if window[1] > 0 else []
    values = [float(v) for v in cumulative_at(series, radii, which=which)]
    return window, [(r, v) for r, v in zip(radii, values) if v > 0]


def fit_power(series, window=None, fixed_lambda=None, samples=16, which="all", sampled=None):
    """Fit S(r) ~ c r^lambda on a geometric grid inside the window.

    Free fit: least squares on (log r, log S(r)).  With fixed_lambda, c_hat is
    the mean of S(r) / r^lambda.  Requires at least 8 usable sample radii.
    sampled is sample_cumulative(series, window, samples, which) when the
    caller has it, such as the report of another fit of the series.
    """
    if sampled is None:
        sampled = sample_cumulative(series, window, samples, which)
    window, pairs = sampled
    if len(pairs) < 8:
        raise ValueError("fewer than 8 positive sample radii in window (series too sparse or zero)")
    rs = np.array([p[0] for p in pairs], dtype=float)
    vs = np.array([p[1] for p in pairs], dtype=float)
    if fixed_lambda is not None:
        lam = float(fixed_lambda)
        ratios = vs / rs ** lam
        c = float(np.mean(ratios))
        resid = np.log(vs) - (math.log(c) + lam * np.log(rs))
    else:
        coeffs = np.polyfit(np.log(rs), np.log(vs), 1)
        lam, logc = float(coeffs[0]), float(coeffs[1])
        c = math.exp(logc)
        resid = np.log(vs) - (logc + lam * np.log(rs))
    report = FitReport(
        c_hat=c,
        lambda_hat=lam,
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        window=(float(window[0]), float(window[1])),
        samples=len(pairs),
        sampled=sampled,
    )
    _attach_delta(report, rs, vs, c, lam)
    return report


def _attach_delta(report, rs, vs, c, lam):
    err = np.abs(vs - c * rs ** lam)
    good = err > 0
    if good.sum() >= 4:
        slope = float(np.polyfit(np.log(rs[good]), np.log(err[good]), 1)[0])
        if slope > 0:
            report.delta_empirical = lam - slope
            report.extras["residual_growth_slope"] = slope


def fit_rlogr(series, window, samples=16, which="all"):
    """Tail mean of S(r) / (r log r) over the window, with the observed spread.

    The r log r regime is the d = 1 aggregation of a linear-growth series."""
    if window[0] <= 1:
        raise ValueError("window must start above r = 1 (log r vanishes)")
    radii = geometric_radii(window[0], window[1], samples)
    sums = cumulative_at(series, radii, which=which)
    ratios = np.array([float(s) / (r * math.log(r)) for s, r in zip(sums, radii)])
    mean = float(np.mean(ratios))
    spread = float((ratios.max() - ratios.min()) / mean) if mean else float("inf")
    return {"c_hat": mean, "spread": spread, "ratios": [float(x) for x in ratios], "radii": radii}


def predicted_constant_ideal(r1, r2, regulator, class_number, roots_of_unity, discriminant,
                             degree=None):
    """Leading coefficient of the ideal count of a degree-(r1 + 2 r2) field:
    2^r1 (2 pi)^r2 R h / (w sqrt(|D|)).  When degree is given, the signature
    must satisfy r1 + 2 r2 = degree."""
    if discriminant == 0:
        raise ValueError("discriminant must be nonzero")
    if class_number < 1 or roots_of_unity < 1:
        raise ValueError("class number and root-of-unity count must be >= 1")
    if r1 < 0 or r2 < 0 or r1 + 2 * r2 < 1:
        raise ValueError("invalid signature")
    if degree is not None and r1 + 2 * r2 != degree:
        raise ValueError(f"signature ({r1}, {r2}) inconsistent with degree {degree}")
    return (
        2 ** r1 * (2 * math.pi) ** r2 * regulator * class_number
        / (roots_of_unity * math.sqrt(abs(discriminant)))
    )


def zeta_correction(d):
    """zeta(d): the predicted ratio of the full to the primitive cumulative
    series when the level-scaling degree is d >= 2."""
    if d < 2:
        raise ValueError("d < 2 is the divergent r log r regime; use fit_rlogr")
    return zeta_midpoint(d)
