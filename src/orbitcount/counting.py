"""Scenario drivers: per-level and cumulative orbit-count series for the
three families (norm forms, quadric sections, division-order norm shells),
with primitive/imprimitive aggregation.

Levels are integers after scaling by the family's denominator lcm; the
counting path is exact throughout, on int64 rows refused up front past int64.
"""

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact import gcd_vector, scalar
from .lattice import (
    cone_section_points,
    conic_points_up_to,
    fiber_section_points,
    indefinite_quadratic_shell,
    row_keys,
    row_radices,
    sorted_keys,
)
from .numtheory import dirichlet_sums, mobius_upto
# payloads derive their units, balls and groups; the names stay for perfbench/tracer.py
from .orders import (
    RANK_2_REFUSAL,
    finite_units,
    fundamental_unit,
    left_mul_matrices,
    real_quadratic_d,
    unit_domain_points,
)
from .shells import _bilinear_bound, _check_int64, ball_points, definite_shell, theta_series
from .symmetry import integral_symmetries, orbit_partition, weighted_count

FAMILY_NORMFORM = "normform"
FAMILY_QUADRIC = "quadric"
FAMILY_ALGEBRA = "algebra-norm"


@dataclass(frozen=True)
class ScenarioSpec:
    family: str
    payload: object            # OrderSpec or QuadricSectionSpec
    k_max: int
    use_absolute_norm: bool = False
    label: str = ""
    invariants: dict = field(default_factory=dict, compare=False, hash=False)  # as cli.read_config types them

    def __post_init__(self):
        if self.k_max < 0:
            raise ValueError("k_max must be nonnegative")


@dataclass
class CountSeries:
    """Per-level counts as int64 numpy columns: levels (sorted integers after
    scaling by scale_e > 0), n_prim, n_all, and weighted, the numerators of the
    weights over the one positive denominator weight_den (the weights equal
    n_all when all stabilizers are trivial).  The weights are kept in lowest
    terms: weight_den and the numerators have gcd 1.  Lists and other integer
    arrays are read as int64 and refused where a cell is not an integer that
    fits; an int64 array is kept as it is."""

    family: str
    levels: np.ndarray
    n_prim: np.ndarray
    n_all: np.ndarray
    weighted: np.ndarray
    scale_e: int
    weight_den: int = 1
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.levels, self.n_prim, self.n_all, self.weighted = (
            _column(c) for c in (self.levels, self.n_prim, self.n_all, self.weighted))
        for name in ("scale_e", "weight_den"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and 1 <= value < 2 ** 63):
                raise ValueError(f"{name} {value!r} is not a positive int64 integer")
            setattr(self, name, int(value))
        if not (len(self.n_prim) == len(self.n_all) == len(self.weighted) == len(self.levels)):
            raise ValueError("ragged series")
        if np.any(self.levels[1:] <= self.levels[:-1]):
            raise ValueError("levels not strictly increasing")
        if np.any(self.levels < 0):
            raise ValueError("negative level")
        if np.any(self.n_prim < 0) or np.any(self.n_all < 0):
            raise ValueError("negative count")
        if np.any(self.weighted < 0):
            raise ValueError("negative weight")
        if np.any(self.n_prim > self.n_all):
            raise ValueError("n_prim exceeds n_all")
        g = math.gcd(self.weight_den, int(np.gcd.reduce(self.weighted))) if self.weight_den > 1 else 1
        if g > 1:
            self.weighted, self.weight_den = self.weighted // g, self.weight_den // g

    def __eq__(self, other):
        """Equal family, scale_e, weight_den and columns; meta, which records
        how a series was made, is not compared (the generated __eq__ would
        also ask an array for its truth)."""
        if not isinstance(other, CountSeries):
            return NotImplemented
        scalars = ("family", "scale_e", "weight_den")
        cols = ("levels", "n_prim", "n_all", "weighted")
        return all(getattr(self, a) == getattr(other, a) for a in scalars) and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in cols)


def _column(values):
    """values as a 1-d int64 array.  An int64 array is returned as it is; any
    other input is read by numpy and refused unless its dtype casts to int64
    safely.  numpy reads a float cell as float64, a Fraction as object and a
    cell past int64 as uint64, float64 or object, so none is truncated."""
    arr = values if isinstance(values, np.ndarray) else np.array(values)
    if arr.ndim != 1:
        raise ValueError("a series column is not one-dimensional")
    if arr.dtype == np.int64:
        return arr
    if arr.size and not (arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64)):
        raise ValueError(f"a series column reads as {arr.dtype}: a cell is not an int64 integer")
    return arr.astype(np.int64)


def _bounded_column(values):
    """values as an int64 column (_column), refused unless max |cell| * len
    < 2^63, which bounds every signed sum of its cells."""
    col = _column(values)
    _check_int64(max(int(col.max(initial=0)), -int(col.min(initial=0))) * len(col))
    return col


def _common_denominator(nums, dens):
    """(numerators, L): the fractions nums / dens (int64 arrays, nums >= 0,
    dens >= 1) over the lcm L of dens, as an int64 array; refused when a
    numerator is negative (-2^63 would pass the bound below and wrap), or
    when L or a numerator rescaled to L passes int64."""
    if np.any(nums < 0):
        raise ValueError("negative weight")
    if dens.max(initial=1) == 1:
        return nums, 1
    den = math.lcm(*np.unique(dens).tolist())
    _check_int64(den)
    scale = den // dens
    over = np.flatnonzero(np.abs(nums) > (2 ** 63 - 1) // scale)
    if len(over):
        i = over[0]
        raise ValueError(f"weight {nums[i]}/{dens[i]} over the common denominator {den} "
                         f"is {int(nums[i]) * int(scale[i])}, past int64")
    return nums * scale, den


def cumulative_at(series, radii, which="all"):
    """[S(r) for r in radii], r in original (unscaled) units and ascending, from
    prefix sums of the chosen column ("all", "prim" or "weighted", the last
    over weight_den); errors beyond the computed range.  An integer radius
    is scaled in integers, any other rational as a Fraction."""
    column = {"prim": series.n_prim, "weighted": series.weighted}.get(which, series.n_all)
    den = series.weight_den if which == "weighted" else 1
    top = int(series.levels[-1]) if len(series.levels) else 0
    floors, prev = [], None
    for r in radii:
        r_scaled = int(r) * series.scale_e if isinstance(r, numbers.Integral) else Fraction(r) * series.scale_e
        if r_scaled > top:
            raise ValueError(f"r = {r} beyond computed range")
        if prev is not None and r_scaled < prev:
            raise ValueError("radii must be ascending")
        prev = r_scaled
        floors.append(math.floor(r_scaled))
    sums = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(column)])
    # the cells are nonnegative, so the first prefix sum that wraps is negative
    if sums.min() < 0:
        raise ValueError("a cumulative sum of the series passes int64")
    at = sums[np.searchsorted(series.levels, floors, side="right")].tolist()
    return at if den == 1 else [scalar(Fraction(s, den)) for s in at]


def aggregate_levels(prim_levels, prim_counts, d, k_max):
    """Aggregate a primitive per-level series: N_all(k) = sum over p >= 1 with
    p^d | k of N_prim(k / p^d); levels are dense integers 1..k_max, summed by
    numtheory.dirichlet_sums with weight 1.  The counts are integers (weight
    numerators over their common denominator aggregate alike), refused by
    _bounded_column when a sum could pass int64."""
    if d < 1:
        raise ValueError("scaling degree must be >= 1")
    counts = _bounded_column(prim_counts)
    lv = np.asarray(prim_levels, dtype=np.int64)
    keep = (lv >= 1) & (lv <= k_max)
    src = np.zeros(k_max + 1, dtype=np.int64)
    src[lv[keep]] = counts[keep]
    return np.arange(1, k_max + 1, dtype=np.int64), dirichlet_sums(src, k_max, d)


def imprimitive_from_primitive(series, d):
    """CountSeries with the imprimitive column rebuilt from the primitive one:
    the x -> p x identity aggregates counts and weights alike, since scaling is
    an orbit bijection that preserves stabilizers.  The primitive weight is the
    stored weighted column for the quadric family and n_prim otherwise (trivial
    stabilizers).  The weight numerators aggregate over the same denominator."""
    k_max = int(series.levels[-1]) if len(series.levels) else 0
    levels, n_all = aggregate_levels(series.levels, series.n_prim, d, k_max)
    quadric = series.family == FAMILY_QUADRIC
    _, weighted = aggregate_levels(series.levels, series.weighted if quadric else series.n_prim, d, k_max)
    return CountSeries(
        family=series.family, levels=levels,
        n_prim=series.n_prim, n_all=n_all, weighted=weighted,
        scale_e=series.scale_e, weight_den=series.weight_den if quadric else 1,
        meta=dict(series.meta, aggregated=f"d={d}"),
    )


# ---------------------------------------------------------------------------
# norm-form family


def _torsion_matrices(order, units):
    """The left-multiplication matrices of the torsion units as tuples of
    Python ints, from one einsum of their coordinates with the structure
    constants."""
    if not all(u.is_integral() for u in units.torsion):
        raise AssertionError("unit action does not preserve the shell: a unit is not integral")
    coords = [u.coords for u in units.torsion]
    return [tuple(map(tuple, m)) for m in left_mul_matrices(order.algebra, coords).tolist()]


def orbit_counts(points, levels, mats, size):
    """(n_orbits, n_points) per level 0..size-1 of the rows of points under
    the finite integer matrix group mats (x -> g x), by Burnside's lemma: a
    level's orbits are (1/|G|) sum over g of its points g fixes, in integers,
    refused unless |G| divides the sum.  The lemma needs each level set closed
    under G, checked exactly: the rows (level, x) are distinct and, for each
    g != 1, the rows (level, g x), packed by lattice.row_keys under the
    radices of the rows (level, x), sort to the same keys; an image cell
    outside those radices is an incomplete orbit.  Runs in int64, refused
    unless max_g max_row sum|g_ij| * max|x| < 2^63 bounds every image cell."""
    gms = [np.array(g, dtype=np.int64) for g in mats]
    try:
        pts = np.asarray(points, dtype=np.int64)
    except OverflowError:  # a Python int with |x| >= 2^63, refused as every bound past int64
        _check_int64(max(abs(int(x)) for row in points for x in row))
    width = max(int(np.abs(g).sum(axis=1).max()) for g in gms)
    _check_int64(width * max(-int(pts.min()), int(pts.max())) if pts.size else 0)
    cols = [np.asarray(levels, dtype=np.int64), *pts.T.copy()]
    n_points = np.bincount(cols[0], minlength=size)
    radices = row_radices(cols)
    rows = sorted_keys(row_keys(cols, radices))
    if (rows[:, 1:] == rows[:, :-1]).all(axis=0).any():
        raise AssertionError("orbit-stabilizer identity violated: a point is repeated")
    fixed = n_points.copy()
    for g in gms:
        if np.array_equal(g, np.eye(len(g), dtype=np.int64)):  # fixes every point
            continue
        img = [cols[0]] + [sum(c if a == 1 else a * c for a, c in zip(row, cols[1:]) if a) for row in g]
        hit = np.logical_and.reduce([a == b for a, b in zip(img[1:], cols[1:])])
        fixed += np.bincount(cols[0][hit], minlength=size)
        keys = row_keys(img, radices)
        if keys is None or not np.array_equal(sorted_keys(keys), rows):
            raise AssertionError("orbit-stabilizer identity violated: an orbit is incomplete")
    n_orbits, rest = np.divmod(fixed, len(gms))
    if rest.any():
        raise AssertionError("Burnside's lemma violated: |G| does not divide the fixed points of a level")
    return n_orbits, n_points


def count_normform_level(order, k):
    """Number of norm-one-unit orbits of {x in O : norm(x) = k}, k != 0."""
    if k == 0:
        raise ValueError("k = 0 is not a group torsor level (excluded)")
    if order.unit_rank == 0:
        kf = Fraction(k)
        if kf <= 0 or kf.denominator != 1:
            return 0
        shell = definite_shell(order.form, kf)
        if not shell:
            return 0
        mats = _torsion_matrices(order, order.units)
        return int(orbit_counts(shell, np.zeros(len(shell), dtype=np.int64), mats, 1)[0][0])
    if order.unit_rank == 1:
        kf = Fraction(k)
        if kf.denominator != 1:
            return 0
        return len(indefinite_quadratic_shell(order, int(kf)))
    raise ValueError(RANK_2_REFUSAL)


def normform_series(order, r_max, use_absolute_norm=False):
    """Per-level orbit counts for levels 1..r_max (norm = k, or |norm| = k when
    use_absolute_norm)."""
    r_max = int(r_max)
    if order.unit_rank == 0:
        return _definite_series(order, r_max, FAMILY_NORMFORM)
    if order.unit_rank == 1:
        return _real_quadratic_series(order, r_max, use_absolute_norm)
    raise ValueError(RANK_2_REFUSAL)


def _real_quadratic_series(order, r_max, use_absolute_norm):
    d = real_quadratic_d(order)
    units = order.units
    x0, y0 = units.fundamental[0].coords
    pell_sign = x0 * x0 - d * y0 * y0
    # one domain point per orbit; negative norms count only for absolute norms
    # without a norm -1 unit, which would map each such orbit to a positive one
    pts, norms = unit_domain_points(order, units, r_max)
    if not (use_absolute_norm and pell_sign == 1):
        pts, norms = pts[norms > 0], norms[norms > 0]
    lvls = np.abs(norms)
    prim = np.gcd(pts[:, 0], pts[:, 1]) == 1
    n_all = np.bincount(lvls, minlength=r_max + 1)[1:]
    n_prim = np.bincount(lvls[prim], minlength=r_max + 1)[1:]
    return CountSeries(
        family=FAMILY_NORMFORM, levels=np.arange(1, r_max + 1, dtype=np.int64),
        n_prim=n_prim, n_all=n_all, weighted=n_all, scale_e=1,
        meta={"pell_sign": pell_sign, "absolute_norm": use_absolute_norm},
    )


# ---------------------------------------------------------------------------
# quadric family


def count_quadric_level(section, k, primitive=True):
    """(orbit count, weighted count) of the primitive level-k section points,
    or of all of them (not primitive), by orbit_partition; small levels only."""
    pts = cone_section_points(section, k) if primitive else fiber_section_points(section, k, primitive=False)
    report = orbit_partition(pts, section.symmetry_group, level=k)
    return len(report.orbits), weighted_count(report)


def quadric_series(section, r_max):
    """Primitive orbit counts and weights for scaled levels 1..e*r_max: the
    points of every level from the conic parametrisation in three variables
    and from the per-level fiber route otherwise, reduced in one pass under
    section.symmetry_group."""
    group = section.symmetry_group
    r_scaled = int(Fraction(r_max) * section.scale_e)
    if section.dim == 3:
        pts, lvls = conic_points_up_to(section, r_scaled)
        route = {}
    else:
        per = [cone_section_points(section, Fraction(k, section.scale_e)) for k in range(1, r_scaled + 1)]
        pts = np.array([p for level in per for p in level], dtype=np.int64).reshape(-1, section.dim)
        lvls = np.repeat(np.arange(1, r_scaled + 1, dtype=np.int64), [len(level) for level in per])
        route = {"route": "per-level"}
    # a level's weight is its orbit sizes |G| / |stab| summed over |G|: its points over |G|
    n_prim, n_points = (c[1:] for c in orbit_counts(pts, lvls, group.elements, r_scaled + 1))
    levels, n_all = aggregate_levels(np.arange(1, r_scaled + 1, dtype=np.int64), n_prim, 1, r_scaled)
    return CountSeries(
        family=FAMILY_QUADRIC, levels=levels, n_prim=n_prim, n_all=n_all,
        weighted=n_points, scale_e=section.scale_e, weight_den=group.order,
        meta={"group_order": group.order, **route,
              "weight_normalisation": "relative (one undetermined global constant)"},
    )


# ---------------------------------------------------------------------------
# division-algebra family


def count_algebra_shell(order, m, primitive=False):
    """Number of left unit-orbits of integral elements of reduced norm m (the
    primitive ones with primitive) on a definite order, by direct enumeration:
    shell size / |units|, with the freeness of the action asserted on the
    enumerated shell.  Independent of the theta and Moebius route; small m."""
    if m < 1:
        raise ValueError("shell level must be >= 1")
    shell = [p for p in definite_shell(order.form, m) if not primitive or gcd_vector(p) == 1]
    nu = len(order.units.torsion)
    if len(shell) % nu:
        raise ValueError("unit action not free on shell: payload is not a division order")
    return len(shell) // nu


def algebra_series(order, r_max):
    """Per-level unit-orbit counts for reduced norms 1..r_max on a definite
    division order (_definite_series)."""
    return _definite_series(order, r_max, FAMILY_ALGEBRA)


def _definite_series(order, r_max, family):
    """Per-level unit-orbit counts for norms 1..r_max on a definite order: its
    units act freely on the nonzero elements of a domain, so every orbit has
    |units| members and the count is the exact theta series over |units|; the
    primitive part by Moebius inversion over x -> p x, N(p x) = p^d N(x).
    order.form refuses a norm form that is not positive definite, which is
    what makes the order a domain (validation._check_division)."""
    r_max = int(r_max)
    nu = len(order.units.torsion)
    theta = theta_series(order.form, r_max)[1:]
    _assert_free_action(order, order.units)
    if np.any(theta % nu):
        raise ValueError("unit action not free on some shell: not a division order")
    n_all = theta // nu
    return CountSeries(
        family=family, levels=np.arange(1, r_max + 1, dtype=np.int64),
        n_prim=_primitive_shell_sizes(theta, order.norm_degree) // nu,
        n_all=n_all, weighted=n_all,
        scale_e=1, meta={"units": nu},
    )


def _primitive_shell_sizes(all_sizes, d):
    """prim(1..k) from the integer array all(1..k), where all(m) is the sum
    over f with f^d | m of prim(m / f^d): Moebius inversion, prim(m) = sum of
    mu(f) all(m / f^d), by numtheory.dirichlet_sums with w = mu, in int64:
    refused unless max|all| * k < 2^63 bounds every partial sum."""
    k = len(all_sizes)
    src = np.concatenate([np.zeros(1, dtype=np.int64), _bounded_column(all_sizes)])
    return dirichlet_sums(src, k, d, mobius_upto(k if d == 1 else math.isqrt(k)))


def _assert_free_action(order, units):
    """Check on the points of norm at most 3 (order.ball) that each of units
    maps a point to one of the same norm and that a point's |units| images
    are distinct (no repeat among the sorted lattice.row_keys of the rows
    (point index, image)), in one int64 einsum over the units' integer
    left-multiplication matrices."""
    mats = _torsion_matrices(order, units)
    pts, twice_q, _ = order.ball
    gi = order.form.integer_gram
    img_max = max(sum(map(abs, row)) for m in mats for row in m) * int(np.abs(pts).max(initial=0))
    _check_int64(img_max, _bilinear_bound(gi, [img_max] * len(gi)))
    imgs = np.einsum("uij,pj->pui", np.array(mats, dtype=np.int64), pts)
    which = np.repeat(np.arange(len(pts), dtype=np.int64), len(mats))
    rows = sorted_keys(row_keys([which, *imgs.reshape(-1, len(gi)).T]))
    if (rows[:, 1:] == rows[:, :-1]).all(axis=0).any():
        raise ValueError("unit action not free: payload is not a division order")
    if np.any(np.einsum("pui,ij,puj->pu", imgs, np.array(gi, dtype=np.int64), imgs) != twice_q[:, None]):
        raise AssertionError("unit action does not preserve the shell")


# ---------------------------------------------------------------------------
# entry point used by the CLI


def run_scenario(scenario):
    """Compute the CountSeries for a validated scenario, on the exact set-up
    its payload keeps (derived by validation when that ran first on it)."""
    fam = scenario.family
    if fam == FAMILY_NORMFORM:
        return normform_series(scenario.payload, scenario.k_max, scenario.use_absolute_norm)
    if fam == FAMILY_QUADRIC:
        return quadric_series(scenario.payload, scenario.k_max)
    if fam == FAMILY_ALGEBRA:
        return algebra_series(scenario.payload, scenario.k_max)
    raise ValueError(f"unknown family {fam!r}")
