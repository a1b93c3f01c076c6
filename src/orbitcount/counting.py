"""Scenario drivers: per-level and cumulative orbit-count series for the
three families (norm forms, quadric sections, division-order norm shells),
with primitive/imprimitive aggregation.

Levels are integers after scaling by the family's denominator lcm; the
counting path is exact integer/rational arithmetic throughout.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, alg_mul, element
from .exact import gcd_vector, scalar
from .lattice import (
    box_scan,
    cone_section_points,
    conic_points_up_to,
    fiber_section_points,
    indefinite_quadratic_shell,
)
from .oracles import pairwise_orbits
from .orders import (
    OrderSpec,
    finite_units,
    fundamental_unit,
    is_unit,
    left_mul_matrices,
    norm_gram,
    real_quadratic_d,
    reduce_orbits,
    unit_domain_points,
)
from .sections import QuadricSectionSpec
from .shells import (
    _bilinear_bound,
    _check_int64,
    _scaled_integer_gram,
    ball_points,
    definite_shell,
    theta_series,
)
from .symmetry import integral_symmetries, orbit_partition, weighted_count

FAMILY_NORMFORM = "normform"
FAMILY_QUADRIC = "quadric"
FAMILY_ALGEBRA = "algebra-norm"

# level-scaling degree: exponent of the level under x -> p x
def level_scaling_degree(family, payload):
    if family == FAMILY_NORMFORM:
        return payload.norm_degree
    if family == FAMILY_QUADRIC:
        return 1
    if family == FAMILY_ALGEBRA:
        return payload.norm_degree
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    family: str
    payload: object            # OrderSpec or QuadricSectionSpec
    k_max: int
    mode: tuple = ("exact",)   # ("exact",) or ("box", B)
    use_absolute_norm: bool = False
    label: str = ""
    invariants: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        if self.family not in (FAMILY_NORMFORM, FAMILY_QUADRIC, FAMILY_ALGEBRA):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == FAMILY_QUADRIC:
            if not isinstance(self.payload, QuadricSectionSpec):
                raise ValueError("quadric family needs a QuadricSectionSpec payload")
        elif not isinstance(self.payload, OrderSpec):
            raise ValueError(f"{self.family} family needs an OrderSpec payload")
        if self.k_max < 0:
            raise ValueError("k_max must be nonnegative")
        if self.mode[0] not in ("exact", "box"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.family == FAMILY_QUADRIC and self.mode[0] == "box":
            raise ValueError("box mode is not defined for quadric sections (exact support only)")


@dataclass
class CountSeries:
    family: str
    levels: list               # sorted integer levels (after scaling)
    n_prim: list
    n_all: list
    weighted: list             # int or Fraction; equals n_all when all stabilizers are trivial
    scale_e: int
    exact: list                # per-level exactness flags
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        k = len(self.levels)
        if not (len(self.n_prim) == len(self.n_all) == len(self.weighted) == len(self.exact) == k):
            raise ValueError("ragged series")
        try:
            levels, prim, alln = np.array([self.levels, self.n_prim, self.n_all], dtype=np.int64)
        except OverflowError:  # Python ints past int64
            levels, prim, alln = np.array([self.levels, self.n_prim, self.n_all], dtype=object)
        if np.any(levels[1:] <= levels[:-1]):
            raise ValueError("levels not strictly increasing")
        if np.any(prim < 0) or np.any(alln < 0):
            raise ValueError("negative count")
        if np.any(prim > alln):
            raise ValueError("n_prim exceeds n_all")


def _numerators(column):
    """(numerators, L) of an int/Fraction column over the lcm L of its
    denominators, as int64 when L and sum |numerator| are below 2^63."""
    den = math.lcm(*{c.denominator for c in column})
    nums = column if den == 1 else [c.numerator * (den // c.denominator) for c in column]
    big = max(den, sum(map(abs, nums))) >= 2 ** 63
    return np.array(nums, dtype=object if big else np.int64), den


def _over(nums, den):
    """nums / den as a list of ints, with a Fraction only where not integral."""
    out = (nums // den).tolist()
    for i in np.flatnonzero(nums % den).tolist():
        out[i] = Fraction(int(nums[i]), den)
    return out


def cumulative_at(series, radii, which="all"):
    """[S(r) for r in radii], r in original (unscaled) units and ascending, from
    prefix sums of the chosen column ("all", "prim" or "weighted") over its
    common denominator; errors beyond the computed range."""
    column = {"prim": series.n_prim, "weighted": series.weighted}.get(which, series.n_all)
    top = max(series.levels, default=0)
    nums, den = _numerators(column)
    sums = np.cumsum(nums).tolist()
    out, prev = [], None
    for r in radii:
        r_scaled = Fraction(r) * series.scale_e
        if r_scaled > top:
            raise ValueError(f"r = {r} beyond computed range")
        if prev is not None and r_scaled < prev:
            raise ValueError("radii must be ascending")
        prev = r_scaled
        i = bisect_right(series.levels, math.floor(r_scaled))
        out.append(scalar(Fraction(sums[i - 1] if i else 0, den)))
    return out


def cumulative(series, r, which="all"):
    """S(r) for r in original (unscaled) units; errors beyond the computed range."""
    return cumulative_at(series, [r], which)[0]


def aggregate_levels(prim_levels, prim_counts, d, k_max):
    """Aggregate a primitive per-level series: N_all(k) = sum over p >= 1 with
    p^d | k of N_prim(k / p^d); levels are dense integers 1..k_max, summed by
    _slice_sieve with weight 1."""
    if d < 1:
        raise ValueError("scaling degree must be >= 1")
    nums, den = _numerators(prim_counts)
    lv = np.array(prim_levels, dtype=np.int64)
    keep = (lv >= 1) & (lv <= k_max)
    src = np.zeros(k_max + 1, dtype=nums.dtype)
    src[lv[keep]] = nums[keep]
    out = _slice_sieve(src, d, k_max)
    return list(range(1, k_max + 1)), _over(out[1:], den)


def _slice_sieve(src, d, k_max, mu=None):
    """out[k] = sum over p >= 1 with p^d | k of w(p) src[k / p^d] for k <= k_max,
    with w = 1, or w = mu (an array of weights indexed by p) for the inverse.
    One slice per p^d; for d = 1 only p <= sqrt(k_max), with one slice per
    cofactor j for the larger p.  Exact in the dtype of src: int64 when the
    caller bounded sum |src| below 2^63 (every partial sum then fits), object
    arrays otherwise."""
    out = np.zeros_like(src)
    if mu is not None:
        mu = mu.astype(src.dtype)
    p = 1
    while p ** max(d, 2) <= k_max:
        q = p ** d
        w = 1 if mu is None else mu[p]
        if w == 1:
            out[q::q] += src[1 : k_max // q + 1]
        elif w == -1:
            out[q::q] -= src[1 : k_max // q + 1]
        p += 1
    for j in range(1, k_max // p + 1 if d == 1 else 1):
        out[j * p :: j] += src[j] if mu is None else src[j] * mu[p : k_max // j + 1]
    return out


def _mobius_upto(n):
    """[mu(0) = 0, mu(1), ..., mu(n)] as int64 by a prime sieve."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    composite = np.zeros(n + 1, dtype=bool)
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p * p :: p] = True
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    return mu


def imprimitive_from_primitive(series, d):
    """CountSeries with the imprimitive column rebuilt from the primitive one:
    the x -> p x identity aggregates counts and weights alike, since scaling is
    an orbit bijection that preserves stabilizers.  The primitive weight is the
    stored weighted column for the quadric family and n_prim otherwise (trivial
    stabilizers)."""
    k_max = max(series.levels, default=0)
    _, n_all = aggregate_levels(series.levels, series.n_prim, d, k_max)
    prim_weights = series.weighted if series.family == FAMILY_QUADRIC else series.n_prim
    _, weighted = aggregate_levels(series.levels, prim_weights, d, k_max)
    return CountSeries(
        family=series.family, levels=list(range(1, k_max + 1)),
        n_prim=list(series.n_prim), n_all=n_all, weighted=weighted,
        scale_e=series.scale_e, exact=list(series.exact),
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


def _orbit_classes(lvls, reps, stab, group_order):
    """Index of one member of each (level, rep) class.  Asserts that every class
    is a whole orbit: its member count times the stabilizer order is |G|."""
    key = np.column_stack([lvls.astype(reps.dtype), reps])
    if key.dtype == object:
        members = {}
        for i, row in enumerate(map(tuple, key.tolist())):
            members.setdefault(row, []).append(i)
        first = np.array([m[0] for m in members.values()], dtype=np.int64)
        counts = np.array([len(m) for m in members.values()], dtype=np.int64)
    else:
        _, first, counts = np.unique(key, axis=0, return_index=True, return_counts=True)
    if np.any(counts * stab[first] != group_order):
        raise AssertionError("orbit-stabilizer identity violated: an orbit is incomplete")
    return first


def count_normform_level(order, k, mode=("exact",)):
    """Number of norm-one-unit orbits of {x in O : norm(x) = k}, k != 0."""
    if k == 0:
        raise ValueError("k = 0 is not a group torsor level (excluded)")
    if mode[0] == "box":
        sols = box_scan(order, abs(k), mode[1])
        sols = [x for x in sols if order.norm(x) == k]
        if not sols:
            return 0
        return len(pairwise_orbits(sols, order))
    if order.unit_rank == 0:
        kf = Fraction(k)
        if kf <= 0 or kf.denominator != 1:
            return 0
        shell = definite_shell(norm_gram(order), kf)
        if not shell:
            return 0
        reps, _ = reduce_orbits(shell, _torsion_matrices(order, finite_units(order)))
        return len(set(map(tuple, reps.tolist())))
    if order.unit_rank == 1:
        kf = Fraction(k)
        if kf.denominator != 1:
            return 0
        return len(indefinite_quadratic_shell(order, int(kf)))
    raise ValueError("unit rank >= 2: exact mode unsupported, use box mode")


def normform_series(order, r_max, use_absolute_norm=False, units=None):
    """Per-level orbit counts for levels 1..r_max (norm = k, or |norm| = k when
    use_absolute_norm).  Exact mode only; box mode is box_series.

    units may carry externally supplied (user-asserted) unit data for rank-1
    orders; it is verified before use."""
    r_max = int(r_max)
    if order.unit_rank == 0:
        return _definite_series(order, r_max, FAMILY_NORMFORM)
    if order.unit_rank == 1:
        return _real_quadratic_series(order, r_max, use_absolute_norm, units=units)
    raise ValueError("unit rank >= 2: exact mode unsupported, use box mode")


def user_asserted_units(order, coords):
    """UnitGroupData built from an externally computed fundamental unit.

    The element must be a non-torsion unit and must actually be fundamental
    (a proper power would silently split orbits, so it is cross-checked
    against the Pell solution, which is always available here)."""
    from .orders import UnitGroupData

    if order.unit_rank != 1 or real_quadratic_d(order) is None:
        raise ValueError("asserted fundamental units apply to real quadratic orders only")
    eps = element(tuple(coords))
    if not is_unit(eps, order):
        raise ValueError(f"asserted fundamental unit {coords} is not a unit of the order")
    if eps.coords[1] == 0:
        raise ValueError("asserted fundamental unit is torsion")
    reference = fundamental_unit(order)
    a, b = (abs(c) for c in eps.coords)
    if (a, b) != tuple(abs(c) for c in reference.fundamental[0].coords):
        raise ValueError(
            f"asserted unit {coords} is not fundamental "
            f"(expected one of +-{reference.fundamental[0].coords} up to sign)"
        )
    spec = order.algebra
    nrm = order.norm(eps)
    eps1 = eps if nrm == 1 else alg_mul(eps, eps, spec)
    return UnitGroupData(
        torsion=(element((1, 0)), element((-1, 0))),
        fundamental=(eps,), complete=True, norm_one_fundamental=eps1,
    )


def box_series(scenario, jobs=1):
    """Box-mode (heuristic) per-level orbit counts for levels 1..k_max, with
    levels spread over `jobs` worker processes; the result does not depend on
    jobs."""
    levels = list(range(1, scenario.k_max + 1))
    tasks = [(scenario, k) for k in levels]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pairs = list(pool.map(_box_level_task, tasks, chunksize=16))
    else:
        pairs = [_box_level_task(t) for t in tasks]
    return CountSeries(
        family=scenario.family, levels=levels,
        n_prim=[p for p, _ in pairs], n_all=[a for _, a in pairs],
        weighted=[a for _, a in pairs], scale_e=1,
        exact=[False] * len(levels), meta={"mode": f"box:{scenario.mode[1]}"},
    )


def box_absolute_norm(scenario):
    """Whether box mode matches |norm| = k: quaternion shells always do."""
    return scenario.use_absolute_norm or scenario.family == FAMILY_ALGEBRA


def _box_level_task(task):
    scenario, k = task
    return box_level_counts(scenario.payload, k, scenario.mode[1], box_absolute_norm(scenario))


def _box_level_orbits(order, k, bound, use_absolute_norm):
    sols = box_scan(order, k, bound)
    if not use_absolute_norm:
        sols = [x for x in sols if order.norm(x) == k]
    if not sols:
        return []
    return pairwise_orbits(sols, order)


def box_level_counts(order, k, bound, use_absolute_norm=False):
    """(primitive, all) orbit counts for one level in box mode; a class is
    primitive when its members have coprime coordinates (a unit invariant)."""
    tot_all = tot_prim = 0
    for cls in _box_level_orbits(order, k, bound, use_absolute_norm):
        tot_all += 1
        if gcd_vector(cls[0].coords) == 1:
            tot_prim += 1
    return tot_prim, tot_all


def _real_quadratic_series(order, r_max, use_absolute_norm, units=None):
    d = real_quadratic_d(order)
    units_provenance = "computed"
    if units is None:
        units = fundamental_unit(order)
    else:
        units_provenance = "user-asserted"
    x0, y0 = units.fundamental[0].coords
    pell_sign = x0 * x0 - d * y0 * y0
    # one domain point per orbit; negative norms count only for absolute norms
    # without a norm -1 unit, which would map each such orbit to a positive one
    pts, norms = unit_domain_points(order, units, r_max)
    if not (use_absolute_norm and pell_sign == 1):
        pts, norms = pts[norms > 0], norms[norms > 0]
    lvls = np.abs(norms)
    prim = np.gcd(pts[:, 0], pts[:, 1]) == 1
    n_all = np.bincount(lvls, minlength=r_max + 1)[1:].tolist()
    n_prim = np.bincount(lvls[prim], minlength=r_max + 1)[1:].tolist()
    levels = list(range(1, r_max + 1))
    return CountSeries(
        family=FAMILY_NORMFORM, levels=levels, n_prim=n_prim, n_all=n_all,
        weighted=list(n_all), scale_e=1,
        exact=[True] * len(levels),
        meta={"mode": "exact", "pell_sign": pell_sign, "absolute_norm": use_absolute_norm,
              "units": units_provenance},
    )


# ---------------------------------------------------------------------------
# quadric family


def count_quadric_level(section, k, group=None):
    """(orbit count, weighted count) of the primitive level-k section points."""
    if group is None:
        group = integral_symmetries(section)
    pts = cone_section_points(section, k)
    report = orbit_partition(pts, group, level=k)
    return len(report.orbits), weighted_count(report)


def quadric_series(section, r_max, group=None):
    """Primitive orbit counts and weights for scaled levels 1..e*r_max: the
    points of every level from the conic parametrisation in three variables
    and from the per-level fiber route otherwise, reduced in one pass."""
    if group is None:
        group = integral_symmetries(section)
    r_scaled = int(Fraction(r_max) * section.scale_e)
    if section.dim == 3:
        pts, lvls = conic_points_up_to(section, r_scaled)
        route = {}
    else:
        per = [cone_section_points(section, Fraction(k, section.scale_e)) for k in range(1, r_scaled + 1)]
        pts = np.array([p for level in per for p in level], dtype=object).reshape(-1, section.dim)
        lvls = np.repeat(np.arange(1, r_scaled + 1, dtype=np.int64), [len(level) for level in per])
        route = {"route": "per-level"}
    reps, stab = reduce_orbits(pts, group.elements)
    first = _orbit_classes(lvls, reps, stab, group.order)
    levels = list(range(1, r_scaled + 1))
    lv, st = lvls[first], stab[first]
    n_prim = np.bincount(lv, minlength=r_scaled + 1)[1:].tolist()
    # the weight of a level is its orbit sizes |G| / |stab| summed, over |G|
    sizes = sum((group.order // s * np.bincount(lv[st == s], minlength=r_scaled + 1)
                 for s in np.unique(st).tolist()), np.zeros(r_scaled + 1, dtype=np.int64))
    _, n_all = aggregate_levels(levels, n_prim, 1, r_scaled)
    return CountSeries(
        family=FAMILY_QUADRIC, levels=levels, n_prim=n_prim, n_all=n_all,
        weighted=_over(sizes[1:], group.order), scale_e=section.scale_e,
        exact=[True] * r_scaled,
        meta={"mode": "exact", "group_order": group.order, **route,
              "weight_normalisation": "relative (one undetermined global constant)"},
    )


def quadric_all_points_level(section, k, group=None):
    """Direct (non-primitive) analogue of count_quadric_level: all integral
    points of the level-k section, orbit-partitioned.  Small levels only."""
    if group is None:
        group = integral_symmetries(section)
    pts = fiber_section_points(section, k, qtarget=0, primitive=False)
    report = orbit_partition(pts, group, level=k)
    return len(report.orbits), weighted_count(report)


# ---------------------------------------------------------------------------
# division-algebra family


def probe_values(rng, count):
    """count values uniform on [-9, 9] from the seeded bytes of rng: the bytes
    below 247 = 13 * 19, each mod 19 minus 9.  One randbytes call with a margin
    for the rejected bytes (about 3.5 %); a short draw is topped up."""
    vals = np.zeros(0, dtype=np.int64)
    while len(vals) < count:
        need = count - len(vals)
        raw = np.frombuffer(rng.randbytes(need + need // 16 + 16), dtype=np.uint8)
        vals = np.concatenate([vals, raw[raw < 247].astype(np.int64) % 19 - 9])
    return vals[:count]


def assert_division_order(order, rng=None, trials=200, shell_bound=6):
    """Probe for zero divisors: random integral products and small norm-zero
    shells.  Raises ValueError on evidence of a matrix-algebra payload."""
    import random

    rng = rng or random.Random(0x5EED)
    spec = order.algebra
    n = spec.dim
    # each trial draws a, then b; all trials are multiplied in one batch
    a, b = probe_values(rng, 2 * n * trials).reshape(trials, 2, n).transpose(1, 0, 2)
    if np.any(a.any(axis=1) & b.any(axis=1) & ~_scaled_products(spec, a, b).any(axis=1)):
        raise ValueError("zero divisors detected: payload is not a division algebra")
    if order.norm_degree == 2:
        g = norm_gram(order)
        from .exact import definiteness

        if definiteness(g) == 1:
            return  # definite norm: x != 0 implies norm > 0, nothing else to probe
    from itertools import product as iproduct

    for coords in iproduct(range(-shell_bound, shell_bound + 1), repeat=n):
        if any(coords) and order.norm(AlgebraElement(coords)) == 0:
            raise ValueError("nonzero element of norm 0: payload is not a division algebra")


def _scaled_products(spec, a, b):
    """Row-wise products of the integer arrays a and b in one einsum, times the
    lcm L of the structure constants' denominators; exact past int64."""
    n = spec.dim
    table, _ = _numerators([c for row in spec.table for cell in row for c in cell])
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * sum(map(abs, table.tolist()))
    table, a, b = (x.astype(np.int64 if bound < 2 ** 63 else object) for x in (table, a, b))
    return np.einsum("ti,tj,ijk->tk", a, b, table.reshape(n, n, n))


def count_algebra_shell(order, m):
    """Number of left unit-orbits of integral elements of reduced norm m on a
    definite order: shell size / |units|, with the freeness of the action
    asserted on the enumerated shell."""
    if m < 1:
        raise ValueError("shell level must be >= 1")
    units = finite_units(order)
    shell = definite_shell(norm_gram(order), m)
    if not shell:
        return 0
    nu = len(units.torsion)
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
    primitive part by Moebius inversion over x -> p x, N(p x) = p^d N(x)."""
    r_max = int(r_max)
    assert_division_order(order)
    units = finite_units(order)
    nu = len(units.torsion)
    theta = theta_series(norm_gram(order), r_max)[1:]
    _assert_free_action(order, units)
    if np.any(theta % nu):
        raise ValueError("unit action not free on some shell: not a division order")
    n_all = (theta // nu).tolist()
    return CountSeries(
        family=family, levels=list(range(1, r_max + 1)),
        n_prim=(_primitive_shell_sizes(theta, order.norm_degree) // nu).tolist(),
        n_all=n_all, weighted=list(n_all),
        scale_e=1, exact=[True] * r_max,
        meta={"mode": "exact", "units": nu},
    )


def _primitive_shell_sizes(all_sizes, d):
    """prim(1..k) from the integer array all(1..k), where all(m) is the sum
    over f with f^d | m of prim(m / f^d): Moebius inversion, prim(m) = sum of
    mu(f) all(m / f^d), by the slice sieve of aggregate_levels.  int64 while
    max|all| * k < 2^63 bounds every partial sum, Python ints (object) past it."""
    k = len(all_sizes)
    big = int(np.abs(all_sizes).max(initial=0)) * k >= 2 ** 63
    src = np.zeros(k + 1, dtype=object if big else np.int64)
    src[1:] = all_sizes
    return _slice_sieve(src, d, k, _mobius_upto(k if d == 1 else math.isqrt(k)))[1:]


def _assert_free_action(order, units):
    """Check on the points of norm at most 3 that each unit maps a point to
    one of the same norm and that a point's |units| images are distinct (a
    sort of each point's image codes), in one int64 einsum over the units'
    integer left-multiplication matrices."""
    mats = _torsion_matrices(order, units)
    gram = norm_gram(order)
    pts, twice_q, _ = ball_points(gram, 3)
    _, gi = _scaled_integer_gram(gram)
    img_max = max(sum(map(abs, row)) for m in mats for row in m) * int(np.abs(pts).max(initial=0))
    _check_int64(img_max, _bilinear_bound(gi, [img_max] * len(gi)))
    imgs = np.einsum("uij,pj->pui", np.array(mats, dtype=np.int64), pts)
    # one code per image, sum of (c_i + img_max) base^i, injective for base = 2 img_max + 1
    base, n = 2 * img_max + 1, len(gi)
    dtype = np.int64 if base ** n < 2 ** 63 else object
    weights = np.array([base ** i for i in range(n)], dtype=dtype)
    codes = np.sort((imgs + img_max).astype(dtype) @ weights, axis=1)
    if np.any(codes[:, 1:] == codes[:, :-1]):
        raise ValueError("unit action not free: payload is not a division order")
    if np.any(np.einsum("pui,ij,puj->pu", imgs, np.array(gi, dtype=np.int64), imgs) != twice_q[:, None]):
        raise AssertionError("unit action does not preserve the shell")


def primitive_algebra_shell_direct(order, m):
    """Primitive shell orbit count by direct enumeration + gcd filter
    (independent of the Moebius route; small m)."""
    units = finite_units(order)
    shell = [p for p in definite_shell(norm_gram(order), m) if gcd_vector(p) == 1]
    nu = len(units.torsion)
    if len(shell) % nu:
        raise ValueError("unit action not free on primitive shell")
    return len(shell) // nu


# ---------------------------------------------------------------------------
# entry point used by the CLI


def run_scenario(scenario, jobs=1):
    """Compute the CountSeries for a validated scenario; `jobs` worker
    processes share the levels in box mode."""
    if scenario.mode[0] == "box":
        return box_series(scenario, jobs)
    fam = scenario.family
    if fam == FAMILY_NORMFORM:
        units = None
        asserted = scenario.invariants.get("fundamental_unit")
        if asserted is not None:
            from .exact import frac

            units = user_asserted_units(scenario.payload, [frac(c) for c in asserted])
        return normform_series(
            scenario.payload, scenario.k_max,
            use_absolute_norm=scenario.use_absolute_norm, units=units,
        )
    if fam == FAMILY_QUADRIC:
        return quadric_series(scenario.payload, scenario.k_max)
    if fam == FAMILY_ALGEBRA:
        return algebra_series(scenario.payload, scenario.k_max)
    raise ValueError(f"unknown family {fam!r}")
