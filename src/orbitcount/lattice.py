"""Integral points on affine fibers and cone sections, box scans, and the
per-level orbit representatives of real quadratic orders.

cone_section_points realises the level-set geometry directly: build the
affine lattice fiber ell = k, restrict the cone equation to it, and solve the
resulting definite inhomogeneous quadratic with shells.quadratic_points, in
every dimension.  The conic parametrisation below, on a Gauss-reduced level
form, is an equivalent fast path for three variables, used by the bulk
series driver and cross-checked against the fiber route.  row_keys is the
one row packer, for row_order and the orbit checks of counting.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from .algebra import AlgebraElement, element
from .exact import clear_denominators, definiteness, invariant_factors, rank
from .numtheory import primes_upto
from .orders import fundamental_unit, unit_domain_points
# definite_shell is no longer called here; it stays importable as
# orbitcount.lattice.definite_shell, a name perfbench/tracer.py wraps
from .shells import _check_int64, definite_shell, interval_points, quadratic_points


def fiber_section_points(section, k, qtarget=0, primitive=True):
    """Complete list of x in Z^n with ell(x) = k and q(x) = qtarget.

    k and qtarget are rationals; requires q|ker(ell) definite.  Points are
    lexicographically sorted; primitive filters gcd = 1.  On the fiber
    x = t u0 + B y of section.fiber_frame, q(x) = qtarget reads
    y^t gram y + 2 t cross . y + t^2 q0 - qtarget = 0, times the frame's
    mult one shells.quadratic_points shell of its form, mapped in int64.
    """
    fr = section.fiber_frame
    t = Fraction(k) * fr.scale
    if t.denominator != 1:
        return []
    t, m = t.numerator, fr.mult
    c = m * (t * t * fr.q0 - Fraction(qtarget))
    if c.denominator != 1:  # y^t (m gram) y + 2 m t cross . y is an integer
        return []
    ys, _ = quadratic_points(fr.form, [int(m * t * x) for x in fr.cross], int(c))
    if not len(ys):
        return []
    ymax = int(np.abs(ys).max())
    _check_int64(*(abs(t * u) + ymax * sum(map(abs, row)) for u, row in zip(fr.u0, fr.basis)),
                 *(abs(b) for row in fr.basis for b in row))
    xs = ys @ np.array(fr.basis, dtype=np.int64).T + np.array([t * u for u in fr.u0], dtype=np.int64)
    if primitive:
        xs = xs[np.gcd.reduce(xs, axis=1) == 1]
    return list(map(tuple, xs[np.lexsort(xs.T[::-1])].tolist()))


def cone_section_points(section, k):
    """The finite set of primitive x in Z^n with q(x) = 0, ell(x) = k > 0."""
    if k <= 0:
        raise ValueError("level must be positive")
    return fiber_section_points(section, k, qtarget=0, primitive=True)


def conic_parametrization(section):
    """For dim 3: integer quadratic parametrisation of the projective conic
    q = 0 through the base point.

    Returns (phi, psi, content_bound): phi is a 3x3 integer matrix of binary
    quadratic form coefficients (rows = coordinates, columns = coefficients of
    s^2, s t, t^2), psi the positive definite integer form with
    psi(s, t) = scale_e * ell(phi(s, t)), Gauss-reduced (|b| <= a <= c) so
    that the (s, t) scan of conic_points_up_to does not grow with the basis
    the section is written in, and content_bound an integer N such that
    gcd(phi(s, t)) divides N for coprime (s, t).
    """
    if section.dim != 3:
        raise ValueError("conic parametrisation needs three variables")
    g_flat = [x for row in section.gram for x in row]
    g_int_flat, _ = clear_denominators(g_flat)
    gi = [g_int_flat[3 * i : 3 * i + 3] for i in range(3)]
    v0 = section.base_point
    # complete v0 to a rational basis with two standard vectors
    std = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    pick = []
    for w in std:
        if _independent([v0] + pick + [w]):
            pick.append(w)
        if len(pick) == 2:
            break
    w1, w2 = pick

    def bil(u, v):
        return sum(gi[i][j] * u[i] * v[j] for i in range(3) for j in range(3))

    # phi(w) = q(w) v0 - 2 B(v0, w) w,  w = s w1 + t w2
    rows = []
    for i in range(3):
        c_ss = bil(w1, w1) * v0[i] - 2 * bil(v0, w1) * w1[i]
        c_st = 2 * bil(w1, w2) * v0[i] - 2 * (bil(v0, w1) * w2[i] + bil(v0, w2) * w1[i])
        c_tt = bil(w2, w2) * v0[i] - 2 * bil(v0, w2) * w2[i]
        rows.append((c_ss, c_st, c_tt))
    phi = tuple(rows)
    # psi = scale_e * ell o phi (integer binary form coefficients)
    e = section.scale_e
    psi = tuple(
        int(sum(Fraction(section.ell[i]) * e * phi[i][j] for i in range(3))) for j in range(3)
    )
    sgn = definiteness(((2 * psi[0], psi[1]), (psi[1], 2 * psi[2])))
    if sgn == 0:
        raise AssertionError("level form indefinite; section preconditions violated")
    if sgn < 0:
        phi = tuple(tuple(-c for c in row) for row in phi)
        psi = tuple(-c for c in psi)
    # Gauss-reduce psi = (a, b, c) to |b| <= a <= c by SL_2(Z) changes of (s, t),
    # applied to phi too: (s, t) -> (s - k t, t), then (-t, s) while c < a
    forms = [psi, *phi]
    while True:
        a, b, _ = forms[0]
        k = -((a - b) // (2 * a))  # b - 2ak in (-a, a]
        forms = [(f0, f1 - 2 * k * f0, f0 * k * k - f1 * k + f2) for f0, f1, f2 in forms]
        if forms[0][0] <= forms[0][2]:
            break
        forms = [(f2, -f1, f0) for f0, f1, f2 in forms]
    psi, *phi = forms
    n_bound = _content_bound(phi)
    return tuple(phi), psi, n_bound


def _independent(rows):
    return rank(rows) == len(rows)


def _content_bound(phi):
    """Exponent of the cokernel of (deg-2 forms)^3 -> deg-4 forms, (a_i) -> sum a_i phi_i.

    For coprime (s, t), gcd over i of phi_i(s, t) divides this bound.
    """
    cols = []
    for i in range(3):
        f = phi[i]
        for shift in range(3):  # multiply by s^2, s t, t^2
            col = [0] * 5
            for j in range(3):
                col[j + shift] += f[j]
            cols.append(col)
    divisors = invariant_factors(list(zip(*cols)))  # of the 5 x 9 matrix
    if len(divisors) < 5:
        raise AssertionError("parametrisation forms share a root; conic degenerate")
    return divisors[-1]


def conic_points_up_to(section, r_scaled):
    """All primitive x in Z^n, q(x) = 0, with scaled level 1 <= e*ell(x) <= r_scaled.

    Returns (points array (N, 3) int64, levels array int64), each primitive
    point exactly once, in the order of the (s, t) scan: the rows are not
    sorted, since their one consumer, counting.orbit_counts, sorts them.
    Fast path for the three-variable series driver.
    """
    phi, psi, n_bound = conic_parametrization(section)
    a, b, c = psi
    bound = r_scaled * n_bound
    # enumerate (s, t), s >= 0 (one representative of +-): psi(s,t) <= bound
    disc = 4 * a * c - b * b
    smax = math.isqrt(4 * c * bound // disc) + 2
    # the widest t window below, then every int64 intermediate, in Python ints
    tmax = (abs(b) * smax + math.isqrt(b * b * smax * smax + 4 * c * bound)) // (2 * c) + 3
    _check_int64(
        bound,
        a * smax * smax + abs(b) * smax * tmax + c * tmax * tmax,
        *(abs(f0) * smax * smax + abs(f1) * smax * tmax + abs(f2) * tmax * tmax for f0, f1, f2 in phi),
    )
    # each s's t window in Python ints (the discriminant can pass int64), then
    # all (s, t) pairs at once: t runs from lo(s) to hi(s) by one
    windows = []
    for s in range(0, smax + 1):
        # c t^2 + b s t + a s^2 - bound <= 0
        dd = b * b * s * s - 4 * c * (a * s * s - bound)
        if dd >= 0:
            root = math.isqrt(dd)
            windows.append((s, (-b * s - root) // (2 * c) - 1, (-b * s + root) // (2 * c) + 2))
    s_w, lo_w, hi_w = np.array(windows, dtype=np.int64).reshape(-1, 3).T
    ts, ss = interval_points(lo_w, hi_w, s_w)
    vals = a * ss * ss + b * ss * ts + c * ts * ts
    keep = (vals > 0) & (vals <= bound) & ((ss > 0) | (ts > 0))
    ss, ts, vals = ss[keep], ts[keep], vals[keep]
    # gcd(s, |t|) = 1 by lookup in a table sieved by each prime p
    coprime = np.ones((smax + 1, tmax + 1), dtype=bool)
    for p in primes_upto(max(smax, tmax)):
        coprime[::p, ::p] = False
    co = coprime[ss, np.abs(ts)]
    ss, ts, vals = ss[co], ts[co], vals[co]
    s2, st, t2 = ss * ss, ss * ts, ts * ts
    xs = [f0 * s2 + f1 * st + f2 * t2 for f0, f1, f2 in phi]
    # the content divides n_bound: the gcd of n_bound and the residues mod n_bound
    content = np.gcd(np.gcd(np.gcd(xs[0] % n_bound, xs[1] % n_bound), xs[2] % n_bound), n_bound)
    if np.any(vals % content):
        raise AssertionError("content must divide the level form")
    levels = vals // content
    keep = levels <= r_scaled
    return np.column_stack([x[keep] // content[keep] for x in xs]), levels[keep]


def row_radices(columns):
    """[(lo, span)] of the key columns, each its minimum and max - lo + 1 in
    Python ints, (0, 1) for an empty column."""
    return [(int(c.min()), int(c.max()) - int(c.min()) + 1) if len(c) else (0, 1) for c in columns]


def row_keys(columns, radices=None):
    """The rows as greedy mixed-radix int64 keys under radices (row_radices
    of these columns by default, or of other rows), None when a cell lies
    outside its (lo, span).  Each int64 column minus lo is one digit, its
    span the radix, packed most significant first into one key while the
    key's span product stays below 2^63.  A column whose span reaches 2^63,
    or an object column (Python ints), is a key of its own.  Under one set
    of radices equal rows have equal keys, and the keys sort as the rows."""
    if radices is None:
        radices = row_radices(columns)
    elif any(np.any((c < lo) | (c > lo + span - 1)) for c, (lo, span) in zip(columns, radices)):
        return None
    keys, size = [], 2 ** 63  # size: span product of keys[-1], 2^63 once it is closed
    for c, (lo, span) in zip(columns, radices):
        if span >= 2 ** 63 or c.dtype != np.int64:
            keys.append(c)
            span = 2 ** 63
        elif size * span < 2 ** 63:
            keys[-1] = keys[-1] * span + (c - lo)
        else:
            keys.append(c - lo)
            size = 1
        size *= span
    return keys


def sorted_keys(keys):
    """The int64 row keys (row_keys) as one (len(keys), N) array with the rows
    sorted: one key by np.sort, more by np.lexsort."""
    if len(keys) == 1:
        return np.sort(keys[0])[None]
    return np.stack(keys)[:, np.lexsort(keys[::-1])]


def row_order(columns):
    """The stable permutation that sorts rows by the key columns, the first
    most significant: np.lexsort(columns[::-1]), of their row_keys."""
    return np.lexsort(row_keys(columns)[::-1])


def box_scan(order, k, bound):
    """All integral elements with |coordinates| <= bound and |norm| = k.

    Exhaustive over the box, not over orbits; callers must treat the result as
    heuristic with respect to orbit completeness.
    """
    if bound < 1:
        raise ValueError("box bound must be >= 1")
    n = order.dim()
    out = []
    for coords in product(range(-bound, bound + 1), repeat=n):
        if all(c == 0 for c in coords):
            continue
        x = AlgebraElement(coords)
        if abs(order.norm(x)) == k:
            out.append(x)
    return sorted(out, key=lambda e: e.coords)


def indefinite_quadratic_shell(order, k):
    """Orbit representatives of {x in Z[sqrt(d)] : norm(x) = k}, k != 0: the
    points of norm k in the fundamental domain of the norm-one units
    (orders.unit_domain_points), sorted."""
    if k == 0:
        raise ValueError("k = 0 is not a torsor level")
    pts, norms = unit_domain_points(order, fundamental_unit(order), abs(k))
    return [element(p) for p in sorted(map(tuple, pts[norms == k].tolist()))]
