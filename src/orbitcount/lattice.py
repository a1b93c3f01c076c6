"""Integral points on affine fibers and cone sections, box scans, and the
per-level orbit representatives of real quadratic orders.

cone_section_points realises the level-set geometry directly: build the
affine lattice fiber ell = k, restrict the cone equation to it, and solve the
resulting definite inhomogeneous quadratic with shells.quadratic_points, in
every dimension.  The conic parametrisation below, on a Gauss-reduced level
form, is an equivalent fast path for three variables, used by the bulk
series driver and cross-checked against the fiber route.  row_keys is the
one row packer, for the orbit checks of counting.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from .algebra import AlgebraElement, element
from .exact import clear_denominators, gcd_vector, inverse, unimodular_completion
from .numtheory import primes_upto
from .orders import fundamental_unit, unit_domain_points
# definite_shell is no longer called here; it stays importable as
# orbitcount.lattice.definite_shell, a name perfbench/tracer.py wraps
from .shells import _check_int64, definite_shell, gauss_reduce, interval_points, quadratic_points


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
    q = 0 through the base point, by the lines through it (Cassels, Rational
    Quadratic Forms, 1978).

    Returns (phi, psi, content_bound): phi is a 3x3 integer matrix of binary
    quadratic form coefficients (rows = coordinates, columns = coefficients of
    s^2, s t, t^2), psi the positive definite integer form with
    psi(s, t) = scale_e * ell(phi(s, t)), Gauss-reduced (|b| <= a <= c), and
    content_bound an integer N such that gcd(phi(s, t)) divides N for coprime
    (s, t).  Neither the scan of conic_points_up_to nor N depends on the basis
    the section is written in; another base point keeps the discriminant of
    psi, though not always N.

    With v0 the base point over its content, the rows v0, w1, w2 of
    inverse(unimodular_completion(v0)) are a basis of Z^3.  For w = s w1 + t w2,
    Q = c q(w) and L = 2 c B(v0, w), with c the sign of the fiber form times
    the lcm of the denominators and the five coefficients then divided by
    their gcd, phi = Q v0 - L w lies on the cone: q(phi) = L (L q(w) - 2 Q
    B(v0, w)) = 0.  psi has no real zero: psi(s, t) = 0 puts phi in ker(ell),
    where q is definite, so phi = 0, Q = L = 0, and v0, w would span an
    isotropic plane of a nondegenerate ternary form.  The plane of w1, w2 meets
    ker(ell) in some w != 0, where psi = e ell(v0) Q(w) has the sign of c q(w),
    which is positive, so psi is positive definite.  Another complement of v0
    changes w to M w + lambda v0, M in GL_2(Z), lambda linear in (s, t): Q
    becomes Q + lambda L and phi only changes by (s, t) -> M (s, t).
    In the basis v0, w1, w2, phi has coordinates (Q, -L s, -L t), so for coprime
    (s, t) gcd(phi) = gcd(Q, L).  Write L = g (a s + b t) with gcd(a, b) = 1 and
    change to coprime u = a s + b t, v with s = x u - b v, t = y u + a v, where
    a x + b y = 1: then Q(s, t) = Q(-b, a) v^2 mod u.  If p^k exactly divides
    gcd(Q, L) and p^i exactly divides g with k > i, then p^(k-i) divides u, so
    p does not divide v, and p^(k-i) divides Q(-b, a).
    Hence gcd(Q, L) divides N = g |Q(-b, a)|, and N > 0, since Q(-b, a) = 0
    would make v0, -b w1 + a w2 an isotropic plane.
    """
    if section.dim != 3:
        raise ValueError("conic parametrisation needs three variables")
    v0 = tuple(x // gcd_vector(section.base_point) for x in section.base_point)
    _, w1, w2 = inverse(unimodular_completion(v0))
    bil = section.bilinear
    ints, _ = clear_denominators((bil(w1, w1), 2 * bil(w1, w2), bil(w2, w2), 2 * bil(v0, w1), 2 * bil(v0, w2)))
    d = gcd_vector(ints) * (1 if section.fiber_frame.mult > 0 else -1)
    q0, q1, q2, l0, l1 = (x // d for x in ints)
    # phi(w) = Q(w) v0 - L(w) w,  w = s w1 + t w2
    phi = tuple((q0 * x0 - l0 * x1, q1 * x0 - l0 * x2 - l1 * x1, q2 * x0 - l1 * x2) for x0, x1, x2 in zip(v0, w1, w2))
    g = math.gcd(l0, l1)
    a, b = l0 // g, l1 // g
    n_bound = g * abs(q0 * b * b - q1 * a * b + q2 * a * a)
    psi = tuple(int(section.scale_e * section.ell_value(col)) for col in zip(*phi))
    # Gauss-reduce psi to |b| <= a <= c by the SL_2(Z) change (s, t) -> M (s, t),
    # applied to phi too
    ((p, q), (u, v)), psi = gauss_reduce(psi)
    phi = tuple((f0 * p * p + f1 * p * u + f2 * u * u, 2 * f0 * p * q + f1 * (p * v + q * u) + 2 * f2 * u * v,
                 f0 * q * q + f1 * q * v + f2 * v * v) for f0, f1, f2 in phi)
    return phi, psi, n_bound


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
    key's span product stays below 2^63.  A column whose span reaches 2^63
    is a key of its own.  Under one set of radices equal rows have equal
    keys, and the keys sort as the rows."""
    if radices is None:
        radices = row_radices(columns)
    elif any(np.any((c < lo) | (c > lo + span - 1)) for c, (lo, span) in zip(columns, radices)):
        return None
    keys, size = [], 2 ** 63  # size: span product of keys[-1], 2^63 once it is closed
    for c, (lo, span) in zip(columns, radices):
        if span >= 2 ** 63:
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
