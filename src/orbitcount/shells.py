"""Exact enumeration on positive definite quadratic forms.

The hot paths are numpy int64 kernels, their headroom bounded in Python ints
first: quadratic_points (every quadric fiber shell and every ball) and
theta_series.  definite_shell, recursive backtracking with exact rational
bounds from the form's LDL decomposition, is the reference enumerator beside
them.  Floats appear only as seeds for integer square roots and every
accepted point passes an exact integer check.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np

from .exact import inverse, isqrt_frac_floor, ldl, mat, scalar


@dataclass(frozen=True)
class PositiveForm:
    """A positive definite Gram matrix with the exact data the enumerators
    read from it: gram (rows of ints and Fractions), its LDL pivots and unit
    upper factor (ldl), its inverse, and the least s making s Q
    integer-valued with the integer matrix 2sG (x^t integer_gram x =
    2 s Q(x)).  Built once by positive_form and handed down, so one command
    takes one elimination per form."""

    gram: tuple
    pivots: tuple
    u: tuple
    inverse: tuple
    scale: int
    integer_gram: tuple


def positive_form(gram):
    """gram as a PositiveForm, returned as it is when it is one.  Refuses a
    Gram matrix that is not square, not symmetric or not positive definite
    (decided by the signs of the ldl pivots)."""
    if isinstance(gram, PositiveForm):
        return gram
    gram = mat(gram)
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError("gram matrix has wrong shape")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise ValueError("gram matrix is not symmetric")
    try:
        d, u = ldl(gram)
    except ValueError:
        d = [0]
    if any(x <= 0 for x in d):
        raise ValueError("form is not positive definite (exact LDL pivots)")
    return PositiveForm(gram, tuple(d), u, inverse(gram), *_scaled_integer_gram(gram))


def definite_shell(gram, m):
    """Complete set {x in Z^n : x^t G x = m}, lexicographically sorted.

    Exact recursive backtracking; G (a matrix or a PositiveForm) must be
    positive definite, m >= 0 rational.
    """
    form = positive_form(gram)
    d, u = form.pivots, form.u
    m = scalar(Fraction(m))
    if m < 0:
        raise ValueError("negative shell level")
    n = len(d)
    out = []
    x = [0] * n

    def walk(i, remaining):
        # term i of the LDL expansion: d_i * (x_i + sum_{j>i} u_ij x_j)^2
        c = sum(u[i][j] * x[j] for j in range(i + 1, n))
        budget = Fraction(remaining) / d[i]
        if i == 0:
            # exact equality: (x_0 + c)^2 == budget
            num, den = budget.numerator, budget.denominator
            rn, rd = math.isqrt(num), math.isqrt(den)
            if rn * rn != num or rd * rd != den:
                return
            root = Fraction(rn, rd)
            for val in {-c + root, -c - root}:
                f = Fraction(val)
                if f.denominator == 1:
                    x[0] = f.numerator
                    out.append(tuple(x))
            return
        g = isqrt_frac_floor(budget)
        lo = math.floor(-c) - g - 1
        hi = math.ceil(-c) + g + 1
        for v in range(lo, hi + 1):
            t = d[i] * (v + c) ** 2
            if t <= remaining:
                x[i] = v
                walk(i - 1, remaining - t)
        x[i] = 0

    walk(n - 1, m)
    return sorted(out)


def _coordinate_bounds(gram, r):
    # |x_i| <= sqrt(r * (G^-1)_ii) for x^t G x <= r
    ginv = positive_form(gram).inverse
    return [isqrt_frac_floor(Fraction(r) * Fraction(ginv[i][i])) for i in range(len(ginv))]


def _scaled_integer_gram(gram):
    """(s, 2sG as rows of Python ints) with s minimal so that s*Q is integer-valued."""
    n = len(gram)
    dens = (Fraction(gram[i][j] * (1 if i == j else 2)).denominator for i in range(n) for j in range(i, n))
    s = math.lcm(*dens)
    return s, tuple(tuple(int(2 * s * Fraction(e)) for e in row) for row in gram)  # x^t gi x = 2 s Q(x)


def gauss_reduce(form):
    """(M, reduced) for the positive definite binary form f(s, t) = a s^2 +
    b s t + c t^2, form = (a, b, c) in Python ints: the Gauss-reduced form
    f(M (s, t)) = (a', b', c') with |b'| <= a' <= c' and its SL_2(Z) matrix M,
    built from the shears (s, t) -> (s - k t, t) and the swaps (s, t) -> (-t, s)."""
    (a, b, c), m = form, ((1, 0), (0, 1))
    while True:
        k = -((a - b) // (2 * a))  # b - 2ak in (-a, a]
        b, c = b - 2 * k * a, a * k * k - b * k + c
        m = tuple((m0, m1 - k * m0) for m0, m1 in m)
        if a <= c:
            return m, (a, b, c)
        a, b, c = c, -b, a
        m = tuple((m1, -m0) for m0, m1 in m)


def _box(bounds):
    """All x in Z^k with |x_i| <= bounds[i] as a lexicographically sorted (#, k)
    int64 array; one empty row when k = 0."""
    return _product([np.arange(-b, b + 1, dtype=np.int64) for b in bounds])


def _product(cols):
    """The rows of the Cartesian product of the 1-D int64 arrays cols, the
    first column slowest, as a (#, len(cols)) array."""
    k = len(cols)
    shape = [len(col) for col in cols]
    pts = np.empty(shape + [k], dtype=np.int64)
    for j, col in enumerate(cols):
        pts[..., j] = col.reshape([-1 if i == j else 1 for i in range(k)])
    return pts.reshape(math.prod(shape), k)


def _bilinear_bound(m, bx, by=None):
    """Python-int bound on |x^t m y| (and every partial sum of it) over
    |x_i| <= bx[i], |y_j| <= by[j]; by defaults to bx."""
    by = bx if by is None else by
    return sum(abs(m[i][j]) * bx[i] * by[j] for i in range(len(bx)) for j in range(len(by)))


def _quadratic_values(pts, m):
    """x^t m x for each row x of the int64 array pts, m a square matrix of
    Python ints: the diagonal terms and each pair i < j once, with the
    coefficient m_ij + m_ji, as elementwise int64 products into two buffers.
    Every product x_i x_j c (c != 0) and partial sum is bounded by
    _bilinear_bound(m, b) when |x_i| <= b_i, which the caller checks below
    2^63; so a coefficient past int64 meets only b_i b_j = 0 and adds 0."""
    out = tmp = None
    for i, j in combinations_with_replacement(range(len(m)), 2):
        c = m[i][i] if i == j else m[i][j] + m[j][i]
        if c and abs(c) < 2 ** 63:
            tmp = np.multiply(pts[:, i], pts[:, j], out=tmp)
            tmp *= c
            if out is None:
                out, tmp = tmp, None
            else:
                out += tmp
    return np.zeros(len(pts), dtype=np.int64) if out is None else out


def _check_int64(*bounds):
    big = max(bounds)
    if big >= 2 ** 63:
        raise ValueError(f"an int64 intermediate could reach {big} >= 2^63")


def ball_points(gram, r):
    """All x in Z^n with 0 < Q(x) <= r, as (points array, 2s*values array, scale s).

    quadratic_points in ball mode, 0 < sQ(x) <= sr, so exact and int64 with
    the headroom checked first; gram is a matrix or a PositiveForm.
    """
    form = positive_form(gram)
    pts, vals = quadratic_points(form, [0] * len(form.gram), 0, math.floor(form.scale * r))
    return pts, 2 * vals, form.scale


def vec_isqrt_exact(a):
    """Vectorised floor(sqrt) with exact integer correction; a nonnegative int64."""
    r = np.floor(np.sqrt(a.astype(np.float64))).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= a, r + 1, r)
    r = np.where(r * r > a, r - 1, r)
    return r


# rows per vectorised block of a box walk (quadratic_points,
# orders.unit_domain_points): bounds peak memory independently of the box
DOMAIN_BLOCK = 1 << 16


def interval_points(lo, hi, *cols):
    """Every integer of the intervals [lo_i, hi_i] (int64 arrays; hi_i < lo_i
    gives none), rows in order and each ascending, with the entry i of each
    array of cols repeated beside it: (integers, *repeated cols)."""
    width = np.maximum(hi - lo + 1, 0)
    starts = np.repeat(np.cumsum(width) - width - lo, width)
    return (np.arange(len(starts), dtype=np.int64) - starts, *(np.repeat(c, width) for c in cols))


def quadratic_points(gram, b, c, h=None):
    """The integer y with f(y) = s y^t G y + 2 b.y + c = 0 (h None) or with
    0 < f(y) <= h, as (points (N, n) int64, values f (N,) int64) in no fixed
    order; G is a positive definite Gram matrix or its PositiveForm, s its
    scale (1 for an integer matrix), b, c and h are integers.  Vectorised
    Fincke-Pohst: f <= h is the ellipsoid s (y - y0)^t G (y - y0) <= R with
    y0 = -(sG)^-1 b, R = h - c - b.y0; every coordinate but the one j of the
    largest (G^-1)_jj runs over its box |y_i - y0_i| <= sqrt(R (G^-1)_ii / s)
    in blocks of DOMAIN_BLOCK rows, and y_j is solved on each row by one
    vec_isqrt_exact.  Every int64 intermediate is bounded in Python ints
    first; ValueError at 2^63."""
    form = positive_form(gram)
    n, s, g, inv = len(form.gram), form.scale, form.integer_gram, form.inverse
    hh = 0 if h is None else h
    y0 = [-Fraction(sum(x * bk for x, bk in zip(row, b) if bk), s) for row in inv]
    radius = hh - c - sum(bi * yi for bi, yi in zip(b, y0) if bi)
    j = max(range(n), key=lambda i: inv[i][i])
    # the box of the other coordinates z, with z_j = 0 (R < 0: no row of the
    # w = 0 box has a root); on it 2f = a y_j^2 + 2 p y_j + e with
    # p = g_j . z + 2 b_j and e = z^t g z + 4 b . z + 2c, g = 2sG
    half = [isqrt_frac_floor(max(radius, 0) * row[i] / s) for i, row in enumerate(inv)]
    box = [(0, 0) if i == j else (math.floor(y) - w, math.ceil(y) + w)
           for i, (y, w) in enumerate(zip(y0, half))]
    spans = [hi - lo + 1 for lo, hi in box]
    size = math.prod(spans)
    zmax = [max(-lo, hi) for lo, hi in box]
    a, gz = g[j][j], [[0 if j in (i, k) else x for k, x in enumerate(row)] for i, row in enumerate(g)]
    pmax = _bilinear_bound([g[j]], [1], zmax) + 2 * abs(b[j])
    emax = _bilinear_bound(gz, zmax) + 4 * _bilinear_bound([b], [1], zmax) + 2 * abs(c)
    dmax = pmax * pmax + a * (emax + 2 * abs(hh))
    smax = math.isqrt(dmax)
    ymax = (pmax + smax) // a + 1
    _check_int64(size, *zmax, pmax, emax + 2 * abs(hh), (smax + 2) ** 2, pmax + smax,
                 a * ymax * ymax + 2 * pmax * ymax + emax,
                 *(abs(x) for row in g for x in row), *(4 * abs(x) for x in b), 2 * abs(c), 2 * abs(hh))
    pts, vals = [], []
    for start in range(0, size, DOMAIN_BLOCK):
        idx = np.arange(start, min(start + DOMAIN_BLOCK, size), dtype=np.int64)
        z = np.array(np.unravel_index(idx, spans), dtype=np.int64).T + [lo for lo, _ in box]
        p = _linear_values(z.T, g[j], np.full(len(idx), 2 * b[j], dtype=np.int64))
        e = _linear_values(z.T, [4 * x for x in b], _quadratic_values(z, gz) + 2 * c)
        disc = p * p - a * (e - 2 * hh)
        rows = np.flatnonzero(disc >= 0)
        p, e, root = p[rows], e[rows], vec_isqrt_exact(disc[rows])
        if h is None:
            exact = root * root == disc[rows]
            # the roots (-p -+ root) / a, the second one only when it differs
            num = np.concatenate([-p - root, (root - p)[root > 0]])
            sel = np.concatenate([rows, rows[root > 0]])
            hit = np.concatenate([exact, exact[root > 0]]) & (num % a == 0)
            sel, y, f = sel[hit], num[hit] // a, np.zeros(int(hit.sum()), dtype=np.int64)
        else:
            # a y^2 + 2 p y + e <= 2h for (-p - root) / a <= y <= (root - p) / a
            y, p, e, sel = interval_points(-((p + root) // a), (root - p) // a, p, e, rows)
            f = ((a * y + 2 * p) * y + e) >> 1
            keep = f > 0
            sel, y, f = sel[keep], y[keep], f[keep]
        z = z[sel]
        z[:, j] = y
        pts.append(z)
        vals.append(f)
    return np.concatenate(pts), np.concatenate(vals)


def _half_histogram(twice, r):
    """Histogram over 0..r of twice // 2 for the nonnegative even int64
    values twice; the values past 2r are dropped."""
    if np.any(twice & 1):
        raise AssertionError("mass off the integer grid")
    return np.bincount(twice[twice <= 2 * r] >> 1, minlength=r + 1)


def _linear_values(cols, coeffs, const=0):
    """const + sum_j coeffs[j] * cols[j] for int64 columns and Python-int
    coefficients, added term by term (a Python int when every coefficient is
    0); the caller bounds every partial sum below 2^63."""
    out = const
    for c, col in zip(coeffs, cols):
        if c:
            out = c * col + out
    return out


def theta_series(gram, r):
    """Exact representation counts T[m] = #{x in Z^n : Q(x) = m} for 0 <= m <= r.

    Q must be integer-valued and positive definite, dim in {2, 3, 4}.  With u the
    first two coordinates and w the rest, 2Q = u^t A u + 2 u^t X w + w^t C w in
    the integer blocks of 2G, after the SL_2(Z) change of u that Gauss-reduces
    A (gauss_reduce).  Complete the square with D = det A: split
    adj(A) X w = D q + c with 0 <= c < D, so that b_c = A c / D is integral and

        2Q(u, w) = inner_c(u + q) + outer(w),
        inner_c(v) = v^t A v + 2 v^t b_c,  outer(w) = w^t C w - q^t A q - 2 q^t b_c.

    T is the sum over the classes c of the convolution of the inner histogram
    (a v-box, shifted by its minimum) with the outer histogram of the w in
    class c, truncated to 0..r (truncated_product_sum).  The class of w
    depends on each w_j only modulo its period P_j = D / gcd(D, column j of
    adj(A) X), so the w-box splits into the sub-boxes w = w0 + P m of fixed
    residues, on each of which c is constant and q = q0 + S m is affine in m
    with the integer slopes S = adj(A) X P / D: no division, sort or hash
    runs per w.  Every value is an int64 computed after a Python-int
    headroom bound.  In dim 2, w is empty: the one outer histogram is the
    unit mass at 0, so T is the inner histogram itself and no product is
    taken.
    """
    form = positive_form(gram)
    if form.scale != 1:
        raise ValueError("theta_series requires an integer-valued form")
    g2 = form.integer_gram  # x^t g2 x = 2 Q(x)
    n = len(g2)
    if n not in (2, 3, 4):
        raise ValueError("theta_series supports dim 2..4")
    r = int(r)
    # u = M u' with M Gauss-reducing A keeps T and bounds the v-box below by
    # A's minima, not by the skew of the basis: A becomes M^t A M, X becomes M^t X
    m, (a0, b0, c0) = gauss_reduce((g2[0][0], 2 * g2[0][1], g2[1][1]))
    a = [[a0, b0 // 2], [b0 // 2, c0]]
    xb = [[m[0][i] * g2[0][j] + m[1][i] * g2[1][j] for j in range(2, n)] for i in range(2)]
    cb = [row[2:] for row in g2[2:]]
    det_a = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    adj_x = [
        [a[1][1] * xb[0][j] - a[0][1] * xb[1][j] for j in range(n - 2)],
        [a[0][0] * xb[1][j] - a[1][0] * xb[0][j] for j in range(n - 2)],
    ]
    # w ranges over the coordinate box of the Q-ball; inner_c(v) <= 2r puts
    # y = v + c/D in the ball y^t A y <= 2r + (c/D)^t A (c/D) <= 2r + sum |A_ij|,
    # whose integer box widened by one holds v = y - c/D; with A^-1 = adj(A) / D
    # that box is |y_i| <= sqrt((2r + sum |A_ij|) A_jj / D) for j != i
    bw = _coordinate_bounds(form, r)[2:]
    span = 2 * r + sum(abs(e) for row in a for e in row)
    bv = [math.isqrt(span * a[1][1] // det_a) + 1, math.isqrt(span * a[0][0] // det_a) + 1]
    pw = [_bilinear_bound([row], [1], bw) for row in adj_x]
    bq = [t // det_a + 1 for t in pw]
    bb = [abs(row[0]) + abs(row[1]) for row in a]  # |(A c / D)_i| < sum_j |A_ij|
    inner_max = _bilinear_bound(a, bv) + 2 * _bilinear_bound([bb], [1], bv)
    outer_max = _bilinear_bound(cb, bw) + _bilinear_bound(a, bq) + 2 * _bilinear_bound([bb], [1], bq)
    _check_int64(2 * inner_max, 2 * outer_max, max(pw), det_a * max(bb), det_a ** 2,
                 max(abs(e) for row in (*a, *xb, *cb, *adj_x) for e in row))

    vs = _box(bv)
    vav = _quadratic_values(vs, a)
    if n == 2:
        return _half_histogram(vav, r)
    periods = [det_a // math.gcd(det_a, adj_x[0][j], adj_x[1][j]) for j in range(n - 2)]
    slopes = [[row[j] * periods[j] // det_a for j in range(n - 2)] for row in adj_x]
    classes = {}  # c -> (b_c, inner histogram, its shift lo, outer values of the sub-boxes)
    for start in product(*(range(min(p, 2 * b + 1)) for p, b in zip(periods, bw))):
        w0 = [s - b for s, b in zip(start, bw)]
        m_ranges = [np.arange((b - x) // p + 1, dtype=np.int64) for x, b, p in zip(w0, bw, periods)]
        ws = _product([x + p * m for x, p, m in zip(w0, periods, m_ranges)])
        cq = [divmod(sum(e * x for e, x in zip(row, w0)), det_a) for row in adj_x]
        c = tuple(t for _, t in cq)
        if c not in classes:
            ac = [row[0] * c[0] + row[1] * c[1] for row in a]
            if any(t % det_a for t in ac):
                raise AssertionError("A c not divisible by det A")
            b = [t // det_a for t in ac]
            inner = _linear_values(vs.T, [2 * t for t in b], vav)
            lo = int(inner.min())
            classes[c] = b, _half_histogram(inner - lo, r), lo, []
        b, _, lo, outers = classes[c]
        # q = q0 + S m for w = w0 + P m; each partial sum is q at a point of
        # the box or the change of q between two of them, so below 2 bq
        ms = _product(m_ranges).T
        q = [_linear_values(ms, row, q0) for row, (q0, _) in zip(slopes, cq)]
        # q^t (A q + 2 b) = q^t A q + 2 q^t b, bounded by outer_max term by term
        qaq = sum(qi * (row[0] * q[0] + row[1] * q[1] + 2 * bi) for qi, row, bi in zip(q, a, b))
        outers.append(_quadratic_values(ws, cb) - qaq + lo)
    pairs = []
    for _, hin, _, outers in classes.values():
        outer = np.concatenate(outers)
        if np.any(outer < 0):
            raise AssertionError("shifted outer value negative")
        pairs.append((hin, _half_histogram(outer, r)))
    return truncated_product_sum(pairs, r)


# NTT primes k * 2^e + 1 below 2^30, so that a product of two residues stays
# below 2^60 in uint64; 3 is a primitive root of both.  Their product bounds
# what two primes recover exactly, and the smaller e bounds the length.
_NTT_PRIMES = (998244353, 469762049)
_NTT_MAX_LENGTH = 2 ** 23
# Butterfly stages of half-width below this run on a transposed copy, so that
# numpy's inner loop runs over the blocks rather than over the h-wide halves.
_NARROW_WIDTH = 16
# Relative costs that choose the route, measured on a 2-vCPU Intel Xeon
# (numpy 2.4): one transform of length n costs about (n + _STAGE_COST) *
# log2(n) units, one np.convolve of two length-m + 1 factors about
# (m + 1)^2 / _CONVOLVE_SPEED units.
_STAGE_COST = 4000
_CONVOLVE_SPEED = 6


@functools.cache
def _stage_twiddles(p, h, inverse):
    """w^j mod p for 0 <= j < h as a contiguous uint64 array, with w the
    primitive 2h-th root of unity 3^((p-1)/2h) mod p, or its inverse: the
    twiddles of the butterfly stage of half-width h; built by doubling."""
    w = pow(3, (p - 1) // (2 * h), p)
    if inverse:
        w = pow(w, -1, p)
    t = np.ones(h, dtype=np.uint64)
    k = 1
    while k < h:
        t[k: 2 * k] = t[:k] * np.uint64(pow(w, k, p)) % np.uint64(p)
        k *= 2
    return t


def _dif_butterfly(u, v, tw, p_):
    """u, v <- u + v, (u - v) tw mod p in place.  A sum of two residues is
    brought back below p by one conditional subtraction (in uint64 u - p
    wraps past u when u < p, so min(u, u - p) is u mod p); the difference
    u + p - v < 2p goes into the twiddle product, the one %."""
    d = u + p_
    d -= v
    u += v
    np.minimum(u, u - p_, out=u)
    if tw is None:
        np.minimum(d, d - p_, out=v)
    else:
        d *= tw
        np.remainder(d, p_, out=v)


def _dit_butterfly(u, v, tw, p_):
    """u, v <- u + v tw, u - v tw mod p in place."""
    t = v
    if tw is not None:
        t = v * tw
        np.remainder(t, p_, out=t)
    d = u + p_
    d -= t
    u += t
    np.minimum(u, u - p_, out=u)
    np.minimum(d, d - p_, out=v)


def _narrow_stages(a, p, hs, butterfly, inverse):
    """Run the stages of half-widths hs, all below _NARROW_WIDTH and within
    blocks of width w = 2 max(hs), on the copy of a laid out as (w, n / w):
    stage h sees it as (w / 2h, 2, h, n / w), with the twiddles as a column."""
    p_ = np.uint64(p)
    rows = a.reshape(-1, 2 * max(hs))
    t = np.ascontiguousarray(rows.T)
    for h in hs:
        blocks = t.reshape(-1, 2, h, t.shape[1])
        tw = _stage_twiddles(p, h, inverse)[:, None] if h > 1 else None
        butterfly(blocks[:, 0], blocks[:, 1], tw, p_)
    rows[:] = t.T


def _ntt_forward(a, p):
    """In-place decimation-in-frequency NTT of the uint64 residues a (length
    n a power of two): natural order in, bit-reversed order out."""
    p_ = np.uint64(p)
    h = len(a) // 2
    while h >= _NARROW_WIDTH:
        blocks = a.reshape(-1, 2, h)
        _dif_butterfly(blocks[:, 0], blocks[:, 1], _stage_twiddles(p, h, False), p_)
        h //= 2
    if h:
        _narrow_stages(a, p, [h >> k for k in range(h.bit_length())], _dif_butterfly, False)
    return a


def _ntt_inverse(a, p):
    """In-place decimation-in-time inverse NTT of uint64 residues:
    bit-reversed order in, natural order out, scaled by 1/n mod p."""
    p_ = np.uint64(p)
    n = len(a)
    h = min(n, _NARROW_WIDTH)
    if h > 1:
        _narrow_stages(a, p, [1 << k for k in range(h.bit_length() - 1)], _dit_butterfly, True)
    while h < n:
        blocks = a.reshape(-1, 2, h)
        _dit_butterfly(blocks[:, 0], blocks[:, 1], _stage_twiddles(p, h, True), p_)
        h *= 2
    a *= np.uint64(pow(n, -1, p))
    a %= p_
    return a


def _transform_plan(r, products, factors, primes):
    """(estimated cost, length n) of the cheapest route to the sum of
    `products` products of `factors` distinct factors, truncated to 0..r,
    under `primes` primes; n = 0 stands for one np.convolve per product.
    A transform route takes `factors` forward and one inverse transform per
    prime.  With n1 the least power of two above r, a cyclic product of
    length n1 wraps only the terms of levels n1..2r onto 0..2r - n1, so
    levels 2r - n1 < j <= r come out exact and the prefix 0..2r - n1 is
    taken again, by its own cheapest route; length 2 n1 wraps nothing.
    Lengths past _NTT_MAX_LENGTH are not candidates."""
    plans = [(products * (r + 1) ** 2 // _CONVOLVE_SPEED, 0)]

    def transforms(n):
        return primes * (factors + 1) * (n + _STAGE_COST) * (n.bit_length() - 1)

    n1 = 1 << r.bit_length()
    for n in (n1, 2 * n1):
        if n <= _NTT_MAX_LENGTH:
            m = 2 * r - n
            prefix = _transform_plan(m, products, factors, primes)[0] if m >= 0 else 0
            plans.append((transforms(n) + prefix, n))
    return min(plans)


def _distinct(arrays):
    """(the distinct arrays by value, the index of each array in them)."""
    distinct, index, seen = [], [], {}
    for x in arrays:
        same = seen.setdefault((len(x), hash(x.tobytes())), [])
        i = next((i for i in same if np.array_equal(distinct[i], x)), None)
        if i is None:
            i = len(distinct)
            distinct.append(x)
            same.append(i)
        index.append(i)
    return distinct, index


def _product_sum(pairs, r, primes):
    """Exact sum of the products of pairs truncated to 0..r, by the route
    _transform_plan picks; every coefficient is below the product of primes."""
    factors, index = _distinct([x for pair in pairs for x in pair])
    n = _transform_plan(r, len(pairs), len(factors), len(primes))[1]
    if not n:
        out = np.zeros(r + 1, dtype=np.int64)
        for a, b in pairs:
            c = np.convolve(a, b)[: r + 1]
            out[: len(c)] += c
        return out
    residues = []
    for p in primes:
        p_ = np.uint64(p)
        # each distinct factor is transformed once and dropped after its last use
        uses = {i: index.count(i) for i in set(index)}
        spectra = {}
        acc = None
        for i, j in zip(index[::2], index[1::2]):
            for k in (i, j):
                if k not in spectra:
                    f = spectra[k] = np.zeros(n, dtype=np.uint64)
                    f[: len(factors[k])] = factors[k] % p
                    _ntt_forward(f, p)
            prod = spectra[i] * spectra[j]
            prod %= p_
            if acc is None:
                acc = prod
            else:
                acc += prod
                np.minimum(acc, acc - p_, out=acc)
            for k in (i, j):
                uses[k] -= 1
                if not uses[k]:
                    del spectra[k]
        residues.append(_ntt_inverse(acc, p)[: r + 1].astype(np.int64))
    out = residues[0]
    if len(residues) == 2:
        (p1, p2), (x1, x2) = primes, residues
        # Garner: x = x1 + p1 t with t = (x2 - x1) / p1 mod p2; x < p1 p2 < 2^59
        out = x1 + p1 * ((x2 - x1) % p2 * pow(p1, -1, p2) % p2)
    m = 2 * r - n
    if m >= 0:
        out[: m + 1] = _product_sum([(a[: m + 1], b[: m + 1]) for a, b in pairs], m, primes)
    return out


def truncated_product_sum(pairs, r):
    """Exact sum over (a, b) in pairs of the first r + 1 coefficients of the
    polynomial product a * b; a, b are nonnegative int64 arrays of length at
    most r + 1, and anything else is refused with ValueError.

    Every output coefficient is at most B = sum over pairs of sum(a) * max(b),
    bounded in Python ints first, on every route: one prime suffices when
    B < p1, two primes combined by Garner's step when B < p1 p2, and a larger
    B, or r >= _NTT_MAX_LENGTH, is refused before any product is taken.
    _transform_plan then prices one np.convolve per pair against
    number-theoretic transforms at the least power of two n above r (with
    the wrapped prefix 0..2r - n taken again by the same choice) or at 2n,
    with no wrap.  The transforms take each distinct factor once per prime,
    sum the products in the transform domain and take one inverse
    transform per prime.
    """
    for a, b in pairs:
        for x in (a, b):
            dtype = getattr(x, "dtype", type(x).__name__)
            if dtype != np.int64:
                raise ValueError(f"a factor has dtype {dtype}, not int64")
        if max(len(a), len(b)) > r + 1:
            raise ValueError(f"a factor of length {max(len(a), len(b))} is longer than r + 1 = {r + 1}")
        if a.min(initial=0) < 0 or b.min(initial=0) < 0:
            raise ValueError("a factor has a negative entry")
    if r >= _NTT_MAX_LENGTH:
        raise ValueError(f"transform length {1 << r.bit_length()} exceeds the NTT primes' limit {_NTT_MAX_LENGTH}")
    bound = sum(sum(a.tolist()) * int(b.max(initial=0)) for a, b in pairs)
    p1, p2 = _NTT_PRIMES
    if bound >= p1 * p2:
        raise ValueError(f"a coefficient could reach {bound} >= {p1 * p2}, past two NTT primes")
    return _product_sum(pairs, r, _NTT_PRIMES[: 1 if bound < p1 else 2])
