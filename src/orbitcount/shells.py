"""Exact enumeration on positive definite quadratic forms.

The reference enumerator is recursive backtracking with exact rational
interval bounds from the form's LDL decomposition.  Vectorised integer paths
(numpy int64) cover the hot cases; floats appear only as seeds for integer
square roots and every accepted point passes an exact integer check.
"""

import functools
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .exact import definiteness, inverse, isqrt_frac_floor, ldl, mat, scalar


def _check_positive_definite(gram):
    """Refuse a Gram matrix that is not square, not symmetric or not
    positive definite."""
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError("gram matrix has wrong shape")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise ValueError("gram matrix is not symmetric")
    if definiteness(gram) != 1:
        raise ValueError("form is not positive definite (exact minor check)")


def is_integer_valued(gram):
    """True when x^t G x is an integer for every integer x."""
    return _scaled_integer_gram(gram)[0] == 1


def definite_shell(gram, m, shift=None):
    """Complete set {x in Z^n : (x+shift)^t G (x+shift) = m}, lexicographically sorted.

    Exact recursive backtracking; G must be positive definite, m >= 0 rational.
    """
    gram = mat(gram)
    _check_positive_definite(gram)
    m = scalar(Fraction(m))
    if m < 0:
        raise ValueError("negative shell level")
    n = len(gram)
    s = tuple(scalar(Fraction(c)) for c in (shift or (0,) * n))
    d, u = ldl(gram)
    out = []
    x = [0] * n

    def walk(i, remaining):
        # term i of the LDL expansion: d_i * (y_i + sum_{j>i} u_ij y_j)^2, y = x + s
        c = s[i] + sum(u[i][j] * (x[j] + s[j]) for j in range(i + 1, n))
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
    ginv = inverse(gram)
    return [isqrt_frac_floor(Fraction(r) * Fraction(ginv[i][i])) for i in range(len(gram))]


def _scaled_integer_gram(gram):
    """(s, 2sG as rows of Python ints) with s minimal so that s*Q is integer-valued."""
    n = len(gram)
    dens = (Fraction(gram[i][j] * (1 if i == j else 2)).denominator for i in range(n) for j in range(i, n))
    s = math.lcm(*dens)
    return s, [[int(2 * s * Fraction(e)) for e in row] for row in gram]  # x^t gi x = 2 s Q(x)


def _box(bounds):
    """All x in Z^k with |x_i| <= bounds[i] as a lexicographically sorted (#, k)
    int64 array; one empty row when k = 0."""
    pts = np.zeros((1, 0), dtype=np.int64)
    for b in bounds:
        col = np.arange(-b, b + 1, dtype=np.int64)
        pts = np.column_stack([np.repeat(pts, len(col), axis=0), np.tile(col, len(pts))])
    return pts


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
        raise ValueError(f"an int64 intermediate could reach {big} >= 2^63; form too large")


def ball_points(gram, r):
    """All x in Z^n with 0 < Q(x) <= r, as (points array, 2s*values array, scale s).

    Vectorised over the last coordinate slabs; exact because all arithmetic is
    int64 on scaled integer data, with the headroom checked first.  dim <= 4.
    """
    gram = mat(gram)
    _check_positive_definite(gram)
    n = len(gram)
    if n > 4:
        raise ValueError("ball_points supports dim <= 4")
    s, gi = _scaled_integer_gram(gram)
    bounds = _coordinate_bounds(gram, r)
    target = 2 * s * r
    _check_int64(_bilinear_bound(gi, bounds), target, max(abs(e) for row in gi for e in row))
    flat = _box(bounds[:-1])  # (#, n-1)
    pts_out, vals_out = [], []
    part = _quadratic_values(flat, [row[: n - 1] for row in gi[: n - 1]])
    gi = np.array(gi, dtype=np.int64)
    cross = 2 * flat @ gi[: n - 1, n - 1]
    last_diag = gi[n - 1, n - 1]
    for v in range(-bounds[-1], bounds[-1] + 1):
        vals = part + cross * v + last_diag * v * v
        keep = (vals > 0) & (vals <= target)
        if keep.any():
            sel = flat[keep]
            col = np.full((sel.shape[0], 1), v, dtype=np.int64)
            pts_out.append(np.hstack([sel, col]))
            vals_out.append(vals[keep])
    if not pts_out:
        return np.zeros((0, n), dtype=np.int64), np.zeros(0, dtype=np.int64), s
    return np.vstack(pts_out), np.concatenate(vals_out), s


def definite_ball(gram, r):
    """Stream of (m, shell) for integer levels 1 <= m <= r; Q must be integer valued.

    Shells are complete and lexicographically sorted; levels with no points are
    skipped.
    """
    gram = mat(gram)
    _check_positive_definite(gram)
    if r < 1:
        return
    if not is_integer_valued(gram):
        raise ValueError("definite_ball requires an integer-valued form (scale levels first)")
    pts, twos_vals, s = ball_points(gram, int(r))
    if len(twos_vals) and np.any(twos_vals % (2 * s)):
        raise AssertionError("non-integer level in integer-valued form")
    vals = twos_vals // (2 * s)
    order = np.argsort(vals, kind="stable")
    pts, vals = pts[order], vals[order]
    idx = 0
    for m in range(1, int(r) + 1):
        chunk = []
        while idx < len(vals) and vals[idx] == m:
            chunk.append(tuple(int(c) for c in pts[idx]))
            idx += 1
        if chunk:
            yield m, sorted(chunk)


def vec_isqrt_exact(a):
    """Vectorised floor(sqrt) with exact integer correction; a nonnegative int64."""
    r = np.floor(np.sqrt(a.astype(np.float64))).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= a, r + 1, r)
    r = np.where(r * r > a, r - 1, r)
    return r


def shifted_shell_2d(a11, a12, a22, b1, b2, c):
    """Integer solutions of t^t A t + 2 b^t t + c = 0 for positive definite
    integer A; returns sorted (t1, t2) pairs.

    Reduction: with P = a11 t1 + a12 t2 + b1, R = D t2 + beta,
    D = det A, beta = a11 b2 - a12 b1, solutions satisfy R^2 + D P^2 = C.
    Raises ValueError when an int64 intermediate could reach 2^63.
    """
    dd = a11 * a22 - a12 * a12
    if a11 <= 0 or dd <= 0:
        raise ValueError("form must be positive definite")
    beta = a11 * b2 - a12 * b1
    cc = beta * beta - dd * (a11 * c - b1 * b1)
    if cc < 0:
        return []
    pmax = math.isqrt(cc // dd)
    while dd * (pmax + 1) * (pmax + 1) <= cc:
        pmax += 1
    # |R| <= isqrt(C), and vec_isqrt_exact squares at most isqrt(C) + 2
    rmax = math.isqrt(cc)
    t2max = (rmax + abs(beta)) // dd + 1
    _check_int64(cc, abs(beta), dd, a11, abs(a12), abs(b1), dd * pmax * pmax, (rmax + 2) ** 2,
                 rmax + abs(beta), pmax + abs(a12) * t2max + abs(b1))
    p = np.arange(-pmax, pmax + 1, dtype=np.int64)
    rem = cc - dd * p * p
    ok = rem >= 0
    p, rem = p[ok], rem[ok]
    r = vec_isqrt_exact(rem)
    sq = r * r == rem
    p, r = p[sq], r[sq]
    out = []
    for rr in (r, -r):
        t2_num = rr - beta
        m2 = t2_num % dd == 0
        t2 = t2_num[m2] // dd
        pp = p[m2]
        t1_num = pp - a12 * t2 - b1
        m1 = t1_num % a11 == 0
        t1 = t1_num[m1] // a11
        out.extend(zip(t1.tolist(), t2[m1].tolist()))
    return sorted(set(out))


def _check_integer_grid(twice_levels):
    if np.any(twice_levels % 2):
        raise AssertionError("mass off the integer grid")


def theta_series(gram, r):
    """Exact representation counts T[m] = #{x in Z^n : Q(x) = m} for 0 <= m <= r.

    Q must be integer-valued and positive definite, dim in {2, 3, 4}.  With u the
    first two coordinates and w the rest, 2Q = u^t A u + 2 u^t X w + w^t C w in
    the integer blocks of 2G.  Complete the square with D = det A: split
    adj(A) X w = D q + c with 0 <= c < D, so that b_c = A c / D is integral and

        2Q(u, w) = inner_c(u + q) + outer(w),
        inner_c(v) = v^t A v + 2 v^t b_c,  outer(w) = w^t C w - q^t A q - 2 q^t b_c.

    T is the sum over the classes c of the convolution of the inner histogram
    (a v-box, shifted by its minimum) with the outer histogram of the w in
    class c, truncated to 0..r (truncated_product_sum).  Every value is an
    int64 computed after a Python-int headroom bound.  In dim 2, w is empty:
    the one outer histogram is the unit mass at 0, so T is the inner
    histogram itself and no product is taken.
    """
    gram = mat(gram)
    _check_positive_definite(gram)
    if not is_integer_valued(gram):
        raise ValueError("theta_series requires an integer-valued form")
    n = len(gram)
    if n not in (2, 3, 4):
        raise ValueError("theta_series supports dim 2..4")
    r = int(r)
    _, g2 = _scaled_integer_gram(gram)  # x^t g2 x = 2 Q(x)
    a = [row[:2] for row in g2[:2]]
    xb = [row[2:] for row in g2[:2]]
    cb = [row[2:] for row in g2[2:]]
    det_a = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    adj_x = [
        [a[1][1] * xb[0][j] - a[0][1] * xb[1][j] for j in range(n - 2)],
        [a[0][0] * xb[1][j] - a[1][0] * xb[0][j] for j in range(n - 2)],
    ]
    # w ranges over the coordinate box of the Q-ball; inner_c(v) <= 2r puts
    # y = v + c/D in the ball Q(y, 0) <= r + Q(c/D, 0) <= r + sum |G_ij| (i, j < 2),
    # whose integer box widened by one holds v = y - c/D
    ga = [row[:2] for row in gram[:2]]
    bw = _coordinate_bounds(gram, r)[2:]
    bv = [b + 1 for b in _coordinate_bounds(ga, r + sum(abs(e) for row in ga for e in row))]
    pw = [_bilinear_bound([row], [1], bw) for row in adj_x]
    bq = [t // det_a + 1 for t in pw]
    bb = [abs(row[0]) + abs(row[1]) for row in a]  # |(A c / D)_i| < sum_j |A_ij|
    inner_max = _bilinear_bound(a, bv) + 2 * _bilinear_bound([bb], [1], bv)
    outer_max = _bilinear_bound(cb, bw) + _bilinear_bound(a, bq) + 2 * _bilinear_bound([bb], [1], bq)
    _check_int64(2 * inner_max, 2 * outer_max, max(pw), det_a * max(bb), det_a ** 2,
                 max(abs(e) for row in g2 + adj_x for e in row))

    vs = _box(bv)
    vav = _quadratic_values(vs, a)
    if n == 2:
        _check_integer_grid(vav)
        return np.bincount(vav[vav <= 2 * r] // 2, minlength=r + 1)
    am = np.array(a, dtype=np.int64)
    ws = _box(bw)
    wcw = _quadratic_values(ws, cb)
    q, cls = np.divmod(ws @ np.array(adj_x, dtype=np.int64).reshape(2, n - 2).T, det_a)
    key = cls[:, 0] * det_a + cls[:, 1]
    pairs = []
    for k in np.unique(key).tolist():
        ac = am @ np.array(divmod(k, det_a), dtype=np.int64)
        if np.any(ac % det_a):
            raise AssertionError("A c not divisible by det A")
        b = ac // det_a
        inner = vav + 2 * (vs @ b)
        lo = int(inner.min())
        qk = q[key == k]
        outer = wcw[key == k] - _quadratic_values(qk, a) - 2 * (qk @ b) + lo
        if np.any(outer < 0):
            raise AssertionError("shifted outer value negative")
        inner -= lo
        _check_integer_grid(inner)
        _check_integer_grid(outer)
        pairs.append((np.bincount(inner[inner <= 2 * r] // 2, minlength=r + 1),
                      np.bincount(outer[outer <= 2 * r] // 2, minlength=r + 1)))
    return truncated_product_sum(pairs, r)


# NTT primes k * 2^e + 1 below 2^30, so that a product of two residues stays
# below 2^60 in uint64; 3 is a primitive root of both.  Their product bounds
# what two primes recover exactly, and the smaller e bounds the length.
_NTT_PRIMES = (998244353, 469762049)
_NTT_MAX_LENGTH = 2 ** 23
# below this r one np.convolve per class is faster than the transforms
_NTT_CROSSOVER = 3000
# Relative costs that choose the transform length, measured on a 2-vCPU Intel
# Xeon (numpy 2.4): one transform of length n costs about
# (n + _STAGE_COST) * log2(n) units, one np.convolve of two length-m + 1
# factors about (m + 1)^2 / _CONVOLVE_SPEED units.
_STAGE_COST = 2000
_CONVOLVE_SPEED = 8


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


def _ntt_forward(a, p):
    """In-place decimation-in-frequency NTT of the uint64 residues a (length
    n a power of two): natural order in, bit-reversed order out.  A sum of
    two residues is brought back below p by one conditional subtraction
    (in uint64 u - p wraps past u when u < p, so min(u, u - p) is u mod p);
    the difference u + p - v < 2p goes into the twiddle product, the one %."""
    p_ = np.uint64(p)
    h = len(a) // 2
    while h:
        blocks = a.reshape(-1, 2, h)
        u, v = blocks[:, 0], blocks[:, 1]
        d = u + p_
        d -= v
        d *= _stage_twiddles(p, h, False)
        u += v
        np.minimum(u, u - p_, out=u)
        np.remainder(d, p_, out=v)
        h //= 2
    return a


def _ntt_inverse(a, p):
    """In-place decimation-in-time inverse NTT of uint64 residues:
    bit-reversed order in, natural order out, scaled by 1/n mod p."""
    p_ = np.uint64(p)
    n = len(a)
    h = 1
    while h < n:
        blocks = a.reshape(-1, 2, h)
        u, v = blocks[:, 0], blocks[:, 1]
        v *= _stage_twiddles(p, h, True)
        v %= p_
        d = u + p_
        d -= v
        u += v
        np.minimum(u, u - p_, out=u)
        np.minimum(d, d - p_, out=v)
        h *= 2
    a *= np.uint64(pow(n, -1, p))
    a %= p_
    return a


def _transform_plan(r, k, primes):
    """(estimated cost, length n) of the cheapest route for k products
    truncated to 0..r under the given number of primes.  With n1 the least
    power of two above r, a cyclic product of length n1 wraps only the
    terms of levels n1..2r onto 0..2r - n1, so levels 2r - n1 < j <= r come
    out exact and the prefix 0..2r - n1 is taken again; length 2 n1 wraps
    nothing.  Lengths past _NTT_MAX_LENGTH are not candidates.  n = 0 stands
    for direct convolution (r below _NTT_CROSSOVER)."""
    if r < _NTT_CROSSOVER:
        return k * (r + 1) ** 2 // _CONVOLVE_SPEED, 0

    def transforms(n):
        return primes * (2 * k + 1) * (n + _STAGE_COST) * (n.bit_length() - 1)

    n1 = 1 << r.bit_length()
    plans = [(transforms(n1) + _transform_plan(2 * r - n1, k, primes)[0], n1)]
    if 2 * n1 <= _NTT_MAX_LENGTH:
        plans.append((transforms(2 * n1), 2 * n1))
    return min(plans)


def _convolve_sum(pairs, r):
    out = np.zeros(r + 1, dtype=np.int64)
    for a, b in pairs:
        c = np.convolve(a, b)[: r + 1]
        out[: len(c)] += c
    return out


def _transform_sum(pairs, r, primes):
    """Sum of the products of pairs truncated to 0..r, as residues mod each
    prime of primes at the length _transform_plan picks."""
    n = _transform_plan(r, len(pairs), len(primes))[1]
    if not n:
        exact = _convolve_sum(pairs, r)
        return [exact % p for p in primes]
    residues = []
    for p in primes:
        acc = np.zeros(n, dtype=np.uint64)
        for a, b in pairs:
            fa, fb = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
            fa[: len(a)], fb[: len(b)] = a % p, b % p
            _ntt_forward(fa, p)
            _ntt_forward(fb, p)
            fa *= fb
            fa %= np.uint64(p)
            acc += fa
        acc %= np.uint64(p)
        residues.append(_ntt_inverse(acc, p)[: r + 1].astype(np.int64))
    m = 2 * r - n
    if m >= 0:
        for res, pre in zip(residues, _transform_sum([(a[: m + 1], b[: m + 1]) for a, b in pairs], m, primes)):
            res[: m + 1] = pre
    return residues


def truncated_product_sum(pairs, r):
    """Exact sum over (a, b) in pairs of the first r + 1 coefficients of the
    polynomial product a * b; a, b are nonnegative int64 arrays of length at
    most r + 1, and anything else is refused with ValueError.

    Below r = _NTT_CROSSOVER each product is one np.convolve.  From it on, the
    products are taken by number-theoretic transforms, summed in the transform
    domain, with one inverse transform per prime.  The length n is the least
    power of two above r, with the wrapped prefix 0..2r - n taken again by the
    same function, or twice that, with no wrap; _transform_plan picks the
    cheaper.  Every output coefficient is at most B = sum over pairs of
    sum(a) * max(b), bounded in Python ints first: one prime suffices when
    B < p1, two primes combined by Garner's step when B < p1 p2, and a larger
    B, or r >= _NTT_MAX_LENGTH, is refused before any transform.
    """
    for a, b in pairs:
        if max(len(a), len(b)) > r + 1:
            raise ValueError(f"a factor of length {max(len(a), len(b))} is longer than r + 1 = {r + 1}")
        if a.min(initial=0) < 0 or b.min(initial=0) < 0:
            raise ValueError("a factor has a negative entry")
    if r < _NTT_CROSSOVER:
        return _convolve_sum(pairs, r)
    if r >= _NTT_MAX_LENGTH:
        raise ValueError(f"transform length {1 << r.bit_length()} exceeds the NTT primes' limit {_NTT_MAX_LENGTH}")
    bound = sum(sum(a.tolist()) * int(b.max(initial=0)) for a, b in pairs)
    p1, p2 = _NTT_PRIMES
    if bound >= p1 * p2:
        raise ValueError(f"a coefficient could reach {bound} >= {p1 * p2}, past two NTT primes")
    residues = _transform_sum(pairs, r, _NTT_PRIMES[: 1 if bound < p1 else 2])
    if len(residues) == 1:
        return residues[0]
    x1, x2 = residues
    # Garner: x = x1 + p1 t with t = (x2 - x1) / p1 mod p2; x < p1 p2 < 2^59
    return x1 + p1 * ((x2 - x1) % p2 * pow(p1, -1, p2) % p2)
