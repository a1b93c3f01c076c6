"""Independent validation oracles: classical closed forms, divisor sums and
small direct scans, deliberately implemented with different algorithms than
the main counting pipeline so the two routes have independent failure modes.

Each quantity has one entry point, a series over the levels 1..r:
ideal_count_series, two_squares_primitive_series, r4_series and
hurwitz_sigma_series.  A cumulative count is the sum of a series and one
level its last entry.  The columns `report` reads are divisor sums taken by
divisor_sums through numtheory.dirichlet_sums, the sieve that also
aggregates the counted series; no column that sieve builds is compared with
an oracle, so a fault in it shows as a mismatch.  The references ideal_a,
r4, hurwitz_shell_series, hurwitz_shell_count and pairwise_orbits stay for
the tests and perfbench/selftest.py.
"""

import math

import numpy as np

from .numtheory import dirichlet_sums, factor_counts, kronecker
from .orders import associated


def ideal_a(disc, m):
    """a(m): multiplicative over the factorisation of m."""
    out = 1
    for p, e in factor_counts(m).items():
        chi = kronecker(disc, p)
        if chi == 1:
            out *= e + 1
        elif chi == -1:
            if e % 2:
                return 0
        # chi == 0 (ramified): factor contributes 1
    return out


def divisor_sums(f, s):
    """[sum over d | m of f[d] for m = 1..s] as an int64 array, for an int64
    array f of length at least s + 1 (f[0] is not read): numtheory's
    dirichlet_sums with d = 1 and w = 1.  A cell and each partial sum of it
    is a sum of at most tau(m) <= 2 isqrt(m) values of f, so every cell is
    bounded against int64 before the sieve runs."""
    f = np.asarray(f)
    if f.dtype != np.int64:
        raise ValueError(f"f has dtype {f.dtype}, not int64")
    if len(f) < s + 1:
        raise ValueError(f"f has length {len(f)}, below s + 1 = {s + 1}")
    q = math.isqrt(max(s, 0))
    top = max(int(f[1 : s + 1].max(initial=0)), -int(f[1 : s + 1].min(initial=0)))
    if top * 2 * q >= 2 ** 63:
        raise ValueError(f"a divisor sum could reach {top} * {2 * q} >= 2^63")
    return dirichlet_sums(f, s)


def ideal_count_series(disc, s):
    """[a(1), ..., a(s)]: a(m) = sum_{d | m} chi(d) with chi(d) =
    kronecker(disc, d), one divisor_sums call.  chi is completely
    multiplicative in d for every disc, so this equals ideal_a at every
    level, fundamental disc or not.

    For disc != 0, chi has period 4|disc| on the odd d, so one period is
    computed and repeated.  On even d that period fails when disc = 3 mod 4
    (kronecker(-49, 198) = -1, kronecker(-49, 2) = 1), so every even d is
    set from its odd part o by chi(2^v o) = chi(2)^v chi(o)."""
    s = max(s, 0)
    period = min(4 * abs(disc), s) if disc else s
    # chi[i] = chi(i + 1)
    chi = np.resize(np.array([kronecker(disc, d) for d in range(1, period + 1)], dtype=np.int64), s)
    chi2, odd = kronecker(disc, 2), chi[0::2].copy()
    for v in range(1, s.bit_length()):
        part = chi[2 ** v - 1:: 2 ** (v + 1)]  # d = 2^v o for o = 1, 3, 5, ...
        part[:] = chi2 ** v * odd[: len(part)]
    return divisor_sums(np.concatenate([[0], chi]), s).tolist()


def two_squares_primitive_series(r):
    """[#{(a, b): a^2 + b^2 = k, gcd(a, b) = 1} / 2 for k = 1..r]: one bincount
    of a^2 + b^2 over the coprime pairs of the square |a|, |b| <= sqrt(r)."""
    a = np.arange(-math.isqrt(r), math.isqrt(r) + 1, dtype=np.int64)
    sq = a[:, None] ** 2 + a[None, :] ** 2
    keep = (np.gcd(a[:, None], a[None, :]) == 1) & (sq <= r)
    return (np.bincount(sq[keep], minlength=r + 1)[1:] // 2).tolist()


def r4(m):
    """Jacobi: number of integer quadruples with sum of squares m,
    8 * sum of divisors not divisible by 4."""
    s = 0
    for d in range(1, math.isqrt(m) + 1):
        if m % d == 0:
            q = m // d
            if d % 4:
                s += d
            if q != d and q % 4:
                s += q
    return 8 * s


def r4_series(r):
    """[r4(1), ..., r4(r)]: 8 times the divisor sums of d [4 does not divide d]."""
    d = np.arange(max(r, 0) + 1, dtype=np.int64)
    return divisor_sums(8 * d * (d % 4 != 0), r).tolist()


def hurwitz_sigma_series(r):
    """[#{x in Hurwitz order : nrd(x) = m} for m = 1..r] by Jacobi's formula
    for the Hurwitz order, 24 sigma_odd(m): 24 times the divisor sums of
    d [d odd].  hurwitz_shell_series is its reference by enumeration."""
    d = np.arange(max(r, 0) + 1, dtype=np.int64)
    return divisor_sums(24 * d * (d % 2), r).tolist()


def hurwitz_shell_series(r):
    """[#{x in Hurwitz order : nrd(x) = m} for m = 1..r] by direct enumeration
    of the half-integer lattice in standard coordinates: integer quadruples of
    squared length m plus all-odd quadruples of squared length 4m.

    Each part is the truncated self-convolution of a histogram of a^2 + b^2 over
    coordinate pairs.  For odd a, b, a^2 + b^2 = 8i + 2, so the odd part keeps
    that class alone, indexed by i: two odd pairs sum to 4m with m = 2(i + i') + 1.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    a = np.arange(-math.isqrt(4 * r), math.isqrt(4 * r) + 1, dtype=np.int64)
    sq = a[:, None] ** 2 + a[None, :] ** 2
    two = np.bincount(sq[sq <= r], minlength=r + 1)
    out = np.convolve(two, two)[: r + 1]
    odd = sq[np.ix_(a % 2 == 1, a % 2 == 1)]
    two_odd = np.bincount((odd[odd <= 4 * r - 2] - 2) // 8, minlength=(r + 1) // 2)
    out[1::2] += np.convolve(two_odd, two_odd)[: (r + 1) // 2]
    return out[1:].tolist()


def hurwitz_shell_count(m):
    """#{x in Hurwitz order : nrd(x) = m}: the last entry of hurwitz_shell_series(m)."""
    return hurwitz_shell_series(m)[-1]


def pairwise_orbits(elements, order):
    """Union-find partition of nonzero integral elements into associated-classes.

    O(n^2) reference semantics for canonical_rep; class representative is the
    lexicographically least element."""
    elems = list(elements)
    parent = list(range(len(elems)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if associated(elems[i], elems[j], order):
                parent[max(ri, rj)] = min(ri, rj)
    classes = {}
    for i, e in enumerate(elems):
        classes.setdefault(find(i), []).append(e)
    out = []
    for members in classes.values():
        members.sort(key=lambda x: x.coords)
        out.append(tuple(members))
    out.sort(key=lambda cls: cls[0].coords)
    return out
