"""Independent validation oracles: classical closed forms and quadratic-time
scans, deliberately implemented with different algorithms than the main
counting pipeline so the two routes have independent failure modes.
"""

import math

import numpy as np

from .numtheory import factor_counts, kronecker
from .orders import associated


def is_fundamental_discriminant(d):
    if d == 0 or d == 1:
        return False
    if d % 4 == 1:
        return _squarefree(abs(d))
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and _squarefree(abs(q))
    return False


def _squarefree(n):
    return all(e == 1 for e in factor_counts(n).values())


def ideal_count_quadratic(disc, s):
    """Number of nonzero ideals of norm <= s in the quadratic order of
    fundamental discriminant disc: sum_{m<=s} a(m), a(m) = sum_{d|m} chi(d)
    with chi the Kronecker symbol.  Valid as an orbit-count comparator only
    for class number one."""
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    if s < 1:
        raise ValueError("s must be >= 1")
    return sum(ideal_a(disc, m) for m in range(1, s + 1))


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


def ideal_count_series(disc, s):
    """[a(1), ..., a(s)] by divisor sieve: a(m) = sum_{d | m} chi(d) with
    chi(d) = kronecker(disc, d), one slice out[d::d] += chi(d) per d.  chi is
    completely multiplicative in d for every disc, so this equals ideal_a at
    every level, fundamental disc or not."""
    out = np.zeros(max(s, 0) + 1, dtype=np.int64)
    for d in range(1, s + 1):
        chi = kronecker(disc, d)
        if chi:
            out[d::d] += chi
    return out[1:].tolist()


def two_squares_primitive_series(r):
    """[#{(a, b): a^2 + b^2 = k, gcd(a, b) = 1} / 2 for k = 1..r]: one bincount
    of a^2 + b^2 over the coprime pairs of the square |a|, |b| <= sqrt(r)."""
    a = np.arange(-math.isqrt(r), math.isqrt(r) + 1, dtype=np.int64)
    sq = a[:, None] ** 2 + a[None, :] ** 2
    keep = (np.gcd(a[:, None], a[None, :]) == 1) & (sq <= r)
    return (np.bincount(sq[keep], minlength=r + 1)[1:] // 2).tolist()


def two_squares_primitive(k):
    """The last entry of two_squares_primitive_series(k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return two_squares_primitive_series(k)[-1]


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
    """[r4(1), ..., r4(r)] by divisor sieve."""
    out = np.zeros(r + 1, dtype=np.int64)
    for d in range(1, r + 1):
        if d % 4 == 0:
            continue
        out[d::d] += d
    return (8 * out[1:]).tolist()


def jacobi_r4_cumulative(r, lattice="lipschitz"):
    """Cumulative count of lattice quaternions with reduced norm <= r.

    lipschitz: Jacobi's closed form.  hurwitz: the direct half-integer shell
    series (hurwitz_shell_series).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if lattice == "lipschitz":
        return sum(r4_series(r))
    if lattice == "hurwitz":
        return sum(hurwitz_shell_series(r))
    raise ValueError(f"unknown lattice {lattice!r}")


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
