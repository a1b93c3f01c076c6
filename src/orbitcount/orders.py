"""Orders and their unit groups: unit predicates, the orbit-equivalence test,
canonical representatives under the norm-one unit action, and the one
enumerator of the rank-1 fundamental domain.

The orbit group throughout is the group of units of norm +1 (torsion
included): multiplication by a unit u acts on the coordinate lattice with
determinant equal to norm(u), so determinant-one symmetries are exactly the
norm-one units.  Units of norm -1 (real quadratic orders may have them) swap
the level sets norm = k and norm = -k and are excluded from the orbit group.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations

import numpy as np

from .algebra import (
    AlgebraElement,
    NUMBER_FIELD,
    alg_inverse,
    alg_mul,
    alg_norm,
    element,
)
from .exact import det, scalar
from .numtheory import pell
# definite_shell is no longer called here; it stays importable as
# orbitcount.orders.definite_shell, a name perfbench/tracer.py wraps
from .shells import (
    DOMAIN_BLOCK, ball_points, definite_shell, interval_points, positive_form, vec_isqrt_exact,
)

# every count of an order of unit rank >= 2 is refused with this reason
RANK_2_REFUSAL = ("unit rank >= 2: no exact enumerator exists yet "
                  "(planned: the Shintani-cone enumerator in ROADMAP.md)")


@dataclass(frozen=True)
class OrderSpec:
    """An order by its algebra's structure constants, with its exact set-up
    derived on first use and kept for every command on this object: form,
    the PositiveForm of norm_gram (ValueError unless positive definite); ball,
    ball_points(form, 3), holding the unit shell and the free-action check;
    units, the Pell unit at rank 1 and finite_units otherwise; discriminant."""

    algebra: object
    norm_degree: int
    unit_rank: int

    def __post_init__(self):
        if not all(
            isinstance(c, int) for row in self.algebra.table for cell in row for c in cell
        ):
            raise ValueError("structure constants are not integral; not an order basis")
        expected = self.algebra.dim if self.algebra.kind == NUMBER_FIELD else 2
        if self.norm_degree != expected:
            raise ValueError(f"norm_degree {self.norm_degree} inconsistent with algebra kind/dim")

    def norm(self, x):
        return alg_norm(x, self.algebra)

    def dim(self):
        return self.algebra.dim

    @cached_property
    def form(self):
        return positive_form(norm_gram(self))

    @cached_property
    def ball(self):
        return ball_points(self.form, 3)

    @cached_property
    def units(self):
        return fundamental_unit(self) if self.unit_rank == 1 else finite_units(self)

    @cached_property
    def discriminant(self):
        return trace_form_discriminant(self)


@dataclass(frozen=True)
class UnitGroupData:
    torsion: tuple              # all torsion units (the finite part)
    fundamental: tuple          # length unit_rank; empty for rank 0
    norm_one_fundamental: AlgebraElement = None  # fundamental unit of norm +1 (rank 1)


def norm_gram(order):
    """Gram matrix of the norm form when it is quadratic (norm_degree == 2),
    obtained by exact polarisation."""
    if order.norm_degree != 2:
        raise ValueError("norm form is not quadratic")
    spec = order.algebra
    n = spec.dim
    basis = [spec.basis_element(i) for i in range(n)]
    nvals = [alg_norm(b, spec) for b in basis]
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = Fraction(nvals[i])
        for j in range(i + 1, n):
            s = alg_norm(AlgebraElement(tuple(x + y for x, y in zip(basis[i].coords, basis[j].coords))), spec)
            g[i][j] = g[j][i] = Fraction(s - nvals[i] - nvals[j], 2)
    return tuple(tuple(scalar(x) for x in row) for row in g)


def trace_form_discriminant(order):
    """det(Tr(e_i e_j)), the discriminant of the order, from its integer structure
    constants c_ijk: Tr(e_k) = sum_m c_kmm and Tr(e_i e_j) = sum_k c_ijk Tr(e_k)."""
    table, n = order.algebra.table, order.algebra.dim
    tr = [sum(table[k][m][m] for m in range(n)) for k in range(n)]
    return det([[sum(c * t for c, t in zip(cell, tr)) for cell in row] for row in table])


def is_unit(x, order):
    """True iff x is integral, |norm(x)| = 1, and x^-1 is integral."""
    if not x.is_integral():
        return False
    nrm = order.norm(x)
    if nrm not in (1, -1):
        return False
    return alg_inverse(x, order.algebra).is_integral()


def associated(x, y, order):
    """Left-orbit test: y in (units of the order) * x, i.e. y x^-1 and x y^-1
    are both integral.  Requires nonzero integral inputs."""
    if x.is_zero() or y.is_zero():
        raise ValueError("associated() requires nonzero elements")
    if not (x.is_integral() and y.is_integral()):
        raise ValueError("associated() requires integral elements")
    spec = order.algebra
    nx, ny = order.norm(x), order.norm(y)
    if abs(nx) != abs(ny):
        return False
    u = alg_mul(y, alg_inverse(x, spec), spec)
    if not u.is_integral():
        return False
    v = alg_mul(x, alg_inverse(y, spec), spec)
    return v.is_integral()


def left_mul_matrices(spec, xs):
    """The matrices of x -> a x for the integer rows a of xs, as one einsum
    with the integral structure constants: (T, n, n), int64 when
    max|a| * sum|c_ijk| < 2^63 bounds every entry, and Python ints (object)
    otherwise."""
    n = spec.dim
    xmax = max((abs(int(c)) for x in xs for c in x), default=0)
    bound = xmax * sum(abs(c) for row in spec.table for cell in row for c in cell)
    dtype = np.int64 if bound < 2 ** 63 else object
    table = np.array(spec.table, dtype=dtype).reshape(n, n, n)
    # entry (k, j) is coordinate k of a e_j, as in left_mul_matrix
    return np.einsum("ti,ijk->tkj", np.array(xs, dtype=dtype).reshape(-1, n), table)


def integer_dets(mats):
    """Exact determinants of a (T, n, n) stack of integer matrices by the
    Leibniz sum over the n! permutations (small n); int64 when
    n! * max|entry|^n < 2^63, Python ints otherwise."""
    t, n, _ = mats.shape
    big = math.factorial(n) * int(np.abs(mats).max(initial=0)) ** n >= 2 ** 63
    mats = mats.astype(object if big else np.int64)
    out = np.zeros(t, dtype=mats.dtype)
    for perm in permutations(range(n)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = np.ones(t, dtype=mats.dtype)
        for row, col in enumerate(perm):
            term = term * mats[:, row, col]
        out += -term if inversions % 2 else term
    return out


def finite_units(order):
    """Complete unit list for an order whose norm form is positive definite
    (imaginary quadratic or definite quaternion): the norm-1 shell of
    order.ball in lexicographic order, certified in one batch.  With
    integral structure constants and an integral unity, x is a unit iff
    det(L_x) = +-1 (L_x L_{x^-1} = L_1 = I, and the adjugate of a
    determinant +-1 matrix is integral); with a non-integral unity, no
    integral x has an integral inverse."""
    pts, twice_q, s = order.ball
    shell = pts[twice_q == 2 * s]
    shell = shell[np.lexsort(shell.T[::-1])]
    dets = integer_dets(left_mul_matrices(order.algebra, shell))
    shell = shell[((dets == 1) | (dets == -1)) & order.algebra.one().is_integral()]
    if not len(shell):
        raise AssertionError("no units found; definiteness precondition violated")
    units = tuple(AlgebraElement(tuple(v)) for v in shell.tolist())
    return UnitGroupData(torsion=units, fundamental=())


def real_quadratic_d(order):
    """The d with order basis (1, sqrt(d)), or None if the basis is not of
    that shape."""
    spec = order.algebra
    if spec.kind != NUMBER_FIELD or spec.dim != 2 or spec.unity != (1, 0):
        return None
    sq = spec.table[1][1]
    if sq[1] != 0 or not isinstance(sq[0], int) or sq[0] < 2:
        return None
    return sq[0]


def fundamental_unit(order):
    """Unit group of a real quadratic order Z[sqrt(d)] from the Pell equation.

    torsion = {1, -1}; fundamental = x + y sqrt(d); the norm-one fundamental
    unit is its square when the Pell solution has norm -1.
    """
    if order.unit_rank != 1:
        raise ValueError(f"fundamental_unit: unit rank is {order.unit_rank}, not 1")
    d = real_quadratic_d(order)
    if d is None:
        raise ValueError("unsupported order kind (expected basis (1, sqrt(d)))")
    x, y, sign = pell(d)
    eps = element((x, y))
    if sign == 1:
        eps1 = eps
    else:
        eps1 = alg_mul(eps, eps, order.algebra)
    return UnitGroupData(
        torsion=(element((1, 0)), element((-1, 0))),
        fundamental=(eps,),
        norm_one_fundamental=eps1,
    )


def rep_key(v):
    """Sort key of the representative rule: vectors whose first nonzero
    coordinate is positive come first, then lexicographic order."""
    lead = next((c for c in v if c != 0), 0)
    return (lead <= 0, tuple(v))


def _norm_one_generator(units):
    # (x1, y1) with x1, y1 > 0: eps1 = x1 + y1 sqrt(d) > 1 generates the
    # norm-one units together with -1, whichever of +-eps1^+-1 was supplied
    x1, y1 = (abs(int(c)) for c in units.norm_one_fundamental.coords)
    return x1, y1


def canonical_rep(x, units, order):
    """Canonical representative of the norm-one-unit orbit of x.

    Rank 1: the unique orbit member in the fundamental domain of
    unit_domain_points, reached by multiplying by eps1 or its conjugate and
    then fixing the sign; every step is an integer sign test.  Rank 0: the
    minimum under rep_key over the finite unit list.  Idempotent.
    """
    if x.is_zero():
        raise ValueError("canonical_rep: zero element")
    if order.unit_rank == 0:
        cands = [alg_mul(u, x, order.algebra) for u in units.torsion]
        return min(cands, key=lambda c: rep_key(c.coords))
    if order.unit_rank != 1:
        raise ValueError(RANK_2_REFUSAL)
    d = real_quadratic_d(order)
    x1, y1 = _norm_one_generator(units)
    a, b = x.coords
    # a b >= 0 iff |s1(x)| >= |s2(x)|; each factor eps1 multiplies |s1/s2| by eps1^2
    while a * b < 0:
        a, b = a * x1 + d * b * y1, a * y1 + b * x1
    while True:
        na, nb = a * x1 - d * b * y1, b * x1 - a * y1  # x times conj(eps1) = eps1^-1
        if na * nb < 0:
            break
        a, b = na, nb
    if a < 0 or b < 0:
        a, b = -a, -b
    return element((a, b))


def unit_domain_points(order, units, r_max):
    """Every x = a + b sqrt(d) of Z[sqrt(d)] with 1 <= |norm(x)| <= r_max in the
    fundamental domain of the norm-one units {+-eps1^j}.

    With eps1 = x1 + y1 sqrt(d), x1, y1 > 0, the domain is a, b >= 0 (that is
    |s1(x)| >= |s2(x)|, which also fixes the sign) with a x1 - d b y1 and
    b x1 - a y1 nonzero and of opposite signs (x eps1^-1 has |s1| < |s2|):
    1 <= |s1(x) / s2(x)| < eps1^2, met by every orbit exactly once.  Returns
    (points (N, 2) int64 ordered by (b, a), norms (N,) int64).  The scan runs
    over b <= sqrt(2 r_max (x1^2 + d y1^2) / d) in blocks of DOMAIN_BLOCK, so
    its cost is linear in eps1; ValueError when an int64 intermediate could
    reach 2^63.
    """
    d = real_quadratic_d(order)
    if d is None:
        raise ValueError("unit_domain_points needs a real quadratic order Z[sqrt(d)]")
    x1, y1 = _norm_one_generator(units)
    bmax = math.isqrt(2 * r_max * (x1 * x1 + d * y1 * y1) // d)
    amax = math.isqrt(d * bmax * bmax + r_max)
    peak = max((amax + 2) ** 2, d * bmax * y1 + amax * x1, amax * y1 + bmax * x1)
    if peak >= 2 ** 63:
        raise ValueError(
            f"Z[sqrt({d})] at r_max = {r_max}: the fundamental-domain scan over about "
            f"{bmax + 1} values of b has intermediates up to {peak} >= 2^63; refused"
        )
    pts, norms = [np.zeros((0, 2), dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    # r_max = 0 scans nothing (x1 alone may exceed int64 there)
    for b0 in range(0, bmax + 1 if r_max >= 1 else 0, DOMAIN_BLOCK):
        bs = np.arange(b0, min(b0 + DOMAIN_BLOCK, bmax + 1), dtype=np.int64)
        db2 = d * bs * bs
        # a in [ceil sqrt(d b^2 - r_max), floor sqrt(d b^2 + r_max)]
        low = np.maximum(db2 - r_max, 0)
        lo = vec_isqrt_exact(low)
        lo += lo * lo < low
        a, b = interval_points(lo, vec_isqrt_exact(db2 + r_max), bs)
        u = a * x1 - d * b * y1
        v = b * x1 - a * y1
        n = a * a - d * b * b
        keep = (n != 0) & (((u > 0) & (v < 0)) | ((u < 0) & (v > 0)))
        pts.append(np.column_stack([a[keep], b[keep]]))
        norms.append(n[keep])
    return np.concatenate(pts), np.concatenate(norms)
