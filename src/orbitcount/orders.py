"""Orders and their unit groups: unit predicates, the orbit-equivalence test,
canonical representatives under the norm-one unit action, and the one
vectorised orbit reducer for finite integer matrix groups.

The orbit group throughout is the group of units of norm +1 (torsion
included): multiplication by a unit u acts on the coordinate lattice with
determinant equal to norm(u), so determinant-one symmetries are exactly the
norm-one units.  Units of norm -1 (real quadratic orders may have them) swap
the level sets norm = k and norm = -k and are excluded from the orbit group.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    AlgebraElement,
    NUMBER_FIELD,
    alg_inverse,
    alg_mul,
    alg_norm,
    alg_scale,
    element,
    left_mul_matrix,
)
from .exact import det, scalar, sqrt_sign
from .numtheory import pell
from .shells import definite_shell, gram_form


@dataclass(frozen=True)
class OrderSpec:
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

    def to_json(self):
        import json

        return json.dumps(
            {
                "algebra": json.loads(self.algebra.to_json()),
                "norm_degree": self.norm_degree,
                "unit_rank": self.unit_rank,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text):
        import json

        from .algebra import AlgebraSpec

        doc = json.loads(text)
        return OrderSpec(
            algebra=AlgebraSpec.from_json(json.dumps(doc["algebra"])),
            norm_degree=int(doc["norm_degree"]),
            unit_rank=int(doc["unit_rank"]),
        )


@dataclass(frozen=True)
class UnitGroupData:
    torsion: tuple              # all torsion units (the finite part)
    fundamental: tuple          # length unit_rank; empty for rank 0
    complete: bool
    norm_one_fundamental: AlgebraElement = None  # fundamental unit of norm +1 (rank 1)

    def to_json(self):
        import json

        from .exact import frac_str

        doc = {
            "torsion": [[frac_str(c) for c in u.coords] for u in self.torsion],
            "fundamental": [[frac_str(c) for c in u.coords] for u in self.fundamental],
            "complete": self.complete,
        }
        if self.norm_one_fundamental is not None:
            doc["norm_one_fundamental"] = [frac_str(c) for c in self.norm_one_fundamental.coords]
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text):
        import json

        from .algebra import element
        from .exact import frac

        doc = json.loads(text)
        nof = doc.get("norm_one_fundamental")
        return UnitGroupData(
            torsion=tuple(element([frac(c) for c in u]) for u in doc["torsion"]),
            fundamental=tuple(element([frac(c) for c in u]) for u in doc["fundamental"]),
            complete=bool(doc["complete"]),
            norm_one_fundamental=element([frac(c) for c in nof]) if nof else None,
        )


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
    """det(Tr(e_i e_j)): the discriminant of the order (field discriminant for
    the shipped maximal quadratic orders)."""
    spec = order.algebra
    n = spec.dim
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = alg_mul(spec.basis_element(i), spec.basis_element(j), spec)
            m = left_mul_matrix(prod, spec)
            row.append(scalar(sum(m[k][k] for k in range(n))))
        rows.append(tuple(row))
    return det(rows)


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


def finite_units(order):
    """Complete unit list for an order whose norm form is positive definite
    (imaginary quadratic or definite quaternion): enumerate the norm-1 shell
    and filter by is_unit."""
    g = norm_gram(order)
    form = gram_form(g)
    shell = definite_shell(form, 1)
    units = [AlgebraElement(tuple(v)) for v in shell]
    units = [u for u in units if is_unit(u, order)]
    if not units:
        raise AssertionError("no units found; definiteness precondition violated")
    return UnitGroupData(torsion=tuple(units), fundamental=(), complete=True)


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
        complete=True,
        norm_one_fundamental=eps1,
    )


def _max_embedding_key(x, d):
    # max of the two squared real embeddings of a + b sqrt(d), as an exact
    # pair (p, q) meaning p + q sqrt(d)
    a, b = x.coords
    return (a * a + d * b * b, 2 * abs(a * b))


def _key_less(k1, k2, d):
    s = sqrt_sign(k1[0] - k2[0], k1[1] - k2[1], d)
    return s < 0


def rep_key(v):
    """Sort key of the representative rule: vectors whose first nonzero
    coordinate is positive come first, then lexicographic order."""
    lead = next((c for c in v if c != 0), 0)
    return (lead <= 0, tuple(v))


def reduce_orbits(points, mats):
    """Orbit representatives and stabilizer orders of the integer rows of
    `points` (an array or a nonempty list of tuples) under the finite integer
    matrix group `mats` acting by x -> g x.

    Returns (reps, stab): reps[i] is min(g x_i over g, key=rep_key), computed
    as a leading 0/1 column followed by a lexicographic compare, and stab[i]
    counts the g fixing x_i.  Runs in int64 when
    max_g max_row sum|g_ij| * max|x| < 2^63 bounds every intermediate, and in
    Python ints (object arrays) otherwise, so it is exact for any input.
    """
    gms = [np.array(g, dtype=object) for g in mats]
    # numpy would turn Python ints of 2^63 and above into floats
    pts = points if isinstance(points, np.ndarray) else np.array(points, dtype=object)
    width = max(int(np.abs(g).sum(axis=1).max()) for g in gms)
    xmax = max(abs(int(pts.min())), abs(int(pts.max()))) if pts.size else 0
    dtype = np.int64 if width * xmax < 2 ** 63 else object
    pts = pts.astype(dtype)
    best = stab = None
    for g in gms:
        img = pts @ g.astype(dtype).T
        lead = img[np.arange(len(img)), (img != 0).argmax(axis=1)]
        key = np.column_stack([(lead <= 0).astype(dtype), img])
        hit = np.all(img == pts, axis=1)
        if best is None:
            best, stab = key, hit.astype(np.int64)
            continue
        stab += hit
        less = np.zeros(len(key), dtype=bool)
        tie = np.ones(len(key), dtype=bool)
        for c in range(key.shape[1]):
            less |= tie & (key[:, c] < best[:, c])
            tie &= key[:, c] == best[:, c]
        best[less] = key[less]
    return best[:, 1:], stab


def canonical_rep(x, units, order):
    """Canonical representative of the norm-one-unit orbit of x.

    Rank 1: slide along powers of the norm-one fundamental unit to minimise
    the larger |real embedding| (exact quadratic-irrational comparisons), then
    sweep torsion.  Rank 0: sweep the finite unit list.  Among the candidates
    the minimum under rep_key is taken.  Idempotent by construction.
    """
    if x.is_zero():
        raise ValueError("canonical_rep: zero element")
    if not units.complete:
        raise ValueError("canonical_rep needs a complete unit description")
    if order.unit_rank == 0:
        cands = [alg_mul(u, x, order.algebra) for u in units.torsion]
        return min(cands, key=lambda c: rep_key(c.coords))
    if order.unit_rank != 1:
        raise ValueError("unit rank >= 2 is unsupported (box mode only)")
    d = real_quadratic_d(order)
    spec = order.algebra
    eps1 = units.norm_one_fundamental
    eps1_inv = alg_inverse(eps1, spec)
    cur = x
    key = _max_embedding_key(cur, d)
    # walk in the decreasing direction until the max embedding stops shrinking
    for step in (eps1, eps1_inv):
        while True:
            nxt = alg_mul(cur, step, spec)
            nkey = _max_embedding_key(nxt, d)
            if _key_less(nkey, key, d):
                cur, key = nxt, nkey
            else:
                break
    # collect the argmin window (ties between adjacent powers possible)
    cands = [cur]
    for step in (eps1, eps1_inv):
        nxt = alg_mul(cur, step, spec)
        if _max_embedding_key(nxt, d) == key:
            cands.append(nxt)
    cands.extend([alg_scale(-1, c) for c in list(cands)])
    return min(cands, key=lambda c: rep_key(c.coords))
