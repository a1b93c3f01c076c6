"""Finite-dimensional Q-algebras given by exact structure constants.

An AlgebraSpec fixes a distinguished basis e_1..e_n with rational structure
constants e_i e_j = sum_k c[i][j][k] e_k; elements are coordinate vectors in
that basis.  Norms, inverses and conjugation are all computed exactly.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import (
    _eliminate, clear_denominators, det, frac_str, inverse, mat, mat_mul, mat_vec, scalar,
    solve, transpose, vec, vec_mat,
)

NUMBER_FIELD = "number-field"
QUATERNION = "quaternion"


@dataclass(frozen=True)
class AlgebraElement:
    coords: tuple

    def __iter__(self):
        return iter(self.coords)

    def is_integral(self):
        return all(isinstance(x, int) for x in self.coords)

    def is_zero(self):
        return all(x == 0 for x in self.coords)


def element(xs):
    return AlgebraElement(vec(xs))


@dataclass(frozen=True)
class AlgebraSpec:
    dim: int
    table: tuple          # table[i][j] = coordinate tuple of e_i e_j
    unity: tuple
    kind: str
    involution: tuple = None  # optional matrix of the standard involution

    def __post_init__(self):
        def square(m):
            return len(m) == self.dim and all(len(row) == self.dim for row in m)
        if not (square(self.table) and all(map(square, self.table))):
            raise ValueError("structure constant table has wrong shape")
        if len(self.unity) != self.dim:
            raise ValueError("unity has wrong length")
        if self.kind == QUATERNION and self.involution is None:
            raise ValueError("quaternion algebra requires an involution")
        if self.involution is not None and not square(self.involution):
            raise ValueError("involution matrix has wrong shape")

    def one(self):
        return AlgebraElement(self.unity)

    def basis_element(self, i):
        return AlgebraElement(tuple(1 if j == i else 0 for j in range(self.dim)))

    def check_axioms(self):
        """Verify associativity and unitality on all basis triples, and that the
        involution (when present) is an order-2 anti-automorphism, as identities
        of the integer tensors of _integer_tensors.  Raises on failure."""
        n = self.dim
        (c, den_c), (u, den_u), inv = _integer_tensors(self)
        one = den_c * den_u * np.eye(n, dtype=c.dtype)
        if (np.einsum("a,aik->ik", u, c) != one).any() or (np.einsum("a,iak->ik", u, c) != one).any():
            raise ValueError("unity is not a two-sided identity")
        bad = _associator_triples(c)
        if len(bad):
            raise ValueError(f"associativity fails on basis triple {tuple(bad[0].tolist())}")
        if inv is not None:
            # conj(e_i) is column i of the involution matrix
            m, den_m = inv
            if (m @ m != den_m * den_m * np.eye(n, dtype=c.dtype)).any():
                raise ValueError("involution is not of order 2")
            lhs = den_m * np.einsum("km,ijm->ijk", m, c)   # conj(e_i e_j)
            rhs = np.einsum("aj,bi,abk->ijk", m, m, c)      # conj(e_j) conj(e_i)
            if (lhs != rhs).any():
                raise ValueError("involution is not an anti-automorphism")

    def to_json(self):
        doc = {
            "dim": self.dim,
            "kind": self.kind,
            "structure_constants": [
                [[frac_str(c) for c in cell] for cell in row] for row in self.table
            ],
            "unity": [frac_str(c) for c in self.unity],
        }
        if self.involution is not None:
            doc["involution"] = [[int(c) for c in row] for row in self.involution]
        return json.dumps(doc, sort_keys=True)


def _integer_tensors(spec):
    """(c, L), (u, M) and (C, K) or None: the structure constants c[i, j, k],
    the unity and the involution matrix, each times the lcm of its
    denominators.  int64 when n^2 h^3 < 2^63 for h the largest entry or lcm,
    which bounds every sum the axiom identities take; object dtype past it."""
    n = spec.dim
    parts = [clear_denominators([x for row in spec.table for cell in row for x in cell]),
             clear_denominators(spec.unity)]
    if spec.involution is not None:
        parts.append(clear_denominators([x for row in spec.involution for x in row]))
    h = max(abs(x) for ints, den in parts for x in (*ints, den))
    dtype = object if n * n * h ** 3 >= 2 ** 63 else np.int64
    shapes = ((n, n, n), (n,), (n, n))
    arrays = [(np.array(ints, dtype=dtype).reshape(shape), den) for (ints, den), shape in zip(parts, shapes)]
    return arrays[0], arrays[1], arrays[2] if len(arrays) == 3 else None


def _associator_triples(c):
    """The basis triples (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), in
    loop order: one einsum each side over the scaled structure constants c of
    _integer_tensors."""
    lhs = np.einsum("ijm,mkl->ijkl", c, c)
    rhs = np.einsum("jkm,iml->ijkl", c, c)
    return np.argwhere((lhs != rhs).any(axis=3))


def algebra_spec(table, unity, kind, involution=None):
    tab = tuple(tuple(vec(c) for c in row) for row in table)
    inv = mat(involution) if involution is not None else None
    return AlgebraSpec(dim=len(tab), table=tab, unity=vec(unity), kind=kind, involution=inv)


def alg_mul(a, b, spec):
    """Bilinear product via structure constants, exact."""
    n = spec.dim
    if len(a.coords) != n or len(b.coords) != n:
        raise ValueError("dimension mismatch")
    out = [0] * n
    table = spec.table
    for i, ai in enumerate(a.coords):
        if ai == 0:
            continue
        row = table[i]
        for j, bj in enumerate(b.coords):
            if bj == 0:
                continue
            c = ai * bj
            cell = row[j]
            for k in range(n):
                t = cell[k]
                if t:
                    out[k] += c * t
    return AlgebraElement(tuple(scalar(x) for x in out))


def left_mul_matrix(a, spec):
    """Matrix of x -> a*x in the distinguished basis (columns are a*e_j)."""
    cols = [alg_mul(a, spec.basis_element(j), spec).coords for j in range(spec.dim)]
    return transpose(cols)


def alg_conj(a, spec):
    if spec.involution is None:
        raise ValueError("algebra has no involution")
    return AlgebraElement(mat_vec(spec.involution, a.coords))


def alg_norm(a, spec):
    """Norm form: det of left multiplication for number fields, reduced norm
    a * conj(a) for quaternion algebras."""
    if spec.kind == NUMBER_FIELD:
        return det(left_mul_matrix(a, spec))
    p = alg_mul(a, alg_conj(a, spec), spec)
    # a*conj(a) must be a scalar multiple of unity
    i0 = next(i for i, u in enumerate(spec.unity) if u != 0)
    lam = scalar(Fraction(p.coords[i0], 1) / spec.unity[i0])
    if any(scalar(lam * u) != c for u, c in zip(spec.unity, p.coords)):
        raise ValueError("x * conj(x) is not scalar; involution is not standard")
    return lam


def alg_inverse(a, spec):
    """Exact inverse: solve (left multiplication by a) x = 1."""
    m = left_mul_matrix(a, spec)
    x = solve(m, spec.unity)
    if x is None:
        raise ZeroDivisionError("element is not invertible (norm 0)")
    return AlgebraElement(x)


def minimal_polynomial(a, spec):
    """Monic minimal polynomial of a over Q, as a list of Fractions
    [c_0, ..., c_{d-1}, 1] with sum c_k a^k = 0.

    One reduction of the coordinate columns of 1, a, ..., a^n: the first
    column d without a pivot holds a^d in terms of the lower powers."""
    powers = [spec.one()]
    for _ in range(spec.dim):
        powers.append(alg_mul(powers[-1], a, spec))
    red, pivots, p, _ = _eliminate(list(zip(*powers)), spec.dim + 1)
    d = len(pivots)
    return [scalar(Fraction(-row[d], p)) for row in red[:d]] + [1]


def change_of_basis(spec, basis_rows, kind=None):
    """Algebra presented in a new basis; basis_rows[i] are the coordinates of the
    new basis vectors in the old one.  Exact; raises if the rows are dependent."""
    t = mat(basis_rows)
    tinv = inverse(t)
    n = spec.dim
    new_basis = [AlgebraElement(t[i]) for i in range(n)]
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = alg_mul(new_basis[i], new_basis[j], spec).coords
            row.append(vec(vec_mat(prod, tinv)))
        table.append(tuple(row))
    unity_new = vec(vec_mat(spec.unity, tinv))
    inv_mat = None
    if spec.involution is not None:
        # conj acts on new coordinate columns as (T^t)^-1 C T^t
        inv_mat = mat(mat_mul(transpose(tinv), mat_mul(spec.involution, transpose(t))))
    return AlgebraSpec(
        dim=n, table=tuple(table), unity=unity_new, kind=kind or spec.kind, involution=inv_mat
    )


def quadratic_field_order(d):
    """The order Z[sqrt(d)] with basis (1, sqrt(d)); d a nonsquare integer."""
    table = [
        [(1, 0), (0, 1)],
        [(0, 1), (d, 0)],
    ]
    return algebra_spec(table, (1, 0), NUMBER_FIELD)


def quaternion_algebra(a, b):
    """Quaternion algebra (a, b / Q) on the basis (1, i, j, k):
    i^2 = a, j^2 = b, ij = k = -ji."""
    one, i, j, k = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    z = (0, 0, 0, 0)

    def s(c, v):
        return tuple(scalar(c * x) for x in v)

    table = [
        [one, i, j, k],
        [i, s(a, one), k, s(a, j)],
        [j, s(-1, k), s(b, one), s(-b, i)],
        [k, s(-a, j), s(b, i), s(-a * b, one)],
    ]
    invol = [(1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)]
    return algebra_spec(table, one, QUATERNION, involution=invol)
