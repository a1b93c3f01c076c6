"""Quadric hyperplane-section data: a rational quadratic form q, a nonzero
rational linear form ell, a base point on the cone, and the level scaling.

Supported sections have q restricted to ker(ell) definite over R (checked
exactly via principal minors on a kernel basis); levels ell(x) for integral x
lie in (1/e)Z with e read off the denominators of ell.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import (
    definiteness,
    det,
    gcd_vector,
    mat,
    primitive_integer_row,
    scalar,
    unimodular_completion,
    vec,
)


@dataclass(frozen=True)
class FiberFrame:
    """The level-independent data of the fibers ell(x) = k.  With s * ell
    primitive integral and U = unimodular_completion(s * ell) with columns
    u0, B_1..B_{n-1}, the fiber is t u0 + B Z^{n-1} for t = s k integral, and
    q(t u0 + B y) = y^t gram y + 2 t cross . y + t^2 q0."""
    scale: Fraction    # s
    u0: tuple          # integer column with (s * ell) . u0 = 1
    basis: tuple       # integer columns B_j spanning ker(ell) cap Z^n, as rows
    gram: tuple        # B(B_i, B_j): q restricted to ker(ell)
    cross: tuple       # B(B_i, u0)
    q0: object         # q(u0)


@dataclass(frozen=True)
class QuadricSectionSpec:
    gram: tuple          # symmetric rational matrix of q
    ell: tuple           # rational row vector of the linear form
    base_point: tuple    # integer v0 with q(v0) = 0, ell(v0) > 0
    scale_e: int         # levels of integral points lie in (1/scale_e) Z

    def __post_init__(self):
        g = self.gram
        n = len(g)
        if any(len(r) != n for r in g):
            raise ValueError("gram matrix not square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix not symmetric")
        if det(g) == 0:
            raise ValueError("quadratic form is degenerate")
        if all(c == 0 for c in self.ell):
            raise ValueError("linear form is zero")
        if self.q_value(self.base_point) != 0:
            raise ValueError("base point is not on the cone")
        if self.ell_value(self.base_point) <= 0:
            raise ValueError("base point must have positive level")

    @property
    def dim(self):
        return len(self.gram)

    def q_value(self, x):
        g = self.gram
        n = self.dim
        return scalar(sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n)))

    def ell_value(self, x):
        return scalar(sum(l * c for l, c in zip(self.ell, x)))

    def bilinear(self, x, y):
        g = self.gram
        n = self.dim
        return scalar(sum(g[i][j] * x[i] * y[j] for i in range(n) for j in range(n)))

    @cached_property
    def fiber_frame(self):
        """FiberFrame of this section, built once."""
        ell_int, s = primitive_integer_row(self.ell)
        u = unimodular_completion(ell_int)
        n = self.dim
        u0 = tuple(u[i][0] for i in range(n))
        cols = [tuple(u[i][j] for i in range(n)) for j in range(1, n)]
        return FiberFrame(
            scale=s, u0=u0, basis=tuple(zip(*cols)),
            gram=tuple(tuple(self.bilinear(ci, cj) for cj in cols) for ci in cols),
            cross=tuple(self.bilinear(ci, u0) for ci in cols),
            q0=self.q_value(u0),
        )


def quadric_section(gram_rows, ell_row, base_point=None, search_bound=6):
    """Build and validate a QuadricSectionSpec.

    When base_point is None, a primitive integral cone point with positive
    level is searched in the box |x_i| <= search_bound.
    """
    g = mat(gram_rows)
    ell = vec(ell_row)
    n = len(g)
    e = 1
    for c in ell:
        f = Fraction(c)
        e = e * f.denominator // math.gcd(e, f.denominator)
    if base_point is None:
        base_point = _search_base_point(g, ell, n, search_bound)
        if base_point is None:
            raise ValueError(f"no primitive cone point with positive level in box {search_bound}")
    spec = QuadricSectionSpec(gram=g, ell=ell, base_point=vec(base_point), scale_e=e)
    w_gram = restricted_gram(spec)
    if definiteness(w_gram) == 0:
        raise ValueError("q restricted to ker(ell) is not definite over R (unsupported)")
    return spec


def _search_base_point(g, ell, n, bound):
    def qv(x):
        return sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n))

    def lv(x):
        return sum(l * c for l, c in zip(ell, x))

    best = None
    from itertools import product

    for x in product(range(-bound, bound + 1), repeat=n):
        if all(c == 0 for c in x) or gcd_vector(x) != 1:
            continue
        if qv(x) == 0 and lv(x) > 0:
            if best is None or lv(x) < lv(best) or (lv(x) == lv(best) and x < best):
                best = x
    return best


def restricted_gram(section):
    """Gram matrix of q restricted to ker(ell), on the integral kernel basis."""
    return section.fiber_frame.gram


def restricted_definiteness(section):
    return definiteness(restricted_gram(section))
