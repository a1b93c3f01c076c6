"""Quadric hyperplane-section data: a rational quadratic form q, a nonzero
rational linear form ell, a base point on the cone, and the level scaling.

Supported sections have q restricted to ker(ell) definite over R, certified
once on construction by the exact LDL of the fiber frame's form; levels
ell(x) for integral x lie in (1/e)Z with e read off the denominators of ell.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .exact import (
    clear_denominators,
    det,
    gcd_vector,
    mat,
    primitive_integer_row,
    scalar,
    transpose,
    unimodular_completion,
    vec,
)
from .shells import _scaled_integer_gram, positive_form
from .symmetry import integral_symmetries


@dataclass(frozen=True)
class FiberFrame:
    """The level-independent data of the fibers ell(x) = k.  With s * ell
    primitive integral and U = unimodular_completion(s * ell) with columns
    u0, B_1..B_{n-1}, the fiber is t u0 + B Z^{n-1} for t = s k integral, and
    q(t u0 + B y) = y^t gram y + 2 t cross . y + t^2 q0.  Times mult, the
    least N > 0 making N gram integer-valued and N cross integral, signed like
    gram[0][0], each fiber is a shell of form, the PositiveForm of mult * gram."""
    scale: Fraction    # s
    u0: tuple          # integer column with (s * ell) . u0 = 1
    basis: tuple       # integer columns B_j spanning ker(ell) cap Z^n, as rows
    gram: tuple        # B(B_i, B_j): q restricted to ker(ell)
    cross: tuple       # B(B_i, u0)
    q0: object         # q(u0)

    @cached_property
    def mult(self):
        n = math.lcm(_scaled_integer_gram(self.gram)[0], *(Fraction(x).denominator for x in self.cross))
        return -n if self.gram[0][0] < 0 else n

    @cached_property
    def form(self):
        return positive_form([[self.mult * x for x in row] for row in self.gram])


@dataclass(frozen=True)
class QuadricSectionSpec:
    """A section by its rational data, certified on construction: the form
    is nondegenerate, the base point lies on the cone at a positive level,
    and the fiber form is definite (fiber_frame.form exists, mult carrying
    the sign).  Its level-independent set-up, the fiber frame and the
    symmetry group, is kept on the object, so every command on one section
    shares it (a section made by dataclasses.replace derives its own)."""

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
        if len(self.ell) != n:
            raise ValueError(f"linear form has {len(self.ell)} coefficients, not {n}")
        if all(c == 0 for c in self.ell):
            raise ValueError("linear form is zero")
        if len(self.base_point) != n:
            raise ValueError(f"base point has {len(self.base_point)} coordinates, not {n}")
        if not all(isinstance(c, int) for c in self.base_point):
            raise ValueError(f"base point {self.base_point} is not integral")
        if self.q_value(self.base_point) != 0:
            raise ValueError("base point is not on the cone")
        if self.ell_value(self.base_point) <= 0:
            raise ValueError("base point must have positive level")
        try:
            self.fiber_frame.form
        except ValueError:
            raise ValueError("q restricted to ker(ell) is not definite over R (unsupported)") from None

    @property
    def dim(self):
        return len(self.gram)

    def q_value(self, x):
        return self.bilinear(x, x)

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
        u0, *cols = transpose(unimodular_completion(ell_int))
        return FiberFrame(
            scale=s, u0=u0, basis=transpose(cols),
            gram=tuple(tuple(self.bilinear(ci, cj) for cj in cols) for ci in cols),
            cross=tuple(self.bilinear(ci, u0) for ci in cols),
            q0=self.q_value(u0),
        )

    @cached_property
    def symmetry_group(self):
        return integral_symmetries(self)


def quadric_section(gram_rows, ell_row, base_point=None, search_bound=6):
    """Build a QuadricSectionSpec, which certifies itself.

    When base_point is None, a primitive integral cone point with positive
    level is searched in the box |x_i| <= search_bound.
    """
    g = mat(gram_rows)
    ell = vec(ell_row)
    n = len(g)
    _, e = clear_denominators(ell)
    if base_point is None:
        base_point = _search_base_point(g, ell, n, search_bound)
        if base_point is None:
            raise ValueError(f"no primitive cone point with positive level in box {search_bound}")
    return QuadricSectionSpec(gram=g, ell=ell, base_point=vec(base_point), scale_e=e)


def _search_base_point(g, ell, n, bound):
    # the primitive cone points of positive level in the box; the least level
    # wins, then the lexicographically least point
    found = []
    for x in product(range(-bound, bound + 1), repeat=n):
        level = sum(l * c for l, c in zip(ell, x))
        if level > 0 and gcd_vector(x) == 1:
            if sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n)) == 0:
                found.append((level, x))
    return min(found)[1] if found else None
