"""Exact rational linear algebra and quadratic-irrational comparisons.

Everything in here is exact: matrices and vectors are tuples of Python ints
or fractions.Fraction, never floats.  Floats may be used internally only to
seed an integer guess that is then corrected by exact comparisons.
"""

import math
import numbers
from fractions import Fraction


def frac(x):
    """Parse a rational from an int, Fraction or a 'p/q' string; a float, a
    bool, a zero denominator or anything else is a ValueError."""
    if isinstance(x, bool) or not isinstance(x, (numbers.Rational, str)):
        raise ValueError(f"not a rational: {x!r}")
    try:
        return scalar(Fraction(x))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {x!r}") from None


def frac_str(x):
    """Render a rational as 'p' or 'p/q' (exact, diffable)."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def scalar(x):
    """Normalise a rational to a plain int when the denominator is 1."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    return x


def vec(xs):
    return tuple(frac(x) for x in xs)


def mat(rows):
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(scalar(sum(x * y for x, y in zip(row, col))) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(scalar(sum(x * y for x, y in zip(row, v))) for row in a)


def vec_mat(v, a):
    return tuple(scalar(sum(v[i] * a[i][j] for i in range(len(v)))) for j in range(len(a[0])))


def transpose(a):
    return tuple(zip(*a))


def _eliminate(rows, width):
    """Fraction-free Gauss-Jordan (Bareiss) on the first width columns of the
    rational rows, each first scaled to integers: returns (a, pivots, d, den)
    with a = d * (reduced row echelon form of the scaled rows) and d the last
    pivot.  A pivot step divides by the previous pivot, exactly (Sylvester's
    identity).  den is the product of the row scales, negated per row swap, so
    d / den is the determinant of the leading block when every row pivots."""
    a, den = [], 1
    for row in rows:
        ints, e = clear_denominators(row)
        a.append(ints)
        den *= e
    pivots, prev = [], 1
    for c in range(width):
        k = len(pivots)
        p = next((i for i in range(k, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != k:
            a[k], a[p] = a[p], a[k]
            den = -den
        rk, piv = a[k], a[k][c]
        for i, ri in enumerate(a):
            if i != k:
                f = ri[c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(ri, rk)]
        pivots.append(c)
        prev = piv
    return a, pivots, prev, den


def det(m):
    """Exact determinant of a square matrix."""
    _, pivots, d, den = _eliminate(m, len(m))
    return scalar(Fraction(d, den)) if len(pivots) == len(m) else 0


def solve(a, b):
    """Solve a x = b exactly; returns None when a is singular."""
    n = len(a)
    red, pivots, d, _ = _eliminate([list(row) + [b[i]] for i, row in enumerate(a)], n)
    if len(pivots) < n:
        return None
    return tuple(scalar(Fraction(row[n], d)) for row in red)


def inverse(a):
    """Exact inverse, one reduction of [a | I]; ZeroDivisionError when singular."""
    n = len(a)
    red, pivots, d, _ = _eliminate([list(row) + list(e) for row, e in zip(a, identity(n))], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(scalar(Fraction(x, d)) for x in row[n:]) for row in red)


def ldl(gram):
    """Decompose a symmetric matrix as U^T D U with U unit upper triangular.

    Returns (d, u) with d the list of pivots, the ratios of consecutive
    leading principal minors.  Raises ValueError on a zero pivot.
    """
    n = len(gram)
    a = [list(map(Fraction, row)) for row in gram]
    d = []
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        piv = a[i][i]
        if piv == 0:
            raise ValueError("zero pivot in LDL (form not definite on this basis)")
        d.append(piv)
        u[i][i] = Fraction(1)
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / piv
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] -= a[i][r] * a[i][c] / piv
    return [scalar(x) for x in d], tuple(tuple(scalar(x) for x in row) for row in u)


def isqrt_frac_floor(f):
    """floor(sqrt(f)) for a nonnegative rational, exact, as isqrt(floor(f))."""
    f = Fraction(f)
    if f < 0:
        raise ValueError("negative radicand")
    return math.isqrt(f.numerator // f.denominator)


def gcd_vector(v):
    return math.gcd(*v)


def clear_denominators(xs):
    """Return (integer tuple, e) with e > 0 minimal such that e*xs is integral."""
    fr = [x if isinstance(x, int) else Fraction(x) for x in xs]
    e = math.lcm(1, *(f.denominator for f in fr))
    return tuple(f.numerator * (e // f.denominator) for f in fr), e


def primitive_integer_row(xs):
    """Scale a nonzero rational row to a primitive integer row; returns (row, s)
    with row = s * xs and s a positive rational."""
    ints, e = clear_denominators(xs)
    g = gcd_vector(ints)
    if g == 0:
        raise ValueError("zero row")
    return tuple(x // g for x in ints), Fraction(e, g)


def unimodular_completion(row):
    """For an integer row a, return U in GL_n(Z) with a U = (g, 0, ..., 0), g = gcd.

    Built from 2x2 determinant-one column operations.
    """
    n = len(row)
    a = list(row)
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # ucols[j] = column j
    for i in range(1, n):
        if a[i] == 0:
            continue
        g, x, y = _xgcd(a[0], a[i])
        p, q = a[0] // g, a[i] // g
        c0 = [x * ucols[0][r] + y * ucols[i][r] for r in range(n)]
        ci = [-q * ucols[0][r] + p * ucols[i][r] for r in range(n)]
        ucols[0], ucols[i] = c0, ci
        a[0], a[i] = g, 0
    if a[0] < 0:  # a = (-g, 0, ..., 0) never reaches _xgcd
        ucols[0] = [-v for v in ucols[0]]
    return transpose(ucols)


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def random_unimodular(n, rng, steps=12, bound=2):
    """Random element of SL_n(Z) as a product of elementary shears."""
    m = [list(r) for r in identity(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-bound, bound)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(r) for r in m)
