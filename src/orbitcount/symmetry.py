"""Finite integral symmetry groups of quadric sections, orbit partitions,
and relative stabilizer weights.

The symmetry group of a section (q, ell) is the set of integer matrices g
with det g = 1, g^t G g = G and ell g = ell.  With q|ker(ell) definite the
real symmetry group is compact and connected on its determinant-one part, so
the determinant filter is exactly the identity-component condition; the group
is finite and is computed completely, column by column.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .exact import inverse, mat_mul, mat_vec, scalar, transpose, vec_mat
from .lattice import fiber_section_points
from .orders import integer_dets
from .shells import DOMAIN_BLOCK, _bilinear_bound, _check_int64, _scaled_integer_gram

COLUMN_CANDIDATE_CAP = 10 ** 6


@dataclass(frozen=True)
class SymmetryGroup:
    elements: tuple   # integer matrices (tuples of rows)

    @property
    def order(self):
        return len(self.elements)


@dataclass(frozen=True)
class Orbit:
    representative: tuple
    size: int
    stabilizer_order: int
    relative_weight: Fraction


@dataclass(frozen=True)
class OrbitReport:
    level: object
    orbits: tuple

    def total_points(self):
        return sum(o.size for o in self.orbits)


def _column_candidates(section, j):
    """All integer vectors v with q(v) = G_jj and ell(v) = ell_j, the possible
    images of basis vector e_j under a symmetry, as sorted int64 rows."""
    pts = fiber_section_points(section, section.ell[j], qtarget=section.gram[j][j], primitive=False)
    if len(pts) > COLUMN_CANDIDATE_CAP:
        raise RuntimeError(
            f"candidate shell for column {j} exceeds {COLUMN_CANDIDATE_CAP}; "
            "section looks mis-specified"
        )
    return np.array(pts, dtype=np.int64).reshape(-1, section.dim)


def integral_symmetries(section):
    """The complete finite symmetry group of the section, its elements sorted.

    The images of e_0, e_1, ... are placed column by column (the isometry
    search of Plesken and Souvignier, J. Symbolic Comput. 24 (1997)): each
    step extends every partial column set by every candidate at once and
    keeps those whose products c_i^t (2sG) c_j with the placed columns equal
    2s G_ij.  The determinant-one (identity component) filter follows, and
    an exact comparison of the products of all pairs with the elements.
    Every int64 product is bounded first.
    """
    n = section.dim
    cand = [_column_candidates(section, j) for j in range(n)]
    _, gi = _scaled_integer_gram(section.gram)
    xmax = max(int(np.abs(c).max(initial=1)) for c in cand)
    _check_int64(_bilinear_bound(gi, [xmax] * n), n * xmax * xmax)
    g = np.array(gi, dtype=np.int64)
    cols = cand[0][:, None]  # (partial sets, placed columns, n)
    for j in range(1, n):
        fits = (cols @ g @ cand[j].T == np.array(gi[j][:j])[:, None]).all(axis=1)
        p, c = np.nonzero(fits)
        cols = np.concatenate([cols[p], cand[j][c, None]], axis=1)
    mats = cols.transpose(0, 2, 1)
    mats = mats[integer_dets(mats) == 1]
    elements = tuple(sorted(tuple(map(tuple, m)) for m in mats.tolist()))
    if not elements:
        raise AssertionError("symmetry search found nothing, not even the identity")
    # in a group each element is a b for exactly m pairs with a among any m
    # left factors; conversely the set is closed, so, finite and invertible,
    # it holds 1.  Blocks of left factors keep DOMAIN_BLOCK products at a time
    flat = np.array(elements, dtype=np.int64).reshape(-1, n * n)
    step = max(1, DOMAIN_BLOCK // len(flat))
    for a in range(0, len(flat), step):
        prods = (mats[a:a + step, None] @ mats).reshape(-1, n * n)
        if not np.array_equal(prods[np.lexsort(prods.T[::-1])], np.repeat(flat, len(prods) // len(flat), axis=0)):
            raise AssertionError("symmetry group not closed under product")
    return SymmetryGroup(elements=elements)


def apply_matrix(g, x):
    return tuple(sum(g[i][j] * x[j] for j in range(len(x))) for i in range(len(g)))


def orbit_partition(points, group, level=None):
    """Partition a group-closed point set into orbits with exact stabilizer
    orders; relative weight of an orbit is 1 / stabilizer order."""
    pset = set(map(tuple, points))
    orbits = []
    seen = set()
    for p in sorted(pset):
        if p in seen:
            continue
        orbit = {apply_matrix(g, p) for g in group.elements}
        if not orbit <= pset:
            raise ValueError("point set is not closed under the group (enumeration bug upstream)")
        seen |= orbit
        stab = sum(1 for g in group.elements if apply_matrix(g, p) == p)
        if stab * len(orbit) != group.order:
            raise AssertionError("orbit-stabilizer identity violated")
        orbits.append(
            Orbit(
                representative=min(orbit),
                size=len(orbit),
                stabilizer_order=stab,
                relative_weight=Fraction(1, stab),
            )
        )
    return OrbitReport(level=level, orbits=tuple(orbits))


def weighted_count(report):
    """Sum of relative orbit weights: the level's weighted class count up to one
    global normalisation constant (the same for every level of a section, since
    all point stabilizers are conjugate in the real symmetry group)."""
    return scalar(sum((o.relative_weight for o in report.orbits), Fraction(0)))


def transformed_section(section, u):
    """The section seen through the coordinate change x = U x': gram becomes
    U^t G U, the linear form ell U, the base point U^-1 v0."""
    g = section.gram
    ut = transpose(u)
    new_gram = mat_mul(ut, mat_mul(g, u))
    new_ell = vec_mat(section.ell, u)
    uinv = inverse(u)
    new_base = mat_vec(uinv, section.base_point)
    return replace(
        section,
        gram=tuple(tuple(scalar(x) for x in row) for row in new_gram),
        ell=tuple(scalar(x) for x in new_ell),
        base_point=tuple(int(x) for x in new_base),
    )
