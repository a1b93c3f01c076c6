"""Finite integral symmetry groups of quadric sections, orbit partitions,
and relative stabilizer weights.

The symmetry group of a section (q, ell) is the set of integer matrices g
with det g = 1, g^t G g = G and ell g = ell.  With q|ker(ell) definite the
real symmetry group is compact and connected on its determinant-one part, so
the determinant filter is exactly the identity-component condition; the group
is finite and is computed completely by column backtracking.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    definiteness, det, identity, inverse, mat_mul, mat_vec, scalar, transpose, vec_mat,
)
from .lattice import fiber_section_points
from .sections import QuadricSectionSpec

COLUMN_CANDIDATE_CAP = 10 ** 6


@dataclass(frozen=True)
class SymmetryGroup:
    elements: tuple   # integer matrices (tuples of rows)
    order: int

    def __post_init__(self):
        if len(self.elements) != self.order:
            raise ValueError("order does not match element count")


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
    """All integer vectors v with q(v) = G_jj and ell(v) = ell_j: the possible
    images of basis vector e_j under a symmetry."""
    target_q = section.gram[j][j]
    target_l = section.ell[j]
    pts = fiber_section_points(section, target_l, qtarget=target_q, primitive=False)
    if len(pts) > COLUMN_CANDIDATE_CAP:
        raise RuntimeError(
            f"candidate shell for column {j} exceeds {COLUMN_CANDIDATE_CAP}; "
            "section looks mis-specified"
        )
    return pts


def integral_symmetries(section):
    """The complete finite symmetry group of the section.

    Backtracking over basis-vector images constrained by exact preservation of
    all pairwise products of the quadratic form and of the linear form, then
    the determinant-one (identity component) filter.
    """
    if definiteness(section.fiber_frame.gram) == 0:
        raise ValueError("q|ker(ell) must be definite")
    n = section.dim
    cand = [_column_candidates(section, j) for j in range(n)]
    cols = [None] * n
    found = []

    def place(j):
        if j == n:
            g = tuple(tuple(cols[i][r] for i in range(n)) for r in range(n))  # column matrix
            if det(g) == 1:
                found.append(g)
            return
        for v in cand[j]:
            ok = True
            for i in range(j):
                if section.bilinear(cols[i], v) != section.gram[i][j]:
                    ok = False
                    break
            if ok:
                cols[j] = v
                place(j + 1)
        cols[j] = None

    place(0)
    elements = sorted(found)
    group = SymmetryGroup(elements=tuple(elements), order=len(elements))
    _check_group_axioms(group)
    return group


def _check_group_axioms(group):
    if group.order == 0:
        raise AssertionError("symmetry backtracking found nothing, not even the identity")
    elems = set(group.elements)
    if identity(len(group.elements[0])) not in elems:
        raise AssertionError("identity missing from symmetry group")
    for a in group.elements:
        for b in group.elements:
            if mat_mul(a, b) not in elems:
                raise AssertionError("symmetry group not closed under product")


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
    return QuadricSectionSpec(
        gram=tuple(tuple(scalar(x) for x in row) for row in new_gram),
        ell=tuple(scalar(x) for x in new_ell),
        base_point=tuple(int(x) for x in new_base),
        scale_e=section.scale_e,
    )
