import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from orbitcount import lattice
from orbitcount.counting import _torsion_matrices, orbit_counts, quadric_series
from orbitcount.exact import (
    clear_denominators,
    inverse,
    invariant_factors,
    mat_mul,
    mat_vec,
    random_unimodular,
    transpose,
    vec_mat,
)
from orbitcount.lattice import (
    _content_bound,
    box_scan,
    cone_section_points,
    conic_parametrization,
    conic_points_up_to,
    fiber_section_points,
    indefinite_quadratic_shell,
)
from orbitcount.oracles import pairwise_orbits, two_squares_primitive_series
from orbitcount.presets import model_quadric_section, order_hurwitz, order_zsqrt2
from orbitcount.sections import quadric_section

H = Fraction(1, 2)
SEC = model_quadric_section()


def test_model_quadric_base_point_is_the_searched_one():
    searched = quadric_section([[0, 0, H], [0, -1, 0], [H, 0, 0]], (1, 0, 1), base_point=None)
    assert SEC == searched
    assert SEC.base_point == (0, 0, 1)


def _fiber_offset(section, k):
    """t u0 with t = s k, the offset of the fiber ell = k in section's frame."""
    fr = section.fiber_frame
    return tuple(Fraction(k) * fr.scale * u for u in fr.u0)


def test_affine_fiber_exactness():
    n = 3
    assert SEC.ell_value(_fiber_offset(SEC, 5)) == 5
    basis = SEC.fiber_frame.basis
    for j in range(n - 1):
        assert SEC.ell_value([basis[i][j] for i in range(n)]) == 0
    # rational form with no integral fiber: s k = 2/3 is not an integer
    sec = quadric_section([[0, 0, H], [0, -1, 0], [H, 0, 0]], (H, 0, H))
    assert (Fraction(1, 3) * sec.fiber_frame.scale).denominator != 1
    assert fiber_section_points(sec, Fraction(1, 3), primitive=False) == []


def test_cone_section_examples():
    assert cone_section_points(SEC, 5) == [(1, -2, 4), (1, 2, 4), (4, -2, 1), (4, 2, 1)]
    assert cone_section_points(SEC, 3) == []
    assert cone_section_points(SEC, 2) == [(1, -1, 1), (1, 1, 1)]
    with pytest.raises(ValueError):
        cone_section_points(SEC, 0)


def test_cone_section_invariants():
    oracle = two_squares_primitive_series(119)
    for k in range(1, 120):
        pts = cone_section_points(SEC, k)
        assert len(pts) == oracle[k - 1], k
        for p in pts:
            assert SEC.q_value(p) == 0
            assert SEC.ell_value(p) == k
            from math import gcd

            g = 0
            for c in p:
                g = gcd(g, abs(c))
            assert g == 1


def test_cone_section_rational_scaled_levels():
    # same cone, linear form halved: levels live in (1/2) Z
    sec = quadric_section([[0, 0, H], [0, -1, 0], [H, 0, 0]], (H, 0, H))
    assert sec.scale_e == 2
    assert fiber_section_points(sec, Fraction(5, 2)) == cone_section_points(SEC, 5)


# s = 2 for ell = (0, 0, 1/2): levels in (1/2) Z, fibers only where 2k is integral
HYP = quadric_section([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, H))
# ell = (-1, 0, 0): unimodular_completion must still give ell(u0) = +1
NEG = quadric_section([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], (-1, 0, 0))


def _box_section_points(section, k, qtarget, primitive, bound):
    """Every x with |x_i| <= bound, ell(x) = k and q(x) = qtarget, by a numpy scan
    of the box in integers (q and ell scaled by their common denominator)."""
    ints, _ = clear_denominators([g for row in section.gram for g in row] + list(section.ell)
                                 + [Fraction(k), Fraction(qtarget)])
    g = np.array(ints[:9], dtype=np.int64).reshape(3, 3)
    ax = np.arange(-bound, bound + 1, dtype=np.int64)
    x = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    hit = (x @ np.array(ints[9:12]) == ints[12]) & (np.einsum("ki,ij,kj->k", x, g, x) == ints[13])
    if primitive:
        hit &= np.gcd.reduce(np.abs(x), axis=1) == 1
    return sorted(map(tuple, x[hit].tolist()))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([SEC, HYP, NEG]), st.integers(-8, 8), st.sampled_from([1, 2, 3]),
       st.integers(-24, 24), st.sampled_from([1, 1, 2]), st.booleans())
def test_fiber_section_points_match_box_scan(section, kn, kd, qn, qd, primitive):
    # on these sections every solution has |x_i| <= 2|k| + sqrt|qtarget|: for the
    # model quadric x(k - x) - y^2 = qtarget with z = k - x, for HYP z = 2k and
    # x^2 + y^2 = qtarget + z^2, for NEG x = -k and y^2 + z^2 = qtarget + x^2;
    # q is integral on Z^3 here, so a qtarget in Z + 1/2 has no point
    k, qtarget = Fraction(kn, kd), Fraction(qn, qd)
    bound = 2 * abs(kn) + math.isqrt(math.floor(abs(qtarget))) + 1
    got = fiber_section_points(section, k, qtarget=qtarget, primitive=primitive)
    assert got == _box_section_points(section, k, qtarget, primitive, bound)


def test_fiber_points_refuse_an_int64_map():
    # x = t u0 + B y is bounded in Python ints before the int64 product: the
    # frame's basis scaled by 2^62 maps the fiber solutions y = (+-1, +-2)
    # and (+-2, +-1) past int64
    from dataclasses import replace

    sec = quadric_section([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, 1))
    assert len(fiber_section_points(sec, 1, qtarget=4)) == 8
    frame = sec.fiber_frame
    vars(sec)["fiber_frame"] = replace(frame, basis=tuple(tuple(2 ** 62 * b for b in row) for row in frame.basis))
    with pytest.raises(ValueError, match="2\\^63"):
        fiber_section_points(sec, 1, qtarget=4)


def test_fiber_of_negative_first_coordinate_form():
    assert _fiber_offset(NEG, 2) == (-2, 0, 0)
    for k in range(1, 30):
        assert all(NEG.ell_value(p) == k for p in cone_section_points(NEG, k)), k
    assert cone_section_points(NEG, 5)[0] == (-5, -4, -3)


def test_conic_matches_fiber_route():
    pts, lvls = conic_points_up_to(SEC, 150)
    for k in range(1, 151):
        batch = sorted(tuple(int(c) for c in p) for p in pts[lvls == k])
        assert batch == cone_section_points(SEC, k), k


@st.composite
def conic_sections(draw):
    """c (a x^2 + b y^2 - (a + b) z^2), zero (1, 1, 1), or c (a x z - b y^2),
    zero (0, 0, 1), each definite on the kernel of its ell, then moved by a
    random unimodular change of variables x = U y."""
    a, b = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    c = draw(st.sampled_from([Fraction(1, 2), 1, 3, -1]))
    level = draw(st.sampled_from([1, 2, Fraction(1, 2)]))
    if draw(st.booleans()):
        g0, ell0, v0 = ((a, 0, 0), (0, b, 0), (0, 0, -a - b)), (0, 0, level), (1, 1, 1)
    else:
        h = Fraction(a, 2)
        g0, ell0, v0 = ((0, 0, h), (0, -b, 0), (h, 0, 0)), (level, 0, level), (0, 0, 1)
    u = random_unimodular(3, draw(st.randoms(use_true_random=False)), steps=draw(st.integers(0, 12)))
    gram = mat_mul(transpose(u), mat_mul([[c * x for x in row] for row in g0], u))
    return quadric_section(gram, vec_mat(ell0, u), base_point=mat_vec(inverse(u), v0))


def _content_matrix(phi):
    # the 5 x 9 matrix _content_bound reduces: column (i, shift) holds phi_i
    # times s^2, s t or t^2 as coefficients of s^4, ..., t^4
    return [[phi[i][r - sh] if 0 <= r - sh <= 2 else 0 for i in range(3) for sh in range(3)]
            for r in range(5)]


def _sympy_independent(rows):
    return sympy.Matrix(rows).rank() == len(rows)


def _sympy_invariant_factors(m):
    snf = smith_normal_form(sympy.Matrix(m))
    return [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=9, max_size=9))
def test_invariant_factors_match_sympy_smith_form(flat):
    phi = (tuple(flat[:3]), tuple(flat[3:6]), tuple(flat[6:]))
    m = _content_matrix(phi)
    factors = invariant_factors(m)
    assert factors == _sympy_invariant_factors(m)
    assert len(factors) == sympy.Matrix(m).rank()
    if len(factors) < 5:
        with pytest.raises(AssertionError, match="share a root"):
            _content_bound(phi)
    else:
        assert _content_bound(phi) == factors[-1]


@settings(max_examples=60, deadline=None)
@given(conic_sections())
def test_conic_parametrization_matches_sympy_route(sec):
    # the same output with the basis completion and the content bound taken
    # from sympy's rank and Smith normal form
    phi, psi, n_bound = got = conic_parametrization(sec)
    assert invariant_factors(_content_matrix(phi)) == _sympy_invariant_factors(_content_matrix(phi))
    with mock.patch.object(lattice, "_independent", _sympy_independent), \
            mock.patch.object(lattice, "invariant_factors", _sympy_invariant_factors):
        assert conic_parametrization(sec) == got
    for s, t in ((1, 0), (0, 1), (1, 1), (2, -1)):
        x = [f[0] * s * s + f[1] * s * t + f[2] * t * t for f in phi]
        assert sec.q_value(x) == 0
        assert sec.scale_e * sec.ell_value(x) == psi[0] * s * s + psi[1] * s * t + psi[2] * t * t
    assert psi[0] > 0 and psi[1] ** 2 < 4 * psi[0] * psi[2] and n_bound > 0
    assert abs(psi[1]) <= psi[0] <= psi[2]  # Gauss-reduced


def test_conic_points_do_not_grow_with_a_skewed_basis():
    # the model quadric moved by U: its unreduced psi is about (2, -4M, 2M^2),
    # and an (s, t) scan on it runs s up to about M sqrt(r)
    m = 2 ** 22
    u = ((1, -m, m * m), (0, 1, -m), (0, 0, 1))
    from orbitcount.symmetry import transformed_section

    moved = transformed_section(SEC, u)
    _, psi, _ = conic_parametrization(moved)
    assert abs(psi[1]) <= psi[0] <= psi[2]
    pts, lvls = conic_points_up_to(moved, 60)
    base, base_lvls = conic_points_up_to(SEC, 60)
    u_inv = inverse(u)
    want = sorted((lv, *mat_vec(u_inv, p)) for lv, p in zip(base_lvls.tolist(), base.tolist()))
    assert _sorted_rows(pts, lvls) == want
    assert len(want) == 56


def test_conic_points_refuse_int64_overflow():
    # q = G (xz - y^2) has the model quadric's points, with phi = G * identity
    def scaled(g):
        h = Fraction(g, 2)
        return quadric_section([[0, 0, h], [0, -g, 0], [h, 0, 0]], (1, 0, 1), base_point=(0, 0, 1))

    pts, lvls = conic_points_up_to(SEC, 50)
    big_pts, big_lvls = conic_points_up_to(scaled(2 ** 52), 50)
    assert np.array_equal(big_pts, pts) and np.array_equal(big_lvls, lvls)
    with pytest.raises(ValueError, match="2\\^63"):
        conic_points_up_to(scaled(2 ** 58), 50)


def test_box_scan_example():
    zs2 = order_zsqrt2()
    from orbitcount.algebra import alg_norm

    got = box_scan(zs2, 1, 3)
    # |norm| = 1 in the box: +-(1,0), +-(3,2), +-(3,-2) of norm 1, +-(1,1),
    # +-(1,-1) of norm -1
    assert {x.coords for x in got} == {
        (1, 0), (-1, 0), (3, 2), (-3, -2), (3, -2), (-3, 2),
        (1, 1), (-1, -1), (1, -1), (-1, 1),
    }
    positive = sorted(x.coords for x in got if alg_norm(x, zs2.algebra) == 1)
    assert positive == [(-3, -2), (-3, 2), (-1, 0), (1, 0), (3, -2), (3, 2)]
    assert box_scan(zs2, 70, 3) == []
    with pytest.raises(ValueError):
        box_scan(zs2, 1, 0)


def test_indefinite_shell_orbit_counts():
    zs2 = order_zsqrt2()
    assert len(indefinite_quadratic_shell(zs2, 1)) == 1
    assert len(indefinite_quadratic_shell(zs2, 2)) == 1
    assert len(indefinite_quadratic_shell(zs2, 3)) == 0
    with pytest.raises(ValueError):
        indefinite_quadratic_shell(zs2, 0)


def test_indefinite_shell_vs_pairwise_box_oracle():
    zs2 = order_zsqrt2()
    from orbitcount.algebra import alg_norm

    for k in (1, 2, 4, 7, 8, 14, 17, -1, -2, -7):
        reps = indefinite_quadratic_shell(zs2, k)
        box = [x for x in box_scan(zs2, abs(k), 25) if alg_norm(x, zs2.algebra) == k]
        if not box:
            assert reps == []
            continue
        classes = pairwise_orbits(box, zs2)
        # the box may truncate orbits but not create new ones: class count of the
        # box is a lower bound achieved when every orbit meets the box
        assert len(reps) == len(classes), k


def test_indefinite_shell_saturation_under_bound_doubling():
    # enumerations with the balanced-window bound are already orbit-complete;
    # doubling the coordinate box in the oracle cannot find more orbits
    zs2 = order_zsqrt2()
    from orbitcount.algebra import alg_norm

    for k in (1, 2, 8, 17):
        small = pairwise_orbits(
            [x for x in box_scan(zs2, k, 12) if alg_norm(x, zs2.algebra) == k], zs2
        )
        big = pairwise_orbits(
            [x for x in box_scan(zs2, k, 24) if alg_norm(x, zs2.algebra) == k], zs2
        )
        assert len(small) == len(big) == len(indefinite_quadratic_shell(zs2, k))


def _sorted_rows(pts, lvls):
    """The (level, x) rows of conic_points_up_to, sorted: they come in scan
    order, and a missing or repeated row still shows."""
    return sorted((lv, *p) for lv, p in zip(lvls.tolist(), pts.tolist()))


def _conic_points_per_s(section, r_scaled):
    """conic_points_up_to as one t window per s: the points in any order."""
    phi, (a, b, c), n_bound = conic_parametrization(section)
    bound = r_scaled * n_bound
    smax = math.isqrt(4 * c * bound // (4 * a * c - b * b)) + 2
    out = []
    for s in range(smax + 1):
        dd = b * b * s * s - 4 * c * (a * s * s - bound)
        if dd < 0:
            continue
        root = math.isqrt(dd)
        for t in range((-b * s - root) // (2 * c) - 1, (-b * s + root) // (2 * c) + 3):
            val = a * s * s + b * s * t + c * t * t
            if not 0 < val <= bound or (s == 0 and t <= 0) or math.gcd(s, t) != 1:
                continue
            x = [f0 * s * s + f1 * s * t + f2 * t * t for f0, f1, f2 in phi]
            g = math.gcd(*x)
            assert val % g == 0
            if val // g <= r_scaled:
                out.append((val // g, *(v // g for v in x)))
    return sorted(out)


# cones whose conic points have content 2 throughout (the model quadric),
# 1 or 2 (x^2 + y^2 = z^2) and 1, 2, 3 or 6 (x^2 + 2 y^2 = 3 z^2, n_bound 12)
CONES = (SEC, quadric_section([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 0, 1)),
         quadric_section([[1, 0, 0], [0, 2, 0], [0, 0, -3]], (0, 0, 1)))


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 12), st.integers(0, 400), st.sampled_from(CONES))
def test_conic_points_match_per_s_windows(rng, steps, r, cone):
    from orbitcount.symmetry import transformed_section

    sec = cone if steps == 0 else transformed_section(cone, random_unimodular(3, rng, steps=steps))
    pts, lvls = conic_points_up_to(sec, r)
    assert pts.shape == (len(lvls), 3) and pts.dtype == lvls.dtype == np.int64
    assert _sorted_rows(pts, lvls) == _conic_points_per_s(sec, r)  # each point once


@st.composite
def key_columns(draw):
    # up to four key columns; wide ones push the span product past 2^63, and a
    # column past int64 is an object array of Python ints
    rows = draw(st.integers(0, 60))
    widths = draw(st.lists(st.sampled_from([1, 3, 2 ** 20, 2 ** 40, 2 ** 62, 2 ** 70]), min_size=1, max_size=4))
    return [np.array([draw(st.integers(-w, w)) for _ in range(rows)], dtype=object if w > 2 ** 63 else np.int64)
            for w in widths]


@settings(max_examples=150, deadline=None)
@given(key_columns())
def test_row_order_matches_lexsort(columns):
    from orbitcount.lattice import row_order

    assert row_order(columns).tolist() == np.lexsort(columns[::-1]).tolist()


# spans -> number of keys: span products 2^63 - 2^31 (one int64 code), 2^63
# and 3 * 2^62 (two codes), a span of 2^64 - 1 (a key of its own); a span
# past 2^64 is an object column of Python ints, a key of its own
PACKED_KEYS = {(2 ** 31, 2 ** 32 - 1): 1, (2 ** 31, 2 ** 32): 2, (2 ** 64 - 1,): 1, (3, 2 ** 61, 2): 2,
               (2 ** 31, 2 ** 73, 2 ** 31): 3, (2 ** 73, 3, 2 ** 61): 2}


def _packed_edge_columns(spans):
    """400-row key columns with exactly the given spans and repeated rows."""
    rng = np.random.default_rng(len(spans))
    columns = []
    for span in spans:
        wide = span > 2 ** 64  # an int64 column times 2^9, as Python ints
        lo = -(2 ** 63) if span > 2 ** 63 else -(span // 2)
        top = 2 ** 64 - 1 if wide else span
        col = rng.integers(lo, lo + top, size=400, dtype=np.int64, endpoint=False)
        col[:2] = lo, lo + top - 1  # both ends, so the span is exact
        col[2:6] = col[6:10]  # repeated rows
        columns.append(np.array([v * 2 ** 9 for v in col.tolist()], dtype=object) if wide else col)
    return columns


@pytest.mark.parametrize("spans", list(PACKED_KEYS))
def test_row_order_at_the_packed_code_edge(spans):
    # the same stable permutation as np.lexsort of the columns, ties included
    from orbitcount.lattice import row_order

    columns = _packed_edge_columns(spans)
    with mock.patch.object(lattice.np, "lexsort", wraps=np.lexsort) as lexsort:
        got = row_order(columns)
    assert len(lexsort.call_args.args[0]) == PACKED_KEYS[spans]
    assert got.tolist() == np.lexsort(columns[::-1]).tolist()


@pytest.mark.parametrize("r", [38501, 10 ** 5])
def test_conic_points_keep_their_order_past_one_code(r):
    # the model quadric's (level, x) spans pass 2^63 between these radii, so
    # at 10^5 orbit_counts, the one sort of the conic rows, orders them by
    # row_order, not by one int64 code; the series totals stay the same
    pts, lvls = conic_points_up_to(SEC, r)
    assert pts.shape == (len(lvls), 3) and pts.dtype == lvls.dtype == np.int64
    assert _sorted_rows(pts, lvls) == _conic_points_per_s(SEC, r)
    SEC.symmetry_group  # derived before the sorts below are watched
    with mock.patch.object(lattice.np, "lexsort", wraps=np.lexsort) as lexsort:
        series = quadric_series(SEC, r)
    assert lexsort.called == (r == 10 ** 5)
    totals = {38501: (18376, 222441), 10 ** 5: (47760, 623264)}
    assert (int(series.n_prim.sum()), int(series.n_all.sum())) == totals[r]


@pytest.mark.parametrize("r", [1, 7, 60, 400, 5000])
def test_conic_coprimality_table_matches_gcd(r):
    # the coprime (s, t) come from one sieved lookup table over the (s, |t|) box
    for cone in CONES:
        pts, lvls = conic_points_up_to(cone, r)
        assert _sorted_rows(pts, lvls) == _conic_points_per_s(cone, r)


def _hurwitz_ball_rows():
    """The Hurwitz order's norm <= 3 ball, its norms as levels, and its units."""
    order = order_hurwitz()
    pts, twice_q, scale = order.ball
    return pts, twice_q // (2 * scale), _torsion_matrices(order, order.units), 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(CONES)), st.integers(1, 400), st.randoms(use_true_random=False))
def test_orbit_counts_do_not_depend_on_the_row_order(case, r, rng):
    # the conic rows come in scan order and orbit_counts is their only sort:
    # shuffled rows give the same counts, and one row dropped still trips it
    if case < len(CONES):
        pts, lvls = conic_points_up_to(CONES[case], r)
        args = (CONES[case].symmetry_group.elements, r + 1)
    else:
        pts, lvls, *args = _hurwitz_ball_rows()
    want = [c.tolist() for c in orbit_counts(pts, lvls, *args)]
    perm = list(range(len(lvls)))
    rng.shuffle(perm)
    assert [c.tolist() for c in orbit_counts(pts[perm], lvls[perm], *args)] == want
    with pytest.raises(AssertionError, match="an orbit is incomplete"):
        orbit_counts(pts[perm[1:]], lvls[perm[1:]], *args)
