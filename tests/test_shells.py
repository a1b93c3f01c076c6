import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitcount.exact import definiteness, inverse, random_unimodular, solve
from orbitcount.oracles import r4_series
from orbitcount.orders import norm_gram
from orbitcount.presets import order_hurwitz, order_lipschitz
from orbitcount.shells import (
    ball_points,
    definite_shell,
    positive_form,
    quadratic_points,
    theta_series,
    truncated_product_sum,
)
from orbitcount.shells import _NTT_PRIMES, _ntt_forward, _ntt_inverse, _transform_plan

I2 = [[1, 0], [0, 1]]
I4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def two_squares_all(k):
    """Oracle: all integer pairs with a^2 + b^2 = k by direct scan."""
    out = set()
    for a in range(-math.isqrt(k) - 1, math.isqrt(k) + 2):
        b2 = k - a * a
        if b2 < 0:
            continue
        b = math.isqrt(b2)
        if b * b == b2:
            out.add((a, b))
            out.add((a, -b))
    return sorted(out)


def test_shell_examples():
    assert definite_shell(I2, 5) == two_squares_all(5)
    assert len(definite_shell(I2, 5)) == 8
    assert definite_shell(I2, 3) == []
    assert len(definite_shell(I4, 1)) == 8


def test_shell_closed_under_negation_and_exact():
    for m in (1, 2, 4, 5, 9, 25, 50):
        shell = definite_shell(I2, m)
        pts = set(shell)
        for p in shell:
            assert tuple(-c for c in p) in pts
            assert p[0] ** 2 + p[1] ** 2 == m


def test_shell_permuted_coordinates_same_set():
    g = [[2, 1], [1, 3]]
    gp = [[3, 1], [1, 2]]  # coordinates swapped
    for m in (1, 2, 3, 4, 5, 10, 20):
        a = definite_shell(g, m)
        b = sorted((y, x) for x, y in definite_shell(gp, m))
        assert sorted(a) == b


def test_shell_rational_gram_and_level():
    h = Fraction(1, 2)
    g = [[1, 0], [0, h]]
    # x^2 + y^2/2 = 3/2  ->  (1, 1) types and (0, ...) none
    sols = definite_shell(g, Fraction(3, 2))
    assert sols == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_shell_rejects_indefinite_or_negative():
    bad = [[1, 0], [0, -1]]
    with pytest.raises(ValueError):
        definite_shell(bad, 1)
    with pytest.raises(ValueError):
        definite_shell(I2, -1)


@pytest.mark.parametrize("enumerate_", [lambda g: definite_shell(g, 1), lambda g: ball_points(g, 1),
                                        lambda g: theta_series(g, 1)])
@pytest.mark.parametrize("gram, why", [
    ([[1, 0, 0], [0, 1, 0]], "wrong shape"),  # its leading minors are all positive
    ([[1, 0], [0, 1], [0, 0]], "wrong shape"),
    ([[2, 1], [0, 2]], "not symmetric"),  # leading minors 2 and 4
])
def test_enumerators_refuse_a_malformed_gram(enumerate_, gram, why):
    with pytest.raises(ValueError, match=why):
        enumerate_(gram)


def _ball_by_level(gram, r):
    """{m: sorted points of level m} from ball_points, for an integer-valued form."""
    pts, vals2, s = ball_points(gram, r)
    assert s == 1
    by_level = {}
    for p, v in zip(pts.tolist(), (vals2 // 2).tolist()):
        by_level.setdefault(v, []).append(tuple(p))
    return {m: sorted(shell) for m, shell in by_level.items()}


def test_ball_examples():
    assert {m: len(s) for m, s in _ball_by_level(I4, 1).items()} == {1: 8}
    assert {m: len(s) for m, s in _ball_by_level(I2, 2).items()} == {1: 4, 2: 4}
    assert _ball_by_level(I2, 0) == {}


def test_ball_matches_per_level_shells():
    g = [[2, 1], [1, 3]]
    ball = _ball_by_level(g, 40)
    for m in range(1, 41):
        assert ball.get(m, []) == definite_shell(g, m)


def test_ball_points_agrees_with_recursion_dim4():
    hur = norm_gram(order_hurwitz())
    pts, vals2, s = ball_points(hur, 12)
    by_level = {}
    for p, v in zip(pts.tolist(), (vals2 // (2 * s)).tolist()):
        by_level.setdefault(v, set()).add(tuple(p))
    for m in range(1, 13):
        assert by_level.get(m, set()) == set(definite_shell(hur, m)), m


def test_ball_points_dim1():
    pts, vals2, s = ball_points([[3]], 30)
    assert s == 1
    assert pts.tolist() == [[-3], [-2], [-1], [1], [2], [3]]
    assert vals2.tolist() == [54, 24, 6, 6, 24, 54]
    pts, vals2, s = ball_points([[Fraction(1, 2)]], 2)
    assert (pts.tolist(), vals2.tolist(), s) == ([[-2], [-1], [1], [2]], [8, 2, 2, 8], 2)


def test_theta_lipschitz_matches_jacobi():
    lip = norm_gram(order_lipschitz())
    assert positive_form(lip).scale == 1
    t = theta_series(lip, 1000)
    assert t[0] == 1
    assert t[1:].tolist() == r4_series(1000)


def test_theta_at_large_r_matches_divisor_sums():
    # r = 3e4 runs the transform route; the references are divisor sieves:
    # #{x in Hurwitz order : nrd(x) = m} = 24 * (sum of the odd divisors of m)
    r = 30000
    sigma_odd = [0] * (r + 1)
    for d in range(1, r + 1, 2):
        for m in range(d, r + 1, d):
            sigma_odd[m] += d
    t = theta_series(norm_gram(order_hurwitz()), r)
    assert t[0] == 1
    assert t[1:].tolist() == [24 * c for c in sigma_odd[1:]]
    t = theta_series(norm_gram(order_lipschitz()), r)
    assert t[1:].tolist() == r4_series(r)


def test_theta_hurwitz_matches_direct_shells():
    hur = norm_gram(order_hurwitz())
    t = theta_series(hur, 60)
    for m in range(1, 61):
        assert t[m] == len(definite_shell(hur, m)), m


def test_theta_dim2():
    t = theta_series(I2, 50)
    for m in (1, 2, 3, 4, 5, 25, 50):
        assert t[m] == len(two_squares_all(m))


def _solutions(a, b, c, h=None):
    """quadratic_points as a sorted list of point tuples."""
    pts, _ = quadratic_points(a, b, c, h)
    return sorted(map(tuple, pts.tolist()))


def test_quadratic_points_2d_matches_brute_force():
    cases = [
        (1, 0, 1, 1, 0, -4),
        (2, 1, 3, 0, -2, -11),
        (5, -1, 2, 3, 1, -40),
    ]
    for a11, a12, a22, b1, b2, c in cases:
        got = _solutions([[a11, a12], [a12, a22]], [b1, b2], c)
        want = sorted(
            (x, y)
            for x in range(-60, 61)
            for y in range(-60, 61)
            if a11 * x * x + 2 * a12 * x * y + a22 * y * y + 2 * b1 * x + 2 * b2 * y + c == 0
        )
        assert got == want, (a11, a12, a22, b1, b2, c)


def test_theta_dim3_matches_recursion():
    g = [[2, 0, 1], [0, 3, 1], [1, 1, 4]]
    t = theta_series(g, 40)
    for m in range(1, 41):
        assert t[m] == len(definite_shell(g, m)), m


def test_theta_random_quaternary_matches_recursion():
    g = [[2, 1, 0, 0], [1, 2, 0, 1], [0, 0, 3, 1], [0, 1, 1, 2]]
    from orbitcount.exact import definiteness

    assert definiteness(g) == 1
    t = theta_series(g, 30)
    for m in range(1, 31):
        assert t[m] == len(definite_shell(g, m)), m


def test_theta_half_integer_offdiag():
    h = Fraction(1, 2)
    g = [[1, h, 0], [h, 2, h], [0, h, 1]]
    assert positive_form(g).scale == 1
    t = theta_series(g, 25)
    for m in range(1, 26):
        assert t[m] == len(definite_shell(g, m)), m


@pytest.mark.parametrize("g, r", [
    # the classes c of adj(A) X w mod det A = 255 are all distinct here
    ([[10, Fraction(5, 2), -2], [Fraction(5, 2), 7, -5], [-2, -5, 6]], 60),
    # at r = 40, level 39 needs the v-box widened by one beyond the y-box
    ([[4, 2, 2], [2, 8, -1], [2, -1, 3]], 40),
])
def test_theta_coupled_ternary_matches_recursion(g, r):
    t = theta_series(g, r)
    assert t[0] == 1
    for m in range(1, r + 1):
        assert t[m] == len(definite_shell(g, m)), m


@st.composite
def integer_valued_forms(draw):
    n = draw(st.integers(2, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = draw(st.integers(1, 6))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = Fraction(draw(st.integers(-5, 5)), 2)
    assume(definiteness(g) == 1)
    return g


@settings(max_examples=60, deadline=None)
@given(integer_valued_forms(), st.integers(0, 40))
def test_theta_matches_shells_on_random_forms(g, r):
    t = theta_series(g, r)
    assert len(t) == r + 1 and t[0] == 1
    for m in range(1, r + 1):
        assert t[m] == len(definite_shell(g, m)), (g, m)


@pytest.mark.parametrize("g", [
    [[2 ** 62, 0], [0, 1]],
    [[2 ** 61, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, Fraction(1, 2)], [0, 0, 1, 0], [0, Fraction(1, 2), 0, 2 ** 62]],
])
def test_theta_refuses_int64_overflow(g):
    with pytest.raises(ValueError, match="2\\^63"):
        theta_series(g, 4)


def test_ball_points_refuses_int64_overflow():
    with pytest.raises(ValueError, match="2\\^63"):
        ball_points([[2 ** 62, 0], [0, 1]], 4)


def test_quadratic_points_refuses_past_int64():
    # 2 y0^2 + 2 y1^2 = 2^61 holds at (2^30, 0), and every input fits int64,
    # but on the row y1 = 0 the discriminant of twice the quadratic in y0,
    # 4 y0^2 - 2^62, is 0 - 4 (-2^62) = 2^64
    assert len(_solutions([[2, 0], [0, 2]], [0, 0], -2 * 25)) == 12
    with pytest.raises(ValueError, match="2\\^63"):
        quadratic_points([[2, 0], [0, 2]], [0, 0], -2 ** 61)
    # y^2 + 2^41 y = 0 at y = -2^41: the linear term alone puts the
    # discriminant, about 2^82, past int64
    assert _solutions([[1]], [2 ** 20], 0) == [(-(2 ** 21),), (0,)]
    with pytest.raises(ValueError, match="2\\^63"):
        quadratic_points([[1]], [2 ** 40], 0)


def test_quadratic_points_just_under_int64_matches_python_scan():
    # t1^2 + D t2^2 + 2 b1 t1 + 2 b2 t2 + c = 0 through (33000, 1); the
    # constant C = b2^2 - D (c - b1^2) of a reduction by det A = D is just
    # under 2^63, while the enumerator's own intermediates stay far below it
    d, b1, b2 = 2 ** 31 - 1, 12345, -6789
    c = -(33000 ** 2 + d + 2 * b1 * 33000 + 2 * b2)
    cc = b2 * b2 - d * (c - b1 * b1)
    assert 2 ** 62 < cc < 2 ** 63
    want = set()
    t2 = 0
    while d * t2 * t2 - 2 * abs(b2 * t2) <= b1 * b1 - c:  # every t2 with a real t1
        for y in {t2, -t2}:
            rhs = b1 * b1 - c - d * y * y - 2 * b2 * y  # (t1 + b1)^2
            root = math.isqrt(max(rhs, 0))
            if rhs >= 0 and root * root == rhs:
                want |= {(-b1 + root, y), (-b1 - root, y)}
        t2 += 1
    assert _solutions([[1, 0], [0, d]], [b1, b2], c) == sorted(want) == [(-57690, 1), (33000, 1)]


@st.composite
def inhomogeneous_quadratics(draw):
    """(a, b, c) with a an integer positive definite matrix of dim 1..4, in
    half the draws skewed to V^t a0 V by a random unimodular V, and random
    integer b and c."""
    n = draw(st.integers(1, 4))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = draw(st.integers(1, 8))
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = draw(st.integers(-3, 3))
    assume(definiteness(a) == 1)
    if n > 1 and draw(st.booleans()):
        v = random_unimodular(n, draw(st.randoms(use_true_random=False)), steps=draw(st.integers(1, 8)))
        a = [[sum(v[k][i] * a[k][l] * v[l][j] for k in range(n) for l in range(n)) for j in range(n)]
             for i in range(n)]
    b = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    return a, b, draw(st.integers(-40, 10))


@settings(max_examples=80, deadline=None)
@given(inhomogeneous_quadratics())
def test_quadratic_points_shell_mode_matches_definite_shell(quadratic):
    # homogenised: with K > b^t a^-1 b the form g = [[a, b], [b^t, K]] is
    # positive definite and g[(y, 1)] = f(y) - c + K, so the solutions are
    # the points of the shell g = K - c whose last coordinate is 1
    a, b, c = quadratic
    n = len(a)
    k = math.floor(sum(bi * yi for bi, yi in zip(b, solve(a, b)))) + 1
    g = [[*row, bi] for row, bi in zip(a, b)] + [[*b, k]]
    want = [x[:-1] for x in definite_shell(g, k - c) if x[-1] == 1] if k - c >= 0 else []
    got = _solutions(a, b, c)
    assert got == want
    for y in got:
        assert sum(a[i][j] * y[i] * y[j] for i in range(n) for j in range(n)) + 2 * sum(
            bi * yi for bi, yi in zip(b, y)) + c == 0


@settings(max_examples=150, deadline=None)
@given(inhomogeneous_quadratics(), st.integers(-5, 60))
def test_quadratic_points_ball_mode_matches_box_scan(quadratic, h):
    a, b, c = quadratic
    n = len(a)
    # the ellipsoid f <= h lies in |y_i - y0_i| <= sqrt(R (a^-1)_ii)
    ainv, y0 = inverse(a), [-t for t in solve(a, b)]
    radius = h - c + sum(bi * -yi for bi, yi in zip(b, y0))
    half = [math.isqrt(max(math.ceil(radius * ainv[i][i]), 0)) + 1 for i in range(n)]
    ax = [np.arange(math.floor(y) - w, math.ceil(y) + w + 1, dtype=np.int64) for y, w in zip(y0, half)]
    assume(math.prod(map(len, ax)) <= 10 ** 5)
    pts, vals = quadratic_points(a, b, c, h)
    box = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, n)
    f = np.einsum("ki,ij,kj->k", box, np.array(a, dtype=np.int64), box) + 2 * box @ np.array(b) + c
    keep = (f > 0) & (f <= h)
    want = sorted(zip(map(tuple, box[keep].tolist()), f[keep].tolist()))
    assert sorted(zip(map(tuple, pts.tolist()), vals.tolist())) == want


def _route(r, products, factors, primes):
    """The lengths _transform_plan picks for r and then for each retaken
    prefix 0..2r - n, ending in 0 when a prefix is convolved directly."""
    lengths = []
    while r >= 0:
        lengths.append(_transform_plan(r, products, factors, primes)[1])
        if not lengths[-1]:
            break
        r = 2 * r - lengths[-1]
    return lengths


def _route_edges(products, factors, primes, top):
    """Every r <= top where the route changes, and the r before it."""
    routes = [_route(r, products, factors, primes) for r in range(top + 1)]
    return {x for r in range(1, top + 1) if routes[r] != routes[r - 1] for x in (r - 1, r)}


# the route edges for one prime and one class, with two distinct factors or
# one repeated factor
ROUTE_EDGES = sorted(_route_edges(1, 2, 1, 13000) | _route_edges(1, 1, 1, 13000))


# a coefficient of at most 2^21 * 2^21 * 13001 * 4 < 998244353 * 469762049 keeps
# the int64 np.convolve reference exact and the kernel below its refusal bound.
# The sampled r include every r <= 13000 where the route for one prime and
# one class changes (direct or transforms, the length, and each retaken
# prefix's), and the r before it.  `shared` makes every pair (a, a), with the
# same array or an equal copy, so that each distinct factor is transformed once.
@settings(max_examples=40, deadline=None)
@given(
    r=st.sampled_from([0, 1] + ROUTE_EDGES) | st.integers(0, 8192),
    classes=st.integers(1, 4),
    bits=st.tuples(st.integers(0, 21), st.integers(0, 21)),
    sparse=st.booleans(),
    shared=st.sampled_from([None, "same", "copy"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(r=10000, classes=1, bits=(21, 21), sparse=False, shared=None, seed=1).via("two primes, prefix by transforms")
@example(r=10000, classes=4, bits=(3, 5), sparse=True, shared=None, seed=2).via("one prime, prefix by transforms")
@example(r=4500, classes=3, bits=(10, 12), sparse=False, shared=None, seed=3).via("prefix by np.convolve")
@example(r=8000, classes=1, bits=(7, 7), sparse=False, shared="same", seed=4).via("one factor, squared")
@example(r=4000, classes=2, bits=(9, 9), sparse=True, shared="copy", seed=5).via("equal copies")
def test_truncated_product_sum_matches_convolve(r, classes, bits, sparse, shared, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(classes):
        a, b = (rng.integers(0, 2 ** k, r + 1, endpoint=True) for k in bits)
        if sparse:
            a[rng.random(r + 1) < 0.9] = 0
        if shared:
            b = a if shared == "same" else a.copy()
        pairs.append((a, b))
    want = sum(np.convolve(a, b)[: r + 1] for a, b in pairs)
    got = truncated_product_sum(pairs, r)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()


def test_truncated_product_sum_two_primes():
    # coefficients near 2^54 exceed the first prime: only the CRT step recovers
    # them; both lengths wrap, so the prefix is taken again, by np.convolve at
    # r = 4500 and by transforms at r = 10000
    rng = np.random.default_rng(7)
    for r, route in ((4500, [8192, 0]), (10000, [16384, 8192])):
        pairs = [(rng.integers(2 ** 20, 2 ** 21, r + 1), rng.integers(2 ** 20, 2 ** 21, r + 1))
                 for _ in range(2)]
        assert _route(r, 2, 4, 2) == route
        want = sum(np.convolve(a, b)[: r + 1] for a, b in pairs)
        assert want.max() > 998244353
        assert truncated_product_sum(pairs, r).tolist() == want.tolist()


P1, P2 = 998244353, 469762049


@pytest.mark.parametrize("value", [P1 - 1, P1, P1 * P2 - 1])
def test_truncated_product_sum_at_the_prime_bounds(value):
    # the a-priori bound is the value itself: one prime below P1, two up to P1 * P2 - 1
    r = 3000
    a, b = np.zeros(r + 1, dtype=np.int64), np.zeros(r + 1, dtype=np.int64)
    a[0], b[0] = 1, value
    out = truncated_product_sum([(a, b)], r)
    assert out[0] == value and not out[1:].any()


def test_truncated_product_sum_refuses_past_two_primes():
    r = 3000
    a, b = np.zeros(r + 1, dtype=np.int64), np.zeros(r + 1, dtype=np.int64)
    a[0], b[0] = 1, P1 * P2
    with pytest.raises(ValueError, match="past two NTT primes"):
        truncated_product_sum([(a, b)], r)


def test_truncated_product_sum_refuses_past_length_limit():
    # r = 2^23 needs a transform of length 2^24 at least, past the primes' 2^23
    # (every r below it has length 2^23 with its prefix taken again); the
    # refusal comes before any transform array is allocated
    one = np.ones(1, dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="transform length 16777216"):
            truncated_product_sum([(one, one)], 2 ** 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("r", [10, 3000])
@pytest.mark.parametrize("factors, why", [
    (lambda r: ([1] * (r + 2), [1]), "longer than r"),
    (lambda r: ([1], [1] * (r + 2)), "longer than r"),
    (lambda r: ([1, 1, 1], [1, -1, 1]), "negative"),
    (lambda r: ([-1], [1, 1, 1]), "negative"),
])
def test_truncated_product_sum_refuses_a_long_or_negative_factor(r, factors, why):
    # the wrapping transforms are exact only for nonnegative factors of length <= r + 1
    a, b = (np.array(x, dtype=np.int64) for x in factors(r))
    one = np.ones(1, dtype=np.int64)
    with pytest.raises(ValueError, match=why):
        truncated_product_sum([(one, one), (a, b)], r)


@pytest.mark.parametrize("r", [10, 5000])
def test_truncated_product_sum_refuses_an_int64_wrap_on_every_route(r):
    # B = 2^62 * 4 is past two primes and past int64: np.convolve (r = 10)
    # would wrap to 0 as surely as the transforms (r = 5000) would lose it
    a, b = np.array([2 ** 62, 0]), np.array([4, 0])
    with pytest.raises(ValueError, match="past two NTT primes"):
        truncated_product_sum([(a, b)], r)


@pytest.mark.parametrize("r", [10, 5000])
@pytest.mark.parametrize("x", [
    np.array([1.5, 1.0]),
    np.array([1, 1], dtype=np.uint64),
    np.array([True, True]),
    np.array([1, 1], dtype=object),
    [1, 1],
])
def test_truncated_product_sum_refuses_a_factor_that_is_not_int64(r, x):
    # a float would be truncated into the uint64 transform buffer
    two = np.array([2, 1])
    for pair in ((x, two), (two, x)):
        with pytest.raises(ValueError, match="not int64"):
            truncated_product_sum([pair], r)


@pytest.mark.parametrize("p", _NTT_PRIMES)
@pytest.mark.parametrize("k", range(16))
def test_ntt_kernel_at_every_length(p, k):
    # lengths below, at and above _NARROW_WIDTH, whose stages run on a transposed copy
    n = 1 << k
    rng = np.random.default_rng(k)
    for x in (rng.integers(0, p, n).astype(np.uint64), np.full(n, p - 1, dtype=np.uint64)):
        y = _ntt_forward(x.copy(), p)
        if n <= 64:
            # X_j = sum_i x_i w^(ij), w = 3^((p-1)/n), at position bitreverse(j)
            w = pow(3, (p - 1) // n, p)
            rev = [int(format(j, f"0{k}b")[::-1], 2) if k else 0 for j in range(n)]
            assert y.tolist() == [sum(int(c) * pow(w, i * rev[j], p) for i, c in enumerate(x)) % p
                                  for j in range(n)]
        assert y.dtype == np.uint64 and int(y.max()) < p
        assert _ntt_inverse(y, p).tolist() == x.tolist()


def test_each_distinct_factor_is_transformed_once(monkeypatch):
    # lipschitz has one class whose inner and outer histograms are both the
    # r2 histogram; hurwitz has two classes over three distinct histograms
    import orbitcount.shells as shells

    calls = []
    for name in ("_ntt_forward", "_ntt_inverse"):
        def counted(a, p, f=getattr(shells, name), name=name):
            calls.append((name, p))
            return f(a, p)
        monkeypatch.setattr(shells, name, counted)
    t = theta_series(norm_gram(order_lipschitz()), 8000)
    assert t[1:].tolist() == r4_series(8000)
    assert sorted(calls) == [("_ntt_forward", P1), ("_ntt_inverse", P1)]
    calls.clear()
    theta_series(norm_gram(order_hurwitz()), 4000)
    assert sorted(calls) == [("_ntt_forward", P1)] * 3 + [("_ntt_inverse", P1)]


@pytest.mark.parametrize("g, r", [
    (I2, 4000),
    ([[2, 1], [1, 3]], 3500),
    ([[1, Fraction(1, 2)], [Fraction(1, 2), 1]], 3000),
    ([[3, Fraction(-1, 2)], [Fraction(-1, 2), 5]], 40),
])
def test_theta_binary_form_is_one_bincount(g, r, monkeypatch):
    # w is empty in dim 2, so the series is the v-box histogram and no
    # transform is taken, also at sizes where a product would take transforms
    import orbitcount.shells as shells

    def no_transform(*args):
        raise AssertionError("a binary form took a transform")

    monkeypatch.setattr(shells, "_ntt_forward", no_transform)
    t = theta_series(g, r)
    (h11, h12), (_, h22) = ([int(2 * e) for e in row] for row in g)  # 2G
    b = math.isqrt(2 * r) + 1  # the least eigenvalue of each form is >= 1/2
    x, y = (c.ravel() for c in np.meshgrid(np.arange(-b, b + 1), np.arange(-b, b + 1)))
    twice = h11 * x * x + 2 * h12 * x * y + h22 * y * y
    want = np.bincount(twice[twice <= 2 * r] // 2, minlength=r + 1)
    assert t.dtype == np.int64 and t.tolist() == want.tolist()


@st.composite
def definite_integer_grams(draw):
    # B^t B + I for a random integer B: a symmetric positive definite integer Gram
    n = draw(st.integers(2, 4))
    b = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
    return [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(definite_integer_grams(), st.integers(0, 30), st.booleans())
def test_quadratic_values_match_the_einsum_reference(g, r, skew):
    from orbitcount.shells import _box, _coordinate_bounds, _quadratic_values

    m = [[2 * e for e in row] for row in g]  # the 2G of theta_series' blocks
    if skew:  # x^t m x depends on m_ij + m_ji only; an asymmetric m must agree too
        m[0][1] += 3
        m[1][0] -= 1
    pts = _box(_coordinate_bounds(g, r))
    ref = np.einsum("ki,ij,kj->k", pts, np.array(m, dtype=np.int64), pts)
    got = _quadratic_values(pts, m)
    assert got.dtype == np.int64 and got.tolist() == ref.tolist()
    # the w block of a binary form is empty: every value is 0
    assert _quadratic_values(_box([]), []).tolist() == [0]
