import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcount.algebra import element
from orbitcount.oracles import (
    divisor_sums,
    hurwitz_shell_count,
    hurwitz_shell_series,
    hurwitz_sigma_series,
    ideal_a,
    ideal_count_series,
    pairwise_orbits,
    r4,
    r4_series,
    two_squares_primitive_series,
)
from orbitcount.presets import order_zsqrt2
from orbitcount.shells import ball_points


def test_ideal_count_examples():
    # prime-splitting tabulation for D = -4, m = 1..10: 1,1,0,1,2,0,0,1,1,2
    assert [ideal_a(-4, m) for m in range(1, 11)] == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]


def test_ideal_a_multiplicative_on_coprime():
    for disc in (-4, 8, 13):
        for m in (2, 3, 5, 9, 11):
            for n in (7, 13, 25):
                if math.gcd(m, n) == 1:
                    assert ideal_a(disc, m * n) == ideal_a(disc, m) * ideal_a(disc, n)


def test_ideal_a_brute_force_small():
    # direct divisor-sum definition
    from orbitcount.numtheory import kronecker

    for disc in (-4, 8):
        for m in range(1, 200):
            direct = sum(kronecker(disc, d) for d in range(1, m + 1) if m % d == 0)
            assert ideal_a(disc, m) == direct


@settings(max_examples=60, deadline=None)
@given(st.integers(-400, 400), st.integers(0, 500))
@example(-16, 500).via("non-fundamental, D = 4 * -4")
@example(-12, 500).via("non-fundamental, D = 4 * -3")
@example(9, 500).via("a square")
@example(0, 500).via("chi(d) = 0 past d = 1")
@example(-400, 500).via("the range's end")
def test_ideal_count_series_sieve_matches_ideal_a(disc, s):
    # the Kronecker symbol is completely multiplicative in its lower argument,
    # so the divisor sieve agrees with the factorisation for every D
    assert ideal_count_series(disc, s) == [ideal_a(disc, m) for m in range(1, s + 1)]


@pytest.mark.parametrize("disc", range(-50, 51))
def test_ideal_count_series_chi_matches_kronecker_per_d(disc):
    # chi is taken from one period of 4|D| on odd d and from chi(2) on even d;
    # s = 1000 spans five periods or more, and D = 3 mod 4 has no period on even d
    from orbitcount.numtheory import kronecker

    s = 1000
    want = [0] * (s + 1)
    for d in range(1, s + 1):
        for m in range(d, s + 1, d):
            want[m] += kronecker(disc, d)
    assert ideal_count_series(disc, s) == want[1:]


def test_two_squares_examples():
    assert two_squares_primitive_series(5) == [2, 2, 0, 0, 4]


def test_jacobi_examples():
    assert sum(r4_series(1)) == 8
    assert sum(r4_series(2)) == 8 + 24
    assert r4(2) == 24
    assert sum(hurwitz_sigma_series(1)) == 24


def test_jacobi_matches_ball_counts_on_i4():
    i4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    pts, vals, s = ball_points(i4, 1000)
    counts = np.zeros(1001, dtype=np.int64)
    np.add.at(counts, vals // 2, 1)
    assert counts[1:].tolist() == r4_series(1000)


def test_hurwitz_direct_counts():
    assert hurwitz_shell_count(1) == 24
    assert hurwitz_shell_count(2) == 24
    assert hurwitz_shell_count(3) == 96
    # the Hurwitz lattice contains the Lipschitz one
    for m in range(1, 20):
        assert hurwitz_shell_count(m) >= r4(m)


def test_pairwise_orbits_basics():
    zs2 = order_zsqrt2()
    singleton = pairwise_orbits([element((1, 0))], zs2)
    assert len(singleton) == 1
    # elements of distinct |norm| are never merged
    mixed = pairwise_orbits([element((1, 0)), element((0, 1)), element((3, 2))], zs2)
    norms = [abs(zs2.norm(cls[0])) for cls in mixed]
    assert sorted(norms) == [1, 2]
    from orbitcount.lattice import box_scan
    from orbitcount.algebra import alg_norm

    sols = [x for x in box_scan(zs2, 1, 40) if alg_norm(x, zs2.algebra) == 1]
    assert len(pairwise_orbits(sols, zs2)) == 1


def test_ideal_count_tail_density_matches_gauss_circle():
    # the D = -4 cumulative divided by s approaches pi/4 (circle area over the
    # four units); the oracle's own tail mean must land within 1% at s = 1e5
    s = 10 ** 5
    total = sum(ideal_a(-4, m) for m in range(1, s + 1))
    assert abs(total / s - math.pi / 4) / (math.pi / 4) < 0.01


def test_hurwitz_shell_series_is_24_sigma_odd():
    # Jacobi for the Hurwitz order: 24 times the sum of the odd divisors of m
    r = 2000
    want = [0] * (r + 1)
    for d in range(1, r + 1, 2):
        for m in range(d, r + 1, d):
            want[m] += 24 * d
    assert hurwitz_shell_series(r) == want[1:]


def test_hurwitz_shell_count_is_last_series_entry():
    assert [hurwitz_shell_count(m) for m in (1, 2, 3)] == [24, 24, 96]
    series = hurwitz_shell_series(300)
    assert [hurwitz_shell_count(m) for m in (1, 7, 64, 299, 300)] == [series[m - 1] for m in (1, 7, 64, 299, 300)]
    assert hurwitz_sigma_series(300) == series


def test_two_squares_series_matches_the_direct_scan():
    # reference: the per-k scan over a <= sqrt(k), independent of the bincount
    def scan(k):
        count = 0
        for a in range(math.isqrt(k) + 1):
            b = math.isqrt(k - a * a)
            if a * a + b * b == k and math.gcd(a, b) == 1:
                count += 2 if a == 0 or b == 0 else 4
        return count // 2

    assert two_squares_primitive_series(400) == [scan(k) for k in range(1, 401)]
    assert two_squares_primitive_series(0) == []


def _divisor_sum(f, m):
    # per m, by trial division up to sqrt(m)
    total = 0
    for d in range(1, math.isqrt(m) + 1):
        if m % d == 0:
            total += f[d] + (f[m // d] if d * d != m else 0)
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2 ** 32 - 1))
@example(1, 0).via("s < 4: no cofactor slice past q = 1")
@example(2, 1)
@example(3, 2)
@example(2500, 3).via("s = q^2")
@example(2550, 4).via("s = q^2 + q")
@example(2499, 5).via("s = q^2 - 1")
@example(3000, 6)
def test_divisor_sums_matches_a_brute_force_sum(s, seed):
    f = np.random.default_rng(seed).integers(-10 ** 9, 10 ** 9, s + 1)
    f[np.random.default_rng(seed + 1).random(s + 1) < 0.3] = 0  # zeros are skipped
    got = divisor_sums(f, s)
    assert got.dtype == np.int64
    values = f.tolist()
    assert got.tolist() == [_divisor_sum(values, m) for m in range(1, s + 1)]


def test_divisor_sums_refuses_an_int64_wrap():
    # tau(m) <= 2 isqrt(m) = 6 at s = 9: 6 |f| must stay below 2^63
    top = (2 ** 63 - 1) // 6
    assert divisor_sums(np.full(10, top, dtype=np.int64), 9)[-1] == 3 * top  # 1, 3, 9
    for value in (top + 1, -(top + 1), -(2 ** 63)):
        with pytest.raises(ValueError, match="could reach"):
            divisor_sums(np.full(10, value, dtype=np.int64), 9)
    # f[0] is not read, and values past s are not bounded
    f = np.zeros(20, dtype=np.int64)
    f[0] = f[10:] = 2 ** 62
    assert divisor_sums(f, 9).tolist() == [0] * 9


def test_divisor_sums_refuses_a_short_or_non_int64_f():
    with pytest.raises(ValueError, match="below s \\+ 1"):
        divisor_sums(np.ones(5, dtype=np.int64), 5)
    for f in (np.ones(6), np.ones(6, dtype=np.uint64), np.ones(6, dtype=object)):
        with pytest.raises(ValueError, match="not int64"):
            divisor_sums(f, 5)
    assert divisor_sums(np.zeros(1, dtype=np.int64), 0).tolist() == []


def test_r4_series_is_r4_per_level():
    assert r4_series(1000) == [r4(m) for m in range(1, 1001)]
    assert r4_series(0) == []


def test_hurwitz_sigma_series_is_the_shell_enumeration():
    assert hurwitz_sigma_series(2000) == hurwitz_shell_series(2000)
    assert hurwitz_sigma_series(1) == [24]
