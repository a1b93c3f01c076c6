"""Independent exact oracles for the benchmark's checks.

Every column is computed here by a divisor sieve from a classical closed
form, with no stored tables and no code shared with the package under test:

* ideal counts a_D(k) = sum_{d | k} chi_D(d) for a fundamental discriminant D
  (class number one: these are the norm-form orbit counts);
* Jacobi: r4(m) = 8 * sum_{d | m, 4 does not divide d} d;
* Hurwitz: #{x : nrd(x) = m} = 24 * sum_{d | m, d odd} d;
* primitive columns by Moebius inversion over f -> f^2 (norm forms and
  quaternion shells), and the d = 1 aggregation of the quadric section.

Lists are indexed by level: element k - 1 is level k.
"""


def jacobi(a, n):
    """Jacobi symbol (a / n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError("jacobi needs an odd positive modulus")
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def kronecker_even_disc(disc, n):
    """Kronecker symbol (disc / n) for an even discriminant disc and n >= 1:
    zero on even n, the Jacobi symbol on odd n."""
    if disc % 4:
        raise ValueError("only discriminants divisible by 4 are supported")
    return 0 if n % 2 == 0 else jacobi(disc, n)


def _divisor_sum(weight, r):
    """[sum_{d | k} weight(d) for k = 1..r] by a sieve over d."""
    import numpy as np

    out = np.zeros(r + 1, dtype=np.int64)
    for d in range(1, r + 1):
        w = weight(d)
        if w:
            out[d::d] += w
    return out[1:].tolist()


def ideal_counts(disc, r):
    """Ideals of norm k in the maximal order of discriminant disc, k = 1..r."""
    return _divisor_sum(lambda d: kronecker_even_disc(disc, d), r)


def jacobi_r4(r):
    return [8 * s for s in _divisor_sum(lambda d: d if d % 4 else 0, r)]


def hurwitz_shell(r):
    """Elements of the Hurwitz order of reduced norm m, m = 1..r."""
    return [24 * s for s in _divisor_sum(lambda d: d if d % 2 else 0, r)]


def mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def primitive_from_all_squares(all_counts):
    """prim(k) = sum_{f^2 | k} mu(f) all(k / f^2): the inverse of aggregating
    primitive orbits over x -> f x when the level scales by f^2."""
    import numpy as np

    r = len(all_counts)
    src = np.array([0] + list(all_counts), dtype=np.int64)
    out = np.zeros(r + 1, dtype=np.int64)
    f = 1
    while f * f <= r:
        mu = mobius(f)
        if mu:
            q = f * f
            out[q::q] += mu * src[1 : r // q + 1]
        f += 1
    return out[1:].tolist()


def aggregate_linear(prim_counts):
    """all(k) = sum_{p | k} prim(k / p): aggregation when the level scales by p."""
    import numpy as np

    r = len(prim_counts)
    src = np.array([0] + list(prim_counts), dtype=np.int64)
    out = np.zeros(r + 1, dtype=np.int64)
    for p in range(1, r + 1):
        out[p::p] += src[1 : r // p + 1]
    return out[1:].tolist()
