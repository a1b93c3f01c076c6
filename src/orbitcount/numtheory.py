"""Integer number theory: factorisation, Pell equations, Kronecker symbols,
irreducibility mod p, Sturm real-root counts, bracketed zeta values, and the
two sieves, primes_upto and dirichlet_sums (every sum over a b^d = m).

All routines are exact; zeta_value returns a rational bracketing interval.
"""

import functools
import math
from fractions import Fraction

import numpy as np

_SMALL_PRIME_LIMIT = 2 ** 16
_FACTOR_INPUT_LIMIT = 10 ** 18


def primes_upto(n):
    """The primes p <= n, ascending, as a list of ints: a sieve of Eratosthenes."""
    sieve = np.ones(max(n, 1) + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(max(n, 1)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


@functools.cache
def small_primes():
    """Primes below 2^16 as a tuple, sieved once."""
    return tuple(primes_upto(_SMALL_PRIME_LIMIT - 1))


def mobius_upto(n):
    """[mu(0) = 0, mu(1), ..., mu(n)] as int64, from the primes up to n."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_upto(n):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def dirichlet_sums(f, s, d=1, w=None):
    """[sum over a b^d = m of w[b] f[a] for m = 1..s] as int64, for int64 arrays
    f (f[0] not read) and w (None: w = 1); d = 1 and w = 1 give divisor sums,
    w = mu their inverse.  One slice per b with b^max(d, 2) <= s and w[b] != 0,
    which is every pair for d >= 2; for d = 1 the pairs with b > isqrt(s) take
    one slice per cofactor a < b with f[a] != 0.  Exact when the caller bounds
    every partial sum of a cell below 2^63."""
    s = max(s, 0)
    out = np.zeros(s + 1, dtype=np.int64)
    b = 1
    while b ** max(d, 2) <= s:
        wb = 1 if w is None else int(w[b])
        if wb:
            step = b ** d
            part = f[1 : s // step + 1]
            out[step::step] += part if wb == 1 else wb * part
        b += 1
    if d == 1:
        for a in (np.flatnonzero(f[1 : s // b + 1]) + 1).tolist():
            out[a * b :: a] += f[a] if w is None else f[a] * w[b : s // a + 1]
    return out[1:]


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n):
    # Brent's variant; n odd composite, no factor below the trial bound
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x, y, d = 2, 2, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factor(m):
    """Exact prime factorisation of m >= 1 as a sorted list with multiplicity.

    Trial division by the primes below 2^16, then Pollard rho.  Inputs beyond 10^18 are
    rejected (desk scale).
    """
    if m < 1:
        raise ValueError("factor() requires m >= 1")
    if m > _FACTOR_INPUT_LIMIT:
        raise ValueError("factor() input beyond 10^18")
    out = []
    for p in small_primes():
        if p * p > m:
            break
        while m % p == 0:
            out.append(p)
            m //= p
    if m > 1:
        stack = [m]
        while stack:
            n = stack.pop()
            if is_prime(n):
                out.append(n)
            else:
                d = _rho(n)
                stack.extend((d, n // d))
    return sorted(out)


def factor_counts(m):
    """Factorisation as {prime: exponent}."""
    counts = {}
    for p in factor(m):
        counts[p] = counts.get(p, 0) + 1
    return counts


def kronecker(a, n):
    """Kronecker symbol (a/n) for n >= 1."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def irreducible_mod_p(coeffs, p):
    """Whether the rational polynomial sum c_k x^k (coeffs low to high) keeps
    its degree n mod the prime p and is irreducible over F_p.

    Rabin's test: f is irreducible iff f | x^(p^n) - x and
    gcd(f, x^(p^(n/q)) - x) = 1 for every prime q | n.  A p in a coefficient's
    denominator or in the leading coefficient gives False.
    """
    coeffs = [Fraction(c) for c in coeffs]
    if any(c.denominator % p == 0 for c in coeffs) or coeffs[-1].numerator % p == 0:
        return False
    f = [c.numerator * pow(c.denominator, -1, p) % p for c in coeffs]
    n = len(f) - 1
    x = _rem_mod_p([0, 1], f, p)
    frobenius = [x]  # x^(p^j) mod f for j = 0..n
    for _ in range(n):
        frobenius.append(_pow_mod_p(frobenius[-1], p, f, p))
    if frobenius[n] != x:
        return False
    return all(
        len(_gcd_mod_p(f, _sub_mod_p(frobenius[n // q], x, p), p)) == 1
        for q in set(factor(n))
    )


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _sub_mod_p(a, b, p):
    m = max(len(a), len(b))
    a, b = a + [0] * (m - len(a)), b + [0] * (m - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _rem_mod_p(a, b, p):
    """a mod b over F_p (coefficients low to high; b with a nonzero lead)."""
    a = [x % p for x in a]
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    while len(a) > db:
        c = a[-1] * inv % p
        off = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[off + i] = (a[off + i] - c * bi) % p
        a.pop()
    return _trim(a)


def _pow_mod_p(g, e, f, p):
    result = [1]
    while e:
        if e & 1:
            result = _mul_mod_p(result, g, f, p)
        e >>= 1
        if e:
            g = _mul_mod_p(g, g, f, p)
    return result


def _mul_mod_p(a, b, f, p):
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _rem_mod_p(prod, f, p)


def _gcd_mod_p(a, b, p):
    while b:
        a, b = b, _rem_mod_p(a, b, p)
    return a


def _rem(a, b):
    """a mod b over Q (Fraction coefficients low to high; b with a nonzero lead)."""
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        off = len(a) - len(b)
        for i, bi in enumerate(b):
            a[off + i] -= c * bi
        a.pop()
    return _trim(a)


def _sturm_sequence(f):
    """f, f', then negated remainders; the last member is gcd(f, f')."""
    seq = [f, _trim([k * c for k, c in enumerate(f)][1:])]
    while len(seq[-1]) > 1:
        r = _rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return seq


def _sign_changes(values):
    """Sign changes along the nonzero values."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def signature(coeffs):
    """Signature (r1, r2) of the squarefree rational polynomial sum c_k x^k
    (coeffs low to high): r1 real roots, V(-inf) - V(+inf) by Sturm's theorem
    (a member's sign at +-inf is its leading coefficient's times (+-1)^degree),
    and r2 pairs of complex conjugate roots.

    Raises ValueError on a constant or non-squarefree polynomial."""
    f = _trim([Fraction(c) for c in coeffs])
    if len(f) < 2:
        raise ValueError("polynomial must be nonconstant")
    seq = _sturm_sequence(f)
    if len(seq[-1]) > 1:
        raise ValueError("polynomial is not squarefree")
    r1 = _sign_changes([p[-1] * (-1) ** (len(p) - 1) for p in seq]) - _sign_changes([p[-1] for p in seq])
    return r1, (len(f) - 1 - r1) // 2


def sqrt_cf_period(d):
    """Continued fraction of sqrt(d) = [a0; a1, ..., al] (one full period)."""
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d is a perfect square")
    terms = [a0]
    m, q, a = 0, 1, a0
    while True:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        terms.append(a)
        if q == 1:
            return terms


def pell(d):
    """Fundamental solution of x^2 - d y^2 = +-1 via the continued fraction of sqrt(d).

    Returns (x, y, norm_sign) with (x, y) the smallest positive solution and
    norm_sign = x^2 - d y^2 in {+1, -1}.
    """
    if d < 2:
        raise ValueError("pell() requires d >= 2")
    if math.isqrt(d) ** 2 == d:
        raise ValueError("d is a perfect square")
    terms = sqrt_cf_period(d)
    # convergent just before the end of the first period
    p_prev, p = 1, terms[0]
    q_prev, q = 0, 1
    for a in terms[1:-1]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    sign = p * p - d * q * q
    if sign not in (1, -1):
        raise AssertionError((d, p, q, sign))
    return p, q, sign


def zeta_value(s, width=Fraction(1, 10 ** 9)):
    """Bracketing rational interval (lo, hi) around zeta(s), s >= 2 integer.

    Partial sum plus integral tail bounds:
        (M+1)^(1-s)/(s-1) <= sum_{j>M} j^-s <= M^(1-s)/(s-1).
    The partial sum is done in scaled-integer arithmetic so the bracket is
    rigorous.
    """
    if s < 2:
        raise ValueError("zeta_value() requires s >= 2")
    # choose M so the tail-bound gap is below half the target width
    m = 2
    while Fraction(1, m ** (s - 1) * (s - 1)) - Fraction(1, (m + 1) ** (s - 1) * (s - 1)) > width / 2:
        m = max(m + 1, int(m * 1.3))
    scale = 10 ** 24
    lo_sum = hi_sum = 0
    for j in range(1, m + 1):
        js = j ** s
        lo_sum += scale // js
        hi_sum += -((-scale) // js)  # ceil
    lo = Fraction(lo_sum, scale) + Fraction(1, (m + 1) ** (s - 1) * (s - 1))
    hi = Fraction(hi_sum, scale) + Fraction(1, m ** (s - 1) * (s - 1))
    if hi - lo > width:
        raise AssertionError((s, float(hi - lo)))
    return lo, hi


def zeta_midpoint(s):
    lo, hi = zeta_value(s)
    return float((lo + hi) / 2)
