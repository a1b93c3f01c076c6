"""Certified real/complex roots of integer polynomials.

Real roots are isolated by exact Sturm sequences and bisected with rational
arithmetic, so their enclosures are rigorous.  Complex roots start from
mpmath approximations and are certified with the classical disk bound
min_i |z - r_i| <= n |p(z)/p'(z)| together with pairwise disjointness.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import scalar


@dataclass(frozen=True)
class CertifiedRoot:
    real: float
    imag: float
    radius: float      # certified error bound
    is_real: bool


@dataclass(frozen=True)
class EmbeddingReport:
    roots: tuple          # all dim roots, conjugate pairs adjacent
    r1: int               # number of real embeddings
    r2: int               # number of complex conjugate pairs


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deriv(coeffs):
    return [scalar(k * c) for k, c in enumerate(coeffs)][1:]


def _poly_divmod(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            a[i + k] -= f * c
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _poly_gcd_degree(a, b):
    while any(c != 0 for c in b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return len(a) - 1 if any(a) else -1


def sturm_sequence(coeffs):
    seq = [[Fraction(c) for c in coeffs], [Fraction(c) for c in _poly_deriv(coeffs)]]
    while any(c != 0 for c in seq[-1]) and len(seq[-1]) > 1:
        _, r = _poly_divmod(seq[-2], seq[-1])
        if not any(r):
            break
        seq.append([-c for c in r])
    return seq


def _sign_changes(seq, x):
    signs = []
    for p in seq:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(coeffs, lo, hi):
    seq = sturm_sequence(coeffs)
    return _sign_changes(seq, Fraction(lo)) - _sign_changes(seq, Fraction(hi))


def _root_bound(coeffs):
    # Cauchy bound: 1 + max |c_i / c_n|
    lead = Fraction(coeffs[-1])
    b = max(abs(Fraction(c) / lead) for c in coeffs[:-1]) if len(coeffs) > 1 else Fraction(0)
    return b + 1


def isolate_real_roots(coeffs, precision=Fraction(1, 10 ** 12)):
    """Disjoint rational intervals, one simple real root each, width <= precision."""
    bound = _root_bound(coeffs)
    seq = sturm_sequence(coeffs)

    def changes(x):
        return _sign_changes(seq, x)

    intervals = []
    stack = [(-bound - 1, bound + 1)]
    while stack:
        lo, hi = stack.pop()
        n = changes(lo) - changes(hi)
        if n == 0:
            continue
        if n == 1:
            intervals.append((lo, hi))
            continue
        mid = (Fraction(lo) + hi) / 2
        if _poly_eval(coeffs, mid) == 0:
            # nudge the split point off the root
            mid += (hi - lo) / Fraction(10 ** 6)
        stack.append((lo, mid))
        stack.append((mid, hi))
    out = []
    for lo, hi in sorted(intervals):
        while hi - lo > precision:
            mid = (Fraction(lo) + hi) / 2
            v = _poly_eval(coeffs, mid)
            if v == 0:
                lo = mid - precision / 4
                hi = mid + precision / 4
                break
            if changes(lo) - changes(mid) == 1:
                hi = mid
            else:
                lo = mid
        out.append((Fraction(lo), Fraction(hi)))
    return out


def embeddings(minpoly, precision=1e-10):
    """All roots of a squarefree integer polynomial with certified error bounds.

    Returns an EmbeddingReport with the real embedding count r1 and the number
    of complex conjugate pairs r2.  Raises on a non-squarefree input.
    """
    coeffs = [scalar(Fraction(c)) for c in minpoly]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("polynomial must be nonconstant")
    if _poly_gcd_degree(coeffs, _poly_deriv(coeffs)) > 0:
        raise ValueError("polynomial is not squarefree")

    prec_frac = Fraction(precision).limit_denominator(10 ** 18) if precision < 1 else Fraction(precision)
    real_intervals = isolate_real_roots(coeffs, min(prec_frac, Fraction(1, 10 ** 12)))
    r1 = len(real_intervals)
    if (deg - r1) % 2:
        raise AssertionError("real-root count parity violated")
    r2 = (deg - r1) // 2

    roots = [
        CertifiedRoot(
            real=float((lo + hi) / 2), imag=0.0, radius=float((hi - lo) / 2), is_real=True
        )
        for lo, hi in real_intervals
    ]

    if r2 > 0:
        import mpmath

        mpmath.mp.dps = 60
        approx = mpmath.polyroots([mpmath.mpf(int(c)) if isinstance(c, int) else mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)], maxsteps=200, extraprec=120)
        complex_roots = [z for z in approx if abs(mpmath.im(z)) > mpmath.mpf(10) ** (-30)]
        if len(complex_roots) != 2 * r2:
            raise AssertionError("complex root count disagrees with Sturm count")
        dcoeffs = _poly_deriv(coeffs)
        certified = []
        for z in complex_roots:
            pz = mpmath.polyval([mpmath.mpf(str(c)) for c in reversed(coeffs)], z)
            dpz = mpmath.polyval([mpmath.mpf(str(c)) for c in reversed(dcoeffs)], z)
            if dpz == 0:
                raise AssertionError("derivative vanished at approximation")
            rad = float(deg * abs(pz) / abs(dpz)) * 1.000001
            certified.append((complex(z), max(rad, 1e-50)))
        # pairwise disjointness certifies one root per disk
        pts = [c for c, _ in certified] + [complex(r.real, 0.0) for r in roots]
        rads = [r for _, r in certified] + [max(r.radius, 1e-300) for r in roots]
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if abs(pts[a] - pts[b]) <= rads[a] + rads[b]:
                    raise AssertionError("certification disks overlap; raise precision")
        for (z, rad) in sorted(certified, key=lambda t: (t[0].real, t[0].imag)):
            if rad > precision:
                raise AssertionError("certified radius exceeds requested precision")
            roots.append(CertifiedRoot(real=z.real, imag=z.imag, radius=rad, is_real=False))

    roots.sort(key=lambda r: (r.real, r.imag))
    return EmbeddingReport(roots=tuple(roots), r1=r1, r2=r2)
