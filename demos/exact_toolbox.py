#!/usr/bin/env python3
"""The exact substrate: structure-constant algebras, Pell equations,
Sturm signatures, bracketed zeta values, and definite-shell enumeration.
"""

from orbitcount.algebra import alg_inverse, alg_mul, alg_norm, element, quaternion_algebra
from orbitcount.numtheory import factor, pell, signature, zeta_value
from orbitcount.presets import order_hurwitz
from orbitcount.orders import norm_gram
from orbitcount.shells import definite_ball, definite_shell, theta_series

print("quaternions (1+i+j+k is a zero of x^2 - 2x + 4):")
lip = quaternion_algebra(-1, -1)
x = element((1, 1, 1, 1))
print("  nrd(1+i+j+k) =", alg_norm(x, lip))
print("  inverse      =", alg_inverse(x, lip).coords)
print("  product with i:", alg_mul(x, lip.basis_element(1), lip).coords)

print("\nPell equations x^2 - d y^2 = +-1 (continued fractions):")
for d in (2, 3, 13, 61):
    px, py, sign = pell(d)
    print(f"  d = {d:2d}: ({px}, {py}), norm {sign:+d}")

print("\nsignature of x^3 - 2 (Sturm count of real roots):")
r1, r2 = signature([-2, 0, 0, 1])
print(f"  real embeddings r1 = {r1}, complex conjugate pairs r2 = {r2}")

print("\nbracketed zeta values (rational enclosures of width <= 1e-9):")
for s in (2, 4, 100):
    lo, hi = zeta_value(s)
    print(f"  zeta({s}) in [{float(lo):.10f}, {float(hi):.10f}]")

print("\nfactorisation (trial division + rho):", factor(2 ** 4 * 10 ** 9 + 7 * 13))

print("\ndefinite shells (exact backtracking):")
i2 = [[1, 0], [0, 1]]
print("  x^2 + y^2 = 25:", definite_shell(i2, 25))
print("  ball to 5:", [(m, len(s)) for m, s in definite_ball(i2, 5)])

print("\ntheta series of the Hurwitz norm form (split-and-convolve, exact):")
t = theta_series(norm_gram(order_hurwitz()), 10)
print("  counts for m = 0..10:", t.tolist())
