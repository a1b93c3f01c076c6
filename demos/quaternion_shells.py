#!/usr/bin/env python3
"""Norm shells in definite quaternion orders.

Enumerates the unit groups of the Lipschitz and Hurwitz orders, counts left
unit-orbits of elements of given reduced norm, checks the Lipschitz counts
against Jacobi's four-square formula, and exhibits the zeta(4) ratio between
the full and the primitive cumulative series.
"""

import math

from orbitcount.counting import algebra_series, count_algebra_shell
from orbitcount.fitting import fit_power, zeta_correction
from orbitcount.oracles import hurwitz_shell_series, r4_series
from orbitcount.orders import finite_units
from orbitcount.presets import order_hurwitz, order_lipschitz

lip = order_lipschitz()
hur = order_hurwitz()

print("Lipschitz order Z<1, i, j, k>:")
ul = finite_units(lip)
print(f"  {len(ul.torsion)} units: +-1, +-i, +-j, +-k")

print("Hurwitz order Z<1, i, j, (1+i+j+k)/2>:")
uh = finite_units(hur)
print(f"  {len(uh.torsion)} units (the binary tetrahedral group)")

print("\nleft unit-orbits of {x : nrd(x) = m}:")
for m in range(1, 11):
    print(f"  m = {m:2d}:  lipschitz {count_algebra_shell(lip, m):3d}   "
          f"hurwitz {count_algebra_shell(hur, m):3d}")

R = 5000
print(f"\nseries to r = {R}:")
series = algebra_series(lip, R)
jac = r4_series(R)
assert [8 * c for c in series.n_all] == jac
print("  8 * (lipschitz orbit counts) == Jacobi r4, level by level, exactly")

hs = algebra_series(hur, 300)
assert [24 * c for c in hs.n_all] == hurwitz_shell_series(300)
print("  24 * (hurwitz orbit counts) == direct half-integer shell counts (r <= 300)")

rep = fit_power(series, window=(500, R), fixed_lambda=2)
print(f"\n  cumulative growth ~ c r^2 with c = {rep.c_hat:.5f} "
      f"(ball volume / units: pi^2/16 = {math.pi ** 2 / 16:.5f})")

ratio = sum(series.n_all) / sum(series.n_prim)
print(f"  full/primitive cumulative ratio: {ratio:.5f} "
      f"vs zeta(4) = {zeta_correction(4):.5f}")
print("  (scaling x -> p x multiplies the reduced norm by p^2, so the full "
      "series aggregates the primitive one along fourth powers)")
