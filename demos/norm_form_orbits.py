#!/usr/bin/env python3
"""Counting inequivalent representations by quadratic norm forms.

Walks through the two quadratic orders Z[i] and Z[sqrt(2)]: their unit
groups, per-level orbit counts of norm-form level sets, the exact match with
classical ideal counts, and the leading constant predicted by field
invariants.
"""

import math

from orbitcount.counting import normform_series
from orbitcount.fitting import fit_power, predicted_constant_ideal
from orbitcount.oracles import ideal_count_series
from orbitcount.orders import finite_units, fundamental_unit
from orbitcount.presets import order_gauss, order_zsqrt2

print("=" * 72)
print("Gaussian integers Z[i]: x^2 + y^2")
print("=" * 72)

gauss = order_gauss()
units = finite_units(gauss)
print(f"unit group: {len(units.torsion)} elements:",
      [u.coords for u in units.torsion])

series = normform_series(gauss, 50)
oracle = ideal_count_series(-4, 50)
print("\nlevel k, orbits of {x : N(x) = k} under the units, ideal count a(k):")
for k in (1, 2, 3, 4, 5, 10, 25, 50):
    print(f"  k = {k:3d}:  orbits = {series.n_all[k - 1]},  a(k) = {oracle[k - 1]}")
assert series.n_all.tolist() == oracle

print("\nmultiplication by the four units tiles each level set into orbits of")
print("size four; the count equals the number of ideals of that norm (h = 1).")

print()
print("=" * 72)
print("Z[sqrt(2)]: x^2 - 2 y^2, infinite unit group")
print("=" * 72)

zs2 = order_zsqrt2()
fu = fundamental_unit(zs2)
print("fundamental unit 1 + sqrt(2) =", fu.fundamental[0].coords,
      "(norm -1); norm-one generator 3 + 2 sqrt(2) =", fu.norm_one_fundamental.coords)

series2 = normform_series(zs2, 2000)
oracle2 = ideal_count_series(8, 2000)
assert series2.n_all.tolist() == oracle2
print("per-level orbit counts match the D = 8 ideal counts up to 2000, exactly")

print("\ncumulative growth is linear; the constant is forced by the regulator:")
rep = fit_power(series2, window=(200, 2000), fixed_lambda=1)
predicted = predicted_constant_ideal(2, 0, math.log(1 + math.sqrt(2)), 1, 2, 8)
print(f"  fitted    c at r = 2000      : {rep.c_hat:.5f}")
print(f"  predicted log(1+sqrt2)/sqrt2 : {predicted:.5f}")
print("  (at r = 1e5 the two agree to 0.01%; see the acceptance suite)")
