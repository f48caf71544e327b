"""Why boundedness on boxes matters, and how it can fail.

A componentwise subadditive f keeps the set {x < t : f(x) >= f(t)/2^d}
at least a 2^-d fraction of the box below t.  That inequality is what
forces boundedness on compact boxes, which in turn makes the limit
machinery work.  Mere per-line boundedness is strictly weaker: the
minimum-denominator function is bounded on every axis-parallel line of
[1,2]^2 yet explodes along the diagonal, and exact rational arithmetic
is the only way to see it (float grids miss the high denominators).
"""

import math

import numpy as np

from fekete_lab.domain import Point
from fekete_lab.levelset import (LevelSetSpec, check_levelset_lemma, levelset_measure,
                                 rubin_unboundedness_demo)
from fekete_lab.registry import builtin

sqrt_prod = builtin("sqrt_prod")

print("== level-set measure at the unit anchor ==")
spec = LevelSetSpec(t=Point((1.0, 1.0)), k=0.25)
grid = levelset_measure(sqrt_prod, spec, "grid", cells=1000)
mc = levelset_measure(sqrt_prod, spec, "mc", samples=40_000, seed=6)
analytic = 1.0 - (1.0 + 4.0 * math.log(2.0)) / 16.0
print(f"quadrature: {grid.value:.6f} +- {grid.error_bound:.6f}")
print(f"monte carlo: {mc.value:.6f} +- {mc.error_bound:.6f}")
print(f"closed form: {analytic:.6f}; required fraction of the box: 0.25")

print()
print("== the 2^-d inequality at random anchors ==")
rows = check_levelset_lemma(sqrt_prod, [(1.0, 1.0), (2.0, 3.0), (0.7, 3.5)], cells=600)
for row in rows:
    print(f"anchor {row.anchor}: mu >= {row.bound:.4f}? estimate {row.estimate.value:.4f} "
          f"margin {row.margin:+.4f} -> {'holds' if row.holds else 'FAILS'}")

print()
print("== boundedness scans (evidence, not proof) ==")
axis = np.linspace(1.0, 2.0, 201)
x, y = (m.ravel() for m in np.meshgrid(axis, axis, indexing="ij"))
values = sqrt_prod.evaluate_points([x, y])
lo, hi = values.argmin(), values.argmax()
print(f"sqrt_prod on [1,2]^2: min {values[lo]} at {(float(x[lo]), float(y[lo]))}, "
      f"max {values[hi]} at {(float(x[hi]), float(y[hi]))}")

print()
print("== per-line bounded, box unbounded ==")
demo = rubin_unboundedness_demo(20)
for point, value in demo.diagonal[:6]:
    print(f"  f({point[0]}, {point[1]}) = {value}")
print("  ... the diagonal value equals n at (1 + 1/n, 1 + 1/n), without bound")
line = demo.line_scans[1]
print(f"while on the line x = {line.x}: every sampled value <= {line.denominator_bound}")
for n in (5, 10, 20):
    point, value = demo.diagonal[n - 1]
    print(f"exact value at ({point[0]}, {point[1]}): {value}")
