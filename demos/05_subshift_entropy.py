"""Entropy of subshifts of finite type, bounded by exact pattern counting.

The log of the locally admissible pattern count is componentwise
subadditive in the box sides (restriction splits any pattern into two),
so the normalized count along growing cubes decreases to the entropy
and every evaluated ratio is a certified upper bound.  For
one-dimensional subshifts the exact per-state word counts also bound
the window transfer matrix's Perron root from both sides
(Collatz-Wielandt), a certified two-sided bracket that closes
geometrically; the eigenvalues of the same matrix give an independent
float cross-check.
"""

import math

from fekete_lab import (
    builtin_sft,
    check_count_submultiplicativity,
    count_patterns,
    dominant_eigenvalue,
    entropy_bounds,
    transfer_matrix_1d,
    transfer_matrix_count_1d,
)

print("== golden mean shift: binary strings with no adjacent ones ==")
golden = builtin_sft("golden_mean_1d")
print("n :", *[f"{n:>6}" for n in range(1, 11)])
print("count:", *[f"{count_patterns(golden, (n,)):>6}" for n in range(1, 11)])
print("(the Fibonacci numbers, via the frontier-window sweep)")
print("transfer-matrix route agrees:",
      all(transfer_matrix_count_1d(golden, n) == count_patterns(golden, (n,))
          for n in range(1, 21)))

bracket = entropy_bounds(golden, 16)
states, matrix = transfer_matrix_1d(golden)
lam = dominant_eigenvalue(matrix)
cube_bound = min(e.ratio for e in bracket.entries)
print(f"upper bound at side 16: {bracket.best_upper:.9f}")
print(f"dominant eigenvalue {lam:.9f} -> entropy {math.log2(lam):.9f} "
      f"(= log2 of the golden ratio)")
print(f"the cube-ratio bound converges like 0.23/n: gap at 16 is "
      f"{cube_bound - math.log2(lam):.4f}")
print(f"certified two-sided bracket at side 16: [{bracket.best_lower!r}, "
      f"{bracket.best_upper!r}], width {bracket.best_upper - bracket.best_lower:.1e}")
assert bracket.best_lower <= math.log2(lam) <= bracket.best_upper
print("the float eigenvalue log lies inside it")

print()
print("== hard squares: no two adjacent ones in the plane ==")
hard = builtin_sft("hard_square_2d")
hb = entropy_bounds(hard, 8)
for e in hb.entries:
    print(f"  side {e.sides[0]}: count {e.count:>14}  ratio {e.ratio:.6f}  "
          f"running min {e.running_min:.6f}")
print("exact submultiplicativity of the counts:",
      "verified" if check_count_submultiplicativity(hard, 6).clean else "VIOLATED")

print()
print("== box sequences beyond cubes ==")
for box in [(2, 4), (4, 2), (3, 6), (6, 3)]:
    ratio = math.log2(count_patterns(hard, box)) / math.prod(box)
    print(f"  box {box}: ratio {ratio:.6f}")
print("transposed boxes agree because the rule set is symmetric")

print()
print("== full shift sanity ==")
full = builtin_sft("full_shift")
print("every pattern is admissible, so the ratio is identically 1:",
      [e.ratio for e in entropy_bounds(full, 4).entries])
