"""Entropy of subshifts of finite type, bounded by exact pattern counting.

The log of the locally admissible pattern count is componentwise
subadditive in the box sides (restriction splits any pattern into two),
so the normalized count along growing cubes decreases to the entropy
and every evaluated ratio is a certified upper bound.  For
one-dimensional subshifts the exact per-state word counts also bound
the window transfer matrix's Perron root from both sides
(Collatz-Wielandt), a certified two-sided bracket that closes
geometrically around the closed-form entropy of the golden mean shift.
"""

import math

from fekete_lab import (
    builtin_sft,
    check_count_submultiplicativity,
    count_patterns,
    entropy_bounds,
)

print("== golden mean shift: binary strings with no adjacent ones ==")
golden = builtin_sft("golden_mean_1d")
print("n :", *[f"{n:>6}" for n in range(1, 11)])
print("count:", *[f"{count_patterns(golden, (n,)):>6}" for n in range(1, 11)])
fib = [0, 1]
while len(fib) < 23:
    fib.append(fib[-1] + fib[-2])
print("the Fibonacci numbers fib(n+2), via the frontier-window sweep, for n <= 20:",
      all(count_patterns(golden, (n,)) == fib[n + 2] for n in range(1, 21)))

bracket = entropy_bounds(golden, 16)
entropy = math.log2((1 + math.sqrt(5)) / 2)
cube_bound = min(e.ratio for e in bracket.entries)
print(f"upper bound at side 16: {bracket.best_upper:.9f}")
print(f"entropy log2 of the golden ratio, from its closed form: {entropy:.9f}")
print(f"the cube-ratio bound converges like 0.23/n: gap at 16 is "
      f"{cube_bound - entropy:.4f}")
print(f"certified two-sided bracket at side 16: [{bracket.best_lower!r}, "
      f"{bracket.best_upper!r}], width {bracket.best_upper - bracket.best_lower:.1e}")
assert bracket.best_lower <= entropy <= bracket.best_upper
print("the closed-form entropy lies inside it")

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
