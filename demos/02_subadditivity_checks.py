"""Refuting subadditivity claims by deterministic sampling.

The product of two subadditive functions is subadditive in each
variable separately, yet usually fails the joint inequality: sqrt(x*y)
is the standard witness.  The checkers screen the whole budget of a
seeded counter-based stream in one batch and count every hit.  They list
the probe-lattice hits as given and only the strongest few random hits,
shrunk toward readable coordinates in lockstep, with exact margins.
"""

from fekete_lab.checks import check_componentwise, check_four_term, check_joint, check_monoid_sign
from fekete_lab.registry import builtin
from fekete_lab.sampling import SampleBudget

budget = SampleBudget(count=3000, seed=42)

print("== sqrt(x1*x2): componentwise subadditive, jointly not ==")
sqrt_prod = builtin("sqrt_prod")
joint = check_joint(sqrt_prod, budget)
witness = joint.find(((1.0, 2.0), (2.0, 1.0)))
print(f"joint violations: {joint.hit_count} hits, {joint.violation_count} distinct, "
      f"over {joint.samples_checked} samples; {len(joint.violations)} listed")
print(f"the textbook witness (1,2)+(2,1): f(3,3) = {witness.lhs} > "
      f"{witness.rhs:.6f} = f(1,2)+f(2,1), margin {witness.margin:.6f}")
print("componentwise check clean:", check_componentwise(sqrt_prod, budget).clean)

print()
print("== -x1*sqrt(x2): the separation runs the other way too ==")
neg = builtin("neg_x1_sqrt_x2")
report = check_componentwise(neg, budget)
axes = sorted({v.axis for v in report.violations})
print(f"componentwise violations on axes {axes} (axis 1 is the sqrt axis), "
      f"{report.violation_count} distinct; the strongest listed:")
v = report.violations[0]
print(f"  x={v.witness[0]}, y={v.witness[1]}: {v.lhs:.6f} > {v.rhs:.6f}")
print("yet the joint check stays clean (sqrt(x2+y2) dominates both roots):",
      check_joint(neg, budget).clean)
print("so neither property implies the other")

print()
print("== the 2^d-term mixed bound ==")
print("sqrt_prod satisfies it (implied by componentwise subadditivity):",
      check_four_term(sqrt_prod, budget).clean)
full = builtin("full_shift_count_log")
four = check_four_term(full, budget)
joint = check_joint(full, budget)
print("n1*n2 violates joint subadditivity at (1,1)+(1,1):",
      joint.find(((1.0, 1.0), (1.0, 1.0))) is not None)
print("but meets the mixed bound there with equality (4 <= 1+1+1+1), "
      "so the mixed check stays silent:",
      four.find(((1.0, 1.0), (1.0, 1.0))) is None)

print()
print("== sign consequences on a group ==")
print("|x| on R: f(0) >= 0 and f(x)+f(-x) >= 0 ->",
      "clean" if check_monoid_sign(builtin("abs"), budget).clean else "violated")
print("n mod 2 on Z: ->",
      "clean" if check_monoid_sign(builtin("nmod2"), budget).clean else "violated")
