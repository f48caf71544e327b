"""The counterexample gallery, replayed end to end.

Four boundary markers of the theory, each showing that dropping one
hypothesis breaks one conclusion:

1. componentwise subadditivity does not imply joint subadditivity;
2. per-line boundedness does not imply boundedness on a box;
3. mixing superadditive and subadditive axes destroys the limit, and
   the two iterated orders land at 0 and +inf;
4. lifting a subadditive integer function to finite sets by cardinality
   need not be union-subadditive, and translating a subadditive
   function can break subadditivity.

The same gallery runs as `fekete-lab counterexamples`.
"""

from fekete_lab import (
    GridSchedule,
    Point,
    SampleBudget,
    builtin,
    check_joint,
    check_set_union,
    check_shifted_subadditivity,
    iterated_limit,
    rubin_unboundedness_demo,
    set_function_from_integer,
    simultaneous_limit,
)

budget = SampleBudget(count=2000, seed=2024)

print("1. sqrt(x1*x2) is componentwise subadditive but not subadditive:")
hit = check_joint(builtin("sqrt_prod"), budget).find(((1.0, 2.0), (2.0, 1.0)))
print(f"   f(3,3) = {hit.lhs} > {hit.rhs:.6f} = f(1,2) + f(2,1) "
      f"(margin 3 - 2*sqrt(2) = {hit.margin:.6f})")

print()
print("2. min(denominator, denominator) is bounded on every line of [1,2]^2")
demo = rubin_unboundedness_demo(8)
values = ", ".join(str(v) for _, v in demo.diagonal)
print(f"   yet along the diagonal (1+1/n, 1+1/n) it walks {values}, ...")

print()
print("3. x1^2*sqrt(x2) mixes curvatures; the iterated limits disagree:")
mixed = builtin("x1sq_sqrt_x2")
lo = iterated_limit(mixed, (0, 1), delta=0.01)
hi = iterated_limit(mixed, (1, 0), delta=0.01)
sim = simultaneous_limit(mixed, GridSchedule(base=Point((1.0, 1.0)), levels=40))
print(f"   inner over x2 then x1: {lo.value:.4f} ({lo.status})")
print(f"   inner over x1 then x2: {hi.value} ({hi.status})")
print(f"   simultaneous bracket: {sim.status}")

print()
print("4. n mod 2 is subadditive on Z, but its lifts and shifts are not:")
g = set_function_from_integer(builtin("nmod2"))
union = check_set_union(g, [[1, 2], [2, 3]]).find(((1, 2), (2, 3)))
print(f"   g({{1,2}} u {{2,3}}) = {union.lhs:.0f} > {union.rhs:.0f} = g(U) + g(V)")
shift = check_shifted_subadditivity(builtin("nmod2"), 1, budget).find(((1.0,), (1.0,)))
print(f"   with h(n) = f(n+1): h(2) = {shift.lhs:.0f} > {shift.rhs:.0f} = 2*h(1)")
clean = check_shifted_subadditivity(builtin("nmod2"), 0, budget).clean
print(f"   (the unshifted function stays clean over the same budget: {clean})")
