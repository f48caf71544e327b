"""Tour of the core geometry: the product order on the main quadrant and the step split.

Points of the main quadrant, where every coordinate is positive, are
ordered coordinatewise: x <= y when x_i <= y_i on every axis.  Every
pair has a common upper bound, their coordinatewise maximum, which is
what makes the quadrant a directed set and gives the limit machinery
something to converge along.  The q*t + r split is the workhorse behind
the upper bounds: any large coordinate is an integer number of t-steps
plus a remainder trapped in [t, 2t).
"""

from fekete_lab.domain import GridSchedule, Point, qr_decompose


def leq(x, y):
    return all(a <= b for a, b in zip(x, y))


print("== product order ==")
print("(1,2) <= (1,3) in the main quadrant:", leq((1, 2), (1, 3)))
print("(1,2) <= (2,1)?", leq((1, 2), (2, 1)), "(incomparable)")

print()
print("== directedness: every pair has an upper bound ==")
x, y = (1.0, 5.0), (3.0, 2.0)
z = tuple(map(max, x, y))
print(f"upper bound of {x} and {y}: {z}; above both: {leq(x, z) and leq(y, z)}")

print()
print("== the q*t + r step decomposition ==")
for x_val, t_val in ((7.0, 2.0), (4.0, 2.0), (100.0, 3.0)):
    d = qr_decompose(x_val, t_val)
    print(f"x={x_val}: q={d.q}, r={d.r:.4f}  (check: {d.q}*{t_val} + {d.r:.4f} "
          f"= {d.q * d.t + d.r:.4f}, r in [{t_val}, {2 * t_val}))")

print()
print("== geometric schedules ==")
sched = GridSchedule(base=Point((1.0, 1.0)), growth=2.0, levels=8)
print("axis 0 samples:", sched.axis_values(0))
print("integer mode:  ", sched.axis_values(0, integer=True))
print("q/x approaches 1/t along the ladder:")
t_val = 3.0
for k in (4, 8, 16):
    x_val = t_val * 2.0 ** k
    d = qr_decompose(x_val, t_val)
    print(f"  x = t*2^{k:<2}  q/x = {d.q / x_val:.10f}   1/t = {1 / t_val:.10f}")
