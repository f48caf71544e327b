"""Bracketing the limit of f(x)/prod(x) over the product-order net.

For a componentwise subadditive f the ratio net converges to its
infimum, so the minimum evaluated ratio is a certified upper bound and
the sampled tail indicates how close it is.  Iterated one-variable
limits agree with the simultaneous one in every order -- unless
componentwise subadditivity fails, in which case the orders can
disagree as badly as 0 versus +inf.
"""

from pathlib import Path

from fekete_lab.domain import GridSchedule, Point
from fekete_lab.limits import diagonal_limit, iterated_limit, ray_limit, simultaneous_limit
from fekete_lab.registry import builtin
from fekete_lab.svgplot import PlotSeries, line_plot_svg

schedule = GridSchedule(base=Point((1.0, 1.0)), growth=2.0, levels=20)
# worked out by hand: 1/sqrt(x1*x2) has infimum 0, and n1*n2/(n1*n2) is 1
KNOWN_LIMITS = {"sqrt_prod": 0.0, "full_shift_count_log": 1.0}

print("== simultaneous limits ==")
for name, known in KNOWN_LIMITS.items():
    bracket = simultaneous_limit(builtin(name), schedule, delta=0.01)
    print(f"{name}: status {bracket.status}, best_upper {bracket.best_upper:.3e} "
          f"(known limit {known}), threshold shell {bracket.shell}")

print()
print("== iterated limits agree for subadditive oracles ==")
sqrt_prod = builtin("sqrt_prod")
for order, label in (((0, 1), "x1 outer"), ((1, 0), "x2 outer")):
    it = iterated_limit(sqrt_prod, order, delta=0.01)
    print(f"sqrt_prod {label}: value {it.value:.4f}, status {it.status}")

print()
print("== ... and disagree without it ==")
mixed = builtin("x1sq_sqrt_x2")
lo = iterated_limit(mixed, (0, 1), delta=0.01)
hi = iterated_limit(mixed, (1, 0), delta=0.01)
sim = simultaneous_limit(mixed, GridSchedule(base=Point((1.0, 1.0)), levels=40))
print(f"x1^2*sqrt(x2), superadditive in x1: orders give {lo.value:.4f} vs {hi.value}")
print(f"simultaneous status: {sim.status} (no limit exists)")

print()
print("== subnets: diagonals and rays ==")
diag = diagonal_limit(sqrt_prod, (1, 1), delta=0.01)
print(f"identity diagonal of sqrt_prod: best_upper {diag.best_upper:.3e}")
ceil_ray = ray_limit(builtin("ceiling"), (1.0,), delta=0.01)
print(f"ceiling along t -> t: best_upper {ceil_ray.best_upper} "
      f"(ratio reaches its infimum exactly at integers)")

out = Path("demo_output")
out.mkdir(exist_ok=True)
bracket = simultaneous_limit(sqrt_prod, schedule, delta=0.01)
svg = line_plot_svg(
    [PlotSeries("shell minimum", tuple((float(k), v) for k, v in bracket.shell_extremes())),
     PlotSeries("running bound", tuple((float(k), v) for k, v in bracket.running_bound_by_shell()),
                dashed=True)],
    title="sqrt_prod ratio net", xlabel="shell", ylabel="ratio", timestamp=None)
(out / "sqrt_prod_bracket.svg").write_text(svg)
print(f"\nwrote convergence plot to {out / 'sqrt_prod_bracket.svg'}")
