"""Level-set measure estimation and the minimum-denominator counterexample.

For a componentwise subadditive f and anchor t with positive
coordinates, the set of points below t where f stays above f(t)/2^d
fills at least a 2^-d fraction of the box: splitting each axis at x_i
versus t_i - x_i partitions the box into 2^d measure-preserving copies,
and subadditivity forces one of the 2^d mixed values to carry its share
of f(t).  The estimators here check that inequality numerically.

Measurability of f is assumed, not checked: f is treated as exactly
evaluable pointwise, and the measure estimates are ordinary quadrature
or Monte Carlo.  Neither error bound is certified; each rests on a
premise that is not checked.  The center-rule quadrature's error bound,
the volume of the cells whose corner verdicts disagree, assumes that the
grid resolves the set: a feature thinner than a cell can cross no corner
and is missed with an error bound of zero.  The Monte Carlo margin is a
99% Hoeffding bound whose premise is that the counter stream acts as
i.i.d. uniform draws.

The minimum-denominator function rubin_eval marks where boundedness
fails without componentwise subadditivity: it is bounded on every axis
line of [1, 2]^2 and unbounded on the box.  Only exact rationals show
it, so it and its demo take Fractions, not an oracle.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .domain import DomainError, Point, _Record, as_point
from .registry import FunctionOracle, exceeds

# fractions is imported where it is used: only the exact rubin functions need it
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "LevelSetSpec",
    "MeasureEstimate",
    "LemmaCheckRow",
    "levelset_measure",
    "check_levelset_lemma",
    "rubin_eval",
    "LineScan",
    "UnboundednessDemo",
    "rubin_unboundedness_demo",
]

_MC_CONFIDENCE_ALPHA = 0.01  # 99% Hoeffding bound
_LINE_POINTS = 20   # the demo's lines x = 1 + 1/m, m = 1..20
_LINE_GRID_Q = 12   # each line is sampled at every 1 + p/q with q <= 12


class LevelSetSpec(_Record):
    """The set V = {x : 0 < x_i < t_i for all i, f(x) >= k}."""

    t: Point
    k: float

    def __init__(self, t: Point, k: float) -> None:
        super().__init__(as_point(t), k)
        if not all(c > 0 for c in self.t):
            raise DomainError("anchor must have positive coordinates")
        if not math.isfinite(self.box_volume):
            raise DomainError(f"the box below anchor {tuple(self.t)} has volume "
                              f"{self.box_volume!r}, which is not finite")
        # a volume rounded to 0 or to a subnormal makes every margin vacuous or inexact
        if self.box_volume < sys.float_info.min:
            raise DomainError(f"the box below anchor {tuple(self.t)} has volume "
                              f"{self.box_volume!r}, which is below the smallest "
                              f"normal float {sys.float_info.min!r}")

    @property
    def box_volume(self) -> float:
        return self.t.product()


class MeasureEstimate(_Record):
    value: float
    method: str          # "grid_quadrature" or "monte_carlo"
    error_bound: float


def _grid_quadrature(oracle: FunctionOracle, spec: LevelSetSpec, cells: int) -> MeasureEstimate:
    t = spec.t
    d = t.dim
    cell_vol = spec.box_volume / cells ** d
    # as for the box: a subnormal cell volume makes the value and its error bound inexact
    if cell_vol < sys.float_info.min:
        raise DomainError(f"a grid of {cells} cells per axis below anchor {tuple(t)} has cell "
                          f"volume {cell_vol!r}, which is below the smallest normal float "
                          f"{sys.float_info.min!r}; use fewer cells")

    center_axes = [(np.arange(cells) + 0.5) * (t[i] / cells) for i in range(d)]
    mesh = np.meshgrid(*center_axes, indexing="ij")
    inside_centers = oracle.evaluate_points([m.ravel() for m in mesh]) >= spec.k
    value = float(inside_centers.sum()) * cell_vol

    # Corner grid: the open box excludes 0, so nudge the zero corner inward.
    corner_axes = []
    for i in range(d):
        ax = np.arange(cells + 1) * (t[i] / cells)
        ax[0] = t[i] / cells * 1e-9
        corner_axes.append(ax)
    mesh = np.meshgrid(*corner_axes, indexing="ij")
    inside_corners = oracle.evaluate_points([m.ravel() for m in mesh]) >= spec.k

    # a cell's corners disagree when some of them, but not every one, is inside
    every = some = inside_corners.reshape(mesh[0].shape)
    for axis in range(d):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        every, some = every[lo] & every[hi], some[lo] | some[hi]
    error = float((some & ~every).sum()) * cell_vol

    return MeasureEstimate(value=value, method="grid_quadrature", error_bound=error)


def _monte_carlo(oracle: FunctionOracle, spec: LevelSetSpec,
                 samples: int, seed: int) -> MeasureEstimate:
    from .sampling import unit_uniform  # only the Monte Carlo method loads the sample stream
    t = spec.t
    d = t.dim
    counters = np.arange(samples, dtype=np.uint64) * np.uint64(d)
    columns = [unit_uniform(seed, counters + np.uint64(i)) * t[i] for i in range(d)]
    values = oracle.evaluate_points(columns)
    hits = int(np.count_nonzero(values >= spec.k))
    vol = spec.box_volume
    value = vol * hits / samples
    if value == math.inf:  # vol * hits overflowed; vol * (hits / samples) cannot
        value = vol * (hits / samples)
    error = vol * math.sqrt(math.log(2.0 / _MC_CONFIDENCE_ALPHA) / (2.0 * samples))
    return MeasureEstimate(value=value, method="monte_carlo", error_bound=error)


def levelset_measure(oracle: FunctionOracle, spec: LevelSetSpec,
                     method: str = "grid", *, cells: int = 400,
                     samples: int = 20_000, seed: int = 2024) -> MeasureEstimate:
    """Estimate the Lebesgue measure of the level set V with a stated error bound.

    Grid quadrature counts a cell as inside iff its center is; the error
    bound is the total volume of cells whose corner verdicts disagree.
    Its premise is resolution: every cell the boundary crosses has
    corners on both sides.  A set thinner than a cell that touches no
    corner breaks it, e.g. |x1 - 0.5013| < 1e-4 with t = (1, 1) and
    cells=10 gives value 0 and bound 0 for a measure of 2e-4.  Monte
    Carlo uses the deterministic counter stream and a 99% Hoeffding
    bound, whose premise is that the stream acts as i.i.d. uniform draws.
    The grid refuses a cell volume below the smallest normal float.
    """
    if oracle.domain.integer or oracle.domain.grid_axes is not None:
        raise DomainError("measure estimation needs an oracle on a real domain")
    if method == "grid":
        if cells < 2:
            raise DomainError("need at least 2 cells per axis")
        return _grid_quadrature(oracle, spec, cells)
    if method == "mc":
        if samples < 100:
            raise DomainError("need at least 100 Monte Carlo samples")
        return _monte_carlo(oracle, spec, samples, seed)
    raise DomainError(f"unknown method {method!r}; use 'grid' or 'mc'")


class LemmaCheckRow(_Record):
    anchor: tuple[float, ...]
    k: float
    estimate: MeasureEstimate
    bound: float
    margin: float
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "anchor": list(self.anchor),
            "k": self.k,
            "mu_estimate": self.estimate.value,
            "method": self.estimate.method,
            "error": self.estimate.error_bound,
            "bound": self.bound,
            "margin": self.margin,
            "holds": self.holds,
        }


def check_levelset_lemma(oracle: FunctionOracle, anchors: Iterable[Point | Sequence[float]],
                         method: str = "grid", *, cells: int = 400,
                         samples: int = 20_000, seed: int = 2024) -> list[LemmaCheckRow]:
    """At each anchor t, test mu{x < t : f(x) >= f(t)/2^d} >= prod(t)/2^d.

    The margin is the raw estimate minus the bound; "holds" allows the
    stated estimation error, since the inequality can be attained with
    equality (|x| does exactly that at every anchor), so it rests on the
    premise of that error bound (see levelset_measure).
    """
    rows: list[LemmaCheckRow] = []
    for anchor in anchors:
        t = as_point(anchor)
        d = t.dim
        k = oracle.evaluate(t) / 2 ** d
        spec = LevelSetSpec(t=t, k=k)
        est = levelset_measure(oracle, spec, method, cells=cells,
                               samples=samples, seed=seed)
        bound = spec.box_volume / 2 ** d
        margin = est.value - bound
        holds = not exceeds(bound, est.value + est.error_bound)
        rows.append(LemmaCheckRow(anchor=tuple(t), k=k, estimate=est,
                                  bound=bound, margin=margin, holds=holds))
    return rows


# ---------------------------------------------------------------------------
# The minimum-denominator function: bounded on every line, unbounded on the box
# ---------------------------------------------------------------------------

def _denominator(value: Fraction | int) -> int:
    from fractions import Fraction
    if isinstance(value, Fraction):
        if value <= 0:
            raise DomainError(f"coordinate must be positive, got {value!r}")
        return value.denominator
    if isinstance(value, int):
        if value <= 0:
            raise DomainError(f"coordinate must be positive, got {value!r}")
        return 1
    raise DomainError(
        f"expected Fraction or int, got {value!r}; rationality of a "
        "float is not decidable, so inputs must be exact"
    )


def rubin_eval(coords: Sequence[Fraction | int]) -> float:
    """min over coordinates of the reduced-denominator function h.

    h(p/q) = q for a positive fraction in lowest terms (Fraction reduces
    automatically and rejects zero denominators at construction), and
    h = 1 on positive integers.
    """
    values = [_denominator(c) for c in coords]
    if not values:
        raise DomainError("at least one coordinate required")
    return float(min(values))


class LineScan(_Record):
    x: Fraction
    denominator_bound: int
    max_value: int
    ok: bool


class UnboundednessDemo(_Record):
    """Exact-rational witnesses that per-line boundedness does not bound the box.

    diagonal holds ((1 + 1/n, 1 + 1/n), n) pairs: the function value
    grows without bound inside [1, 2]^2.  line_scans fix the first
    coordinate at a rational x and confirm every sampled value on that
    line stays at or below denominator(x).
    """

    diagonal: tuple[tuple[tuple[Fraction, Fraction], int], ...]
    line_scans: tuple[LineScan, ...]

    @property
    def ok(self) -> bool:
        diag_ok = all(value == point[0].denominator for point, value in self.diagonal)
        return diag_ok and all(scan.ok for scan in self.line_scans)


def _rational_grid(q_max: int) -> list[Fraction]:
    """All rationals 1 + p/q with 1 <= q <= q_max, 0 <= p <= q, deduplicated."""
    from fractions import Fraction
    grid = {Fraction(1)}
    for q in range(1, q_max + 1):
        for p in range(0, q + 1):
            grid.add(1 + Fraction(p, q))
    return sorted(grid)


def rubin_unboundedness_demo(n_max: int) -> UnboundednessDemo:
    """Evaluate the minimum-denominator function exactly along the diagonal.

    At (1 + 1/n, 1 + 1/n) the value is exactly n, because n + 1 and n
    are coprime.  Floating point grids almost never hit high-denominator
    rationals, so the demo works in exact integer arithmetic throughout.
    """
    from fractions import Fraction
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    diagonal = []
    for n in range(1, n_max + 1):
        x = 1 + Fraction(1, n)
        value = int(rubin_eval((x, x)))
        diagonal.append(((x, x), value))

    ys = _rational_grid(_LINE_GRID_Q)
    line_scans = []
    for m in range(1, _LINE_POINTS + 1):
        x = 1 + Fraction(1, m)
        bound = x.denominator
        max_value = max(int(rubin_eval((x, y))) for y in ys)
        line_scans.append(LineScan(x=x, denominator_bound=bound,
                                   max_value=max_value, ok=max_value <= bound))
    return UnboundednessDemo(diagonal=tuple(diagonal), line_scans=tuple(line_scans))
