"""Empirical brackets for directed limits of the ratio net f(x)/prod(x).

For a componentwise subadditive f on the main orthant the ratio net
converges to its infimum, so the minimum of the evaluated ratios is a
true upper bound for the limit -- that is the one certified quantity
here.  "Converged" has one rule, for grid and path brackets and for the
adaptive one-variable tails of iterated limits alike: the samples beyond
a threshold all lie within the tolerance of the minimum ratio that is
reported.  A bracket takes the first shell whose upper set (the samples
at that shell's level or more on every axis) passes; a tail stops once
it holds at least 8 samples and its last 4 pass.  The status is
empirical: it says the sampled tail of a cofinal subset stayed within
the tolerance, not that every point beyond the threshold does.

Samples come from one rung rule, the schedule's geometric ladder, rounded
on an integer domain: it gives the grid axes, the iterated tails, and the
parameter t of the ray x(t) = t * direction and of the diagonal path
x(t) = (t^p1, ..., t^pd), which is given by its exponents.  Ratios come
from one rule, _ratios: f at each sample divided by the product of its
coordinates, multiplied left to right; the ray divides by t instead.

Statuses: converged | diverging_to_minus_infinity |
diverging_to_plus_infinity | inconclusive.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .domain import (
    DimensionMismatchError,
    DomainError,
    GridSchedule,
    Point,
    ScheduleError,
    _Record,
    default_schedule,
    qr_decompose,
)
from .ioutil import CSV_BLOCK_ROWS
from .registry import FunctionOracle, exceeds, ext_add

__all__ = [
    "LimitBracket",
    "simultaneous_limit",
    "IteratedLimit",
    "LevelSummary",
    "iterated_limit",
    "diagonal_limit",
    "DecompositionTerm",
    "DecompositionBound",
    "verify_decomposition_bound",
    "ray_limit",
]

CONVERGED = "converged"
DIVERGING_MINUS = "diverging_to_minus_infinity"
DIVERGING_PLUS = "diverging_to_plus_infinity"
INCONCLUSIVE = "inconclusive"

# -inf detection is inherently heuristic: a ratio or tail below this floor
# counts as diverging to -inf
DIVERGENCE_FLOOR = -1e12
_STATUS_RANK = {CONVERGED: 0, DIVERGING_PLUS: 1, DIVERGING_MINUS: 1, INCONCLUSIVE: 2}


class LimitBracket(_Record):
    """One-sided bracket for a ratio-net limit on the main orthant.

    best_upper is the minimum evaluated ratio and bounds the limit, an
    infimum, from above (certified when the oracle really is
    componentwise subadditive); no lower bound is certified.
    tail_estimate is the minimum ratio over the outermost schedule
    shell.  The evaluated samples are the arrays shells (n,), points
    (n, d) and ratios (n,), row i being one evaluated point; they take
    no part in ==, != and hash.
    """

    best_upper: float
    tail_estimate: float
    status: str
    delta: float
    shell: int | None
    threshold_point: tuple[float, ...] | None
    evaluations: int
    shells: np.ndarray
    points: np.ndarray
    ratios: np.ndarray
    # the limit is an infimum, bounded from above only; bracket.json keeps both keys
    sense = "inf"
    best_lower = None

    def _scalars(self) -> tuple:
        """The fields that ==, != and hash compare: all but the sample arrays."""
        return (self.best_upper, self.tail_estimate, self.status, self.delta, self.shell,
                self.threshold_point, self.evaluations)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._scalars() == other._scalars()

    def __hash__(self) -> int:
        return hash(self._scalars())

    def shell_extremes(self) -> list[tuple[int, float]]:
        """Minimum ratio of each shell."""
        order = np.argsort(self.shells, kind="stable")
        shells, starts = np.unique(self.shells[order], return_index=True)
        return list(zip(shells.tolist(),
                        np.minimum.reduceat(self.ratios[order], starts).tolist()))

    def running_bound_by_shell(self) -> list[tuple[int, float]]:
        """Running upper bound after each shell, nonincreasing."""
        shells, extremes = zip(*self.shell_extremes())
        return list(zip(shells, itertools.accumulate(extremes, min)))

    def to_json_dict(self) -> dict:
        return {
            "sense": self.sense,
            "best_upper": self.best_upper,
            "best_lower": self.best_lower,
            "tail_estimate": self.tail_estimate,
            "status": self.status,
            "delta": self.delta,
            "shell": self.shell,
            "R": list(self.threshold_point) if self.threshold_point else None,
            "evaluations": self.evaluations,
        }

    def samples_csv_rows(self) -> Iterator[Sequence[str]]:
        """The header, then one row per sample by shell, then point.

        Rows are zipped from the per-column reprs one block of
        CSV_BLOCK_ROWS at a time, so the grid is never one list of rows.
        """
        yield ["shell"] + [f"x{i + 1}" for i in range(self.points.shape[1])] + ["ratio"]
        order = np.lexsort((*self.points.T[::-1], self.shells))  # by shell, then point
        points = self.points[order]
        columns = [_reprs(self.shells[order]),
                   *(_reprs(points[:, i]) for i in range(points.shape[1])),
                   _reprs(self.ratios[order])]
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            yield from zip(*(c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns))


def _reprs(values: np.ndarray) -> np.ndarray:
    """repr of each entry as an object array, formatted once per distinct entry.

    A grid axis repeats each of its levels + 1 coordinates across the
    whole grid.  Floats are keyed by their bit pattern, because np.unique
    equates -0.0 and 0.0, whose reprs differ.
    """
    is_float = values.dtype == np.float64
    keys = np.ascontiguousarray(values).view(np.int64) if is_float else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    if is_float:
        distinct = distinct.view(np.float64)
    return np.array([repr(v) for v in distinct.tolist()], dtype=object)[inverse]


def _require_finite(points: np.ndarray, denominators: np.ndarray | Sequence[float]) -> None:
    """The overflow and scale rule of every ratio, applied before the oracle is evaluated.

    Each point to evaluate and each ratio denominator to divide by must
    be finite; an overflowing one would turn the ratio into NaN
    or a silent 0, so the schedule is unusable.  Each denominator must
    also be positive: a zero one turns the ratio into NaN or an infinity,
    and a negative one flips the inequality an upper bound rests on.
    """
    if not (np.isfinite(points).all() and np.isfinite(denominators).all()):
        raise ScheduleError("a sample point or ratio denominator is not finite; "
                            "lower the growth or the base")
    if not (np.asarray(denominators) > 0).all():
        raise ScheduleError("a ratio denominator is zero or negative; "
                            "sample only points with positive coordinate products")


def _ratios(oracle: FunctionOracle, points: np.ndarray,
            scales: Sequence[float] | None = None) -> np.ndarray:
    """f(points[k])/scales[k] for the points, one per row: the ratio of every limit mode.

    scales defaults to each point's coordinate product, multiplied left
    to right; only the ray passes its own, its parameter t.
    """
    if scales is None:
        with np.errstate(over="ignore"):  # _require_finite refuses an overflow
            scales = math.prod(points.T)
    _require_finite(points, scales)
    return oracle.evaluate_points(list(points.T)) / scales


def _require_estimable(oracle: FunctionOracle, delta: float) -> None:
    """Every estimator's front door, checked before its schedule.

    delta must be positive, which also refuses NaN, and the oracle's
    domain must be unbounded, not a finite grid.
    """
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta!r}")
    if oracle.domain.grid_axes is not None:
        raise DomainError("limit estimation needs an unbounded domain, not a finite grid")


def _bracket(oracle: FunctionOracle, points: np.ndarray, corners: np.ndarray, delta: float,
             scales: Sequence[float] | None = None) -> LimitBracket:
    """Evaluate the ratios of _ratios at the points and bracket them in inf sense.

    The points, one per row, run in C order over the parameter grid
    (len(corners),) * corners.shape[1]: grid axis i is the level of the
    sample on axis i, and corners[k] is the sample at level k on every
    axis.  A path is the one-axis case.  Shell k is the layer of samples
    whose largest level is k, and its upper set is the samples at level
    k or more on every axis.  The bracket converges at the first shell
    whose upper set stays within delta of the minimum ratio.
    """
    grid = (len(corners),) * corners.shape[1]
    ratios = _ratios(oracle, points, scales).reshape(grid)
    shells = np.indices(grid).max(axis=0).ravel()
    upper_max = ratios  # becomes the largest ratio over each sample's upper set
    for a in range(len(grid)):
        upper_max = np.flip(np.maximum.accumulate(np.flip(upper_max, axis=a), axis=a), axis=a)
    upper_max = upper_max[(np.arange(len(corners)),) * len(grid)]
    ratios = ratios.ravel()
    best_upper = float(ratios.min())
    tail_estimate = float(ratios[shells == shells.max()].min())
    with np.errstate(invalid="ignore"):  # inf - inf: that upper set is not within delta
        within = np.flatnonzero(upper_max - best_upper <= delta)
    shell = int(within[0]) if within.size else None
    if best_upper == -math.inf or tail_estimate < DIVERGENCE_FLOOR:
        status = DIVERGING_MINUS
    elif shell is not None:
        status = CONVERGED
    else:
        status = INCONCLUSIVE
    return LimitBracket(best_upper=best_upper, tail_estimate=tail_estimate, status=status,
                        delta=delta, shell=shell,
                        threshold_point=None if shell is None else tuple(corners[shell].tolist()),
                        evaluations=int(ratios.size), shells=shells, points=points,
                        ratios=ratios)


# ---------------------------------------------------------------------------
# Simultaneous (product-order) limit
# ---------------------------------------------------------------------------

def _schedule(schedule: GridSchedule | None, d: int) -> GridSchedule:
    """The schedule of an estimator over d axes, 1 for a path; the default one if none is given."""
    schedule = schedule or default_schedule(d)
    if schedule.dim != d:
        raise DimensionMismatchError(f"schedule of dimension {schedule.dim}, expected {d}")
    return schedule


def simultaneous_limit(oracle: FunctionOracle, schedule: GridSchedule | None = None,
                       delta: float = 0.01) -> LimitBracket:
    """Bracket the product-order limit of f(x)/prod(x) on the main orthant.

    Evaluates the full schedule grid.  Shell k is the layer of grid
    points whose largest level index is k, so extending the schedule
    only adds shells and the running minimum is nonincreasing.  The
    bracket converges by the module's rule, within delta.
    """
    _require_estimable(oracle, delta)
    schedule = _schedule(schedule, oracle.domain.dim)
    axes = [np.asarray(schedule.axis_values(i, integer=oracle.domain.integer), dtype=float)
            for i in range(schedule.dim)]
    # the points run in C order over the levels, one per row; each axis is a contiguous column
    points = np.stack(np.meshgrid(*axes, indexing="ij", copy=False)).reshape(len(axes), -1).T
    return _bracket(oracle, points, np.stack(axes, axis=1), delta)


# ---------------------------------------------------------------------------
# Adaptive one-dimensional tail estimation
# ---------------------------------------------------------------------------

class _TailEstimate(_Record):
    value: float
    status: str
    evaluations: int
    stabilized_at: float | None


def _adaptive_tail(g: Callable[[float], float], ladder: Sequence[float], *,
                   tol: float) -> _TailEstimate:
    """Estimate the limit of g along a geometric ladder, extending adaptively.

    The value is the running minimum of the samples, the upper estimate
    that the tail certifies when g is a ratio of a subadditive function.
    Stops converged by the module's rule: at least 8 samples, and the
    last 4 within tol of that minimum.  Also stops at a sample of +inf,
    when sustained geometric growth marks divergence to +inf (8
    increasing positive samples rising at least 4-fold), when a sample
    (-inf included) crosses the divergence floor, or at the end of the
    ladder (inconclusive).
    """
    samples: list[float] = []
    low = math.inf
    evals = 0
    for x in ladder:
        v = float(g(x))
        evals += 1
        if v == math.inf:
            return _TailEstimate(math.inf, DIVERGING_PLUS, evals, None)
        samples.append(v)
        low = min(low, v)
        if len(samples) >= 8 and max(samples[-4:]) - low <= tol:
            return _TailEstimate(low, CONVERGED, evals, x)
        if v < DIVERGENCE_FLOOR:
            return _TailEstimate(-math.inf, DIVERGING_MINUS, evals, None)
        if v > -DIVERGENCE_FLOOR and len(samples) >= 2 and v > samples[-2]:
            return _TailEstimate(math.inf, DIVERGING_PLUS, evals, None)
        if len(samples) >= 8:
            window = samples[-8:]
            increasing = all(a < b for a, b in zip(window, window[1:]))
            if increasing and window[0] > 0 and window[-1] >= 4.0 * window[0]:
                return _TailEstimate(math.inf, DIVERGING_PLUS, evals, None)
    return _TailEstimate(low, INCONCLUSIVE, evals, None)


# ---------------------------------------------------------------------------
# Iterated (nested one-variable) limits
# ---------------------------------------------------------------------------

class LevelSummary(_Record):
    axis: int
    status: str
    tol: float
    sweeps: int
    evaluations: int
    # coordinate where the most recent sweep at this depth stabilized,
    # None if it never converged
    last_stabilized_at: float | None = None


class IteratedLimit(_Record):
    value: float
    status: str
    order: tuple[int, ...]
    levels: tuple[LevelSummary, ...]
    evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "status": self.status,
            "order": list(self.order),
            "levels": [
                {"axis": l.axis, "status": l.status, "tol": l.tol,
                 "sweeps": l.sweeps, "evaluations": l.evaluations,
                 "stabilized_at": l.last_stabilized_at}
                for l in self.levels
            ],
            "evaluations": self.evaluations,
        }


def _worst_status(statuses: Sequence[str]) -> str:
    return max(statuses, key=lambda s: _STATUS_RANK[s])


def _level_tol(delta: float, depth: int) -> float:
    return delta * 2.0 ** -(depth + 1)


def iterated_limit(oracle: FunctionOracle, order: Sequence[int],
                   schedule: GridSchedule | None = None, delta: float = 0.01) -> IteratedLimit:
    """Nested one-variable limits of f(x)/prod(x) in the given axis order.

    order[0] is the outermost limit variable and order[-1] the
    innermost.  Each level runs the adaptive 1-D estimator; inner sweeps
    extend their ladder until the tail converges, because a fixed inner
    depth leaks outer-coordinate scale into the inner estimate.  Inner
    divergence propagates as +-inf values, not as an error.  Level
    tolerances halve with depth so the compounded error stays near
    delta; the result carries the worst level status.
    """
    _require_estimable(oracle, delta)
    d = oracle.domain.dim
    if sorted(order) != list(range(d)):
        raise DomainError(f"order {order!r} is not a permutation of the {d} axes")
    schedule = _schedule(schedule, d)
    # every ladder is built before the first evaluation, so an unusable schedule raises up front
    ladders = {axis: [float(x) for x in schedule.tail_values(axis, integer=oracle.domain.integer)]
               for axis in order}
    sweeps: list[list[_TailEstimate]] = [[] for _ in order]  # every tail run at each depth

    def estimate(assigned: dict[int, float], depth: int) -> _TailEstimate:
        """The nested limits over order[depth:], the coordinates in assigned held fixed."""
        axis = order[depth]

        def g(x: float) -> float:
            here = {**assigned, axis: x}
            if depth + 1 < d:
                return estimate(here, depth + 1).value
            return _ratios(oracle, np.array([[here[i] for i in range(d)]]))[0]

        est = _adaptive_tail(g, ladders[axis], tol=_level_tol(delta, depth))
        sweeps[depth].append(est)
        return est

    top = estimate({}, 0)
    levels = tuple(
        LevelSummary(axis=order[depth], status=_worst_status([e.status for e in runs]),
                     tol=_level_tol(delta, depth), sweeps=len(runs),
                     evaluations=sum(e.evaluations for e in runs),
                     last_stabilized_at=next((e.stabilized_at for e in reversed(runs)
                                              if e.stabilized_at is not None), None))
        for depth, runs in enumerate(sweeps)
    )
    overall = _worst_status([top.status] + [l.status for l in levels])
    # every evaluation of the oracle happens at the innermost level
    return IteratedLimit(value=top.value, status=overall, order=tuple(order),
                         levels=levels, evaluations=levels[-1].evaluations)


# ---------------------------------------------------------------------------
# Diagonal / path limits
# ---------------------------------------------------------------------------

def _path_parameters(oracle: FunctionOracle, schedule: GridSchedule | None) -> list[float]:
    """The parameter values t of a path limit: the grid modes' rung rule, as floats."""
    ladder = _schedule(schedule, 1).axis_values(0, integer=oracle.domain.integer)
    return [float(t) for t in ladder]


def diagonal_limit(oracle: FunctionOracle, powers: Sequence[float],
                   schedule: GridSchedule | None = None, delta: float = 0.01) -> LimitBracket:
    """Bracket the limit along the diagonal path x(t) = (t^p1, ..., t^pd).

    Any path with every axis diverging is a subnet of the product-order
    net, so for a componentwise subadditive oracle the path limit equals
    the simultaneous one and its sampled infimum already equals the global
    infimum on identity-style integer diagonals.  Each power must be finite
    and above 1/2, so that each coordinate outgrows the square root of the
    parameter's range.  On an integer domain t^p is rounded half to even,
    and each axis of the rounded path must still be strictly increasing.
    """
    _require_estimable(oracle, delta)
    d = oracle.domain.dim
    if len(powers) != d:
        raise DimensionMismatchError(f"{len(powers)} powers for {d} axes")
    for i, p in enumerate(powers):
        if not p > 0.5:
            raise DomainError(f"power {p!r} on axis {i} is not above 1/2: "
                              "each coordinate must outgrow sqrt(t)")
        if p == math.inf:
            raise DomainError(f"power {p!r} on axis {i} is not finite")
    ts = _path_parameters(oracle, schedule)
    try:
        coords = np.array([[t ** p for p in powers] for t in ts])
    except OverflowError as exc:
        raise ScheduleError(f"a path point overflows: {exc}") from exc
    if oracle.domain.integer:
        coords = np.round(coords)  # half to even, as round()
        # a power below 1 can round two rungs to one point: the rung rule refuses it
        for i, axis in enumerate(coords.T):
            repeats = axis[1:][np.diff(axis) <= 0]
            if repeats.size:
                raise ScheduleError(f"the rounded diagonal repeats {float(repeats[0])!r} on "
                                    f"axis {i}; on an integer domain use a power of at "
                                    "least 1 or a larger growth")
    return _bracket(oracle, coords, np.array(ts).reshape(-1, 1), delta)


# ---------------------------------------------------------------------------
# The step-decomposition upper bound
# ---------------------------------------------------------------------------

class DecompositionTerm(_Record):
    """One term of the bound: coefficient * f(y^w) for one sign word w."""

    coefficient: int
    value: float

    @property
    def contribution(self) -> float:
        return self.coefficient * self.value


class DecompositionBound(_Record):
    x: tuple[float, ...]
    t: tuple[float, ...]
    lhs: float
    rhs: float
    holds: bool
    terms: tuple[DecompositionTerm, ...]


def verify_decomposition_bound(oracle: FunctionOracle,
                               x: Point | Sequence[float],
                               t: Point | Sequence[float]) -> DecompositionBound:
    """Check f(x) against the 2^d-term bound from the q*t + r decomposition.

    Write x_i = q_i t_i + r_i with r_i in [t_i, 2 t_i).  Repeated
    per-axis subadditivity gives

        f(x) <= sum over sign words w of (prod q_i^{w_i}) * f(y^w),

    where y^w takes t_i on axes with w_i = 1 and r_i otherwise.  For a
    componentwise subadditive oracle the verdict must be "holds"; a
    failure is a counterexample to the claim.
    """
    px, pt = Point(x), Point(t)
    d = oracle.domain.dim
    if px.dim != d or pt.dim != d:
        raise DimensionMismatchError(f"points of dimension {px.dim}/{pt.dim} vs oracle {d}")
    for i in range(d):
        if not px[i] >= 2 * pt[i]:
            raise DomainError(f"need x_i >= 2 t_i on every axis; axis {i} has "
                              f"x={px[i]!r}, t={pt[i]!r}")
    decomp = [qr_decompose(px[i], pt[i]) for i in range(d)]

    words = list(itertools.product((0, 1), repeat=d))
    points = [tuple(decomp[i].t if w[i] else decomp[i].r for i in range(d)) for w in words]
    *values, lhs = oracle.evaluate_points(list(np.array([*points, px.coords]).T)).tolist()
    terms = [DecompositionTerm(coefficient=math.prod(decomp[i].q for i in range(d) if w[i]),
                               value=value)
             for w, value in zip(words, values)]
    rhs = functools.reduce(ext_add, (term.contribution for term in terms), 0.0)
    holds = not exceeds(lhs, rhs)
    return DecompositionBound(x=tuple(px), t=tuple(pt), lhs=lhs, rhs=rhs,
                              holds=holds, terms=tuple(terms))


# ---------------------------------------------------------------------------
# Ray limits
# ---------------------------------------------------------------------------

def ray_limit(oracle: FunctionOracle, direction: Point | Sequence[float],
              schedule: GridSchedule | None = None, delta: float = 0.01) -> LimitBracket:
    """One-dimensional bracket for f(t * direction)/t as t grows.

    For a jointly subadditive f the restriction g(t) = f(t * direction)
    is subadditive in t, so g(t)/t converges to its infimum and the
    usual bracket semantics apply along the ray.
    """
    _require_estimable(oracle, delta)
    dirp = Point(direction)
    if dirp.dim != oracle.domain.dim:
        raise DimensionMismatchError(
            f"direction of dimension {dirp.dim} vs oracle {oracle.domain.dim}")
    if all(c == 0 for c in dirp):
        raise DomainError("direction must be nonzero")
    ts = _path_parameters(oracle, schedule)
    return _bracket(oracle, np.array([[t * c for c in dirp] for t in ts]),
                    np.array(ts).reshape(-1, 1), delta, ts)

