"""Empirical brackets for directed limits of the ratio net f(x)/prod(x).

For a componentwise subadditive f on the main orthant the ratio net
converges to its infimum, so the minimum of the evaluated ratios is a
true upper bound for the limit -- that is the one certified quantity
here.  "Converged" statuses are always empirical: they say the sampled
tail of a cofinal subset stabilized within delta, not that every point
beyond the threshold does.

Statuses: converged | diverging_to_minus_infinity |
diverging_to_plus_infinity | inconclusive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from .domain import (
    DimensionMismatchError,
    DomainError,
    GridSchedule,
    Orthant,
    Point,
    ScheduleError,
    as_extended,
    as_point,
    default_schedule,
    ext_sum,
    qr_decompose,
    violation_tolerance,
)
from .ioutil import CSV_BLOCK_ROWS
from .registry import FunctionOracle

# checks (the inner-profile report) is imported where it is used, so a
# limit run loads neither it nor the sample stream it imports
if TYPE_CHECKING:
    from .checks import ViolationReport

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
    "orthant_limit",
    "ray_limit",
    "InnerLimitProfile",
    "inner_limit_profile",
]

CONVERGED = "converged"
DIVERGING_MINUS = "diverging_to_minus_infinity"
DIVERGING_PLUS = "diverging_to_plus_infinity"
INCONCLUSIVE = "inconclusive"

# -inf detection is inherently heuristic: a ratio or tail below this floor
# counts as diverging to -inf
DIVERGENCE_FLOOR = -1e12
_STATUS_RANK = {CONVERGED: 0, DIVERGING_PLUS: 1, DIVERGING_MINUS: 1, INCONCLUSIVE: 2}


@dataclass(frozen=True)
class LimitBracket:
    """One-sided bracket for a ratio-net limit.

    In inf sense, best_upper is the minimum evaluated ratio and bounds
    the limit from above (certified when the oracle really is
    componentwise subadditive).  In sup sense (odd orthants) the
    bracket flips: best_lower is the maximum ratio and bounds the limit
    from below.  tail_estimate is the extreme ratio over the outermost
    schedule shell.  The evaluated samples are the arrays shells (n,),
    points (n, d) and ratios (n,), row i being one evaluated point.
    """

    sense: str
    best_upper: float | None
    best_lower: float | None
    tail_estimate: float
    status: str
    delta: float
    shell: int | None
    threshold_point: tuple[float, ...] | None
    evaluations: int
    shells: np.ndarray = field(repr=False, compare=False)
    points: np.ndarray = field(repr=False, compare=False)
    ratios: np.ndarray = field(repr=False, compare=False)

    def shell_extremes(self) -> list[tuple[int, float]]:
        """Extreme ratio of each shell (minimum in inf sense, maximum in sup sense)."""
        order = np.argsort(self.shells, kind="stable")
        shells, starts = np.unique(self.shells[order], return_index=True)
        fold = np.minimum if self.sense == "inf" else np.maximum
        return list(zip(shells.tolist(), fold.reduceat(self.ratios[order], starts).tolist()))

    def running_bound_by_shell(self) -> list[tuple[int, float]]:
        """Running best bound after each shell, nonincreasing in inf sense."""
        shells, extremes = zip(*self.shell_extremes())
        fold = min if self.sense == "inf" else max
        return list(zip(shells, itertools.accumulate(extremes, fold)))

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

    def samples_csv_rows(self) -> Iterator[list[str]]:
        """The header, then one row per sample by shell, then point.

        Rows are built from the per-column reprs one block of
        CSV_BLOCK_ROWS at a time, so the grid is never one list of rows.
        """
        yield ["shell"] + [f"x{i + 1}" for i in range(self.points.shape[1])] + ["ratio"]
        order = np.lexsort((*self.points.T[::-1], self.shells))  # by shell, then point
        points = self.points[order]
        columns = [_reprs(self.shells[order]),
                   *(_reprs(points[:, i]) for i in range(points.shape[1])),
                   _reprs(self.ratios[order])]
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            yield from np.stack([c[start:start + CSV_BLOCK_ROWS] for c in columns],
                                axis=1).tolist()


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


def _require_finite(points: np.ndarray | Sequence[float],
                    denominators: np.ndarray | Sequence[float] | float) -> None:
    """The overflow rule of every estimator, applied before it evaluates.

    Each point it will evaluate and each ratio denominator it will divide
    by must be finite; an overflowing one would turn the ratio into NaN
    or a silent 0, so the schedule is unusable.
    """
    if not (np.isfinite(points).all() and np.isfinite(denominators).all()):
        raise ScheduleError("a sample point or ratio denominator is not finite; "
                            "lower the growth or the levels")


def _require_delta(delta: float) -> None:
    """Every estimator's tolerance rule: delta > 0, which also refuses NaN."""
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta!r}")


def _bracket(oracle: FunctionOracle, points: np.ndarray, scales: np.ndarray | Sequence[float],
             corners: np.ndarray, delta: float) -> LimitBracket:
    """Evaluate the ratios f(points[k])/scales[k] and bracket them in inf sense.

    The points, one per row, run in C order over the parameter grid
    (len(corners),) * corners.shape[1]: grid axis i is the level of the
    sample on axis i, and corners[k] is the sample at level k on every
    axis.  A path is the one-axis case.  Shell k is the layer of samples
    whose largest level is k, and its upper set is the samples at level
    k or more on every axis.  The bracket converges at the first shell
    whose upper set stays within delta of the minimum ratio.
    """
    _require_finite(points, scales)
    grid = (len(corners),) * corners.shape[1]
    ratios = (oracle.evaluate_points(list(points.T)) / scales).reshape(grid)
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
    return LimitBracket(sense="inf", best_upper=best_upper, best_lower=None,
                        tail_estimate=tail_estimate, status=status, delta=delta,
                        shell=shell,
                        threshold_point=None if shell is None else tuple(corners[shell].tolist()),
                        evaluations=int(ratios.size), shells=shells, points=points,
                        ratios=ratios)


# ---------------------------------------------------------------------------
# Simultaneous (product-order) limit
# ---------------------------------------------------------------------------

def _require_main_orthant(oracle: FunctionOracle) -> None:
    w = oracle.domain.orthant
    if w is not None and not w.is_main:
        raise DomainError(
            f"{oracle.name!r} lives on orthant {w}; use orthant_limit for reflected brackets"
        )
    if oracle.domain.grid_axes is not None:
        raise DomainError("limit estimation needs an unbounded domain, not a finite grid")


def _schedule(schedule: GridSchedule | None, d: int) -> GridSchedule:
    """The schedule of an estimator over d axes: the default one if none is given."""
    schedule = schedule or default_schedule(d)
    if schedule.dim != d:
        raise DimensionMismatchError(f"schedule of dimension {schedule.dim} vs oracle {d}")
    return schedule


def simultaneous_limit(oracle: FunctionOracle, schedule: GridSchedule | None = None,
                       delta: float = 0.01) -> LimitBracket:
    """Bracket the product-order limit of f(x)/prod(x) on the main orthant.

    Evaluates the full schedule grid.  Shell k is the layer of grid
    points whose largest level index is k, so extending the schedule
    only adds shells and the running minimum is nonincreasing.  The
    bracket converges at the smallest shell k such that every evaluated
    ratio at points beyond the shell corner (product order) lies within
    delta of the minimum.
    """
    _require_delta(delta)
    _require_main_orthant(oracle)
    return _bracket(oracle, *_grid(_schedule(schedule, oracle.domain.dim),
                                   oracle.domain.integer), delta)


def _grid(schedule: GridSchedule, integer: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The schedule's grid for _bracket: points, coordinate products, corners.

    The points run in C order over the levels, one per row; each axis is a
    contiguous column.  Products multiply the coordinates left to right.
    """
    axes = [np.asarray(schedule.axis_values(i, integer=integer), dtype=float)
            for i in range(schedule.dim)]
    points = np.stack(np.meshgrid(*axes, indexing="ij", copy=False)).reshape(len(axes), -1).T
    with np.errstate(over="ignore"):  # _bracket refuses an overflow
        scales = math.prod(points.T)
    return points, scales, np.stack(axes, axis=1)


# ---------------------------------------------------------------------------
# Adaptive one-dimensional tail estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _TailEstimate:
    value: float
    status: str
    evaluations: int
    stabilized_at: float | None


def _adaptive_tail(g: Callable[[float], float], ladder: Sequence[float], *,
                   tol: float) -> _TailEstimate:
    """Estimate the limit of g along a geometric ladder, extending adaptively.

    Stops when the tail stabilizes (at least 8 samples, the last 3
    consecutive differences within tol), when sustained geometric growth
    marks divergence to +inf (8 increasing positive samples rising at
    least 4-fold), when the tail crosses the divergence floor, or at the
    end of the ladder (inconclusive).  The returned value is the running
    minimum, the certified-style upper estimate when g is a ratio of a
    subadditive function.
    """
    samples: list[float] = []
    stable_run = 0
    evals = 0
    for x in ladder:
        v = as_extended(g(x))
        evals += 1
        if v == -math.inf:
            return _TailEstimate(-math.inf, DIVERGING_MINUS, evals, None)
        if v == math.inf:
            return _TailEstimate(math.inf, DIVERGING_PLUS, evals, None)
        if samples and abs(v - samples[-1]) <= tol:
            stable_run += 1
        elif samples:
            stable_run = 0
        samples.append(v)
        if len(samples) >= 8 and stable_run >= 3:
            return _TailEstimate(min(samples), CONVERGED, evals, x)
        if v < DIVERGENCE_FLOOR:
            return _TailEstimate(-math.inf, DIVERGING_MINUS, evals, None)
        if v > -DIVERGENCE_FLOOR and len(samples) >= 2 and v > samples[-2]:
            return _TailEstimate(math.inf, DIVERGING_PLUS, evals, None)
        if len(samples) >= 8:
            window = samples[-8:]
            increasing = all(a < b for a, b in zip(window, window[1:]))
            if increasing and window[0] > 0 and window[-1] >= 4.0 * window[0]:
                return _TailEstimate(math.inf, DIVERGING_PLUS, evals, None)
    return _TailEstimate(min(samples), INCONCLUSIVE, evals, None)


# ---------------------------------------------------------------------------
# Iterated (nested one-variable) limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelSummary:
    axis: int
    status: str
    tol: float
    sweeps: int
    evaluations: int
    # coordinate where the most recent sweep at this depth stabilized,
    # None if it never converged
    last_stabilized_at: float | None = None


@dataclass(frozen=True)
class IteratedLimit:
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


def _nested_tails(oracle: FunctionOracle, axes: Sequence[int], denom_axes: Sequence[int],
                  schedule: GridSchedule, delta: float,
                  ) -> tuple[Callable[[Mapping[int, float]], _TailEstimate],
                             list[list[_TailEstimate]]]:
    """One adaptive tail per axis, nested: axes[0] outermost, axes[-1] innermost.

    Returns estimate(assigned), which runs the nested limits with the
    coordinates in assigned held fixed, and sweeps, where sweeps[k] logs
    every tail estimate run at depth k.  The innermost level evaluates
    f(x)/prod(x_j for j in denom_axes), multiplying in denom_axes order.
    Every ladder is built before the first evaluation, so an unusable
    schedule raises DomainError up front.
    """
    d = oracle.domain.dim
    integer = oracle.domain.integer
    ladders = {axis: [float(x) for x in schedule.tail_values(axis, integer=integer)]
               for axis in axes}
    sweeps: list[list[_TailEstimate]] = [[] for _ in axes]

    def estimate(assigned: Mapping[int, float], depth: int = 0) -> _TailEstimate:
        axis = axes[depth]

        def g(x: float) -> float:
            here = {**assigned, axis: x}
            if depth + 1 < len(axes):
                return estimate(here, depth + 1).value
            point = tuple(here[i] for i in range(d))
            denominator = math.prod(here[j] for j in denom_axes)
            if not math.isfinite(denominator):  # a cheap test first: this runs per point
                _require_finite(point, denominator)
            return oracle.evaluate(point) / denominator

        est = _adaptive_tail(g, ladders[axis], tol=_level_tol(delta, depth))
        sweeps[depth].append(est)
        return est

    return estimate, sweeps


def iterated_limit(oracle: FunctionOracle, order: Sequence[int],
                   schedule: GridSchedule | None = None, delta: float = 0.01) -> IteratedLimit:
    """Nested one-variable limits of f(x)/prod(x) in the given axis order.

    order[0] is the outermost limit variable and order[-1] the
    innermost.  Each level runs the adaptive 1-D estimator; inner sweeps
    extend their ladder until the tail stabilizes, because a fixed inner
    depth leaks outer-coordinate scale into the inner estimate.  Inner
    divergence propagates as +-inf values, not as an error.  Level
    tolerances halve with depth so the compounded error stays near
    delta; the result carries the worst level status.
    """
    _require_delta(delta)
    _require_main_orthant(oracle)
    d = oracle.domain.dim
    if sorted(order) != list(range(d)):
        raise DomainError(f"order {order!r} is not a permutation of the {d} axes")
    estimate, sweeps = _nested_tails(oracle, tuple(order), range(d),
                                     _schedule(schedule, d), delta)
    top = estimate({})
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

def _path_schedule(schedule: GridSchedule | None, kind: str) -> GridSchedule:
    schedule = schedule or default_schedule(1)
    if schedule.dim != 1:
        raise DomainError(f"{kind} limits use a one-dimensional parameter schedule")
    return schedule


def _path_points(ts: Sequence[float],
                 path: Callable[[float], Sequence[float]]) -> np.ndarray:
    """path(t) for every t, one point per row; an overflow makes the schedule unusable."""
    try:
        return np.array([path(t) for t in ts], dtype=float)
    except OverflowError as exc:
        raise ScheduleError(f"a path point overflows: {exc}") from exc


def diagonal_limit(oracle: FunctionOracle, paths: Sequence[Callable[[float], float]],
                   schedule: GridSchedule | None = None, delta: float = 0.01) -> LimitBracket:
    """Bracket the limit along a parametrized path x(t) with every axis diverging.

    Any such path is a subnet of the product-order net, so for a
    componentwise subadditive oracle the path limit equals the
    simultaneous one and its sampled infimum already equals the global
    infimum on identity-style integer diagonals.
    """
    _require_delta(delta)
    _require_main_orthant(oracle)
    d = oracle.domain.dim
    if len(paths) != d:
        raise DimensionMismatchError(f"{len(paths)} paths for {d} axes")
    schedule = _path_schedule(schedule, "diagonal")
    ts = schedule.axis_values(0)
    coords = _path_points(ts, lambda t: [p(t) for p in paths])

    first, last = coords[0].tolist(), coords[-1].tolist()
    escape = schedule.growth ** (schedule.levels / 2)
    for i in range(d):
        if not last[i] > first[i] * escape:
            raise DomainError(
                f"path {i} does not diverge over the sampled range "
                f"({first[i]!r} -> {last[i]!r}); need growth beyond factor {escape!r}"
            )

    if oracle.domain.integer:
        coords = np.round(coords)  # half to even, as round(); inf stays inf
    with np.errstate(over="ignore"):  # _bracket refuses an overflow
        scales = math.prod(coords.T)
    return _bracket(oracle, coords, scales, np.array(ts).reshape(-1, 1), delta)


# ---------------------------------------------------------------------------
# The step-decomposition upper bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionTerm:
    bits: tuple[int, ...]
    coefficient: int
    point: tuple[float, ...]
    value: float

    @property
    def contribution(self) -> float:
        return self.coefficient * self.value


@dataclass(frozen=True)
class DecompositionBound:
    x: tuple[float, ...]
    t: tuple[float, ...]
    lhs: float
    rhs: float
    holds: bool
    terms: tuple[DecompositionTerm, ...]

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.x), "t": list(self.t),
            "lhs": self.lhs, "rhs": self.rhs, "holds": self.holds,
            "terms": [
                {"bits": list(term.bits), "coefficient": term.coefficient,
                 "point": list(term.point), "value": term.value}
                for term in self.terms
            ],
        }


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
    px, pt = as_point(x), as_point(t)
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
    terms = [DecompositionTerm(bits=w, point=point, value=value,
                               coefficient=math.prod(decomp[i].q for i in range(d) if w[i]))
             for w, point, value in zip(words, points, values)]
    rhs = ext_sum(term.contribution for term in terms)
    holds = lhs <= rhs + violation_tolerance(lhs, rhs)
    return DecompositionBound(x=tuple(px), t=tuple(pt), lhs=lhs, rhs=rhs,
                              holds=holds, terms=tuple(terms))


# ---------------------------------------------------------------------------
# Limits on general orthants
# ---------------------------------------------------------------------------

def orthant_limit(oracle: FunctionOracle, orthant: Orthant | None = None,
                  schedule: GridSchedule | None = None, delta: float = 0.01) -> LimitBracket:
    """Bracket the ratio-net limit on an arbitrary orthant via reflection.

    Reflecting the orthant onto the main one preserves componentwise
    subadditivity.  With evenly many reversed axes the coordinate
    product is unchanged and the limit is the infimum (inf-sense upper
    bracket); with oddly many the product flips sign, the limit is the
    supremum, and the bracket flips to a sup-sense lower bound.
    """
    w = orthant or oracle.domain.orthant
    if w is None:
        raise DomainError("specify the orthant to estimate on (oracle is defined everywhere)")
    d = oracle.domain.dim
    if w.dim != d:
        raise DimensionMismatchError(f"orthant word of length {w.dim} vs oracle {d}")

    _require_delta(delta)
    signs = np.array([w.sign(i) for i in range(d)])
    points, scales, corners = _grid(_schedule(schedule, d), oracle.domain.integer)
    base = _bracket(oracle, points * signs, scales, corners * signs, delta)
    if w.parity == 0:
        return base
    assert base.best_upper is not None
    return replace(base, sense="sup", best_upper=None, best_lower=-base.best_upper,
                   tail_estimate=-base.tail_estimate,
                   status={DIVERGING_MINUS: DIVERGING_PLUS}.get(base.status, base.status),
                   ratios=-base.ratios)


def ray_limit(oracle: FunctionOracle, direction: Point | Sequence[float],
              schedule: GridSchedule | None = None, delta: float = 0.01) -> LimitBracket:
    """One-dimensional bracket for f(t * direction)/t as t grows.

    For a jointly subadditive f the restriction g(t) = f(t * direction)
    is subadditive in t, so g(t)/t converges to its infimum and the
    usual bracket semantics apply along the ray.
    """
    _require_delta(delta)
    dirp = as_point(direction)
    if dirp.dim != oracle.domain.dim:
        raise DimensionMismatchError(
            f"direction of dimension {dirp.dim} vs oracle {oracle.domain.dim}")
    if all(c == 0 for c in dirp):
        raise DomainError("direction must be nonzero")
    ts = _path_schedule(schedule, "ray").axis_values(0)
    return _bracket(oracle, _path_points(ts, lambda t: [t * c for c in dirp]), ts,
                    np.array(ts).reshape(-1, 1), delta)


# ---------------------------------------------------------------------------
# Inner-limit profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InnerLimitProfile:
    """Sampled values of h(x_i) = nested limit over the chosen axes of f/prod(limit coords).

    When the oracle is componentwise subadditive, h inherits
    subadditivity in the probe variable, which check_subadditivity
    probes directly on the sampled grid.
    """

    oracle: str
    probe_axis: int
    limit_axes: tuple[int, ...]
    fixed: tuple[tuple[int, float], ...]
    entries: tuple[tuple[float, float, str], ...]  # (probe value, h, status)

    def check_subadditivity(self) -> ViolationReport:
        from .checks import Violation, ViolationReport
        table = {v: h for v, h, status in self.entries if status == CONVERGED}
        violations: list[Violation] = []
        checked = 0
        values = sorted(table)
        for a in values:
            for b in values:
                s = a + b
                if s not in table:
                    continue
                checked += 1
                lhs, rhs = table[s], table[a] + table[b]
                if lhs > rhs + violation_tolerance(lhs, rhs):
                    violations.append(Violation(kind="joint", axis=None,
                                                witness=((a,), (b,)), lhs=lhs, rhs=rhs))
        return ViolationReport(kind="joint", oracle=f"{self.oracle}_inner_profile",
                               violations=tuple(violations), samples_checked=checked,
                               metadata={"probe_axis": self.probe_axis,
                                         "limit_axes": list(self.limit_axes)})


def inner_limit_profile(oracle: FunctionOracle, fixed: Mapping[int, float],
                        limit_axes: Sequence[int], probe_axis: int,
                        probe_values: Sequence[float], delta: float = 0.01, *,
                        schedule: GridSchedule | None = None) -> InnerLimitProfile:
    """Estimate h at each probe value by nested limits over the chosen axes.

    The denominator carries only the limit-axis coordinates, so the probe
    variable keeps the scale of f itself.  Axes must partition: fixed
    keys + limit axes + the probe axis cover every axis exactly once.
    Divergence at a probe point is flagged per entry, not raised.
    """
    _require_delta(delta)
    d = oracle.domain.dim
    claimed = sorted([probe_axis, *limit_axes, *fixed])
    if claimed != list(range(d)):
        raise DomainError(
            f"axes do not partition 0..{d - 1}: probe={probe_axis}, "
            f"limits={list(limit_axes)}, fixed={sorted(fixed)}")
    if not limit_axes:
        raise DomainError("need at least one limit axis")
    estimate, _ = _nested_tails(oracle, tuple(limit_axes), tuple(limit_axes),
                                _schedule(schedule, d), delta)
    entries: list[tuple[float, float, str]] = []
    for v in probe_values:
        est = estimate({**fixed, probe_axis: float(v)})
        entries.append((float(v), est.value, est.status))
    return InnerLimitProfile(oracle=oracle.name, probe_axis=probe_axis,
                             limit_axes=tuple(limit_axes),
                             fixed=tuple(sorted(fixed.items())),
                             entries=tuple(entries))
