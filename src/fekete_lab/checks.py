"""Sampling-based refutation of subadditivity properties.

A check runs in three steps.  It screens: the whole budget of witness
candidates (a small probe lattice, then the deterministic sample stream)
is drawn as arrays, masked to the domain, and the inequality it guards
is evaluated in one batch per term.  It selects: every hit is counted,
every probe hit is kept as given, and of the distinct random hits only
the TOP_K with the largest margin lhs - rhs are kept.  Then it shrinks:
the kept random hits are halved toward the small-coordinate corner in
lockstep, each while its violation persists, which keeps regression
fixtures readable.  A report therefore lists the strongest few
witnesses, as a property-based tester reports one shrunk counterexample
rather than every failing input, and counts the rest.  Sampling can only
refute, never prove: an empty report means "no violation found at this
budget", nothing stronger.

Every reported violation satisfies lhs > rhs + tau with the relative
tolerance tau below, so float rounding noise is never reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .domain import REL_TOL, DomainError, EvaluationError, ext_add, violation_tolerance
from .registry import Domain, FiniteSetFunction, FunctionOracle
from .sampling import SampleBudget, integer_in, uniform_in

__all__ = [
    "REL_TOL",
    "TOP_K",
    "violation_tolerance",
    "Violation",
    "ViolationReport",
    "check_joint",
    "check_componentwise",
    "check_four_term",
    "check_monoid_sign",
    "check_set_union",
    "check_shifted_subadditivity",
]

# random hits kept, shrunk and listed per screened inequality (per axis
# for the componentwise check); every hit is still counted
TOP_K = 20

_DEFAULT_POSITIVE_RANGE = (0.1, 100.0)
_DEFAULT_INTEGER_RANGE = (1.0, 100.0)
# stop halving shrunken witnesses at the default range floor: smaller
# coordinates stop being representative of the sampled domain
_SHRINK_FLOOR = _DEFAULT_POSITIVE_RANGE[0]
_MAX_SHRINK_STEPS = 80


@dataclass(frozen=True)
class Violation:
    kind: str            # joint | componentwise | four_term | monoid | set_union
    axis: int | None
    witness: tuple[tuple, ...]
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "axis": self.axis,
            "witness": [list(w) for w in self.witness],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class ViolationReport:
    """The violations a check lists, strongest first, and how many it found.

    hit_count counts every violating candidate, repeats included, and
    violation_count the distinct violating pairs; a sampling check lists
    only a subset of them (see the module docstring).  Both default to
    the number listed, which is everything an exhaustive check found.
    """

    kind: str
    oracle: str
    violations: tuple[Violation, ...]
    samples_checked: int
    metadata: dict = field(default_factory=dict)
    violation_count: int | None = None
    hit_count: int | None = None

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.violations), key=lambda v: (
            -v.margin, v.witness, -1 if v.axis is None else v.axis)))
        object.__setattr__(self, "violations", ordered)
        for name in ("violation_count", "hit_count"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, len(ordered))

    @property
    def clean(self) -> bool:
        return not self.violations

    def find(self, witness: tuple[tuple, ...]) -> Violation | None:
        for v in self.violations:
            if v.witness == witness:
                return v
        return None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "oracle": self.oracle,
            "samples_checked": self.samples_checked,
            "violation_count": self.violation_count,
            "hit_count": self.hit_count,
            "metadata": self.metadata,
            "violations": [v.to_record() for v in self.violations],
        }

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["kind", "axis", "witness", "lhs", "rhs", "margin"]]
        for v in self.violations:
            witness = "|".join(",".join(repr(c) for c in w) for w in v.witness)
            axis = "" if v.axis is None else str(v.axis)
            rows.append([v.kind, axis, witness, repr(v.lhs), repr(v.rhs), repr(v.margin)])
        return rows


# ---------------------------------------------------------------------------
# The candidate stream and the screen-then-shrink engine
# ---------------------------------------------------------------------------

def _axis_range(domain: Domain, axis: int, budget: SampleBudget) -> tuple[float, float]:
    if budget.ranges is not None:
        if len(budget.ranges) != domain.dim:
            raise DomainError("budget must give one range per axis")
        return budget.ranges[axis]
    lo, hi = _DEFAULT_INTEGER_RANGE if domain.integer else _DEFAULT_POSITIVE_RANGE
    if domain.orthant is None:
        return (-hi, hi)
    if domain.orthant.bits[axis] == 1:
        return (-hi, -lo)
    return (lo, hi)


def _sample(domain: Domain, budget: SampleBudget, counters: np.ndarray) -> np.ndarray:
    """Points of the stream, one per row: coordinate i of row k drawn at counters[k] + i."""
    points = np.empty((len(counters), domain.dim))
    for i in range(domain.dim):
        at = counters + np.uint64(i)
        if domain.grid_axes is not None:
            # tabulated domains: draw grid coordinates, not floats that would
            # land off-grid with probability one
            grid = np.asarray(domain.grid_axes[i])
            points[:, i] = grid[integer_in(budget.seed, at, 0, len(grid) - 1)]
            continue
        lo, hi = _axis_range(domain, i, budget)
        if domain.integer:
            points[:, i] = integer_in(budget.seed, at, math.ceil(lo), math.floor(hi))
        else:
            points[:, i] = uniform_in(budget.seed, at, lo, hi)
    return points


def _probe_points(domain: Domain) -> np.ndarray:
    """Small deterministic lattice of in-domain points, one per row.

    These catch the textbook violations at readable witnesses (unit-ish
    coordinates) before any random sampling runs.
    """
    if domain.grid_axes is not None:
        small = math.prod(map(len, domain.grid_axes)) <= 64
        grid = list(itertools.product(*domain.grid_axes)) if small else []
        return np.array(grid, dtype=float).reshape(-1, domain.dim)
    per_axis: list[list[float]] = []
    for i in range(domain.dim):
        if domain.orthant is None:
            per_axis.append([-2.0, -1.0, 1.0, 2.0, 3.0])
        else:
            s = -1.0 if domain.orthant.bits[i] == 1 else 1.0
            per_axis.append([s * 1.0, s * 2.0, s * 3.0])
    return np.array(list(itertools.product(*per_axis)), dtype=float)


def _ext_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ext_add: inf + (-inf) raises instead of making NaN."""
    clash = np.isinf(a) & (a == -b)
    if clash.any():
        j = int(np.argmax(clash))
        ext_add(float(a[j]), float(b[j]))  # raises IndeterminateFormError
    return a + b


def _exceeds(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elementwise lhs > rhs + violation_tolerance(lhs, rhs)."""
    tol = np.where(np.isinf(lhs) | np.isinf(rhs), 0.0,
                   REL_TOL * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs))))
    return lhs > rhs + tol


def _evaluator(oracle: FunctionOracle, kind: str) -> Callable[[np.ndarray], np.ndarray]:
    """f on points given one per row, through the oracle's batch entry point."""
    def f(points: np.ndarray) -> np.ndarray:
        try:
            return oracle.evaluate_points(list(points.T))
        except (DomainError, EvaluationError) as exc:
            raise EvaluationError(f"{kind} check of {oracle.name!r}: {exc}") from exc
    return f


def _sum_point(pairs: np.ndarray, axis: int | None) -> np.ndarray:
    """The point a pair inequality evaluates on its left, for pairs (x, y) one
    per row: x + y, or with axis given, x moved by y along that axis alone."""
    d = pairs.shape[1] // 2
    x, y = pairs[:, :d], pairs[:, d:]
    if axis is None:
        return x + y
    z = x.copy()
    z[:, axis] += y[:, axis]
    return z


def _violations(kind: str, axis: int | None, x: np.ndarray, y: np.ndarray,
                lhs: np.ndarray, rhs: np.ndarray) -> list[Violation]:
    """One Violation per row, holding Python floats (their repr is the output format)."""
    return [Violation(kind=kind, axis=axis, witness=(tuple(a), tuple(b)), lhs=l, rhs=r)
            for a, b, l, r in zip(x.tolist(), y.tolist(), lhs.tolist(), rhs.tolist())]


# One screened inequality: the violations it keeps, then the counts of
# candidates checked, of hits and of distinct hits.
_Found = tuple[list[Violation], int, int, int]


def _strongest(hits: np.ndarray, margin: np.ndarray,
               probe: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Select the hits to list from hits, one witness per row in stream order.

    Keeps the first of each distinct row: every probe row, then of the
    others the TOP_K with the largest margin, ties going to the earlier
    row.  Returns the kept row indices, probe rows first, how many of
    them are probe rows, and the number of distinct rows.
    """
    _, first = np.unique(hits, axis=0, return_index=True)
    first.sort()
    probed, drawn = first[probe[first]], first[~probe[first]]
    drawn = drawn[np.lexsort((drawn, -margin[drawn]))[:TOP_K]]
    return np.concatenate([probed, drawn]), len(probed), len(first)


def _refute_pairs(oracle: FunctionOracle, budget: SampleBudget, kind: str,
                  inequality: Callable[..., tuple[np.ndarray, np.ndarray]],
                  axis: int | None = None) -> _Found:
    """Screen every candidate pair in one batch, then shrink the strongest random hits.

    inequality(f, x, y, z) -> (lhs, rhs) states lhs <= rhs for pairs given one
    per row, z being their sum point (_sum_point): the one point the
    inequality evaluates besides x and y.  Candidates are the probe-lattice
    pairs, then budget pair j (x at counters 2dj.., y at the next d); each
    needs its sum point in the domain, and with axis given, also y once
    restricted to the axis line through x.  Every hit is counted.  Probe
    hits are kept as given; of the distinct random hits only the TOP_K with
    the largest screen margin are kept (_strongest), and only those are
    shrunk, in lockstep.  Each is halved toward the origin, as if alone,
    until a fixed point, a coordinate below _SHRINK_FLOOR, a step that takes
    x, y or the sum point out of the domain, a step without violation, or
    _MAX_SHRINK_STEPS.  Returns the kept violations, the number of pairs
    checked, of hits and of distinct hits.
    """
    domain, d = oracle.domain, oracle.domain.dim

    def inside(rows: np.ndarray) -> np.ndarray:
        return domain._member_mask(rows.T)

    f = _evaluator(oracle, kind)
    probes = _probe_points(domain)
    m = len(probes)
    counters = np.arange(budget.count, dtype=np.uint64) * np.uint64(2 * d)
    pairs = np.vstack([np.hstack([np.repeat(probes, m, axis=0), np.tile(probes, (m, 1))]),
                       np.hstack([_sample(domain, budget, counters),
                                  _sample(domain, budget, counters + np.uint64(d))])])
    probe = np.arange(len(pairs)) < m * m
    sums = _sum_point(pairs, axis)
    keep = inside(sums)
    if axis is not None:  # y moves to the axis line through x
        pairs[:, d:] = np.where(np.arange(d) == axis, pairs[:, d:], pairs[:, :d])
        keep &= inside(pairs[:, d:])
    pairs, sums, probe = pairs[keep], sums[keep], probe[keep]
    lhs, rhs = inequality(f, pairs[:, :d], pairs[:, d:], sums)
    hit = _exceeds(lhs, rhs)
    listed, probed, distinct = _strongest(pairs[hit], lhs[hit] - rhs[hit], probe[hit])
    pairs, lhs, rhs = pairs[hit][listed], lhs[hit][listed], rhs[hit][listed]
    rows = np.arange(probed, len(listed))
    for _ in range(_MAX_SHRINK_STEPS):
        old = pairs[rows]
        new = (np.copysign(np.maximum(1.0, np.floor(np.abs(old) / 2)), old)
               if domain.integer else old / 2.0)
        sums = _sum_point(new, axis)
        go = ((new != old).any(axis=1) & (np.abs(new) >= _SHRINK_FLOOR).all(axis=1)
              & inside(sums) & inside(new[:, :d]) & inside(new[:, d:]))
        rows, new, sums = rows[go], new[go], sums[go]
        if not rows.size:
            break
        new_lhs, new_rhs = inequality(f, new[:, :d], new[:, d:], sums)
        still = _exceeds(new_lhs, new_rhs)
        rows = rows[still]
        pairs[rows], lhs[rows], rhs[rows] = new[still], new_lhs[still], new_rhs[still]
    return (_violations(kind, axis, pairs[:, :d], pairs[:, d:], lhs, rhs),
            int(keep.sum()), int(hit.sum()), distinct)


def _report(kind: str, oracle: FunctionOracle, runs: list[_Found],
            budget: SampleBudget) -> ViolationReport:
    violations, checked, hits, distinct = zip(*runs)
    return ViolationReport(kind=kind, oracle=oracle.name,
                           violations=tuple(itertools.chain.from_iterable(violations)),
                           samples_checked=sum(checked), violation_count=sum(distinct),
                           hit_count=sum(hits),
                           metadata={"seed": budget.seed, "count": budget.count})


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def _joint(f, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(z) <= f(x) + f(y): z is x + y in the joint check, x + y_i e_i on axis i."""
    return f(z), _ext_add(f(x), f(y))


def check_joint(oracle: FunctionOracle, budget: SampleBudget | None = None) -> ViolationReport:
    """Refute f(x+y) <= f(x) + f(y) over sampled in-domain pairs."""
    budget = budget or SampleBudget()
    return _report("joint", oracle, [_refute_pairs(oracle, budget, "joint", _joint)], budget)


def check_componentwise(oracle: FunctionOracle,
                        budget: SampleBudget | None = None) -> ViolationReport:
    """Refute per-axis subadditivity: f(.., x_i + y_i, ..) <= f(x) + f(x_i -> y_i).

    The witness pair is the base point and the base point with axis i
    replaced, so both evaluations sit on the same axis-i line.
    """
    budget = budget or SampleBudget()
    return _report("componentwise", oracle,
                   [_refute_pairs(oracle, budget, "componentwise", _joint, axis)
                    for axis in range(oracle.domain.dim)], budget)


def check_four_term(oracle: FunctionOracle,
                    budget: SampleBudget | None = None) -> ViolationReport:
    """Refute the 2^d-term mixed bound f(x+y) <= sum over sign words of f(mix).

    For d = 2 this is the classical four-term inequality; the mixed
    point takes x_i on axes where the word bit is 0 and y_i where it
    is 1.  Componentwise subadditivity implies this bound, and for
    nonnegative f it is weaker than joint subadditivity.
    """
    budget = budget or SampleBudget()
    d = oracle.domain.dim

    def four_term(f, x: np.ndarray, y: np.ndarray,
                  z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lhs = f(z)
        rhs = np.zeros(len(lhs))  # summed left to right from 0.0, as ext_sum does
        for bits in itertools.product((False, True), repeat=d):
            rhs = _ext_add(rhs, f(np.where(bits, y, x)))
        return lhs, rhs

    return _report("four_term", oracle,
                   [_refute_pairs(oracle, budget, "four_term", four_term)], budget)


def check_monoid_sign(oracle: FunctionOracle,
                      budget: SampleBudget | None = None) -> ViolationReport:
    """Check the sign consequences of subadditivity on a monoid/group.

    Subadditive f must have f(0) >= 0, and on a group f(x) + f(-x) >= 0.
    Violations are recorded with lhs = 0 so that margin = -f(...) stays
    positive, matching the other report kinds.  Only meaningful for
    oracles that already look jointly subadditive.  x runs over the probe
    lattice, then over the stream, sample j drawn at counters dj..dj+d-1;
    the hits are selected as in the pair checks, and none is shrunk.
    """
    budget = budget or SampleBudget()
    domain = oracle.domain
    if domain.orthant is not None or domain.grid_axes is not None:
        raise DomainError("monoid check needs an oracle on the whole of R^d or Z^d")

    zero = (0.0,) * domain.dim
    f0 = oracle.evaluate(zero)
    at_zero = ([Violation(kind="monoid", axis=None, witness=(zero,), lhs=0.0, rhs=f0)]
               if 0.0 > f0 + violation_tolerance(0.0, f0) else [])

    probes = _probe_points(domain)
    counters = np.arange(budget.count, dtype=np.uint64) * np.uint64(domain.dim)
    x = np.vstack([probes, _sample(domain, budget, counters)])
    f = _evaluator(oracle, "monoid")
    rhs = _ext_add(f(x), f(-x))
    hit = _exceeds(np.zeros_like(rhs), rhs)
    listed, _, distinct = _strongest(x[hit], -rhs[hit], (np.arange(len(x)) < len(probes))[hit])
    kept, kept_rhs = x[hit][listed], rhs[hit][listed]
    found = _violations("monoid", None, kept, -kept, np.zeros(len(kept)), kept_rhs)
    return _report("monoid", oracle, [(at_zero, 1, len(at_zero), len(at_zero)),
                                      (found, len(rhs), int(hit.sum()), distinct)], budget)


def check_set_union(g: FiniteSetFunction,
                    family: Sequence[Iterable[int]]) -> ViolationReport:
    """Refute g(A u B) <= g(A) + g(B) over all pairs from the family."""
    sets = [frozenset(int(n) for n in s) for s in family]
    if not sets:
        raise DomainError("set family must be nonempty")
    violations: list[Violation] = []
    checked = 0
    for i, a in enumerate(sets):
        for b in sets[i:]:
            checked += 1
            lhs = g.evaluate(a | b)
            rhs = ext_add(g.evaluate(a), g.evaluate(b))
            if lhs > rhs + violation_tolerance(lhs, rhs):
                witness = (tuple(sorted(a)), tuple(sorted(b)))
                violations.append(Violation(kind="set_union", axis=None,
                                            witness=witness, lhs=lhs, rhs=rhs))
    return ViolationReport(kind="set_union", oracle=g.name,
                           violations=tuple(violations), samples_checked=checked)


def check_shifted_subadditivity(oracle: FunctionOracle, shift: int,
                                budget: SampleBudget | None = None) -> ViolationReport:
    """Run the joint check on the translate h(n) = f(n + shift).

    Translation does not preserve subadditivity in general, so a clean
    report for f says nothing about its shifts.
    """
    if oracle.domain.dim != 1 or not oracle.domain.integer or oracle.domain.orthant is not None:
        raise DomainError("shifted check needs a one-dimensional oracle on all of Z")
    shifted = FunctionOracle(
        name=f"{oracle.name}_shifted_by_{shift}",
        domain=oracle.domain,
        array_fn=lambda n: oracle.evaluate_points([n + shift]),
    )
    report = check_joint(shifted, budget)
    return replace(report, metadata={**report.metadata, "shift": shift})
