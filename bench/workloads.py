"""Workload job lists, generated inputs and output verifiers for the benchmark.

A job is one `fekete-lab` CLI invocation.  Every verifier reads the files
the job wrote and returns a list of problems (empty when the outputs are
correct).  Reference values come from closed forms, plain `math`
re-evaluation, or the transfer counters in this file, never from the
package under test, and only properties that any faithful
implementation must keep are checked: no exact violation counts.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXIT_OK = 0
EXIT_VIOLATIONS = 3

INPUT_DIR = "inputs"
COLOUR3_SPEC = f"{INPUT_DIR}/colour3_2d.json"
HARD_CUBE_SPEC = f"{INPUT_DIR}/hard_cube_3d.json"

LIMIT_STATUSES = ("converged", "diverging_to_minus_infinity",
                  "diverging_to_plus_infinity", "inconclusive")


@dataclass(frozen=True)
class Job:
    """One CLI run: arguments (without --out/--seed/--no-timestamp) and its checks."""

    name: str
    argv: tuple[str, ...]
    expect_exit: int
    verify: Callable[[Path], list[str]]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _read_json(out: Path, name: str) -> dict:
    """Parse one output file; a missing or malformed file raises ValueError."""
    try:
        return json.loads((out / name).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{name}: unreadable ({exc})") from exc


def _guard(check: Callable[[Path], list[str]]) -> Callable[[Path], list[str]]:
    """Turn any parse or shape error inside a verifier into a reported problem."""
    def verify(out: Path) -> list[str]:
        try:
            return check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
    verify.__name__ = check.__name__
    return verify


def _as_float(value) -> float:
    """JSON floats, with the package's "+inf"/"-inf" string encoding."""
    if value == "+inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def _clean(report: dict, label: str) -> list[str]:
    if report["violation_count"] != 0 or report["violations"]:
        return [f"{label}: expected a clean report, got "
                f"{report['violation_count']} violation(s)"]
    return []


def _strictly_violates(lhs: float, rhs: float) -> bool:
    # the package reports only margins above a relative 2^-26; any real
    # violation re-evaluated here must at least be positive
    return lhs > rhs


# ---------------------------------------------------------------------------
# refute: subadditivity checks
# ---------------------------------------------------------------------------

_SQRT_PROBE = [[1.0, 2.0], [2.0, 1.0]]
_SQRT_PROBE_MARGIN = 3.0 - 2.0 * math.sqrt(2.0)


def _sqrt_prod(p) -> float:
    return math.sqrt(p[0] * p[1])


def _neg_x1_sqrt_x2(p) -> float:
    return -p[0] * math.sqrt(p[1])


@_guard
def verify_sqrt_prod_all(out: Path) -> list[str]:
    problems = []
    joint = _read_json(out, "check_joint.json")
    probe = [v for v in joint["violations"] if v["witness"] == _SQRT_PROBE]
    if not probe:
        problems.append("joint: probe witness ((1,2),(2,1)) missing")
    elif abs(probe[0]["margin"] - _SQRT_PROBE_MARGIN) > 1e-12:
        problems.append(f"joint: probe margin {probe[0]['margin']!r} != 3 - 2*sqrt(2)")
    for v in joint["violations"]:
        x, y = v["witness"]
        s = [a + b for a, b in zip(x, y)]
        if not _strictly_violates(_sqrt_prod(s), _sqrt_prod(x) + _sqrt_prod(y)):
            problems.append(f"joint: witness {v['witness']} is not a violation")
            break
    problems += _clean(_read_json(out, "check_componentwise.json"), "componentwise")
    problems += _clean(_read_json(out, "check_four_term.json"), "four_term")
    return problems


@_guard
def verify_neg_componentwise(out: Path) -> list[str]:
    report = _read_json(out, "check_componentwise.json")
    violations = report["violations"]
    if not violations:
        return ["componentwise: no witness listed"]
    for v in violations:
        axis = v["axis"]
        x, y = v["witness"]
        if any(x[i] != y[i] for i in range(len(x)) if i != axis):
            return [f"componentwise: witness {v['witness']} leaves the axis-{axis} line"]
        z = list(x)
        z[axis] = x[axis] + y[axis]
        if not _strictly_violates(_neg_x1_sqrt_x2(z),
                                  _neg_x1_sqrt_x2(x) + _neg_x1_sqrt_x2(y)):
            return [f"componentwise: witness {v['witness']} is not a violation"]
    return []


@_guard
def verify_nmod2_all(out: Path) -> list[str]:
    problems = []
    for kind in ("joint", "componentwise", "four_term", "monoid"):
        problems += _clean(_read_json(out, f"check_{kind}.json"), kind)
    return problems


# ---------------------------------------------------------------------------
# bounds: limits and level sets
# ---------------------------------------------------------------------------

SIMULTANEOUS_LEVELS = 300


@_guard
def verify_simultaneous(out: Path) -> list[str]:
    problems = []
    bracket = _read_json(out, "bracket.json")
    best = _as_float(bracket["best_upper"])
    if bracket["status"] != "converged" or not 0.0 <= best <= 0.01:
        problems.append(f"bracket: status {bracket['status']}, best_upper {best!r}; "
                        "expected converged in [0, 0.01]")
    # the schedule runs levels k = 0..levels inclusive on each of 2 axes
    with (out / "bracket.csv").open(newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    expected = (SIMULTANEOUS_LEVELS + 1) ** 2
    if rows != expected:
        problems.append(f"bracket.csv: {rows} data rows, expected {expected}")
    if not (out / "bracket.svg").is_file():
        problems.append("bracket.svg missing")
    return problems


@_guard
def verify_iterated_plus_inf(out: Path) -> list[str]:
    result = _read_json(out, "iterated.json")
    if _as_float(result["value"]) != math.inf or result["status"] != "diverging_to_plus_infinity":
        return [f"iterated 2,1: value {result['value']!r}, status {result['status']}; "
                "expected +inf, diverging_to_plus_infinity"]
    return []


@_guard
def verify_iterated_zero(out: Path) -> list[str]:
    result = _read_json(out, "iterated.json")
    value = _as_float(result["value"])
    if result["status"] != "converged" or not abs(value) <= 0.01:
        return [f"iterated 1,2: value {value!r}, status {result['status']}; "
                "expected converged within 0.01 of 0"]
    return []


@_guard
def verify_ray(out: Path) -> list[str]:
    bracket = _read_json(out, "ray.json")
    best = _as_float(bracket["best_upper"])
    if bracket["status"] != "converged" or not abs(best - 1.0) <= 0.01:
        return [f"ray 1,1: status {bracket['status']}, best_upper {best!r}; "
                "expected converged within 0.01 of 1"]
    return []


@_guard
def verify_diagonal(out: Path) -> list[str]:
    # sqrt(t * t^2) / t^3 = t^-1.5 decreases to 0 along the path
    bracket = _read_json(out, "diagonal.json")
    best = _as_float(bracket["best_upper"])
    if bracket["status"] not in LIMIT_STATUSES or not 0.0 <= best <= 0.01:
        return [f"diagonal 1,2: status {bracket['status']}, best_upper {best!r}; "
                "expected an upper bound in [0, 0.01]"]
    return []


LEVELSET_ANCHORS = "1,1;2,3;5,7"


@_guard
def verify_levelset(out: Path) -> list[str]:
    rows = _read_json(out, "levelset.json")["rows"]
    expected = len(LEVELSET_ANCHORS.split(";"))
    if len(rows) != expected:
        return [f"levelset: {len(rows)} rows, expected {expected}"]
    failing = [r["anchor"] for r in rows if r["holds"] is not True]
    return [f"levelset: lemma fails at anchors {failing}"] if failing else []


# ---------------------------------------------------------------------------
# bounds: entropy, with independent reference counters
# ---------------------------------------------------------------------------

def golden_mean_counts(max_n: int) -> list[int]:
    """Binary words of length n without 11: fib(n + 2)."""
    fib = [0, 1]
    while len(fib) < max_n + 3:
        fib.append(fib[-1] + fib[-2])
    return [fib[n + 2] for n in range(1, max_n + 1)]


def _row_transfer_count(rows: list[int], compatible: Callable[[int, int], bool],
                        height: int) -> int:
    """Stack `height` rows, each compatible with the one below it."""
    below = [[j for j, a in enumerate(rows) if compatible(a, b)] for b in rows]
    vec = [1] * len(rows)
    for _ in range(height - 1):
        vec = [sum(vec[j] for j in js) for js in below]
    return sum(vec)


def _independent_rows(n: int) -> list[int]:
    return [m for m in range(1 << n) if m & (m >> 1) == 0]


def hard_square_counts(max_n: int) -> list[int]:
    """n x n binary grids without two horizontally or vertically adjacent 1s."""
    return [_row_transfer_count(_independent_rows(n), lambda a, b: a & b == 0, n)
            for n in range(1, max_n + 1)]


def _colour_rows(n: int) -> list[int]:
    """Proper 3-colourings of a path of n cells, packed as 3 one-hot bitmasks."""
    rows = [[c] for c in range(3)]
    for _ in range(n - 1):
        rows = [r + [c] for r in rows for c in range(3) if c != r[-1]]
    return [sum(1 << (3 * i + c) for i, c in enumerate(r)) for r in rows]


def colour3_counts(max_n: int) -> list[int]:
    """Proper 3-colourings of the n x n grid graph (same colour never adjacent)."""
    return [_row_transfer_count(_colour_rows(n), lambda a, b: a & b == 0, n)
            for n in range(1, max_n + 1)]


def _hard_square_layers(n: int) -> list[int]:
    """Independent sets of the n x n grid as n*n-bit masks, row i at bits n*i.."""
    rows = _independent_rows(n)
    layers = [0]
    for i in range(n):
        layers = [layer | (r << (n * i)) for layer in layers for r in rows
                  if i == 0 or (layer >> (n * (i - 1))) & r == 0]
    return layers


def hard_cube_counts(max_n: int) -> list[int]:
    """n x n x n binary cubes without two axis-adjacent 1s, by layer transfer."""
    return [_row_transfer_count(_hard_square_layers(n), lambda a, b: a & b == 0, n)
            for n in range(1, max_n + 1)]


def _verify_entropy(reference: Callable[[int], list[int]], dim: int,
                    max_side: int) -> Callable[[Path], list[str]]:
    def verify_entropy(out: Path) -> list[str]:
        bracket = _read_json(out, "entropy.json")
        problems = []
        if bracket["truncated"] is not False:
            problems.append("entropy: truncated")
        entries = bracket["entries"]
        expected = reference(max_side)
        if len(entries) != max_side:
            problems.append(f"entropy: {len(entries)} entries, expected {max_side}")
        for n, (entry, count) in enumerate(zip(entries, expected), start=1):
            if entry["sides"] != [n] * dim:
                problems.append(f"entropy: entry {n} has sides {entry['sides']}")
            elif int(entry["count"]) != count:
                problems.append(f"entropy: count at side {n} is {entry['count']}, "
                                f"expected {count}")
        mins = [_as_float(e["running_min"]) for e in entries]
        if any(b > a for a, b in zip(mins, mins[1:])):
            problems.append("entropy: running_min increases")
        return problems
    return _guard(verify_entropy)


def _unit_vectors(dim: int) -> list[list[int]]:
    return [[int(i == axis) for i in range(dim)] for axis in range(dim)]


def _adjacent_equal_patterns(dim: int, symbols: list[int], rng: random.Random) -> list[dict]:
    """Forbid two axis-adjacent cells both holding s, for each s in symbols.

    The seed translates each pattern, swaps its two cells and shuffles
    the list: none of that changes the subshift, so the counts stay the
    same while the input file differs from seed to seed.
    """
    patterns = []
    for unit in _unit_vectors(dim):
        for s in symbols:
            shift = [rng.randrange(4) for _ in range(dim)]
            cells = [shift, [a + b for a, b in zip(shift, unit)]]
            rng.shuffle(cells)
            patterns.append({"offsets": cells, "symbols": [s, s]})
    rng.shuffle(patterns)
    return patterns


def make_inputs(workdir: Path, seed: int) -> None:
    """Write the generated subshift specs for the entropy jobs."""
    rng = random.Random(seed)
    specs = {
        COLOUR3_SPEC: {"alphabet": 3, "dim": 2,
                       "forbidden": _adjacent_equal_patterns(2, [0, 1, 2], rng)},
        # which of the two symbols is the hard one is also drawn from the seed
        HARD_CUBE_SPEC: {"alphabet": 2, "dim": 3,
                         "forbidden": _adjacent_equal_patterns(3, [rng.randrange(2)], rng)},
    }
    for rel, spec in specs.items():
        path = workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spec, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _entropy_job(name: str, sft: str, max_side: int, dim: int,
                 reference: Callable[[int], list[int]]) -> Job:
    return Job(name, ("entropy", "--sft", sft, "--max-side", str(max_side)), EXIT_OK,
               _verify_entropy(functools.cache(reference), dim, max_side))


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # dense violation floods (shrinking, multi-MB JSON) against clean screens
    "refute": (
        Job("sqrt_prod_all", ("check", "--fn", "sqrt_prod", "--mode", "all"),
            EXIT_VIOLATIONS, verify_sqrt_prod_all),
        Job("neg_x1_sqrt_x2_componentwise",
            ("check", "--fn", "neg_x1_sqrt_x2", "--mode", "componentwise"),
            EXIT_VIOLATIONS, verify_neg_componentwise),
        Job("nmod2_all", ("check", "--fn", "nmod2", "--mode", "all"),
            EXIT_OK, verify_nmod2_all),
    ),
    # Grid brackets, nested limits, paths and level sets (batch evaluation,
    # bracket assembly, CSV/SVG output, start-up of small jobs), then exact
    # subshift counts in 1, 2 and 3 dimensions over 2 and 3 symbols.  One
    # workload rather than two: on a noisy shared host a single longer run
    # per workload gives steadier medians within the same total time.
    "bounds": (
        Job("simultaneous_300", ("limit", "--fn", "sqrt_prod", "--growth", "1.05",
                                 "--levels", str(SIMULTANEOUS_LEVELS)),
            EXIT_OK, verify_simultaneous),
        Job("iterated_2_1", ("limit", "--fn", "x1sq_sqrt_x2", "--iterated", "2,1"),
            EXIT_OK, verify_iterated_plus_inf),
        Job("iterated_1_2", ("limit", "--fn", "x1sq_sqrt_x2", "--iterated", "1,2"),
            EXIT_OK, verify_iterated_zero),
        Job("ray_1_1", ("limit", "--fn", "sqrt_prod", "--direction", "1,1"),
            EXIT_OK, verify_ray),
        Job("diagonal_1_2", ("limit", "--fn", "sqrt_prod", "--diagonal", "1,2"),
            EXIT_OK, verify_diagonal),
        Job("levelset_mc", ("levelset", "--fn", "sqrt_prod", "--anchors", LEVELSET_ANCHORS,
                            "--method", "mc", "--samples", "200000"),
            EXIT_OK, verify_levelset),
        Job("levelset_grid", ("levelset", "--fn", "sqrt_prod", "--anchors", LEVELSET_ANCHORS),
            EXIT_OK, verify_levelset),
        _entropy_job("hard_square_12", "hard_square_2d", 12, 2, hard_square_counts),
        _entropy_job("golden_mean_144", "golden_mean_1d", 144, 1, golden_mean_counts),
        _entropy_job("colour3_9", COLOUR3_SPEC, 9, 2, colour3_counts),
        _entropy_job("hard_cube_4", HARD_CUBE_SPEC, 4, 3, hard_cube_counts),
    ),
}
