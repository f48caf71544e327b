"""Exact pattern counting for subshifts of finite type and entropy bounds.

Counts are of locally admissible patterns: symbol boxes containing no
translate of a forbidden pattern fully inside the box.  Extendability
to a full configuration is undecidable in general for d >= 2, so the
locally admissible convention is used throughout and recorded in every
entropy bracket; these counts are submultiplicative under splitting any
side, so the limit machinery applies and every ratio log_a(count)/volume
is a true upper bound for the entropy.  entropy_bounds counts with the sweep
below in every dimension; in one dimension its layers, the exact word
counts per window, also bound the window transfer matrix's Perron root
on both sides (Collatz-Wielandt; premise: the matrix is nonnegative and
the counts are exact), so both bounds converge geometrically instead of
as 1/n.  The independent 1-D cross-check, a window dynamic program, is
test code: tests/reference_1d.py.

All counts are exact arbitrary-precision integers.  The counter is a
forward transfer sweep in row-major cell order: one layer maps each
frontier window (the trailing cells future checks can still read) to
the number of admissible prefixes ending in it, and each cell advances
the layer through the forbidden translates it completes.  A window is
coded as one integer, b = max(1, (a-1).bit_length()) bits per symbol
with the newest symbol in the low bits, and every forbidden translate
is compiled into a (mask, value) test on that code.  Cells where the
same translates fit share one kind (an n x n nearest-neighbour box has
4), compiled once.  Each kind memoizes its admissible symbols by the
digits its tests read, so a window costs one AND and one lookup, plus
one shift-or-mask per new window.  Only the current layer is held, so
memory grows with the number of windows, far below the raw a^cells
search space, and not with the cell count.

The sweep yields its layer after each full row, and the mirror meet
uses that to sweep only a = ceil((n+1)/2) of the n rows along axis 0
(the structure of Calkin and Wilf 1998).  Its four premises are checked
exactly on each box: n >= 3; every pattern that fits the box has
extent(0) <= 2; the fitting patterns, normalised by translation, form a
set closed under x0 -> -x0; and the frontier span is at least one row.
Then the count is sum over last rows r of L_a[r] * L_(n+1-a)[r], where
L_k[r] counts the admissible k-row boxes whose last row is r.  When a
premise fails, the sweep runs to the last row.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from .domain import (ConfigError, DomainError, _Record, _json_file, _json_int, _json_list,
                     _json_object)

# checks (the submultiplicativity report) is imported where it is used, so
# entropy_bounds does not load it
if TYPE_CHECKING:
    from .checks import ViolationReport

__all__ = [
    "CapExceededError",
    "ForbiddenPattern",
    "SftSpec",
    "count_patterns",
    "EntropyEntry",
    "EntropyBracket",
    "entropy_bounds",
    "check_count_submultiplicativity",
    "builtin_sft",
    "builtin_sft_names",
    "load_sft_spec",
]

CELL_CAP_BITS = 144.0  # cells * log2(a) <= this (12x12 at two symbols)
STATE_CAP_BITS = 48.0  # (frontier window + 1) * log2(a) <= this: the pairs of a
                       # window and a new symbol one cell's step may visit


# One kind of sweep cell: per symbol, the (mask, value) tests that symbol
# must fail there, and read, the OR of all their masks
_Kind = tuple[tuple[tuple[tuple[int, int], ...], ...], int]


class CapExceededError(ConfigError):
    """The requested box exceeds the configured enumeration work caps."""


class ForbiddenPattern(_Record):
    """A finite partial symbol assignment whose translates are forbidden."""

    offsets: tuple[tuple[int, ...], ...]
    symbols: tuple[int, ...]

    def __init__(self, offsets: tuple[tuple[int, ...], ...], symbols: tuple[int, ...]) -> None:
        offsets = tuple(tuple(int(c) for c in off) for off in offsets)
        symbols = tuple(int(s) for s in symbols)
        if not offsets:
            raise DomainError("a forbidden pattern needs at least one cell")
        if len(offsets) != len(symbols):
            raise DomainError("one symbol per offset required")
        if len(set(offsets)) != len(offsets):
            raise DomainError("duplicate offsets in forbidden pattern")
        if len({len(off) for off in offsets}) != 1:
            raise DomainError("offsets of mixed dimension")
        super().__init__(offsets, symbols)

    @property
    def dim(self) -> int:
        return len(self.offsets[0])

    def extent(self, axis: int) -> int:
        lo = min(off[axis] for off in self.offsets)
        hi = max(off[axis] for off in self.offsets)
        return hi - lo + 1


class SftSpec(_Record):
    """Alphabet size, dimension, and finite forbidden-pattern list."""

    alphabet: int
    dim: int
    forbidden: tuple[ForbiddenPattern, ...]

    def __init__(self, alphabet: int, dim: int,
                 forbidden: tuple[ForbiddenPattern, ...] = ()) -> None:
        if alphabet < 2:
            raise DomainError(f"alphabet size must be >= 2, got {alphabet!r}")
        if dim < 1:
            raise DomainError(f"dimension must be >= 1, got {dim!r}")
        forbidden = tuple(forbidden)
        for pat in forbidden:
            if pat.dim != dim:
                raise DomainError(f"pattern of dimension {pat.dim} in a {dim}-d subshift")
            if any(not 0 <= s < alphabet for s in pat.symbols):
                raise DomainError("pattern symbol outside the alphabet")
        super().__init__(alphabet, dim, forbidden)


def _validate_sides(sft: SftSpec, sides: Sequence[int]) -> tuple[int, ...]:
    sides = tuple(int(n) for n in sides)
    if len(sides) != sft.dim:
        raise DomainError(f"{len(sides)} sides for a {sft.dim}-dimensional subshift")
    if any(n < 1 for n in sides):
        raise DomainError(f"sides must be >= 1, got {sides!r}")
    return sides


def _check_caps(sft: SftSpec, cells: int, span: int) -> None:
    """Refuse a box of cells past the cell cap, or a frontier span past the state cap."""
    log2a = math.log2(sft.alphabet)
    if cells * log2a > CELL_CAP_BITS:
        raise CapExceededError(
            f"box of {cells} cells over {sft.alphabet} symbols exceeds the "
            f"{CELL_CAP_BITS}-bit cell cap")
    if (span + 1) * log2a > STATE_CAP_BITS:
        raise CapExceededError(
            f"frontier window of {span} cells and a new cell over {sft.alphabet} symbols "
            f"exceed the {STATE_CAP_BITS}-bit state cap")


def _placements(sft: SftSpec, sides: tuple[int, ...],
                ) -> tuple[list[_Kind], list[int], int, int]:
    """The incremental checks of the row-major sweep, compiled once per kind of cell.

    A frontier window is coded as one integer of b-bit digits, b =
    max(1, (a-1).bit_length()), the newest symbol in the low digit.  A
    forbidden translate whose row-major-last cell is k and which fits
    fully inside the box reads the cells k - j for a few j >= 0; in the
    shifted code (window << b) | s cell k - j is digit j.  Each translate
    is compiled into one (mask, value) pair over digits j >= 1, filed
    under the symbol it needs at digit 0: s at cell k completes that
    translate exactly when (window << b) & mask == value.

    The pair does not depend on where the translate sits, only whether
    it fits there, and it fits at a cell exactly when it fits along
    every axis.  So on each axis a coordinate's class is the tuple of
    compiled translates that fit there along that axis, and a cell's kind
    is the tuple of its axis classes: an n x n nearest-neighbour box has
    only 4 kinds.  Each kind is compiled once into its per-symbol test
    tuples and read, the OR of their masks.  Returns the kinds, the kind
    index of each cell in row-major order, the frontier span (how far
    back any check can reach) and b.  Both caps are checked before any
    kind or per-symbol list is built, so a box or alphabet past them
    fails at once.
    """
    d = sft.dim
    strides = [0] * d
    strides[d - 1] = 1
    for i in range(d - 2, -1, -1):
        strides[i] = strides[i + 1] * sides[i + 1]
    cells = strides[0] * sides[0]
    bits = max(1, (sft.alphabet - 1).bit_length())
    digit = (1 << bits) - 1

    compiled = []  # (mask, value, symbol at the last cell, placement ranges)
    span = 0
    for pat in sft.forbidden:
        if any(pat.extent(axis) > sides[axis] for axis in range(d)):
            continue  # cannot fit inside this box
        # Within a box the pattern fits, row-major order of its cells is
        # the lexicographic order of the offsets, and the row-major
        # distance of each cell back from the last one is the same at
        # every placement.
        anchor = max(pat.offsets)
        rel = [tuple(o - a for o, a in zip(off, anchor)) for off in pat.offsets]
        mask = value = 0
        for off, sym in zip(rel, pat.symbols):
            back = -sum(c * s for c, s in zip(off, strides))
            if back == 0:
                last = sym
            else:
                mask |= digit << (bits * back)
                value |= sym << (bits * back)
                span = max(span, back)
        # the placements that keep every cell inside the box
        fits = [range(-min(r[i] for r in rel), sides[i] - max(r[i] for r in rel))
                for i in range(d)]
        compiled.append((mask, value, last, fits))

    _check_caps(sft, cells, span)
    classes = [[tuple(t for t, (*_, fits) in enumerate(compiled) if c in fits[i])
                for c in range(sides[i])] for i in range(d)]
    kinds: list[_Kind] = []
    index: dict[tuple[tuple[int, ...], ...], int] = {}
    cell_kinds = []
    for kind in itertools.product(*classes):  # row-major: the last axis varies fastest
        if kind not in index:
            index[kind] = len(kinds)
            tests: list[list[tuple[int, int]]] = [[] for _ in range(sft.alphabet)]
            read = 0
            for t in kind[0]:
                if all(t in cls for cls in kind[1:]):
                    mask, value, last, _ = compiled[t]
                    tests[last].append((mask, value))
                    read |= mask
            kinds.append((tuple(map(tuple, tests)), read))
        cell_kinds.append(index[kind])
    return kinds, cell_kinds, span, bits


def _mirror_meet_rows(sft: SftSpec, sides: tuple[int, ...], span: int) -> int | None:
    """The a = ceil((n+1)/2) rows the mirror meet sweeps, or None when one of
    its premises (see count_patterns) fails on this box."""
    n, width = sides[0], math.prod(sides[1:])
    fitting = [pat for pat in sft.forbidden
               if all(pat.extent(axis) <= sides[axis] for axis in range(sft.dim))]
    if n < 3 or span < width or any(pat.extent(0) > 2 for pat in fitting):
        return None

    def normalised(offsets: Sequence[tuple[int, ...]], symbols: tuple[int, ...]) -> frozenset:
        lows = [min(axis) for axis in zip(*offsets)]
        return frozenset((tuple(c - lo for c, lo in zip(off, lows)), sym)
                         for off, sym in zip(offsets, symbols))

    patterns = {normalised(pat.offsets, pat.symbols) for pat in fitting}
    mirrored = {normalised([(-off[0], *off[1:]) for off in pat.offsets], pat.symbols)
                for pat in fitting}
    return (n + 2) // 2 if mirrored == patterns else None


def _row_layers(kinds: list[_Kind], cell_kinds: list[int], span: int, bits: int,
                width: int) -> Iterator[dict[int, int]]:
    """The sweep's window layer after each full row of width cells, row 1 first.

    The layer after k cells maps each frontier window, the trailing span
    symbols coded as one integer (see _placements), to the number of
    admissible k-cell prefixes ending in it; that suffices because no
    later check reads anything older than the window.  Within a layer
    every window has the same length, so the codes map one-to-one onto
    symbol tuples.  A symbol s at cell k is admissible unless one of its
    kind's mask tests matches the shifted window; the next window is
    ((window << b) | s) & keep, the last span digits.  The verdicts read
    only the digits in the kind's read mask, so each kind memoizes the
    tuple of admissible symbols by (window << b) & read, and a window
    costs one AND and one lookup, the tests running once per key.
    """
    keep = (1 << (bits * span)) - 1
    memos: list[dict[int, tuple[int, ...]]] = [{} for _ in kinds]
    layer: dict[int, int] = {0: 1}
    for start in range(0, len(cell_kinds), width):
        for k in cell_kinds[start:start + width]:
            tests, read = kinds[k]
            memo = memos[k]
            advanced: dict[int, int] = {}
            for window, prefixes in layer.items():
                shifted = window << bits
                key = shifted & read
                allowed = memo.get(key)
                if allowed is None:
                    allowed = memo[key] = tuple(
                        s for s, sym_tests in enumerate(tests)
                        if all(key & mask != value for mask, value in sym_tests))
                for s in allowed:
                    nxt = (shifted | s) & keep
                    advanced[nxt] = advanced.get(nxt, 0) + prefixes
            layer = advanced
        yield layer


def count_patterns(sft: SftSpec, sides: Sequence[int]) -> int:
    """Exactly count locally admissible symbol boxes of the given sides.

    A forward sweep over cells in row-major order, read one full row at
    a time (_row_layers): the layer L_r after r of the n = sides[0] rows
    maps each frontier window to the number of admissible r-row prefixes
    ending in it.  By default the count is the sum of the last layer.

    The mirror meet stops the sweep after a = ceil((n+1)/2) rows when
    its four premises hold: n >= 3; every pattern that fits the box has
    extent(0) <= 2; those patterns, normalised by translation, form a
    set closed under x0 -> -x0; and the frontier span is at least the
    row width, so each window holds its whole last row.  Each layer is
    projected onto its last row (the low b*width digits of the window),
    and with b = n+1-a the count is sum over rows r of L_a[r] * L_b[r]:
    every forbidden translate lies in rows a-1..a or in rows a..n, and
    flipping rows a..n maps the admissible completions from row r onto
    the admissible b-row boxes ending in r (Calkin and Wilf 1998).  The
    caps are checked on the full box either way.
    """
    sides = _validate_sides(sft, sides)
    kinds, cell_kinds, span, bits = _placements(sft, sides)
    width = math.prod(sides[1:])
    layers = _row_layers(kinds, cell_kinds, span, bits, width)
    a = _mirror_meet_rows(sft, sides, span)
    if a is None:
        *_, last = layers
        return sum(last.values())
    b = sides[0] + 1 - a
    low = (1 << (bits * width)) - 1
    last_rows: dict[int, dict[int, int]] = {}
    for r, layer in zip(range(1, a + 1), layers):
        if r in (a, b):
            projected = last_rows[r] = {}
            for window, prefixes in layer.items():
                projected[window & low] = projected.get(window & low, 0) + prefixes
    bottom = last_rows[b]
    return sum(c * bottom.get(row, 0) for row, c in last_rows[a].items())


def _exact_log(value: Fraction, alphabet: int) -> int | None:
    """The integer k with value == alphabet**k, or None if there is none; value > 0."""
    k = round((math.log(value.numerator) - math.log(value.denominator)) / math.log(alphabet))
    return k if Fraction(alphabet) ** k == value else None


def _log_count(count: int, alphabet: int) -> float:
    """log_alphabet(count) in float arithmetic, exact for powers of the alphabet; -inf for 0."""
    if count == 0:
        return -math.inf
    k = _exact_log(Fraction(count), alphabet)
    return float(k) if k is not None else math.log(count) / math.log(alphabet)


def _window_1d(sft: SftSpec) -> int:
    if sft.dim != 1:
        raise DomainError("the transfer counter only handles one-dimensional subshifts")
    return max((pat.extent(0) for pat in sft.forbidden), default=1)


# ---------------------------------------------------------------------------
# Entropy brackets
# ---------------------------------------------------------------------------

def _log_rounded(value: Fraction, alphabet: int, toward: float) -> float:
    """log_alphabet(value) rounded in the direction toward, +inf or -inf.

    Exact for powers of the alphabet, -inf for 0.  log1p of the
    correctly rounded distance from 1 keeps the relative error of the
    float quotient within 6 units of 2^-53 for every positive value, also
    next to 1; eight steps of math.nextafter toward either side cover
    that.
    """
    if value == 0:
        return -math.inf
    k = _exact_log(value, alphabet)
    if k is not None:
        return float(k)
    if value > 1:
        y = math.log1p(float(value - 1))
    else:
        y = -math.log1p(float(1 / value - 1))
    y /= math.log(alphabet)
    for _ in range(8):
        y = math.nextafter(y, toward)
    return y


def _transfer_sides_1d(sft: SftSpec, max_side: int,
                       ) -> Iterator[tuple[int, float | None, float | None]]:
    """Count, upper and lower entropy bound for sides n = 1, 2, ... in one sweep.

    The pass ends at top, the last side up to max_side whose box passes
    count_patterns's caps, and one sweep of the box (top,) counts every
    side: a row is one cell, so the count at n is the sum of the layer L_n.

    For n >= w, the longest pattern's extent, each window of L_n is the
    last w-1 symbols, and L_n = T^t L_{n-1} for the window transfer
    matrix T on those states.  On the support S of L_{n-1} that is
    the principal submatrix B of T^t on S applied to a positive vector.
    With the exact Fractions r_j = L_n[j]/L_{n-1}[j], j in S,
    Collatz-Wielandt bounds the Perron root of B on both sides:
    - max_j r_j >= rho(B) = rho(T), since a state outside S lies on no
      cycle of T (going round a cycle through j spells admissible words
      of every length ending in j), so leaving it out keeps the spectral
      radius;
    - min_j r_j <= rho(B) <= rho(T), since B x >= lambda x with x >= 0,
      x != 0 gives rho(B) >= lambda, and a principal submatrix of a
      nonnegative matrix has no larger spectral radius.
    log_a rho(T) is the entropy, and both logs are rounded outward.  An
    empty S means the subshift is empty: both bounds are -inf.  Sides
    n < w give None for both.
    """
    top = 0
    try:
        while top < max_side:
            _check_caps(sft, top + 1, max((pat.extent(0) - 1 for pat in sft.forbidden
                                           if pat.extent(0) <= top + 1), default=0))
            top += 1
    except CapExceededError:
        if not top:
            raise  # even the unit box is past a cap
    w = _window_1d(sft)
    prev = {0: 1}
    for n, cur in enumerate(_row_layers(*_placements(sft, (top,)), 1), start=1):
        upper = lower = None
        if n >= w:
            ratios = [Fraction(cur.get(j, 0), c) for j, c in prev.items()]
            upper = _log_rounded(max(ratios, default=Fraction(0)), sft.alphabet, math.inf)
            lower = _log_rounded(min(ratios, default=Fraction(0)), sft.alphabet, -math.inf)
        yield sum(cur.values()), upper, lower
        prev = cur


class EntropyEntry(_Record):
    """The upper bounds one cube side n contributes to an entropy bracket.

    ratio is the cube ratio log_a(count)/n^d, rounded up (exact for
    powers of the alphabet), an upper bound because the log-count is
    componentwise subadditive.  transfer_upper, set only for
    one-dimensional subshifts at sides n >= w (the forbidden-word
    window), is the Collatz-Wielandt upper bound on the window transfer
    matrix's Perron root from the sweep's exact layers at lengths n-1 and
    n, rounded up.  The same two layers also give a lower bound at each
    such side (see _transfer_sides_1d); the bracket keeps only the
    largest, best_lower.  running_min is the least of both upper bounds
    over sides 1..n, so it does not depend on how far the bracket runs.
    """

    sides: tuple[int, ...]
    count: int
    log_value: float
    ratio: float
    running_min: float
    transfer_upper: float | None = None


class EntropyBracket(_Record):
    """Certified bounds for the entropy along growing cubes.

    best_upper is the last running_min: the least cube ratio
    log_a(count)/volume (premise: the locally admissible log-count is
    componentwise subadditive, which check_count_submultiplicativity
    verifies exactly) and, in one dimension, the least transfer_upper.
    best_lower, in one dimension, is the largest Collatz-Wielandt lower
    bound min_j L_n[j]/L_(n-1)[j] on the same Perron root, rounded down.
    Premise of both transfer bounds: the window transfer matrix is
    nonnegative and the counts are exact integers, so in one dimension
    best_lower <= entropy <= best_upper, and both converge geometrically
    where the cube ratio converges as O(1/n).  best_lower is -inf for an
    empty subshift, and None when no side reached the window length or
    the subshift has two or more dimensions, where counting gives no
    lower bound.
    """

    entries: tuple[EntropyEntry, ...]
    best_upper: float
    truncated: bool
    best_lower: float | None = None
    admissibility = "locally_admissible"  # the one convention (module docstring)

    def to_json_dict(self) -> dict:
        return {
            "best_upper": self.best_upper,
            "best_lower": self.best_lower,
            "admissibility": self.admissibility,
            "truncated": self.truncated,
            "entries": [
                {"sides": list(e.sides), "count": str(e.count),
                 "log_value": e.log_value, "ratio": e.ratio,
                 "running_min": e.running_min, "transfer_upper": e.transfer_upper}
                for e in self.entries
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        d = len(self.entries[0].sides)
        header = [f"n{i + 1}" for i in range(d)]
        header += ["count", "log_complexity", "ratio", "running_min"]
        rows = [header]
        for e in self.entries:
            rows.append([str(n) for n in e.sides]
                        + [str(e.count), repr(e.log_value), repr(e.ratio),
                           repr(e.running_min)])
        return rows


def entropy_bounds(sft: SftSpec, max_side: int) -> EntropyBracket:
    """Certified bounds for the entropy along cubes n = 1..max_side.

    Every side gives the cube ratio log_a(count)/n^d, rounded up, valid
    because the log-count is componentwise subadditive.  Every count comes
    from the sweep: count_patterns per cube for d >= 2, and one sweep in
    one dimension (_transfer_sides_1d), whose layers also give the
    Collatz-Wielandt transfer bounds at each side n >= w.  A cap hit
    truncates the bracket instead of failing it: the bounds already
    collected stay valid.
    """
    if max_side < 1:
        raise DomainError(f"max_side must be >= 1, got {max_side!r}")
    entries: list[EntropyEntry] = []
    running = math.inf
    best_lower = None
    truncated = False
    if sft.dim == 1:
        sides_bounds = _transfer_sides_1d(sft, max_side)
    else:
        sides_bounds = ((count_patterns(sft, (n,) * sft.dim), None, None)
                        for n in itertools.count(1))
    for n in range(1, max_side + 1):
        try:
            count, upper, lower = next(sides_bounds)
        except (CapExceededError, StopIteration):  # the 1-D pass stops at its cap
            if not entries:
                raise  # even the unit box is past a cap
            truncated = True
            break
        log_value = _log_count(count, sft.alphabet)
        # the upward-rounded log over the volume, itself rounded up unless exact
        volume = n ** sft.dim
        log_up = _log_rounded(Fraction(count), sft.alphabet, math.inf)
        ratio = log_up / volume
        if math.isfinite(ratio) and Fraction(ratio) * volume != Fraction(log_up):
            ratio = math.nextafter(ratio, math.inf)
        running = min(running, ratio) if upper is None else min(running, ratio, upper)
        if lower is not None:
            best_lower = lower if best_lower is None else max(best_lower, lower)
        entries.append(EntropyEntry(sides=(n,) * sft.dim, count=count, log_value=log_value,
                                    ratio=ratio, running_min=running,
                                    transfer_upper=upper))
    return EntropyBracket(entries=tuple(entries), best_upper=running, truncated=truncated,
                          best_lower=best_lower)


def check_count_submultiplicativity(sft: SftSpec, side_cap: int) -> ViolationReport:
    """Exact integer check of count(.., p+q, ..) <= count(.., p, ..) * count(.., q, ..).

    Runs over every box with all sides <= side_cap and every split of
    every axis.  Violations are reported with log-alphabet values so the
    record stays finite even for astronomically large counts; the
    comparison itself is exact integer arithmetic.  Each box is counted
    once: the counts are memoized for the length of the call.
    """
    from .checks import Violation, ViolationReport
    if side_cap < 2:
        raise DomainError("side_cap must be >= 2 to admit a split")
    counts: dict[tuple[int, ...], int] = {}

    def count(sides: tuple[int, ...]) -> int:
        if sides not in counts:
            counts[sides] = count_patterns(sft, sides)
        return counts[sides]

    violations: list[Violation] = []
    checked = 0
    for sides in itertools.product(range(1, side_cap + 1), repeat=sft.dim):
        for axis in range(sft.dim):
            n = sides[axis]
            for p in range(1, n):
                q = n - p
                left = tuple(p if i == axis else s for i, s in enumerate(sides))
                right = tuple(q if i == axis else s for i, s in enumerate(sides))
                checked += 1
                whole, cl, cr = count(sides), count(left), count(right)
                if whole > cl * cr:
                    violations.append(Violation(kind="componentwise", axis=axis,
                                                witness=(left, right),
                                                lhs=_log_count(whole, sft.alphabet),
                                                rhs=_log_count(cl * cr, sft.alphabet)))
    label = f"pattern_count(a={sft.alphabet},d={sft.dim})"
    return ViolationReport(kind="componentwise", oracle=label,
                           violations=tuple(violations), samples_checked=checked,
                           metadata={"side_cap": side_cap, "exact": True})


# ---------------------------------------------------------------------------
# Fixtures and serialization
# ---------------------------------------------------------------------------

_BUILTIN_SFTS: dict[str, SftSpec] = {
    "full_shift": SftSpec(alphabet=2, dim=2),
    "golden_mean_1d": SftSpec(alphabet=2, dim=1, forbidden=(
        ForbiddenPattern(offsets=((0,), (1,)), symbols=(1, 1)),)),
    "hard_square_2d": SftSpec(alphabet=2, dim=2, forbidden=(
        ForbiddenPattern(offsets=((0, 0), (0, 1)), symbols=(1, 1)),
        ForbiddenPattern(offsets=((0, 0), (1, 0)), symbols=(1, 1)))),
}


def builtin_sft(name: str) -> SftSpec:
    """The fixture called name, one of builtin_sft_names(); full_shift is the
    binary full shift of the plane, and SftSpec(alphabet=a, dim=d) any other."""
    try:
        return _BUILTIN_SFTS[name]
    except KeyError:
        raise ConfigError(f"unknown subshift fixture {name!r}; available: "
                          f"{', '.join(builtin_sft_names())}") from None


def builtin_sft_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_SFTS))


def load_sft_spec(path: str | Path) -> SftSpec:
    """Load {"alphabet", "dim", "forbidden": [{"offsets", "symbols"}, ...]}; forbidden optional."""
    with _json_file(path, "subshift spec", "alphabet", "dim") as obj:
        alphabet = _json_int(obj["alphabet"], "alphabet")
        dim = _json_int(obj["dim"], "dim")
        forbidden = []
        for i, entry in enumerate(_json_list(obj.get("forbidden", []), "forbidden")):
            at = f"forbidden[{i}]"
            entry = _json_object(entry, at, "offsets", "symbols")
            offsets = [[_json_int(c, f"{at}.offsets")
                        for c in _json_list(off, f"{at}.offsets[{j}]")]
                       for j, off in enumerate(_json_list(entry["offsets"], f"{at}.offsets"))]
            symbols = [_json_int(s, f"{at}.symbols")
                       for s in _json_list(entry["symbols"], f"{at}.symbols")]
            forbidden.append(ForbiddenPattern(offsets, symbols))
        return SftSpec(alphabet, dim, tuple(forbidden))
