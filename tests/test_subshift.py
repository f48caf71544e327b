"""Exact pattern counts, dual-route verification, and entropy brackets."""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_1d
from fekete_lab import subshift
from fekete_lab.cli import main as cli_main
from fekete_lab.domain import ConfigError, DomainError
from fekete_lab.subshift import (
    CapExceededError,
    ForbiddenPattern,
    SftSpec,
    builtin_sft,
    check_count_submultiplicativity,
    count_patterns,
    entropy_bounds,
    load_sft_spec,
)
from reference_1d import dominant_eigenvalue, transfer_matrix_1d, transfer_matrix_count_1d

GOLDEN = builtin_sft("golden_mean_1d")
HARD = builtin_sft("hard_square_2d")
HARD_CUBE = SftSpec(alphabet=2, dim=3, forbidden=tuple(
    ForbiddenPattern(((0, 0, 0), tuple(int(i == axis) for i in range(3))), (1, 1))
    for axis in range(3)))
# proper 3-colourings of the grid: no two adjacent cells share a colour
COLOUR3 = SftSpec(alphabet=3, dim=2, forbidden=tuple(
    ForbiddenPattern(((0, 0), unit), (c, c)) for unit in ((0, 1), (1, 0)) for c in range(3)))


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def brute_force_hard_square(n: int) -> int:
    count = 0
    for mask in range(2 ** (n * n)):
        grid = [[(mask >> (i * n + j)) & 1 for j in range(n)] for i in range(n)]
        admissible = True
        for i in range(n):
            for j in range(n):
                if grid[i][j] and ((j + 1 < n and grid[i][j + 1])
                                   or (i + 1 < n and grid[i + 1][j])):
                    admissible = False
                    break
            if not admissible:
                break
        count += admissible
    return count


def admissible_word(sft: SftSpec, word: tuple[int, ...]) -> bool:
    """No translate of a forbidden pattern lies fully inside word."""
    n = len(word)
    for p in sft.forbidden:
        lo = min(o[0] for o in p.offsets)
        cells = {o[0]: s for o, s in zip(p.offsets, p.symbols)}
        span = max(cells) - lo
        for start in range(n - span):
            if all(word[start + off - lo] == sym for off, sym in cells.items()):
                return False
    return True


def brute_force_words(sft: SftSpec, n: int) -> int:
    return sum(admissible_word(sft, word)
               for word in itertools.product(range(sft.alphabet), repeat=n))


def test_golden_mean_counts_equal_fibonacci_both_routes():
    for n in range(1, 21):
        expected = fibonacci(n + 2)
        assert count_patterns(GOLDEN, (n,)) == expected
        assert transfer_matrix_count_1d(GOLDEN, n) == expected


def test_golden_mean_small_values():
    assert count_patterns(GOLDEN, (1,)) == 2
    assert count_patterns(GOLDEN, (3,)) == 5
    assert count_patterns(GOLDEN, (10,)) == 144


def test_enumerator_matches_word_brute_force_on_random_1d_sfts():
    specs = [
        SftSpec(alphabet=2, dim=1, forbidden=(
            ForbiddenPattern(((0,), (2,)), (1, 1)),)),          # gapped pattern
        SftSpec(alphabet=3, dim=1, forbidden=(
            ForbiddenPattern(((0,), (1,)), (2, 2)),
            ForbiddenPattern(((0,),), (1,)))),                  # plus a banned symbol
        SftSpec(alphabet=2, dim=1, forbidden=(
            ForbiddenPattern(((0,), (1,), (2,)), (1, 0, 1)),)),
    ]
    for sft in specs:
        for n in range(1, 10):
            expected = brute_force_words(sft, n)
            assert count_patterns(sft, (n,)) == expected
            assert transfer_matrix_count_1d(sft, n) == expected


def brute_force_grid_2d(sft: SftSpec, sides: tuple[int, int]) -> int:
    n1, n2 = sides
    total = 0
    for assignment in itertools.product(range(sft.alphabet), repeat=n1 * n2):
        grid = {(i, j): assignment[i * n2 + j] for i in range(n1) for j in range(n2)}
        admissible = True
        for pat in sft.forbidden:
            lo = tuple(min(o[k] for o in pat.offsets) for k in range(2))
            hi = tuple(max(o[k] for o in pat.offsets) for k in range(2))
            for vi in range(-lo[0], n1 - hi[0]):
                for vj in range(-lo[1], n2 - hi[1]):
                    if all(grid[(vi + o[0], vj + o[1])] == s
                           for o, s in zip(pat.offsets, pat.symbols)):
                        admissible = False
                        break
                if not admissible:
                    break
            if not admissible:
                break
        total += admissible
    return total


@st.composite
def random_sft_1d(draw):
    a = draw(st.integers(min_value=2, max_value=3))
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        length = draw(st.integers(min_value=1, max_value=4))
        offsets = draw(st.lists(st.integers(0, length - 1), min_size=1,
                                max_size=length, unique=True))
        symbols = [draw(st.integers(0, a - 1)) for _ in offsets]
        patterns.append(ForbiddenPattern(tuple((o,) for o in sorted(offsets)),
                                         tuple(symbols)))
    return SftSpec(alphabet=a, dim=1, forbidden=tuple(patterns))


@st.composite
def random_sft_2d(draw, alphabets=(2,)):
    a = draw(st.sampled_from(alphabets))
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        cells = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                              min_size=1, max_size=3, unique=True))
        symbols = [draw(st.integers(0, a - 1)) for _ in cells]
        patterns.append(ForbiddenPattern(tuple(sorted(cells)), tuple(symbols)))
    return SftSpec(alphabet=a, dim=2, forbidden=tuple(patterns))


@st.composite
def wide_sft_2d(draw):
    """Binary patterns with offsets in -1..1 that span 3 cells on some axis."""
    coord = st.integers(-1, 1)
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        cells = {(-1, draw(coord)), (1, draw(coord))}
        cells |= set(draw(st.lists(st.tuples(coord, coord), max_size=2)))
        if draw(st.booleans()):
            cells = {(j, i) for i, j in cells}
        symbols = [draw(st.integers(0, 1)) for _ in cells]
        patterns.append(ForbiddenPattern(tuple(sorted(cells)), tuple(symbols)))
    return SftSpec(alphabet=2, dim=2, forbidden=tuple(patterns))


@settings(max_examples=50, deadline=None)
@given(sft=random_sft_1d(), n=st.integers(min_value=1, max_value=8))
def test_enumerator_and_transfer_match_brute_force_1d(sft, n):
    expected = brute_force_words(sft, n)
    assert count_patterns(sft, (n,)) == expected
    assert transfer_matrix_count_1d(sft, n) == expected


@settings(max_examples=40, deadline=None)
@given(sft=random_sft_2d(),
       sides=st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]))
def test_enumerator_matches_brute_force_2d(sft, sides):
    assert count_patterns(sft, sides) == brute_force_grid_2d(sft, sides)


# alphabet 3 codes a window in 2-bit digits and alphabet 5 in 3-bit digits,
# so both leave digit values that no symbol uses
@settings(max_examples=30, deadline=None)
@given(sft=random_sft_2d(alphabets=(3, 5)),
       sides=st.sampled_from([(1, 1), (1, 4), (2, 2), (2, 3), (3, 2)]))
def test_enumerator_matches_brute_force_2d_non_binary(sft, sides):
    assert count_patterns(sft, sides) == brute_force_grid_2d(sft, sides)


@settings(max_examples=30, deadline=None)
@given(sft=wide_sft_2d(),
       sides=st.sampled_from([(2, 4), (3, 2), (3, 3), (3, 4), (4, 3)]))
def test_enumerator_matches_brute_force_2d_wide_patterns(sft, sides):
    assert count_patterns(sft, sides) == brute_force_grid_2d(sft, sides)


def brute_force_box(sft: SftSpec, sides: tuple[int, ...]) -> int:
    """Count symbol boxes of any dimension by testing every assignment against
    every translate of every pattern that fits inside the box.

    The translates are listed once per box, each as (cell index, symbol) pairs.
    """
    box = list(itertools.product(*[range(n) for n in sides]))
    index = {cell: k for k, cell in enumerate(box)}
    translates = []
    for pat in sft.forbidden:
        fits = [range(-min(c), n - max(c)) for c, n in zip(zip(*pat.offsets), sides)]
        translates += [tuple((index[tuple(v + o for v, o in zip(shift, off))], sym)
                             for off, sym in zip(pat.offsets, pat.symbols))
                       for shift in itertools.product(*fits)]
    return sum(not any(all(assignment[k] == sym for k, sym in t) for t in translates)
               for assignment in itertools.product(range(sft.alphabet), repeat=len(box)))


def test_brute_force_box_tries_every_fitting_translate():
    # a pattern's translates fit wherever its cells land inside the box, also
    # when its offsets lie in row -1 or in column 2 of a one-column box
    for offsets, sides, count in [(((-1, 0),), (3, 1), 1), (((0, 2),), (2, 1), 1),
                                  (((-1, 0), (0, 1)), (2, 2), 12)]:
        sft = SftSpec(alphabet=2, dim=2,
                      forbidden=(ForbiddenPattern(offsets, (1,) * len(offsets)),))
        assert brute_force_box(sft, sides) == count_patterns(sft, sides) == count


@st.composite
def random_two_cell_sft_3d(draw, alphabet=2):
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        cells = draw(st.lists(st.tuples(*[st.integers(0, 1)] * 3),
                              min_size=2, max_size=2, unique=True))
        symbols = [draw(st.integers(0, alphabet - 1)) for _ in cells]
        patterns.append(ForbiddenPattern(tuple(cells), tuple(symbols)))
    return SftSpec(alphabet=alphabet, dim=3, forbidden=tuple(patterns))


@settings(max_examples=30, deadline=None)
@given(sft=random_two_cell_sft_3d(),
       sides=st.sampled_from([(1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3),
                              (3, 2, 2)]))
def test_enumerator_matches_brute_force_3d(sft, sides):
    assert count_patterns(sft, sides) == brute_force_box(sft, sides)


@settings(max_examples=12, deadline=None)
@given(sft=random_two_cell_sft_3d(alphabet=3),
       sides=st.sampled_from([(1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 1), (1, 3, 2),
                              (2, 2, 2)]))
def test_enumerator_matches_brute_force_3d_ternary(sft, sides):
    assert count_patterns(sft, sides) == brute_force_box(sft, sides)


def test_hard_cube_counts():
    assert count_patterns(HARD_CUBE, (2, 2, 2)) == 35  # independent sets of the 3-cube
    assert count_patterns(HARD_CUBE, (2, 2, 3)) == 181
    assert brute_force_box(HARD_CUBE, (2, 2, 3)) == 181
    assert count_patterns(HARD_CUBE, (3, 3, 3)) == 70633  # by layer transfer


def test_proper_three_colourings_of_the_grid():
    # values from an independent row-transfer count over proper row colourings,
    # and past n = 4 from OEIS A078099
    assert [count_patterns(COLOUR3, (n, n)) for n in range(1, 7)] == [
        3, 18, 246, 7812, 580986, 101596896]


def test_full_shift_counts():
    full = SftSpec(alphabet=2, dim=2)
    assert count_patterns(full, (2, 3)) == 64
    for sides in ((1, 1), (2, 12), (4, 6), (3, 8), (24, 1), (4, 4)):
        cells = sides[0] * sides[1]
        assert count_patterns(full, sides) == 2 ** cells
    tern = SftSpec(alphabet=3, dim=1)
    assert transfer_matrix_count_1d(tern, 4) == 81
    assert count_patterns(tern, (4,)) == 81


def test_hard_square_matches_brute_force():
    for n in range(1, 5):
        assert count_patterns(HARD, (n, n)) == brute_force_hard_square(n)


def test_hard_square_counts_past_the_brute_force_range():
    # OEIS A006506; from n = 3 on the mirror meet sweeps only ceil((n+1)/2) rows
    assert [count_patterns(HARD, (n, n)) for n in range(5, 13)] == [
        55447, 5598861, 1280128950, 660647962955, 770548397261707,
        2030049051145980050, 12083401651433651945979, 162481813349792588536582997]


def test_nearest_neighbour_boxes_have_at_most_four_cell_kinds():
    # corner, top edge, left edge and interior, whatever the side
    for n in range(2, 13):
        kinds, cell_kinds, _, _ = subshift._placements(HARD, (n, n))
        assert len(cell_kinds) == n * n
        assert len(set(cell_kinds)) == len(kinds) <= 4


def test_sweep_matches_the_window_dp_on_long_random_rows():
    # rows well past the brute-force range, so most cells share an interior kind
    rng = random.Random(16)
    for _ in range(25):
        a = rng.randint(2, 4)
        patterns = []
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(2, 5)
            offsets = sorted(rng.sample(range(length), rng.randint(1, length)))
            patterns.append(ForbiddenPattern(tuple((o,) for o in offsets),
                                             tuple(rng.randrange(a) for _ in offsets)))
        sft = SftSpec(alphabet=a, dim=1, forbidden=tuple(patterns))
        vectors = itertools.islice(reference_1d._window_counts_1d(sft), 1, 41)
        for n, counts in enumerate(vectors, start=1):
            assert count_patterns(sft, (n,)) == sum(counts.values()), (sft, n)


def swept_to_the_last_row(sft: SftSpec, sides: tuple[int, ...]) -> int:
    """The sum of the sweep's last row layer: the count without the mirror meet."""
    kinds, cell_kinds, span, bits = subshift._placements(sft, sides)
    *_, last = subshift._row_layers(kinds, cell_kinds, span, bits, math.prod(sides[1:]))
    return sum(last.values())


def count_and_rows_swept(monkeypatch, sft: SftSpec, sides: tuple[int, ...]) -> tuple[int, int]:
    """count_patterns's count, and how many row layers it drew from the sweep."""
    rows = 0
    row_layers = subshift._row_layers

    def counting(*args):
        nonlocal rows
        for layer in row_layers(*args):
            rows += 1
            yield layer

    with monkeypatch.context() as m:
        m.setattr(subshift, "_row_layers", counting)
        count = count_patterns(sft, sides)
    return count, rows


def random_mirror_closed(rng: random.Random, dim: int, alphabet: int) -> SftSpec:
    """Random patterns within two rows, each with its mirror image along axis 0.

    The first pattern reads cell (0, x, ..) and cell (1, y, ..) with
    y >= x coordinatewise, so its row-major span is at least one row;
    later patterns may be diagonal or one row high.
    """
    patterns = []
    for i in range(rng.randint(1, 3)):
        first = tuple(rng.randrange(2) for _ in range(dim - 1))
        cells = {(0, *first)} if i else {(0, *first), (1, *(c + rng.randrange(2) for c in first))}
        size = rng.randint(1, 3)
        while len(cells) < size:
            cells.add((rng.randrange(2), *(rng.randrange(3) for _ in range(dim - 1))))
        cells = sorted(cells)
        symbols = tuple(rng.randrange(alphabet) for _ in cells)
        patterns.append(ForbiddenPattern(tuple(cells), symbols))
        patterns.append(ForbiddenPattern(tuple((-c[0], *c[1:]) for c in cells), symbols))
    return SftSpec(alphabet=alphabet, dim=dim, forbidden=tuple(patterns))


@pytest.mark.parametrize("dim, sides_list", [
    (2, [(3, 1), (3, 2), (3, 3), (4, 2), (5, 3), (6, 2), (7, 3)]),
    (3, [(3, 1, 2), (3, 2, 2), (4, 2, 2), (5, 2, 3)]),
])
def test_mirror_meet_equals_the_full_sweep_and_brute_force(monkeypatch, dim, sides_list):
    rng = random.Random(19 + dim)
    engaged = wide = brute = 0
    for _ in range(12):
        sft = random_mirror_closed(rng, dim, rng.randint(2, 3))
        for sides in sides_list:
            span = subshift._placements(sft, sides)[2]
            count, rows = count_and_rows_swept(monkeypatch, sft, sides)
            assert count == swept_to_the_last_row(sft, sides), (sft, sides)
            if sft.alphabet ** math.prod(sides) <= 4096:
                assert count == brute_force_box(sft, sides), (sft, sides)
                brute += 1
            a = subshift._mirror_meet_rows(sft, sides, span)
            assert rows == (sides[0] if a is None else (sides[0] + 2) // 2)
            engaged += a is not None
            wide += a is not None and span > math.prod(sides[1:])
    cases = 12 * len(sides_list)
    assert engaged >= cases // 2 and wide >= cases // 4 and brute >= 15


def test_mirror_meet_falls_back_when_a_premise_fails(monkeypatch):
    diagonal = ForbiddenPattern(((0, 0), (1, 1)), (1, 1))
    cases = {
        # mirror-open: the diagonal without its mirror image, the anti-diagonal
        "mirror-open": (SftSpec(alphabet=2, dim=2, forbidden=(diagonal,)), (4, 3)),
        "extent(0) = 3": (SftSpec(alphabet=2, dim=2, forbidden=(
            ForbiddenPattern(((0, 0), (2, 0)), (1, 1)),)), (4, 2)),
        # only horizontal patterns: a span of one cell, short of the row
        "span < width": (SftSpec(alphabet=2, dim=2, forbidden=(
            ForbiddenPattern(((0, 0), (0, 1)), (1, 1)),)), (4, 3)),
        "n = 2": (HARD, (2, 4)),
        "n = 1": (HARD, (1, 4)),
    }
    for name, (sft, sides) in cases.items():
        count, rows = count_and_rows_swept(monkeypatch, sft, sides)
        assert rows == sides[0], name
        assert count == swept_to_the_last_row(sft, sides) == brute_force_box(sft, sides), name
    # a mirror-open pattern too wide for the box leaves the meet engaged
    wide = ForbiddenPattern(((0, 0), (1, 0), (1, 1)), (1, 1, 0))
    sft = SftSpec(alphabet=2, dim=2, forbidden=HARD.forbidden + (wide,))
    assert count_and_rows_swept(monkeypatch, sft, (4, 1)) == (
        count_patterns(HARD, (4, 1)), 3)


def bench_like(sft: SftSpec, rng: random.Random) -> SftSpec:
    """The same subshift with each pattern translated, its cells shuffled, and the list shuffled."""
    patterns = []
    for pat in sft.forbidden:
        shift = [rng.randrange(4) for _ in range(sft.dim)]
        cells = [(tuple(c + s for c, s in zip(off, shift)), sym)
                 for off, sym in zip(pat.offsets, pat.symbols)]
        rng.shuffle(cells)
        patterns.append(ForbiddenPattern(*zip(*cells)))
    rng.shuffle(patterns)
    return SftSpec(alphabet=sft.alphabet, dim=sft.dim, forbidden=tuple(patterns))


def test_mirror_meet_engages_on_the_nearest_neighbour_subshifts(monkeypatch):
    rng = random.Random(1)
    hard_zero_cube = SftSpec(alphabet=2, dim=3, forbidden=tuple(
        ForbiddenPattern(pat.offsets, (0, 0)) for pat in HARD_CUBE.forbidden))
    for sft, side in ((HARD, 12), (bench_like(COLOUR3, rng), 9),
                      (bench_like(HARD_CUBE, rng), 4), (bench_like(hard_zero_cube, rng), 4)):
        for n in range(3, side + 1):
            sides = (n,) * sft.dim
            count, rows = count_and_rows_swept(monkeypatch, sft, sides)
            assert rows == (n + 2) // 2
            assert count == swept_to_the_last_row(sft, sides)
    # the diagonal of test_mirror_meet_falls_back_when_a_premise_fails, shifted
    mirror_open = bench_like(SftSpec(alphabet=2, dim=2, forbidden=(
        ForbiddenPattern(((0, 0), (1, 1)), (1, 1)),)), rng)
    assert count_and_rows_swept(monkeypatch, mirror_open, (6, 6))[1] == 6


def row_transfer_count(rows: list[int], height: int) -> int:
    """Stack height rows, coded as bitmasks, each disjoint from the one below it."""
    below = [[j for j, r in enumerate(rows) if r & s == 0] for s in rows]
    vec = [1] * len(rows)
    for _ in range(height - 1):
        vec = [sum(vec[j] for j in js) for js in below]
    return sum(vec)


def test_large_colour3_and_hard_cube_counts_match_a_row_transfer():
    # a proper 3-colouring of a path of n cells as n one-hot 3-bit digits:
    # two rows stack exactly when no column repeats a colour
    for n in range(7, 10):
        paths = [[c] for c in range(3)]
        for _ in range(n - 1):
            paths = [p + [c] for p in paths for c in range(3) if c != p[-1]]
        rows = [sum(1 << (3 * i + c) for i, c in enumerate(p)) for p in paths]
        assert count_patterns(COLOUR3, (n, n)) == row_transfer_count(rows, n)
    # independent sets of the 4 x 4 grid as 16-bit masks, stacked into layers
    line = [m for m in range(16) if m & (m >> 1) == 0]
    layers = [0]
    for i in range(4):
        layers = [layer | (r << (4 * i)) for layer in layers for r in line
                  if i == 0 or (layer >> (4 * (i - 1))) & r == 0]
    assert row_transfer_count(layers, 4) == 121039421240
    assert count_patterns(HARD_CUBE, (4, 4, 4)) == 121039421240


def test_pattern_counts_respect_alphabet_bound():
    for sides in ((3,), (5,)):
        c = count_patterns(GOLDEN, sides)
        assert 0 <= c <= 2 ** sides[0]
    assert type(count_patterns(GOLDEN, (4,))) is int
    assert entropy_bounds(GOLDEN, 4).admissibility == "locally_admissible"


def test_sides_must_be_positive():
    with pytest.raises(DomainError):
        count_patterns(GOLDEN, (0,))
    with pytest.raises(DomainError):
        count_patterns(HARD, (2, 0))


def test_empty_subshift_logs_minus_infinity():
    # a single banned symbol over a binary alphabet at every cell kills everything
    dead = SftSpec(alphabet=2, dim=1, forbidden=(
        ForbiddenPattern(((0,),), (0,)), ForbiddenPattern(((0,),), (1,))))
    assert count_patterns(dead, (3,)) == 0
    assert entropy_bounds(dead, 3).entries[-1].log_value == -math.inf


def test_entropy_bounds_full_shift_flat():
    full = SftSpec(alphabet=2, dim=2)
    bracket = entropy_bounds(full, 4)
    assert all(e.ratio == 1.0 for e in bracket.entries)
    assert bracket.best_upper == 1.0


def test_entropy_bounds_golden_mean():
    bracket = entropy_bounds(GOLDEN, 24)
    by_n = {e.sides[0]: e for e in bracket.entries}
    assert abs(by_n[10].ratio - math.log2(144) / 10) <= 1e-12
    mins = [e.running_min for e in bracket.entries]
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert all(e.ratio >= bracket.best_upper for e in bracket.entries)
    golden_ratio_log = math.log2((1 + math.sqrt(5)) / 2)
    # the certified two-sided transfer bracket holds the limit and closes
    # geometrically: at most 1.5e-6 wide at side 16 and 1e-9 at side 24
    assert bracket.best_lower <= golden_ratio_log <= bracket.best_upper
    assert bracket.best_upper - bracket.best_lower <= 1e-9
    side16 = entropy_bounds(GOLDEN, 16)
    assert side16.best_lower <= golden_ratio_log <= side16.best_upper
    assert side16.best_upper - side16.best_lower <= 1.5e-6
    # convergence of the cube-ratio bound alone is O(1/n): at side 16 the
    # gap is 0.0142, first dipping under 0.01 at side 23
    cube_min = dict(zip(by_n, itertools.accumulate(
        (e.ratio for e in bracket.entries), min)))
    gap16 = cube_min[16] - golden_ratio_log
    assert 0.014 < gap16 < 0.015
    assert cube_min[22] - golden_ratio_log > 0.01
    assert cube_min[23] - golden_ratio_log <= 0.01


def test_cube_ratios_round_up():
    for sft, max_side in ((GOLDEN, 40), (HARD, 12), (COLOUR3, 9), (HARD_CUBE, 4)):
        with localcontext() as ctx:
            ctx.prec = 50
            loga = Decimal(sft.alphabet).ln()
            for e in entropy_bounds(sft, max_side).entries:
                exact = Fraction(Decimal(e.count).ln() / loga)
                bound = Fraction(e.ratio) * math.prod(e.sides)
                # the slack covers the reference's own 50-digit rounding; a
                # ratio rounded to nearest falls short by up to 1e-16 relative
                assert bound >= exact * (1 - Fraction(1, 10 ** 40)), e
                assert bound - exact <= exact * Fraction(1, 10 ** 14), e


def test_transfer_upper_golden_mean():
    bracket = entropy_bounds(GOLDEN, 24)
    golden_ratio_log = math.log2((1 + math.sqrt(5)) / 2)
    assert bracket.entries[0].transfer_upper is None  # side 1 is below the window
    uppers = [e.transfer_upper for e in bracket.entries[1:]]
    assert all(u >= golden_ratio_log for u in uppers)
    assert all(e.running_min <= min(e.ratio, e.transfer_upper)
               for e in bracket.entries[1:])
    assert bracket.entries[15].transfer_upper - golden_ratio_log <= 1e-6
    # the bound at a side never depends on how far the bracket runs
    assert entropy_bounds(GOLDEN, 16).entries[-1] == bracket.entries[15]


def test_transfer_upper_degenerate_subshifts():
    dead = SftSpec(alphabet=2, dim=1, forbidden=(
        ForbiddenPattern(((0,),), (0,)), ForbiddenPattern(((0,),), (1,))))
    bracket = entropy_bounds(dead, 3)
    assert [e.transfer_upper for e in bracket.entries] == [-math.inf] * 3
    assert bracket.best_upper == bracket.best_lower == -math.inf
    # with a two-cell window no state is admissible: no matrix to iterate on
    dead_window = SftSpec(alphabet=2, dim=1, forbidden=dead.forbidden + (
        ForbiddenPattern(((0,), (1,)), (1, 1)),))
    bracket = entropy_bounds(dead_window, 3)
    assert bracket.entries[0].transfer_upper is None  # side 1 is below the window
    assert bracket.best_upper == bracket.best_lower == -math.inf
    # after a 1 nothing may follow: state (1,) is a dead end, two words per length
    dead_end = SftSpec(alphabet=2, dim=1, forbidden=(
        ForbiddenPattern(((0,), (1,)), (1, 0)), ForbiddenPattern(((0,), (1,)), (1, 1))))
    bracket = entropy_bounds(dead_end, 8)
    assert [e.count for e in bracket.entries] == [2] * 8
    assert [e.transfer_upper for e in bracket.entries[1:]] == [0.0] * 7
    assert bracket.best_upper == bracket.best_lower == 0.0
    # float log(3**5)/log(3)/5 is 0.9999999999999998; powers of the alphabet
    # stay exact in both bounds, so rounding up never lifts the limit 1
    tern = SftSpec(alphabet=3, dim=1)
    bracket = entropy_bounds(tern, 8)
    assert [e.ratio for e in bracket.entries] == [1.0] * 8
    assert [e.transfer_upper for e in bracket.entries] == [1.0] * 8
    assert bracket.best_upper == bracket.best_lower == 1.0


@settings(max_examples=50, deadline=None)
@given(sft=random_sft_1d())
def test_transfer_upper_dominates_spectral_radius(sft):
    _, matrix = transfer_matrix_1d(sft)
    # a nonnegative integer matrix has spectral radius 0 or at least 1
    rho = max(abs(np.linalg.eigvals(matrix))) if matrix.size else 0.0
    entropy = math.log(rho, sft.alphabet) if rho >= 0.5 else -math.inf
    bracket = entropy_bounds(sft, 10)
    for e in bracket.entries:
        assert e.transfer_upper is None or e.transfer_upper >= entropy - 1e-9
        assert e.ratio >= entropy - 1e-9
    # and the certified bracket holds it: every window is at most 4 < 10 cells
    assert bracket.best_lower is not None
    assert bracket.best_lower <= entropy + 1e-9 and entropy - 1e-9 <= bracket.best_upper


def test_transfer_lower_bounds_round_down():
    # per side, the least ratio c_n[j]/c_(n-1)[j] of the count vectors; its log
    # is exact at powers of the alphabet and otherwise rounded down
    staircase = SftSpec(alphabet=2, dim=1, forbidden=(
        ForbiddenPattern(((0,), (1,)), (1, 0)),))
    tern = SftSpec(alphabet=3, dim=1)
    gapped = SftSpec(alphabet=3, dim=1, forbidden=(
        ForbiddenPattern(((0,), (2,)), (1, 1)), ForbiddenPattern(((0,), (1,)), (2, 0))))
    exact_logs = rounded = 0
    for sft in (GOLDEN, staircase, tern, gapped):
        w = subshift._window_1d(sft)
        vectors = itertools.islice(reference_1d._window_counts_1d(sft), 41)
        prev = next(vectors)
        lowers = []
        with localcontext() as ctx:
            ctx.prec = 50
            loga = Decimal(sft.alphabet).ln()
            for n, cur in enumerate(vectors, start=1):
                if n >= w:
                    lam = min(Fraction(cur.get(j, 0), c) for j, c in prev.items())
                    low = subshift._log_rounded(lam, sft.alphabet, -math.inf)
                    lowers.append(low)
                    exact = Fraction((Decimal(lam.numerator).ln()
                                      - Decimal(lam.denominator).ln()) / loga)
                    k = round(exact)
                    if Fraction(sft.alphabet) ** k == lam:
                        assert low == k, (sft, n)
                        exact_logs += 1
                    else:
                        # the slack covers the reference's own 50-digit rounding
                        assert Fraction(low) <= exact + abs(exact) * Fraction(1, 10 ** 40)
                        assert exact - Fraction(low) <= abs(exact) * Fraction(1, 10 ** 14)
                        rounded += 1
                prev = cur
        assert entropy_bounds(sft, 40).best_lower == max(lowers)
    assert exact_logs >= 40 and rounded >= 40


def test_logs_below_one_round_toward_either_side():
    # values below 1 take the branch -log1p(1/value - 1): exact at negative
    # powers of the alphabet, otherwise on the toward side of the exact log
    exact_logs = rounded = 0
    with localcontext() as ctx:
        ctx.prec = 50
        for alphabet in (2, 3, 5):
            loga = Decimal(alphabet).ln()
            values = {Fraction(p, q) for q in range(2, 40) for p in range(1, q)}
            values |= {Fraction(1, alphabet ** k) for k in range(1, 40)}
            values |= {Fraction(10 ** 12, 10 ** 12 + 1), Fraction(1, 3 ** 40 + 1)}
            for value in values:
                exact = Fraction((Decimal(value.numerator).ln()
                                  - Decimal(value.denominator).ln()) / loga)
                down = subshift._log_rounded(value, alphabet, -math.inf)
                up = subshift._log_rounded(value, alphabet, math.inf)
                if Fraction(alphabet) ** round(exact) == value:
                    assert down == up == round(exact), (value, alphabet)
                    exact_logs += 1
                else:
                    # the slack covers the reference's own 50-digit rounding
                    slack = abs(exact) * Fraction(1, 10 ** 40)
                    assert Fraction(down) <= exact + slack and Fraction(up) >= exact - slack
                    assert Fraction(up) - Fraction(down) <= abs(exact) * Fraction(1, 10 ** 14)
                    rounded += 1
    assert exact_logs >= 3 * 39 and rounded >= 3 * 400


def window_dp_bracket(sft: SftSpec, sides: int) -> tuple[list[int], list, float | None]:
    """Counts, transfer uppers and best_lower of a 1-D bracket over sides
    1..sides, recomputed from the window DP's count vectors."""
    w = subshift._window_1d(sft)
    vectors = reference_1d._window_counts_1d(sft)
    prev = next(vectors)
    counts, uppers, lowers = [], [], []
    for n, cur in zip(range(1, sides + 1), vectors):
        counts.append(sum(cur.values()))
        uppers.append(None)
        if n >= w:
            ratios = [Fraction(cur.get(j, 0), c) for j, c in prev.items()]
            uppers[-1] = subshift._log_rounded(max(ratios, default=Fraction(0)),
                                               sft.alphabet, math.inf)
            lowers.append(subshift._log_rounded(min(ratios, default=Fraction(0)),
                                                sft.alphabet, -math.inf))
        prev = cur
    return counts, uppers, max(lowers, default=None)


def test_one_pass_counts_equal_the_sweep(monkeypatch, tmp_path):
    # entropy counts 1-D words with the sweep; the window DP stays its check
    # and must not run
    rng = random.Random(18)
    specs = []
    for _ in range(24):
        a = rng.randint(2, 4)
        patterns = []
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(1, 5)
            offsets = sorted(rng.sample(range(length), rng.randint(1, length)))
            patterns.append(ForbiddenPattern(tuple((o,) for o in offsets),
                                             tuple(rng.randrange(a) for _ in offsets)))
        specs.append(SftSpec(alphabet=a, dim=1, forbidden=tuple(patterns)))
    with monkeypatch.context() as m:
        m.setattr(reference_1d, "_window_counts_1d",
                  lambda sft: pytest.fail("entropy ran the window DP"))
        golden = entropy_bounds(GOLDEN, 145)
        # three and four symbols reach the cell cap at sides 90 and 72
        brackets = [entropy_bounds(sft, 100) for sft in specs]
        assert cli_main(["entropy", "--sft", "golden_mean_1d", "--max-side", "144",
                         "--out", str(tmp_path), "--no-timestamp"]) == 0
    assert golden.truncated and len(golden.entries) == 144
    assert [e.count for e in golden.entries] == [
        transfer_matrix_count_1d(GOLDEN, n) for n in range(1, 145)]
    with pytest.raises(CapExceededError, match="cell cap"):
        transfer_matrix_count_1d(GOLDEN, 145)
    for sft, bracket in zip(specs, brackets):
        counts, uppers, best_lower = window_dp_bracket(sft, len(bracket.entries))
        assert [e.count for e in bracket.entries] == counts, sft
        assert [e.transfer_upper for e in bracket.entries] == uppers, sft
        assert bracket.best_lower == best_lower, sft
        assert bracket.truncated == (len(counts) < 100)
    assert sum(b.truncated for b in brackets) >= 8
    assert sum(not b.truncated for b in brackets) >= 4


def test_one_pass_compiles_one_box_however_far_it_is_asked(monkeypatch):
    # the sides are scanned up from 1, and only the last box passing the
    # caps is compiled: 90 cells at log2(3) bits each
    boxes = []
    placements = subshift._placements

    def counting(sft, sides):
        boxes.append(sides)
        return placements(sft, sides)

    monkeypatch.setattr(subshift, "_placements", counting)
    bracket = entropy_bounds(SftSpec(alphabet=3, dim=1), 10 ** 6)
    assert bracket.truncated and len(bracket.entries) == 90
    assert boxes == [(90,)]


@pytest.mark.parametrize("alphabet, cap", [(2 ** 50, "state cap"), (2 ** 150, "cell cap")])
def test_one_pass_refuses_a_unit_box_past_a_cap_as_the_sweep_does(alphabet, cap):
    sft = SftSpec(alphabet=alphabet, dim=1)
    with pytest.raises(CapExceededError, match=cap) as swept:
        count_patterns(sft, (1,))
    with pytest.raises(CapExceededError) as passed:
        entropy_bounds(sft, 3)
    assert str(passed.value) == str(swept.value)


def test_a_window_past_the_state_cap_is_counted_by_the_sweep(monkeypatch):
    # 8 bits a symbol: a frontier of 7 cells and a new one pass 48 bits, so
    # the state cap stops the sweep at side 8.  Below it the sweep holds 256
    # windows of one cell, but the window DP would hold all words of length n
    sft = SftSpec(alphabet=256, dim=1, forbidden=(ForbiddenPattern(((0,), (1,)), (0, 0)),
                                                  ForbiddenPattern(((0,), (7,)), (0, 0))))
    with pytest.raises(CapExceededError, match="state cap"):
        transfer_matrix_count_1d(sft, 8)
    monkeypatch.setattr(reference_1d, "_window_counts_1d",
                        lambda sft: pytest.fail("the window DP ran past the state cap"))
    bracket = entropy_bounds(sft, 10)
    assert bracket.truncated and bracket.entries[-1].sides == (7,)
    # the words without 00: a_n = 255 (a_(n-1) + a_(n-2)), a_0 = 1, a_1 = 256
    counts = [1, 256]
    while len(counts) < 8:
        counts.append(255 * (counts[-1] + counts[-2]))
    assert [e.count for e in bracket.entries] == counts[1:]
    # the window is the 8-cell pattern's, not the 2-cell span of the box
    # swept: no side reached it, so there is no transfer bound
    assert all(e.transfer_upper is None for e in bracket.entries)
    assert bracket.best_lower is None


def test_transfer_value_at_a_jordan_block():
    # forbidding "10" leaves the n + 1 words 0^k 1^(n-k): entropy 0, and the
    # transfer matrix [[1, 1], [0, 1]] has a Jordan block at its Perron root 1
    staircase = SftSpec(alphabet=2, dim=1, forbidden=(
        ForbiddenPattern(((0,), (1,)), (1, 0)),))
    bracket = entropy_bounds(staircase, 6)
    assert [e.count for e in bracket.entries] == [2, 3, 4, 5, 6, 7]
    # state (0,) ends one word of each length, 0^n, so the least ratio is 1
    # and its log 0 is exact: the certified lower bound is the entropy itself.
    # State (1,) ends n words, so at side 6 the upper bound is log2(6/5)
    assert bracket.best_lower == 0.0
    assert math.log2(6 / 5) < bracket.best_upper <= math.log2(6 / 5) + 1e-15


def test_hard_square_entropy_bracket():
    bracket = entropy_bounds(HARD, 8)
    mins = [e.running_min for e in bracket.entries]
    assert len(mins) == 8
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert not bracket.truncated
    assert all(e.transfer_upper is None for e in bracket.entries)


def test_submultiplicativity_exact():
    golden = check_count_submultiplicativity(GOLDEN, 16)
    assert golden.clean
    # Fibonacci identity check of the same inequality, independently
    for n in range(2, 17):
        for p in range(1, n):
            assert fibonacci(n + 2) <= fibonacci(p + 2) * fibonacci(n - p + 2)
    hard = check_count_submultiplicativity(HARD, 6)
    assert hard.clean
    full = SftSpec(alphabet=2, dim=2)
    report = check_count_submultiplicativity(full, 4)
    assert report.clean  # equality everywhere


def test_submultiplicativity_flags_a_fake():
    # a gapped-pattern subshift is still submultiplicative; sanity-check
    # that the checker inspects both axes by running on hard squares
    report = check_count_submultiplicativity(HARD, 4)
    assert report.samples_checked == sum(
        2 * (n - 1) * 4 for n in range(1, 5))  # splits per axis over 4x4 boxes


def test_submultiplicativity_reports_each_violation_in_exact_logs(monkeypatch):
    # a count table that is not submultiplicative; 3**5 and 3**10 have exact
    # logs, which math.log(c) / math.log(3) misses for 3**5 (4.999999999999999)
    counts = {(1, 1): 10, (1, 2): 3 ** 5, (2, 1): 0, (2, 2): 3 ** 10}
    monkeypatch.setattr(subshift, "count_patterns", lambda sft, sides: counts[sides])
    report = check_count_submultiplicativity(SftSpec(alphabet=3, dim=2), 2)
    assert report.samples_checked == 4
    assert [(v.axis, v.witness, v.lhs, v.rhs) for v in report.violations] == [
        (1, ((2, 1), (2, 1)), 10.0, -math.inf),
        (1, ((1, 1), (1, 1)), 5.0, math.log(100) / math.log(3)),
    ]


def test_folner_box_ratios():
    def box_ratio(sft, sides):  # binary alphabets only: log2 is exact on powers of two
        return math.log2(count_patterns(sft, sides)) / math.prod(sides)

    full = SftSpec(alphabet=2, dim=2)
    assert [box_ratio(full, (n, n)) for n in (1, 2, 3)] == [1.0, 1.0, 1.0]

    mins = []
    cur = math.inf
    for r in (box_ratio(GOLDEN, (n,)) for n in range(1, 13)):
        cur = min(cur, r)
        mins.append(cur)
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert 0.694 <= mins[-1] <= 0.72

    assert box_ratio(HARD, (2, 4)) == box_ratio(HARD, (4, 2))


def test_relabeling_invariance():
    for sft, sides_list in ((GOLDEN, [(5,), (9,)]), (HARD, [(3, 3), (4, 2)])):
        flipped = SftSpec(alphabet=2, dim=sft.dim, forbidden=tuple(
            ForbiddenPattern(pat.offsets, tuple(1 - s for s in pat.symbols))
            for pat in sft.forbidden))
        for sides in sides_list:
            assert count_patterns(flipped, sides) == count_patterns(sft, sides)


def test_caps():
    full = SftSpec(alphabet=2, dim=2)
    with pytest.raises(CapExceededError):
        count_patterns(full, (20, 20))
    wide = SftSpec(alphabet=2, dim=2, forbidden=(
        ForbiddenPattern(tuple((i, 0) for i in range(8)), (1,) * 8),))
    with pytest.raises(CapExceededError):
        count_patterns(wide, (10, 10))  # frontier window too wide
    bracket = entropy_bounds(full, 20)
    assert bracket.truncated
    assert bracket.entries[-1].sides == (12, 12)


def test_cap_errors_are_config_errors():
    # the CLI reports a ConfigError as a usage error (exit 2), caps included
    assert issubclass(CapExceededError, ConfigError)
    with pytest.raises(ConfigError, match="cell cap"):
        count_patterns(SftSpec(alphabet=2, dim=2), (13, 12))


def test_pattern_validation():
    with pytest.raises(DomainError):
        ForbiddenPattern(((0,), (0,)), (1, 1))
    with pytest.raises(DomainError):
        ForbiddenPattern(((0,), (0, 1)), (1, 1))
    with pytest.raises(DomainError):
        SftSpec(alphabet=2, dim=1, forbidden=(ForbiddenPattern(((0,),), (2,)),))
    with pytest.raises(DomainError):
        SftSpec(alphabet=1, dim=1)


def test_a_nine_cell_word_counts_as_the_window_dp(tmp_path):
    # no pattern width cap: the sweep's cell and state caps bound its work
    path = tmp_path / "sft.json"
    path.write_text(json.dumps({"alphabet": 2, "dim": 1,
                                "forbidden": [{"offsets": [[0], [8]], "symbols": [1, 1]}]}))
    sft = load_sft_spec(path)
    assert sft.forbidden[0].extent(0) == 9
    vectors = itertools.islice(reference_1d._window_counts_1d(sft), 1, 21)
    for n, counts in enumerate(vectors, start=1):
        assert count_patterns(sft, (n,)) == sum(counts.values()), n


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "sft.json"
    path.write_text(json.dumps({
        "alphabet": HARD.alphabet, "dim": HARD.dim,
        "forbidden": [{"offsets": pat.offsets, "symbols": pat.symbols}
                      for pat in HARD.forbidden]}))
    loaded = load_sft_spec(path)
    assert loaded == HARD
    path.write_text("{bad")
    with pytest.raises(ConfigError):
        load_sft_spec(path)
    # every list field must be a JSON list: a string would be read character
    # by character
    for forbidden, field in (
            ("ab", "forbidden"),
            ([{"offsets": "01", "symbols": [1, 1]}], "forbidden[0].offsets"),
            ([{"offsets": [[0], "1"], "symbols": [1, 1]}], "forbidden[0].offsets[1]"),
            ([{"offsets": [[0], [1]], "symbols": "11"}], "forbidden[0].symbols")):
        path.write_text(json.dumps({"alphabet": 2, "dim": 1, "forbidden": forbidden}))
        with pytest.raises(ConfigError, match=re.escape(f": {field} must be a list, got ")):
            load_sft_spec(path)


def test_unknown_fixture():
    with pytest.raises(ConfigError, match="available: full_shift, golden_mean_1d, hard_square_2d"):
        builtin_sft("nosuch")
    with pytest.raises(TypeError):
        builtin_sft("hard_square_2d", dim=3)  # a fixture takes no alphabet or dimension


# ---------------------------------------------------------------------------
# The independent 1-D reference of tests/reference_1d.py on its own
# ---------------------------------------------------------------------------

def test_one_dimensional_cross_check_counters_check_the_caps(monkeypatch):
    # 8 bits a symbol and a window of 8 cells: below length 8 the window DP
    # would hold all 256^n words, and the matrix 256^7 states
    sft = SftSpec(alphabet=256, dim=1, forbidden=(ForbiddenPattern(((0,), (7,)), (0, 0)),))
    monkeypatch.setattr(reference_1d, "_window_counts_1d",
                        lambda sft: pytest.fail("the window DP ran past the state cap"))
    with pytest.raises(CapExceededError, match="state cap"):
        transfer_matrix_count_1d(sft, 2)
    with pytest.raises(CapExceededError, match="state cap"):
        transfer_matrix_1d(sft)
    with pytest.raises(CapExceededError, match="cell cap"):
        transfer_matrix_count_1d(GOLDEN, 145)


def test_transfer_matrix_refuses_a_window_level_past_the_dense_state_cap(monkeypatch):
    # 4 symbols and a window of 8 cells pass both caps, but the window DP's
    # levels hold 1, 4, ..., 4096, 16384 states: a dense matrix at level 7
    # would take 2 GiB
    sft = SftSpec(alphabet=4, dim=1, forbidden=(ForbiddenPattern(((0,), (7,)), (0, 0)),))
    with monkeypatch.context() as m:
        m.setattr(np, "zeros", lambda *args, **kwargs: pytest.fail("the matrix was allocated"))
        with pytest.raises(CapExceededError, match="window level 7 holds 16384 states"):
            transfer_matrix_1d(sft)
    monkeypatch.setattr(reference_1d, "MATRIX_STATE_CAP", 2)
    assert transfer_matrix_1d(GOLDEN)[0] == [(0,), (1,)]
    monkeypatch.setattr(reference_1d, "MATRIX_STATE_CAP", 1)
    with pytest.raises(CapExceededError, match="window level 1 holds 2 states"):
        transfer_matrix_1d(GOLDEN)


def brute_force_transfer_matrix(sft: SftSpec) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Every admissible word of w-1 symbols, and per pair of them the number
    of symbols s with u + (s,) admissible and ending in v."""
    w = max((max(o[0] for o in p.offsets) - min(o[0] for o in p.offsets) + 1
             for p in sft.forbidden), default=1)
    states = [u for u in itertools.product(range(sft.alphabet), repeat=w - 1)
              if admissible_word(sft, u)]
    index = {u: i for i, u in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for u in states:
        for s in range(sft.alphabet):
            if admissible_word(sft, u + (s,)):
                matrix[index[u], index[(u + (s,))[1:]]] += 1
    return states, matrix


def test_transfer_matrix_matches_brute_force_on_random_1d_sfts():
    rng = random.Random(20261019)
    several_symbols_w1 = empty = 0
    for _ in range(300):
        a = rng.randint(2, 4)
        patterns = []
        for _ in range(rng.randint(0, 4)):
            extent = rng.randint(1, 4)
            offsets = {0, extent - 1} | set(rng.sample(range(extent), rng.randint(0, extent)))
            patterns.append(ForbiddenPattern(tuple((o,) for o in sorted(offsets)),
                                             tuple(rng.randrange(a) for _ in offsets)))
        sft = SftSpec(alphabet=a, dim=1, forbidden=tuple(patterns))
        states, matrix = transfer_matrix_1d(sft)
        ref_states, ref_matrix = brute_force_transfer_matrix(sft)
        assert states == ref_states
        assert matrix.shape == ref_matrix.shape and (matrix == ref_matrix).all()
        several_symbols_w1 += states == [()] and matrix[0, 0] >= 2
        # the subshift is empty exactly when the matrix is nilpotent
        empty += not states or not np.linalg.matrix_power(matrix, len(states)).any()
    assert several_symbols_w1 >= 5 and empty >= 5


def test_transfer_matrix_enumerates_only_admissible_words(monkeypatch):
    # four symbols that must cycle 0 -> 1 -> 2 -> 3 -> 0, and a pattern of
    # extent 8 that never fires: w = 8, but only 4 admissible windows out of
    # 4^7 words, so the matrix takes about a hundred pattern tests, not
    # tens of thousands
    sft = SftSpec(alphabet=4, dim=1, forbidden=tuple(
        ForbiddenPattern(((0,), (1,)), (s, t))
        for s in range(4) for t in range(4) if t != (s + 1) % 4)
        + (ForbiddenPattern(((0,), (7,)), (0, 0)),))
    calls = 0
    ends_forbidden = reference_1d._ends_forbidden

    def counting(word, patterns):
        nonlocal calls
        calls += 1
        return ends_forbidden(word, patterns)

    monkeypatch.setattr(reference_1d, "_ends_forbidden", counting)
    states, matrix = transfer_matrix_1d(sft)
    assert calls <= 1000
    assert states == [tuple((s + k) % 4 for k in range(7)) for s in range(4)]
    assert (matrix == np.roll(np.eye(4), 1, axis=1)).all()


def test_power_iteration_matches_closed_forms():
    states, matrix = transfer_matrix_1d(GOLDEN)
    assert sorted(states) == [(0,), (1,)]
    lam = dominant_eigenvalue(matrix)
    assert abs(lam - (1 + math.sqrt(5)) / 2) <= 1e-9
    full = SftSpec(alphabet=3, dim=1)
    _, m = transfer_matrix_1d(full)
    assert dominant_eigenvalue(m) == 3.0
