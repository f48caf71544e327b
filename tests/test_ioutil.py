"""The block-streamed, atomic CSV writer."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from fekete_lab import ioutil, limits
from fekete_lab.domain import GridSchedule, Point
from fekete_lab.ioutil import CSV_BLOCK_ROWS, write_csv_atomic
from fekete_lab.limits import LimitBracket, simultaneous_limit
from fekete_lab.registry import builtin


def joined(rows):
    """The plain writer: every row joined by commas and ended by a newline."""
    return "".join(",".join(r) + "\n" for r in rows)


@pytest.fixture(scope="module")
def levels_300_bracket():
    # the bracket of the largest bench limit job: 301 x 301 grid points
    schedule = GridSchedule(base=Point((1.0, 1.0)), growth=1.05, levels=300)
    return simultaneous_limit(builtin("sqrt_prod"), schedule, delta=0.01)


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_rows_at_block_edges_match_the_plain_writer(tmp_path, n):
    rows = [["k", "value"]] + [[str(i), repr(i / 7)] for i in range(n)]
    write_csv_atomic(tmp_path / "t.csv", iter(rows))
    assert (tmp_path / "t.csv").read_text() == joined(rows)


def test_no_rows_write_an_empty_file(tmp_path):
    write_csv_atomic(tmp_path / "t.csv", [])
    assert (tmp_path / "t.csv").read_text() == ""


def test_levels_300_bracket_matches_the_plain_writer(tmp_path, levels_300_bracket):
    rows = list(levels_300_bracket.samples_csv_rows())
    assert len(rows) == 301 * 301 + 1
    write_csv_atomic(tmp_path / "bracket.csv", levels_300_bracket.samples_csv_rows())
    assert (tmp_path / "bracket.csv").read_text() == joined(rows)


def test_bracket_csv_across_block_edges_matches_the_plain_writer(tmp_path, monkeypatch):
    # 9 samples in blocks of 4 rows, with -0.0 and both infinities among the values
    for module in (ioutil, limits):
        monkeypatch.setattr(module, "CSV_BLOCK_ROWS", 4)
    shells = [2, 0, 1, 1, 2, 2, 1, 0, 2]
    points = [[2.0, -0.0], [0.0, 0.0], [1.0, 0.5], [-0.0, 1.0], [2.0, 1.0], [0.5, 2.0],
              [1.0, -0.0], [-0.0, 0.0], [0.0, 2.0]]
    ratios = [math.inf, 0.5, -0.0, -math.inf, 1 / 3, 0.0, 2.0, 7.0, -1.5]
    bracket = LimitBracket(best_upper=-math.inf, tail_estimate=-1.5, status="converged",
                           delta=0.01, shell=None, threshold_point=None, evaluations=9,
                           shells=np.array(shells), points=np.array(points),
                           ratios=np.array(ratios))
    # by shell, then point, -0.0 and 0.0 tying in stream order, as np.lexsort keeps them
    order = sorted(range(9), key=lambda k: (shells[k], *points[k]))
    rows = [["shell", "x1", "x2", "ratio"]] + [
        [repr(shells[k]), *map(repr, points[k]), repr(ratios[k])] for k in order]
    assert [list(row) for row in bracket.samples_csv_rows()] == rows
    write_csv_atomic(tmp_path / "bracket.csv", bracket.samples_csv_rows())
    assert (tmp_path / "bracket.csv").read_text() == "\n".join(",".join(r) for r in rows) + "\n"


def failing_rows(blocks: int):
    """Rows that raise once more than `blocks` whole blocks have been taken."""
    for i in range(blocks * CSV_BLOCK_ROWS + 1):
        yield [str(i), "x"]
    raise RuntimeError("row source failed")


def test_failed_stream_leaves_no_new_target(tmp_path):
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv_atomic(tmp_path / "t.csv", failing_rows(2))
    assert list(tmp_path.iterdir()) == []


def test_failed_stream_leaves_an_existing_target_unchanged(tmp_path):
    target = tmp_path / "t.csv"
    target.write_bytes(b"old,contents\n")
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv_atomic(target, failing_rows(2))
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert target.read_bytes() == b"old,contents\n"


def test_writing_the_levels_300_bracket_holds_no_whole_grid(tmp_path, levels_300_bracket):
    # deterministic memory guard: the grid's text alone is 5.6 MB, and the
    # whole-grid writer peaked at 24 MB (list of rows, then one string)
    tracemalloc.start()
    try:
        write_csv_atomic(tmp_path / "bracket.csv", levels_300_bracket.samples_csv_rows())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "bracket.csv").stat().st_size > 5_000_000
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"
