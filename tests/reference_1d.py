"""An independent one-dimensional word counter, for the tests only.

The package counts patterns with one frontier-window sweep
(fekete_lab.subshift._row_layers).  This module counts the words of a
one-dimensional subshift a second way, by window dynamic programming,
and builds the window transfer matrix with its float spectral radius:
the entropy reference of acceptance criterion 8.  It reads the
package's SftSpec, _window_1d and _check_caps, and never _placements,
_row_layers or count_patterns, so it stays independent of the sweep.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from fekete_lab.domain import DomainError
from fekete_lab.subshift import CapExceededError, SftSpec, _check_caps, _window_1d

MATRIX_STATE_CAP = 4096  # states of a dense transfer matrix: 128 MiB of float64


def _word_patterns_1d(sft: SftSpec) -> list[tuple[int, dict[int, int]]]:
    """Each pattern as (length, {position from word start: symbol})."""
    out = []
    for pat in sft.forbidden:
        lo = min(off[0] for off in pat.offsets)
        length = pat.extent(0)
        cells = {off[0] - lo: sym for off, sym in zip(pat.offsets, pat.symbols)}
        out.append((length, cells))
    return out


def _ends_forbidden(word: tuple[int, ...], patterns: list[tuple[int, dict[int, int]]]) -> bool:
    """Does some forbidden translate end exactly at the last cell of word?"""
    n = len(word)
    for length, cells in patterns:
        if length > n:
            continue
        start = n - length
        if all(word[start + pos] == sym for pos, sym in cells.items()):
            return True
    return False


def _successors_1d(suffix: tuple[int, ...], alphabet: int,
                   patterns: list[tuple[int, dict[int, int]]],
                   keep: int) -> Iterator[tuple[int, ...]]:
    """One window-DP step: for each symbol s that may follow suffix, the
    next state, the last keep symbols of suffix + (s,)."""
    for s in range(alphabet):
        word = suffix + (s,)
        if not _ends_forbidden(word, patterns):
            yield word[-keep:] if keep else ()


def _window_counts_1d(sft: SftSpec) -> Iterator[dict[tuple[int, ...], int]]:
    """Per-state count vectors c_0, c_1, ... of the window dynamic program.

    c_k maps each state, the last min(k, w-1) symbols, to the number of
    admissible length-k words ending in it; only positive counts are
    stored.  Each extension checks only the translates ending at the new
    cell.  From k = w-1 on, every state has w-1 symbols and
    c_k = T^t c_{k-1} for the window transfer matrix T.
    """
    keep = _window_1d(sft) - 1
    patterns = _word_patterns_1d(sft)
    counts: dict[tuple[int, ...], int] = {(): 1}
    while True:
        yield counts
        new: dict[tuple[int, ...], int] = {}
        for suffix, c in counts.items():
            for nxt in _successors_1d(suffix, sft.alphabet, patterns, keep):
                new[nxt] = new.get(nxt, 0) + c
        counts = new


def transfer_matrix_count_1d(sft: SftSpec, n: int) -> int:
    """Count admissible length-n words by window dynamic programming.

    The 1-D cross-check of the sweep that count_patterns and entropy_bounds
    count with.  States are the trailing w-1 symbols (see
    _window_counts_1d).  Below length w they are whole words, so the caps
    are checked first, on n cells with a frontier span of w-1.
    """
    if n < 1:
        raise DomainError(f"length must be >= 1, got {n!r}")
    _check_caps(sft, n, _window_1d(sft) - 1)
    counts = next(itertools.islice(_window_counts_1d(sft), n, None))
    return sum(counts.values())


def transfer_matrix_1d(sft: SftSpec) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """States and transition counts of the window transfer matrix.

    The states are the window DP's states at length w-1 (the admissible
    words of w-1 symbols), sorted; entry [u, v] counts the symbols that
    step u to v, so w = 1 gives [[number of allowed symbols]].  The caps
    are checked first, on the window: w cells with a span of w-1, and then
    each DP level, refused past MATRIX_STATE_CAP states before allocation.
    """
    keep = _window_1d(sft) - 1
    _check_caps(sft, keep + 1, keep)
    patterns = _word_patterns_1d(sft)
    for level, counts in zip(range(keep + 1), _window_counts_1d(sft)):
        if len(counts) > MATRIX_STATE_CAP:
            raise CapExceededError(
                f"window level {level} holds {len(counts)} states, more than the "
                f"{MATRIX_STATE_CAP} of a dense transfer matrix")
    states = sorted(counts)
    index = {s: i for i, s in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for u in states:
        for v in _successors_1d(u, sft.alphabet, patterns, keep):
            matrix[index[u], index[v]] += 1.0
    return states, matrix


def dominant_eigenvalue(matrix: np.ndarray) -> float:
    """Spectral radius, the largest eigenvalue modulus from numpy's eigenvalues.

    For a nonnegative matrix this is the Perron root, also when it sits
    in a Jordan block, where power iteration converges only as 1/steps.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DomainError("the spectral radius needs a nonempty square matrix")
    return float(np.abs(np.linalg.eigvals(m)).max())
