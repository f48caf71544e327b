"""Deterministic counter-based sample streams.

Sample j is a pure function of (seed, j): there is no generator state to
advance, so identical budgets reproduce identical streams regardless of
evaluation order, chunking, or platform.  The mixer is the standard
splitmix64 finalizer over a Weyl sequence, which is cheap, well
distributed, and trivially portable across languages.  A draw takes one
counter or a numpy uint64 array of counters; an array draw equals the
scalar draws element for element.
"""

from __future__ import annotations

import numpy as np

from .domain import DomainError, _Record

__all__ = ["raw64", "unit_uniform", "uniform_in", "integer_in", "SampleBudget"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def raw64(seed: int, counter: int | np.ndarray) -> int | np.ndarray:
    """The counter-th 64-bit word of the stream for this seed (any int, taken mod 2^64)."""
    z = ((seed & _MASK) + (counter + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def unit_uniform(seed: int, counter: int | np.ndarray) -> float | np.ndarray:
    """Uniform float in [0, 1) with 53 random bits."""
    return (raw64(seed, counter) >> 11) * 2.0 ** -53


def uniform_in(seed: int, counter: int | np.ndarray, lo: float, hi: float) -> float | np.ndarray:
    if not lo < hi:
        raise DomainError(f"empty sampling range [{lo!r}, {hi!r})")
    return lo + unit_uniform(seed, counter) * (hi - lo)


def integer_in(seed: int, counter: int | np.ndarray, lo: int, hi: int) -> int | np.ndarray:
    """Uniform integer in the inclusive range [lo, hi] (int64 for counter arrays)."""
    if lo > hi:
        raise DomainError(f"empty integer range [{lo}, {hi}]")
    offset = raw64(seed, counter) % (hi - lo + 1)
    return lo + (offset.astype(np.int64) if isinstance(offset, np.ndarray) else offset)


class SampleBudget(_Record):
    """Reproducible sampling budget: (seed, count) fixes the stream.

    The range each axis draws from is not part of the budget: the
    consumer takes it from the domain alone (0.1..100 per positive axis).
    """

    count: int
    seed: int

    def __init__(self, count: int = 10_000, seed: int = 2024) -> None:
        super().__init__(count, seed)
        if self.count < 1:
            raise DomainError(f"sample count must be positive, got {self.count!r}")
