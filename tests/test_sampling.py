"""Counter-based stream: reproducibility and range discipline."""

from __future__ import annotations

import numpy as np
import pytest

from fekete_lab.domain import DomainError
from fekete_lab.sampling import SampleBudget, integer_in, raw64, uniform_in, unit_uniform


def test_same_seed_same_stream():
    a = [raw64(123, i) for i in range(100)]
    b = [raw64(123, i) for i in range(100)]
    assert a == b


def test_different_counters_decorrelate():
    vals = {raw64(7, i) for i in range(1000)}
    assert len(vals) == 1000


def test_unit_uniform_in_range():
    for i in range(1000):
        u = unit_uniform(42, i)
        assert 0.0 <= u < 1.0


def test_uniform_in_respects_bounds():
    for i in range(1000):
        v = uniform_in(9, i, -3.0, 5.0)
        assert -3.0 <= v < 5.0
    with pytest.raises(DomainError):
        uniform_in(9, 0, 2.0, 2.0)


def test_integer_in_hits_all_values():
    seen = {integer_in(1, i, 1, 4) for i in range(200)}
    assert seen == {1, 2, 3, 4}


@pytest.mark.parametrize("seed", [-1, 0, 2**64 + 5, 2024])
def test_array_draws_equal_scalar_draws(seed):
    counters = np.arange(3000, dtype=np.uint64)
    draws = [
        (unit_uniform, ()),
        (uniform_in, (-3.0, 5.0)),
        (integer_in, (-100, 100)),
    ]
    for draw, bounds in draws:
        batch = draw(seed, counters, *bounds).tolist()
        assert batch == [draw(seed, j, *bounds) for j in range(3000)]


def test_budget_validation():
    with pytest.raises(DomainError):
        SampleBudget(count=0)
