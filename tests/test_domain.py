"""Core geometry: points, step decomposition, schedules, extended reals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fekete_lab.domain import (
    DomainError,
    GridSchedule,
    IndeterminateFormError,
    Point,
    ScheduleError,
    qr_decompose,
)
from fekete_lab.registry import exceeds, ext_add
from fekete_lab.sampling import uniform_in


def test_qr_examples():
    assert (qr_decompose(7, 2).q, qr_decompose(7, 2).r) == (2, 3.0)
    assert (qr_decompose(4, 2).q, qr_decompose(4, 2).r) == (1, 2.0)
    assert (qr_decompose(5, 2).q, qr_decompose(5, 2).r) == (1, 3.0)


def test_qr_rejects_small_x():
    with pytest.raises(DomainError):
        qr_decompose(3.9, 2.0)
    with pytest.raises(DomainError):
        qr_decompose(5.0, 0.0)


@settings(max_examples=500)
@given(t=st.floats(min_value=1e-3, max_value=1e3),
       mult=st.floats(min_value=2.0, max_value=1e6))
def test_qr_invariants_random(t, mult):
    x = t * mult
    d = qr_decompose(x, t)
    ulp = math.ulp(max(abs(x), 1.0))
    assert d.q >= 1
    assert t - ulp <= d.r < 2 * t
    assert abs(d.q * t + d.r - x) <= ulp
    # the step count tracks x/t: |q/x - 1/t| < 2/x always
    assert abs(d.q / x - 1.0 / t) < 2.0 / x + 1e-12


@given(k=st.integers(min_value=1, max_value=40),
       t=st.floats(min_value=0.5, max_value=100.0))
def test_qr_ratio_bound_on_doubling_ladder(k, t):
    x = (2.0 ** k) * t
    d = qr_decompose(x, t)
    assert abs(d.q / x - 1.0 / t) <= 2.0 * t / x + 1e-15


def test_qr_bulk_stream():
    for j in range(10_000):
        t = uniform_in(5, 2 * j, 1e-2, 10.0)
        x = 2 * t + uniform_in(5, 2 * j + 1, 0.0, 1e4)
        d = qr_decompose(x, t)
        assert d.q >= 1 and t - math.ulp(x) <= d.r < 2 * t
        assert abs(d.q * t + d.r - x) <= math.ulp(max(x, 1.0))


def test_schedule_values_increase_and_defaults():
    s = GridSchedule(base=Point((1.0, 3.0)))
    assert s.growth == 2.0 and s.levels == 40
    for axis in range(2):
        vals = s.axis_values(axis)
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert len(vals) == 41


def test_schedule_integer_mode():
    s = GridSchedule(base=Point((1.0,)), growth=2.0, levels=10)
    assert s.axis_values(0, integer=True) == [2 ** k for k in range(11)]
    with pytest.raises(DomainError):
        GridSchedule(base=Point((1.5,)), levels=4).axis_values(0, integer=True)


def test_schedule_rejects_bad_parameters():
    with pytest.raises(DomainError):
        GridSchedule(base=Point((0.0,)))
    with pytest.raises(DomainError):
        GridSchedule(base=Point((1.0,)), growth=1.0)


def test_only_the_level_walk_refuses_levels_past_1e300():
    # 40 levels of growth 1e20 pass 1e300 at level 16: axis_values refuses
    # them, while the tail ladder, which stops below 1e300, is unaffected
    s = GridSchedule(base=Point((1.0,)), growth=1e20)
    with pytest.raises(ScheduleError, match="schedule coordinate overflowed; reduce levels"):
        s.axis_values(0)
    assert s.tail_values(0) == [1e20 ** k for k in range(16)]
    assert GridSchedule(base=Point((1.0,)), growth=1e20, levels=15).axis_values(0) == \
        s.tail_values(0)


def test_extended_reals():
    assert ext_add(math.inf, 5.0) == math.inf
    with pytest.raises(IndeterminateFormError):
        ext_add(math.inf, -math.inf)


# the corners of the extended reals: infinities, signed zeros, the smallest
# subnormal and normal, and the largest finite floats
EXTREMES = st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
                            2.0 ** -1022, 1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308,
                            -1.7976931348623157e308])
EXTENDED = st.one_of(EXTREMES, st.floats(allow_nan=False))


def _reference_exceeds(lhs: float, rhs: float) -> bool:
    tau = 0.0 if math.isinf(lhs) or math.isinf(rhs) else 2.0 ** -26 * max(1.0, abs(lhs),
                                                                          abs(rhs))
    return lhs > rhs + tau


@given(data=st.data(), shape=st.sampled_from(["scalar", "vector", "broadcast"]))
def test_exceeds_and_ext_add_agree_with_scalar_formulas_elementwise(data, shape):
    if shape == "scalar":
        a, b = data.draw(EXTENDED), data.draw(EXTENDED)
    elif shape == "vector":
        n = data.draw(st.integers(0, 6))
        a, b = (np.array(data.draw(st.lists(EXTENDED, min_size=n, max_size=n)), dtype=float)
                for _ in range(2))
    else:  # a column against a row
        a = np.array(data.draw(st.lists(EXTENDED, min_size=1, max_size=4)))[:, None]
        b = np.array(data.draw(st.lists(EXTENDED, min_size=1, max_size=4)))
    pairs = [(float(x), float(y)) for x, y in zip(*(np.ravel(v) for v in
                                                     np.broadcast_arrays(a, b)))]
    verdict = exceeds(a, b)
    assert np.shape(verdict) == np.broadcast_shapes(np.shape(a), np.shape(b))
    assert np.ravel(verdict).tolist() == [_reference_exceeds(x, y) for x, y in pairs]
    clashes = [(x, y) for x, y in pairs if math.isinf(x) and math.isinf(y) and x != y]
    if clashes:
        with pytest.raises(IndeterminateFormError) as raised:
            ext_add(a, b)
        x, y = clashes[0]
        assert str(raised.value) == f"indeterminate sum {x!r} + {y!r}"
        return
    total = ext_add(a, b)
    assert list(map(repr, np.ravel(total).tolist())) == [repr(x + y) for x, y in pairs]
    if shape == "scalar":
        assert type(total) is float


def test_ext_add_names_the_first_clash_as_python_floats():
    with pytest.raises(IndeterminateFormError, match=r"^indeterminate sum -inf \+ inf$"):
        ext_add(np.array([1.0, -math.inf, math.inf]), np.array([math.inf, math.inf, -math.inf]))


def test_point_validation():
    with pytest.raises(DomainError):
        Point(())
    with pytest.raises(DomainError):
        Point((1.0, math.inf))
