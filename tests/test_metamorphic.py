"""Metamorphic relations: exact relations between runs on related functions.

Dyadic scaling of values: 4·f is f with every value times 4, exactly in
floating point, so every ratio, bound and margin of 4·f is 4 times f's,
bit for bit.  The violation tolerance has a floor of 1, which is not
scale-free, so verdicts are compared only where both sides exceed 1 in
magnitude.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fekete_lab.checks import check_componentwise, check_four_term
from fekete_lab.domain import GridSchedule, Point
from fekete_lab.limits import simultaneous_limit
from fekete_lab.registry import FunctionOracle, builtin, builtin_names
from fekete_lab.sampling import SampleBudget

REAL = [builtin(name) for name in builtin_names() if not builtin(name).domain.integer]


def times_four(f: FunctionOracle) -> FunctionOracle:
    return FunctionOracle(name=f"4*{f.name}", domain=f.domain,
                          array_fn=lambda *columns: 4.0 * f.array_fn(*columns))


@settings(max_examples=15, deadline=None)
@given(f=st.sampled_from(REAL), growth=st.sampled_from([1.5, 2.0, 3.0]),
       levels=st.integers(min_value=2, max_value=16),
       delta=st.sampled_from([1e-3, 0.01, 0.1, 1.0]))
def test_scaling_values_by_four_scales_the_bracket_exactly(f, growth, levels, delta):
    schedule = GridSchedule(base=Point((1.0,) * f.domain.dim), growth=growth, levels=levels)
    # the convergence test compares differences of ratios with delta, so delta scales too
    plain = simultaneous_limit(f, schedule, delta)
    scaled = simultaneous_limit(times_four(f), schedule, 4 * delta)
    assert np.array_equal(scaled.ratios, 4 * plain.ratios)
    assert scaled.best_upper == 4 * plain.best_upper
    assert (scaled.status, scaled.shell) == (plain.status, plain.shell)


def _listed(report, factor: float) -> list[tuple]:
    """The listed violations whose sides both exceed factor in magnitude, in order,
    each as (axis, witness, lhs, rhs, margin) with its values divided by factor."""
    return [(v.axis, v.witness, v.lhs / factor, v.rhs / factor, v.margin / factor)
            for v in report.violations if min(abs(v.lhs), abs(v.rhs)) > factor]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_scaling_values_by_four_keeps_the_witnesses_and_scales_the_margins(seed):
    budget = SampleBudget(count=500, seed=seed)
    compared = 0
    for f in REAL:
        for check in (check_componentwise, check_four_term):
            plain, scaled = check(f, budget), check(times_four(f), budget)
            assert _listed(scaled, 4.0) == _listed(plain, 1.0), (f.name, check.__name__)
            compared += len(_listed(plain, 1.0))
    assert compared  # neg_x1_sqrt_x2 and x1sq_sqrt_x2 violate both inequalities
