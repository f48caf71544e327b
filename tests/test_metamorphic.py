"""Metamorphic relations: exact relations between runs on related functions.

Dyadic scaling of values: 4·f is f with every value times 4, exactly in
floating point, so every ratio, bound and margin of 4·f is 4 times f's,
bit for bit.  The violation tolerance has a floor of 1, which is not
scale-free, so verdicts are compared only where both sides exceed 1 in
magnitude.  On a table whose values are all at least 1 in magnitude the
floor never applies, because the left side is always one value, so every
hit and every listed witness is the same for 4·T as for T.

Axis permutation: g(x1, x2) = f(x2, x1) walks the same grid transposed
and multiplies the same two coordinates, so g's simultaneous bracket is
f's, g's iterated order (1, 0) is f's order (0, 1), and g's diagonal with
powers (2, 1) is f's with powers (1, 2), bit for bit.  The four-term
inequality is symmetric under the swap, so the four-term check is clean
on g exactly where it is clean on f; the hit counts are not compared,
because g's draws are f's at swapped points.  It runs over the 2-D
built-ins and the known-limit family.

Dyadic dilation of variables: g(x1, x2) = f(2·x1, 4·x2) on the schedule
base (1/2, 1/4) samples f at f's own points, and divides by their
coordinate product over 8, exactly, so every ratio of g in every limit
mode is 8 times f's, bit for bit, with delta scaled by 8 as well.  On the
ray, g(x) = f(4·x) with the path starting at t = 1/4 divides by t over 4,
so every ratio is 4 times f's.  This pins the one ratio rule of the
estimators: f at each sample over the product of its coordinates, or
over t on the ray.

Adding a multilinear term: c·x1·x2 is additive in each variable and
satisfies the four-term identity with equality, so g = f + c·x1·x2 has
f's componentwise and four-term hits, and each ratio of g is f's plus c
up to rounding.  Joint verdicts do change, so they are not compared.  On
an integer table whose values, with the term added, stay below 2^26 in
magnitude, every sum is exact and the violation tolerance stays below 1,
so g's hits, listed witnesses and margins are f's, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fekete_lab.checks import check_componentwise, check_four_term
from fekete_lab.domain import GridSchedule, Point
from fekete_lab.limits import (IteratedLimit, LimitBracket, diagonal_limit, iterated_limit,
                               ray_limit, simultaneous_limit)
from fekete_lab.registry import FunctionOracle, builtin, builtin_names, tabulated_oracle
from fekete_lab.sampling import SampleBudget
from known_limits import BUILTINS, FAMILY

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


@st.composite
def tables(draw) -> tuple[tuple[range, range], list[float]]:
    """Axes 1..n1 and 1..n2, and finite values of magnitude at least 1."""
    n1, n2 = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    value = st.one_of(st.floats(1.0, 1e6), st.floats(-1e6, -1.0))
    values = draw(st.lists(value, min_size=n1 * n2, max_size=n1 * n2))
    return (range(1, n1 + 1), range(1, n2 + 1)), values


@settings(max_examples=30, deadline=None)
@given(table=tables(), seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_scaling_a_table_by_four_keeps_every_hit_and_scales_the_margins(table, seed):
    axes, values = table
    budget = SampleBudget(count=200, seed=seed)
    for check in (check_componentwise, check_four_term):
        plain = check(tabulated_oracle(axes, values), budget)
        scaled = check(tabulated_oracle(axes, [4.0 * v for v in values]), budget)
        assert scaled.hit_count == plain.hit_count, check.__name__
        assert ([v.witness for v in scaled.violations]
                == [v.witness for v in plain.violations]), check.__name__
        assert ([v.margin for v in scaled.violations]
                == [4.0 * v.margin for v in plain.violations]), check.__name__


PLANAR = [k.oracle for k in (*BUILTINS.values(), *FAMILY.values()) if k.oracle.domain.dim == 2]


def swap_axes(f: FunctionOracle) -> FunctionOracle:
    return FunctionOracle(name=f"swap({f.name})", domain=f.domain,
                          array_fn=lambda x1, x2: f.array_fn(x2, x1))


def _axes_swapped(it: IteratedLimit) -> dict:
    """it.to_json_dict() with axes 0 and 1 exchanged in the order and the levels."""
    out = it.to_json_dict()
    return {**out, "order": [1 - a for a in out["order"]],
            "levels": [{**level, "axis": 1 - level["axis"]} for level in out["levels"]]}


@pytest.mark.parametrize("f", PLANAR, ids=lambda f: f.name)
def test_swapping_the_axes_transposes_every_limit_mode(f):
    g = swap_axes(f)
    # an integer ladder needs growth >= 2 (a 1.3 ladder repeats rounded rungs)
    for growth in (2.0,) if f.domain.integer else (2.0, 1.3):
        grid = GridSchedule(base=Point((1.0, 1.0)), growth=growth)
        plain, swapped = simultaneous_limit(f, grid), simultaneous_limit(g, grid)
        assert swapped == plain
        side = grid.levels + 1
        assert np.array_equal(swapped.ratios.reshape(side, side),
                              plain.ratios.reshape(side, side).T)

        for order in ((0, 1), (1, 0)):
            assert (iterated_limit(g, order[::-1], grid).to_json_dict()
                    == _axes_swapped(iterated_limit(f, order, grid)))

        path = GridSchedule(base=Point((1.0,)), growth=growth)
        plain, swapped = diagonal_limit(f, (1, 2), path), diagonal_limit(g, (2, 1), path)
        assert swapped == plain
        assert np.array_equal(swapped.points, plain.points[:, ::-1])
        assert np.array_equal(swapped.ratios, plain.ratios)

    for seed in (1, 2, 3):
        budget = SampleBudget(2000, seed)
        assert check_four_term(g, budget).clean == check_four_term(f, budget).clean, seed


def dilate(f: FunctionOracle, factors: tuple[float, ...]) -> FunctionOracle:
    return FunctionOracle(name=f"dilate({f.name})", domain=f.domain,
                          array_fn=lambda *xs: f.array_fn(*(c * x for c, x in zip(factors, xs))))


def _assert_scaled_bracket(dilated: LimitBracket, plain: LimitBracket, factor: float) -> None:
    assert np.array_equal(dilated.ratios, factor * plain.ratios)
    assert (dilated.best_upper, dilated.tail_estimate) == (factor * plain.best_upper,
                                                           factor * plain.tail_estimate)
    assert (dilated.status, dilated.shell, dilated.evaluations) == (
        plain.status, plain.shell, plain.evaluations)


def _dilated_levels(it: IteratedLimit, factors: tuple[float, ...], factor: float) -> dict:
    """it.to_json_dict() as the dilated run reports it: the value and the tolerances
    times factor, and each axis's stabilizing coordinate divided by its dilation."""
    out = it.to_json_dict()
    return {**out, "value": factor * out["value"], "levels": [
        {**level, "tol": factor * level["tol"],
         "stabilized_at": None if level["stabilized_at"] is None
         else level["stabilized_at"] / factors[level["axis"]]}
        for level in out["levels"]]}


PLANAR_REAL = [f for f in PLANAR if not f.domain.integer]


@settings(max_examples=25, deadline=None)
@given(f=st.sampled_from(PLANAR_REAL), growth=st.sampled_from([2.0, 1.3]))
def test_dilating_the_variables_scales_every_ratio_exactly(f, growth):
    factors, delta = (2.0, 4.0), 0.01
    g = dilate(f, factors)
    plain_grid = GridSchedule(base=Point((1.0, 1.0)), growth=growth, levels=12)
    dilated_grid = GridSchedule(base=Point((0.5, 0.25)), growth=growth, levels=12)
    _assert_scaled_bracket(simultaneous_limit(g, dilated_grid, 8 * delta),
                           simultaneous_limit(f, plain_grid, delta), 8.0)
    for order in ((0, 1), (1, 0)):
        assert (iterated_limit(g, order, dilated_grid, 8 * delta).to_json_dict()
                == _dilated_levels(iterated_limit(f, order, plain_grid, delta), factors, 8.0))
    _assert_scaled_bracket(
        diagonal_limit(g, (1, 2), GridSchedule(base=Point((0.5,)), growth=growth, levels=12),
                       8 * delta),
        diagonal_limit(f, (1, 2), GridSchedule(base=Point((1.0,)), growth=growth, levels=12),
                       delta), 8.0)


@settings(max_examples=10, deadline=None)
@given(f=st.sampled_from(PLANAR_REAL),
       direction=st.sampled_from([(1.0, 1.0), (1.0, 3.0), (0.5, 2.0)]))
def test_dilating_the_ray_scales_every_ratio_exactly(f, direction):
    plain = ray_limit(f, direction, GridSchedule(base=Point((1.0,)), levels=12), 0.01)
    dilated = ray_limit(dilate(f, (4.0, 4.0)), direction,
                        GridSchedule(base=Point((0.25,)), levels=12), 0.04)
    _assert_scaled_bracket(dilated, plain, 4.0)


# componentwise and four-term hit counts at SampleBudget(5000, 3) of the three
# real 2-D built-ins, as measured at 991dbb1
MULTILINEAR_HITS = {"sqrt_prod": (0, 0), "neg_x1_sqrt_x2": (5081, 5081),
                    "x1sq_sqrt_x2": (5081, 4145)}
# g's ratio (f(x) + (c·x1)·x2) / (x1·x2) takes five roundings and f's one, each
# at most 2^-53 relative, so to first order g's ratio is within
# 6·2^-53·(|f's ratio| + |c|) of f's plus c; the test allows 8·2^-53, for every
# ratio and for their minimum, best_upper
MULTILINEAR_ROUNDING = 2.0 ** -50


def plus_multilinear(f: FunctionOracle, c: float) -> FunctionOracle:
    return FunctionOracle(name=f"{f.name}+{c}*x1*x2", domain=f.domain,
                          array_fn=lambda x1, x2: f.array_fn(x1, x2) + c * x1 * x2)


@pytest.mark.parametrize("name", sorted(MULTILINEAR_HITS))
def test_adding_a_multilinear_term_keeps_the_hits_and_adds_c_to_the_limit(name):
    f, budget = builtin(name), SampleBudget(5000, 3)
    hits = (check_componentwise(f, budget).hit_count, check_four_term(f, budget).hit_count)
    assert hits == MULTILINEAR_HITS[name]
    plain = simultaneous_limit(f)
    for c in (0.5, -0.5, 3.0):
        g = plus_multilinear(f, c)
        assert (check_componentwise(g, budget).hit_count,
                check_four_term(g, budget).hit_count) == hits, c
        moved = simultaneous_limit(g)
        assert np.all(np.abs(moved.ratios - (plain.ratios + c))
                      <= MULTILINEAR_ROUNDING * (np.abs(plain.ratios) + abs(c))), c
        assert (abs(moved.best_upper - (plain.best_upper + c))
                <= MULTILINEAR_ROUNDING * (abs(plain.best_upper) + abs(c))), c


@st.composite
def integer_tables(draw) -> tuple[tuple[range, range], list[int]]:
    """Axes 1..n1 and 1..n2, and integer values in [-1000, 1000]."""
    n1, n2 = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    values = draw(st.lists(st.integers(-1000, 1000), min_size=n1 * n2, max_size=n1 * n2))
    return (range(1, n1 + 1), range(1, n2 + 1)), values


@settings(max_examples=100, deadline=None)
@given(table=integer_tables(), c=st.integers(-1000, 1000),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_adding_a_multilinear_term_to_an_integer_table_keeps_every_hit_and_margin(
        table, c, seed):
    (axis1, axis2), values = table
    moved = [v + c * x1 * x2 for (x1, x2), v in zip(
        ((x1, x2) for x1 in axis1 for x2 in axis2), values)]
    budget = SampleBudget(count=200, seed=seed)
    for check in (check_componentwise, check_four_term):
        plain = check(tabulated_oracle((axis1, axis2), values), budget)
        added = check(tabulated_oracle((axis1, axis2), moved), budget)
        assert added.hit_count == plain.hit_count, check.__name__
        assert ([(v.witness, v.margin) for v in added.violations]
                == [(v.witness, v.margin) for v in plain.violations]), check.__name__


@pytest.mark.parametrize("name", sorted(FAMILY))
def test_adding_a_multilinear_term_to_a_family_product_keeps_the_hits(name):
    f, budget = FAMILY[name].oracle, SampleBudget(2000, 3)
    hits = (check_componentwise(f, budget).hit_count, check_four_term(f, budget).hit_count)
    plain = simultaneous_limit(f).best_upper
    for c in (0.5, -0.5, 3.0):
        g = plus_multilinear(f, c)
        assert (check_componentwise(g, budget).hit_count,
                check_four_term(g, budget).hit_count) == hits, c
        moved = simultaneous_limit(g).best_upper
        assert abs(moved - (plain + c)) <= MULTILINEAR_ROUNDING * (abs(plain) + abs(c)), c
