"""Level-set measures, the 2^-d box-fraction inequality, the minimum-denominator function."""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from fekete_lab.domain import DomainError, Point
from fekete_lab.levelset import (
    LevelSetSpec,
    check_levelset_lemma,
    levelset_measure,
    rubin_eval,
    rubin_unboundedness_demo,
)
from fekete_lab.registry import Domain, FunctionOracle, builtin
from fekete_lab.sampling import integer_in, uniform_in
from known_limits import BUILTINS, FAMILY, PRODUCTS_3D

SQRT = builtin("sqrt_prod")

# closed form for mu{(x, y) in (0,1)^2 : x*y >= c}: 1 - c(1 - ln c)
def _area_product_above(c: float) -> float:
    return 1.0 - c * (1.0 - math.log(c))


def test_grid_quadrature_matches_analytic_integral():
    spec = LevelSetSpec(t=Point((1.0, 1.0)), k=0.25)
    est = levelset_measure(SQRT, spec, "grid", cells=800)
    analytic = _area_product_above(1.0 / 16.0)
    assert abs(est.value - analytic) <= est.error_bound
    assert est.error_bound <= 0.01


def test_constant_oracle_edge_cases():
    const = FunctionOracle(name="one", domain=Domain(dim=2),
                           array_fn=lambda x1, x2: np.ones_like(x1))
    full = levelset_measure(const, LevelSetSpec(t=Point((1.0, 1.0)), k=0.5),
                            "grid", cells=50)
    assert full.value == 1.0 and full.error_bound == 0.0
    empty = levelset_measure(const, LevelSetSpec(t=Point((1.0, 1.0)), k=2.0),
                             "grid", cells=50)
    assert empty.value == 0.0 and empty.error_bound == 0.0


def test_the_error_bound_counts_the_cells_whose_corners_disagree():
    # a plain loop over every cell and its 2^d corners, on the corner grid
    # of the quadrature, whose zero corner is nudged into the open box
    cells = 6
    for oracle, t in ((builtin("ceiling"), (3.0,)), (SQRT, (1.0, 2.0)),
                      (builtin("x1sq_sqrt_x2"), (2.0, 3.0)),
                      (PRODUCTS_3D["ceil*3x_plus_1*ceil_2x_half"].oracle, (1.0, 1.5, 2.0))):
        spec = LevelSetSpec(t=Point(t), k=oracle.evaluate(Point(t)) / 2 ** len(t))
        axes = [[i * (c / cells) if i else c / cells * 1e-9 for i in range(cells + 1)]
                for c in t]
        disagree = 0
        for cell in itertools.product(range(cells), repeat=len(t)):
            corners = [Point(tuple(axis[i + o] for axis, i, o in zip(axes, cell, offset)))
                       for offset in itertools.product((0, 1), repeat=len(t))]
            verdicts = {oracle.evaluate(corner) >= spec.k for corner in corners}
            disagree += len(verdicts) == 2
        assert disagree > 0, oracle.name
        est = levelset_measure(oracle, spec, "grid", cells=cells)
        assert est.error_bound == disagree * (spec.box_volume / cells ** len(t)), oracle.name


def test_monte_carlo_agrees_with_quadrature():
    spec = LevelSetSpec(t=Point((1.0, 1.0)), k=0.25)
    grid = levelset_measure(SQRT, spec, "grid", cells=400)
    mc = levelset_measure(SQRT, spec, "mc", samples=20_000, seed=11)
    assert abs(grid.value - mc.value) <= grid.error_bound + mc.error_bound
    assert 0.0 <= mc.value <= spec.box_volume


def test_measure_is_monotone_in_threshold():
    ks = [0.05, 0.1, 0.25, 0.5, 0.9]
    estimates = [levelset_measure(SQRT, LevelSetSpec(t=Point((1.0, 1.0)), k=k),
                                  "grid", cells=300) for k in ks]
    for lo, hi in zip(estimates, estimates[1:]):
        assert lo.value + lo.error_bound >= hi.value - hi.error_bound


def test_lemma_margin_at_unit_anchor():
    rows = check_levelset_lemma(SQRT, [(1.0, 1.0)], cells=800)
    row = rows[0]
    assert row.k == 0.25 and row.bound == 0.25
    expected_margin = _area_product_above(1.0 / 16.0) - 0.25
    assert abs(row.margin - expected_margin) <= row.estimate.error_bound
    assert row.holds and row.margin > 0


def test_lemma_holds_at_random_anchors_for_real_csa_builtins():
    for name, (oracle, componentwise, _) in BUILTINS.items():
        if not componentwise or oracle.domain.integer:
            continue
        dim = oracle.domain.dim
        anchors = [
            tuple(uniform_in(23, j * dim + i, 0.5, 4.0) for i in range(dim))
            for j in range(10)
        ]
        rows = check_levelset_lemma(oracle, anchors, cells=400)
        for row in rows:
            assert row.holds, (name, row.anchor, row.margin)
            # |x| attains the bound with equality; the others clear it strictly
            if name != "abs":
                assert row.margin + row.estimate.error_bound > 0


def test_the_lemma_holds_on_the_known_limit_family():
    for name, known in FAMILY.items():
        for row in check_levelset_lemma(known.oracle, [(1.0, 1.0), (3.0, 7.0)]):
            assert row.holds, (name, row.anchor, row.margin)


def test_lemma_rejects_integer_domains():
    with pytest.raises(DomainError):
        check_levelset_lemma(builtin("full_shift_count_log"), [(1, 1)])


def test_unboundedness_demo_diagonal_values():
    demo = rubin_unboundedness_demo(50)
    for n, (point, value) in enumerate(demo.diagonal, start=1):
        assert point == (1 + Fraction(1, n), 1 + Fraction(1, n))
        assert value == n
    assert demo.diagonal[0][1] == 1  # the point (2, 2)
    assert demo.ok


def test_unboundedness_demo_lines_stay_bounded():
    demo = rubin_unboundedness_demo(10)
    assert len(demo.line_scans) == 20
    for scan in demo.line_scans:
        assert scan.max_value <= scan.denominator_bound
        assert scan.ok
    fixed = next(s for s in demo.line_scans if s.x == Fraction(3, 2))
    assert fixed.denominator_bound == 2


def test_rubin_eval_examples():
    assert rubin_eval((Fraction(6, 5), Fraction(6, 5))) == 5.0
    assert rubin_eval((2, 3)) == 1.0
    assert rubin_eval((Fraction(2, 1), Fraction(3, 1))) == 1.0


def test_rubin_zero_denominator_is_an_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


def test_rubin_agrees_with_brute_force_denominator_search():
    # brute force: smallest q <= 10^4 with q*x integral
    def brute_denominator(x: Fraction) -> int:
        for q in range(1, 10_001):
            if (x * q).denominator == 1:
                return q
        raise AssertionError("denominator not found")

    for j in range(1000):
        q = integer_in(31, 2 * j, 1, 500)
        p = integer_in(31, 2 * j + 1, 1, 500)
        x = Fraction(p, q)
        assert rubin_eval((x, x)) == brute_denominator(x)


def test_an_anchor_whose_box_volume_overflows_is_refused():
    for t in ((1e200, 1e200), (1e103, 1e103, 1e103)):
        with pytest.raises(DomainError, match="which is not finite"):
            LevelSetSpec(t=Point(t), k=1.0)
    assert math.isfinite(LevelSetSpec(t=Point((1e154, 1e154)), k=1.0).box_volume)


def test_an_anchor_whose_box_volume_is_zero_or_subnormal_is_refused():
    # 1e-400 rounds to 0 and 1e-310 is subnormal: either would make the margin vacuous
    for t in ((1e-200, 1e-200), (1e-155, 1e-155), (1e-104, 1e-104, 1e-104)):
        assert Point(t).product() < sys.float_info.min
        with pytest.raises(DomainError, match="below the smallest normal float"):
            LevelSetSpec(t=Point(t), k=1.0)
    assert LevelSetSpec(t=Point((1e-150, 1e-150)), k=1.0).box_volume >= sys.float_info.min


def test_a_grid_whose_cell_volume_is_subnormal_is_refused():
    # the box volume 1e-306 is normal, but each of 400^2 cells has 6.25e-312
    spec = LevelSetSpec(t=Point((1e-153, 1e-153)), k=0.0)
    with pytest.raises(DomainError, match=r"cell volume 6\.25e-312, which is below the "
                                          r"smallest normal float"):
        levelset_measure(SQRT, spec, "grid", cells=400)
    # Monte Carlo has no cells, and fewer cells are normal again
    assert levelset_measure(SQRT, spec, "mc", samples=1000).value == spec.box_volume
    assert levelset_measure(SQRT, spec, "grid", cells=2).error_bound == 0.0
    # at 1e-151 the cells have 6.25e-308, just above the smallest normal float
    near = LevelSetSpec(t=Point((1e-151, 1e-151)), k=0.0)
    est = levelset_measure(SQRT, near, "grid", cells=400)
    assert est.value == 400 ** 2 * (near.box_volume / 400 ** 2) and est.error_bound == 0.0


def test_monte_carlo_value_stays_finite_when_volume_times_hits_overflows():
    spec = LevelSetSpec(t=Point((1e154, 1e154)), k=0.0)  # every sample is a hit
    est = levelset_measure(SQRT, spec, "mc", samples=1000)
    assert spec.box_volume * 1000 == math.inf
    assert est.value == spec.box_volume
    # below the overflow the estimate is vol * hits / samples, as it always was
    small = LevelSetSpec(t=Point((3.0, 7.0)), k=2.0)
    est = levelset_measure(SQRT, small, "mc", samples=1000, seed=5)
    hits = round(est.value / small.box_volume * 1000)
    assert est.value == small.box_volume * hits / 1000
