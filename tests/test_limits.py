"""Limit brackets on the main orthant: simultaneous, iterated, diagonal, ray."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from fekete_lab.domain import (
    DimensionMismatchError,
    DomainError,
    GridSchedule,
    Point,
    ScheduleError,
    default_schedule,
)
from fekete_lab.ioutil import write_csv_atomic
from fekete_lab.limits import (
    CONVERGED,
    DIVERGENCE_FLOOR,
    DIVERGING_MINUS,
    DIVERGING_PLUS,
    INCONCLUSIVE,
    LimitBracket,
    _adaptive_tail,
    diagonal_limit,
    iterated_limit,
    ray_limit,
    simultaneous_limit,
    verify_decomposition_bound,
)
from fekete_lab.registry import Domain, FunctionOracle, builtin
from fekete_lab.sampling import uniform_in
from known_limits import BUILTINS, FAMILY, PRODUCTS_3D, SUMS

SQRT = builtin("sqrt_prod")
FULL = builtin("full_shift_count_log")
MIXED = builtin("x1sq_sqrt_x2")
CSA_BUILTINS = tuple(name for name, known in BUILTINS.items() if known.componentwise)


def schedule2(levels=14):
    return GridSchedule(base=Point((1.0, 1.0)), levels=levels)


def test_sqrt_prod_simultaneous_converges_to_zero():
    bracket = simultaneous_limit(SQRT, schedule2(), delta=0.01)
    assert bracket.status == CONVERGED
    assert 0.0 <= bracket.best_upper <= 0.01
    assert bracket.evaluations == 15 * 15


def test_running_bound_is_nonincreasing():
    bracket = simultaneous_limit(SQRT, schedule2(), delta=0.01)
    bounds = [v for _, v in bracket.running_bound_by_shell()]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def test_best_upper_never_exceeds_tail_estimate():
    for name in CSA_BUILTINS:
        oracle = builtin(name)
        d = oracle.domain.dim
        bracket = simultaneous_limit(oracle, GridSchedule(base=Point((1.0,) * d), levels=12))
        assert bracket.best_upper <= bracket.tail_estimate
        assert (bracket.best_upper <= bracket.ratios).all()


def test_full_shift_constant_ratio():
    bracket = simultaneous_limit(FULL, schedule2(), delta=0.01)
    assert bracket.status == CONVERGED
    assert bracket.best_upper == 1.0
    assert bracket.shell == 0
    assert bracket.threshold_point == (1.0, 1.0)


def test_an_upper_set_spanning_exactly_delta_converges():
    # the ratio is 1.25 at x1 = 1 and 1 elsewhere, so shell 0's upper set spans 0.25
    step = FunctionOracle(name="step", domain=Domain(dim=2, positive=True),
                          array_fn=lambda x1, x2: x1 * x2 * np.where(x1 < 2, 1.25, 1.0))
    bracket = simultaneous_limit(step, schedule2(4), delta=0.25)
    assert (bracket.status, bracket.shell, bracket.best_upper) == (CONVERGED, 0, 1.0)
    assert simultaneous_limit(step, schedule2(4), delta=0.125).shell == 1


def test_best_upper_monotone_under_schedule_extension():
    for name in CSA_BUILTINS:
        oracle = builtin(name)
        d = oracle.domain.dim
        short = simultaneous_limit(oracle, GridSchedule(base=Point((1.0,) * d), levels=10))
        long = simultaneous_limit(oracle, GridSchedule(base=Point((1.0,) * d), levels=20))
        assert long.best_upper <= short.best_upper


def test_known_limits_are_bracketed_and_reached():
    for name in CSA_BUILTINS:
        oracle, _, limit = BUILTINS[name]
        d = oracle.domain.dim
        bracket = simultaneous_limit(oracle, GridSchedule(base=Point((1.0,) * d)))
        assert bracket.best_upper >= limit
        assert abs(bracket.best_upper - limit) <= 0.01


def test_the_known_limit_family_is_bracketed_above_and_reached_in_both_orders():
    # the running minimum of a subadditive ratio never falls below its infimum
    for name, (oracle, _, limit) in {**FAMILY, **SUMS, **PRODUCTS_3D}.items():
        assert simultaneous_limit(oracle).best_upper >= limit, name
        axes = tuple(range(oracle.domain.dim))
        for order in (axes, axes[::-1]):
            it = iterated_limit(oracle, order, delta=0.01)
            assert it.status == CONVERGED and limit <= it.value <= limit + 0.01, (name, it)


def test_crafted_divergence_flag():
    # ratio at x is -x: crosses the divergence floor once the ladder is deep enough
    oracle = FunctionOracle(name="neg_square",
                            domain=Domain(dim=1, positive=True),
                            array_fn=lambda x: -x * x)
    deep = simultaneous_limit(oracle, GridSchedule(base=Point((1.0,)), levels=45))
    assert deep.status == DIVERGING_MINUS  # default floor -1e12 crossed at 2^45


def test_mixed_curvature_simultaneous_is_inconclusive():
    bracket = simultaneous_limit(MIXED, GridSchedule(base=Point((1.0, 1.0)), levels=40))
    assert bracket.status == INCONCLUSIVE


def test_mixed_curvature_iterated_orders_disagree():
    lo = iterated_limit(MIXED, (0, 1), delta=0.01)
    assert lo.status == CONVERGED
    assert abs(lo.value) <= 0.01
    hi = iterated_limit(MIXED, (1, 0), delta=0.01)
    assert hi.status == DIVERGING_PLUS
    assert hi.value == math.inf
    assert all(l.status == DIVERGING_PLUS for l in hi.levels)


def test_iterated_agrees_with_simultaneous_for_subadditive_oracles():
    for oracle in (SQRT, FULL):
        sim = simultaneous_limit(oracle, schedule2(40), delta=0.01)
        for order in ((0, 1), (1, 0)):
            it = iterated_limit(oracle, order, delta=0.01)
            assert it.status == CONVERGED
            assert abs(it.value - sim.best_upper) <= 0.02


def test_iterated_rejects_repeated_integer_rungs():
    half = FunctionOracle(name="half_successor",
                          domain=Domain(dim=1, positive=True, integer=True),
                          array_fn=lambda n: (n + 1) / 2)
    # growth 1.1 rounds the first rungs to 1, 1, 1, 1, 1, 2, ...: not a ladder
    with pytest.raises(DomainError):
        iterated_limit(half, (0,), GridSchedule(base=Point((1.0,)), growth=1.1))
    scaled = FunctionOracle(name="scaled_half_successor",
                            domain=Domain(dim=2, positive=True, integer=True),
                            array_fn=lambda n1, n2: n1 * (n2 + 1) / 2)
    for order in ((0, 1), (1, 0)):
        with pytest.raises(DomainError):
            iterated_limit(scaled, order, GridSchedule(base=Point((1.0, 1.0)), growth=1.1))
    result = iterated_limit(half, (0,), GridSchedule(base=Point((1.0,)), growth=2.0))
    # 0.5 + 0.5/x: the last four rungs 128..1024 lie within tol 0.005 of the minimum
    assert result.status == CONVERGED and result.value == 0.50048828125
    assert result.evaluations == 11 and result.levels[0].last_stabilized_at == 1024.0


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_no_iterated_order_of_neg_x1_sqrt_x2_converges(order):
    # the ratio is -1/sqrt(x2): it rises toward its limit 0, away from the
    # running minimum -1 that a tail reports, so no sweep over x2 converges
    result = iterated_limit(builtin("neg_x1_sqrt_x2"), order)
    assert result.status == INCONCLUSIVE and result.value == -1.0
    assert result.evaluations == 1608


TAIL_LADDER = default_schedule(1).tail_values(0)


def test_adaptive_tail_on_an_increasing_tail_is_inconclusive():
    est = _adaptive_tail(lambda x: -1.0 / math.sqrt(x), TAIL_LADDER, tol=0.005)
    assert est.status == INCONCLUSIVE and est.value == -1.0
    assert est.evaluations == len(TAIL_LADDER) and est.stabilized_at is None


def test_adaptive_tail_on_a_decreasing_tail_converges_within_tol_of_its_value():
    def g(x):
        return 1.0 + 1.0 / math.sqrt(x)

    est = _adaptive_tail(g, TAIL_LADDER, tol=0.005)
    assert est.status == CONVERGED and est.evaluations >= 8
    last_four = TAIL_LADDER[est.evaluations - 4:est.evaluations]
    assert est.stabilized_at == last_four[-1] and est.value == g(last_four[-1])
    assert all(abs(g(x) - est.value) <= 0.005 for x in last_four)
    assert abs(g(TAIL_LADDER[est.evaluations - 5]) - est.value) > 0.005


@pytest.mark.parametrize("samples, expected", [
    # -inf is below the floor, so it stops the tail at once too
    ([5.0, 4.0, -math.inf, 3.0], (-math.inf, DIVERGING_MINUS, 3, None)),
    ([1.0, 2.0 * DIVERGENCE_FLOOR, 0.5], (-math.inf, DIVERGING_MINUS, 2, None)),
    # a first sample above 1e12 does not stop the tail; a rise above it does
    ([3e12, 2e12, 2.5e12, 1.0], (math.inf, DIVERGING_PLUS, 3, None)),
], ids=["minus inf", "below the floor", "rising above 1e12"])
def test_adaptive_tail_stops_at_divergence(samples, expected):
    ladder = [2.0 ** k for k in range(len(samples))]
    value = dict(zip(ladder, samples))
    est = _adaptive_tail(value.__getitem__, ladder, tol=0.005)
    assert (est.value, est.status, est.evaluations, est.stabilized_at) == expected


def test_iterated_validates_order():
    with pytest.raises(DomainError):
        iterated_limit(SQRT, (0, 0))


def test_iterated_three_levels():
    volume = FunctionOracle(
        name="coordinate_product",
        domain=Domain(dim=3, positive=True),
        array_fn=lambda x1, x2, x3: x1 * x2 * x3)
    result = iterated_limit(volume, (2, 0, 1), delta=0.01)
    assert result.status == CONVERGED and result.value == 1.0
    assert [l.axis for l in result.levels] == [2, 0, 1]
    assert all(l.status == CONVERGED for l in result.levels)
    assert all(l.last_stabilized_at is not None for l in result.levels)
    tols = [l.tol for l in result.levels]
    assert tols == sorted(tols, reverse=True)  # deeper levels use tighter tolerances


def test_diagonal_identity_matches_simultaneous():
    diag = diagonal_limit(SQRT, (1, 1), delta=0.01)
    sim = simultaneous_limit(SQRT, schedule2(40), delta=0.01)
    assert diag.status == CONVERGED
    assert abs(diag.best_upper - sim.best_upper) <= 0.02


def test_diagonal_constant_ratio_and_unit_start():
    bracket = diagonal_limit(FULL, (1, 2), delta=0.01)
    assert bracket.status == CONVERGED and bracket.best_upper == 1.0
    assert tuple(bracket.points[0].tolist()) == (1.0, 1.0) and bracket.ratios[0] == 1.0


def test_diagonal_rejects_bounded_path():
    with pytest.raises(DomainError):
        diagonal_limit(SQRT, (1, 0))


def test_diagonal_first_sample_is_unit_for_sqrt_prod():
    bracket = diagonal_limit(SQRT, (1, 1))
    assert tuple(bracket.points[0].tolist()) == (1.0, 1.0)
    assert bracket.ratios[0] == 1.0  # f(1,1)/1


def test_three_dimensional_simultaneous():
    volume = FunctionOracle(
        name="coordinate_product",
        domain=Domain(dim=3, positive=True),
        array_fn=lambda x1, x2, x3: x1 * x2 * x3)
    bracket = simultaneous_limit(volume, GridSchedule(base=Point((1.0,) * 3), levels=6))
    assert bracket.status == CONVERGED and bracket.best_upper == 1.0
    assert bracket.evaluations == 7 ** 3


def test_decomposition_bound_worked_example():
    result = verify_decomposition_bound(SQRT, (5, 7), (2, 3))
    direct = math.sqrt(12) + math.sqrt(9) + math.sqrt(8) + math.sqrt(6)
    assert result.holds
    assert result.lhs == math.sqrt(35)
    assert abs(result.rhs - direct) <= 1e-9
    assert len(result.terms) == 4
    assert sum(t.contribution for t in result.terms) == result.rhs


def test_decomposition_bound_equality_cases():
    full = verify_decomposition_bound(FULL, (4, 6), (2, 3))
    assert full.holds and full.lhs == 24.0 and full.rhs == 24.0
    ab = verify_decomposition_bound(builtin("abs"), (7,), (2,))
    assert ab.holds and ab.lhs == 7.0 and ab.rhs == 7.0


def test_decomposition_bound_precondition():
    with pytest.raises(DomainError):
        verify_decomposition_bound(SQRT, (3.9, 7), (2, 3))


def test_decomposition_bound_random_pairs_hold_for_csa_builtins():
    for name in CSA_BUILTINS:
        oracle = builtin(name)
        d = oracle.domain.dim
        integer = oracle.domain.integer
        for j in range(200):
            if integer:
                t = tuple(1 + int(uniform_in(3, (j * d + i) * 2, 0, 5))
                          for i in range(d))
                x = tuple(2 * t[i] + int(uniform_in(3, (j * d + i) * 2 + 1, 0, 20))
                          for i in range(d))
            else:
                t = tuple(uniform_in(3, (j * d + i) * 2, 0.5, 5.0) for i in range(d))
                x = tuple(2 * t[i] + uniform_in(3, (j * d + i) * 2 + 1, 0.0, 20.0)
                          for i in range(d))
            assert verify_decomposition_bound(oracle, x, t).holds, (name, x, t)


def test_shell_extremes_and_running_bound_match_a_min_fold():
    oracle = _everywhere("prod_plus_x1", False, lambda x1, x2: x1 * x2 + x1)
    bracket = simultaneous_limit(oracle, GridSchedule(base=Point((1.0, 1.0)), growth=1.7,
                                                      levels=8))
    per_shell: dict[int, float] = {}
    for shell, ratio in zip(bracket.shells.tolist(), bracket.ratios.tolist()):
        per_shell[shell] = min(per_shell.get(shell, ratio), ratio)
    expected = sorted(per_shell.items())
    assert bracket.shell_extremes() == expected
    running, current = [], math.inf
    for shell, extreme in expected:
        current = min(current, extreme)
        running.append((shell, current))
    assert bracket.running_bound_by_shell() == running
    bounds = [v for _, v in running]
    assert all(a >= b for a, b in zip(bounds, bounds[1:])) and bounds[0] > bounds[-1]
    assert bounds[-1] == bracket.best_upper


def test_ray_limits():
    coord_sum = FunctionOracle(name="coordinate_sum",
                               domain=Domain(dim=2),
                               array_fn=lambda x1, x2: x1 + x2)
    bracket = ray_limit(coord_sum, (1.0, 1.0), delta=0.01)
    assert bracket.status == CONVERGED and bracket.best_upper == 2.0

    ab = builtin("abs")
    back = ray_limit(ab, (-1.0,), delta=0.01)
    assert back.status == CONVERGED and back.best_upper == 1.0

    ceil_ray = ray_limit(builtin("ceiling"), (1.0,), delta=0.01)
    assert ceil_ray.best_upper >= 1.0
    assert ceil_ray.best_upper == 1.0  # ladder points are integers


def test_ray_rejects_zero_direction():
    with pytest.raises(DomainError):
        ray_limit(builtin("abs"), (0.0,))


def test_bracket_serialization_shapes():
    bracket = simultaneous_limit(SQRT, schedule2(6))
    payload = bracket.to_json_dict()
    assert set(payload) >= {"best_upper", "tail_estimate", "status", "delta",
                            "R", "evaluations"}
    rows = list(bracket.samples_csv_rows())
    assert rows[0] == ["shell", "x1", "x2", "ratio"]
    assert len(rows) == bracket.evaluations + 1


def _per_row_csv(bracket):
    """The plain writer: one repr per field and per row, rows by shell, then point."""
    header = ["shell"] + [f"x{i + 1}" for i in range(bracket.points.shape[1])] + ["ratio"]
    order = np.lexsort((*bracket.points.T[::-1], bracket.shells))
    rows = [header]
    for shell, point, ratio in zip(bracket.shells[order].tolist(),
                                   bracket.points[order].tolist(),
                                   bracket.ratios[order].tolist()):
        rows.append([str(shell)] + [repr(c) for c in point] + [repr(ratio)])
    return "".join(",".join(row) + "\n" for row in rows)


def _signed_zero_bracket():
    # np.unique equates -0.0 and 0.0; the CSV must still tell them apart
    points = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [1.5, -0.0]])
    ratios = np.array([-0.0, 0.0, math.inf, -math.inf, 0.1])
    return LimitBracket(
        best_upper=-math.inf, tail_estimate=-math.inf, status=DIVERGING_MINUS, delta=0.01,
        shell=None, threshold_point=None, evaluations=5, shells=np.array([0, 1, 1, 2, 0]), points=points, ratios=ratios)


@pytest.mark.parametrize("make", [
    lambda: simultaneous_limit(SQRT, GridSchedule(base=Point((1.0, 1.0)), growth=1.05,
                                                  levels=40)),
    # negative coordinates along a ray, on a 1-D and a 2-D oracle defined everywhere
    lambda: ray_limit(builtin("abs"), (-1.0,), GridSchedule(base=Point((1.0,)), levels=14)),
    lambda: ray_limit(_everywhere("sqrt_abs_prod", False,
                                  lambda x1, x2: np.sqrt(np.abs(x1 * x2))),
                      (-1.0, 2.0), GridSchedule(base=Point((1.0,)), levels=20)),
    lambda: ray_limit(SQRT, Point((1.0, 3.0)), GridSchedule(base=Point((1.0,)), levels=20)),
    lambda: diagonal_limit(FULL, (1, 2), delta=0.01),
    _signed_zero_bracket,
])
def test_bracket_csv_matches_the_per_row_writer(tmp_path, make):
    bracket = make()
    write_csv_atomic(tmp_path / "bracket.csv", bracket.samples_csv_rows())
    assert (tmp_path / "bracket.csv").read_text() == _per_row_csv(bracket)


def _shifted_product(d):
    # prod(x_i + 1): each factor is subadditive and positive, so the product
    # is componentwise subadditive, and its ratio prod(1 + 1/x_i) falls to 1
    return FunctionOracle(name=f"shifted_product_{d}",
                          domain=Domain(dim=d, positive=True),
                          array_fn=lambda *cols: math.prod(c + 1.0 for c in cols))


@pytest.mark.parametrize("d, levels, delta", [(4, 8, 0.05), (5, 6, 0.1)])
def test_simultaneous_limit_in_four_and_five_dimensions(d, levels, delta):
    schedule = GridSchedule(base=Point((1.0,) * d), levels=levels)
    bracket = simultaneous_limit(_shifted_product(d), schedule, delta=delta)
    assert bracket.evaluations == (levels + 1) ** d
    assert bracket.status == CONVERGED
    assert bracket.best_upper - delta <= 1.0 <= bracket.best_upper
    # shells and ratios from the grid levels themselves, folded by hand
    per_shell: dict[int, float] = {}
    for ks in itertools.product(range(levels + 1), repeat=d):
        ratio = math.prod(1.0 + 2.0 ** -k for k in ks)
        per_shell[max(ks)] = min(per_shell.get(max(ks), ratio), ratio)
    extremes = bracket.shell_extremes()
    assert [k for k, _ in extremes] == sorted(per_shell)
    assert [v for _, v in extremes] == pytest.approx([per_shell[k] for k in sorted(per_shell)],
                                                     rel=1e-12)
    assert extremes[-1][1] == bracket.best_upper


def test_iterated_limit_in_four_dimensions():
    result = iterated_limit(_shifted_product(4), (3, 1, 0, 2), delta=0.05)
    assert result.status == CONVERGED
    assert abs(result.value - 1.0) <= 0.05 and result.value >= 1.0
    assert [level.axis for level in result.levels] == [3, 1, 0, 2]


# every limit estimator, called with the given tolerance and schedule on sqrt_prod
ESTIMATORS = {
    "simultaneous": lambda delta, schedule=None: simultaneous_limit(SQRT, schedule, delta),
    "iterated": lambda delta, schedule=None: iterated_limit(SQRT, (0, 1), schedule, delta),
    "diagonal": lambda delta, schedule=None: diagonal_limit(SQRT, (1, 1), schedule, delta),
    "ray": lambda delta, schedule=None: ray_limit(SQRT, (1.0, 1.0), schedule, delta),
}


@pytest.mark.parametrize("name, delta", [*((name, math.nan) for name in sorted(ESTIMATORS)),
                                         ("simultaneous", 0.0)])
def test_every_estimator_refuses_a_nan_or_nonpositive_delta(name, delta):
    with pytest.raises(DomainError, match="delta must be positive"):
        ESTIMATORS[name](delta)


@pytest.mark.parametrize("name", ["simultaneous", "iterated"])
@pytest.mark.parametrize("base", [(1.0,), (1.0, 1.0, 1.0)])
def test_grid_estimators_refuse_a_schedule_of_the_wrong_dimension(name, base):
    with pytest.raises(DimensionMismatchError, match="schedule of dimension"):
        ESTIMATORS[name](0.01, GridSchedule(base=Point(base), levels=6))


@pytest.mark.parametrize("name", ["diagonal", "ray"])
def test_path_estimators_refuse_a_schedule_of_more_than_one_dimension(name):
    with pytest.raises(DimensionMismatchError, match="^schedule of dimension 2, expected 1$"):
        ESTIMATORS[name](0.01, GridSchedule(base=Point((1.0, 1.0)), levels=6))


def test_simultaneous_limit_evaluates_the_oracle_once_per_batch(monkeypatch):
    batches, calls = [], []
    evaluate_points = FunctionOracle.evaluate_points
    monkeypatch.setattr(FunctionOracle, "evaluate_points", lambda self, columns: (
        batches.append((self.name, len(columns[0]))) or evaluate_points(self, columns)))
    oracle = FunctionOracle(
        name="sqrt_x1_x2", domain=Domain(dim=2, positive=True),
        array_fn=lambda x1, x2: calls.append(len(x1)) or np.sqrt(x1 * x2))
    bracket = simultaneous_limit(oracle, schedule2(levels=8))
    assert batches == [("sqrt_x1_x2", 81)] and calls == [81]
    assert bracket.to_json_dict() == {
        "sense": "inf", "best_upper": 0.00390625, "best_lower": None,
        "tail_estimate": 0.00390625, "status": CONVERGED, "delta": 0.01, "shell": 7,
        "R": [128.0, 128.0], "evaluations": 81}
    assert float(bracket.ratios.sum()).hex() == "0x1.54c6fee0b46e8p+3"


def test_estimators_raise_no_overflow_warning():
    # -e^x overflows to -inf, so an upper set and best_upper are both -inf
    neg_exp = FunctionOracle(name="neg_exp", domain=Domain(dim=1, positive=True),
                             array_fn=lambda x: -np.exp(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        iterated_limit(MIXED, (1, 0))
        assert ray_limit(neg_exp, (1.0,)).status == DIVERGING_MINUS
        assert simultaneous_limit(neg_exp).status == DIVERGING_MINUS


# Oracles defined on every orthant, for the reference comparisons below
def _everywhere(name, integer, array_fn, d=2):
    return FunctionOracle(name=name, domain=Domain(dim=d, integer=integer),
                          array_fn=array_fn)


def test_diagonal_refuses_a_zero_scale():
    # t^p > 0, but from base 1e-200 the first products t * t underflow to 0: f/0 is NaN
    oracle = _everywhere("sqrt_abs_prod", False, lambda x1, x2: np.sqrt(np.abs(x1 * x2)))
    with pytest.raises(ScheduleError, match="zero or negative"):
        diagonal_limit(oracle, (1, 1), GridSchedule(base=Point((1e-200,))))


def test_integer_diagonal_refuses_a_repeated_rounded_point():
    # t^0.6 at t = 2 and 4 is 1.52 and 2.30, both rounded to 2: one point sampled twice
    unit = Point((1.0,))
    with pytest.raises(ScheduleError, match=r"repeats 2\.0 on axis 0;"):
        diagonal_limit(builtin("nmod2"), (0.6,), GridSchedule(base=unit, levels=10))
    with pytest.raises(ScheduleError, match=r"repeats 2\.0 on axis 1;"):
        diagonal_limit(FULL, (1, 0.6), GridSchedule(base=unit, levels=10))
    # a larger growth, a larger power, or powers of at least 1 keep the points distinct
    for oracle, powers, growth in ((builtin("nmod2"), (0.6,), 2.5),
                                   (builtin("nmod2"), (0.75,), 2.0), (FULL, (1, 1.5), 2.0)):
        points = diagonal_limit(oracle, powers, GridSchedule(base=unit, growth=growth)).points
        assert (np.diff(points, axis=0) > 0).all(), powers


def _reference_oracles(integer):
    return [
        _everywhere("sqrt_abs_prod", integer, lambda x1, x2: np.sqrt(np.abs(x1 * x2))),
        _everywhere("prod_plus_x1", integer, lambda x1, x2: x1 * x2 + x1),
        _everywhere("neg_exp_x1", integer, lambda x1, x2: -np.exp(np.abs(x1)) + x2),
        _everywhere("curved", integer, lambda x1, x2: x1 * x1 * np.sqrt(np.abs(x2))),
    ]


def _reference_grid_bracket(oracle, schedule, delta):
    """simultaneous_limit by plain loops over the grid in C order of the levels.

    Shell k holds the points whose largest level is k; its upper set is
    the points at or above the shell's corner in the product order.
    """
    d, integer = oracle.domain.dim, oracle.domain.integer
    axes = [[float(c) for c in schedule.axis_values(i, integer=integer)] for i in range(d)]
    levels = list(itertools.product(range(schedule.levels + 1), repeat=d))
    points = [[axes[i][k] for i, k in enumerate(ks)] for ks in levels]
    values = oracle.evaluate_points(list(np.array(points).T)).tolist()
    ratios = [v / math.prod(p) for v, p in zip(values, points)]
    shells = [max(ks) for ks in levels]
    best = min(ratios)
    tail = min(r for r, k in zip(ratios, shells) if k == schedule.levels)
    corners = [tuple(axis[k] for axis in axes) for k in range(schedule.levels + 1)]
    shell = None
    for k, corner in enumerate(corners):
        upper = [r for p, r in zip(points, ratios) if all(c >= a for c, a in zip(p, corner))]
        if max(upper) - best <= delta:
            shell = k
            break
    if best == -math.inf or tail < DIVERGENCE_FLOOR:
        status = DIVERGING_MINUS
    else:
        status = INCONCLUSIVE if shell is None else CONVERGED
    return LimitBracket(best_upper=best, tail_estimate=tail, status=status, delta=delta,
                        shell=shell, threshold_point=None if shell is None else corners[shell],
                        evaluations=len(ratios), shells=np.array(shells),
                        points=np.array(points), ratios=np.array(ratios))


def _reference_path_bracket(oracle, ts, points, scales, delta):
    """A path bracket with shell k = sample k and a reversed running max for upper sets."""
    ratios = oracle.evaluate_points(list(points.T)) / np.asarray(scales, dtype=float)
    upper = np.maximum.accumulate(ratios[::-1])[::-1].tolist()
    best, tail = float(ratios.min()), float(ratios[-1])
    shell = next((k for k, u in enumerate(upper) if u - best <= delta), None)
    if best == -math.inf or tail < DIVERGENCE_FLOOR:
        status = DIVERGING_MINUS
    else:
        status = INCONCLUSIVE if shell is None else CONVERGED
    return LimitBracket(best_upper=best, tail_estimate=tail, status=status, delta=delta,
                        shell=shell,
                        threshold_point=None if shell is None else (float(ts[shell]),),
                        evaluations=len(ratios), shells=np.arange(len(ratios)),
                        points=points, ratios=ratios)


def _assert_same_bracket(got, expected):
    assert got.to_json_dict() == expected.to_json_dict()
    for name in ("shells", "points", "ratios"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.mark.parametrize("integer", [False, True])
def test_grid_ray_and_diagonal_brackets_match_the_reference_loops(integer):
    schedule = GridSchedule(base=Point((1.0, 1.0)), growth=1.7, levels=12)
    ts = GridSchedule(base=Point((1.0,)), growth=2.0, levels=40).axis_values(0)
    statuses = set()
    for oracle in _reference_oracles(integer):
        got = simultaneous_limit(oracle, schedule, 0.05)
        _assert_same_bracket(got, _reference_grid_bracket(oracle, schedule, 0.05))
        statuses.add(got.status)

        direction = (1.0, -2.0)
        points = np.array([[t * c for c in direction] for t in ts])
        _assert_same_bracket(ray_limit(oracle, direction, delta=0.05),
                             _reference_path_bracket(oracle, ts, points, ts, 0.05))

        powers = (1, 1.5)
        coords = np.array([[t ** p for p in powers] for t in ts])
        if integer:
            coords = np.round(coords)
        _assert_same_bracket(
            diagonal_limit(oracle, powers, delta=0.05),
            _reference_path_bracket(oracle, ts, coords,
                                    [math.prod(c) for c in coords.tolist()], 0.05))
    # a bracket never diverges to +inf: its bound is a minimum
    assert statuses == {CONVERGED, DIVERGING_MINUS, INCONCLUSIVE}

    # three dimensions, with unequal axes
    cube = _everywhere("sqrt_abs_prod_3d", integer,
                       lambda x1, x2, x3: np.sqrt(np.abs(x1 * x2 * x3)) - x2, d=3)
    schedule3 = GridSchedule(base=Point((1.0, 2.0, 1.0)), growth=1.7, levels=8)
    _assert_same_bracket(simultaneous_limit(cube, schedule3, 0.05),
                         _reference_grid_bracket(cube, schedule3, 0.05))
