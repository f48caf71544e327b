"""Limit brackets: simultaneous, iterated, diagonal, orthant, ray, profiles."""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from fekete_lab.domain import DimensionMismatchError, DomainError, GridSchedule, Orthant, Point
from fekete_lab.ioutil import write_csv_atomic
from fekete_lab.limits import (
    CONVERGED,
    DIVERGENCE_FLOOR,
    DIVERGING_MINUS,
    DIVERGING_PLUS,
    INCONCLUSIVE,
    LimitBracket,
    diagonal_limit,
    inner_limit_profile,
    iterated_limit,
    orthant_limit,
    ray_limit,
    simultaneous_limit,
    verify_decomposition_bound,
)
from fekete_lab.registry import Domain, FunctionOracle, builtin
from fekete_lab.sampling import uniform_in

SQRT = builtin("sqrt_prod")
FULL = builtin("full_shift_count_log")
MIXED = builtin("x1sq_sqrt_x2")
CSA_BUILTINS = ("sqrt_prod", "full_shift_count_log", "abs", "ceiling", "nmod2")


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


def test_best_upper_monotone_under_schedule_extension():
    for name in CSA_BUILTINS:
        oracle = builtin(name)
        d = oracle.domain.dim
        short = simultaneous_limit(oracle, GridSchedule(base=Point((1.0,) * d), levels=10))
        long = simultaneous_limit(oracle, GridSchedule(base=Point((1.0,) * d), levels=20))
        assert long.best_upper <= short.best_upper


def test_known_limits_are_bracketed_and_reached():
    for name in CSA_BUILTINS:
        oracle = builtin(name)
        assert oracle.known_limit is not None
        d = oracle.domain.dim
        bracket = simultaneous_limit(oracle, GridSchedule(base=Point((1.0,) * d)))
        assert bracket.best_upper >= oracle.known_limit.value
        assert abs(bracket.best_upper - oracle.known_limit.value) <= 0.01


def test_crafted_divergence_flag():
    # ratio at x is -x: crosses the divergence floor once the ladder is deep enough
    oracle = FunctionOracle(name="neg_square",
                            domain=Domain(dim=1, orthant=Orthant.main(1)),
                            fn=lambda p: -p[0] * p[0])
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
                          domain=Domain(dim=1, orthant=Orthant.main(1), integer=True),
                          fn=lambda p: (p[0] + 1) / 2)
    # growth 1.1 rounds the first rungs to 1, 1, 1, 1, 1, 2, ...: not a ladder
    with pytest.raises(DomainError):
        iterated_limit(half, (0,), GridSchedule(base=Point((1.0,)), growth=1.1))
    scaled = FunctionOracle(name="scaled_half_successor",
                            domain=Domain(dim=2, orthant=Orthant.main(2), integer=True),
                            fn=lambda p: p[0] * (p[1] + 1) / 2)
    with pytest.raises(DomainError):
        inner_limit_profile(scaled, {}, limit_axes=(1,), probe_axis=0, probe_values=[1.0],
                            schedule=GridSchedule(base=Point((1.0, 1.0)), growth=1.1))
    result = iterated_limit(half, (0,), GridSchedule(base=Point((1.0,)), growth=2.0))
    assert result.status == CONVERGED and result.value == 0.5009765625


def test_iterated_validates_order():
    with pytest.raises(DomainError):
        iterated_limit(SQRT, (0, 0))


def test_iterated_three_levels():
    volume = FunctionOracle(
        name="coordinate_product",
        domain=Domain(dim=3, orthant=Orthant.main(3)),
        fn=lambda p: p[0] * p[1] * p[2],
        claims_componentwise_subadditive=True)
    result = iterated_limit(volume, (2, 0, 1), delta=0.01)
    assert result.status == CONVERGED and result.value == 1.0
    assert [l.axis for l in result.levels] == [2, 0, 1]
    assert all(l.status == CONVERGED for l in result.levels)
    assert all(l.last_stabilized_at is not None for l in result.levels)
    tols = [l.tol for l in result.levels]
    assert tols == sorted(tols, reverse=True)  # deeper levels use tighter tolerances


def test_diagonal_identity_matches_simultaneous():
    diag = diagonal_limit(SQRT, [lambda t: t, lambda t: t], delta=0.01)
    sim = simultaneous_limit(SQRT, schedule2(40), delta=0.01)
    assert diag.status == CONVERGED
    assert abs(diag.best_upper - sim.best_upper) <= 0.02


def test_diagonal_constant_ratio_and_unit_start():
    bracket = diagonal_limit(FULL, [lambda t: t, lambda t: t * t], delta=0.01)
    assert bracket.status == CONVERGED and bracket.best_upper == 1.0
    assert tuple(bracket.points[0].tolist()) == (1.0, 1.0) and bracket.ratios[0] == 1.0


def test_diagonal_rejects_bounded_path():
    with pytest.raises(DomainError):
        diagonal_limit(SQRT, [lambda t: t, lambda t: 5.0])


def test_diagonal_first_sample_is_unit_for_sqrt_prod():
    bracket = diagonal_limit(SQRT, [lambda t: t, lambda t: t])
    assert tuple(bracket.points[0].tolist()) == (1.0, 1.0)
    assert bracket.ratios[0] == 1.0  # f(1,1)/1


def test_three_dimensional_simultaneous_and_profile():
    volume = FunctionOracle(
        name="coordinate_product",
        domain=Domain(dim=3, orthant=Orthant.main(3)),
        fn=lambda p: p[0] * p[1] * p[2],
        claims_componentwise_subadditive=True)
    bracket = simultaneous_limit(volume, GridSchedule(base=Point((1.0,) * 3), levels=6))
    assert bracket.status == CONVERGED and bracket.best_upper == 1.0
    assert bracket.evaluations == 7 ** 3

    profile = inner_limit_profile(volume, {2: 5.0}, limit_axes=(1,), probe_axis=0,
                                  probe_values=[1.0, 2.0, 4.0])
    for v, h, status in profile.entries:
        assert status == CONVERGED
        assert h == 5.0 * v  # lim over x2 of (x1*x2*5)/x2


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


def test_orthant_limit_senses():
    identity = FunctionOracle(name="identity_negative_axis",
                              domain=Domain(dim=1, orthant=Orthant.from_string("1")),
                              fn=lambda p: p[0])
    bracket = orthant_limit(identity, schedule=GridSchedule(base=Point((1.0,)), levels=14))
    assert bracket.sense == "sup"
    assert bracket.best_lower == 1.0  # ratio x/x is identically 1 on the negatives

    ab = builtin("abs")
    even = orthant_limit(ab, Orthant.from_string("0"),
                         GridSchedule(base=Point((1.0,)), levels=14))
    odd = orthant_limit(ab, Orthant.from_string("1"),
                        GridSchedule(base=Point((1.0,)), levels=14))
    assert even.sense == "inf" and even.best_upper == 1.0
    assert odd.sense == "sup" and odd.best_lower == -1.0
    # moving to the adjacent orthant can only lower the limit
    assert odd.best_lower <= even.best_upper


def test_orthant_limit_integer_domain():
    neg_abs = FunctionOracle(
        name="abs_on_negative_integers",
        domain=Domain(dim=1, orthant=Orthant.from_string("1"), integer=True),
        fn=lambda p: abs(p[0]),
        claims_componentwise_subadditive=True)
    bracket = orthant_limit(neg_abs, schedule=GridSchedule(base=Point((1.0,)), levels=12))
    assert bracket.sense == "sup"
    assert bracket.best_lower == -1.0  # ratio |n|/n = -1 on the negatives
    assert all(c < 0 and c == int(c) for c in bracket.points[:, 0].tolist())


def test_orthant_limit_even_parity_reflection():
    both_negative = FunctionOracle(
        name="sqrt_prod_reflected",
        domain=Domain(dim=2, orthant=Orthant.from_string("11")),
        fn=lambda p: math.sqrt(p[0] * p[1]),
        claims_componentwise_subadditive=True)
    bracket = orthant_limit(both_negative, schedule=schedule2())
    assert bracket.sense == "inf"
    assert bracket.status == CONVERGED and bracket.best_upper <= 0.01
    assert all(c < 0 for c in bracket.points[0].tolist())


def test_sup_sense_shell_extremes_match_max_fold():
    odd = FunctionOracle(name="sqrt_abs_prod_on_10",
                         domain=Domain(dim=2, orthant=Orthant.from_string("10")),
                         fn=lambda p: math.sqrt(abs(p[0] * p[1])))
    bracket = orthant_limit(odd, schedule=schedule2(8))
    assert bracket.sense == "sup"
    per_shell: dict[int, float] = {}
    for shell, ratio in zip(bracket.shells.tolist(), bracket.ratios.tolist()):
        per_shell[shell] = max(per_shell.get(shell, ratio), ratio)
    expected = sorted(per_shell.items())
    assert bracket.shell_extremes() == expected
    running, current = [], -math.inf
    for shell, extreme in expected:
        current = max(current, extreme)
        running.append((shell, current))
    assert bracket.running_bound_by_shell() == running
    bounds = [v for _, v in running]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] == bracket.best_lower


def test_ray_limits():
    coord_sum = FunctionOracle(name="coordinate_sum",
                               domain=Domain(dim=2, orthant=None),
                               fn=lambda p: p[0] + p[1],
                               claims_joint_subadditive=True)
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


def test_inner_limit_profile_sqrt_prod_vanishes():
    profile = inner_limit_profile(SQRT, {}, limit_axes=(1,), probe_axis=0,
                                  probe_values=[1.0, 2.0, 3.0, 4.0])
    for _, h, status in profile.entries:
        assert status == CONVERGED
        assert abs(h) <= 0.01
    assert profile.check_subadditivity().clean


def test_inner_limit_profile_full_shift_is_linear():
    profile = inner_limit_profile(FULL, {}, limit_axes=(1,), probe_axis=0,
                                  probe_values=[1, 2, 3, 4, 5, 6])
    for v, h, status in profile.entries:
        assert status == CONVERGED and h == v
    assert profile.check_subadditivity().clean


def test_inner_limit_profile_single_point_has_no_pairs():
    profile = inner_limit_profile(SQRT, {}, limit_axes=(1,), probe_axis=0,
                                  probe_values=[1.0])
    report = profile.check_subadditivity()
    assert report.samples_checked == 0 and report.clean


def test_inner_limit_profile_validates_partition():
    with pytest.raises(DomainError):
        inner_limit_profile(SQRT, {0: 1.0}, limit_axes=(1,), probe_axis=0,
                            probe_values=[1.0])


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
        sense="inf", best_upper=-math.inf, best_lower=None, tail_estimate=-math.inf,
        status=DIVERGING_MINUS, delta=0.01, shell=None, threshold_point=None,
        evaluations=5, shells=np.array([0, 1, 1, 2, 0]), points=points, ratios=ratios)


@pytest.mark.parametrize("make", [
    lambda: simultaneous_limit(SQRT, GridSchedule(base=Point((1.0, 1.0)), growth=1.05,
                                                  levels=40)),
    lambda: orthant_limit(builtin("abs"), Orthant.from_string("1"),
                          GridSchedule(base=Point((1.0,)), levels=14)),
    lambda: orthant_limit(FunctionOracle(name="sqrt_abs_prod_on_10",
                                         domain=Domain(dim=2, orthant=Orthant.from_string("10")),
                                         fn=lambda p: math.sqrt(abs(p[0] * p[1]))),
                          schedule=schedule2(8)),
    lambda: ray_limit(SQRT, Point((1.0, 3.0)), GridSchedule(base=Point((1.0,)), levels=20)),
    lambda: diagonal_limit(FULL, [lambda t: t, lambda t: t * t], delta=0.01),
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
                          domain=Domain(dim=d, orthant=Orthant.main(d)),
                          fn=lambda p: math.prod(c + 1.0 for c in p),
                          claims_componentwise_subadditive=True)


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
    "orthant": lambda delta, schedule=None: orthant_limit(SQRT, None, schedule, delta),
    "iterated": lambda delta, schedule=None: iterated_limit(SQRT, (0, 1), schedule, delta),
    "diagonal": lambda delta, schedule=None: diagonal_limit(
        SQRT, [lambda t: t, lambda t: t], schedule, delta),
    "ray": lambda delta, schedule=None: ray_limit(SQRT, (1.0, 1.0), schedule, delta),
    "inner_profile": lambda delta, schedule=None: inner_limit_profile(
        SQRT, {}, limit_axes=(1,), probe_axis=0, probe_values=[1.0], delta=delta,
        schedule=schedule),
}


@pytest.mark.parametrize("name, delta", [*((name, math.nan) for name in sorted(ESTIMATORS)),
                                         ("inner_profile", 0.0)])
def test_every_estimator_refuses_a_nan_or_nonpositive_delta(name, delta):
    with pytest.raises(DomainError, match="delta must be positive"):
        ESTIMATORS[name](delta)


@pytest.mark.parametrize("name", ["iterated", "inner_profile"])
@pytest.mark.parametrize("base", [(1.0,), (1.0, 1.0, 1.0)])
def test_grid_estimators_refuse_a_schedule_of_the_wrong_dimension(name, base):
    with pytest.raises(DimensionMismatchError, match="schedule of dimension"):
        ESTIMATORS[name](0.01, GridSchedule(base=Point(base), levels=6))


def test_orthant_mirror_evaluates_the_oracle_once_per_batch(monkeypatch):
    batches, calls = [], []
    evaluate_points = FunctionOracle.evaluate_points
    monkeypatch.setattr(FunctionOracle, "evaluate_points", lambda self, columns: (
        batches.append((self.name, len(columns[0]))) or evaluate_points(self, columns)))
    oracle = FunctionOracle(
        name="sqrt_on_10", domain=Domain(dim=2, orthant=Orthant.from_string("10")),
        fn=lambda p: math.sqrt(-p[0] * p[1]),
        array_fn=lambda x1, x2: calls.append(len(x1)) or np.sqrt(-x1 * x2),
        claims_componentwise_subadditive=True)
    bracket = orthant_limit(oracle, schedule=schedule2(levels=8))
    assert batches == [("sqrt_on_10", 81)] and calls == [81]
    # pinned from the per-point mirror this replaced
    assert bracket.to_json_dict() == {
        "sense": "sup", "best_upper": None, "best_lower": -0.00390625,
        "tail_estimate": -0.00390625, "status": CONVERGED, "delta": 0.01, "shell": 7,
        "R": [-128.0, 128.0], "evaluations": 81}
    assert float(bracket.ratios.sum()).hex() == "-0x1.54c6fee0b46e8p+3"


def test_estimators_raise_no_overflow_warning():
    # -e^x overflows to -inf, so an upper set and best_upper are both -inf
    neg_exp = FunctionOracle(name="neg_exp", domain=Domain(dim=1, orthant=Orthant.main(1)),
                             array_fn=lambda x: -np.exp(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        iterated_limit(MIXED, (1, 0))
        assert ray_limit(neg_exp, (1.0,)).status == DIVERGING_MINUS
        assert simultaneous_limit(neg_exp).status == DIVERGING_MINUS


# Oracles defined on every orthant, for the reference comparisons below
def _everywhere(name, integer, array_fn, d=2):
    return FunctionOracle(name=name, domain=Domain(dim=d, orthant=None, integer=integer),
                          array_fn=array_fn)


def _reference_oracles(integer):
    return [
        _everywhere("sqrt_abs_prod", integer, lambda x1, x2: np.sqrt(np.abs(x1 * x2))),
        _everywhere("prod_plus_x1", integer, lambda x1, x2: x1 * x2 + x1),
        _everywhere("neg_exp_x1", integer, lambda x1, x2: -np.exp(np.abs(x1)) + x2),
        _everywhere("curved", integer, lambda x1, x2: x1 * x1 * np.sqrt(np.abs(x2))),
    ]


def _reference_orthant_limit(oracle, w, schedule, delta):
    """orthant_limit by a mirror oracle on the main orthant, reflected and flipped."""
    d = oracle.domain.dim
    signs = tuple(w.sign(i) for i in range(d))
    mirror = FunctionOracle(
        name=f"{oracle.name}_on_{w}",
        domain=Domain(dim=d, orthant=Orthant.main(d), integer=oracle.domain.integer),
        array_fn=lambda *cols: oracle.evaluate_points([c * s for c, s in zip(cols, signs)]))
    base = simultaneous_limit(mirror, schedule, delta)
    threshold = (tuple(c * s for c, s in zip(base.threshold_point, signs))
                 if base.threshold_point else None)
    base = dataclasses.replace(base, threshold_point=threshold, points=base.points * signs)
    if w.parity == 0:
        return base
    return dataclasses.replace(
        base, sense="sup", best_upper=None, best_lower=-base.best_upper,
        tail_estimate=-base.tail_estimate,
        status={DIVERGING_MINUS: DIVERGING_PLUS}.get(base.status, base.status),
        ratios=-base.ratios)


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
    return LimitBracket(sense="inf", best_upper=best, best_lower=None, tail_estimate=tail,
                        status=status, delta=delta, shell=shell,
                        threshold_point=None if shell is None else (float(ts[shell]),),
                        evaluations=len(ratios), shells=np.arange(len(ratios)),
                        points=points, ratios=ratios)


def _assert_same_bracket(got, expected):
    assert got.to_json_dict() == expected.to_json_dict()
    for name in ("shells", "points", "ratios"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@pytest.mark.parametrize("integer", [False, True])
def test_orthant_ray_and_diagonal_brackets_match_the_reference_paths(integer):
    schedule = GridSchedule(base=Point((1.0, 1.0)), growth=1.7, levels=12)
    ts = GridSchedule(base=Point((1.0,)), growth=2.0, levels=40).axis_values(0)
    statuses = set()
    for oracle in _reference_oracles(integer):
        for bits in itertools.product("01", repeat=2):
            w = Orthant.from_string("".join(bits))
            got = orthant_limit(oracle, w, schedule, 0.05)
            _assert_same_bracket(got, _reference_orthant_limit(oracle, w, schedule, 0.05))
            statuses.add(got.status)

        direction = (1.0, -2.0)
        points = np.array([[t * c for c in direction] for t in ts])
        _assert_same_bracket(ray_limit(oracle, direction, delta=0.05),
                             _reference_path_bracket(oracle, ts, points, ts, 0.05))

        paths = [lambda t: t, lambda t: 1.5 * t]
        coords = np.array([[p(t) for p in paths] for t in ts])
        if integer:
            coords = np.round(coords)
        _assert_same_bracket(
            diagonal_limit(oracle, paths, delta=0.05),
            _reference_path_bracket(oracle, ts, coords,
                                    [math.prod(c) for c in coords.tolist()], 0.05))
    assert {CONVERGED, DIVERGING_MINUS, DIVERGING_PLUS, INCONCLUSIVE} <= statuses

    # one odd word in three dimensions
    cube = _everywhere("sqrt_abs_prod_3d", integer,
                       lambda x1, x2, x3: np.sqrt(np.abs(x1 * x2 * x3)) - x2, d=3)
    w = Orthant.from_string("111")
    schedule3 = GridSchedule(base=Point((1.0, 2.0, 1.0)), growth=1.7, levels=8)
    _assert_same_bracket(orthant_limit(cube, w, schedule3, 0.05),
                         _reference_orthant_limit(cube, w, schedule3, 0.05))
