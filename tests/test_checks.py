"""Subadditivity checkers: textbook witnesses, clean oracles, determinism."""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from fekete_lab.checks import (
    TOP_K,
    _probe_points,
    Violation,
    ViolationReport,
    check_componentwise,
    check_four_term,
    check_joint,
    check_monoid_sign,
    check_set_union,
    check_shifted_subadditivity,
    violation_tolerance,
)
from fekete_lab.domain import (
    DomainError,
    EvaluationError,
    IndeterminateFormError,
    Orthant,
    Point,
    ext_add,
)
from fekete_lab.registry import (
    Domain,
    FunctionOracle,
    TabulatedFunction,
    builtin,
    cardinality_set_function,
    set_function_from_integer,
)
from fekete_lab.sampling import SampleBudget, integer_in, uniform_in

BUDGET = SampleBudget(count=2000, seed=20240117)


def test_sqrt_prod_joint_violation_exact_witness():
    report = check_joint(builtin("sqrt_prod"), BUDGET)
    hit = report.find(((1.0, 2.0), (2.0, 1.0)))
    assert hit is not None
    assert hit.lhs == 3.0
    assert hit.rhs == 2.0 * math.sqrt(2.0)
    assert abs(hit.margin - (3.0 - 2.0 * math.sqrt(2.0))) <= 1e-12


def test_sqrt_prod_componentwise_clean():
    assert check_componentwise(builtin("sqrt_prod"), BUDGET).clean


def test_abs_joint_clean_triangle_inequality():
    report = check_joint(builtin("abs"), SampleBudget(count=10_000, seed=5))
    assert report.clean


def test_full_shift_joint_violation_at_unit_pair():
    report = check_joint(builtin("full_shift_count_log"), BUDGET)
    hit = report.find(((1.0, 1.0), (1.0, 1.0)))
    assert hit is not None and hit.lhs == 4.0 and hit.rhs == 2.0


def test_neg_x1_sqrt_x2_violates_axis_2_only():
    report = check_componentwise(builtin("neg_x1_sqrt_x2"), BUDGET)
    assert not report.clean
    assert {v.axis for v in report.violations} == {1}


def test_neg_x1_sqrt_x2_is_jointly_subadditive():
    # the mirror separation: joint subadditivity without the
    # componentwise property (sqrt_prod separates the other way)
    assert check_joint(builtin("neg_x1_sqrt_x2"), BUDGET).clean


def test_x1sq_sqrt_x2_violates_axis_1_only():
    report = check_componentwise(builtin("x1sq_sqrt_x2"), BUDGET)
    assert not report.clean
    assert {v.axis for v in report.violations} == {0}


def test_four_term_sqrt_prod_clean():
    assert check_four_term(builtin("sqrt_prod"), BUDGET).clean


def test_four_term_equality_case_not_reported():
    # (1,1)+(1,1): 4 <= 1+1+1+1 holds with equality
    report = check_four_term(builtin("full_shift_count_log"), BUDGET)
    assert report.find(((1.0, 1.0), (1.0, 1.0))) is None


def test_four_term_crafted_violation():
    table = TabulatedFunction(axes=((1.0, 2.0), (1.0, 2.0)),
                              values=(2.0, 2.0, 2.0, 9.0))
    oracle = table.to_oracle("crafted")
    report = check_four_term(oracle, BUDGET)
    hit = report.find(((1.0, 1.0), (1.0, 1.0)))
    assert hit is not None and hit.lhs == 9.0 and hit.rhs == 8.0


def test_joint_no_violation_implies_four_term_for_nonnegative():
    for name in ("abs", "ceiling"):
        oracle = builtin(name)
        joint = check_joint(oracle, BUDGET)
        if joint.clean:
            # nonnegative on the sampled ranges? abs yes; ceiling is not
            # nonnegative on negatives, so restrict to the positive side
            pos = SampleBudget(count=2000, seed=20240117, ranges=((0.1, 100.0),))
            assert check_four_term(oracle, pos).clean


def test_monoid_sign_examples():
    assert check_monoid_sign(builtin("nmod2"), BUDGET).clean
    assert check_monoid_sign(builtin("abs"), BUDGET).clean
    const = FunctionOracle(name="const_minus_one",
                           domain=Domain(dim=1, orthant=None),
                           fn=lambda p: -1.0)
    report = check_monoid_sign(const, BUDGET)
    hit = report.find(((0.0,),))
    assert hit is not None and hit.margin == 1.0


def test_monoid_sign_needs_group_domain():
    with pytest.raises(DomainError):
        check_monoid_sign(builtin("sqrt_prod"), BUDGET)


def test_set_union_parity_counterexample():
    g = set_function_from_integer(builtin("nmod2"))
    report = check_set_union(g, [[1, 2], [2, 3]])
    hit = report.find(((1, 2), (2, 3)))
    assert hit is not None and hit.lhs == 1.0 and hit.rhs == 0.0


def test_set_union_cardinality_clean():
    g = cardinality_set_function()
    family = [[1, 2], [2, 3], [5], [1, 2, 3, 4]]
    assert check_set_union(g, family).clean


def test_set_union_disjoint_singletons_clean():
    g = set_function_from_integer(builtin("nmod2"))
    assert check_set_union(g, [[1], [3]]).clean


def test_shifted_subadditivity():
    nm = builtin("nmod2")
    shifted = check_shifted_subadditivity(nm, 1, BUDGET)
    hit = shifted.find(((1.0,), (1.0,)))
    assert hit is not None and hit.lhs == 1.0 and hit.rhs == 0.0
    assert check_shifted_subadditivity(nm, 0, BUDGET).clean
    assert check_shifted_subadditivity(nm, 2, BUDGET).clean


def test_shift_by_two_equals_original_exhaustively():
    nm = builtin("nmod2")
    for n in range(-100, 101):
        assert nm.evaluate((n + 2,)) == nm.evaluate((n,))


def test_reports_are_deterministic():
    a = check_joint(builtin("sqrt_prod"), SampleBudget(count=500, seed=7))
    b = check_joint(builtin("sqrt_prod"), SampleBudget(count=500, seed=7))
    assert a.to_json_dict() == b.to_json_dict()
    c = check_joint(builtin("sqrt_prod"), SampleBudget(count=500, seed=8))
    assert a.to_json_dict() != c.to_json_dict()


def test_every_violation_reverifies_by_direct_evaluation():
    oracle = builtin("sqrt_prod")
    report = check_joint(oracle, SampleBudget(count=500, seed=7))
    assert report.violations
    for v in report.violations[:50]:
        x, y = v.witness
        s = tuple(a + b for a, b in zip(x, y))
        lhs = oracle.evaluate(s)
        rhs = oracle.evaluate(x) + oracle.evaluate(y)
        assert lhs == v.lhs and rhs == v.rhs
        assert v.margin > violation_tolerance(lhs, rhs)


def test_shrinking_moves_random_witnesses_toward_the_floor():
    report = check_joint(builtin("sqrt_prod"), SampleBudget(count=200, seed=7))
    random_hits = [v for v in report.violations
                   if v.witness != ((1.0, 2.0), (2.0, 1.0))]
    assert random_hits
    # shrunken coordinates sit near the shrink floor, far below the range top
    smallest = min(max(abs(c) for w in v.witness for c in w) for v in random_hits)
    assert smallest < 1.0


def test_componentwise_subadditive_builtins_all_clean_at_default_budget():
    for name in ("sqrt_prod", "full_shift_count_log", "abs", "ceiling", "nmod2"):
        oracle = builtin(name)
        assert oracle.claims_componentwise_subadditive
        report = check_componentwise(oracle, SampleBudget(seed=99))
        assert report.clean, f"{name} reported {len(report.violations)} violations"


def test_large_tabulated_domains_are_sampled_on_grid():
    # 20x20 grid (too large for exhaustive probing) hiding one violation:
    # f doubles too fast at the far corner
    axis = tuple(float(k) for k in range(1, 21))
    values = []
    for x in axis:
        for y in axis:
            values.append(1000.0 if (x, y) == (20.0, 20.0) else x + y)
    oracle = TabulatedFunction(axes=(axis, axis), values=tuple(values)).to_oracle("big")
    report = check_joint(oracle, SampleBudget(count=4000, seed=11))
    assert report.samples_checked > 100  # random grid pairs actually ran
    assert any(tuple(a + b for a, b in zip(*v.witness)) == (20.0, 20.0)
               for v in report.violations)


def test_componentwise_checks_on_tables_screen_the_sum_point():
    # x1^2 x2 on an 8 x 7 grid: x1^2 breaks subadditivity along axis 0, and
    # x + y_0 e_0 is often on the grid when x + y is not (axis 1 is odd)
    axes = (tuple(float(k) for k in range(1, 9)), tuple(float(k) for k in range(1, 14, 2)))
    oracle = TabulatedFunction(axes=axes, values=tuple(
        a * a * b for a in axes[0] for b in axes[1])).to_oracle("sq")
    report = check_componentwise(oracle, SampleBudget(seed=1))
    assert report.samples_checked > 1000 and report.violation_count > 100
    assert {v.axis for v in report.violations} == {0}
    for v in report.violations:
        (x1, x2), (y1, y2) = v.witness
        assert y2 == x2 and (x1 + y1) in axes[0]
        assert v.lhs == oracle.evaluate((x1 + y1, x2)) > v.rhs


def test_probe_points_of_a_large_table_allocate_little():
    # deterministic memory guard: listing the million grid points first
    # peaked at 64 MB, only to probe none of them
    axis = tuple(float(k) for k in range(1, 1001))
    domain = Domain(dim=2, grid_axes=(axis, axis))
    tracemalloc.start()
    try:
        probes = _probe_points(domain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probes.shape == (0, 2)
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_report_serialization_shapes():
    report = check_joint(builtin("sqrt_prod"), SampleBudget(count=100, seed=1))
    payload = report.to_json_dict()
    assert set(payload) >= {"kind", "oracle", "samples_checked", "violations"}
    record = payload["violations"][0]
    assert set(record) == {"kind", "axis", "witness", "lhs", "rhs", "margin"}
    rows = report.to_csv_rows()
    assert rows[0] == ["kind", "axis", "witness", "lhs", "rhs", "margin"]
    assert len(rows) == len(report.violations) + 1


@pytest.mark.parametrize("vectorized", [False, True])
def test_nan_at_sampled_points_raises_evaluation_error(vectorized):
    # finite on the probe lattice (coordinates up to 6), NaN far out
    oracle = FunctionOracle(
        name="nan_far_out", domain=Domain(dim=2, orthant=Orthant.main(2)),
        fn=lambda p: math.nan if p[0] > 10 else p[0],
        array_fn=(lambda x1, x2: np.where(x1 > 10, np.nan, x1)) if vectorized else None)
    with pytest.raises(EvaluationError, match="NaN"):
        check_joint(oracle, SampleBudget(count=200, seed=3))


@pytest.mark.parametrize("check", [check_joint, check_four_term])
def test_mixed_infinities_raise_indeterminate_form(check):
    # f(x) + f(y) is inf + (-inf) whenever x and y have opposite signs
    oracle = FunctionOracle(name="signed_infinity", domain=Domain(dim=1, orthant=None),
                            fn=lambda p: math.inf if p[0] > 0 else -math.inf)
    with pytest.raises(IndeterminateFormError):
        check(oracle, SampleBudget(count=200, seed=3))


def _reference_pair_check(oracle, budget, axis=None):
    """The joint (axis None) or axis-i check as one scalar loop, pair by pair.

    Covers oracles on the main orthant of R^d, on all of Z^d and on grids
    too large to probe, at the default ranges.  Every hit is counted;
    probe hits are listed as given, and of the distinct random hits the
    TOP_K with the largest screen margin (the earlier one on ties) are
    each halved while x, y and the sum point stay in the domain, above the
    0.1 floor, and violating, for at most 80 steps.  The sum point is
    x + y, or on axis i, x with y_i added on that axis alone.  Also returns how many of
    those moved at least one step.
    """
    domain, d = oracle.domain, oracle.domain.dim
    integer, grid = domain.integer, domain.grid_axes

    def draw(counter, i):
        if grid is not None:
            return grid[i][integer_in(budget.seed, counter, 0, len(grid[i]) - 1)]
        if integer:
            return float(integer_in(budget.seed, counter, -100, 100))
        return uniform_in(budget.seed, counter, 0.1, 100.0)

    def inside(p):
        return domain.contains(Point(p))

    def sum_point(x, y):
        return tuple(a + b if axis in (None, i) else a for i, (a, b) in enumerate(zip(x, y)))

    def violated(x, y):
        lhs = oracle.evaluate(sum_point(x, y))
        rhs = ext_add(oracle.evaluate(x), oracle.evaluate(y))
        return (lhs, rhs) if lhs > rhs + violation_tolerance(lhs, rhs) else None

    def halve(c):
        return math.copysign(max(1, abs(int(c)) // 2), c) if integer else c / 2.0

    lattice = [-2.0, -1.0, 1.0, 2.0, 3.0] if integer else [1.0, 2.0, 3.0]
    probes = [] if grid is not None else list(itertools.product(lattice, repeat=d))
    candidates = [(x, y, True) for x in probes for y in probes]
    for j in range(budget.count):
        candidates.append((tuple(draw(2 * d * j + i, i) for i in range(d)),
                           tuple(draw(2 * d * j + d + i, i) for i in range(d)), False))
    hits, checked = [], 0
    for x, y, probe in candidates:
        if not inside(sum_point(x, y)):
            continue
        if axis is not None:
            y = tuple(b if i == axis else a for i, (a, b) in enumerate(zip(x, y)))
            if not inside(y):
                continue
        checked += 1
        hit = violated(x, y)
        if hit is not None:
            hits.append((x, y, probe, hit))
    first = {}
    for order, (x, y, probe, hit) in enumerate(hits):
        first.setdefault((x, y), (order, probe, hit))
    listed = [(x, y, hit) for (x, y), (_, probe, hit) in first.items() if probe]
    drawn = sorted(((-(hit[0] - hit[1]), order, x, y, hit)
                    for (x, y), (order, probe, hit) in first.items() if not probe))
    moved = 0
    for _, _, x, y, hit in drawn[:TOP_K]:
        for step in range(80):
            nx, ny = tuple(map(halve, x)), tuple(map(halve, y))
            if ((nx, ny) == (x, y) or min(map(abs, nx + ny)) < 0.1
                    or not (inside(nx) and inside(ny) and inside(sum_point(nx, ny)))):
                break
            new_hit = violated(nx, ny)
            if new_hit is None:
                break
            x, y, hit = nx, ny, new_hit
            moved += step == 0
        listed.append((x, y, hit))
    violations = [Violation(kind="joint" if axis is None else "componentwise", axis=axis,
                            witness=(x, y), lhs=hit[0], rhs=hit[1]) for x, y, hit in listed]
    return violations, checked, len(hits), len(first), moved


def test_batch_engine_matches_the_scalar_reference_loop():
    zint = FunctionOracle(name="zint", domain=Domain(dim=2, orthant=None, integer=True),
                          fn=lambda p: float(abs(p[0]) * abs(p[1]) % 7) - 2.0)
    # a 12 x 12 grid (too large to probe) on which x1 + x2 breaks at the far corner
    axis = tuple(float(k) for k in range(1, 13))
    table = TabulatedFunction(axes=(axis, axis), values=tuple(
        100.0 if x + y > 20 else x + y for x in axis for y in axis)).to_oracle("grid")
    hits, moved = 0, {}
    for oracle in (builtin("sqrt_prod"), builtin("neg_x1_sqrt_x2"), zint, table):
        for seed in (-1, 2024):
            budget = SampleBudget(count=300, seed=seed)
            cases = [(check_joint, [None])]
            cases.append((check_componentwise, list(range(oracle.domain.dim))))
            for check, axes in cases:
                runs = [_reference_pair_check(oracle, budget, axis) for axis in axes]
                expected = ViolationReport(
                    kind=check(oracle, SampleBudget(count=1, seed=seed)).kind,
                    oracle=oracle.name, violations=tuple(v for r in runs for v in r[0]),
                    samples_checked=sum(r[1] for r in runs),
                    metadata={"seed": seed, "count": 300},
                    hit_count=sum(r[2] for r in runs), violation_count=sum(r[3] for r in runs))
                got = check(oracle, budget)
                assert got.to_json_dict() == expected.to_json_dict()
                assert got.to_csv_rows() == expected.to_csv_rows()
                hits += got.hit_count
                kind = "integer" if oracle.domain.integer else "real"
                moved[kind] = moved.get(kind, 0) + sum(r[4] for r in runs)
    assert hits > 1000  # the whole budget is screened and counted
    # listed random hits really shrink, on real and on integer domains
    assert moved["real"] >= TOP_K and moved["integer"] >= TOP_K


def _random_witnesses(report, probe_lattice):
    """Listed witnesses whose first point is off the probe lattice."""
    return [v for v in report.violations
            if not set(v.witness[0]) <= set(probe_lattice)]


def test_shrunk_real_coordinates_stay_at_the_sampling_floor():
    budget = SampleBudget(count=3000, seed=5)
    reports = [check_joint(builtin("sqrt_prod"), budget),
               check_componentwise(builtin("neg_x1_sqrt_x2"), budget)]
    for report in reports:
        witnesses = _random_witnesses(report, (1.0, 2.0, 3.0))
        assert witnesses
        assert all(abs(c) >= 0.1 for v in witnesses for w in v.witness for c in w)


def _square_product():
    # (x1 x2)^2 breaks the 2^d-term bound: (x+y)^2 terms exceed the mixed sums
    return FunctionOracle(name="square_product", domain=Domain(dim=2, orthant=Orthant.main(2)),
                          fn=lambda p: (p[0] * p[1]) ** 2,
                          array_fn=lambda x1, x2: (x1 * x2) ** 2)


def _negative_square_norm():
    # f(x) + f(-x) = -2|x|^2 < 0 away from the origin
    return FunctionOracle(name="negative_square_norm", domain=Domain(dim=2, orthant=None),
                          fn=lambda p: -(p[0] ** 2 + p[1] ** 2),
                          array_fn=lambda x1, x2: -(x1 ** 2 + x2 ** 2))


@pytest.mark.parametrize("check, oracle, probe, lattice, engine_calls", [
    (check_joint, "sqrt_prod", ((1.0, 2.0), (2.0, 1.0)), (1.0, 2.0, 3.0), 1),
    (check_componentwise, "neg_x1_sqrt_x2", ((1.0, 2.0), (1.0, 1.0)), (1.0, 2.0, 3.0), 2),
    (check_four_term, _square_product, ((1.0, 2.0), (2.0, 1.0)), (1.0, 2.0, 3.0), 1),
    (check_monoid_sign, _negative_square_norm, ((1.0, 2.0), (-1.0, -2.0)),
     (-2.0, -1.0, 1.0, 2.0, 3.0), 1),
], ids=["joint", "componentwise", "four_term", "monoid"])
def test_reports_list_the_strongest_few_and_count_every_hit(check, oracle, probe, lattice,
                                                          engine_calls):
    oracle = builtin(oracle) if isinstance(oracle, str) else oracle()
    budget = SampleBudget(count=5000, seed=31)
    report = check(oracle, budget)
    hit = report.find(probe)
    assert hit is not None and hit.margin > 0  # the probe witness, listed as given
    drawn = _random_witnesses(report, lattice)
    assert 0 < len(drawn) <= TOP_K * engine_calls
    assert report.hit_count >= report.violation_count >= len(drawn)
    assert report.violation_count > len(report.violations)  # some hits are only counted
    margins = [v.margin for v in report.violations]
    assert margins == sorted(margins, reverse=True)
    payload = report.to_json_dict()
    assert (payload["hit_count"], payload["violation_count"]) == (report.hit_count,
                                                                  report.violation_count)
    rerun = check(oracle, budget)
    assert json.dumps(rerun.to_json_dict()) == json.dumps(payload)
    assert rerun.to_csv_rows() == report.to_csv_rows()


def test_exhaustive_reports_count_what_they_list():
    g = set_function_from_integer(builtin("nmod2"))
    report = check_set_union(g, [[1, 2], [2, 3], [2, 3]])
    assert report.violation_count == report.hit_count == len(report.violations) == 1


def test_shifted_translate_evaluates_the_oracle_once_per_batch(monkeypatch):
    batches, calls = [], []
    evaluate_points = FunctionOracle.evaluate_points
    monkeypatch.setattr(FunctionOracle, "evaluate_points", lambda self, columns: (
        batches.append((self.name, len(columns[0]))) or evaluate_points(self, columns)))
    nmod3 = FunctionOracle(name="nmod3", domain=Domain(dim=1, integer=True),
                           fn=lambda p: float(int(p[0]) % 3),
                           array_fn=lambda n: calls.append(len(n)) or np.remainder(n, 3.0))
    report = check_shifted_subadditivity(nmod3, 1, SampleBudget(count=2000, seed=5))
    shifted = [n for name, n in batches if name == "nmod3_shifted_by_1"]
    assert len(shifted) >= 3 and [n for name, n in batches if name == "nmod3"] == shifted
    assert calls == shifted
    # pinned from the per-point translate this replaced
    assert (report.violation_count, report.hit_count, report.samples_checked) == (229, 231, 2025)
    assert len(report.violations) == 24
    assert report.violations[0].witness == ((-100.0,), (-19.0,))
    assert report.violations[-1].witness == ((68.0,), (-37.0,))
