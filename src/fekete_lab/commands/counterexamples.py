"""counterexamples: replay the gallery of counterexamples end to end."""

from __future__ import annotations

import argparse
import math

from ..cli import EXIT_OK, EXIT_VIOLATIONS, _meta
from ..domain import GridSchedule, Point
from ..ioutil import write_json_atomic


def _replay_sqrt_product(seed: int) -> dict:
    from ..checks import check_componentwise, check_joint
    from ..registry import builtin
    from ..sampling import SampleBudget
    oracle = builtin("sqrt_prod")
    budget = SampleBudget(count=2000, seed=seed)
    joint = check_joint(oracle, budget)
    witness = joint.find(((1.0, 2.0), (2.0, 1.0)))
    expected_margin = 3.0 - 2.0 * math.sqrt(2.0)
    margin_ok = witness is not None and abs(witness.margin - expected_margin) <= 1e-12
    componentwise = check_componentwise(oracle, budget)
    return {
        "name": "sqrt_product_joint_vs_componentwise",
        "detail": "componentwise subadditive yet jointly violated at (1,2)+(2,1)",
        "reproduced": bool(margin_ok and componentwise.clean),
        "joint_margin": None if witness is None else witness.margin,
        "componentwise_clean": componentwise.clean,
    }


def _replay_min_denominator() -> dict:
    from ..levelset import rubin_unboundedness_demo
    demo = rubin_unboundedness_demo(100)
    return {
        "name": "min_denominator_unbounded_box",
        "detail": "bounded on every axis line, unbounded on the box",
        "reproduced": demo.ok,
        "max_diagonal_value": max(v for _, v in demo.diagonal),
    }


def _replay_mixed_curvature() -> dict:
    from ..limits import (CONVERGED, DIVERGING_PLUS, INCONCLUSIVE, iterated_limit,
                          simultaneous_limit)
    from ..registry import builtin
    oracle = builtin("x1sq_sqrt_x2")
    schedule = GridSchedule(base=Point((1.0, 1.0)))
    lo = iterated_limit(oracle, (0, 1), schedule, 0.01)
    hi = iterated_limit(oracle, (1, 0), schedule, 0.01)
    sim = simultaneous_limit(oracle, schedule, 0.01)
    ok = (lo.status == CONVERGED and abs(lo.value) <= 0.01
          and hi.status == DIVERGING_PLUS and hi.value == math.inf
          and sim.status == INCONCLUSIVE)
    return {
        "name": "mixed_curvature_order_dependence",
        "detail": "iterated limits 0 vs +inf depending on order; no simultaneous limit",
        "reproduced": bool(ok),
        "order_1_2": lo.value,
        "order_2_1": hi.value,
        "simultaneous_status": sim.status,
    }


def _replay_parity_set_lift(seed: int) -> dict:
    from ..checks import check_set_union, check_shifted_subadditivity
    from ..registry import builtin, set_function_from_integer
    from ..sampling import SampleBudget
    oracle = builtin("nmod2")
    g = set_function_from_integer(oracle)
    union = check_set_union(g, [[1, 2], [2, 3]])
    union_hit = union.find(((1, 2), (2, 3)))
    budget = SampleBudget(count=2000, seed=seed)
    shifted = check_shifted_subadditivity(oracle, 1, budget)
    shift_hit = shifted.find(((1.0,), (1.0,)))
    unshifted = check_shifted_subadditivity(oracle, 0, budget)
    ok = (union_hit is not None and union_hit.lhs == 1.0 and union_hit.rhs == 0.0
          and shift_hit is not None and shift_hit.lhs == 1.0 and shift_hit.rhs == 0.0
          and unshifted.clean)
    return {
        "name": "parity_set_lift_and_shift",
        "detail": "cardinality lift breaks union subadditivity; shift by 1 breaks it on Z",
        "reproduced": bool(ok),
        "union_margin": None if union_hit is None else union_hit.margin,
        "shift_margin": None if shift_hit is None else shift_hit.margin,
        "unshifted_clean": unshifted.clean,
    }


def run(ns: argparse.Namespace) -> int:
    results = [
        _replay_sqrt_product(ns.seed),
        _replay_min_denominator(),
        _replay_mixed_curvature(),
        _replay_parity_set_lift(ns.seed),
    ]
    write_json_atomic(ns.out / "counterexamples.json", {"meta": _meta(ns), "results": results})
    for r in results:
        print(f"{'PASS' if r['reproduced'] else 'FAIL'} {r['name']}: {r['detail']}")
    print(f"{sum(r['reproduced'] for r in results)}/{len(results)} reproduced "
          f"-> {ns.out / 'counterexamples.json'}")
    return EXIT_OK if all(r["reproduced"] for r in results) else EXIT_VIOLATIONS
