"""Acceptance suite: one test per criterion, tolerances pinned in place.

Each test prints a single ``[criterion N] PASS/FAIL`` line.  Expected
values are either exact, derived from an independent oracle computed
here (closed-form integrals, Fibonacci recurrence, brute-force
enumeration, the transfer-matrix eigenvalue of tests/reference_1d.py), or
pinned small-integer identities; nothing is taken from the implementation
under test.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from fractions import Fraction

from fekete_lab.checks import check_componentwise, check_joint, check_set_union, \
    check_shifted_subadditivity
from fekete_lab.cli import main as cli_main
from fekete_lab.domain import GridSchedule, Point
from fekete_lab.levelset import check_levelset_lemma, levelset_measure, LevelSetSpec, \
    rubin_unboundedness_demo
from fekete_lab.limits import (
    CONVERGED,
    DIVERGING_PLUS,
    iterated_limit,
    simultaneous_limit,
    verify_decomposition_bound,
)
from fekete_lab.registry import builtin
from fekete_lab.sampling import SampleBudget, uniform_in
from fekete_lab.subshift import (
    builtin_sft,
    check_count_submultiplicativity,
    count_patterns,
    entropy_bounds,
)
from known_limits import BUILTINS
from reference_1d import dominant_eigenvalue, transfer_matrix_1d, transfer_matrix_count_1d

SEED = 20240202
CSA_BUILTINS = tuple(name for name, known in BUILTINS.items() if known.componentwise)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_joint_violation_exact_componentwise_clean():
    start = time.monotonic()
    oracle = builtin("sqrt_prod")
    budget = SampleBudget(count=10_000, seed=SEED)

    joint = check_joint(oracle, budget)
    hit = joint.find(((1.0, 2.0), (2.0, 1.0)))
    expected_margin = 3.0 - 2.0 * math.sqrt(2.0)
    joint_ok = (hit is not None and hit.lhs == 3.0
                and abs(hit.margin - expected_margin) <= 1e-12)

    componentwise = check_componentwise(oracle, budget)
    elapsed = time.monotonic() - start
    ok = joint_ok and componentwise.clean and elapsed < 5.0
    _report(1, ok,
            f"joint witness margin {None if hit is None else hit.margin!r} "
            f"(expected {expected_margin!r}), componentwise violations "
            f"{len(componentwise.violations)}, {elapsed:.2f}s")


def test_criterion_02_simultaneous_limit_on_sqrt_prod():
    start = time.monotonic()
    oracle = builtin("sqrt_prod")
    # levels=14 pushes each axis to 2^14 = 16384 > 10^4
    schedule = GridSchedule(base=Point((1.0, 1.0)), growth=2.0, levels=14)
    bracket = simultaneous_limit(oracle, schedule, delta=0.01)
    bounds = [v for _, v in bracket.running_bound_by_shell()]
    monotone = all(a >= b for a, b in zip(bounds, bounds[1:]))
    elapsed = time.monotonic() - start
    ok = (bracket.status == CONVERGED and bracket.best_upper <= 0.01
          and bracket.best_upper >= 0.0 and monotone and elapsed < 5.0)
    _report(2, ok,
            f"status {bracket.status}, best_upper {bracket.best_upper!r}, "
            f"running min monotone {monotone}, {elapsed:.2f}s")


def test_criterion_03_iterated_permutation_agreement():
    agree = True
    for name in ("sqrt_prod", "full_shift_count_log"):
        oracle = builtin(name)
        sim = simultaneous_limit(oracle, GridSchedule(base=Point((1.0, 1.0)), levels=40),
                                 delta=0.01)
        estimates = [sim.best_upper]
        for order in itertools.permutations(range(2)):
            it = iterated_limit(oracle, order, delta=0.01)
            agree &= it.status == CONVERGED
            estimates.append(it.value)
        spread = max(estimates) - min(estimates)
        agree &= spread <= 0.02

    mixed = builtin("x1sq_sqrt_x2")
    lo = iterated_limit(mixed, (0, 1), delta=0.01)
    hi = iterated_limit(mixed, (1, 0), delta=0.01)
    order_dependence = (lo.status == CONVERGED and abs(lo.value) <= 0.01
                        and hi.status == DIVERGING_PLUS and hi.value == math.inf)
    ok = agree and order_dependence
    _report(3, ok,
            f"subadditive spread <= 0.02: {agree}; mixed orders -> "
            f"({lo.value!r}, {lo.status}) and ({hi.value!r}, {hi.status})")


def test_criterion_04_decomposition_bound():
    worked = verify_decomposition_bound(builtin("sqrt_prod"), (5, 7), (2, 3))
    direct = math.sqrt(12) + math.sqrt(9) + math.sqrt(8) + math.sqrt(6)
    worked_ok = (worked.holds and abs(worked.rhs - direct) <= 1e-9
                 and worked.rhs >= math.sqrt(35))

    failures = 0
    for index, name in enumerate(CSA_BUILTINS):
        oracle = builtin(name)
        d = oracle.domain.dim
        integer = oracle.domain.integer
        for j in range(1000):
            base = index * 10_000 + j * 2 * d
            if integer:
                t = tuple(1 + int(uniform_in(SEED, base + 2 * i, 0, 5))
                          for i in range(d))
                x = tuple(2 * t[i] + int(uniform_in(SEED, base + 2 * i + 1, 0, 40))
                          for i in range(d))
            else:
                t = tuple(uniform_in(SEED, base + 2 * i, 0.5, 5.0) for i in range(d))
                x = tuple(2 * t[i] + uniform_in(SEED, base + 2 * i + 1, 0.0, 40.0)
                          for i in range(d))
            failures += not verify_decomposition_bound(oracle, x, t).holds
    ok = worked_ok and failures == 0
    _report(4, ok,
            f"worked rhs {worked.rhs!r} vs direct {direct!r}; "
            f"{failures} failures over 1000 pairs x {len(CSA_BUILTINS)} oracles")


def test_criterion_05_levelset_lemma_margins():
    start = time.monotonic()
    oracle = builtin("sqrt_prod")
    est = levelset_measure(oracle, LevelSetSpec(t=Point((1.0, 1.0)), k=0.25),
                           "grid", cells=2000)
    expected_margin = 1.0 - (1.0 + 4.0 * math.log(2.0)) / 16.0 - 0.25
    margin = est.value - 0.25
    unit_ok = (abs(margin - expected_margin) <= 0.01
               and est.error_bound <= 0.01)

    anchors_ok = True
    for name, dim in (("sqrt_prod", 2), ("abs", 1), ("ceiling", 1)):
        fn = builtin(name)
        anchors = [tuple(uniform_in(SEED, 100 + j * dim + i, 0.5, 4.0)
                         for i in range(dim)) for j in range(10)]
        rows = check_levelset_lemma(fn, anchors, cells=400)
        anchors_ok &= all(row.holds for row in rows)
    elapsed = time.monotonic() - start
    ok = unit_ok and anchors_ok and elapsed < 30.0
    _report(5, ok,
            f"unit-anchor margin {margin!r} (expected {expected_margin!r}, "
            f"error bound {est.error_bound!r}), anchors hold {anchors_ok}, "
            f"{elapsed:.2f}s")


def test_criterion_06_min_denominator_bounded_lines_unbounded_box():
    demo = rubin_unboundedness_demo(1000)
    diagonal_ok = all(
        point == (1 + Fraction(1, n), 1 + Fraction(1, n)) and value == n
        for n, (point, value) in enumerate(demo.diagonal, start=1)
    )
    lines_ok = all(scan.max_value <= scan.denominator_bound and scan.ok
                   for scan in demo.line_scans)
    ok = diagonal_ok and lines_ok and len(demo.diagonal) == 1000
    _report(6, ok,
            f"diagonal exact for n=1..1000: {diagonal_ok}; "
            f"20 line scans bounded: {lines_ok}")


def test_criterion_07_pattern_counts_exact():
    fib = [0, 1]
    for _ in range(30):
        fib.append(fib[-1] + fib[-2])
    golden = builtin_sft("golden_mean_1d")
    golden_ok = all(
        count_patterns(golden, (n,)) == fib[n + 2]
        and transfer_matrix_count_1d(golden, n) == fib[n + 2]
        for n in range(1, 21)
    )

    full = builtin_sft("full_shift")
    full_ok = all(
        count_patterns(full, sides) == 2 ** (sides[0] * sides[1])
        for sides in ((1, 1), (2, 3), (3, 4), (4, 6), (2, 12), (24, 1), (4, 4))
    )

    hard = builtin_sft("hard_square_2d")

    def brute(n: int) -> int:
        total = 0
        for mask in range(2 ** (n * n)):
            bits = [[(mask >> (i * n + j)) & 1 for j in range(n)] for i in range(n)]
            good = all(
                not (bits[i][j] and ((j + 1 < n and bits[i][j + 1])
                                     or (i + 1 < n and bits[i + 1][j])))
                for i in range(n) for j in range(n)
            )
            total += good
        return total

    hard_ok = all(count_patterns(hard, (n, n)) == brute(n) for n in range(1, 5))
    ok = golden_ok and full_ok and hard_ok
    _report(7, ok,
            f"golden==fib(n+2) n<=20: {golden_ok}; full shift 2^(n1*n2): {full_ok}; "
            f"hard square vs 2^(n*n) brute force n<=4: {hard_ok}")


def test_criterion_08_certified_entropy_bounds():
    start = time.monotonic()
    hard = builtin_sft("hard_square_2d")
    hard_bracket = entropy_bounds(hard, 8)
    mins = [e.running_min for e in hard_bracket.entries]
    hard_monotone = len(mins) == 8 and all(a >= b for a, b in zip(mins, mins[1:]))
    hard_submult = check_count_submultiplicativity(hard, 8).clean

    golden = builtin_sft("golden_mean_1d")
    golden_bracket = entropy_bounds(golden, 16)
    bound_at_16 = golden_bracket.entries[-1].running_min
    _, matrix = transfer_matrix_1d(golden)
    eigen_log = math.log2(dominant_eigenvalue(matrix))
    gap = bound_at_16 - eigen_log
    elapsed = time.monotonic() - start

    structural_ok = hard_monotone and hard_submult and elapsed < 60.0
    ok = structural_ok and abs(gap) <= 0.01
    _report(8, ok,
            f"hard-square running min nonincreasing {hard_monotone}, "
            f"submultiplicativity exact {hard_submult}, {elapsed:.2f}s; "
            f"golden-mean bound at side 16 = {bound_at_16!r} vs eigenvalue log "
            f"{eigen_log!r}: gap {gap!r} (required <= 0.01; the cube-ratio bound "
            f"log2(fib(18))/16 sits 0.0142 above the limit, first dipping under "
            f"0.01 at side 23, so this distance is not attainable at side 16)")


def test_criterion_09_parity_counterexamples_exact():
    from fekete_lab.registry import set_function_from_integer
    nmod2 = builtin("nmod2")
    g = set_function_from_integer(nmod2)
    union = check_set_union(g, [[1, 2], [2, 3]])
    union_hit = union.find(((1, 2), (2, 3)))
    union_ok = union_hit is not None and union_hit.lhs == 1.0 and union_hit.rhs == 0.0

    budget = SampleBudget(count=5000, seed=SEED)
    shifted = check_shifted_subadditivity(nmod2, 1, budget)
    shift_hit = shifted.find(((1.0,), (1.0,)))
    shift_ok = shift_hit is not None and shift_hit.lhs == 1.0 and shift_hit.rhs == 0.0
    clean0 = check_shifted_subadditivity(nmod2, 0, budget).clean
    ok = union_ok and shift_ok and clean0
    _report(9, ok,
            f"union 1 > 0: {union_ok}; shift-1 h(2)=1 > 2h(1)=0: {shift_ok}; "
            f"shift-0 clean: {clean0}")


def test_criterion_10_byte_identical_reruns(tmp_path):
    def run_all(out):
        commands = [
            ["counterexamples", "--out", str(out), "--seed", "7", "--no-timestamp"],
            ["check", "--fn", "sqrt_prod", "--mode", "joint", "--count", "2000",
             "--seed", "7", "--out", str(out)],
            ["check", "--fn", "sqrt_prod", "--mode", "componentwise",
             "--count", "2000", "--seed", "7", "--out", str(out)],
            ["limit", "--fn", "sqrt_prod", "--levels", "14", "--out", str(out),
             "--no-timestamp"],
            ["limit", "--fn", "x1sq_sqrt_x2", "--iterated", "2,1", "--out", str(out),
             "--no-timestamp"],
            ["entropy", "--sft", "golden_mean_1d", "--max-side", "16",
             "--out", str(out), "--no-timestamp"],
            ["entropy", "--sft", "hard_square_2d", "--max-side", "8",
             "--out", str(out), "--no-timestamp"],
            ["levelset", "--fn", "sqrt_prod", "--anchors", "1,1", "--cells", "500",
             "--seed", "7", "--out", str(out)],
        ]
        for argv in commands:
            cli_main(argv)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_all(out_a)
    run_all(out_b)
    names = sorted(p.name for p in out_a.iterdir())
    identical = names == sorted(p.name for p in out_b.iterdir()) and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names
    )
    counterexamples = json.loads((out_a / "counterexamples.json").read_text())
    reproduced = all(r["reproduced"] for r in counterexamples["results"])
    ok = identical and reproduced and len(names) >= 12
    _report(10, ok,
            f"{len(names)} result files byte-identical across reruns: {identical}; "
            f"counterexample gallery reproduced: {reproduced}")
