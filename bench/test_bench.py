"""Self-test of the benchmark: references, verifiers and tracing.

    python3 -m pytest bench/test_bench.py -q

Runs every workload job once, then feeds each verifier a tampered copy
of a real output and requires the job to be reported as failed.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

SEED = 5


def _job(workload: str, name: str) -> Job:
    return next(j for j in WORKLOADS[workload] if j.name == name)


# ---------------------------------------------------------------------------
# Reference counters against brute force
# ---------------------------------------------------------------------------

def _grids(shape: tuple[int, ...], symbols: int):
    cells = list(itertools.product(*[range(n) for n in shape]))
    for values in itertools.product(range(symbols), repeat=len(cells)):
        yield dict(zip(cells, values))


def _brute_count(shape: tuple[int, ...], symbols: int, bad) -> int:
    """Grids with no axis-adjacent pair (a, b) for which bad(a, b) holds."""
    total = 0
    for grid in _grids(shape, symbols):
        ok = True
        for cell, value in grid.items():
            for axis in range(len(shape)):
                nxt = tuple(c + (i == axis) for i, c in enumerate(cell))
                if nxt in grid and bad(value, grid[nxt]):
                    ok = False
                    break
            if not ok:
                break
        total += ok
    return total


def test_reference_counters_match_brute_force():
    both_one = lambda a, b: a == 1 and b == 1  # noqa: E731
    assert workloads.golden_mean_counts(10) == [_brute_count((n,), 2, both_one)
                                                for n in range(1, 11)]
    assert workloads.hard_square_counts(3) == [_brute_count((n, n), 2, both_one)
                                               for n in range(1, 4)]
    assert workloads.colour3_counts(3) == [_brute_count((n, n), 3, lambda a, b: a == b)
                                           for n in range(1, 4)]
    assert workloads.hard_cube_counts(2) == [_brute_count((n, n, n), 2, both_one)
                                             for n in range(1, 3)]
    # published values: independent sets of the 4x4 grid, 3-colourings of the 3x3 grid
    assert workloads.hard_square_counts(4)[-1] == 1234
    assert workloads.colour3_counts(3)[-1] == 246


def test_inputs_depend_only_on_the_seed(tmp_path):
    texts = []
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        workloads.make_inputs(tmp_path / sub, seed)
        texts.append([(tmp_path / sub / rel).read_text()
                      for rel in (workloads.COLOUR3_SPEC, workloads.HARD_CUBE_SPEC)])
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


# ---------------------------------------------------------------------------
# Every job once, then tampered outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def passes(tmp_path_factory) -> dict[str, tuple[Path, list[run.JobRun]]]:
    done = {}
    for name, jobs in WORKLOADS.items():
        workdir = tmp_path_factory.mktemp(name)
        run.prepare_workdir(workdir, SEED)
        done[name] = (workdir, run.run_pass(jobs, workdir, SEED))
    return done


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_job_passes(passes, workload):
    _, runs = passes[workload]
    assert [(r.job, r.problems) for r in runs] == [(r.job, []) for r in runs]


def _edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def _drop_probe(report):
    report["violations"] = [v for v in report["violations"]
                            if v["witness"] != [[1.0, 2.0], [2.0, 1.0]]]


def _nudge_probe(report):
    for v in report["violations"]:
        if v["witness"] == [[1.0, 2.0], [2.0, 1.0]]:
            v["margin"] += 1e-9


def _add_violation(report):
    report["violation_count"] = 1
    report["violations"] = [{"kind": report["kind"], "axis": None, "lhs": 1.0, "rhs": 0.0,
                             "margin": 1.0, "witness": [[1.0], [1.0]]}]


def _fake_witness(report):
    # axis-0 equality case: -(1+2)*1 == -1*1 + -2*1, not a violation
    report["violations"][0].update(axis=0, witness=[[1.0, 1.0], [2.0, 1.0]])


def _drop_csv_row(out: Path) -> None:
    path = out / "bracket.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _set(key, value):
    return lambda obj: obj.__setitem__(key, value)


def _entry(index, key, value):
    return lambda obj: obj["entries"][index].__setitem__(key, value)


TAMPERS = {
    ("refute", "sqrt_prod_all", "missing probe witness"): ("check_joint.json", _drop_probe),
    ("refute", "sqrt_prod_all", "wrong probe margin"): ("check_joint.json", _nudge_probe),
    ("refute", "sqrt_prod_all", "componentwise not clean"):
        ("check_componentwise.json", _add_violation),
    ("refute", "neg_x1_sqrt_x2_componentwise", "no witness"):
        ("check_componentwise.json", lambda r: r.__setitem__("violations", [])),
    ("refute", "neg_x1_sqrt_x2_componentwise", "false witness"):
        ("check_componentwise.json", _fake_witness),
    ("refute", "nmod2_all", "monoid not clean"): ("check_monoid.json", _add_violation),
    ("bounds", "simultaneous_300", "flipped status"):
        ("bracket.json", _set("status", "inconclusive")),
    ("bounds", "simultaneous_300", "bound too high"): ("bracket.json", _set("best_upper", 0.5)),
    ("bounds", "simultaneous_300", "short csv"): (None, _drop_csv_row),
    ("bounds", "iterated_2_1", "finite value"): ("iterated.json", _set("value", 1.0)),
    ("bounds", "iterated_1_2", "flipped status"):
        ("iterated.json", _set("status", "diverging_to_plus_infinity")),
    ("bounds", "ray_1_1", "wrong limit"): ("ray.json", _set("best_upper", 1.5)),
    ("bounds", "diagonal_1_2", "bound too high"): ("diagonal.json", _set("best_upper", 0.5)),
    ("bounds", "levelset_mc", "lemma fails"):
        ("levelset.json", lambda r: r["rows"][1].__setitem__("holds", False)),
    ("bounds", "levelset_grid", "missing row"):
        ("levelset.json", lambda r: r["rows"].pop()),
    ("bounds", "hard_square_12", "wrong count"): ("entropy.json", _entry(3, "count", "1235")),
    ("bounds", "golden_mean_144", "wrong count"): ("entropy.json", _entry(-1, "count", "1")),
    ("bounds", "colour3_9", "truncated"): ("entropy.json", _set("truncated", True)),
    ("bounds", "hard_cube_4", "missing entry"):
        ("entropy.json", lambda r: r["entries"].pop()),
    ("bounds", "hard_cube_4", "running min increases"):
        ("entropy.json", _entry(-1, "running_min", 2.0)),
}


@pytest.mark.parametrize("key", list(TAMPERS), ids=["/".join(k) for k in TAMPERS])
def test_verifier_rejects_tampered_output(passes, tmp_path, key):
    workload, job_name, _ = key
    filename, change = TAMPERS[key]
    workdir, _ = passes[workload]
    out = tmp_path / job_name
    shutil.copytree(workdir / "out" / job_name, out)
    job = _job(workload, job_name)
    assert run.judge(job, job.expect_exit, out) == []
    if filename is None:
        change(out)
    else:
        _edit_json(out / filename, change)
    assert run.judge(job, job.expect_exit, out) != []


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_wrong_exit_code_fails(passes, workload):
    workdir, _ = passes[workload]
    job = WORKLOADS[workload][0]
    problems = run.judge(job, job.expect_exit + 1, workdir / "out" / job.name)
    assert any("exit code" in p for p in problems)


def test_digest_mismatch_fails(tmp_path):
    run.prepare_workdir(tmp_path, SEED)
    job = _job("bounds", "ray_1_1")
    (result,) = run.run_pass((job,), tmp_path, SEED, reference={job.name: "0" * 64})
    assert result.problems == ["output digest differs from the reference pass"]


def test_chunks_are_timed_while_a_job_runs(tmp_path):
    run.prepare_workdir(tmp_path, SEED)
    (result,) = run.run_pass((_job("bounds", "ray_1_1"),), tmp_path, SEED)
    assert result.problems == [] and result.chunks > 0 and result.chunk_s > 0
    assert result.ref_cpu_s() == pytest.approx(result.cpu_s * run.CHUNK_REF_S / result.chunk_s)
    assert run.mean_chunk([]) == run.CHUNK_REF_S


def test_deadline_cuts_a_pass_short(tmp_path):
    run.prepare_workdir(tmp_path, SEED)
    jobs = (_job("bounds", "ray_1_1"), _job("bounds", "iterated_2_1"))
    walls = {"ray_1_1": 0.0, "iterated_2_1": 1e9}
    runs = run.run_pass(jobs, tmp_path, SEED, deadline=time.perf_counter() + 60, walls=walls)
    assert [r.job for r in runs] == ["ray_1_1"]


# ---------------------------------------------------------------------------
# Tracing is harmless and partitions the root span
# ---------------------------------------------------------------------------

def test_traced_pass_matches_untraced(tmp_path):
    small_check = Job("small_check", ("check", "--fn", "sqrt_prod", "--mode", "all",
                                      "--count", "100"), 3, lambda out: [])
    jobs = (small_check, _job("bounds", "ray_1_1"), _job("bounds", "golden_mean_144"))
    run.prepare_workdir(tmp_path, SEED)
    plain = run.run_pass(jobs, tmp_path, SEED)
    traced = run.run_pass(jobs, tmp_path, SEED, traced=True,
                          reference={r.job: r.digest for r in plain})
    assert [r.problems for r in plain + traced] == [[]] * 6
    metrics, problems = run.layer_metrics(tmp_path, plain, traced)
    assert problems == []
    # bindings imported into other modules are traced too (cli's check_joint)
    edges = {(e["name"], e["parent"]) for e in traced[0].trace["edges"]}
    assert ("checks.check_joint", "cli.main") in edges
    assert ("registry.FunctionOracle.evaluate", "checks.check_joint") in edges
    assert ("sampling.raw64", "sampling.unit_uniform") in edges
    assert ("ioutil.write_text_atomic", "ioutil.write_json_atomic") in edges
    assert metrics["checks.pairs_screened"]["value"] > 0
    assert metrics["checks.evals_per_pair"]["value"] >= 3
    assert metrics["subshift.boxes"]["value"] == 144
    assert metrics["ioutil.files"]["value"] == 12
