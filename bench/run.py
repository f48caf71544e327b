"""End-to-end and per-layer benchmark of the fekete-lab command line.

    python3 bench/run.py --workload refute --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55   # table of every metric

Load model: a closed loop with one client.  Each job is a fresh
interpreter running the CLI entry point from this checkout's `src/`,
started only after the previous job has exited.  A pass runs the
workload's job list once.  The first pass always runs whole; after it a
job starts only while it is expected to end within --seconds of the
start, so the last pass may stop part way.  Every job's exit code and
outputs are verified, and its output digest must match the first pass.

Times are CPU seconds (user plus system) of the child processes, from
their own rusage, scaled to a reference speed.  The kernel leaves out of
CPU time the time the hypervisor steals from a shared virtual machine
and the time spent waiting for a CPU, both of which a wall clock counts.
What CPU time still carries is how fast the host runs each virtual CPU,
which swings by tens of percent from one second to the next and differs
between the virtual CPUs.  So each pass pins the benchmark, and with it
every job, to one CPU (the next usable CPU for the next pass), and while
a job runs the benchmark wakes up every few tens of milliseconds on that
CPU to time one small chunk of fixed reference work (bench/calibrate.py,
nothing from the package).  A job's CPU time times CHUNK_REF_S over the
mean chunk time during the job reads as CPU seconds on a machine where
one chunk takes CHUNK_REF_S.  Raw CPU and wall times and chunk counts are
kept in the detail record.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
pass and one traced pass (bench/tracer.py) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Machine facts and per-job
details go to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, Job, make_inputs  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The console-script entry point, spelled out so no install is needed.
ENTRY = "import sys; from fekete_lab.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_PER_PASS = 3  # set-up samples after each pass
# The reference speed: CPU seconds that one calibration chunk is taken to
# cost.  It is about its cost on a 2-vCPU Xeon VM under CPython 3.11, so
# that reported times stay near raw CPU seconds there; it sets only the unit.
CHUNK_REF_S = 0.0015
JOB_TIMEOUT_S = 150.0
SUBCOMMANDS = ("check", "limit", "levelset", "entropy")

END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "output_bytes": "B"}


@dataclass
class JobRun:
    job: str
    subcommand: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    output_bytes: int
    digest: str
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    chunk_s: float = CHUNK_REF_S  # mean calibration chunk time while the job ran
    chunks: int = 0

    def ref_cpu_s(self) -> float:
        """CPU seconds at the reference speed."""
        return self.cpu_s * CHUNK_REF_S / self.chunk_s


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # this checkout's package, nothing installed
    # numpy's OpenBLAS otherwise starts a worker thread per CPU, which spins
    # after start-up: CPU time would count that spinning, and on a 2-vCPU
    # machine the spinning competes with the job's own thread
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(cmd: list[str], cwd: Path, log: Path) -> tuple[int, float, float, float, list[float]]:
    """Run cmd to completion, timing calibration chunks on this CPU meanwhile.

    Returns the exit code, wall seconds, CPU seconds, peak RSS in MB and
    the CPU seconds of each chunk timed while cmd ran.
    """
    chunks = []
    with log.open("w") as log_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log_fh, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > JOB_TIMEOUT_S:
                    proc.kill()
                chunks.append(calibrate.chunk())
                time.sleep(calibrate.PROBE_GAP_S)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, chunks  # ru_maxrss is in KiB


def mean_chunk(chunks: list[float]) -> float:
    """Mean chunk time; the reference when no chunk was timed."""
    return statistics.fmean(chunks) if chunks else CHUNK_REF_S


def output_digest(out: Path) -> tuple[str, int]:
    """sha256 over every output file (name and bytes) and their total size."""
    h = hashlib.sha256()
    total = 0
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    for path in files:
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def judge(job: Job, exit_code: int, out: Path) -> list[str]:
    """Every problem with one finished job: wrong exit code or failed output checks."""
    problems = []
    if exit_code != job.expect_exit:
        problems.append(f"exit code {exit_code}, expected {job.expect_exit}")
    return problems + job.verify(out)


def run_job(job: Job, workdir: Path, seed: int, traced: bool) -> JobRun:
    out_rel = f"out/{job.name}"
    out = workdir / out_rel
    shutil.rmtree(out, ignore_errors=True)
    cli_args = [*job.argv, "--out", out_rel, "--seed", str(seed), "--no-timestamp"]
    trace_path = workdir / "traces" / f"{job.name}.json"
    if traced:
        trace_path.parent.mkdir(exist_ok=True)
        trace_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *cli_args]
    else:
        cmd = [sys.executable, "-c", ENTRY, *cli_args]
    code, wall, cpu, rss, chunks = spawn(cmd, workdir, workdir / "logs" / f"{job.name}.log")
    digest, size = output_digest(out)
    run = JobRun(job.name, job.subcommand, wall, cpu, rss, code, size, digest,
                 judge(job, code, out), chunk_s=mean_chunk(chunks), chunks=len(chunks))
    if traced:
        try:
            run.trace = json.loads(trace_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            run.problems.append(f"no trace: {exc}")
    return run


def run_pass(jobs: tuple[Job, ...], workdir: Path, seed: int, traced: bool = False,
             reference: dict[str, str] | None = None, deadline: float | None = None,
             walls: dict[str, float] | None = None) -> list[JobRun]:
    """One pass over the job list; digests must equal reference (job -> digest) if given.

    With a deadline (a time.perf_counter() value) the pass ends before the
    first job whose wall time, as given in walls, would end after it, so it
    may run only a prefix of the list.
    """
    runs: list[JobRun] = []
    for job in jobs:
        if deadline is not None and time.perf_counter() + walls[job.name] > deadline:
            break
        run = run_job(job, workdir, seed, traced)
        expected = (reference or {}).get(job.name)
        if expected is not None and run.digest != expected:
            run.problems.append("output digest differs from the reference pass")
        runs.append(run)
    return runs


def pin(cpus: set[int]) -> None:
    """Run this process, and every child it starts from now on, on the given CPUs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def usable_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


# ---------------------------------------------------------------------------
# Set-up and machine facts
# ---------------------------------------------------------------------------

def prepare_workdir(workdir: Path, seed: int) -> None:
    """An empty work directory holding the generated inputs for this seed."""
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "logs").mkdir(parents=True)
    make_inputs(workdir, seed)


def time_setup(workdir: Path, repeats: int) -> list[float]:
    """CPU times, at the reference speed, of fresh interpreters that only import fekete_lab.cli."""
    cmd = [sys.executable, "-c", "import fekete_lab.cli"]
    times = []
    for _ in range(repeats):
        code, _, cpu, _, chunks = spawn(cmd, workdir, workdir / "logs" / "setup.log")
        if code != 0:
            raise RuntimeError(f"importing fekete_lab.cli failed; see {workdir}/logs/setup.log")
        times.append(cpu * CHUNK_REF_S / mean_chunk(chunks))
    return times


def _package_version() -> str | None:
    match = re.search(r'__version__\s*=\s*"([^"]+)"',
                      (SRC / "fekete_lab" / "__init__.py").read_text())
    return match.group(1) if match else None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def machine_facts() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "fekete_lab": _package_version(),
        "git_commit": _git_commit(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup_times: list[float], passes: list[list[JobRun]]) -> dict:
    """End-to-end metrics from set-up times and passes, times at the reference speed.

    The first pass is complete; a later one may run only a prefix of the
    job list, and only complete passes count for memory and output size.
    """
    complete = [p for p in passes if len(p) == len(passes[0])]
    values = {
        "setup_s": statistics.median(setup_times),
        # each job's median over the passes, summed: one typical pass, with a
        # slow outlier of one job trimmed rather than carried into its pass
        "cpu_s": sum(statistics.median(p[i].ref_cpu_s() for p in passes if len(p) > i)
                     for i in range(len(passes[0]))),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in complete),
        "output_bytes": statistics.median(sum(r.output_bytes for r in p) for p in complete),
    }
    return {name: _metric(v, END_TO_END_UNITS[name]) for name, v in values.items()}


def screened_pairs(workdir: Path, runs: list[JobRun]) -> tuple[int, int]:
    """Pairs screened and distinct violations, summed over the check reports written."""
    pairs = distinct = 0
    for run in runs:
        if run.subcommand != "check":
            continue
        for path in sorted((workdir / "out" / run.job).glob("check_*.json")):
            report = json.loads(path.read_text())
            pairs += int(report["samples_checked"])
            distinct += int(report["violation_count"])
    return pairs, distinct


def layer_metrics(workdir: Path, plain: list[JobRun],
                  traced: list[JobRun]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced pass, plus what the untraced pass times.

    CPU times are at the reference speed; the traced self times are
    in-process wall times, for attribution only.
    """
    traces = [r.trace for r in traced if r.trace is not None]
    layer_self = {layer: sum(t["layer_self_s"][layer] for t in traces) for layer in LAYERS}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    for t in traces:
        for name, n in t["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, n in t["counters"].items():
            counters[name] = counters.get(name, 0) + n
    root_s = sum(t["root_s"] for t in traces)
    problems = []
    if abs(sum(layer_self.values()) - root_s) > 1e-6 * max(root_s, 1.0):
        problems.append(f"layer self times sum to {sum(layer_self.values())!r}, "
                        f"root spans to {root_s!r}")

    pairs, distinct = screened_pairs(workdir, plain)
    count = {
        "sampling.draws": calls.get("sampling.raw64", 0),
        "domain.calls": sum(n for name, n in calls.items() if name.startswith("domain.")),
        "registry.scalar_evals": calls.get("registry.FunctionOracle.evaluate", 0),
        "registry.contains_calls": calls.get("registry.Domain.contains", 0),
        "registry.batch_points": counters.get("registry.batch_points", 0),
        "checks.pairs_screened": pairs,
        "checks.violations_distinct": distinct,
        "limits.evaluations": counters.get("limits.points", 0),
        "levelset.points": counters.get("levelset.points", 0),
        "subshift.boxes": calls.get("subshift.count_patterns", 0),
        "subshift.cells": counters.get("subshift.cells", 0),
        "ioutil.files": calls.get("ioutil.write_text_atomic", 0),
        "svgplot.points": counters.get("svgplot.points", 0),
    }
    metrics = {name: _metric(v, "count") for name, v in count.items()}
    metrics["ioutil.bytes"] = _metric(counters.get("ioutil.bytes", 0), "B")
    metrics["checks.evals_per_pair"] = _metric(
        counters.get("checks.points", 0) / pairs if pairs else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(layer_self[layer], "s")
    metrics["limits.eval_s"] = _metric(counters.get("limits.eval_s", 0.0), "s")
    metrics["cli.import_s"] = _metric(
        statistics.median(t["import_s"] for t in traces) if traces else 0.0, "s")
    metrics["trace.overhead_s"] = _metric(
        sum(r.ref_cpu_s() for r in traced) - sum(r.ref_cpu_s() for r in plain), "s")
    for sub in SUBCOMMANDS:
        metrics[f"{sub}_s"] = _metric(
            sum(r.ref_cpu_s() for r in plain if r.subcommand == sub), "s")
    return metrics, problems


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the detail record, whose \"result\" is the printed line."""
    deadline = time.perf_counter() + seconds
    jobs = WORKLOADS[workload]
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    facts = machine_facts()
    prepare_workdir(workdir, seed)
    extra_problems: list[str] = []
    # untimed: compiles the bytecode cache that a fresh checkout lacks
    time_setup(workdir, 1)
    cpus = usable_cpus()
    setup_times: list[float] = []
    passes: list[list[JobRun]] = []
    try:
        if trace:
            if cpus:
                pin({cpus[0]})
            first = run_pass(jobs, workdir, seed)
            second = run_pass(jobs, workdir, seed, traced=True,
                              reference={r.job: r.digest for r in first})
            passes = [first, second]
            metrics, extra_problems = layer_metrics(workdir, first, second)
        else:
            walls: dict[str, float] = {}
            reference = None
            while True:
                # each pass on one CPU, so that a job and the chunks timed
                # while it runs share that CPU; the next pass on the next CPU
                if cpus:
                    pin({cpus[len(passes) % len(cpus)]})
                runs = run_pass(jobs, workdir, seed, reference=reference,
                                deadline=deadline if passes else None, walls=walls)
                if not runs:
                    break
                passes.append(runs)
                reference = reference or {r.job: r.digest for r in runs}
                walls = walls or {r.job: r.wall_s for r in runs}
                # set-up samples after each pass, so they see the same host as the jobs
                setup_times += time_setup(workdir, SETUP_PER_PASS)
                if len(runs) < len(jobs):
                    break
            metrics = end_to_end_metrics(setup_times, passes)
    finally:
        if cpus:
            pin(set(cpus))

    runs = [r for p in passes for r in p]
    failed = sum(1 for r in runs if r.problems)
    result = {
        "correct": failed == 0 and not extra_problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": facts, "passes": len(passes), "problems": extra_problems,
        "cpus": cpus, "setup_ref_s": setup_times,
        "jobs": [{k: v for k, v in vars(r).items() if k != "trace"} for r in runs],
        "result": result,
    }
    if trace:
        detail["traces"] = {r.job: r.trace for r in passes[1]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    for r in runs:
        for problem in r.problems:
            print(f"FAILED {workload}/{r.job}: {problem}", file=sys.stderr)
    for problem in extra_problems:
        print(f"FAILED {workload}: {problem}", file=sys.stderr)
    return detail


def print_table(detail: dict) -> None:
    result, facts = detail["result"], detail["machine"]
    share = result["failed"] / result["attempted"]
    print(f"{detail['workload']} (seed {detail['seed']}, {detail['passes']} passes): "
          f"attempted {result['attempted']}, failed {result['failed']} "
          f"(failed_share {share:.3f})")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"  times in reference seconds (one calibration chunk = {CHUNK_REF_S} s), "
          f"passes alternating over CPUs {detail['cpus']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fekete_lab" / "cli.py").is_file():
        print(f"error: no fekete_lab package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        detail = measure(name, args.seed, args.seconds, bool(args.trace))
        print_table(detail)
        results[name] = detail["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
