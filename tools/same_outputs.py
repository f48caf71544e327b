"""Run the benchmark jobs and the rerun commands on two source trees and compare them.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the fekete_lab
package, such as the `src` of two checkouts.  Every job of
bench/workloads.py's WORKLOADS runs at seeds 1 and 2, on the inputs that
make_inputs writes for that seed, and each of the 8 commands of
acceptance criterion 10 (tests/test_acceptance.py) runs once.  Every run
is a fresh interpreter with PYTHONPATH set to one tree and
`--no-timestamp`, writing to `out` in a scratch directory of its own, so
the two sides see the same relative paths.

Prints one line per command that differs, naming what differs: the exit
code, stdout, stderr, or an output file by name.  Exits 0 when nothing
differs and 1 otherwise.  Standard library only; it reads the job lists
from bench/ and changes nothing there.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, make_inputs  # noqa: E402

ENTRY = "import sys; from fekete_lab.cli import main; sys.exit(main(sys.argv[1:]))"
SEEDS = (1, 2)
TIMEOUT_S = 600
# the commands of tests/test_acceptance.py::test_criterion_10_byte_identical_reruns
CRITERION_10 = (
    ("counterexamples", "--seed", "7"),
    ("check", "--fn", "sqrt_prod", "--mode", "joint", "--count", "2000", "--seed", "7"),
    ("check", "--fn", "sqrt_prod", "--mode", "componentwise", "--count", "2000",
     "--seed", "7"),
    ("limit", "--fn", "sqrt_prod", "--levels", "14"),
    ("limit", "--fn", "x1sq_sqrt_x2", "--iterated", "2,1"),
    ("entropy", "--sft", "golden_mean_1d", "--max-side", "16"),
    ("entropy", "--sft", "hard_square_2d", "--max-side", "8"),
    ("levelset", "--fn", "sqrt_prod", "--anchors", "1,1", "--cells", "500", "--seed", "7"),
)


def commands() -> list[tuple[int | None, tuple[str, ...]]]:
    """(input seed or None, CLI arguments) of every run, --out excepted."""
    runs: list[tuple[int | None, tuple[str, ...]]] = [
        (seed, (*job.argv, "--seed", str(seed), "--no-timestamp"))
        for seed in SEEDS for jobs in WORKLOADS.values() for job in jobs]
    return runs + [(None, (*argv, "--no-timestamp")) for argv in CRITERION_10]


def run(src: Path, workdir: Path, argv: tuple[str, ...]) -> dict[str, object]:
    """Exit code, stdout, stderr and every output file of one fresh run."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", ENTRY, *argv, "--out", "out"], cwd=workdir,
                          env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=TIMEOUT_S)
    result: dict[str, object] = {"exit code": done.returncode, "stdout": done.stdout,
                                 "stderr": done.stderr}
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    result.update((f"file {p.relative_to(out)}", p.read_bytes()) for p in files)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    ns = parser.parse_args(argv)
    sides = (ns.parent_src.resolve(), ns.change_src.resolve())
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        workdirs = [Path(tmp) / "parent", Path(tmp) / "change"]
        runs = commands()
        for seed, args in runs:
            for workdir in workdirs:
                shutil.rmtree(workdir / "inputs", ignore_errors=True)
                workdir.mkdir(exist_ok=True)
                if seed is not None:
                    make_inputs(workdir, seed)
            parent, change = (run(src, workdir, args) for src, workdir in zip(sides, workdirs))
            what = [key for key in sorted(parent.keys() | change.keys())
                    if parent.get(key) != change.get(key)]
            if what:
                differ.append(f"{' '.join(args)}: {', '.join(what)}")
    print(f"{len(runs)} commands ({len(runs) - len(CRITERION_10)} bench runs at seeds "
          f"{', '.join(map(str, SEEDS))}, {len(CRITERION_10)} criterion-10 commands): "
          f"{len(runs) - len(differ)} identical, {len(differ)} differ")
    for line in differ:
        print(f"  differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
