"""Run the CLI commands and the demos on two source trees and compare their outputs.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the fekete_lab
package, such as the `src` of two checkouts.  Every job of
bench/workloads.py's WORKLOADS runs at seeds 1 and 2, on the inputs that
make_inputs writes for that seed, each of the 8 commands of acceptance
criterion 10 (tests/test_acceptance.py) runs once, and so do 5 commands
on a table that this script writes (`check --table` in modes all and
componentwise at seeds 1 and 2, and `limit --table`, which refuses a
finite grid and exits 2), 8 ray and diagonal `limit` runs, on real
and integer oracles, with whole and fractional powers, 10 runs at or
next to a refusal (an integer diagonal whose rounded points stay
distinct, a large shift, level-set anchors near both ends of the float
range, one whose grid cells are just above the smallest normal float,
a grid and an iterated run whose ratio denominator x1 * x2 overflows,
which exit 2, and an iterated run whose denominator stays finite),
5 runs of paths that no other command reaches (entropy truncated by the
caps in 1-D and 2-D, `check --mode set_union` on a set family file,
`limit --config` on a config file, both written next to the table, and
a Monte Carlo level set whose volume * hits overflows), and 3 runs that
argparse ends (`--version`, `check --help`, and an unknown flag, which
exits 2).  Every run is a fresh interpreter with PYTHONPATH set to one
tree and `--no-timestamp`, writing to `out` in a scratch directory of its
own, so the two sides see the same relative paths.

Then each of the 6 demos in the `demos` directory next to each tree runs
in a fresh scratch directory of its own, with PYTHONPATH set to that
tree.  The files it writes there are compared too (demo 03 writes
`demo_output/sqrt_prod_bracket.svg`), and the fresh temporary directory
that demo 06 prints is masked in its stdout.

Prints one line per command or demo that differs, naming what differs:
the exit code, stdout, stderr, or an output file by name.  Exits 0 when
nothing differs and 1 otherwise.  Standard library only; it reads the job lists
from bench/ and changes nothing there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
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
# a directory that tempfile makes, as demo 06 prints it
TEMP_DIR = re.compile(re.escape(tempfile.gettempdir()).encode() + rb"/tmp\w+")
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
TABLE = "table.json"
TABLE_COMMANDS = (
    *(("check", "--table", TABLE, "--mode", mode, "--seed", str(seed))
      for mode in ("all", "componentwise") for seed in SEEDS),
    ("limit", "--table", TABLE),
)

PATH_COMMANDS = (
    ("limit", "--fn", "full_shift_count_log", "--diagonal", "1,2"),
    ("limit", "--fn", "full_shift_count_log", "--diagonal", "1,1.5"),
    ("limit", "--fn", "full_shift_count_log", "--direction", "1,1"),
    ("limit", "--fn", "nmod2", "--direction", "1"),
    ("limit", "--fn", "nmod2", "--diagonal", "1"),
    ("limit", "--fn", "ceiling", "--direction", "1"),
    ("limit", "--fn", "sqrt_prod", "--diagonal", "0.6,1"),
    ("limit", "--fn", "sqrt_prod", "--diagonal", "1,2", "--growth", "1.05", "--levels", "60"),
)

# each runs just inside a refusal: a repeated rounded diagonal point, a shift
# past 2^53 - 200, an anchor whose box volume, or whose grid cell volume at
# the default 400 cells, is not finite or not normal, or a ratio denominator
# that overflows, which the first two limit runs meet and exit 2
NEIGHBOUR_COMMANDS = (
    ("limit", "--fn", "nmod2", "--diagonal", "0.75"),
    ("limit", "--fn", "nmod2", "--diagonal", "0.6", "--growth", "2.5"),
    ("check", "--fn", "nmod2", "--mode", "shift", "--shift", "1000001"),
    ("levelset", "--fn", "sqrt_prod", "--anchors", "1e150,1e150", "--cells", "20"),
    ("levelset", "--fn", "sqrt_prod", "--anchors", "1e150,1e150", "--method", "mc",
     "--samples", "1000"),
    ("levelset", "--fn", "sqrt_prod", "--anchors", "1e-150,1e-150", "--cells", "20"),
    ("levelset", "--fn", "sqrt_prod", "--anchors", "1e-151,1e-151"),
    ("limit", "--fn", "sqrt_prod", "--base", "1e200,1e200", "--levels", "4"),
    ("limit", "--fn", "sqrt_prod", "--iterated", "1,2", "--base", "1e200,1e200"),
    ("limit", "--fn", "sqrt_prod", "--iterated", "2,1", "--base", "1e160,1e140"),
)

# input files of RARE_PATH_COMMANDS, written next to TABLE
SETS = "sets.json"
CONFIG = "config.json"
INPUT_FILES = {
    SETS: {"base": "nmod2", "sets": [[1, 2], [2, 3], [5]]},
    CONFIG: {"fn": "sqrt_prod", "levels": 6, "delta": 0.5},
}

# each runs a path that no command above reaches: the caps truncating
# a 1-D bracket at side 144 and a 2-D one at side 12, the set family reader
# and the set-union check (exit 3), the --config reader, and the Monte Carlo
# estimate whose vol * hits overflows
RARE_PATH_COMMANDS = (
    ("entropy", "--sft", "golden_mean_1d", "--max-side", "150"),
    ("entropy", "--sft", "hard_square_2d", "--max-side", "13"),
    ("check", "--mode", "set_union", "--sets", SETS),
    ("limit", "--config", CONFIG),
    ("levelset", "--fn", "sqrt_prod", "--anchors", "1e153,1e153", "--method", "mc",
     "--samples", "1000"),
)

# each ends in argparse's SystemExit before a subcommand runs
ARGPARSE_EXIT_COMMANDS = (
    ("--version",),
    ("check", "--help"),
    ("check", "--fn", "abs", "--no-such-flag"),
)


def write_table(path: Path) -> None:
    """sqrt(x1*x2), componentwise subadditive but not jointly, on the grid
    {1, ..., 30}^2, with a bump to 100 at (20, 20) that breaks it along each axis."""
    axis = list(range(1, 31))
    values = [100.0 if x == y == 20 else math.sqrt(x * y) for x in axis for y in axis]
    path.write_text(json.dumps({"dim": 2, "axes": [axis, axis], "values": values}))


def commands() -> list[tuple[int | None, tuple[str, ...]]]:
    """(input seed or None, CLI arguments) of every run, --out excepted."""
    runs: list[tuple[int | None, tuple[str, ...]]] = [
        (seed, (*job.argv, "--seed", str(seed), "--no-timestamp"))
        for seed in SEEDS for jobs in WORKLOADS.values() for job in jobs]
    return runs + [(None, (*argv, "--no-timestamp"))
                   for argv in (*CRITERION_10, *TABLE_COMMANDS, *PATH_COMMANDS,
                                *NEIGHBOUR_COMMANDS, *RARE_PATH_COMMANDS,
                                *ARGPARSE_EXIT_COMMANDS)]


def run(src: Path, cwd: Path, command: list[str], out: Path) -> dict[str, object]:
    """Exit code, stdout, stderr and every file under out of one fresh run in cwd."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, *command], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=TIMEOUT_S)
    result: dict[str, object] = {"exit code": done.returncode, "stdout": done.stdout,
                                 "stderr": done.stderr}
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    result.update((f"file {p.relative_to(out)}", p.read_bytes()) for p in files)
    return result


def run_cli(src: Path, workdir: Path, argv: tuple[str, ...]) -> dict[str, object]:
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    return run(src, workdir, ["-c", ENTRY, *argv, "--out", "out"], out)


def run_demo(src: Path, workdir: Path, name: str) -> dict[str, object]:
    demo = src.parent / "demos" / name
    if not demo.is_file():
        return {"demo file": "missing"}
    cwd = workdir / "demos" / demo.stem
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    result = run(src, cwd, [str(demo)], cwd)
    result["stdout"] = TEMP_DIR.sub(b"<temporary directory>", result["stdout"])
    return result


def differing(parent: dict[str, object], change: dict[str, object]) -> list[str]:
    return [key for key in sorted(parent.keys() | change.keys())
            if parent.get(key) != change.get(key)]


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
        for workdir in workdirs:
            workdir.mkdir()
            write_table(workdir / TABLE)
            for name, obj in INPUT_FILES.items():
                (workdir / name).write_text(json.dumps(obj))
        for seed, args in runs:
            for workdir in workdirs:
                shutil.rmtree(workdir / "inputs", ignore_errors=True)
                if seed is not None:
                    make_inputs(workdir, seed)
            what = differing(*(run_cli(src, workdir, args)
                               for src, workdir in zip(sides, workdirs)))
            if what:
                differ.append(f"{' '.join(args)}: {', '.join(what)}")
        demos = sorted({p.name for side in sides for p in (side.parent / "demos").glob("*.py")})
        for name in demos:
            what = differing(*(run_demo(src, workdir, name)
                               for src, workdir in zip(sides, workdirs)))
            if what:
                differ.append(f"demo {name}: {', '.join(what)}")
    bench = (len(runs) - len(CRITERION_10) - len(TABLE_COMMANDS) - len(PATH_COMMANDS)
             - len(NEIGHBOUR_COMMANDS) - len(RARE_PATH_COMMANDS) - len(ARGPARSE_EXIT_COMMANDS))
    print(f"{len(runs)} commands ({bench} bench runs at seeds {', '.join(map(str, SEEDS))}, "
          f"{len(CRITERION_10)} criterion-10 commands, {len(TABLE_COMMANDS)} table commands, "
          f"{len(PATH_COMMANDS)} path commands, {len(NEIGHBOUR_COMMANDS)} refusal neighbours, "
          f"{len(RARE_PATH_COMMANDS)} rare paths, "
          f"{len(ARGPARSE_EXIT_COMMANDS)} argparse exits) and {len(demos)} demos: "
          f"{len(runs) + len(demos) - len(differ)} identical, {len(differ)} differ")
    for line in differ:
        print(f"  differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
