"""Start-up: an empty package init, one module per subcommand, per-subcommand
imports, and --help."""

from __future__ import annotations

import ast
import gc
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fekete_lab
from fekete_lab.cli import _build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"
NUMPY_BACKED = {"numpy", "fekete_lab.checks", "fekete_lab.limits", "fekete_lab.levelset",
                "fekete_lab.registry", "fekete_lab.sampling"}
# the package modules an entropy run loads; none may import numpy anywhere
ENTROPY_PATH = ("__init__", "cli", "domain", "ioutil", "svgplot", "subshift",
                "commands", "commands.entropy")
# the engines that only a subcommand's own module may import
ENGINES = {"checks", "limits", "levelset", "subshift", "sampling", "svgplot"}
SUBCOMMANDS = ("check", "limit", "entropy", "levelset", "counterexamples")
HARD_CUBE = {"alphabet": 2, "dim": 3, "forbidden": [
    {"offsets": [[0, 0, 0], off], "symbols": [1, 1]}
    for off in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]}

# every public name, by the one module that defines it: exactly that module's __all__
EXPORTS = {
    "domain": "ConfigError DimensionMismatchError DomainError EvaluationError FeketeLabError "
              "GridSchedule IndeterminateFormError Point QRDecomposition "
              "ScheduleError default_schedule qr_decompose",
    "registry": "Domain FunctionOracle builtin builtin_names cardinality_set_function "
                "exceeds ext_add load_set_family load_tabulated set_function_from_integer "
                "tabulated_oracle",
    "sampling": "SampleBudget integer_in raw64 uniform_in unit_uniform",
    "checks": "TOP_K Violation ViolationReport check_componentwise check_four_term check_joint "
              "check_monoid_sign check_set_union check_shifted_subadditivity",
    "limits": "DecompositionBound DecompositionTerm IteratedLimit LevelSummary LimitBracket "
              "diagonal_limit iterated_limit ray_limit simultaneous_limit "
              "verify_decomposition_bound",
    "levelset": "LemmaCheckRow LevelSetSpec LineScan MeasureEstimate UnboundednessDemo "
                "check_levelset_lemma levelset_measure rubin_eval rubin_unboundedness_demo",
    "subshift": "CapExceededError EntropyBracket EntropyEntry ForbiddenPattern SftSpec "
                "builtin_sft builtin_sft_names check_count_submultiplicativity "
                "count_patterns entropy_bounds load_sft_spec",
    "ioutil": "jsonable write_csv_atomic write_json_atomic write_text_atomic",
    "svgplot": "PlotSeries line_plot_svg",
}


def modules_after(code: str, cwd: Path) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def module_file(module: str) -> Path:
    """The source file of a module of the package, named relative to it."""
    path = SRC / "fekete_lab" / module.replace(".", "/")
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def command_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.startswith("fekete_lab.commands")}


def package_imports(source: str) -> set[str]:
    """The package modules that a module at the package's top level imports,
    at any depth, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found.add(node.module.partition(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            top, _, rest = node.module.partition(".")
            if top == "fekete_lab" and rest:
                found.add(rest.partition(".")[0])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("fekete_lab.")}
    return found


def numpy_imports(source: str) -> list[int]:
    """The lines of source that import numpy or a numpy submodule, at any
    depth: in function bodies and under TYPE_CHECKING too."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        lines += [node.lineno for m in modules if m.partition(".")[0] == "numpy"]
    return lines


def cli_run(argv: list[str]) -> str:
    return ("from fekete_lab.cli import main\n"
            f"assert main({argv!r}) in (0, 3)")


def test_a_cli_run_freezes_its_heap_before_shutdown(tmp_path):
    # exit hooks run last-registered first, so this one runs after the CLI's
    code = ("import atexit, gc\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            + cli_run(["limit", "--fn", "sqrt_prod", "--levels", "4", "--out", "out",
                       "--no-timestamp"]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "True"
    assert (tmp_path / "out" / "bracket.json").is_file()


def test_an_in_process_run_leaves_the_collector_alone(tmp_path):
    assert main(["limit", "--fn", "sqrt_prod", "--levels", "4", "--out", str(tmp_path),
                 "--no-timestamp"]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()


def test_importing_the_cli_loads_no_numpy(tmp_path):
    loaded = modules_after("import fekete_lab.cli", tmp_path)
    assert loaded & (NUMPY_BACKED | {"fekete_lab.subshift", "fekete_lab.svgplot"}) == set()
    # a record is a domain._Record, which generates no code, and only a
    # timestamped SVG needs the clock
    assert loaded & {"dataclasses", "inspect", "datetime"} == set()
    # each subcommand's handler loads only when that subcommand runs
    assert command_modules(loaded) == set()


@pytest.mark.parametrize("argv", [
    ["limit", "--fn", "sqrt_prod", "--levels", "4"],
    ["check", "--fn", "abs", "--mode", "joint", "--count", "50"],
    ["levelset", "--fn", "sqrt_prod", "--anchors", "1,1", "--cells", "20"],
])
def test_numpy_runs_load_neither_dataclasses_nor_fractions(tmp_path, argv):
    loaded = modules_after(cli_run([*argv, "--out", "out", "--no-timestamp"]), tmp_path)
    assert "numpy" in loaded
    assert loaded & {"dataclasses", "fractions"} == set()
    # only a run that plots loads the plot module
    assert ("fekete_lab.svgplot" in loaded) == (argv[0] == "limit")


@pytest.mark.parametrize("argv", [["--help"], *([sub, "--help"] for sub in SUBCOMMANDS)])
def test_help_loads_no_subcommand_module(tmp_path, argv):
    code = f"from fekete_lab.cli import main\nassert main({argv!r}) == 0"
    loaded = modules_after(code, tmp_path)
    assert loaded & (NUMPY_BACKED | {"fekete_lab.subshift"}) == set()
    assert command_modules(loaded) == set()


@pytest.mark.parametrize("argv", [
    ["check", "--fn", "abs", "--mode", "joint", "--count", "50"],
    ["limit", "--fn", "sqrt_prod", "--levels", "4"],
    ["entropy", "--sft", "golden_mean_1d", "--max-side", "3"],
    ["levelset", "--fn", "sqrt_prod", "--anchors", "1,1", "--cells", "20"],
    ["counterexamples"],
], ids=lambda argv: argv[0])
def test_a_run_loads_only_its_own_command_module(tmp_path, argv):
    loaded = modules_after(cli_run([*argv, "--out", "out", "--no-timestamp"]), tmp_path)
    assert command_modules(loaded) == {"fekete_lab.commands", f"fekete_lab.commands.{argv[0]}"}


def test_each_subcommand_has_one_module_with_one_run():
    _, parsers = _build_parser()
    assert tuple(parsers) == SUBCOMMANDS
    modules = {p.stem for p in (SRC / "fekete_lab" / "commands").glob("*.py")}
    assert modules == {"__init__", *SUBCOMMANDS}
    (docstring,) = ast.parse(module_file("commands").read_text()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value.value, str)
    for sub in SUBCOMMANDS:
        tree = ast.parse(module_file(f"commands.{sub}").read_text())
        functions = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
        assert functions.count("run") == 1, sub
        run = importlib.import_module(f"fekete_lab.commands.{sub}").run
        assert list(inspect.signature(run).parameters) == ["ns"], sub


def test_the_package_import_scan_finds_imports_at_any_depth():
    source = ("from . import __version__\nfrom .domain import Point\n"
              "def f():\n    from .checks import check_joint\n"
              "    import fekete_lab.limits\n    from fekete_lab.svgplot import x\n"
              "    from ..cli import main\n    import os.path\n")
    assert package_imports(source) == {"domain", "checks", "limits", "svgplot"}


def test_cli_imports_no_engine():
    # the handlers live in commands/<name>.py; registry stays for _get_oracle
    assert package_imports((SRC / "fekete_lab" / "cli.py").read_text()) & ENGINES == set()


@pytest.mark.parametrize("sft", ["golden_mean_1d", "hard_square_2d", "hard_cube.json"])
def test_entropy_loads_no_numpy(tmp_path, sft):
    (tmp_path / "hard_cube.json").write_text(json.dumps(HARD_CUBE))
    loaded = modules_after(cli_run(["entropy", "--sft", sft, "--max-side", "3",
                                    "--out", "out", "--no-timestamp"]), tmp_path)
    assert "fekete_lab.subshift" in loaded
    assert loaded & NUMPY_BACKED == set()
    assert {m for m in loaded if m.partition(".")[0] == "fekete_lab"} == {
        "fekete_lab", *(f"fekete_lab.{m}" for m in ENTROPY_PATH[1:])}
    assert json.loads((tmp_path / "out" / "entropy.json").read_text())["entries"]


def test_the_numpy_scan_finds_imports_at_any_depth():
    source = ("import os, numpy.linalg\nfrom typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n    import numpy as np\n"
              "def f():\n    from numpy import zeros\n    from .numpy import x\n"
              "class C:\n    def g(self):\n        import numpyro\n")
    assert numpy_imports(source) == [1, 4, 6]


@pytest.mark.parametrize("module", ENTROPY_PATH)
def test_no_module_on_the_entropy_path_imports_numpy(module):
    assert numpy_imports(module_file(module).read_text()) == []


def test_check_does_not_load_subshift(tmp_path):
    loaded = modules_after(cli_run(["check", "--fn", "abs", "--mode", "joint",
                                    "--count", "50", "--out", "out"]), tmp_path)
    assert "fekete_lab.checks" in loaded
    assert loaded & {"fekete_lab.subshift", "fekete_lab.limits", "fekete_lab.levelset",
                     "fekete_lab.svgplot"} == set()


def test_limit_loads_neither_levelset_nor_subshift(tmp_path):
    loaded = modules_after(cli_run(["limit", "--fn", "sqrt_prod", "--levels", "4",
                                    "--out", "out", "--no-timestamp"]), tmp_path)
    assert "fekete_lab.limits" in loaded
    assert loaded & {"fekete_lab.levelset", "fekete_lab.subshift"} == set()


@pytest.mark.parametrize("module, argv", [
    ("limits", ["limit", "--fn", "sqrt_prod", "--levels", "4"]),
    ("levelset", ["levelset", "--fn", "sqrt_prod", "--anchors", "1,1", "--cells", "20"]),
])
def test_limit_and_levelset_load_neither_checks_nor_sampling(tmp_path, module, argv):
    loaded = modules_after(cli_run([*argv, "--out", "out", "--no-timestamp"]), tmp_path)
    assert f"fekete_lab.{module}" in loaded
    assert loaded & {"fekete_lab.checks", "fekete_lab.sampling"} == set()


def test_importing_the_package_loads_nothing_else(tmp_path):
    code = "import fekete_lab\nassert [n for n in vars(fekete_lab) if n[:2] != '__'] == []"
    loaded = modules_after(code, tmp_path)
    assert {m for m in loaded if m.partition(".")[0] == "fekete_lab"} == {"fekete_lab"}
    assert "numpy" not in loaded


def test_export_table_matches_module_all_and_holds_no_removed_name():
    for module, names in EXPORTS.items():
        assert sorted(importlib.import_module(f"fekete_lab.{module}").__all__) == sorted(
            names.split()), module
    assert fekete_lab.__version__ == "0.1.0"
    removed = {"domain": ["ext_sum", "violation_tolerance", "ext_add", "exceeds", "REL_TOL",
                          "Orthant", "product_leq", "directed_upper_bound", "orthant_reflect",
                          "as_extended", "as_point"],
               "checks": ["violation_tolerance", "_exceeds", "_ext_add", "_table_violations"],
               "limits": ["multiple_inf", "orthant_limit", "inner_limit_profile",
                          "InnerLimitProfile"],
               "levelset": ["rubin_rational_box_scan", "RationalBoxScan",
                            "compact_bound_scan", "BoxScan", "_require_real_domain"],
               "registry": ["write_tabulated", "_rubin_points", "IRRATIONAL", "_Irrational",
                            "TabulatedFunction", "_parse_tabulated", "_denominator",
                            "KnownLimit", "FiniteSetFunction"],
               "subshift": ["log_complexity", "relabel", "sft_to_json_dict",
                            "folner_box_ratio", "_transfer_uppers_1d", "_log_upper",
                            "PatternCount", "transfer_matrix_count_1d", "transfer_matrix_1d",
                            "dominant_eigenvalue", "MATRIX_STATE_CAP", "_window_counts_1d",
                            "_successors_1d", "_ends_forbidden", "_word_patterns_1d"]}
    for module, names in removed.items():
        mod = importlib.import_module(f"fekete_lab.{module}")
        for name in names:
            assert name not in mod.__all__ and not hasattr(mod, name), name
    from fekete_lab.domain import QRDecomposition
    from fekete_lab.limits import LimitBracket
    assert not hasattr(QRDecomposition, "reconstruct")
    from fekete_lab.sampling import SampleBudget
    from fekete_lab.subshift import EntropyBracket, builtin_sft
    assert SampleBudget.__slots__ == ("count", "seed")
    assert list(inspect.signature(builtin_sft).parameters) == ["name"]
    for cls, name in ((EntropyBracket, "admissibility"), (LimitBracket, "sense")):
        assert name not in cls.__slots__, cls.__name__
        assert isinstance(getattr(cls, name), str), cls.__name__
    assert "best_lower" not in LimitBracket.__slots__
    assert (LimitBracket.sense, LimitBracket.best_lower) == ("inf", None)
    from fekete_lab.registry import Domain, FunctionOracle
    assert FunctionOracle.__slots__ == ("name", "domain", "array_fn")
    with pytest.raises(TypeError, match="unexpected keyword argument 'fn'"):
        FunctionOracle(name="f", domain=Domain(dim=1), fn=abs)


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  *([sub, "--help"] for sub in ("check", "limit", "entropy",
                                                                "levelset", "counterexamples"))])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out
