"""Start-up: lazy package names, per-subcommand imports, and --help."""

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
from fekete_lab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
NUMPY_BACKED = {"numpy", "fekete_lab.checks", "fekete_lab.limits", "fekete_lab.levelset",
                "fekete_lab.registry", "fekete_lab.sampling"}
# the package modules an entropy run loads; none may import numpy anywhere
ENTROPY_PATH = ("__init__", "cli", "domain", "ioutil", "svgplot", "subshift")
HARD_CUBE = {"alphabet": 2, "dim": 3, "forbidden": [
    {"offsets": [[0, 0, 0], off], "symbols": [1, 1]}
    for off in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]}

# every name the package exports; each is in its module's __all__
EXPORTS = {
    "domain": "ConfigError DimensionMismatchError DomainError EvaluationError FeketeLabError "
              "GridSchedule IndeterminateFormError Point QRDecomposition "
              "ScheduleError as_point default_schedule qr_decompose",
    "registry": "Domain FiniteSetFunction FunctionOracle builtin builtin_names "
                "cardinality_set_function load_set_family load_tabulated "
                "set_function_from_integer tabulated_oracle",
    "sampling": "SampleBudget",
    "checks": "Violation ViolationReport check_componentwise check_four_term check_joint "
              "check_monoid_sign check_set_union check_shifted_subadditivity",
    "limits": "DecompositionBound IteratedLimit LimitBracket diagonal_limit "
              "iterated_limit ray_limit simultaneous_limit verify_decomposition_bound",
    "levelset": "LevelSetSpec MeasureEstimate check_levelset_lemma levelset_measure "
                "rubin_eval rubin_unboundedness_demo",
    "subshift": "CapExceededError EntropyBracket ForbiddenPattern SftSpec "
                "builtin_sft builtin_sft_names check_count_submultiplicativity "
                "count_patterns entropy_bounds load_sft_spec",
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def modules_after(code: str, cwd: Path) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


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


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["entropy", "--help"]])
def test_help_loads_no_subcommand_module(tmp_path, argv):
    code = f"from fekete_lab.cli import main\nassert main({argv!r}) == 0"
    assert modules_after(code, tmp_path) & (NUMPY_BACKED | {"fekete_lab.subshift"}) == set()


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
    assert numpy_imports((SRC / "fekete_lab" / f"{module}.py").read_text()) == []


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


def test_a_package_name_loads_only_its_module(tmp_path):
    loaded = modules_after("from fekete_lab import count_patterns", tmp_path)
    assert "fekete_lab.subshift" in loaded
    assert loaded & NUMPY_BACKED == set()


def test_package_names_resolve_to_their_defining_module():
    wrong = []
    for module, name in EXPORTED:
        namespace: dict = {}
        exec(f"from fekete_lab import {name}", namespace)
        if namespace[name] is not getattr(importlib.import_module(f"fekete_lab.{module}"), name):
            wrong.append(name)
    assert wrong == []
    assert {name for _, name in EXPORTED} <= set(dir(fekete_lab))


def test_export_table_matches_module_all_and_holds_no_removed_name():
    for module, names in fekete_lab._EXPORTS.items():
        missing = set(names) - set(importlib.import_module(f"fekete_lab.{module}").__all__)
        assert missing == set(), module
    assert {name for _, name in EXPORTED} == set(fekete_lab._DEFINED_IN)
    removed = {"domain": ["ext_sum", "violation_tolerance", "ext_add", "exceeds", "REL_TOL",
                          "Orthant", "product_leq", "directed_upper_bound", "orthant_reflect"],
               "checks": ["violation_tolerance", "_exceeds", "_ext_add", "_table_violations"],
               "limits": ["multiple_inf", "orthant_limit", "inner_limit_profile",
                          "InnerLimitProfile"],
               "levelset": ["rubin_rational_box_scan", "RationalBoxScan",
                            "compact_bound_scan", "BoxScan", "_require_real_domain"],
               "registry": ["write_tabulated", "_rubin_points", "IRRATIONAL", "_Irrational",
                            "TabulatedFunction", "_parse_tabulated", "_denominator",
                            "KnownLimit"],
               "subshift": ["log_complexity", "relabel", "sft_to_json_dict",
                            "folner_box_ratio", "_transfer_uppers_1d", "_log_upper",
                            "PatternCount", "transfer_matrix_count_1d", "transfer_matrix_1d",
                            "dominant_eigenvalue", "MATRIX_STATE_CAP", "_window_counts_1d",
                            "_successors_1d", "_ends_forbidden", "_word_patterns_1d"]}
    for module, names in removed.items():
        mod = importlib.import_module(f"fekete_lab.{module}")
        for name in names:
            assert name not in fekete_lab._DEFINED_IN and name not in mod.__all__, name
            assert not hasattr(mod, name) and not hasattr(fekete_lab, name), name
    from fekete_lab.domain import QRDecomposition
    from fekete_lab.limits import LimitBracket
    from fekete_lab.registry import FiniteSetFunction
    assert not hasattr(QRDecomposition, "reconstruct")
    assert "translation_invariant" not in FiniteSetFunction.__slots__
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


def test_star_import_and_submodule_attributes():
    namespace: dict = {}
    exec("from fekete_lab import *", namespace)
    assert {name for _, name in EXPORTED} <= set(namespace)
    assert fekete_lab.limits is importlib.import_module("fekete_lab.limits")
    assert fekete_lab.__version__ == "0.1.0"


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        fekete_lab.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="transfer_matrix_1d"):
        fekete_lab.transfer_matrix_1d  # noqa: B018
    with pytest.raises(ImportError):
        exec("from fekete_lab import no_such_name", {})


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  *([sub, "--help"] for sub in ("check", "limit", "entropy",
                                                                "levelset", "counterexamples"))])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out
