"""Command-line harness: exit codes, output files, reproducibility."""

from __future__ import annotations

import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fekete_lab.checks import check_monoid_sign
from fekete_lab.cli import main
from fekete_lab.domain import DomainError
from fekete_lab.ioutil import write_json_atomic, write_text_atomic
from fekete_lab.registry import builtin, builtin_names, load_tabulated
from fekete_lab.sampling import SampleBudget


def run(argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


def test_check_componentwise_clean_exits_zero(tmp_path):
    code = run(["check", "--fn", "sqrt_prod", "--mode", "componentwise",
                "--count", 500, "--out", tmp_path])
    assert code == 0
    payload = read_json(tmp_path / "check_componentwise.json")
    assert payload["violation_count"] == 0


def test_check_joint_reports_witness_and_exits_three(tmp_path):
    code = run(["check", "--fn", "sqrt_prod", "--mode", "joint",
                "--count", 500, "--out", tmp_path])
    assert code == 3
    payload = read_json(tmp_path / "check_joint.json")
    witnesses = [v["witness"] for v in payload["violations"]]
    assert [[1.0, 2.0], [2.0, 1.0]] in witnesses
    assert (tmp_path / "check_joint.csv").exists()


def test_unknown_oracle_exits_two(tmp_path, capsys):
    assert run(["check", "--fn", "nosuch", "--out", tmp_path]) == 2
    assert "unknown builtin" in capsys.readouterr().err


@pytest.mark.parametrize("name", [*builtin_names(), None])
def test_check_all_runs_monoid_exactly_where_the_monoid_check_accepts(tmp_path, name):
    # None: a table, which lives on its grid and not on a whole group
    if name is None:
        table = tmp_path / "tab.json"
        table.write_text(json.dumps({"dim": 1, "axes": [[1, 2, 3, 4]], "values": [1, 2, 3, 4]}))
        source, oracle = ["--table", table], load_tabulated(table)
    else:
        source, oracle = ["--fn", name], builtin(name)
    try:
        check_monoid_sign(oracle, SampleBudget(count=50))
        accepted = True
    except DomainError:
        accepted = False
    assert run(["check", *source, "--mode", "all", "--count", 50,
                "--out", tmp_path / "out"]) in (0, 3)
    assert (tmp_path / "out" / "check_monoid.json").exists() == accepted


@pytest.mark.parametrize("argv", [["check"], ["limit"], ["levelset", "--anchors", "1,1"]])
def test_the_float_minimum_denominator_is_no_builtin(tmp_path, capsys, argv):
    # the counterexample needs exact rationals: rubin_eval, not a float oracle
    assert run([*argv, "--fn", "rubin_min_denominator", "--out", tmp_path]) == 2
    assert capsys.readouterr().err.startswith(
        "error: unknown builtin 'rubin_min_denominator'; available: abs, ceiling,")
    assert list(tmp_path.iterdir()) == []


def test_unknown_mode_exits_two(tmp_path):
    assert run(["check", "--fn", "abs", "--mode", "wat", "--out", tmp_path]) == 2


def test_limit_simultaneous_outputs(tmp_path):
    code = run(["limit", "--fn", "sqrt_prod", "--delta", 0.01, "--levels", 14,
                "--out", tmp_path, "--no-timestamp"])
    assert code == 0
    payload = read_json(tmp_path / "bracket.json")
    assert payload["status"] == "converged"
    assert payload["best_upper"] <= 0.01
    assert (tmp_path / "bracket.csv").exists()
    svg = (tmp_path / "bracket.svg").read_text()
    assert svg.startswith("<svg") and "generated" not in svg


def test_limit_iterated_reports_infinity(tmp_path):
    code = run(["limit", "--fn", "x1sq_sqrt_x2", "--iterated", "2,1",
                "--out", tmp_path])
    assert code == 0
    payload = read_json(tmp_path / "iterated.json")
    assert payload["value"] == "+inf"
    assert payload["status"] == "diverging_to_plus_infinity"


def test_limit_full_shift_best_upper_one(tmp_path):
    run(["limit", "--fn", "full_shift_count_log", "--levels", 12,
         "--out", tmp_path, "--no-timestamp"])
    assert read_json(tmp_path / "bracket.json")["best_upper"] == 1.0


def test_limit_ray_and_diagonal(tmp_path):
    assert run(["limit", "--fn", "abs", "--direction", "-1", "--levels", 12,
                "--out", tmp_path, "--no-timestamp"]) == 0
    assert read_json(tmp_path / "ray.json")["best_upper"] == 1.0
    assert run(["limit", "--fn", "full_shift_count_log", "--diagonal", "1,2",
                "--levels", 12, "--out", tmp_path, "--no-timestamp"]) == 0
    assert read_json(tmp_path / "diagonal.json")["best_upper"] == 1.0


def test_entropy_command(tmp_path):
    code = run(["entropy", "--sft", "golden_mean_1d", "--max-side", 16,
                "--out", tmp_path, "--no-timestamp"])
    assert code == 0
    payload = read_json(tmp_path / "entropy.json")
    assert "transfer_value_1d" not in payload
    assert payload["best_lower"] <= math.log2((1 + math.sqrt(5)) / 2) <= payload["best_upper"]
    assert payload["best_upper"] - payload["best_lower"] <= 1.5e-6
    csv = (tmp_path / "entropy.csv").read_text().splitlines()
    assert csv[0] == "n1,count,log_complexity,ratio,running_min"
    assert len(csv) == 17


def test_entropy_unknown_sft_exits_two(tmp_path):
    assert run(["entropy", "--sft", "nosuch", "--out", tmp_path]) == 2


@pytest.mark.parametrize("spec, extra", [
    ({"alphabet": 2, "dim": 1,
      "forbidden": [{"offsets": [[0], [0, 1]], "symbols": [1, 1]}]}, []),  # mixed dimension
    ({"alphabet": 2, "dim": 1, "forbidden": [{"offsets": [[0]], "symbols": [2]}]}, []),
    ({"alphabet": 1, "dim": 1, "forbidden": []}, []),
    (None, ["--sft", "golden_mean_1d", "--max-side", 0]),
])
def test_bad_subshift_input_exits_two(tmp_path, capsys, spec, extra):
    argv = ["entropy", *extra, "--out", tmp_path / "out"]
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv += ["--sft", path]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, field", [
    ({"alphabet": 2.9, "dim": 1}, "alphabet"),
    ({"alphabet": 3, "dim": True}, "dim"),
    ({"alphabet": 3, "dim": 1, "forbidden": [{"offsets": [[0], [1.7]], "symbols": [1, 1]}]},
     "forbidden[0].offsets"),
    ({"alphabet": 3, "dim": 1, "forbidden": [{"offsets": [[0]], "symbols": [0]},
                                             {"offsets": [[0], [1]], "symbols": [1, True]}]},
     "forbidden[1].symbols"),
    ({"alphabet": "3", "dim": 1}, "alphabet"),
])
def test_subshift_spec_numbers_must_be_json_integers(tmp_path, capsys, spec, field):
    # int() would read 2.9 as 2, 1.7 as 1 and true as 1: a different subshift
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["entropy", "--sft", path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: invalid subshift spec {path}: {field} must be an integer, got ")
    assert not (tmp_path / "out").exists()


# each JSON input file flag: the command line that ends in its FILE, and
# the file's kind as errors name it
INPUT_FILES = {
    "config": (["check", "--config"], "config"),
    "table": (["check", "--mode", "componentwise", "--table"], "table"),
    "sets": (["check", "--mode", "set_union", "--sets"], "set family"),
    "sft": (["entropy", "--sft"], "subshift spec"),
}
# a file without a required key, and its error; a config has no required
# key, so its file has an unknown one
MISSING_KEY = {
    "config": (b'{"cuont": 5}', "unknown key(s) for check: cuont"),
    "table": (b'{"dim": 1, "axes": [[1, 2]]}', "values is missing"),
    "sets": (b'{"sets": [[1]]}', "base is missing"),
    "sft": (b'{"alphabet": 2}', "dim is missing"),
}


@pytest.mark.parametrize("case", ["not_utf8", "bad_syntax", "deep", "long_integer", "list",
                                  "long_list", "string", "missing_key"])
@pytest.mark.parametrize("flag", list(INPUT_FILES))
def test_a_malformed_input_file_exits_two_naming_it(tmp_path, capsys, flag, case):
    # one reader reads every JSON input file and refuses it in one line of
    # one of two forms: "cannot read" when the file does not open or parse,
    # and "invalid" when its content is not the object the flag needs
    content, message = {
        "not_utf8": (b"\xff\xfe", None),
        "bad_syntax": (b"{bad", None),
        "deep": (b"[" * 100_000 + b"]" * 100_000, None),
        "long_integer": (b'{"seed": 1' + b"0" * 5000 + b"}", None),  # past Python's digit limit
        "list": (b"[1, 2]", "the file must be an object, got [1, 2]"),
        # a refused value is shown shortened, so the error stays one short line
        "long_list": (json.dumps(list(range(100_000))).encode(),
                      "the file must be an object, got [0, 1, 2, 3, 4, 5, ...]"),
        "string": (b'"x"', "the file must be an object, got 'x'"),
        "missing_key": MISSING_KEY[flag],
    }[case]
    argv, kind = INPUT_FILES[flag]
    path = tmp_path / "input.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert run([*argv, path, "--out", out]) == 2
    err = capsys.readouterr().err
    if message is None:
        assert err.startswith(f"error: cannot read {kind} {path}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == f"error: invalid {kind} {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("forbidden, message", [
    (["ab"], "forbidden[0] must be an object, got 'ab'"),
    ([{"offsets": [[0]], "symbols": [1]}, {"offsets": [[0]]}], "forbidden[1].symbols is missing"),
], ids=["string", "no_symbols"])
def test_a_forbidden_entry_must_be_an_object_with_both_keys(tmp_path, capsys, forbidden, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"alphabet": 2, "dim": 1, "forbidden": forbidden}))
    assert run(["entropy", "--sft", path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: invalid subshift spec {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ('{"dim": 1, "axes": [[true, "2", 3]], "values": ["1e0", false, 3]}',
     "axes[0][0] must be a number, got True"),
    ('{"dim": 1, "axes": [[1, 2, 3]], "values": ["1e0", false, 3]}',
     "values[0] must be a number, got '1e0'"),
    ('{"dim": 1, "axes": [[1, 2, 3]], "values": [1, NaN, 3]}',
     "values[1] is NaN, which is not an extended real"),
    ('{"dim": 1, "axes": [[1, 2, Infinity]], "values": [1, 2, 3]}',
     "axes[0] must be nonempty, finite and strictly increasing, got [1.0, 2.0, inf]"),
    ('{"dim": 1, "axes": [[1, 2, NaN]], "values": [1, 2, 3]}',
     "axes[0] must be nonempty, finite and strictly increasing, got [1.0, 2.0, nan]"),
    ('{"dim": 1, "axes": [[1, 2, 3]], "values": "123"}', "values must be a list, got '123'"),
    ('{"dim": 1, "axes": [[1, 2, 3]], "values": {"1": 1, "2": 2, "3": 3}}',
     "values must be a list, got {'1': 1, '2': 2, '3': 3}"),
    ('{"dim": 1, "axes": "12", "values": [1, 2]}', "axes must be a list, got '12'"),
    ('{"dim": 1, "axes": ["12"], "values": [1, 2]}', "axes[0] must be a list, got '12'"),
], ids=["bool_axis", "string_value", "nan_value", "inf_axis", "nan_axis", "string_values",
        "object_values", "string_axes", "string_axis"])
def test_table_numbers_must_be_json_numbers(tmp_path, capsys, text, message):
    # float() would read true as 1 and "1e0" as 1, and an infinite or NaN
    # axis point passes the order test but is never drawn: another table
    # than the one written, checked clean or flooded with hits.  Iterating
    # a string or an object where a list belongs would read it character
    # by character or key by key.
    path = tmp_path / "table.json"
    path.write_text(text)
    assert run(["check", "--table", path, "--mode", "componentwise",
                "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: invalid table {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config", [
    ("entropy", {"sft": "golden_mean_1d", "max_side": "abc"}),
    ("check", {"fn": "abs", "mode": "joint", "count": "x"}),
    ("check", {"fn": "abs", "mode": "joint", "seed": [1]}),
    ("limit", {"fn": "sqrt_prod", "growth": "fast"}),
    ("levelset", {"fn": "sqrt_prod", "anchors": "1,1", "cells": None}),
    ("limit", {"fn": "sqrt_prod", "levels": 3, "base": ""}),
])
def test_non_numeric_config_value_exits_two(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run([command, "--config", path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, message", [
    ("check", {"fn": "abs", "mode": "joint", "cuont": 5, "sed": 3},
     "unknown key(s) for check: cuont, sed"),
    ("limit", {"fn": "sqrt_prod", "anchors": "1,1"}, "unknown key(s) for limit: anchors"),
    ("entropy", {"sft": "golden_mean_1d", "func": "x"}, "unknown key(s) for entropy: func"),
    ("check", {"fn": "abs", "mode": "joint", "no_timestamp": "false"},
     "no_timestamp must be true or false, got 'false'"),
], ids=["check_typos", "limit_anchors", "entropy_func", "no_timestamp_string"])
def test_config_key_errors_exit_two(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run([command, "--config", path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: invalid config {path}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("no_timestamp", [True, False])
def test_config_no_timestamp_is_a_boolean(tmp_path, no_timestamp):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"fn": "sqrt_prod", "levels": 4, "no_timestamp": no_timestamp}))
    assert run(["limit", "--config", path, "--out", tmp_path]) == 0
    assert ("generated" in (tmp_path / "bracket.svg").read_text()) is not no_timestamp


@pytest.mark.parametrize("argv, config", [
    (["--direction", "1,1", "--iterated", "1,2"], None),
    (["--direction", "1,1", "--diagonal", "1,2"], None),
    (["--iterated", "2,1"], {"diagonal": "1,2"}),
    (["--base", "5,5", "--direction", "1,1"], None),
    (["--diagonal", "1,2"], {"base": "5,5"}),
], ids=["ray_iterated", "ray_diagonal", "iterated_diagonal_config", "base_ray",
        "base_config_diagonal"])
def test_limit_refuses_conflicting_modes(tmp_path, capsys, argv, config):
    extra = []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        extra = ["--config", path]
    out = tmp_path / "out"
    assert run(["limit", "--fn", "sqrt_prod", "--levels", 4, *argv, *extra, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["check", "--mode", "joint", "--count", 50],
    ["limit", "--levels", 4],
    ["levelset", "--anchors", "1"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
def test_fn_and_table_together_are_refused(tmp_path, capsys, command, via_config):
    table = tmp_path / "tab.json"
    table.write_text(json.dumps({"dim": 1, "axes": [[1, 2, 3, 4]], "values": [1, 2, 3, 4]}))
    if via_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fn": "sqrt_prod", "table": str(table)}))
        extra = ["--config", config]
    else:
        extra = ["--fn", "sqrt_prod", "--table", table]
    out = tmp_path / "out"
    assert run([*command, *extra, "--out", out]) == 2
    assert capsys.readouterr().err == "error: give one of --fn and --table, not both\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", [[], ["--iterated", "1"], ["--direction", "1"],
                                  ["--diagonal", "1"]],
                         ids=["simultaneous", "iterated", "ray", "diagonal"])
def test_limit_on_a_table_exits_two(tmp_path, capsys, mode):
    table = tmp_path / "tab.json"
    table.write_text(json.dumps({"dim": 1, "axes": [[1, 2, 3, 4]], "values": [1, 2, 3, 4]}))
    assert run(["limit", "--table", table, *mode, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (
        "error: limit estimation needs an unbounded domain, not a finite grid\n")
    assert not (tmp_path / "out").exists()


def test_levelset_command(tmp_path):
    code = run(["levelset", "--fn", "sqrt_prod", "--anchors", "1,1",
                "--cells", 800, "--out", tmp_path])
    assert code == 0
    payload = read_json(tmp_path / "levelset.json")
    assert abs(payload["rows"][0]["margin"] - 0.514) <= 0.01
    assert payload["rows"][0]["holds"]


def test_counterexamples_all_reproduce(tmp_path, capsys):
    code = run(["counterexamples", "--out", tmp_path, "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out
    payload = read_json(tmp_path / "counterexamples.json")
    assert all(r["reproduced"] for r in payload["results"])


def test_config_file_mirrors_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "fn": "sqrt_prod", "mode": "componentwise", "count": 300,
        "out": str(tmp_path / "from_config"), "seed": 5,
    }))
    assert run(["check", "--config", config]) == 0
    assert (tmp_path / "from_config" / "check_componentwise.json").exists()


def test_explicit_flag_overrides_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fn": "sqrt_prod", "mode": "joint", "count": 200}))
    code = run(["check", "--config", config, "--mode", "componentwise",
                "--out", tmp_path])
    assert code == 0
    assert (tmp_path / "check_componentwise.json").exists()
    assert not (tmp_path / "check_joint.json").exists()


def test_explicit_numeric_flag_overrides_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fn": "sqrt_prod", "levels": 4, "delta": 0.5}))
    assert run(["limit", "--config", config, "--levels", 6, "--out", tmp_path / "a",
                "--no-timestamp"]) == 0
    assert run(["limit", "--fn", "sqrt_prod", "--levels", 6, "--delta", 0.5,
                "--out", tmp_path / "b", "--no-timestamp"]) == 0
    assert read_json(tmp_path / "a" / "bracket.json")["evaluations"] == 49
    for name in ("bracket.json", "bracket.csv", "bracket.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# every option of one run, keyed as in --config; out and seed are added
CONFIG_RUNS = {
    "check": ("check", {"fn": "nmod2", "mode": "shift", "shift": 1, "count": 300}),
    "simultaneous": ("limit", {"fn": "sqrt_prod", "delta": 0.02, "base": "2,1",
                               "growth": 1.5, "levels": 10}),
    "iterated": ("limit", {"fn": "x1sq_sqrt_x2", "iterated": "1,2", "base": "1,1",
                           "delta": 0.01, "growth": 2, "levels": 12}),
    "ray": ("limit", {"fn": "sqrt_prod", "direction": "1,2", "delta": 0.01,
                      "growth": "2", "levels": 10}),
    "diagonal": ("limit", {"fn": "full_shift_count_log", "diagonal": "1,2",
                           "delta": 0.01, "growth": 2.0, "levels": 10}),
    "entropy": ("entropy", {"sft": "golden_mean_1d", "max_side": 10}),
    "levelset": ("levelset", {"fn": "sqrt_prod", "anchors": "1,1;2,3", "method": "mc",
                              "samples": 2000}),
}


@pytest.mark.parametrize("name", CONFIG_RUNS)
def test_config_run_matches_flag_run_byte_for_byte(tmp_path, capsys, monkeypatch, name):
    command, options = CONFIG_RUNS[name]
    options = {**options, "out": "out", "seed": 11, "no_timestamp": True}
    results = []
    for side in ("flags", "config"):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        if side == "flags":
            argv = [command, "--no-timestamp"]
            for key, value in options.items():
                if key != "no_timestamp":
                    argv += [f"--{key.replace('_', '-')}", value]
        else:
            Path("config.json").write_text(json.dumps(options))
            argv = [command, "--config", "config.json"]
        code = run(argv)
        files = {p.name: p.read_bytes() for p in Path("out").iterdir()}
        results.append((code, capsys.readouterr(), files))
    assert results[0][2]  # the run wrote its files
    assert results[0] == results[1]


@pytest.mark.parametrize("config", [{"levels": 4.7}, {"levels": True}],
                         ids=["float", "boolean"])
def test_config_number_is_refused_where_the_flag_would_be(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(["limit", "--fn", "sqrt_prod", "--config", path, "--out", out]) == 2
    value = config["levels"]
    assert capsys.readouterr().err == (
        f"error: invalid config {path}: levels must be an integer, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, config, key", [
    ("check", {"fn": "abs", "mode": "joint", "count": 50, "out": None}, "out"),
    ("check", {"fn": "abs", "mode": "joint", "count": 50, "out": True}, "out"),
    ("limit", {"fn": None}, "fn"),
    ("limit", {"fn": "sqrt_prod", "diagonal": [1, 2]}, "diagonal"),
    ("entropy", {"sft": {"name": "golden_mean_1d"}}, "sft"),
    ("levelset", {"fn": "sqrt_prod", "anchors": "1,1", "method": False}, "method"),
], ids=["out_null", "out_true", "fn_null", "diagonal_list", "sft_object", "method_false"])
def test_config_text_flag_takes_a_string_or_a_number(tmp_path, capsys, monkeypatch,
                                                       command, config, key):
    # str() would read null as the text None and true as True
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run([command, "--config", path]) == 2
    assert capsys.readouterr().err == (f"error: invalid config {path}: {key} must be a string "
                                       f"or a number, got {config[key]!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("config", [{"levels": 4}, {"levels": "4"}, {"levels": 4, "growth": 1.05}],
                         ids=["integer", "text", "float_growth"])
def test_config_number_typed_as_its_flag_runs(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["limit", "--fn", "sqrt_prod", "--config", path, "--out", tmp_path]) == 0
    assert read_json(tmp_path / "bracket.json")["evaluations"] == 25  # (4 + 1)^2 grid points


@pytest.mark.parametrize("below", [[], ["sub", "dir"]], ids=["file", "below_a_file"])
def test_out_that_cannot_be_a_directory_exits_two(tmp_path, capsys, below):
    blocker = tmp_path / "results"
    blocker.write_text("not a directory\n")
    out = blocker.joinpath(*below)
    assert run(["limit", "--fn", "sqrt_prod", "--levels", 4, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results"]
    assert blocker.read_text() == "not a directory\n"


def test_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        run(["check", "--fn", "sqrt_prod", "--mode", "joint", "--count", 300,
             "--seed", 42, "--out", out])
        run(["limit", "--fn", "sqrt_prod", "--levels", 12, "--out", out,
             "--no-timestamp"])
        run(["entropy", "--sft", "golden_mean_1d", "--max-side", 10,
             "--out", out, "--no-timestamp"])
    for name in ("check_joint.json", "check_joint.csv", "bracket.json",
                 "bracket.csv", "bracket.svg", "entropy.json", "entropy.csv",
                 "entropy.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_check_mode_all_writes_every_report(tmp_path):
    code = run(["check", "--fn", "nmod2", "--mode", "all", "--count", 300,
                "--out", tmp_path])
    assert code == 0  # nmod2 passes joint, componentwise, mixed, and monoid
    for kind in ("joint", "componentwise", "four_term", "monoid"):
        assert (tmp_path / f"check_{kind}.json").exists(), kind


def test_svg_output_is_well_formed_xml(tmp_path):
    import xml.etree.ElementTree as ET
    run(["limit", "--fn", "sqrt_prod", "--levels", 10, "--out", tmp_path,
         "--no-timestamp"])
    root = ET.fromstring((tmp_path / "bracket.svg").read_text())
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) >= 2  # the series and the running-bound overlay


def test_svg_escapes_markup_in_input_names(tmp_path):
    import xml.etree.ElementTree as ET
    spec = tmp_path / "a&b<c.json"
    spec.write_text(json.dumps({"alphabet": 2, "dim": 1, "forbidden": [
        {"offsets": [[0], [1]], "symbols": [1, 1]}]}))  # the golden mean shift
    assert run(["entropy", "--sft", spec, "--max-side", 6, "--out", tmp_path / "out",
                "--no-timestamp"]) == 0
    root = ET.fromstring((tmp_path / "out" / "entropy.svg").read_text())
    titles = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert f"entropy bounds: {spec}" in titles


def test_set_union_mode(tmp_path):
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"base": "nmod2", "sets": [[1, 2], [2, 3]]}))
    code = run(["check", "--mode", "set_union", "--sets", sets, "--out", tmp_path])
    assert code == 3
    payload = read_json(tmp_path / "check_set_union.json")
    assert payload["violation_count"] == 1


def test_shift_mode(tmp_path):
    code = run(["check", "--fn", "nmod2", "--mode", "shift", "--shift", 1,
                "--count", 300, "--out", tmp_path])
    assert code == 3
    code = run(["check", "--fn", "nmod2", "--mode", "shift", "--shift", 0,
                "--count", 300, "--out", tmp_path])
    assert code == 0


def test_evaluation_fault_exits_four(tmp_path, capsys):
    # an oracle fault at a grid point: f(1) + f(2) is inf + -inf (a NaN
    # table value is refused at load, test_table_numbers_must_be_json_numbers)
    table = tmp_path / "inf.json"
    table.write_text(json.dumps({"dim": 1, "axes": [[1, 2, 3, 4]],
                                 "values": [math.inf, -math.inf, 1, 2]}))
    assert run(["check", "--table", table, "--mode", "joint",
                "--count", 50, "--out", tmp_path / "out"]) == 4
    assert capsys.readouterr().err == "internal error: indeterminate sum inf + -inf\n"


@pytest.mark.parametrize("growth, extra", [
    (1.1, []), (1.1, ["--iterated", "1,2"]), (0.5, []),
    (1.5, ["--iterated", "1,2", "--levels", "1"]),
    *[(1e200, ["--fn", "sqrt_prod", "--levels", 3, *mode])
      for mode in ([], ["--iterated", "1,2"], ["--direction", "1,1"])],
    *[(1e100, ["--fn", "sqrt_prod", "--levels", 3, *mode])
      for mode in ([], ["--diagonal", "1,2"], ["--direction", "1e10,1"],
                   ["--iterated", "1,2"])],
])
def test_unusable_schedule_flags_exit_two(tmp_path, capsys, growth, extra):
    # growth 1.1 rounds the integer ladder 1, 1.1, 1.21, ... to 1, 1, 1, ...;
    # growth 0.5 shrinks instead of growing.  With one level, growth 1.5
    # passes the grid (1, 2), but the iterated tail walks on to rung 2.25,
    # which rounds back to 2.  Growth 1e200, on the real oracle that the
    # later --fn selects, passes 1e300 at level 2 on the grid and the ray,
    # and the iterated tails' denominator 1e200 * 1e200 overflows.
    # Growth 1e100 keeps every rung at or below 1e300, but the grid and
    # iterated denominators x1 * x2, the diagonal point t^2 and the ray
    # point 1e10 * t overflow.
    argv = ["limit", "--fn", "full_shift_count_log", "--growth", growth, *extra,
            "--out", tmp_path]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: unusable schedule")
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize("extra", [["--delta", -1], ["--iterated", "1,2", "--delta", 0]])
def test_nonpositive_delta_exits_two(tmp_path, capsys, extra):
    assert run(["limit", "--fn", "sqrt_prod", *extra, "--out", tmp_path]) == 2
    assert capsys.readouterr().err.startswith("error: delta must be positive")


# input files for the argument-error cases, written to the working directory
ARGUMENT_ERROR_INPUTS = {
    "sets_sqrt.json": {"base": "sqrt_prod", "sets": [[1, 2], [2, 3]]},  # not an integer oracle
    "short.json": {"dim": 1, "axes": [[1, 2, 3]], "values": [1, 2]},
    "decreasing.json": {"dim": 1, "axes": [[3, 2, 1]], "values": [1, 2, 3]},
}


@pytest.mark.parametrize("argv", [
    "limit --fn sqrt_prod --direction=-1,1",
    "limit --fn sqrt_prod --direction=0,0",
    "limit --fn sqrt_prod --direction=1,1,1",
    "limit --fn sqrt_prod --diagonal=-1,1",
    "limit --fn sqrt_prod --diagonal=0.1,1",
    "limit --fn sqrt_prod --diagonal=1,2,3",
    "limit --fn sqrt_prod --base 1",
    "limit --fn sqrt_prod --base 1,1,1 --iterated 1,2",
    "levelset --fn sqrt_prod --anchors 1,1 --method foo",
    "levelset --fn sqrt_prod --anchors 1,1 --cells 1",
    "levelset --fn sqrt_prod --anchors 1,1 --method mc --samples 5",
    "levelset --fn sqrt_prod --anchors=-1,1",
    "levelset --fn sqrt_prod --anchors 1,1,1",
    "levelset --fn nmod2 --anchors 1",
    "check --fn abs --mode shift",
    "check --fn sqrt_prod --mode monoid",
    "check --fn abs --count 0",
    "check --mode set_union --sets sets_sqrt.json",
    "check --table short.json",
    "check --table decreasing.json",
])
def test_argument_errors_exit_two(tmp_path, capsys, monkeypatch, argv):
    # the library's own DomainError or DimensionMismatchError is a usage error
    for name, obj in ARGUMENT_ERROR_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    assert run([*argv.split(), "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    ("limit", "give an oracle with --fn NAME or --table FILE"),
    ("check --mode set_union", "set_union mode needs --sets FILE"),
    # a flag the mode would ignore is refused before any file is read: none of these exists
    *((f"check --mode set_union --sets s.json {flags}",
       f"{named} does not apply to set_union mode, whose set function comes from --sets")
      for flags, named in (("--fn sqrt_prod", "--fn"), ("--table t.json", "--table"),
                           ("--table t.json --fn abs", "--fn"))),
    ("check --fn sqrt_prod --mode joint --count 50 --sets s.json",
     "--sets does not apply to joint mode, only to set_union"),
    ("check --fn sqrt_prod --sets s.json", "--sets does not apply to all mode, only to set_union"),
    # --count, --shift, --cells and --samples are refused where the mode ignores
    # them, even at their default value
    ("check --fn abs --mode joint --count 50 --shift 7",
     "--shift does not apply to joint mode, only to shift"),
    ("check --fn abs --shift 1", "--shift does not apply to all mode, only to shift"),
    ("check --mode set_union --sets s.json --count 5",
     "--count does not apply to set_union mode, which checks every pair of the family"),
    ("levelset --fn sqrt_prod --anchors 1,1 --cells 20 --samples 7",
     "--samples does not apply to the grid method, only to mc"),
    ("levelset --table t.json --anchors 1,1 --method grid --samples 20000",
     "--samples does not apply to the grid method, only to mc"),
    ("levelset --table t.json --anchors 1,1 --method mc --cells 20",
     "--cells does not apply to the mc method, only to grid"),
    ("entropy", "give a subshift with --sft NAME or --sft FILE"),
    ("levelset --fn sqrt_prod", 'give anchors with --anchors "t1,t2[;u1,u2...]"'),
    ("limit --fn sqrt_prod --base 1,x",
     "cannot parse point '1,x': could not convert string to float: 'x'"),
    ("limit --fn sqrt_prod --direction x",
     "cannot parse point 'x': could not convert string to float: 'x'"),
    # an empty base is a point that does not parse, as an empty direction is
    *((f"limit --fn sqrt_prod --levels 3 {flag}=",
       "cannot parse point '': could not convert string to float: ''")
      for flag in ("--base", "--direction")),
    ("levelset --fn sqrt_prod --anchors '1,1;2,y'",
     "cannot parse point '2,y': could not convert string to float: 'y'"),
    ("limit --fn sqrt_prod --iterated 1,x",
     "cannot parse axis order '1,x': invalid literal for int() with base 10: 'x'"),
    ("limit --fn sqrt_prod --iterated 1,1", "axis order '1,1' is not a permutation of 1..2"),
    ("limit --fn sqrt_prod --diagonal x,1",
     "cannot parse diagonal powers 'x,1': could not convert string to float: 'x'"),
    ("limit --fn sqrt_prod --diagonal 0.5,1",
     "power 0.5 on axis 0 is not above 1/2: each coordinate must outgrow sqrt(t)"),
    ("limit --fn sqrt_prod --diagonal 1,inf", "power inf on axis 1 is not finite"),
    ("limit --fn sqrt_prod --diagonal 1", "1 powers for 2 axes"),
    # every limit mode walks the same rounded ladder, which growth 1.5 breaks
    *((f"limit --fn nmod2 --growth 1.5 {mode}",
       "unusable schedule: integer schedule is not strictly increasing; use growth >= 2")
      for mode in ("", "--iterated 1", "--direction 1", "--diagonal 1")),
    # t^0.6 at t = 2 and 4 is 1.52 and 2.30: both round to 2
    ("limit --fn nmod2 --diagonal 0.6 --levels 10",
     "unusable schedule: the rounded diagonal repeats 2.0 on axis 0; on an integer domain "
     "use a power of at least 1 or a larger growth"),
    # the grid and the iterated tails divide by x1 * x2 = 1e400 at the first sample
    *((f"limit --fn sqrt_prod --base 1e200,1e200 {mode}",
       "unusable schedule: a sample point or ratio denominator is not finite; lower the "
       "growth or the base")
      for mode in ("--levels 4", "--iterated 1,2")),
    # at growth 1e20 the 40 default levels pass 1e300 on the grid and the diagonal;
    # the iterated tails stop below it, but at growth 1e200 divide by 1e200 * 1e200
    *((f"limit --fn sqrt_prod --growth 1e20 {mode}",
       "unusable schedule: schedule coordinate overflowed; reduce levels")
      for mode in ("", "--diagonal 1,2")),
    ("limit --fn sqrt_prod --growth 1e200 --iterated 1,2",
     "unusable schedule: a sample point or ratio denominator is not finite; lower the "
     "growth or the base"),
    # n + shift is taken in float64: this odd shift would round to an even one
    ("check --fn nmod2 --mode shift --shift 99999999999999999999",
     "shift 99999999999999999999 is beyond +-9007199254740792 (2^53 - 200): "
     "n + shift would round in float64"),
    ("levelset --fn sqrt_prod --anchors 1e200,1e200",
     "the box below anchor (1e+200, 1e+200) has volume inf, which is not finite"),
    ("levelset --fn sqrt_prod --anchors 1e-200,1e-200 --cells 20",
     "the box below anchor (1e-200, 1e-200) has volume 0.0, which is below the smallest "
     "normal float 2.2250738585072014e-308"),
    ("levelset --fn sqrt_prod --anchors 1e-155,1e-155 --cells 20",
     "the box below anchor (1e-155, 1e-155) has volume 1e-310, which is below the smallest "
     "normal float 2.2250738585072014e-308"),
    # the box volume 1e-306 is normal, but its 400^2 grid cells are not
    ("levelset --fn sqrt_prod --anchors 1e-153,1e-153",
     "a grid of 400 cells per axis below anchor (1e-153, 1e-153) has cell volume 6.25e-312, "
     "which is below the smallest normal float 2.2250738585072014e-308; use fewer cells"),
])
def test_refusals_print_their_message(tmp_path, capsys, argv, message):
    assert run([*shlex.split(argv), "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, message", [
    ({"mode": "set_union", "sets": "s.json", "fn": "abs"},
     "--fn does not apply to set_union mode, whose set function comes from --sets"),
    ({"fn": "nmod2", "sets": "s.json"}, "--sets does not apply to all mode, only to set_union"),
    ({"fn": "abs", "mode": "joint", "shift": 7, "count": 50},
     "--shift does not apply to joint mode, only to shift"),
    ({"mode": "set_union", "sets": "s.json", "count": 5},
     "--count does not apply to set_union mode, which checks every pair of the family"),
], ids=["set_union_fn", "all_sets", "joint_shift", "set_union_count"])
def test_config_keys_a_check_mode_ignores_are_refused(tmp_path, capsys, config, message):
    # refused as their flags are, before the set family, which does not exist, is read
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["check", "--config", path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, message", [
    ({"table": "t.json", "anchors": "1,1", "samples": 7},
     "--samples does not apply to the grid method, only to mc"),
    ({"table": "t.json", "anchors": "1,1", "method": "mc", "cells": 400},
     "--cells does not apply to the mc method, only to grid"),
], ids=["grid_samples", "mc_cells"])
def test_config_keys_a_levelset_method_ignores_are_refused(tmp_path, capsys, config, message):
    # refused as their flags are, before the table, which does not exist, is read
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["levelset", "--config", path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_levels_do_not_refuse_the_iterated_tails(tmp_path):
    # the iterated tails walk their own ladder, which stops below 1e300, so a
    # level count whose grid would pass 1e300 leaves them as --levels 10 does
    argv = ["limit", "--fn", "sqrt_prod", "--iterated", "1,2", "--growth", "1e20"]
    assert run([*argv, "--out", tmp_path / "a", "--no-timestamp"]) == 0
    assert run([*argv, "--levels", 10, "--out", tmp_path / "b", "--no-timestamp"]) == 0
    result = (tmp_path / "a" / "iterated.json").read_bytes()
    assert result == (tmp_path / "b" / "iterated.json").read_bytes()
    payload = json.loads(result)
    assert (payload["value"], payload["status"]) == (1e-140, "converged")


def test_monte_carlo_measure_near_the_float_range_stays_finite(tmp_path):
    # the box volume 1e308 is finite, but volume * hits overflows
    argv = ["levelset", "--fn", "sqrt_prod", "--anchors", "1e154,1e154", "--method", "mc"]
    assert run([*argv, "--out", tmp_path]) == 0
    (row,) = json.loads((tmp_path / "levelset.json").read_text())["rows"]
    assert isinstance(row["mu_estimate"], float) and 0 < row["mu_estimate"] <= 1e308
    assert isinstance(row["margin"], float) and row["holds"]


@pytest.mark.parametrize("mode, stem", [(["--direction", "1"], "ray"),
                                        (["--diagonal", "1"], "diagonal")])
def test_paths_walk_the_rounded_ladder_of_the_grid(tmp_path, mode, stem):
    # at growth 2.5 the integer ladder is 1, 2, 6, 16, 39, ...: the rungs of the grid
    def first_coordinates(output, *extra):
        assert run(["limit", "--fn", "nmod2", "--growth", 2.5, *extra, "--out", tmp_path]) == 0
        rows = (tmp_path / f"{output}.csv").read_text().splitlines()[1:]
        return [row.split(",")[1] for row in rows]

    grid = first_coordinates("bracket")
    assert grid[:5] == ["1.0", "2.0", "6.0", "16.0", "39.0"] and len(grid) == 41
    assert first_coordinates(stem, *mode) == grid


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_alphabet_past_the_state_cap_fails_before_allocating(tmp_path):
    # 2^49 symbols: the unit box passes the cell cap, but one cell's step
    # over the whole alphabet is past the state cap
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"alphabet": 2 ** 49, "dim": 1, "forbidden": [
        {"offsets": [[0], [1]], "symbols": [1, 1]}]}))
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "fekete_lab.cli", "entropy", "--sft", str(spec),
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60, preexec_fn=_limit_address_space)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:") and "state cap" in done.stderr
    assert not (tmp_path / "out").exists()


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n+```sh\n(.*?)```", readme, re.S).group(1)
    return block.splitlines()


@pytest.mark.parametrize("line", _readme_commands(),
                         ids=lambda line: line.partition("#")[0].strip())
def test_readme_command_line_runs(tmp_path, line):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)
    assert argv[0] == "fekete-lab"
    code = run([*argv[1:], "--out", tmp_path, "--no-timestamp"])
    stated = re.search(r"exit (\d)", comment)
    if stated:
        assert code == int(stated.group(1))
    else:
        assert code in (0, 3)  # a finding at most, never a usage or internal error


def test_atomic_write_ignores_a_stale_fixed_temp_name(tmp_path):
    # a directory squatting on the old fixed temp name "<name>.tmp"
    (tmp_path / "x.json.tmp").mkdir()
    write_text_atomic(tmp_path / "x.json", "{}\n")
    assert (tmp_path / "x.json").read_text() == "{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", "x.json.tmp"]


def test_nan_payload_raises_and_leaves_no_file(tmp_path):
    with pytest.raises(ValueError):
        write_json_atomic(tmp_path / "z.json", {"best_upper": math.nan})
    assert list(tmp_path.iterdir()) == []


def test_check_defaults_write_a_small_report(tmp_path, capsys):
    assert run(["check", "--fn", "sqrt_prod", "--mode", "joint", "--out", tmp_path]) == 3
    assert sum(p.stat().st_size for p in tmp_path.iterdir()) < 100_000
    payload = read_json(tmp_path / "check_joint.json")
    listed = len(payload["violations"])
    assert payload["hit_count"] >= payload["violation_count"] > listed
    out = capsys.readouterr().out
    assert f"{payload['hit_count']} hit(s)" in out and f"{listed} listed" in out


def test_failed_atomic_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(tmp_path / "y.json", "\udc80")  # lone surrogate: unencodable
    assert list(tmp_path.iterdir()) == []
