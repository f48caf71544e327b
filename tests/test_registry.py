"""Built-in oracles, tabulated and set functions."""

from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np
import pytest

from fekete_lab.domain import ConfigError, DimensionMismatchError, DomainError
from fekete_lab.registry import (
    Domain,
    builtin,
    builtin_names,
    cardinality_set_function,
    load_set_family,
    load_tabulated,
    set_function_from_integer,
    tabulated_oracle,
)
from fekete_lab.sampling import integer_in, uniform_in
from known_limits import BUILTINS


def test_builtin_values():
    assert builtin("sqrt_prod") is builtin("sqrt_prod")  # one immutable oracle per name
    assert builtin("sqrt_prod").evaluate((3, 3)) == 3.0
    assert builtin("nmod2").evaluate((0,)) == 0.0
    assert builtin("full_shift_count_log").evaluate((2, 3)) == 6.0
    assert builtin("abs").evaluate((-4,)) == 4.0
    assert builtin("ceiling").evaluate((2.3,)) == 3.0
    assert builtin("x1sq_sqrt_x2").evaluate((2, 4)) == 8.0
    assert builtin("neg_x1_sqrt_x2").evaluate((3, 4)) == -6.0


def test_builtin_metadata():
    # a built-in is a name, a domain and an array function; what it satisfies is
    # computed by the checks and estimators, and the tests' own table says what to expect
    assert sorted(BUILTINS) == list(builtin_names())
    sp = builtin("sqrt_prod")
    assert (sp.name, sp.domain) == ("sqrt_prod", Domain(dim=2, positive=True))
    assert builtin("nmod2").domain == Domain(dim=1, integer=True)
    assert builtin("full_shift_count_log").domain == Domain(2, positive=True, integer=True)


def test_unknown_builtin():
    with pytest.raises(ConfigError):
        builtin("nosuch")
    assert "sqrt_prod" in builtin_names()
    assert len(builtin_names()) == 7 and "rubin_min_denominator" not in builtin_names()


def test_domain_enforcement():
    sp = builtin("sqrt_prod")
    with pytest.raises(DomainError):
        sp.evaluate((-1.0, 2.0))
    # the positive orthant is open: a zero coordinate of either sign is outside
    for oracle, point in ((sp, (0.0, 2.0)), (sp, (2.0, -0.0)),
                          (builtin("full_shift_count_log"), (1.0, 0.0))):
        with pytest.raises(DomainError):
            oracle.evaluate(point)
    nm = builtin("nmod2")
    with pytest.raises(DomainError):
        nm.evaluate((1.5,))
    assert nm.evaluate((-3,)) == 1.0


# Scalar reference formulas for the built-ins, which are defined once over
# coordinate arrays: evaluation must reproduce these bit for bit.
SCALAR_REFERENCE = {
    "sqrt_prod": lambda p: math.sqrt(p[0] * p[1]),
    "neg_x1_sqrt_x2": lambda p: -p[0] * math.sqrt(p[1]),
    "x1sq_sqrt_x2": lambda p: p[0] * p[0] * math.sqrt(p[1]),
    "full_shift_count_log": lambda p: p[0] * p[1],
    "ceiling": lambda p: float(math.ceil(p[0])),
    "abs": lambda p: abs(p[0]),
    "nmod2": lambda p: float(int(p[0]) % 2),
}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_array_fn_matches_fn_bit_for_bit():
    # every built-in's batch evaluation against its scalar reference,
    # signed zeros included; 10k points per builtin, over both halves of
    # every axis of a domain that is not positive, plus the extremes
    assert set(SCALAR_REFERENCE) == set(builtin_names())
    counters = np.arange(10_000, dtype=np.uint64)
    for name in builtin_names():
        oracle = builtin(name)
        domain = oracle.domain
        whole = not domain.positive
        lo = -3.0 if whole else 0.01
        columns = []
        for i in range(domain.dim):
            c = uniform_in(77, counters * np.uint64(domain.dim) + np.uint64(i), lo, 100.0)
            if domain.integer:
                c = np.ceil(c)
            c = np.concatenate([c, [1e300, 1.0] + ([-1e300, -0.0] if whole else [])])
            columns.append(c)
        if whole and not domain.integer:  # ceiling's (-1, 0) included
            assert ((columns[0] > -1) & (columns[0] < 0)).sum() > 50
        batch = oracle.evaluate_points(columns)
        scalar = [SCALAR_REFERENCE[name](p) for p in zip(*(c.tolist() for c in columns))]
        assert _same_bits(batch, scalar), name


def test_tabulated_lookup_matches_axis_index_bit_for_bit():
    axes = ((-2.0, 0.0, 1.5), (0.25, 3.0), (-1.0, 7.0))
    values = tuple(np.linspace(-5.5, 6.0, 12).tolist()[:-1]) + (-0.0,)
    grid = [(x, y, z) for x in axes[0] for y in axes[1] for z in axes[2]]
    rows = [grid[int(j)] for j in integer_in(5, np.arange(300, dtype=np.uint64), 0, 11)]
    rows.append((-0.0, 3.0, 7.0))

    def reference(p) -> float:
        index = 0
        for c, axis in zip(p, axes):
            index = index * len(axis) + axis.index(c)
        return values[index]

    batch = tabulated_oracle(axes, values, "t").evaluate_points(list(np.array(rows).T))
    assert _same_bits(batch, [reference(p) for p in rows])


def test_nmod2_group_sign_lemma_exhaustive():
    nm = builtin("nmod2")
    assert nm.evaluate((0,)) >= 0.0
    for n in range(1, 1001):
        assert nm.evaluate((n,)) + nm.evaluate((-n,)) >= 0.0


def test_tabulated_lookup_and_errors():
    oracle = tabulated_oracle(((1.0, 2.0), (1.0, 2.0)), (1.0, 2.0, 3.0, 4.0), "demo")
    assert oracle.name == "demo" and oracle.domain.grid_axes == ((1.0, 2.0), (1.0, 2.0))
    assert oracle.evaluate((2.0, 1.0)) == 3.0
    with pytest.raises(DomainError):
        oracle.evaluate((1.5, 1.0))


def test_tabulated_shape_validation():
    with pytest.raises(DomainError):
        tabulated_oracle(((1.0, 2.0),), (1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        tabulated_oracle(((2.0, 1.0),), (1.0, 2.0))
    with pytest.raises(DomainError, match="at least one axis"):
        tabulated_oracle((), ())
    # an infinite or NaN coordinate would pass the order test and never be drawn
    for axis in ((1.0, 2.0, math.inf), (1.0, 2.0, math.nan), (-math.inf, 1.0)):
        with pytest.raises(DomainError, match=r"^axes\[0\] must be nonempty, finite"):
            tabulated_oracle((axis,), (1.0,) * len(axis))
    with pytest.raises(DomainError, match=r"^values\[1\] is NaN"):
        tabulated_oracle(((1.0, 2.0, 3.0),), (1.0, math.nan, 3.0))


def test_tabulated_round_trip_bitwise(tmp_path):
    axes = ((0.1, 1.7, 2.0), (3.0, 4.5))
    values = (0.1, -2.25, math.pi, 4.0, 5.5, -0.875)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"dim": 2, "axes": axes, "values": values}))
    oracle = load_tabulated(path)
    assert oracle.name == "table"
    for i, x in enumerate(axes[0]):
        for j, y in enumerate(axes[1]):
            assert oracle.evaluate((x, y)) == values[i * 2 + j]


def test_tabulated_parse_failure(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_tabulated(bad)
    bad.write_text(json.dumps({"dim": 2, "axes": [[1, 2]], "values": [1, 2]}))
    with pytest.raises(ConfigError):
        load_tabulated(bad)
    # int() would read 1.5 and true as 1
    for dim in (1.5, True, "1"):
        bad.write_text(json.dumps({"dim": dim, "axes": [[1, 2]], "values": [1, 2]}))
        with pytest.raises(ConfigError, match=f"^invalid table {re.escape(str(bad))}: "
                                              f"dim must be an integer, got {dim!r}$"):
            load_tabulated(bad)
    # a JSON integer past the float range is malformed, not an internal error
    bad.write_text('{"dim": 1, "axes": [[1, 2]], "values": [1, 1' + "0" * 400 + "]}")
    with pytest.raises(ConfigError, match=r": values\[1\] is an integer past the float range$"):
        load_tabulated(bad)


def test_tabulated_number_errors_name_the_index(tmp_path):
    # a nested table, a list per row, is named at its first row, not as the
    # whole of values
    bad = tmp_path / "bad.json"
    for table, message in (
            ({"dim": 2, "axes": [[1, 2], [3, 4]], "values": [[1, 2], [3, 4]]},
             "values[0] must be a number, got [1, 2]; values is one flat, row-major list"),
            ({"dim": 2, "axes": [[1, 2], [1, "x"]], "values": [1, 2, 3, 4]},
             "axes[1][1] must be a number, got 'x'"),
            ({"dim": 1, "axes": [[1, 2, 3]], "values": [1, 2, None]},
             "values[2] must be a number, got None"),
            # a string or an object is refused whole, not read item by item
            ({"dim": 1, "axes": [[1, 2, 3]], "values": "123"},
             "values must be a list, got '123'"),
            ({"dim": 1, "axes": [[1, 2, 3]], "values": {"1": 1}},
             "values must be a list, got {'1': 1}"),
            ({"dim": 1, "axes": "12", "values": [1, 2]}, "axes must be a list, got '12'"),
            ({"dim": 2, "axes": [[1, 2], "34"], "values": [1, 2, 3, 4]},
             "axes[1] must be a list, got '34'")):
        bad.write_text(json.dumps(table))
        with pytest.raises(ConfigError) as raised:
            load_tabulated(bad)
        assert str(raised.value) == f"invalid table {bad}: {message}"


def test_set_function_lift():
    # the lift is an oracle on set sizes, so it is translation invariant by construction
    g = set_function_from_integer(builtin("nmod2"))
    assert (g.name, g.domain) == ("nmod2_of_cardinality", Domain(dim=1, integer=True))
    assert g.evaluate((0,)) == 0.0
    assert g.evaluate_points([np.array([2.0, 3.0, 0.0, 7.0])]).tolist() == [0.0, 1.0, 0.0, 1.0]
    for oracle in (builtin("sqrt_prod"), builtin("abs")):
        with pytest.raises(DomainError, match="cardinality lift needs a one-dimensional "
                                              "integer oracle"):
            set_function_from_integer(oracle)


def test_cardinality_set_function():
    g = cardinality_set_function()
    assert (g.name, g.domain) == ("cardinality", Domain(dim=1, integer=True))
    assert g.evaluate_points([np.array([0.0, 2.0, 5.0])]).tolist() == [0.0, 2.0, 5.0]


def test_load_set_family(tmp_path):
    path = tmp_path / "sets.json"
    path.write_text(json.dumps({"base": "nmod2", "sets": [[1, 2], [2, 3]]}))
    g, family = load_set_family(path)
    assert family == [frozenset({1, 2}), frozenset({2, 3})]
    assert g.evaluate((len(family[0] | family[1]),)) == 1.0
    path.write_text(json.dumps({"base": "nmod2", "sets": []}))
    with pytest.raises(ConfigError):
        load_set_family(path)
    # members must be JSON integers: 1.5 and true would both read as 1
    for sets, at in (([[1.5], [3]], 0), ([[2], [3, True]], 1), ([[2], ["3"]], 1)):
        path.write_text(json.dumps({"base": "nmod2", "sets": sets}))
        with pytest.raises(ConfigError, match=rf"^invalid set family {re.escape(str(path))}: "
                                              rf"sets\[{at}\] must be an integer"):
            load_set_family(path)
    # base is a name: 5, null or a list would be looked up as '5', 'None' or "['nmod2']"
    for base in (5, None, ["nmod2"]):
        path.write_text(json.dumps({"base": base, "sets": [[1]]}))
        with pytest.raises(ConfigError, match=re.escape(f": base must be a string, got {base!r}")):
            load_set_family(path)
    # the family and each set must be JSON lists, not read character by character
    for sets, field in (("12", "sets"), ([[1], "23"], r"sets\[1\]"), ({"1": 2}, "sets")):
        path.write_text(json.dumps({"base": "cardinality", "sets": sets}))
        with pytest.raises(ConfigError, match=rf"^invalid set family {re.escape(str(path))}: "
                                              rf"{field} must be a list, got "):
            load_set_family(path)


def test_evaluate_points_checks_dimension_and_membership():
    sp = builtin("sqrt_prod")
    with pytest.raises(DimensionMismatchError,
                       match="point of dimension 3 vs domain of dimension 2"):
        sp.evaluate_points([np.ones(4)] * 3)
    with pytest.raises(DomainError) as scalar:
        sp.evaluate((-1.0, 2.0))
    with pytest.raises(DomainError) as batch:
        sp.evaluate_points([np.array([1.0, -1.0, -2.0]), np.array([1.0, 2.0, 3.0])])
    assert str(batch.value) == str(scalar.value)
    assert str(scalar.value) == "(-1.0, 2.0) is outside the domain of 'sqrt_prod'"


def test_overflow_to_inf_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert builtin("sqrt_prod").evaluate((1e300, 1e300)) == math.inf
        assert builtin("full_shift_count_log").evaluate((1e300, 1e300)) == math.inf
