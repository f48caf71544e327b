"""Records: every record class builds a frozen value.

Assigning to a field raises AttributeError, two equal constructions
compare equal (and hash equal unless a field is a dict), and the repr
names the class.  LimitBracket's sample arrays take no part in ==.  A
record is not a tuple: it never equals the tuple of its fields, and it
neither iterates nor indexes (a Point iterates its coordinates).  A
missing, unknown or repeated field raises TypeError, as in a call, and
so does declaring a field without a default after one with a default.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

import numpy as np
import pytest

from fekete_lab.checks import Violation, ViolationReport
from fekete_lab.domain import (GridSchedule, Point, QRDecomposition, _Record,
                               _RecordType)
from fekete_lab.levelset import (LemmaCheckRow, LevelSetSpec, LineScan,
                                 MeasureEstimate, UnboundednessDemo)
from fekete_lab.limits import (DecompositionBound, DecompositionTerm, IteratedLimit,
                               LevelSummary, LimitBracket, _TailEstimate)
from fekete_lab.registry import Domain, FiniteSetFunction, FunctionOracle
from fekete_lab.sampling import SampleBudget
from fekete_lab.subshift import EntropyBracket, EntropyEntry, ForbiddenPattern, SftSpec
from fekete_lab.svgplot import PlotSeries

MODULES = ("domain", "registry", "sampling", "checks", "limits", "levelset", "subshift",
           "svgplot")


def _violation() -> dict:
    return {"kind": "joint", "axis": None, "witness": ((1.0,), (2.0,)), "lhs": 3.0, "rhs": 2.0}


def _estimate() -> dict:
    return {"value": 0.5, "method": "grid_quadrature", "error_bound": 0.125}


def _level() -> dict:
    return {"axis": 0, "status": "converged", "tol": 0.005, "sweeps": 1, "evaluations": 8,
            "last_stabilized_at": 128.0}


# keyword arguments of one construction of each record class, built afresh
# on each call, so that equal constructions share no mutable value
RECORDS = {
    Point: lambda: {"coords": (1.0, 2.0)},
    QRDecomposition: lambda: {"q": 2, "r": 1.5, "t": 1.0},
    GridSchedule: lambda: {"base": Point((1.0, 2.0)), "growth": 3.0, "levels": 5},
    Domain: lambda: {"dim": 2, "positive": True, "integer": True},
    FunctionOracle: lambda: {"name": "abs", "domain": Domain(dim=1), "array_fn": np.abs},
    FiniteSetFunction: lambda: {"name": "cardinality", "fn": len},
    SampleBudget: lambda: {"count": 50, "seed": 7},
    Violation: _violation,
    ViolationReport: lambda: {"kind": "joint", "oracle": "abs",
                              "violations": (Violation(**_violation()),),
                              "samples_checked": 10, "metadata": {"seed": 7}},
    LimitBracket: lambda: {"best_upper": 1.0, "tail_estimate": 1.0, "status": "converged",
                           "delta": 0.01, "shell": 0, "threshold_point": (1.0,),
                           "evaluations": 2, "shells": np.array([0, 1]),
                           "points": np.array([[1.0], [2.0]]), "ratios": np.array([1.0, 1.0])},
    _TailEstimate: lambda: {"value": 1.0, "status": "converged", "evaluations": 4,
                            "stabilized_at": 8.0},
    LevelSummary: _level,
    IteratedLimit: lambda: {"value": 0.0, "status": "converged", "order": (0,),
                            "levels": (LevelSummary(**_level()),), "evaluations": 8},
    DecompositionTerm: lambda: {"coefficient": 1, "value": 1.5},
    DecompositionBound: lambda: {"x": (3.5,), "t": (1.0,), "lhs": 3.5, "rhs": 3.5,
                                 "holds": True,
                                 "terms": (DecompositionTerm(1, 1.5),)},
    LevelSetSpec: lambda: {"t": Point((1.0, 1.0)), "k": 0.5},
    MeasureEstimate: _estimate,
    LemmaCheckRow: lambda: {"anchor": (1.0,), "k": 0.5,
                            "estimate": MeasureEstimate(**_estimate()), "bound": 0.5,
                            "margin": 0.0, "holds": True},
    LineScan: lambda: {"x": Fraction(3, 2), "denominator_bound": 2, "max_value": 2, "ok": True},
    UnboundednessDemo: lambda: {"diagonal": (((Fraction(2), Fraction(2)), 1),),
                                "line_scans": (LineScan(Fraction(3, 2), 2, 2, True),)},
    ForbiddenPattern: lambda: {"offsets": ((0,), (1,)), "symbols": (1, 1)},
    SftSpec: lambda: {"alphabet": 2, "dim": 1,
                      "forbidden": (ForbiddenPattern(((0,), (1,)), (1, 1)),)},
    EntropyEntry: lambda: {"sides": (3,), "count": 5, "log_value": 2.3, "ratio": 0.78,
                           "running_min": 0.78, "transfer_upper": 0.7},
    EntropyBracket: lambda: {"entries": (EntropyEntry((3,), 5, 2.3, 0.78, 0.78),),
                             "best_upper": 0.78, "truncated": False, "best_lower": 0.69},
    PlotSeries: lambda: {"name": "ratio", "points": ((1.0, 2.0),), "dashed": True},
}
# a dict field makes the record unhashable
UNHASHABLE = {ViolationReport}


def test_every_exported_record_class_is_covered():
    # every exported class but the errors, and every record, exported or not
    classes = set()
    for name in MODULES:
        module = importlib.import_module(f"fekete_lab.{name}")
        classes |= {obj for obj in map(vars(module).get, module.__all__)
                    if isinstance(obj, type) and not issubclass(obj, Exception)}
        classes |= {obj for obj in vars(module).values() if isinstance(obj, type)
                    and issubclass(obj, _Record) and obj is not _Record
                    and obj.__module__ == module.__name__}
    assert {cls.__name__ for cls in classes} == {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_a_frozen_value(cls):
    kwargs = RECORDS[cls]()
    record, twin = cls(**kwargs), cls(**RECORDS[cls]())
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    assert record == twin and not record != twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    assert repr(record).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_not_a_tuple(cls):
    record = cls(**RECORDS[cls]())
    values = tuple(getattr(record, name) for name in cls.__slots__)
    assert not isinstance(record, tuple)
    assert record != values and values != record
    if cls is Point:  # a point is the sequence of its coordinates, not of its fields
        assert tuple(record) == record.coords and record[0] == record.coords[0]
        return
    with pytest.raises(TypeError):
        iter(record)
    with pytest.raises(TypeError):
        record[0]  # noqa: B018


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_missing_unknown_or_repeated_field_raises_type_error(cls):
    kwargs = RECORDS[cls]()
    first, value = next(iter(kwargs.items()))
    assert first == cls.__slots__[0]
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(**kwargs, no_such_field=1)
    with pytest.raises(TypeError, match=f"multiple values for .*'{first}'"):
        cls(value, **kwargs)
    rest = {name: v for name, v in kwargs.items() if name != first}
    if cls is SampleBudget:  # every field of a budget has a default
        assert cls(**rest) == SampleBudget(seed=rest["seed"])
        return
    with pytest.raises(TypeError, match=f"missing .*'{first}'"):
        cls(**rest)


def test_a_field_without_a_default_cannot_follow_one_with_a_default():
    with pytest.raises(TypeError, match="field 'y' without a default follows field 'x'"):
        _RecordType("R", (_Record,), {"__annotations__": {"x": "int", "y": "int"}, "x": 0})
    assert _RecordType("R", (_Record,), {"__annotations__": {"x": "int", "y": "int"},
                                         "y": 0})(1)._asdict() == {"x": 1, "y": 0}


def test_a_record_with_lazy_annotations_is_refused():
    # what a class body leaves on Python 3.14 without the __future__ import
    for key in ("__annotate__", "__annotate_func__"):
        with pytest.raises(TypeError, match="needs `from __future__ import annotations`"):
            _RecordType("R", (_Record,), {key: lambda format: {"x": int}})
