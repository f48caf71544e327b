"""Core geometry for directed limits on the positive orthant of R^d and Z^d.

Points, the q*t + r step decomposition used by the limit estimators,
geometric sampling schedules and the readers of JSON input files.  Every
value here is immutable after construction, and every function but
_json_file, which reads a file, is pure, so concurrent use needs no
synchronization.

Reals are IEEE double precision throughout; exactness claims are made
"to one ulp".  The extended reals are ordinary floats allowed to be
+inf or -inf but never NaN: arithmetic that would produce an
indeterminate form raises instead of silently propagating NaN.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


__all__ = [
    "FeketeLabError",
    "ConfigError",
    "DimensionMismatchError",
    "DomainError",
    "ScheduleError",
    "EvaluationError",
    "IndeterminateFormError",
    "Point",
    "QRDecomposition",
    "qr_decompose",
    "GridSchedule",
    "default_schedule",
]


class FeketeLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FeketeLabError):
    """Unusable configuration: unknown names, bad flags, malformed files."""


class DimensionMismatchError(FeketeLabError):
    """Operands declare different dimensions."""


class DomainError(FeketeLabError):
    """A point lies outside the domain an operation requires."""


class ScheduleError(DomainError):
    """A sampling schedule the estimators cannot use: a rung, sample point
    or ratio denominator that is not finite, or a ladder that does not grow."""


class EvaluationError(FeketeLabError):
    """An oracle evaluation failed or returned NaN."""


class IndeterminateFormError(FeketeLabError):
    """Arithmetic would produce an indeterminate form such as inf - inf."""


# The readers of JSON input files.  A field reader returns value if it has
# the JSON type its field needs, and refuses anything else with a ConfigError
# naming the field and the value, shortened by reprlib: a conversion would
# read another input than the one written (int() reads 2.9 as 2 and true as
# 1, float() reads "1e0" as 1, iterating reads a string character by
# character), and indexing a list or a string fails with Python's message.

def _json_int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {reprlib.repr(value)}")
    return value


def _json_float(value: object, field: str) -> float:
    """value as a float; an integer past the float range is refused too."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {reprlib.repr(value)}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{field} is an integer past the float range")
    return float(value)


def _json_list(value: object, field: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{field} must be a list, got {reprlib.repr(value)}")
    return value


def _json_object(value: object, field: str, *required: str) -> dict:
    """value, if it is an object holding every key in required; field "" is the top level."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field or 'the file'} must be an object, got {reprlib.repr(value)}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{field + '.' if field else ''}{key} is missing")
    return value


@contextmanager
def _json_file(path: str | Path, kind: str, *required: str) -> Iterator[dict]:
    """The JSON object in the UTF-8 file at path, holding every key in
    required, for a with block that reads its fields.  A file that cannot
    be opened or parsed (bad UTF-8, syntax or digit count, or nesting too
    deep) is "cannot read KIND PATH: ...", and one whose top level is not
    an object or whose block raises ConfigError or DomainError is "invalid
    KIND PATH: ..."."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {kind} {path}: {exc}") from exc
    try:
        yield _json_object(value, "", *required)
    except (ConfigError, DomainError) as exc:
        raise ConfigError(f"invalid {kind} {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class _RecordType(type):
    """Builds a record class from its body's annotations.

    The annotated names become the __slots__, in order, and the values
    given to some of them, the class's _field_defaults; as in a call, a
    field without a default cannot follow one with a default.  The
    annotations are read as the class body left them, strings under
    `from __future__ import annotations`: nothing is evaluated or
    compiled.  Without that import, Python 3.14 leaves no annotations in
    the body, only a function that would evaluate them, so such a record
    is refused rather than built with no fields.
    """

    def __new__(mcs, name: str, bases: tuple[type, ...], namespace: dict[str, object]):
        if "__annotations__" not in namespace and (
                "__annotate__" in namespace or "__annotate_func__" in namespace):
            raise TypeError(f"record {name} needs `from __future__ import annotations` "
                            "in its module")
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {field: namespace.pop(field) for field in fields if field in namespace}
        for before, field in zip(fields, fields[1:]):
            if before in defaults and field not in defaults:
                raise TypeError(f"record {name}: field {field!r} without a default "
                                f"follows field {before!r} with one")
        namespace["_field_defaults"] = defaults
        namespace["__slots__"] = fields
        return super().__new__(mcs, name, bases, namespace)


class _Record(metaclass=_RecordType):
    """Base of every record: a frozen value whose fields are annotations.

    A record class declares its fields as annotated names in its body,
    optionally ending with fields that have defaults.  __init__ binds
    positional, then keyword values in field order, as a function call
    would; a record that checks its fields defines its own __init__,
    which runs the checks around super().__init__.  Once built, the
    record is frozen, and its fields give ==, hash, repr and _replace.
    A record is not a tuple: it neither iterates nor indexes, and never
    equals one.
    """

    def __init__(self, *values: object, **fields: object) -> None:
        names = self.__slots__
        if len(values) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} fields "
                            f"but {len(values)} were given")
        for name in fields:
            if name not in names:
                raise TypeError(f"{type(self).__name__}() got an unexpected keyword "
                                f"argument {name!r}")
        for name, value in zip(names, values):
            if name in fields:
                raise TypeError(f"{type(self).__name__}() got multiple values for field {name!r}")
            object.__setattr__(self, name, value)
        for name in names[len(values):]:
            if name in fields:
                value = fields[name]
            elif name in self._field_defaults:
                value = self._field_defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def _replace(self, **changes: object) -> _Record:
        """A copy with some fields changed, built and checked by __init__."""
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

class Point(_Record):
    """A point of R^d with finite coordinates, d >= 1."""

    coords: tuple[float, ...]

    def __init__(self, coords: tuple[float, ...]) -> None:
        coords = tuple(float(c) for c in coords)
        if len(coords) < 1:
            raise DomainError("a point needs at least one coordinate")
        for c in coords:
            if not math.isfinite(c):
                raise DomainError(f"non-finite coordinate {c!r}")
        super().__init__(coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[float]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    def product(self) -> float:
        return math.prod(self.coords)


# ---------------------------------------------------------------------------
# The q*t + r step decomposition
# ---------------------------------------------------------------------------

class QRDecomposition(_Record):
    """Writing x = q*t + r with q a positive integer and r in [t, 2t)."""

    q: int
    r: float
    t: float


def qr_decompose(x: float, t: float) -> QRDecomposition:
    """Decompose x >= 2t as x = q*t + r with q >= 1 integer, r in [t, 2t).

    The representation is unique in exact arithmetic.  In floating point
    a computed remainder landing exactly on 2t is resolved downward into
    q+1 so the rule stays deterministic.
    """
    x = float(x)
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"step must be positive and finite, got {t!r}")
    if not math.isfinite(x) or x < 2.0 * t:
        raise DomainError(f"x={x!r} has no representation with q >= 1 and r >= t={t!r}")
    ulp = math.ulp(max(abs(x), 1.0))
    q0 = int(math.floor((x - t) / t))
    # Rounding of (x - t)/t can land one step off in either direction;
    # prefer the largest valid q, which resolves a remainder computed at
    # the 2t boundary downward into q + 1.
    for q in (q0 + 1, q0, q0 - 1):
        if q < 1:
            continue
        r = x - q * t
        if t - ulp <= r < 2.0 * t and abs(q * t + r - x) <= ulp:
            return QRDecomposition(q=q, r=r, t=t)
    raise FeketeLabError(
        f"step decomposition invariant failed for x={x!r}, t={t!r} near q={q0}"
    )


# ---------------------------------------------------------------------------
# Geometric sampling schedules
# ---------------------------------------------------------------------------

_LADDER_TOP = 1e300  # a ladder ends before its first rung above this
_TAIL_STEPS = 200    # how far the adaptive tail estimators may extend a ladder


def _ladder(base: float, growth: float, rungs: int, *,
            integer: bool) -> list[float] | list[int]:
    """The rung rule of every schedule: up to rungs coordinates base * growth^k, k = 0, 1, ...

    The ladder ends early, before its first coordinate that overflows or
    exceeds _LADDER_TOP.  Integer mode rounds each rung to the nearest
    integer; the base must be a whole number >= 1 and the rounded ladder
    must still be strictly increasing (guaranteed for growth >= 2).
    """
    if integer and (base != int(base) or base < 1):
        raise ScheduleError(f"integer schedules need whole base coordinates >= 1, got {base!r}")
    values: list = []
    for k in range(rungs):
        try:
            x = base * growth ** k
        except OverflowError:
            break
        if not x <= _LADDER_TOP:
            break
        if integer:
            x = round(x)
            if values and x <= values[-1]:
                raise ScheduleError("integer schedule is not strictly increasing; use growth >= 2")
        values.append(x)
    return values


class GridSchedule(_Record):
    """Geometric per-axis sampling schedule: coordinate i takes base_i * growth^k.

    Levels run k = 0..levels inclusive; axis_values refuses an axis whose
    levels pass 1e300.  Geometric spacing keeps sample counts polynomial
    in the level count while the step-count ratio q/x converges quickly,
    which is what the limit estimators need.
    """

    base: Point
    growth: float
    levels: int

    def __init__(self, base: Point, growth: float = 2.0, levels: int = 40) -> None:
        super().__init__(Point(base), growth, levels)
        if not all(c > 0 for c in self.base):
            raise ScheduleError("schedule base must have positive coordinates")
        if not self.growth > 1.0:
            raise ScheduleError(f"growth factor must exceed 1, got {self.growth!r}")
        if self.levels < 1:
            raise ScheduleError(f"level count must be >= 1, got {self.levels!r}")

    @property
    def dim(self) -> int:
        return self.base.dim

    def axis_values(self, axis: int, *, integer: bool = False) -> list[float] | list[int]:
        """The levels + 1 sample coordinates of one axis, strictly increasing.

        Integer mode rounds each level to the nearest integer (see _ladder).
        A level past 1e300 is refused.
        """
        values = _ladder(self.base[axis], self.growth, self.levels + 1, integer=integer)
        if len(values) <= self.levels:
            raise ScheduleError("schedule coordinate overflowed; reduce levels")
        return values

    def tail_values(self, axis: int, *, integer: bool = False) -> list[float] | list[int]:
        """The ladder the adaptive tail estimators walk on one axis.

        The rungs of axis_values, extended or cut to _TAIL_STEPS + 1 of
        them, and fewer where the ladder passes 1e300 first.
        """
        return _ladder(self.base[axis], self.growth, _TAIL_STEPS + 1, integer=integer)


def default_schedule(dim: int) -> GridSchedule:
    return GridSchedule(base=Point((1.0,) * dim))
