"""Evaluable function oracles and the built-in example functions.

An oracle is a name, a domain and an array function, nothing more.  It
declares no property: whether f is subadditive, jointly or along each
axis, is what the checks compute, by searching for a violation, and the
limit of f(x)/prod(x) is what the estimators bound from above.
Neither reads a claim, so none is stored.

Every evaluation takes one path, FunctionOracle.evaluate_points: it checks
domain membership, calls array_fn on the coordinate arrays, and refuses
NaN.  Each built-in is defined once, over arrays.  A set function is an
oracle on set sizes: each one here is a cardinality lift g(A) = f(|A|).

Oracles are immutable and evaluation is pure, so they are safe to share
across threads.
"""

from __future__ import annotations

import math
import reprlib
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .domain import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EvaluationError,
    IndeterminateFormError,
    Point,
    _Record,
    _json_file,
    _json_float,
    _json_int,
    _json_list,
)

__all__ = [
    "ext_add",
    "exceeds",
    "Domain",
    "FunctionOracle",
    "builtin",
    "builtin_names",
    "tabulated_oracle",
    "load_tabulated",
    "set_function_from_integer",
    "cardinality_set_function",
    "load_set_family",
]


# ---------------------------------------------------------------------------
# Extended-real arithmetic over arrays
# ---------------------------------------------------------------------------

def ext_add(a, b):
    """Add extended reals elementwise, raising on inf + (-inf).

    a and b are floats or arrays that broadcast together; floats give a
    float.  The error names the first clashing pair of elements.  A sum
    past the largest float is inf, as for floats, without a warning.
    """
    clash = np.isinf(a) & (np.negative(a) == b)
    if clash.any():
        a, b = np.broadcast_arrays(a, b)
        j = int(np.argmax(clash))
        raise IndeterminateFormError(f"indeterminate sum {float(a.flat[j])} + {float(b.flat[j])}")
    with np.errstate(over="ignore"):
        return a + b


# Relative tolerance for inequality checks; the guarded inequalities are
# exact over the reals, so anything below a few ulps is rounding noise.
REL_TOL = 2.0 ** -26


def exceeds(lhs, rhs):
    """Elementwise lhs > rhs + tau: the violation test of every check and bound.

    tau is REL_TOL times max(1, |lhs|, |rhs|), and 0 where either side is
    infinite.  lhs and rhs are floats or arrays that broadcast together.
    """
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    tol = np.where(np.isinf(lhs) | np.isinf(rhs), 0.0,
                   REL_TOL * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs))))
    with np.errstate(over="ignore"):  # rhs + tau past the largest float is inf
        return lhs > rhs + tol


# ---------------------------------------------------------------------------
# Domains and oracles
# ---------------------------------------------------------------------------

class Domain(_Record):
    """Where an oracle is defined: the whole space, the positive orthant or a grid.

    The whole space (R^d or Z^d, an additive group) by default; positive
    restricts to the open main orthant, where every coordinate is
    positive, the one place where limits live.  A function on another
    orthant w is x -> f(w*x) on this one.  grid_axes marks a tabulated
    function defined only on the cartesian grid of those coordinates.
    """

    dim: int
    positive: bool
    integer: bool
    grid_axes: tuple[tuple[float, ...], ...] | None

    def __init__(self, dim: int, positive: bool = False, integer: bool = False,
                 grid_axes: tuple[tuple[float, ...], ...] | None = None) -> None:
        super().__init__(dim, positive, integer, grid_axes)
        if self.dim < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dim!r}")
        if self.grid_axes is not None and len(self.grid_axes) != self.dim:
            raise DimensionMismatchError("one grid axis per dimension required")

    @property
    def is_group(self) -> bool:
        """Whether the domain is all of R^d or Z^d, an additive group: not positive, no grid."""
        return not self.positive and self.grid_axes is None

    def _member_mask(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Membership of each point whose axis-i coordinates form columns[i], the
        one rule of the domain: as many columns as axes, finite, integral on
        integer domains, then on the grid if any, else positive if so declared."""
        if len(columns) != self.dim:
            raise DimensionMismatchError(
                f"point of dimension {len(columns)} vs domain of dimension {self.dim}")
        inside = np.ones(len(columns[0]), dtype=bool)
        for i, c in enumerate(columns):
            inside &= np.isfinite(c)
            if self.integer:
                inside &= c == np.floor(c)
            if self.grid_axes is not None:
                inside &= np.isin(c, self.grid_axes[i])
            elif self.positive:
                inside &= c > 0
        return inside


class FunctionOracle(_Record):
    """A named function on a declared domain, and nothing else.

    array_fn maps coordinate arrays, one per axis, to the values; it must
    accept every point of the domain.  Every evaluation checks domain
    membership, then calls array_fn, then refuses NaN.
    """

    name: str
    domain: Domain
    array_fn: Callable[..., np.ndarray]

    def evaluate(self, point: Point | Sequence[float]) -> float:
        """f at one point: evaluate_points on a single row."""
        return float(self.evaluate_points(np.array(Point(point).coords)[:, None])[0])

    def evaluate_points(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """f at the points whose axis-i coordinates form the 1-D array columns[i],
        by the one path of the class docstring.  Overflow to +-inf is a legal
        extended real, so it raises no warning."""
        cols = [np.asarray(c, dtype=float) for c in columns]
        inside = self.domain._member_mask(cols)
        if not inside.all():
            j = int(np.argmin(inside))
            raise DomainError(f"{tuple(float(c[j]) for c in cols)} is outside the domain "
                              f"of {self.name!r}")
        with np.errstate(over="ignore"):
            values = np.asarray(self.array_fn(*cols), dtype=float)
        nan = np.isnan(values)
        if nan.any():
            j = int(np.argmax(nan))
            raise EvaluationError(
                f"{self.name!r} produced NaN at {tuple(float(c[j]) for c in cols)}")
        return values


# ---------------------------------------------------------------------------
# Built-in oracles
# ---------------------------------------------------------------------------

_BUILTINS: dict[str, FunctionOracle] = {oracle.name: oracle for oracle in (
    FunctionOracle(
        name="sqrt_prod",
        domain=Domain(dim=2, positive=True),
        array_fn=lambda x1, x2: np.sqrt(x1 * x2),
    ),
    # jointly subadditive (sqrt(x2+y2) dominates both sqrt(x2) and
    # sqrt(y2)) yet not subadditive in x2 alone: the mirror image of
    # sqrt_prod, which is componentwise subadditive but not joint
    FunctionOracle(
        name="neg_x1_sqrt_x2",
        domain=Domain(dim=2, positive=True),
        array_fn=lambda x1, x2: -x1 * np.sqrt(x2),
    ),
    FunctionOracle(
        name="x1sq_sqrt_x2",
        domain=Domain(dim=2, positive=True),
        array_fn=lambda x1, x2: x1 * x1 * np.sqrt(x2),
    ),
    FunctionOracle(
        name="nmod2",
        domain=Domain(dim=1, integer=True),
        array_fn=lambda n: np.remainder(n, 2.0),
    ),
    FunctionOracle(
        name="full_shift_count_log",
        domain=Domain(dim=2, positive=True, integer=True),
        array_fn=lambda x1, x2: x1 * x2,
    ),
    FunctionOracle(
        name="ceiling",
        domain=Domain(dim=1),
        # + 0.0 turns the -0.0 that np.ceil gives on (-1, 0) into 0.0
        array_fn=lambda x: np.ceil(x) + 0.0,
    ),
    FunctionOracle(
        name="abs",
        domain=Domain(dim=1),
        array_fn=np.abs,
    ),
)}


def builtin(name: str) -> FunctionOracle:
    """Look up a built-in oracle by registry name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise ConfigError(f"unknown builtin {name!r}; available: {known}") from None


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


# ---------------------------------------------------------------------------
# Tabulated functions
# ---------------------------------------------------------------------------

def tabulated_oracle(axes: Sequence[Sequence[float]], values: Sequence[float],
                     name: str = "tabulated") -> FunctionOracle:
    """The oracle of a function given by exact values on a cartesian grid.

    Evaluation is lookup only: querying off the grid is an error rather
    than an interpolation, because interpolation can manufacture or
    destroy subadditivity and the checkers must not report artifacts of
    resampling.  Each axis is nonempty, finite and strictly increasing;
    values runs row-major over the axes and holds extended reals, so +-inf
    is a value and NaN is not.
    """
    axes = tuple(tuple(float(c) for c in axis) for axis in axes)
    table = np.array([float(v) for v in values])
    if not axes:
        raise DomainError("at least one axis required")
    for i, axis in enumerate(axes):
        if (not axis or not all(map(math.isfinite, axis))
                or any(a >= b for a, b in zip(axis, axis[1:]))):
            raise DomainError(f"axes[{i}] must be nonempty, finite and strictly increasing, "
                              f"got {list(axis)!r}")
    shape = [len(axis) for axis in axes]
    if len(table) != math.prod(shape):
        raise DomainError(
            f"value array of length {len(table)} does not fill a grid of size {math.prod(shape)}")
    if np.isnan(table).any():
        raise DomainError(f"values[{int(np.argmax(np.isnan(table)))}] is NaN, "
                          "which is not an extended real")
    # the domain admits only grid points, so searchsorted finds each coordinate
    grid = [np.array(axis) for axis in axes]
    table = table.reshape(shape)
    return FunctionOracle(
        name=name, domain=Domain(dim=len(axes), grid_axes=axes),
        array_fn=lambda *cols: table[tuple(map(np.searchsorted, grid, cols))])


def load_tabulated(path: str | Path) -> FunctionOracle:
    """Load a tabulated oracle, named after the file, from JSON {"dim", "axes",
    "values"} (values row-major), with the checks of tabulated_oracle."""
    with _json_file(path, "table", "dim", "axes", "values") as obj:
        dim = _json_int(obj["dim"], "dim")
        axes = [[_json_float(c, f"axes[{i}][{j}]")
                 for j, c in enumerate(_json_list(axis, f"axes[{i}]"))]
                for i, axis in enumerate(_json_list(obj["axes"], "axes"))]
        values = []
        for k, v in enumerate(_json_list(obj["values"], "values")):
            if isinstance(v, list):
                raise ConfigError(f"values[{k}] must be a number, got {reprlib.repr(v)}; "
                                  "values is one flat, row-major list")
            values.append(_json_float(v, f"values[{k}]"))
        if len(axes) != dim:
            raise ConfigError(f"declared dim {dim} but {len(axes)} axes given")
        return tabulated_oracle(axes, values, Path(path).stem)


# ---------------------------------------------------------------------------
# Functions of finite integer sets
# ---------------------------------------------------------------------------

def set_function_from_integer(oracle: FunctionOracle) -> FunctionOracle:
    """Lift an integer function to sets via cardinality: g(A) = f(|A|), g({}) = 0.

    The lift is an oracle on set sizes that evaluates f once per batch, on
    the nonzero sizes.  It is invariant under translating A, but it need
    not preserve subadditivity because |A u B| need not equal |A| + |B|.
    """
    if oracle.domain.dim != 1 or not oracle.domain.integer:
        raise DomainError("cardinality lift needs a one-dimensional integer oracle")

    def g(n: np.ndarray) -> np.ndarray:
        values = np.zeros(len(n))
        values[n != 0] = oracle.evaluate_points([n[n != 0]])
        return values

    return FunctionOracle(name=f"{oracle.name}_of_cardinality",
                          domain=Domain(dim=1, integer=True), array_fn=g)


def cardinality_set_function() -> FunctionOracle:
    return FunctionOracle(name="cardinality", domain=Domain(dim=1, integer=True),
                          array_fn=lambda n: n)


def load_set_family(path: str | Path) -> tuple[FunctionOracle, list[frozenset[int]]]:
    """Load {"base": name, "sets": [[...], ...]} for the set-union checker: base
    is "cardinality" or a built-in integer oracle, lifted by set_function_from_integer."""
    with _json_file(path, "set family", "base", "sets") as obj:
        base = obj["base"]
        if not isinstance(base, str):
            raise ConfigError(f"base must be a string, got {reprlib.repr(base)}")
        family = [frozenset(_json_int(n, f"sets[{i}]") for n in _json_list(s, f"sets[{i}]"))
                  for i, s in enumerate(_json_list(obj["sets"], "sets"))]
        g = (cardinality_set_function() if base == "cardinality"
             else set_function_from_integer(builtin(base)))
        if not family:
            raise ConfigError("sets must be nonempty")
        return g, family
