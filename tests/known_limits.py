"""Analytic references for the tests: componentwise verdicts and exact limits.

An oracle declares no property of its function (fekete_lab.registry):
the checks compute whether it is subadditive along each axis, and the
estimators bound the limit of f(x)/prod(x) on the main orthant.  So
what the tests expect of them is worked out by hand, here, and never
read from the package under test.

BUILTINS holds the seven built-ins.  FAMILY holds the 36 products
g1(x1)*g2(x2) of six atoms on (0, inf): ceil(x), sqrt(x), log1p(x),
3x + 1, min(x, 5) and ceil(2x)/2.  Each atom is nonnegative and
subadditive, so each product is subadditive along each axis
(g1(a + b) g2(y) <= (g1(a) + g1(b)) g2(y) because g2 >= 0).  By Fekete's
lemma g(t)/t tends to its infimum over t > 0, which is 1, 0, 0, 3, 0
and 1 for the six atoms; the ratio of a product is the product of the
atoms' ratios, so its limit is the product of their infima.

SUMS holds sums of two of those products: each term is subadditive
along each axis, so the sum is, and the ratio of the sum is the sum of
the terms' ratios, so its limit is the sum of their limits and lies
below every sampled ratio.  PRODUCTS_3D holds products g1(x1)*g2(x2)*
g3(x3) of the same atoms, whose limit is again the product of the
atoms' infima.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from fekete_lab.registry import Domain, FunctionOracle, builtin


class Known(NamedTuple):
    oracle: FunctionOracle
    componentwise: bool  # subadditive along each axis
    limit: float | None  # of f(x)/prod(x) on the main orthant; None if none exists


BUILTINS = {name: Known(builtin(name), componentwise, limit) for name, componentwise, limit in (
    ("sqrt_prod", True, 0.0),             # 1/sqrt(x1*x2) has infimum 0
    ("full_shift_count_log", True, 1.0),  # n1*n2/(n1*n2) is identically 1
    ("abs", True, 1.0),                   # |x|/x = 1 for x > 0
    ("ceiling", True, 1.0),               # ceil(x)/x attains its infimum 1 at integers
    ("nmod2", True, 0.0),                 # (n mod 2)/n vanishes along even n
    # -x1*sqrt(x2) is not subadditive in x2, as sqrt(a + b) < sqrt(a) + sqrt(b);
    # its ratio -1/sqrt(x2) tends to 0
    ("neg_x1_sqrt_x2", False, 0.0),
    # x1^2 is superadditive; the ratio x1/sqrt(x2) has no product-order limit
    ("x1sq_sqrt_x2", False, None),
)}

# name: (the atom over arrays, the infimum of g(t)/t over t > 0)
ATOMS = {
    "ceil": (np.ceil, 1.0),
    "sqrt": (np.sqrt, 0.0),
    "log1p": (np.log1p, 0.0),
    "3x_plus_1": (lambda x: 3.0 * x + 1.0, 3.0),
    "min_x_5": (lambda x: np.minimum(x, 5.0), 0.0),
    "ceil_2x_half": (lambda x: np.ceil(2.0 * x) / 2.0, 1.0),
}


def _product(*names: str) -> FunctionOracle:
    fns = [ATOMS[name][0] for name in names]
    return FunctionOracle("*".join(names), Domain(dim=len(names), positive=True),
                          lambda *xs: math.prod(fn(x) for fn, x in zip(fns, xs)))


def _limit(*names: str) -> float:
    return math.prod(ATOMS[name][1] for name in names)


def _sum(first: tuple[str, str], second: tuple[str, str]) -> Known:
    f, g = _product(*first), _product(*second)
    oracle = FunctionOracle(f"{f.name}+{g.name}", Domain(dim=2, positive=True),
                            lambda x1, x2: f.array_fn(x1, x2) + g.array_fn(x1, x2))
    return Known(oracle, True, _limit(*first) + _limit(*second))


FAMILY = {f"{a}*{b}": Known(_product(a, b), True, _limit(a, b)) for a in ATOMS for b in ATOMS}

SUMS = {known.oracle.name: known for known in (
    _sum(("ceil", "3x_plus_1"), ("sqrt", "ceil_2x_half")),         # limit 3 + 0
    _sum(("3x_plus_1", "ceil_2x_half"), ("ceil", "ceil")),         # limit 3 + 1
    _sum(("log1p", "min_x_5"), ("ceil_2x_half", "3x_plus_1")),     # limit 0 + 3
)}

PRODUCTS_3D = {"*".join(names): Known(_product(*names), True, _limit(*names)) for names in (
    ("ceil", "3x_plus_1", "ceil_2x_half"),  # limit 3
    ("sqrt", "ceil", "3x_plus_1"),          # limit 0
    ("ceil_2x_half", "log1p", "ceil"),      # limit 0
)}
