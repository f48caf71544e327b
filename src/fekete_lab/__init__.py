"""Numerical laboratory for componentwise subadditive functions.

The library turns three families of statements into checkable
computations:

* subadditivity (joint, per-axis, mixed-term, set-union) is refuted by
  deterministic sampling with shrunken witnesses;
* directed limits of f(x)/prod(x) on the main orthant are bracketed
  from above, certified when per-axis subadditivity is trusted, with
  simultaneous, iterated, diagonal, and ray variants;
* level-set measures and subshift pattern counts supply the
  supporting inequalities with exact or error-bounded arithmetic.

The public names below are resolved lazily (PEP 562): `from fekete_lab
import X` imports only the module that defines X, so a caller that
needs no numpy-backed module does not load numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "domain": (
        "ConfigError", "DimensionMismatchError", "DomainError", "EvaluationError",
        "FeketeLabError", "GridSchedule", "IndeterminateFormError", "Point",
        "QRDecomposition", "ScheduleError", "as_point", "default_schedule", "qr_decompose",
    ),
    "registry": (
        "Domain", "FiniteSetFunction", "FunctionOracle", "builtin", "builtin_names",
        "cardinality_set_function", "load_set_family", "load_tabulated",
        "set_function_from_integer", "tabulated_oracle",
    ),
    "sampling": ("SampleBudget",),
    "checks": (
        "Violation", "ViolationReport", "check_componentwise", "check_four_term",
        "check_joint", "check_monoid_sign", "check_set_union",
        "check_shifted_subadditivity",
    ),
    "limits": (
        "DecompositionBound", "IteratedLimit", "LimitBracket", "diagonal_limit",
        "iterated_limit", "ray_limit", "simultaneous_limit", "verify_decomposition_bound",
    ),
    "levelset": (
        "LevelSetSpec", "MeasureEstimate", "check_levelset_lemma", "levelset_measure",
        "rubin_eval", "rubin_unboundedness_demo",
    ),
    "subshift": (
        "CapExceededError", "EntropyBracket", "ForbiddenPattern", "SftSpec",
        "builtin_sft", "builtin_sft_names", "check_count_submultiplicativity",
        "count_patterns", "entropy_bounds", "load_sft_spec",
    ),
}
_MODULES = ("cli", "ioutil", "svgplot", *_EXPORTS)
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_DEFINED_IN)


def __getattr__(name: str):
    """Import the module behind a public name, or a submodule, on first use."""
    if name in _DEFINED_IN:
        value = getattr(importlib.import_module(f".{_DEFINED_IN[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFINED_IN, *_MODULES})
