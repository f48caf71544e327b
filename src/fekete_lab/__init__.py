"""Numerical laboratory for componentwise subadditive functions.

The library turns three families of statements into checkable
computations:

* subadditivity (joint, per-axis, mixed-term, set-union) is refuted by
  deterministic sampling with shrunken witnesses;
* directed limits of f(x)/prod(x) are bracketed from above, certified
  when per-axis subadditivity is trusted, with simultaneous, iterated,
  diagonal, orthant-reflected, and ray variants;
* level-set measures, boundedness scans, and subshift pattern counts
  supply the supporting inequalities with exact or error-bounded
  arithmetic.
"""

from .domain import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EvaluationError,
    FeketeLabError,
    GridSchedule,
    IndeterminateFormError,
    Orthant,
    Point,
    QRDecomposition,
    ScheduleError,
    as_point,
    default_schedule,
    directed_upper_bound,
    orthant_reflect,
    product_leq,
    qr_decompose,
)
from .registry import (
    Domain,
    FiniteSetFunction,
    FunctionOracle,
    IRRATIONAL,
    KnownLimit,
    TabulatedFunction,
    builtin,
    builtin_names,
    cardinality_set_function,
    load_set_family,
    load_tabulated,
    rubin_eval,
    set_function_from_integer,
    write_tabulated,
)
from .sampling import SampleBudget
from .checks import (
    Violation,
    ViolationReport,
    check_componentwise,
    check_four_term,
    check_joint,
    check_monoid_sign,
    check_set_union,
    check_shifted_subadditivity,
)
from .limits import (
    DecompositionBound,
    IteratedLimit,
    LimitBracket,
    diagonal_limit,
    inner_limit_profile,
    iterated_limit,
    multiple_inf,
    orthant_limit,
    ray_limit,
    simultaneous_limit,
    verify_decomposition_bound,
)
from .levelset import (
    BoxScan,
    LevelSetSpec,
    MeasureEstimate,
    check_levelset_lemma,
    compact_bound_scan,
    levelset_measure,
    rubin_rational_box_scan,
    rubin_unboundedness_demo,
)
from .subshift import (
    CapExceededError,
    EntropyBracket,
    ForbiddenPattern,
    PatternCount,
    SftSpec,
    builtin_sft,
    builtin_sft_names,
    check_count_submultiplicativity,
    count_patterns,
    dominant_eigenvalue,
    entropy_bounds,
    folner_box_ratio,
    load_sft_spec,
    log_complexity,
    transfer_matrix_1d,
    transfer_matrix_count_1d,
)

__version__ = "0.1.0"
