"""Majorization-based feasibility of entanglement-assisted LOCC
transformations between bipartite pure states: exact predicates and
closed-form conditions for catalysts, a Monte Carlo standard-catalyst
search, and experiment reproduction harnesses."""

__version__ = "0.1.0"

from .core import (
    DEFAULT_TOL,
    CatalystClass,
    CatalystKind,
    MajorizationVerdict,
    OscVector,
    Relation,
    Tolerance,
    entropy_bits,
    majorizes_check,
    make_osc,
    pad,
    partial_sums,
    tensor_spectrum,
)
from .catalysis import (
    CatalystReport,
    RegionGrid,
    TransformQuery,
    catalyst_bound_3x3,
    classify_catalyst,
    general_catalyst_2to3,
    general_catalyst_2x2,
    is_general_catalyst,
    is_time_reverse,
    locc_feasible,
    min_residual_2x2,
    mutual_region_scan,
    subcatalyst_forced,
)
from .errors import (
    CataloccError,
    DegenerateTarget,
    DomainError,
    GenerationExhausted,
    NegativeEntry,
    NotACatalyst,
    NotNormalized,
    TargetTooSmall,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    SearchStatus,
    general_catalyst_exists,
    monte_carlo_standard_catalyst,
)
from .experiments import (
    CurvePoint,
    FixtureResult,
    PairGenSpec,
    SuiteReport,
    generate_catalyzable_pairs,
    reference_suite,
    success_probability_curve,
)

__all__ = [
    "__version__",
    # core
    "Tolerance", "DEFAULT_TOL", "Relation", "MajorizationVerdict", "OscVector",
    "CatalystKind", "CatalystClass", "make_osc", "pad", "partial_sums",
    "majorizes_check", "tensor_spectrum", "entropy_bits",
    # catalysis
    "TransformQuery", "CatalystReport", "RegionGrid", "locc_feasible",
    "is_general_catalyst", "general_catalyst_2x2", "min_residual_2x2",
    "catalyst_bound_3x3", "subcatalyst_forced", "general_catalyst_2to3",
    "classify_catalyst", "is_time_reverse", "mutual_region_scan",
    # search
    "SearchStatus", "SearchConfig", "SearchOutcome", "general_catalyst_exists",
    "monte_carlo_standard_catalyst",
    # experiments
    "PairGenSpec", "CurvePoint", "FixtureResult", "SuiteReport",
    "generate_catalyzable_pairs", "success_probability_curve", "reference_suite",
    # errors
    "CataloccError", "NotNormalized", "NegativeEntry", "TargetTooSmall",
    "DomainError", "DegenerateTarget", "NotACatalyst", "GenerationExhausted",
]
