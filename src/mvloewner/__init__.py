"""Multivariate rational fitting in the Loewner framework.

Fits barycentric rational models to sampled multivariate data, computes
the denominator weights either from one SVD of the full n-D Loewner
matrix or from a cascade of single-variable null spaces (with flop and
memory accounting for both), and assembles generalized state-space
realizations of the fitted models.
"""

__version__ = "0.1.0"

from .cascade import (
    CascadeResult,
    DecoupledWeights,
    FlopReport,
    cascaded_nullspace,
    flop_cascade,
    flop_full,
    make_flop_report,
    memory_estimate,
    optimal_variable_order,
    recombine,
)
from .driver import AdaptiveLog, FitOptions, FitResult, fit_adaptive, fit_direct
from .errors import (
    DegenerateNullspaceError,
    EvaluationError,
    ExpressionError,
    GridError,
    MemoryGuardError,
    MvLoewnerError,
    NotConvergedError,
    OffGridError,
    PoleError,
)
from .expressions import evaluate, parse, to_string
from .grids import (
    DataSource,
    DenseSource,
    OracleSource,
    Tableau,
    VariableGrid,
    load_source,
    source_from_dict,
    source_to_dict,
)
from .loewner import (
    LoewnerMatrix,
    NullspaceResult,
    OrderEstimate,
    SylvesterOperands,
    build_loewner_1d,
    build_loewner_nd,
    build_sylvester_operands,
    detect_orders,
    nullspace_vector,
    sylvester_residual,
)
from .model import (
    BarycentricModel,
    eval_model,
    load_model,
    make_model,
    max_error,
    model_from_dict,
    model_to_dict,
)
from .realize import (
    CompressedRealization,
    GeneralizedRealization,
    PseudoCompanion,
    VariableSplit,
    build_pseudo_companion,
    build_realization,
    compress_realization,
    eval_realization,
    load_realization,
    make_split,
    optimal_split,
    realization_from_dict,
    realization_to_dict,
    resolve_split,
)
