"""Prefix-free coding with unequal letter costs.

Build near-optimal prefix-free codes over alphabets whose letters have
different (possibly infinitely many) positive costs, evaluate entropy-based
redundancy bounds, and cross-check small instances against an exact oracle.
"""

__version__ = "0.1.0"

from .analysis import (
    BOUND_APPROX_PREFIX,
    BOUND_BETA,
    BOUND_MAX_COST,
    BOUND_MULTIPLICITY,
    BOUND_REFERENCE,
    BOUND_SIZE,
    AnalysisReport,
    ApproxBound,
    BoundValue,
    approx_bound,
    beta_bound,
    entropy,
    max_cost_bound,
    multiplicity_bound,
    reference_bound,
    report,
    size_bound,
)
from .coder import (
    BuildStats,
    CodeTree,
    ProbInput,
    build_code,
    prepare,
    split_trace,
)
from .costs import (
    CharRoot,
    CostSpec,
    char_root,
    custom_profile,
    finite_list,
    parse_cost_spec,
)
from .errors import (
    CapTooSmallError,
    CostSpecError,
    OracleTooLargeError,
    ProbInputError,
    VarncodeError,
)
from .oracle import OracleResult, exact_opt
