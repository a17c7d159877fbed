"""divisorlab: numerics for the divisor summatory function and its error term.

Exact computation of D(x) and Delta(x), the truncated Voronoi expansion,
square-root relation counting, moment integrals of Delta, and eighth moments
of the exponential sums that control them.
"""

from .divisor import (
    DeltaSample,
    EULER_GAMMA,
    build_divisor_table,
    delta_at,
    delta_of,
    hyperbola_D,
)
from .moments import MomentResult, WindowSpec, moment, moment_profile, window_moment
from .relations import (
    BudgetExceededError,
    RelationCount,
    RelationQuery,
    RelationSignature,
    kernel_decompose,
    min_gap,
    near_solution_count,
)
from .series import (
    ConstantEstimate,
    estimate_constant,
    extrapolate_sqrt,
    main_term_coefficient,
    partial_C1,
    partial_C2,
    partial_C4,
    partial_C7,
)
from .voronoi import residual_at, residual_mean_square, truncated_sum
from .expsum import ExpSumSample, eval_S, moment8_S

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ConstantEstimate",
    "DeltaSample",
    "EULER_GAMMA",
    "ExpSumSample",
    "MomentResult",
    "RelationCount",
    "RelationQuery",
    "RelationSignature",
    "WindowSpec",
    "build_divisor_table",
    "delta_at",
    "delta_of",
    "estimate_constant",
    "eval_S",
    "extrapolate_sqrt",
    "hyperbola_D",
    "kernel_decompose",
    "main_term_coefficient",
    "min_gap",
    "moment",
    "moment8_S",
    "moment_profile",
    "near_solution_count",
    "partial_C1",
    "partial_C2",
    "partial_C4",
    "partial_C7",
    "residual_at",
    "residual_mean_square",
    "truncated_sum",
    "window_moment",
]
