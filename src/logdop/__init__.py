"""Exact-arithmetic H^1 of logarithmic differential operators on blown-up P^1.

The package computes, over Z with no floating point in any result, the first
cohomology of the pushforward sheaves of (level-m) logarithmic differential
operators on the blow-up of the projective line over Z_p at its p+1 rational
special-fiber points: per-degree finite p-groups, their direct-sum table rows,
independent splitting verification, constructive lifts behind the splitting,
exponent/order bookkeeping identities, and level-lowering valuation
diagnostics.
"""

from .calculus import (
    OperatorSection,
    TensorSection,
    coeff_a,
    coeff_a_level,
    is_global_section,
    q_level,
    symbol,
    tensor_to_operator,
    transform_term,
)
from .engine import (
    H1Report,
    LevelDiagnostic,
    exponent_lower_bound,
    graded_piece_dim,
    h1_filtered,
    h1_tensor,
    lattice_order_check,
    level_descent_diagnostic,
    summand_count_check,
    verify_splitting,
)
from .lifting import lift_by_schedule, lift_by_solve, sample_kernel_section
from .linalg import (
    AbelianPGroup,
    IntegerMatrix,
    cokernel_invariants,
    quotient_by_cyclic,
)
from .localdata import (
    LocalDataVector,
    PointLift,
    local_data_operator,
    local_data_tensor,
    q_d_matrix,
    tensor_presentation,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianPGroup",
    "H1Report",
    "IntegerMatrix",
    "LevelDiagnostic",
    "LocalDataVector",
    "OperatorSection",
    "PointLift",
    "TensorSection",
    "coeff_a",
    "coeff_a_level",
    "cokernel_invariants",
    "exponent_lower_bound",
    "graded_piece_dim",
    "h1_filtered",
    "h1_tensor",
    "is_global_section",
    "lattice_order_check",
    "level_descent_diagnostic",
    "lift_by_schedule",
    "lift_by_solve",
    "local_data_operator",
    "local_data_tensor",
    "q_d_matrix",
    "q_level",
    "quotient_by_cyclic",
    "sample_kernel_section",
    "summand_count_check",
    "symbol",
    "tensor_presentation",
    "tensor_to_operator",
    "transform_term",
    "verify_splitting",
]
