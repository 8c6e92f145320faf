"""Solvers for monotone submodular maximization under mixed packing and
covering constraints, with a brute-force oracle and factor-revealing LP
machinery for verifying every approximation claim."""

__version__ = "0.1.0"

from .core import (
    BudgetExceededError,
    ConcaveOfModularOracle,
    CoverageOracle,
    FeasibilityReport,
    InfeasibleError,
    Instance,
    LinearOracle,
    Params,
    PcsmError,
    SubmodularOracle,
    dump_instance,
    is_feasible,
    load_instance,
    make_instance,
    marginal,
    normalize,
)
from .brute import BruteResult, brute_optimum, brute_pareto
from .greedy_dp import dp_with_completion, scale_instance, vanilla_dp
from .forbidden_dp import (
    build_forbidden_index,
    cardinality_solve,
    forbidden_dp_solve,
    solve_polynomial,
)
from .lp import (
    LinearProgram,
    LpSolution,
    build_dual,
    build_lp,
    build_lp_f,
    linear_max_over_polytope,
    prepare_polytope,
    simplex_solve,
    verify_upper_bound_construction,
)
from .continuous import (
    Guess,
    continuous_greedy,
    enumerate_guesses,
    round_and_filter,
    solve_main,
)
from .kmedian import TwoDistInstance, match_value, solve_two_distance

__all__ = [
    "BruteResult",
    "BudgetExceededError",
    "ConcaveOfModularOracle",
    "CoverageOracle",
    "FeasibilityReport",
    "Guess",
    "InfeasibleError",
    "Instance",
    "LinearOracle",
    "LinearProgram",
    "LpSolution",
    "Params",
    "PcsmError",
    "SubmodularOracle",
    "TwoDistInstance",
    "brute_optimum",
    "brute_pareto",
    "build_dual",
    "build_forbidden_index",
    "build_lp",
    "build_lp_f",
    "cardinality_solve",
    "continuous_greedy",
    "dp_with_completion",
    "dump_instance",
    "enumerate_guesses",
    "forbidden_dp_solve",
    "is_feasible",
    "linear_max_over_polytope",
    "load_instance",
    "make_instance",
    "marginal",
    "match_value",
    "normalize",
    "prepare_polytope",
    "round_and_filter",
    "scale_instance",
    "simplex_solve",
    "solve_main",
    "solve_polynomial",
    "solve_two_distance",
    "vanilla_dp",
    "verify_upper_bound_construction",
]
