"""fracdual: dual-method solver for Caputo fractional differential equations.

Two independent discretizations of the fractional derivative (a
substitution-based quadrature and an integration-by-parts quadrature)
solve the same problem; the result is reported reliable only when both
converge and agree within tolerance.
"""

from .caputo import (
    FractionalOrder,
    GridFunction,
    MethodKind,
    caputo_byparts,
    caputo_power,
    caputo_substitution,
    caputo_taylor,
    tan_taylor_coeffs,
)
from .dual import (
    DualReport,
    Verdict,
    VerdictKind,
    compare_to_exact,
    convergence_study,
    default_threshold,
    dual_solve,
    inter_method_difference,
)
from .expr import EvalDomainError, ParseError, evaluate, parse_expression, to_string
from .problem_file import ProblemFile, dump_problem, parse_problem, parse_problem_text
from .solver import (
    EquationSpec,
    Solution,
    SolverConfig,
    TermSpec,
    assemble_residual,
    solve,
)
from .special_functions import beta, gamma, lgamma

__all__ = [
    "FractionalOrder",
    "GridFunction",
    "MethodKind",
    "caputo_substitution",
    "caputo_byparts",
    "caputo_taylor",
    "caputo_power",
    "tan_taylor_coeffs",
    "DualReport",
    "Verdict",
    "VerdictKind",
    "dual_solve",
    "default_threshold",
    "compare_to_exact",
    "inter_method_difference",
    "convergence_study",
    "parse_expression",
    "evaluate",
    "to_string",
    "ParseError",
    "EvalDomainError",
    "ProblemFile",
    "parse_problem",
    "parse_problem_text",
    "dump_problem",
    "EquationSpec",
    "TermSpec",
    "SolverConfig",
    "Solution",
    "solve",
    "assemble_residual",
    "gamma",
    "lgamma",
    "beta",
]

__version__ = "0.1.0"
