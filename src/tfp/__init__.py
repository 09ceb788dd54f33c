"""Common positive definite solutions of paired nonlinear matrix equations.

The package couples a complex Hermitian matrix algebra on LAPACK with
the Thompson metric on the positive definite cone and a generic alternating
fixed-point engine, and exposes a solver plus CLI for the two supported
equation families.
"""

from . import cli, fixpoint_engine, hpd_core, matrix_solver, psi_family, thompson
from .errors import (
    ConditionsNotVerified,
    ConvergenceFailure,
    DimensionMismatch,
    MapDomainError,
    MaxIterationsExceeded,
    NonHermitianInput,
    NotInPsiAlpha,
    NotPositiveDefinite,
    ProblemFormatError,
    ResidualToleranceExceeded,
    TfpError,
    X0DomainError,
)
from .matrix_solver import (
    ProblemSpec,
    SolveOptions,
    SolveResult,
    check_conditions,
    problem_type1,
    problem_type2,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "cli",
    "fixpoint_engine",
    "hpd_core",
    "matrix_solver",
    "psi_family",
    "thompson",
    "ProblemSpec",
    "SolveOptions",
    "SolveResult",
    "check_conditions",
    "problem_type1",
    "problem_type2",
    "solve",
    "TfpError",
    "DimensionMismatch",
    "NonHermitianInput",
    "NotPositiveDefinite",
    "ConvergenceFailure",
    "NotInPsiAlpha",
    "MapDomainError",
    "MaxIterationsExceeded",
    "ResidualToleranceExceeded",
    "X0DomainError",
    "ConditionsNotVerified",
    "ProblemFormatError",
    "__version__",
]
