"""Exception types shared across the package."""


class TfpError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(TfpError):
    """Operands have incompatible shapes."""


class NonHermitianInput(TfpError):
    """A matrix violates the Hermitian symmetry tolerance or has non-finite
    entries."""


class NotPositiveDefinite(TfpError):
    """A matrix required to be positive definite is not."""


class ConvergenceFailure(TfpError):
    """LAPACK ``eigh`` failed to converge on an eigendecomposition."""


class NotInPsiAlpha(TfpError):
    """A control function does not certify a contraction constant below 1."""


class MaxIterationsExceeded(TfpError):
    """The iteration hit its step budget before meeting the gap tolerance.

    Attributes
    ----------
    trace : IterationTrace
        The partial trace accumulated up to the budget.
    result : SolveResult or None
        Partial solver result, attached by the matrix solver.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
        self.result = None


class ResidualToleranceExceeded(TfpError):
    """Iteration converged in the metric but the equation residuals stayed
    above the certification tolerance (the equation pair is inconsistent).

    Attributes
    ----------
    result : SolveResult
        The uncertified result.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class X0DomainError(TfpError):
    """The starting point lies outside the admissible ball."""


class ConditionsNotVerified(TfpError):
    """The sufficiency-condition report failed and the solve was not forced.

    Attributes
    ----------
    report : ConditionReport
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ProblemFormatError(TfpError):
    """A problem or trace file failed parsing or schema validation."""
