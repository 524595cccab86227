"""Exception types shared across the package."""


class ExpdgError(Exception):
    """Base class for all package-specific errors."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        # partial integration record, when the failure happened mid-run
        self.partial = partial


class ConfigError(ExpdgError):
    """Invalid or unparsable run configuration."""


class NonConvergenceError(ExpdgError):
    """Nonlinear solve failed to reach tolerance within the iteration budget."""

    def __init__(self, message, iterations=None, residual=None, partial=None):
        super().__init__(message, partial)
        self.iterations = iterations
        self.residual = residual


class BlowUpError(ExpdgError):
    """Numerical solution became non-finite."""

    def __init__(self, message, step=None, time=None, partial=None):
        super().__init__(message, partial)
        self.step = step
        self.time = time


class SingularMatrixError(ExpdgError):
    """Linear system matrix is singular to working precision."""


class UnsupportedModelError(ExpdgError):
    """Requested scheme/model combination is not defined."""
