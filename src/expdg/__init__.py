"""Structure-preserving exponential integrators for damped Hamiltonian PDEs."""

from .errors import (
    BlowUpError,
    ConfigError,
    ExpdgError,
    NonConvergenceError,
    SingularMatrixError,
    UnsupportedModelError,
)
from .spatial import Grid, build_grid, derivative_operator, quadrature
from .linalg import PeriodicBandedMatrix, newton_solve, solve_periodic_banded
from .system import ConformalModel, Invariant, PolarizedEnergy
from .models import PRESETS, initial_condition, make_model
from .integrators import RunRecord, SchemeSpec, StepResult, integrate
from .diagnostics import observed_order, reference_solve, residual_series

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "ConfigError",
    "ConformalModel",
    "ExpdgError",
    "Grid",
    "Invariant",
    "NonConvergenceError",
    "PRESETS",
    "PeriodicBandedMatrix",
    "PolarizedEnergy",
    "RunRecord",
    "SchemeSpec",
    "SingularMatrixError",
    "StepResult",
    "UnsupportedModelError",
    "build_grid",
    "derivative_operator",
    "initial_condition",
    "integrate",
    "make_model",
    "newton_solve",
    "observed_order",
    "quadrature",
    "reference_solve",
    "residual_series",
    "solve_periodic_banded",
    "__version__",
]
