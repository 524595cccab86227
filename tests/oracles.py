"""Reference implementations and fixtures that only the tests use."""
from typing import Optional

import numpy as np

from expdg.errors import BlowUpError, UnsupportedModelError
from expdg.spatial import Grid, PeriodicBandedMatrix
from expdg.system import ConformalModel, polarized_kahan_system, quadratic_field


def vector_field(model: ConformalModel, u: np.ndarray) -> np.ndarray:
    """Full right-hand side S grad_H(u) - gamma_eff * u."""
    u = np.asarray(u)
    if u.shape != (model.dim,):
        raise ValueError(f"state length {u.shape} does not match model dim {model.dim}")
    out = model.conservative_field(u) - model.gamma_eff * u
    if not np.all(np.isfinite(out)):
        raise BlowUpError(f"non-finite vector field for model {model.name}")
    return out


def kahan_bilinear(model: ConformalModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric bilinear extension of the conservative field.

    Defined for quadratic fields f = Q + L: returns Qb(a, b) + L(a + b)/2,
    which satisfies fbar(u, u) = f(u) and the Kahan average identity
    fbar(a, b) = 2 f((a+b)/2) - f(a)/2 - f(b)/2.
    """
    if model.quadratic_bilinear is None:
        raise UnsupportedModelError(
            f"model {model.name} has no quadratic conservative field"
        )
    out = model.quadratic_bilinear(a, b)
    if model.linear_operator is not None:
        out = out + 0.5 * model.linear_operator.apply(a + b)
    return out


def pure_decay_model(dim: int, gamma_eff: float, grid: Optional[Grid] = None) -> ConformalModel:
    """grad_H = 0: the flow is exact exponential decay."""
    zeros = lambda u: np.zeros_like(u)
    zero = lambda u: np.zeros(np.shape(u)[:-1])[()]  # H = 0, one value per state
    model = ConformalModel(
        name="pure-decay",
        dim=dim,
        grid=grid,
        gamma=gamma_eff,
        gamma_eff=gamma_eff,
        apply_S=zeros,
        grad_H=zeros,
        hamiltonian=zero,
        hamiltonian_paper=zero,
        invariants=(),
        **quadratic_field(0.0, PeriodicBandedMatrix(dim)),
        polarized=None,
        lie_system_builder=lambda a, b, dt: polarized_kahan_system(model, a, b, dt),
    )
    return model
