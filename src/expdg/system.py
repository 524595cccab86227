"""Conformal Hamiltonian systems: semidiscrete field, invariants, polarization.

A model is the semidiscrete system

    du/dt = S grad_H(u) - gamma_eff * u

where S is linear and skew and H is the discrete Hamiltonian.  Quantities
that the conservative flow preserves decay exponentially under the damping;
the exact rate of a homogeneous invariant of degree p is p * gamma_eff.

Discrete Hamiltonians carry the quadrature weight dx; the skew operator S
absorbs the compensating 1/dx so that S grad_H equals the nodal vector field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, UnsupportedModelError
from .spatial import PeriodicBandedMatrix


@dataclass(frozen=True)
class Invariant:
    """A functional of the state with (optionally) an exact decay rate.

    exact_rate is the lambda in I(t) = exp(-lambda t) I(0) along the
    semidiscrete flow; it equals degree * gamma_eff for invariants the
    conservative flow preserves.
    """

    name: str
    evaluate: Callable[[np.ndarray], float]
    exact_rate: Optional[float]
    degree: int


@dataclass(frozen=True)
class PolarizedEnergy:
    """Symmetric two-argument extension H~ of an energy plus its PDG.

    evaluate(a, b): H~ with H~(u, u) = H(u) and H~(a, b) = H~(b, a).
    pdg(u, v, w): three-point gradient satisfying
        H~(v, w) - H~(u, v) = 0.5 * (w - u)^T pdg(u, v, w).
    """

    evaluate: Callable
    pdg: Callable
    theta: Optional[float] = None
    evaluate_printed: Optional[Callable] = None


@dataclass(frozen=True, eq=False)
class ConformalModel:
    name: str
    dim: int
    grid: object
    gamma: float  # damping coefficient as printed in the PDE
    gamma_eff: float  # decay rate of the linear term in the semidiscrete ODE
    apply_S: Callable
    grad_H: Callable
    hamiltonian: Callable  # generator: S grad(hamiltonian) = conservative field
    hamiltonian_paper: Callable  # the reported energy (may differ by scaling)
    hamiltonian_rate: Optional[float]  # exact decay rate of the reported energy
    conservative_field: Callable
    # the banded operators below are spatial.PeriodicBandedMatrix instances
    jacobian_conservative: Callable  # u -> Jacobian of the field, packed coordinates
    invariants: tuple
    quadratic_bilinear: Optional[Callable] = None  # Qb(x, y), bilinear part
    quadratic_matrix: Optional[Callable] = None  # x -> the operator Qb(x, .)
    linear_operator: Optional[PeriodicBandedMatrix] = None  # conservative linear part L
    polarized: Optional[PolarizedEnergy] = None
    polarized_degree: Optional[int] = None  # homogeneity degree of H~, if any
    lie_system_builder: Optional[Callable] = None
    pack_order: Optional[np.ndarray] = None  # state -> banded solver ordering
    unpack_order: Optional[np.ndarray] = None
    # as-printed midpoint nonlinearity (mean of squares), kept for comparison
    printed_midpoint_field: Optional[Callable] = None
    printed_midpoint_jacobian: Optional[Callable] = None

    def pack(self, u: np.ndarray) -> np.ndarray:
        return u if self.pack_order is None else u[self.pack_order]

    def unpack(self, y: np.ndarray) -> np.ndarray:
        return y if self.unpack_order is None else y[self.unpack_order]


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


def polarize_monomial(degree: int, theta: Optional[float] = None) -> PolarizedEnergy:
    """Nodal polarization rules for H(u) = u^degree, degree in {2, 3, 4}.

    The returned callables act componentwise.  The PDG expressions are the
    unique affine-in-w forms satisfying the defining identity
    H~(v, w) - H~(u, v) = 0.5 (w - u) pdg(u, v, w).
    """
    if degree == 2:
        th = 0.5 if theta is None else float(theta)
        if not 0.0 <= th <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta}")

        def evaluate(v, w):
            return th * (v * v + w * w) / 2.0 + (1.0 - th) * v * w

        def pdg(u, v, w):
            return th * (u + w) + 2.0 * (1.0 - th) * v

        return PolarizedEnergy(evaluate=evaluate, pdg=pdg, theta=th)
    if theta is not None:
        raise ValueError("theta applies to degree 2 only")
    if degree == 3:
        return PolarizedEnergy(
            evaluate=lambda v, w: v * w * (v + w) / 2.0,
            pdg=lambda u, v, w: v * (u + v + w),
        )
    if degree == 4:
        return PolarizedEnergy(
            evaluate=lambda v, w: v * v * w * w,
            pdg=lambda u, v, w: 2.0 * v * v * (u + w),
        )
    raise ValueError(f"degree must be 2, 3 or 4, got {degree}")


def polarize_quadratic_form(apply_a: Callable, theta: float) -> PolarizedEnergy:
    """Polarization of q(u) = 0.5 u^T A u for symmetric A (given by its action).

    H~(v, w) = theta (q(v) + q(w))/2 + (1 - theta) * 0.5 v^T A w, with PDG
    A (theta (u + w)/2 + (1 - theta) v).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")

    def q(u):
        return 0.5 * float(u @ apply_a(u))

    def evaluate(v, w):
        # cross term written so swapping arguments is bitwise symmetric
        cross = 0.25 * (float(v @ apply_a(w)) + float(w @ apply_a(v)))
        return theta * (q(v) + q(w)) / 2.0 + (1.0 - theta) * cross

    def pdg(u, v, w):
        return apply_a(theta * (u + w) / 2.0 + (1.0 - theta) * v)

    return PolarizedEnergy(evaluate=evaluate, pdg=pdg, theta=theta)
