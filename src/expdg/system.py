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

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, UnsupportedModelError
from .spatial import PeriodicBandedMatrix, dot


@dataclass(frozen=True)
class Invariant:
    """A functional of the state with (optionally) an exact decay rate.

    exact_rate is the lambda in I(t) = exp(-lambda t) I(0) along the
    semidiscrete flow; it equals p * gamma_eff for invariants of degree p
    that the conservative flow preserves.  evaluate takes states stacked on leading
    axes (..., dim) and returns one value per state, a scalar for a single
    state; each stacked value equals the value of its own row bitwise.
    """

    name: str
    evaluate: Callable[[np.ndarray], float]
    exact_rate: Optional[float]


@dataclass(frozen=True)
class PolarizedEnergy:
    """Symmetric two-argument extension H~ of an energy plus its PDG.

    evaluate(a, b): H~ with H~(u, u) = H(u) and H~(a, b) = H~(b, a); like
        Invariant.evaluate it takes pairs stacked on leading axes (..., dim)
        and returns one value per pair, bitwise that of the pair alone, and so
        does evaluate_printed.
    pdg(u, v, w): three-point gradient satisfying
        H~(v, w) - H~(u, v) = 0.5 * (w - u)^T pdg(u, v, w).
    """

    evaluate: Callable
    pdg: Callable
    theta: Optional[float] = None
    evaluate_printed: Optional[Callable] = None


@dataclass(frozen=True, eq=False)
class ConformalModel:
    """A damped Hamiltonian system du/dt = S grad_H(u) - gamma_eff u and what is recorded of it.

    The recorded functionals, hamiltonian, hamiltonian_paper, each invariant
    and the polarized energy, take states stacked on leading axes (..., dim)
    and return one value per state (a scalar for a single state), bitwise the
    value of that state alone: `integrate` evaluates them once per batch of
    recorded states.  The field, its Jacobian and the step builders take one state.
    """

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
    jacobian_conservative: Callable  # u -> Jacobian of the field (NLS: a linalg.TwoFieldMatrix)
    # (a, y) -> the mean of the field over the chord [a, y], int_0^1 f(a + s (y - a)) ds, in closed
    # form, and its Jacobian in y, int_0^1 s J(a + s (y - a)) ds, of the Jacobian's type: the AVF step
    chord_average: Callable
    chord_jacobian: Callable
    invariants: tuple
    quadratic_bilinear: Optional[Callable] = None  # Qb(x, y), bilinear part
    quadratic_matrix: Optional[Callable] = None  # x -> the operator Qb(x, .)
    linear_operator: Optional[PeriodicBandedMatrix] = None  # conservative linear part L
    polarized: Optional[PolarizedEnergy] = None
    polarized_degree: Optional[int] = None  # homogeneity degree of H~, if any
    # (a, b, dt) -> (mat, rhs, decode): the lie step on rescaled states a, b
    # solves mat x = rhs, and decode(x) is the rescaled next state
    lie_system_builder: Optional[Callable] = None
    # as-printed midpoint nonlinearity (mean of squares), kept for comparison
    printed_midpoint_field: Optional[Callable] = None
    printed_midpoint_jacobian: Optional[Callable] = None


def vector_field(model: ConformalModel, u: np.ndarray) -> np.ndarray:
    """Full right-hand side S grad_H(u) - gamma_eff * u."""
    u = np.asarray(u)
    if u.shape != (model.dim,):
        raise ValueError(f"state length {u.shape} does not match model dim {model.dim}")
    out = model.conservative_field(u) - model.gamma_eff * u
    if not np.all(np.isfinite(out)):
        raise BlowUpError(f"non-finite vector field for model {model.name}")
    return out


def quadratic_field(scale: float, stencil: PeriodicBandedMatrix, linear=None) -> dict:
    """The ConformalModel keywords of the field f(u) = scale D(u*u) + L u, D the stencil and L linear.

    Qb(x, y) = scale D(x*y) is its bilinear part, 2 scale D diag(u) + L its Jacobian; L may be None.
    J is affine in u, so the chord mean of f is scale D(a*a + y*y + a*y)/3 + L(a + y)/2 and that of
    s J is J((2y + a)/3)/2.  Its matrices and `linear_operator` live on one band, the offsets of D, 0
    and those of L, so every sum a step makes is one row add; Qb and the field apply D and L on their
    own offsets.
    """
    offsets = sorted({0, *stencil.offsets, *(() if linear is None else linear.offsets)})
    band = PeriodicBandedMatrix(stencil.size, offsets, np.zeros(len(offsets)))
    scaled, doubled = band + scale * stencil, band + (2 * scale) * stencil
    third = (scale / 3.0) * stencil
    banded = None if linear is None else band + linear

    def quadratic_bilinear(x, y):
        return scale * stencil.apply(x * y)

    def conservative_field(u):
        out = quadratic_bilinear(u, u)
        return out if linear is None else out + linear.apply(u)

    def jacobian_conservative(u):
        jac = doubled.scale_columns(u)
        return jac if linear is None else jac + banded

    def chord_average(a, y):
        out = third.apply(a * a + y * y + a * y)
        return out if linear is None else out + 0.5 * linear.apply(a + y)

    def chord_jacobian(a, y):
        jac = scaled.scale_columns((2.0 * y + a) / 3.0)
        return jac if linear is None else jac + 0.5 * banded

    return dict(conservative_field=conservative_field, jacobian_conservative=jacobian_conservative,
                chord_average=chord_average, chord_jacobian=chord_jacobian,
                quadratic_bilinear=quadratic_bilinear, quadratic_matrix=scaled.scale_columns,
                linear_operator=banded)


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


def _combine(wa: float, a: np.ndarray, wb: float, b: np.ndarray) -> Optional[np.ndarray]:
    """wa a + wb b without its zero terms; None when both weights are zero."""
    if not wb:
        return wa * a if wa else None
    return wa * a + wb * b if wa else wb * b


@functools.lru_cache(maxsize=64)
def _kahan_invariant(linear: PeriodicBandedMatrix, l2: float, diag: float) -> PeriodicBandedMatrix:
    """diag I - l2 L, read-only: the part of a Kahan matrix every step shares (keyed by L's identity)."""
    part = ((-l2) * linear).shift(diag)
    part.coeffs.flags.writeable = False
    return part


def kahan_system(model: ConformalModel, a, b, h: float, q, l, gamma: float = 0.0):
    """Matrix and right-hand side of the Kahan-family step (a, b) -> c:

        (c - a)/h = Qb(b, q0 a + q1 b + q2 c) + (L - gamma)(l0 a + l1 b + l2 c)

    for a quadratic field Qb(u, u) + L u.  One-step schemes pass b = a.  The
    system is linear in c; right-hand-side terms with a zero weight are not formed.
    Its step-invariant part (1/h + l2 gamma) I - l2 L is cached, so a step adds it by one row add.
    """
    if model.quadratic_bilinear is None or model.quadratic_matrix is None:
        raise UnsupportedModelError(
            f"model {model.name} has no quadratic conservative field for Kahan steps"
        )
    # Qb(b, .) is linear in b, so the weight scales b rather than the matrix
    mat, linear = model.quadratic_matrix(-q[2] * b), model.linear_operator
    diag = 1.0 / h + l[2] * gamma
    mat = mat.shift(diag) if linear is None else mat + _kahan_invariant(linear, l[2], diag)
    rhs = a / h
    qb_arg = _combine(q[0], a, q[1], b)
    if qb_arg is not None:
        rhs = rhs + model.quadratic_bilinear(b, qb_arg)
    weighted = _combine(l[0], a, l[1], b) if linear is not None or gamma else None
    if linear is not None:
        rhs = rhs + linear.apply(weighted)
    if gamma:
        rhs = rhs - gamma * weighted
    return mat, rhs


def _unchanged(x):
    return x


def polarized_kahan_system(model: ConformalModel, a, b, dt: float, theta: float = 1.0):
    """The lie_system_builder of a quadratic field.

    The discrete gradient of the theta-polarized energy is the kahan_system
    with h = 2 dt and the weights below; the solution needs no decoding.
    """
    third = 1.0 / 3.0
    weights = (third, third, third), (theta / 2.0, 1.0 - theta, theta / 2.0)
    return (*kahan_system(model, a, b, 2.0 * dt, *weights), _unchanged)


# the nodal polarization of H(u) = u^3, acting componentwise: H~(v, w) = v w (v + w)/2, and its
# PDG, the unique affine-in-w form with H~(v, w) - H~(u, v) = 0.5 (w - u) pdg(u, v, w)
NODAL_CUBIC = PolarizedEnergy(evaluate=lambda v, w: v * w * (v + w) / 2.0, pdg=lambda u, v, w: v * (u + v + w))


def polarize_quadratic_form(apply_a: Callable, theta: float) -> PolarizedEnergy:
    """Polarization of q(u) = 0.5 u^T A u for symmetric A (given by its action).

    H~(v, w) = theta (q(v) + q(w))/2 + (1 - theta) * 0.5 v^T A w, with PDG
    A (theta (u + w)/2 + (1 - theta) v).  apply_a and H~ act on states
    stacked on leading axes (..., dim).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")

    def evaluate(v, w):
        av, aw = apply_a(v), apply_a(w)
        # cross term written so swapping arguments is bitwise symmetric
        cross = 0.25 * (dot(v, aw) + dot(w, av))
        return theta * (0.5 * dot(v, av) + 0.5 * dot(w, aw)) / 2.0 + (1.0 - theta) * cross

    def pdg(u, v, w):
        return apply_a(theta * (u + w) / 2.0 + (1.0 - theta) * v)

    return PolarizedEnergy(evaluate=evaluate, pdg=pdg, theta=theta)
