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
        and returns one value per pair, bitwise that of the pair alone.
    pdg(u, v, w): three-point gradient satisfying
        H~(v, w) - H~(u, v) = 0.5 * (w - u)^T pdg(u, v, w).
    """

    evaluate: Callable
    pdg: Callable


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
    conservative_field: Callable
    # the banded operators below are spatial.PeriodicBandedMatrix instances
    jacobian_conservative: Callable  # u -> Jacobian of the field (NLS: a linalg.TwoFieldMatrix)
    # (a, y) -> the mean of the field over the chord [a, y], int_0^1 f(a + s (y - a)) ds, in closed
    # form, and its Jacobian in y, int_0^1 s J(a + s (y - a)) ds, of the Jacobian's type: the AVF step
    chord_average: Callable
    chord_jacobian: Callable
    invariants: tuple
    quadratic_bilinear: Optional[Callable] = None  # Qb(x, y), bilinear part
    # x -> the operator Qb(x, .), a new matrix on each call, on the offsets of linear_operator if that is
    # set: `kahan_system` adds into its rows
    quadratic_matrix: Optional[Callable] = None
    linear_operator: Optional[PeriodicBandedMatrix] = None  # conservative linear part L
    polarized: Optional[PolarizedEnergy] = None
    degree: Optional[int] = None  # homogeneity degree p of H and H~, if any: both decay at p gamma_eff
    # (a, b, dt) -> (mat, rhs, decode): the lie step on rescaled states a, b solves mat x = rhs for
    # x = c + a, c the rescaled next state, and decode(x) subtracts a from the fresh x to give c
    lie_system_builder: Optional[Callable] = None
    # (F, F_y) that the midpoint kinds take in place of f((a + y)/2) and J((a + y)/2)/2, if set
    midpoint_pair: Optional[tuple] = None


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
    scaled = band + scale * stencil
    third = (scale / 3.0) * stencil
    banded = None if linear is None else band + linear

    def quadratic_bilinear(x, y):
        return scale * stencil.apply(x * y)

    def conservative_field(u):
        out = quadratic_bilinear(u, u)
        return out if linear is None else out + linear.apply(u)

    def jacobian_conservative(u):
        jac = scaled.scale_columns(2.0 * u)  # exact: scaling by 2 rounds nothing
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


@functools.lru_cache(maxsize=64)
def _kahan_invariant(linear: PeriodicBandedMatrix, l2: float, diag: float) -> PeriodicBandedMatrix:
    """diag I - l2 L, read-only: the part of a Kahan matrix every step shares (keyed by L's identity)."""
    part = linear.shift(diag, -l2)
    part.coeffs.flags.writeable = False
    return part


def kahan_system(model: ConformalModel, a, b, h: float, q, l, gamma: float = 0.0):
    """(mat, rhs, decode) of the Kahan-family step (a, b) -> c = decode(solve(mat, rhs)):

        (c - a)/h = Qb(b, q0 a + q1 b + q2 c) + (L - gamma)(l0 a + l1 b + l2 c)

    for a quadratic field Qb(u, u) + L u, which `integrators.bind` checks the model has before any step.
    One-step schemes pass b = a.  The system is linear in c, with mat = (1/h + l2 gamma) I - q2 Qb(b, .)
    - l2 L.  With symmetric weights (q0 = q2, l0 = l2) adding mat a to both sides leaves
    mat (c + a) = (2/h) a + q1 Qb(b, b) + l1 (L - gamma) b, which applies nothing to a: the system is
    solved for c + a, and decode subtracts a in place from the fresh solution.  Other weights (ek1)
    must be one-step, b = a, so the right-hand side is a/h + (q0 + q1) Qb(b, b) + (l0 + l1) (L - gamma) b;
    they solve for c itself, and decode returns it unchanged.  Right-hand-side terms with a zero weight
    are not formed.  The step-invariant part (1/h + l2 gamma) I - l2 L is cached, so a step adds it by
    one row add.
    """
    # Qb(b, .) is linear in b, so the weight scales b rather than the matrix; the matrix is new and on
    # the band of L, so the rest goes into its rows in place
    mat, linear = model.quadratic_matrix(-q[2] * b), model.linear_operator
    diag = 1.0 / h + l[2] * gamma
    if linear is None:
        mat.coeffs[mat.offsets.index(0)] += diag
    else:
        mat.coeffs += _kahan_invariant(linear, l[2], diag).coeffs
    symmetric = q[0] == q[2] and l[0] == l[2]
    # symmetric weights: the terms in a cancel against mat a; other weights are one-step, a is b
    rhs, qw, lw = ((2.0 / h) * a, q[1], l[1]) if symmetric else (a / h, q[0] + q[1], l[0] + l[1])
    if qw:
        rhs += model.quadratic_bilinear(b, qw * b)
    if lw and (linear is not None or gamma):  # not formed at l1 = 0 on symmetric weights (lie, theta = 1)
        weighted = lw * b
        if linear is not None:
            rhs += linear.apply(weighted)
        if gamma:
            rhs -= gamma * weighted
    return mat, rhs, (lambda x: np.subtract(x, a, out=x)) if symmetric else _unchanged


def _unchanged(x):
    return x


def polarized_kahan_system(model: ConformalModel, a, b, dt: float, theta: float = 1.0):
    """The lie_system_builder of a quadratic field.

    The discrete gradient of the theta-polarized energy is the kahan_system
    with h = 2 dt and the symmetric weights below, so it is solved for c + a.
    """
    third = 1.0 / 3.0
    return kahan_system(model, a, b, 2.0 * dt, (third, third, third), (theta / 2.0, 1.0 - theta, theta / 2.0))


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

    return PolarizedEnergy(evaluate=evaluate, pdg=pdg)
