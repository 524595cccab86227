"""Damped Burgers, KdV and NLS models with their experiment presets.

Each factory assembles a ConformalModel: the semidiscrete vector field, the
generator Hamiltonian (whose gradient produces that field), invariants with
their exact decay rates, the polarized energy used by the two-step linearly
implicit scheme, and the builder of that scheme's linear system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spatial import (
    Grid,
    PeriodicBandedMatrix,
    build_grid,
    derivative_operator,
    diagonal,
    quadrature,
)
from .system import (
    ConformalModel,
    Invariant,
    PolarizedEnergy,
    polarize_monomial,
    polarize_quadratic_form,
)


@dataclass(frozen=True)
class BurgersParams:
    gamma: float
    grid: Grid

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


@dataclass(frozen=True)
class KdvParams:
    alpha: float
    rho: float
    nu: float
    gamma: float
    grid: Grid

    def __post_init__(self):
        for label, value in (("alpha", self.alpha), ("rho", self.rho), ("nu", self.nu)):
            if not np.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


@dataclass(frozen=True)
class NlsParams:
    alpha: float
    gamma: float
    grid: Grid

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


def burgers_model(p: BurgersParams) -> ConformalModel:
    """u_t = -u u_x - 2 gamma u on a periodic grid.

    Semidiscrete field -D1(u*u)/2 - 2 gamma u.  The generator Hamiltonian is
    dx sum(u^3)/6 with S = -D1/dx; the reported energy follows the u^3/3
    integral convention and is exactly twice the generator.
    """
    grid = p.grid
    m, dx = grid.size, grid.spacing
    d1 = derivative_operator(grid, 1)
    neg_d1, half_neg_d1, sixth_d1 = -1.0 * d1, -0.5 * d1, (1.0 / 6.0) * d1
    ghat = 2.0 * p.gamma

    def conservative_field(u):
        return -0.5 * d1.apply(u * u)

    def grad_h(u):
        return 0.5 * dx * u * u

    def apply_s(w):
        return -d1.apply(w) / dx

    def jacobian_conservative(u):
        return neg_d1 @ diagonal(m, u)

    def quadratic_bilinear(x, y):
        return -0.5 * d1.apply(x * y)

    def quadratic_matrix(x):
        return half_neg_d1 @ diagonal(m, x)

    nodal3 = polarize_monomial(3)

    def pol_eval(v, w):
        return dx / 6.0 * float(np.sum(nodal3.evaluate(v, w)))

    def pol_pdg(u, v, w):
        return dx / 6.0 * nodal3.pdg(u, v, w)

    def lie_builder(u_n, u_np1, dt, exps):
        at = math.exp(exps.x0) * u_n
        bt = math.exp(exps.x1) * u_np1
        mat = diagonal(m, 1.0 / (2.0 * dt)) + sixth_d1 @ diagonal(m, bt)
        rhs = at / (2.0 * dt) - d1.apply(bt * (at + bt)) / 6.0
        back = math.exp(-exps.x2)
        return mat, rhs, lambda c: back * c

    def printed_midpoint_field(a, b):
        # the as-printed average: mean of squares instead of squared mean
        return -0.25 * d1.apply(a * a + b * b)

    invariants = (
        Invariant("mass", lambda u: quadrature(grid, u), exact_rate=ghat, degree=1),
    )
    return ConformalModel(
        name="burgers",
        dim=m,
        grid=grid,
        gamma=p.gamma,
        gamma_eff=ghat,
        apply_S=apply_s,
        grad_H=grad_h,
        hamiltonian=lambda u: dx * float(np.sum(u**3)) / 6.0,
        hamiltonian_paper=lambda u: dx * float(np.sum(u**3)) / 3.0,
        hamiltonian_rate=3.0 * ghat,
        conservative_field=conservative_field,
        jacobian_conservative=jacobian_conservative,
        invariants=invariants,
        quadratic_bilinear=quadratic_bilinear,
        quadratic_matrix=quadratic_matrix,
        polarized=PolarizedEnergy(evaluate=pol_eval, pdg=pol_pdg),
        polarized_degree=3,
        lie_system_builder=lie_builder,
        printed_midpoint_field=printed_midpoint_field,
        printed_midpoint_jacobian=lambda a, b: quadratic_matrix(b),
    )


def kdv_model(p: KdvParams, theta: float = 0.5) -> ConformalModel:
    """u_t = alpha (u^2)_x + rho u_x + nu u_xxx - 2 gamma u.

    The derivative term of the Hamiltonian is realized as the quadratic form
    (nu/2) u^T D2 u so that S grad_H reproduces nu D3 u with D3 = D1 D2.
    theta weights the polarization of the linear (rho, nu) terms.
    """
    grid = p.grid
    m, dx = grid.size, grid.spacing
    d1 = derivative_operator(grid, 1)
    d2 = derivative_operator(grid, 2)
    d3 = derivative_operator(grid, 3)
    alpha, rho, nu = p.alpha, p.rho, p.nu
    ghat = 2.0 * p.gamma
    linear = rho * d1 + nu * d3
    alpha_d1, two_alpha_d1 = alpha * d1, (2.0 * alpha) * d1
    # the constant stencils of the lie system
    lie_d1 = (-alpha / 3.0) * d1
    lie_linear_d1, lie_d3 = (-rho * theta / 2.0) * d1, (-nu * theta / 2.0) * d3

    def conservative_field(u):
        return alpha * d1.apply(u * u) + linear.apply(u)

    def grad_h(u):
        return dx * (alpha * u * u + rho * u + nu * d2.apply(u))

    def apply_s(w):
        return d1.apply(w) / dx

    def hamiltonian(u):
        cubic = alpha / 3.0 * float(np.sum(u**3))
        quad = rho / 2.0 * float(np.sum(u * u))
        deriv = nu / 2.0 * float(u @ d2.apply(u))
        return dx * (cubic + quad + deriv)

    def jacobian_conservative(u):
        return two_alpha_d1 @ diagonal(m, u) + linear

    def quadratic_bilinear(x, y):
        return alpha * d1.apply(x * y)

    def quadratic_matrix(x):
        return alpha_d1 @ diagonal(m, x)

    nodal3 = polarize_monomial(3)
    nodal2 = polarize_monomial(2, theta)
    form = polarize_quadratic_form(lambda z: nu * dx * d2.apply(z), theta)

    def pol_eval(v, w):
        poly = alpha / 3.0 * float(np.sum(nodal3.evaluate(v, w)))
        poly += rho / 2.0 * float(np.sum(nodal2.evaluate(v, w)))
        return dx * poly + form.evaluate(v, w)

    def pol_pdg(u, v, w):
        poly = alpha / 3.0 * nodal3.pdg(u, v, w) + rho / 2.0 * nodal2.pdg(u, v, w)
        return dx * poly + form.pdg(u, v, w)

    def lie_builder(u_n, u_np1, dt, exps):
        at = math.exp(exps.x0) * u_n
        bt = math.exp(exps.x1) * u_np1
        mat = diagonal(m, 1.0 / (2.0 * dt)) + lie_d1 @ diagonal(m, bt) + lie_linear_d1 + lie_d3
        rhs = (
            at / (2.0 * dt)
            + alpha / 3.0 * d1.apply(bt * (at + bt))
            + rho / 2.0 * d1.apply(theta * at + 2.0 * (1.0 - theta) * bt)
            + nu * d3.apply(theta * at / 2.0 + (1.0 - theta) * bt)
        )
        back = math.exp(-exps.x2)
        return mat, rhs, lambda c: back * c

    invariants = (
        Invariant("I1", lambda u: quadrature(grid, u), exact_rate=ghat, degree=1),
        Invariant("I2", lambda u: quadrature(grid, u * u), exact_rate=2.0 * ghat, degree=2),
    )
    return ConformalModel(
        name="kdv",
        dim=m,
        grid=grid,
        gamma=p.gamma,
        gamma_eff=ghat,
        apply_S=apply_s,
        grad_H=grad_h,
        hamiltonian=hamiltonian,
        hamiltonian_paper=hamiltonian,
        hamiltonian_rate=None,
        conservative_field=conservative_field,
        jacobian_conservative=jacobian_conservative,
        invariants=invariants,
        quadratic_bilinear=quadratic_bilinear,
        quadratic_matrix=quadratic_matrix,
        linear_operator=linear,
        polarized=PolarizedEnergy(evaluate=pol_eval, pdg=pol_pdg, theta=theta),
        polarized_degree=None,
        lie_system_builder=lie_builder,
    )


def nls_model(p: NlsParams, theta: float = 1.0) -> ConformalModel:
    """i psi_t = -psi_xx - alpha |psi|^2 psi - i (gamma/2) psi, psi = u + i v.

    State is the stacked real pair (u; v) of length 2M.  The effective
    damping rate is gamma/2.  Newton systems are assembled in interleaved
    ordering (u_0, v_0, u_1, v_1, ...) where the Jacobian is banded with
    half-bandwidth 3.
    """
    grid = p.grid
    m, dx = grid.size, grid.spacing
    d1 = derivative_operator(grid, 1)
    d2 = derivative_operator(grid, 2)
    lie_d2 = -0.5j * d2
    alpha = p.alpha
    ghat = 0.5 * p.gamma
    dim = 2 * m

    def split(x):
        return x[:m], x[m:]

    def conservative_field(x):
        u, v = split(x)
        mod = u * u + v * v
        return np.concatenate([-d2.apply(v) - alpha * mod * v, d2.apply(u) + alpha * mod * u])

    def grad_h(x):
        u, v = split(x)
        mod = u * u + v * v
        return dx * np.concatenate([alpha * mod * u + d2.apply(u), alpha * mod * v + d2.apply(v)])

    def apply_s(g):
        gu, gv = split(g)
        return np.concatenate([-gv, gu]) / dx

    def hamiltonian(x):
        u, v = split(x)
        mod = u * u + v * v
        quart = alpha / 4.0 * float(np.sum(mod * mod))
        deriv = 0.5 * (float(u @ d2.apply(u)) + float(v @ d2.apply(v)))
        return dx * (quart + deriv)

    pack_order = np.empty(dim, dtype=np.intp)
    pack_order[0::2] = np.arange(m)
    pack_order[1::2] = m + np.arange(m)
    unpack_order = np.argsort(pack_order)

    inv_dx2 = 1.0 / dx**2
    # Jacobian rows at offsets -3, -1, 0, 1, 3 in interleaved ordering (even
    # = du/dt equation, odd = dv/dt equation); the D2 entries are constant
    jac_offsets = (-3, -1, 0, 1, 3)
    jac_constant = np.zeros((5, dim))
    jac_constant[0, 1::2] = inv_dx2
    jac_constant[1, 0::2] = -inv_dx2
    jac_constant[3, 1::2] = inv_dx2
    jac_constant[4, 0::2] = -inv_dx2

    def jacobian_conservative(x):
        u, v = split(x)
        mod = u * u + v * v
        rows = jac_constant.copy()
        two_auv = 2.0 * alpha * u * v
        rows[2, 0::2] = -two_auv
        rows[2, 1::2] = two_auv
        rows[3, 0::2] = 2.0 * inv_dx2 - alpha * (mod + 2.0 * v * v)
        rows[1, 1::2] = -2.0 * inv_dx2 + alpha * (mod + 2.0 * u * u)
        return PeriodicBandedMatrix(dim, jac_offsets, rows)

    form = polarize_quadratic_form(
        lambda z: dx * np.concatenate([d2.apply(z[:m]), d2.apply(z[m:])]), theta
    )

    def pol_eval(a, b):
        ua, va = split(a)
        ub, vb = split(b)
        quart = alpha / 4.0 * dx * float(np.sum((ua * ua + va * va) * (ub * ub + vb * vb)))
        return quart + form.evaluate(a, b)

    def pol_pdg(a, b, c):
        ub, vb = split(b)
        mod_b = ub * ub + vb * vb
        quart = alpha / 2.0 * dx * np.concatenate([mod_b, mod_b]) * (a + c)
        return quart + form.pdg(a, b, c)

    def pol_eval_printed(a, b):
        # literal transcription of the displayed polarized Hamiltonian; the
        # derivative pieces integrate to zero on the periodic grid
        ua, va = split(a)
        ub, vb = split(b)
        poly = alpha / 4.0 * (ua * ua * ub * ub + va * va * ub * ub + ua * va + ub * vb)
        deriv = -0.5 * d1.apply(ua * ua + ub * ub) - 0.5 * d1.apply(va * va + vb * vb)
        return dx * float(np.sum(poly + deriv))

    def lie_builder(u_n, u_np1, dt, exps):
        # reduce the 2M real system to one complex M-dim periodic-banded solve
        e0, e1 = math.exp(exps.x0), math.exp(exps.x1)
        ua, va = e0 * u_n[:m], e0 * u_n[m:]
        ub, vb = e1 * u_np1[:m], e1 * u_np1[m:]
        mod_b = ub * ub + vb * vb
        za = ua + 1j * va
        mat = diagonal(m, 1.0 / (2.0 * dt) - 0.5j * alpha * mod_b) + lie_d2
        rhs = za / (2.0 * dt) + 1j * (0.5 * d2.apply(za) + 0.5 * alpha * mod_b * za)
        back = math.exp(-exps.x2)

        def decode(z):
            return back * np.concatenate([z.real, z.imag])

        return mat, rhs, decode

    def mass(x):
        u, v = split(x)
        return dx * float(np.sum(u * u) + np.sum(v * v))

    def momentum(x):
        # skew-symmetrized discrete form of int (v_x u - u_x v) dx
        u, v = split(x)
        return dx * (float(d1.apply(v) @ u) - float(d1.apply(u) @ v))

    invariants = (
        Invariant("mass", mass, exact_rate=2.0 * ghat, degree=2),
        Invariant("momentum", momentum, exact_rate=2.0 * ghat, degree=2),
    )
    return ConformalModel(
        name="nls",
        dim=dim,
        grid=grid,
        gamma=p.gamma,
        gamma_eff=ghat,
        apply_S=apply_s,
        grad_H=grad_h,
        hamiltonian=hamiltonian,
        hamiltonian_paper=hamiltonian,
        hamiltonian_rate=None,
        conservative_field=conservative_field,
        jacobian_conservative=jacobian_conservative,
        invariants=invariants,
        polarized=PolarizedEnergy(
            evaluate=pol_eval, pdg=pol_pdg, theta=theta, evaluate_printed=pol_eval_printed
        ),
        polarized_degree=None,
        lie_system_builder=lie_builder,
        pack_order=pack_order,
        unpack_order=unpack_order,
    )


def pure_decay_model(dim: int, gamma_eff: float, grid: Optional[Grid] = None) -> ConformalModel:
    """grad_H = 0: the flow is exact exponential decay.  Test fixture."""
    zeros = lambda u: np.zeros_like(u)

    def lie_builder(u_n, u_np1, dt, exps):
        at = math.exp(exps.x0) * u_n
        mat = diagonal(dim, 1.0 / (2.0 * dt))
        back = math.exp(-exps.x2)
        return mat, at / (2.0 * dt), lambda c: back * c

    return ConformalModel(
        name="pure-decay",
        dim=dim,
        grid=grid,
        gamma=gamma_eff,
        gamma_eff=gamma_eff,
        apply_S=zeros,
        grad_H=zeros,
        hamiltonian=lambda u: 0.0,
        hamiltonian_paper=lambda u: 0.0,
        hamiltonian_rate=None,
        conservative_field=zeros,
        jacobian_conservative=lambda u: PeriodicBandedMatrix(dim),
        invariants=(),
        quadratic_bilinear=lambda x, y: np.zeros_like(x),
        quadratic_matrix=lambda x: PeriodicBandedMatrix(dim),
        polarized=None,
        polarized_degree=None,
        lie_system_builder=lie_builder,
    )


def initial_condition(model_kind: str, grid: Grid) -> np.ndarray:
    x = grid.nodes
    if model_kind == "burgers":
        return np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi)
    if model_kind == "kdv":
        return 2.0 * np.exp(-2.0 * x**2) / math.sqrt(2.0 * math.pi)
    if model_kind == "nls":
        sech = 1.0 / np.cosh(x)
        return np.concatenate([sech * np.cos(2.0 * x), sech * np.sin(2.0 * x)])
    raise ValueError(f"unknown model kind {model_kind!r}")


def make_model(
    model_kind: str,
    grid: Grid,
    gamma: float,
    alpha: Optional[float] = None,
    rho: Optional[float] = None,
    nu: Optional[float] = None,
    theta: Optional[float] = None,
) -> ConformalModel:
    """Dispatch a model by name with per-model default theta."""
    if model_kind == "burgers":
        return burgers_model(BurgersParams(gamma=gamma, grid=grid))
    if model_kind == "kdv":
        params = KdvParams(
            alpha=-0.375 if alpha is None else alpha,
            rho=-10.0 if rho is None else rho,
            nu=-1e-5 if nu is None else nu,
            gamma=gamma,
            grid=grid,
        )
        return kdv_model(params, theta=0.5 if theta is None else theta)
    if model_kind == "nls":
        params = NlsParams(alpha=2.0 if alpha is None else alpha, gamma=gamma, grid=grid)
        return nls_model(params, theta=1.0 if theta is None else theta)
    raise ValueError(f"unknown model kind {model_kind!r}")


# experiment presets; flags can override any entry
PRESETS = {
    "burgers-paper": {
        "model": "burgers",
        "scheme": "ek2",
        "gamma": 0.25,
        "L": math.pi,
        "M": 80,
        "dt": 0.009,
        "T": 50.0,
    },
    "kdv-paper": {
        "model": "kdv",
        "scheme": "ek2",
        "alpha": -0.375,
        "rho": -10.0,
        "nu": -1e-5,
        "gamma": 1e-2,
        "L": 10.0,
        "M": 248,
        "dt": 0.009,
        "T": 50.0,
    },
    "nls-paper": {
        "model": "nls",
        "scheme": "lie",
        "alpha": 2.0,
        "gamma": 5e-4,
        "L": 25.0,
        "M": 1024,
        "dt": 0.001,
        "T": 10.0,
    },
}


def preset_grid(name: str) -> Grid:
    cfg = PRESETS[name]
    return build_grid(cfg["L"], cfg["M"])
